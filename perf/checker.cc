#include "checker.h"

#include <cstdlib>

#include "bench.h"

namespace ycsbt {
namespace perf {

namespace {

constexpr char kTable[] = "usertable";
constexpr char kBalanceField[] = "field0";

bool ParseInt(const std::string& text, int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  long long v = std::strtoll(text.c_str(), &end, 10);
  if (*end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

BalanceSheet SheetFromValidation(const core::ValidationResult& validation,
                                 uint64_t attempted, uint64_t committed) {
  BalanceSheet sheet;
  sheet.attempted = attempted;
  sheet.committed = committed;
  if (!validation.performed) return sheet;
  sheet.anomaly_score = validation.passed ? validation.anomaly_score : -1.0;
  for (const auto& [key, value] : validation.report) {
    int64_t v = 0;
    if (key == "COUNTED CASH" && ParseInt(value, &v)) sheet.cash = v;
    if (key == "COUNTED RECORDS" && ParseInt(value, &v)) {
      sheet.accounts = static_cast<uint64_t>(v);
    }
  }
  return sheet;
}

std::vector<std::string> CheckSheet(uint64_t records, const BalanceSheet& sheet) {
  std::vector<std::string> errors;
  int64_t cash = static_cast<int64_t>(records) * kCashPerAccount;
  if (sheet.cash != cash) {
    errors.push_back("balances sum to " + std::to_string(sheet.cash) +
                     ", expected " + std::to_string(cash));
  }
  if (sheet.accounts != records) {
    errors.push_back("counted " + std::to_string(sheet.accounts) +
                     " accounts, expected " + std::to_string(records));
  }
  if (sheet.anomaly_score != 0.0) {
    errors.push_back("anomaly score " + std::to_string(sheet.anomaly_score) +
                     ", expected exactly 0");
  }
  if (sheet.attempted == 0 || sheet.committed != sheet.attempted) {
    errors.push_back(std::to_string(sheet.committed) + " of " +
                     std::to_string(sheet.attempted) +
                     " attempted transactions committed");
  }
  return errors;
}

Status ReadBalances(DB& db, std::map<std::string, int64_t>* balances) {
  balances->clear();
  constexpr size_t kPage = 1000;
  std::string cursor;
  for (;;) {
    std::vector<ScanRow> rows;
    Status s = db.Scan(kTable, cursor, kPage, nullptr, &rows);
    if (!s.ok()) return s;
    for (const ScanRow& row : rows) {
      auto it = row.fields.find(kBalanceField);
      int64_t balance = 0;
      if (it == row.fields.end() || !ParseInt(it->second, &balance)) {
        return Status::Corruption("unparsable balance for key " + row.key);
      }
      (*balances)[row.key] = balance;
    }
    if (rows.size() < kPage) return Status::OK();
    cursor = rows.back().key + '\0';
  }
}

std::vector<std::string> CheckSameBalances(
    const std::map<std::string, int64_t>& before,
    const std::map<std::string, int64_t>& after) {
  std::vector<std::string> errors;
  if (before.size() != after.size()) {
    errors.push_back(std::to_string(before.size()) + " accounts before close, " +
                     std::to_string(after.size()) + " after reopen");
  }
  for (const auto& [key, balance] : before) {
    auto it = after.find(key);
    if (it == after.end()) {
      errors.push_back("account " + key + " missing after reopen");
    } else if (it->second != balance) {
      errors.push_back("account " + key + " held " + std::to_string(balance) +
                       " before close, " + std::to_string(it->second) +
                       " after reopen");
    }
    if (errors.size() >= 5) break;  // enough to diagnose
  }
  return errors;
}

std::vector<std::string> CheckerSelfTest() {
  constexpr uint64_t kRecords = 10;
  BalanceSheet good;
  good.accounts = kRecords;
  good.cash = static_cast<int64_t>(kRecords) * kCashPerAccount;
  good.anomaly_score = 0.0;
  good.attempted = 7;
  good.committed = 7;

  std::vector<std::string> missed;
  if (!CheckSheet(kRecords, good).empty()) missed.push_back("rejected a good sheet");
  BalanceSheet bad = good;
  bad.cash += 1;
  if (CheckSheet(kRecords, bad).empty()) missed.push_back("accepted cash + 1");
  bad = good;
  bad.cash -= 1;
  if (CheckSheet(kRecords, bad).empty()) missed.push_back("accepted cash - 1");
  bad = good;
  bad.accounts += 1;
  if (CheckSheet(kRecords, bad).empty()) missed.push_back("accepted accounts + 1");
  bad = good;
  bad.committed -= 1;
  if (CheckSheet(kRecords, bad).empty()) missed.push_back("accepted a lost commit");
  bad = good;
  bad.anomaly_score = 1.0 / 7.0;
  if (CheckSheet(kRecords, bad).empty()) missed.push_back("accepted an anomaly");

  std::map<std::string, int64_t> before = {{"a", 999}, {"b", 1001}};
  std::map<std::string, int64_t> after = before;
  if (!CheckSameBalances(before, after).empty()) {
    missed.push_back("rejected identical balances");
  }
  after["a"] += 1;
  if (CheckSameBalances(before, after).empty()) {
    missed.push_back("accepted an account off by one after reopen");
  }
  after = before;
  after.erase("b");
  if (CheckSameBalances(before, after).empty()) {
    missed.push_back("accepted an account lost on reopen");
  }
  return missed;
}

}  // namespace perf
}  // namespace ycsbt
