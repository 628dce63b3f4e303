// Output checks of the benchmark.  Every expected value comes from the
// workload's inputs (account count, cash per account), never from a saved
// output of an earlier run.
#ifndef YCSBT_PERF_CHECKER_H_
#define YCSBT_PERF_CHECKER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/workload.h"
#include "db/db.h"

namespace ycsbt {
namespace perf {

/// What a run's Tier-6 validation and its client loop report.
struct BalanceSheet {
  uint64_t accounts = 0;     ///< rows counted by the validation sweep
  int64_t cash = 0;          ///< sum of their balances
  double anomaly_score = -1;
  uint64_t attempted = 0;    ///< transactions the run attempted
  uint64_t committed = 0;    ///< of those, committed
};

/// Reads the sheet out of the CEW validation report.
BalanceSheet SheetFromValidation(const core::ValidationResult& validation,
                                 uint64_t attempted, uint64_t committed);

/// Checks a sheet against the inputs: the balances sum to `records` times
/// the cash per account, there are `records` accounts, the anomaly score is
/// exactly 0 and every attempted transaction committed.  Returns one line
/// per failed check; empty means the sheet passes.
std::vector<std::string> CheckSheet(uint64_t records, const BalanceSheet& sheet);

/// Every account's balance, read through `db` in key order.
Status ReadBalances(DB& db, std::map<std::string, int64_t>* balances);

/// Checks that every account holds the balance read from it before the
/// engine was closed, and that no account appeared or vanished.
std::vector<std::string> CheckSameBalances(
    const std::map<std::string, int64_t>& before,
    const std::map<std::string, int64_t>& after);

/// Feeds the checker doctored sheets (cash, account count and one account's
/// balance each off by one) and returns one line per doctored sheet it
/// failed to reject; empty means the checker works.
std::vector<std::string> CheckerSelfTest();

}  // namespace perf
}  // namespace ycsbt

#endif  // YCSBT_PERF_CHECKER_H_
