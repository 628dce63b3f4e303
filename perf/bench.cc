#include "bench.h"

#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ycsbt {
namespace perf {

namespace {

// cew_occ: CPU-bound in memory (core, measurement, db codec, OCC engine).
// cew_cloud: the paper's Fig 2/3 setting, round trips times service latency.
// cew_durable: the same txn layer as cew_cloud, writes beside reads, every
// store write a WAL append and a group-committed fdatasync.
// Set-up and validation repeat more often where they are short, so that
// each median rests on a second or more of work, spread over the run; one
// validation of cew_occ takes seconds (README.md, known faults).  cew_durable
// runs in short rounds: outside load that preempts a lock holder slows it
// most, and the faster quarter of many rounds rides out a burst that fills
// a few.
constexpr WorkloadSpec kWorkloads[] = {
    {"cew_occ", "occ+memkv", 100'000, 0.9, false, false, 1.0, 9, 5, 2, 1},
    {"cew_cloud", "txn+was", 10'000, 0.9, false, false, 0.05, 3, 5, 1, 1},
    {"cew_durable", "txn+memkv", 100'000, 0.9, true, true, 1.0, 5, 20, 2, 2},
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

uint64_t RecordCount(const WorkloadSpec& spec, const Args& args) {
  return args.records != 0 ? args.records : spec.records;
}

Properties MakeProperties(const WorkloadSpec& spec, const Args& args,
                          const std::string& wal_path) {
  uint64_t records = RecordCount(spec, args);
  Properties p;
  p.Set("db", spec.db);
  p.Set("workload", "closed_economy");
  p.Set("seed", std::to_string(args.seed));
  p.Set("recordcount", std::to_string(records));
  p.Set("totalcash", std::to_string(static_cast<int64_t>(records) * kCashPerAccount));
  p.Set("readproportion", Num(spec.read_proportion));
  p.Set("readmodifywriteproportion", Num(1.0 - spec.read_proportion));
  p.Set("updateproportion", "0");
  p.Set("insertproportion", "0");
  p.Set("scanproportion", "0");
  p.Set("deleteproportion", "0");
  p.Set("requestdistribution", "zipfian");
  p.Set("threads", std::to_string(kClientThreads));
  p.Set("loadthreads", std::to_string(kClientThreads));
  // Every retryable failure is retried, so no transaction fails.
  p.Set("retry.max_attempts", "1000000");
  // No fan-out pool: a run never has more threads than cores.
  p.Set("txn.fanout_threads", "0");
  if (spec.latency_scale != 1.0) {
    p.Set("cloud.latency_scale", Num(spec.latency_scale));
    p.Set("cloud.rate_limit", "0");
  }
  if (spec.bulk_load) p.Set("bulkload.batch", "1000");
  if (spec.durable) {
    p.Set("memkv.wal_path", wal_path);
    p.Set("memkv.sync_wal", "true");
    p.Set("memkv.wal_group_commit", "true");
  }
  return p;
}

MemFile::MemFile() {
  fd_ = ::memfd_create("ycsbt-wal", MFD_CLOEXEC);
  if (fd_ >= 0) path_ = "/proc/self/fd/" + std::to_string(fd_);
}

MemFile::~MemFile() {
  if (fd_ >= 0) ::close(fd_);
}

uint64_t MemFile::size() const {
  struct ::stat st;
  if (fd_ < 0 || ::fstat(fd_, &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

void MetricSet::Add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::string MetricSet::ToJson(bool correct, uint64_t attempted,
                              uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i != 0) out += ", ";
    // JSON has no NaN or infinity; a metric that could not be computed
    // prints as -1 and fails the run's checks instead.
    double v = std::isfinite(m.value) ? m.value : -1.0;
    out += "\"" + m.name + "\": {\"value\": " + Num(v) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string MetricSet::ToText() const {
  std::string out;
  for (const Metric& m : metrics_) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-40s %14.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += line;
  }
  return out;
}

double ProcessCpuMicros() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double PeakRssMiB() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<size_t>(pos);
  if (lo + 1 >= values.size()) return values.back();
  double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

}  // namespace perf
}  // namespace ycsbt
