// Shared pieces of the YCSB+T end-to-end benchmark: the workload table, the
// properties each workload runs with, the metric printer and small helpers
// used by both the untraced and the traced mode.
#ifndef YCSBT_PERF_BENCH_H_
#define YCSBT_PERF_BENCH_H_

#include <sys/resource.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/properties.h"
#include "common/status.h"

namespace ycsbt {
namespace perf {

/// One benchmark workload: the Closed Economy Workload (paper Listing 2) on
/// one substrate.  All three run 4 closed-loop client threads.
struct WorkloadSpec {
  const char* name;
  const char* db;           ///< `DBFactory` binding
  uint64_t records;         ///< accounts
  double read_proportion;   ///< the rest are two-account transfers
  bool bulk_load;           ///< sorted `BulkLoad` instead of per-op inserts
  bool durable;             ///< synced, group-committed WAL + reopen check
  double latency_scale;     ///< `cloud.latency_scale` (cloud bindings only)
  int setups;               ///< set-ups per run; `setup_s` is their median
  /// The untraced run phase is this many equal rounds; throughput, CPU and
  /// latency are taken from the faster quarter of them.
  int rounds;
  /// Validate `validations` times after every `validate_every` rounds and
  /// after the last; `validate_s` is the median.
  int validate_every;
  int validations;
};

/// The workload table; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

inline constexpr int kClientThreads = 4;
inline constexpr int64_t kCashPerAccount = 1000;

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Overrides the workload's account count (self-test sizes).
  uint64_t records = 0;
  /// Where the traced mode writes its span file ("" = do not write).
  std::string spans_out;
  /// Runs the checker against doctored balance sheets and exits.
  bool checker_selftest = false;
};

/// Properties of `spec` for this run.  `wal_path` is used only by durable
/// workloads.
Properties MakeProperties(const WorkloadSpec& spec, const Args& args,
                          const std::string& wal_path);

/// Accounts the run loads (the spec's, unless the command overrides it).
uint64_t RecordCount(const WorkloadSpec& spec, const Args& args);

/// A memory-backed file for the durable workload's WAL: an anonymous
/// `memfd` reachable by path through the process's own descriptor table.
/// It survives closing and reopening the engine and disappears with the
/// process, so the benchmark writes nothing outside its checkout and the
/// WAL cost it measures is the code path and the sync count, not a shared
/// disk.
class MemFile {
 public:
  MemFile();
  ~MemFile();
  MemFile(const MemFile&) = delete;
  MemFile& operator=(const MemFile&) = delete;

  bool ok() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  uint64_t size() const;

 private:
  int fd_ = -1;
  std::string path_;
};

/// Named metrics in print order.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// The benchmark's result line.
  std::string ToJson(bool correct, uint64_t attempted, uint64_t failed) const;
  /// One "name value unit" line each, for the log.
  std::string ToText() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

inline double SecondsSince(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

/// User plus system CPU time of the whole process, microseconds.
double ProcessCpuMicros();
/// Peak resident set of the process, MiB.
double PeakRssMiB();

/// The `q` quantile (0 to 1) of `values`, interpolated linearly between
/// the nearest ranks; 0 for none.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

/// What one run hands to the result line.
struct RunOutcome {
  MetricSet metrics;
  std::vector<std::string> errors;  ///< failed output checks
  uint64_t attempted = 0;           ///< transactions attempted
  uint64_t failed = 0;              ///< of those, not committed
};

}  // namespace perf
}  // namespace ycsbt

#endif  // YCSBT_PERF_BENCH_H_
