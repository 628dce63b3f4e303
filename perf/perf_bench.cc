// The YCSB+T end-to-end benchmark: one Closed Economy Workload per run, by
// name and seed.
//
//   perf_bench --workload cew_occ --seed 7 --seconds 10 --trace 0
//
// --trace 0 (the untraced mode) builds the substrate through the product's
// own DBFactory and WorkloadRunner -- the path ycsbt_client takes -- times
// set-up, Run and Validate separately, checks the outputs and prints the
// end-to-end metrics.  --trace 1 builds the same layer stack from the
// layers' public constructors with a timing decorator at each seam and
// prints the per-layer metrics (trace.cc).
//
// Log lines go to stderr; the last line of stdout is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every output check passed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>

#include "bench.h"
#include "checker.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "core/core_workload.h"
#include "core/runner.h"
#include "core/workload_factory.h"
#include "trace.h"

namespace ycsbt {
namespace perf {
namespace {

/// Times every transaction the runner drives, in nanoseconds, from the
/// workload's first `DoTransaction` call to the runner's outcome callback:
/// the transaction's operations, its commit and any retries with their
/// backoff.  The runner's own TX-<OP> series resolve 1 us, too coarse for
/// the 2-10 us transactions of the in-memory workloads.  Everything else is
/// forwarded to the real workload unchanged, except that each round (each
/// `Run` between two `TakeMerged` calls) draws fresh key and operation
/// streams.
class TimedWorkload : public core::Workload {
 public:
  TimedWorkload(core::Workload* inner, const Properties& props) : inner_(inner) {
    InitSeed(props);  // the runner seeds its backoff streams from base_seed()
  }

  Status Init(const Properties& props) override { return inner_->Init(props); }
  std::unique_ptr<ThreadState> InitThread(int thread_id, int thread_count) override {
    auto slot = std::make_unique<Slot>();
    tls_slot_ = slot.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::move(slot));
    }
    // Round r's thread t draws the streams of thread r * thread_count + t,
    // so no round replays the keys an earlier round warmed.
    return inner_->InitThread(round_ * thread_count + thread_id, thread_count);
  }
  bool DoInsert(DB& db, ThreadState* state) override {
    return inner_->DoInsert(db, state);
  }
  bool BuildNextInsert(ThreadState* state, LoadRecord* record) override {
    return inner_->BuildNextInsert(state, record);
  }
  core::TxnOpResult DoTransaction(DB& db, ThreadState* state) override {
    if (tls_slot_->start_ns == 0) tls_slot_->start_ns = SteadyNanos();
    return inner_->DoTransaction(db, state);
  }
  bool NextTransactionReadOnly(ThreadState* state) override {
    return inner_->NextTransactionReadOnly(state);
  }
  Status Validate(DB& db, uint64_t operations_executed,
                  core::ValidationResult* result) override {
    return inner_->Validate(db, operations_executed, result);
  }
  void OnTransactionOutcome(ThreadState* state, const core::TxnOpResult& result,
                            bool committed) override {
    inner_->OnTransactionOutcome(state, result, committed);
    Slot* slot = tls_slot_;
    auto ns = static_cast<int64_t>(SteadyNanos() - slot->start_ns);
    slot->start_ns = 0;
    if (std::strcmp(result.op, core::txop::kRead) == 0) {
      slot->reads.Add(ns);
    } else if (std::strcmp(result.op, core::txop::kReadModifyWrite) == 0) {
      slot->transfers.Add(ns);
    }
  }
  void OnTransactionRetry(ThreadState* state,
                          const core::TxnOpResult& result) override {
    inner_->OnTransactionRetry(state, result);
  }
  uint64_t record_count() const override { return inner_->record_count(); }

  /// Merges the latency histograms (ns) of every thread since the last
  /// call, forgets those threads and moves on to the next round's streams.
  /// Call between runs only.
  void TakeMerged(Histogram* reads, Histogram* transfers) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& slot : slots_) {
      reads->Merge(slot->reads);
      transfers->Merge(slot->transfers);
    }
    slots_.clear();
    ++round_;
  }

 private:
  struct Slot {
    uint64_t start_ns = 0;  ///< first attempt of the open transaction; 0 = none
    Histogram reads;
    Histogram transfers;
  };
  static thread_local Slot* tls_slot_;

  core::Workload* inner_;
  int round_ = 0;
  std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

thread_local TimedWorkload::Slot* TimedWorkload::tls_slot_ = nullptr;

double NanosToMillis(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// One set-up of the substrate: the factory (engine) and the loaded table.
struct Substrate {
  std::unique_ptr<MemFile> wal;  // outlives the factory (declared first)
  std::unique_ptr<DBFactory> factory;
  std::unique_ptr<core::Workload> workload;
};

/// `DBFactory::Init` plus `Load`, as `RunBenchmark` does them.
Status SetUp(const WorkloadSpec& spec, const Args& args, Substrate* out,
             double* seconds) {
  out->factory.reset();
  out->workload.reset();
  out->wal.reset();
  if (spec.durable) {
    out->wal = std::make_unique<MemFile>();
    if (!out->wal->ok()) return Status::IOError("memfd_create failed");
  }
  Properties props =
      MakeProperties(spec, args, out->wal != nullptr ? out->wal->path() : "");
  uint64_t start = SteadyNanos();
  out->factory = std::make_unique<DBFactory>(props);
  Status s = out->factory->Init();
  if (!s.ok()) return s;
  s = core::CreateWorkload(props, &out->workload);
  if (!s.ok()) return s;
  Measurements load_measurements;
  core::WorkloadRunner runner(out->factory.get(), out->workload.get(),
                              &load_measurements);
  core::LoadOptions load;
  load.threads = static_cast<int>(props.GetInt("loadthreads", kClientThreads));
  load.bulk_batch = props.GetUint("bulkload.batch", 0);
  s = runner.Load(load);
  *seconds = SecondsSince(start, SteadyNanos());
  return s;
}

/// Closes the durable engine, reopens it from its WAL alone and checks that
/// the reopened table validates and holds every balance read before close.
Status CloseAndReopen(const WorkloadSpec& spec, const Args& args,
                      uint64_t operations, Substrate* sub,
                      std::vector<std::string>* errors, MetricSet* log) {
  std::map<std::string, int64_t> before, after;
  {
    auto client = sub->factory->CreateClient();
    Status s = ReadBalances(*client, &before);
    if (!s.ok()) return s;
  }
  sub->factory.reset();  // closes the engine and its WAL
  sub->workload.reset();

  Properties props = MakeProperties(spec, args, sub->wal->path());
  uint64_t start = SteadyNanos();
  sub->factory = std::make_unique<DBFactory>(props);
  Status s = sub->factory->Init();  // replays the WAL
  double recovery_s = SecondsSince(start, SteadyNanos());
  if (!s.ok()) return s;
  const kv::RecoveryReport& report = sub->factory->local_engine()->recovery_report();
  log->Add("recovery_s", recovery_s, "s");
  log->Add("wal_records_replayed", static_cast<double>(report.wal_records_replayed),
           "count");
  log->Add("wal_mib", static_cast<double>(sub->wal->size()) / (1024.0 * 1024.0),
           "MiB");
  if (report.wal_records_skipped != 0 || report.truncated_bytes != 0) {
    errors->push_back("clean reopen skipped " +
                      std::to_string(report.wal_records_skipped) +
                      " WAL records and truncated " +
                      std::to_string(report.truncated_bytes) + " bytes");
  }

  s = core::CreateWorkload(props, &sub->workload);
  if (!s.ok()) return s;
  Measurements m;
  core::WorkloadRunner runner(sub->factory.get(), sub->workload.get(), &m);
  core::ValidationResult validation;
  s = runner.Validate(operations, &validation);
  if (!s.ok()) return s;
  // The reopened sheet carries no run: count it as one committed attempt.
  for (const std::string& e : CheckSheet(RecordCount(spec, args),
                                         SheetFromValidation(validation, 1, 1))) {
    errors->push_back("after reopen: " + e);
  }
  auto client = sub->factory->CreateClient();
  s = ReadBalances(*client, &after);
  if (!s.ok()) return s;
  for (const std::string& e : CheckSameBalances(before, after)) {
    errors->push_back(e);
  }
  return Status::OK();
}

/// Per-round figures of the run phase.
struct Round {
  double tx_per_s = 0.0;
  double cpu_us_per_tx = 0.0;
  Histogram reads;      ///< ns
  Histogram transfers;  ///< ns
};

Status RunUntraced(const WorkloadSpec& spec, const Args& args, RunOutcome* out) {
  // Half of the set-ups (rounded up) come before the run, the rest after
  // its checks, so that the median spans the run and does not hang on one
  // moment of outside load.  The run uses the last set-up before it.
  Substrate sub;
  std::vector<double> setup_times;
  auto set_up = [&](int count) {
    for (int i = 0; i < count; ++i) {
      double seconds = 0.0;
      Status s = SetUp(spec, args, &sub, &seconds);
      if (!s.ok()) return s;
      setup_times.push_back(seconds);
    }
    return Status::OK();
  };
  const int setups_before = (spec.setups + 1) / 2;
  Status setup_status = set_up(setups_before);
  if (!setup_status.ok()) return setup_status;

  // The run phase, in spec.rounds equal rounds back to back on the same
  // table.  Throughput is the rounds' upper quartile and CPU and latency
  // their lower quartile: the faster quarter of the rounds, so outside load
  // that slows up to three quarters of them does not move the metrics.
  Properties props =
      MakeProperties(spec, args, sub.wal != nullptr ? sub.wal->path() : "");
  TimedWorkload timed(sub.workload.get(), props);
  core::RunOptions run;
  run.threads = kClientThreads;
  run.operation_count = 0;
  run.max_execution_seconds = args.seconds / spec.rounds;
  run.stall_windows = 0;
  run.retry = RetryPolicy::FromProperties(props);
  core::RunResult total;
  std::vector<Round> rounds(spec.rounds);
  std::vector<double> validate_times;
  for (int i = 0; i < spec.rounds; ++i) {
    Round& round = rounds[i];
    // A runner keeps every client's measurement sink, so each round has its
    // own: the run's peak RSS does not grow with the round count.
    Measurements measurements;
    core::WorkloadRunner runner(sub.factory.get(), &timed, &measurements);
    core::RunResult result;
    double cpu_before = ProcessCpuMicros();
    Status s = runner.Run(run, &result);
    double cpu_us = ProcessCpuMicros() - cpu_before;
    if (!s.ok()) return s;
    double committed = static_cast<double>(result.committed);
    round.tx_per_s = committed / (result.runtime_ms / 1000.0);
    round.cpu_us_per_tx = cpu_us / committed;
    timed.TakeMerged(&round.reads, &round.transfers);
    total.operations += result.operations;
    total.committed += result.committed;
    total.failed += result.failed;
    total.retries += result.retries;

    // Validation between rounds spreads its samples over the whole run, so
    // their median does not hang on one moment of outside load.
    if (i % spec.validate_every != 0 && i + 1 < spec.rounds) continue;
    for (int v = 0; v < spec.validations; ++v) {
      uint64_t start = SteadyNanos();
      s = runner.Validate(total.operations, &total.validation);
      validate_times.push_back(SecondsSince(start, SteadyNanos()));
      if (!s.ok()) return s;
      for (const std::string& e :
           CheckSheet(RecordCount(spec, args),
                      SheetFromValidation(total.validation, total.operations,
                                          total.committed))) {
        out->errors.push_back("after round " + std::to_string(i) + ": " + e);
      }
    }
  }
  out->attempted = total.operations;
  out->failed = total.failed;
  // Before the reopen below, which reads the whole WAL into memory.
  double peak_rss_mb = PeakRssMiB();

  MetricSet log;
  if (spec.durable) {
    Status s = CloseAndReopen(spec, args, total.operations, &sub, &out->errors, &log);
    if (!s.ok()) return s;
  }
  setup_status = set_up(spec.setups - setups_before);
  if (!setup_status.ok()) return setup_status;

  auto quartile_of = [&rounds](double q, auto get) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(get(r));
    return Quantile(v, q);
  };
  MetricSet& m = out->metrics;
  m.Add("tx_per_s", quartile_of(0.75, [](const Round& r) { return r.tx_per_s; }), "tx/s");
  m.Add("read_tx_p50_ms",
        quartile_of(0.25, [](const Round& r) { return NanosToMillis(r.reads.Percentile(50)); }),
        "ms");
  m.Add("read_tx_p95_ms",
        quartile_of(0.25, [](const Round& r) { return NanosToMillis(r.reads.Percentile(95)); }),
        "ms");
  m.Add("transfer_tx_p50_ms",
        quartile_of(0.25, [](const Round& r) { return NanosToMillis(r.transfers.Percentile(50)); }),
        "ms");
  m.Add("transfer_tx_p95_ms",
        quartile_of(0.25, [](const Round& r) { return NanosToMillis(r.transfers.Percentile(95)); }),
        "ms");
  m.Add("cpu_us_per_tx", quartile_of(0.25, [](const Round& r) { return r.cpu_us_per_tx; }),
        "us/tx");
  m.Add("peak_rss_mb", peak_rss_mb, "MiB");
  m.Add("setup_s", Median(setup_times), "s");
  m.Add("validate_s", Median(validate_times), "s");

  for (size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    auto pct = [](const Histogram& h) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "n=%llu p50 %.4g p90 %.4g p95 %.4g p99 %.4g p999 %.4g",
                    static_cast<unsigned long long>(h.Count()),
                    NanosToMillis(h.Percentile(50)), NanosToMillis(h.Percentile(90)),
                    NanosToMillis(h.Percentile(95)), NanosToMillis(h.Percentile(99)),
                    NanosToMillis(h.Percentile(99.9)));
      return std::string(buf);
    };
    std::fprintf(stderr, "round %zu: %.6g tx/s, %.4g us CPU/tx\n  reads %s ms\n  transfers %s ms\n",
                 i, r.tx_per_s, r.cpu_us_per_tx, pct(r.reads).c_str(),
                 pct(r.transfers).c_str());
  }
  log.Add("retries", static_cast<double>(total.retries), "count");
  for (size_t i = 0; i < setup_times.size(); ++i) {
    log.Add("setup_" + std::to_string(i) + "_s", setup_times[i], "s");
  }
  for (size_t i = 0; i < validate_times.size(); ++i) {
    log.Add("validate_" + std::to_string(i) + "_s", validate_times[i], "s");
  }
  std::fprintf(stderr, "%s", log.ToText().c_str());
  return Status::OK();
}

void Usage() {
  std::fprintf(stderr,
               "usage: perf_bench --workload cew_occ|cew_cloud|cew_durable "
               "--seed N --seconds S --trace 0|1\n"
               "                  [--records N] [--spans-out FILE]\n"
               "       perf_bench --checker-selftest\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--checker-selftest") {
      args->checker_selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--records") {
      args->records = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return args->checker_selftest || (!args->workload.empty() && args->seconds > 0);
}

}  // namespace
}  // namespace perf
}  // namespace ycsbt

int main(int argc, char** argv) {
  using namespace ycsbt::perf;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  if (args.checker_selftest) {
    std::vector<std::string> missed = CheckerSelfTest();
    for (const std::string& m : missed) std::fprintf(stderr, "checker %s\n", m.c_str());
    std::printf("checker self-test %s\n", missed.empty() ? "passed" : "FAILED");
    return missed.empty() ? 0 : 1;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    Usage();
    return 2;
  }

  RunOutcome outcome;
  ycsbt::Status s = args.trace ? RunTraced(*spec, args, &outcome)
                               : RunUntraced(*spec, args, &outcome);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "%s %s seed=%llu\n%s", spec->name,
               args.trace ? "traced" : "untraced",
               static_cast<unsigned long long>(args.seed),
               outcome.metrics.ToText().c_str());
  for (const std::string& e : outcome.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  bool correct = outcome.errors.empty();
  std::printf("%s\n", outcome.metrics.ToJson(correct, outcome.attempted,
                                             outcome.failed).c_str());
  return correct ? 0 : 1;
}
