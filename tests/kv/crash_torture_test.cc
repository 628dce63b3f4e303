#include "kv/torture.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "kv/env.h"
#include "kv/fault_env.h"
#include "kv/store.h"

namespace ycsbt {
namespace kv {
namespace {

/// Seed override hook for CI's randomized-seed job: TORTURE_SEED=<n> reruns
/// the whole suite on a different deterministic schedule.  The chosen seed is
/// echoed so a failure can be replayed exactly.
uint64_t TortureSeed() {
  uint64_t seed = 0xC0FFEEull;
  if (const char* s = std::getenv("TORTURE_SEED")) {
    seed = std::strtoull(s, nullptr, 0);
  }
  return seed;
}

std::string FreshDir(const char* tag) {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "crash_torture_" + tag + "_" +
         std::to_string(counter.fetch_add(1));
}

TEST(CrashTortureTest, EveryCrashStateRecoversExactly) {
  TortureOptions opts;
  opts.seed = TortureSeed();
  opts.dir = FreshDir("main");
  std::cout << "[torture] seed=0x" << std::hex << opts.seed << std::dec
            << " dir=" << opts.dir << "\n";

  TortureReport report = RunCrashTorture(opts);
  std::cout << FormatTortureReport(report);

  // The acceptance floor: a real sweep, not a smoke test.
  EXPECT_GE(report.crash_states, 200u);
  EXPECT_EQ(report.failures, 0u) << FormatTortureReport(report);
  EXPECT_GE(report.epochs, 2u);          // checkpoints actually happened
  EXPECT_GT(report.scrubbed_checkpoints, 0u);  // scrub fallback exercised
  EXPECT_GT(report.truncated_bytes_total, 0u); // torn tails exercised
  EXPECT_GE(report.live_cases, 8u);
}

TEST(CrashTortureTest, SameSeedYieldsByteIdenticalSchedule) {
  TortureOptions a;
  a.seed = TortureSeed() ^ 0x5EEDull;
  a.dir = FreshDir("det_a");
  // Smaller run: determinism is a property of the schedule derivation, not
  // of scale, and this keeps the double execution cheap.
  a.ops = 120;
  a.checkpoint_every = 50;
  a.mid_frame_samples = 16;
  a.ckpt_scrub_samples = 6;
  TortureOptions b = a;
  b.dir = FreshDir("det_b");

  TortureReport ra = RunCrashTorture(a);
  TortureReport rb = RunCrashTorture(b);
  EXPECT_EQ(ra.failures, 0u) << FormatTortureReport(ra);
  EXPECT_EQ(rb.failures, 0u) << FormatTortureReport(rb);
  // Equal seeds => byte-identical fault schedules and recovered states,
  // hence equal digests; and a different seed must diverge.
  EXPECT_EQ(ra.schedule_digest, rb.schedule_digest);
  EXPECT_EQ(ra.crash_states, rb.crash_states);
  EXPECT_EQ(ra.wal_bytes_total, rb.wal_bytes_total);

  TortureOptions c = a;
  c.dir = FreshDir("det_c");
  c.seed = a.seed + 1;
  TortureReport rc = RunCrashTorture(c);
  EXPECT_NE(ra.schedule_digest, rc.schedule_digest);
}

TEST(CrashTortureTest, MissingDirFsyncLosesAckedCommits) {
  // The failing-before / passing-after demonstration of the hardening: a
  // crash after WAL truncation resurrects the old checkpoint dirent when the
  // rename was never made durable with a directory fsync.
  uint64_t seed = TortureSeed() ^ 0xD1Full;
  EXPECT_TRUE(DemonstrateDirSyncLoss(FreshDir("dirsync_off"), seed,
                                     /*dir_sync=*/false))
      << "pre-hardening behaviour should lose acked commits";
  EXPECT_FALSE(DemonstrateDirSyncLoss(FreshDir("dirsync_on"), seed,
                                      /*dir_sync=*/true))
      << "hardened checkpoint must survive the same crash";
}

/// Satellite #3: Checkpoint() racing live CEW traffic while the storage
/// layer injects faults.  Exact per-op oracles are impossible under free
/// concurrency, so the assertions are the CEW invariants themselves: after
/// a clean reopen the account balance total is conserved (every transfer
/// committed wholly or not at all) and no scratch key is half-applied.
class CheckpointUnderChaosTest : public ::testing::Test {
 protected:
  static constexpr int kAccounts = 16;
  static constexpr long long kInitialBalance = 1000;

  struct ChaosOutcome {
    bool poisoned = false;
    bool crashed = false;
    uint64_t checkpoints_ok = 0;
    uint64_t writer_errors = 0;  ///< ops rejected with an error (never silent)
    StorageFaultStats stats;
  };

  static void PrepareDir(const std::string& dir) {
    ::mkdir(dir.c_str(), 0755);  // leftovers from a prior run are fine...
    for (const char* name : {"/wal.log", "/ckpt.snap", "/ckpt.snap.tmp"}) {
      (void)Env::Default()->RemoveFile(dir + name);  // ...their files aren't
    }
  }

  static std::string AccountKey(int i) {
    return "acct_" + std::to_string(100 + i);  // fixed-width, sorted
  }

  ChaosOutcome RunChaos(const std::string& dir,
                        const StorageFaultOptions& faults) {
    Env* base = Env::Default();
    ChaosOutcome outcome;
    FaultInjectingEnv env(base, faults);
    StoreOptions so;
    so.num_shards = 4;
    so.wal_path = dir + "/wal.log";
    so.checkpoint_path = dir + "/ckpt.snap";
    so.sync_wal = true;
    so.wal_group_commit = true;
    so.env = &env;
    ShardedStore store(so);
    if (!store.Open().ok()) return outcome;
    for (int i = 0; i < kAccounts; ++i) {
      EXPECT_TRUE(
          store.Put(AccountKey(i), std::to_string(kInitialBalance)).ok());
    }
    env.set_enabled(true);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> writer_errors{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < 3; ++t) {
      writers.emplace_back([&, t] {
        uint64_t x = 0x9E3779B97F4A7C15ull * (t + 1);
        while (!stop.load(std::memory_order_relaxed)) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          // Each thread owns the disjoint slice of accounts with index % 3
          // == t, and transfers only within it: the read-modify-write pairs
          // never race across threads, so any crash-recovered prefix of the
          // per-thread commit orders conserves the total exactly.
          int a = static_cast<int>(x % kAccounts);
          int b = static_cast<int>((x >> 8) % kAccounts);
          if (a % 3 != t || b % 3 != t || a == b) continue;
          long long amount = 1 + static_cast<long long>((x >> 16) % 5);
          std::string va, vb;
          if (!store.Get(AccountKey(a), &va).ok() ||
              !store.Get(AccountKey(b), &vb).ok()) {
            break;  // store poisoned/crashed mid-run: fail-stop is fine
          }
          Status s = store.MultiPut(
              {{AccountKey(a), std::to_string(std::stoll(va) - amount)},
               {AccountKey(b), std::to_string(std::stoll(vb) + amount)}});
          if (!s.ok()) {
            writer_errors.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      });
    }
    for (int c = 0; c < 6; ++c) {
      if (store.Checkpoint().ok()) {
        outcome.checkpoints_ok++;
      } else {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true);
    for (auto& th : writers) th.join();
    env.set_enabled(false);
    outcome.poisoned = store.IsPoisoned();
    outcome.crashed = env.crashed();
    outcome.writer_errors = writer_errors.load();
    outcome.stats = env.stats();
    return outcome;
  }

  /// `clean`: no fault or crash interrupted the run, so every WAL frame on
  /// disk postdates the last checkpoint and replay must skip none of them
  /// (a skipped frame there is an acked write lost to a checkpoint race).
  void VerifyReopenInvariants(const std::string& dir, bool clean = false) {
    StoreOptions so;
    so.num_shards = 4;
    so.wal_path = dir + "/wal.log";
    so.checkpoint_path = dir + "/ckpt.snap";
    so.env = nullptr;  // clean reopen: the process-restart view
    ShardedStore store(so);
    ASSERT_TRUE(store.Open().ok());
    if (clean) {
      EXPECT_EQ(store.recovery_report().wal_records_skipped, 0u);
    }
    std::vector<ScanEntry> entries;
    ASSERT_TRUE(store.Scan("", 1 << 20, &entries).ok());
    long long total = 0;
    int accounts_seen = 0;
    for (const ScanEntry& e : entries) {
      if (e.key.rfind("acct_", 0) == 0) {
        total += std::stoll(e.value);
        accounts_seen++;
      }
      EXPECT_GT(e.etag, 0u);
    }
    // Every transfer is one atomic kTxnPut frame: recovery may land on any
    // prefix of the commit order but can never expose half a transfer, so
    // the balance total is exactly conserved.
    EXPECT_EQ(accounts_seen, kAccounts);
    EXPECT_EQ(total, static_cast<long long>(kAccounts) * kInitialBalance);
  }
};

TEST_F(CheckpointUnderChaosTest, ConcurrentCheckpointsNoFaults) {
  std::string dir = FreshDir("chaos_clean");
  PrepareDir(dir);
  StorageFaultOptions faults;  // armed but inert: pure concurrency check
  ChaosOutcome outcome = RunChaos(dir, faults);
  EXPECT_FALSE(outcome.poisoned);
  EXPECT_GE(outcome.checkpoints_ok, 6u);
  VerifyReopenInvariants(dir, /*clean=*/true);
}

TEST_F(CheckpointUnderChaosTest, SyncFailurePoisonsNotCorrupts) {
  std::string dir = FreshDir("chaos_fsync");
  PrepareDir(dir);
  StorageFaultOptions faults;
  faults.seed = TortureSeed();
  faults.sync_fail_at = 40;  // fsyncgate mid-traffic
  ChaosOutcome outcome = RunChaos(dir, faults);
  EXPECT_GE(outcome.stats.sync_failures, 1u);
  // The failure surfaced loudly somewhere: either the sync landed on a WAL
  // frame (the batch's writers got errors; a later checkpoint may then heal
  // the poisoned log by snapshotting the acked in-memory state — exactly the
  // fail-stop contract) or it landed on a checkpoint's snapshot sync (that
  // checkpoint aborted cleanly).  Silent success is the only wrong answer.
  // The deterministic poison probes live in the torture suite's fsyncgate
  // case.
  EXPECT_TRUE(outcome.writer_errors >= 1u || outcome.checkpoints_ok < 6u);
  VerifyReopenInvariants(dir);
}

TEST_F(CheckpointUnderChaosTest, CheckpointCrashUnderTraffic) {
  std::string dir = FreshDir("chaos_ckptcrash");
  PrepareDir(dir);
  StorageFaultOptions faults;
  faults.seed = TortureSeed();
  faults.crash_point = "ckpt_post_rename_pre_trunc";
  faults.crash_point_pass = 2;
  ChaosOutcome outcome = RunChaos(dir, faults);
  EXPECT_TRUE(outcome.crashed);
  VerifyReopenInvariants(dir);
}

}  // namespace
}  // namespace kv
}  // namespace ycsbt
