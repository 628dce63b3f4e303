// The traced mode.  The layer stack of each workload is rebuilt here from the
// layers' public constructors -- the same objects DBFactory would build --
// with a timing decorator at every seam:
//
//   core         the closed client loop around Workload::DoTransaction
//   measurement  a real MeasuredDB with a bound ThreadSink
//   db           TxnDB's public calls
//   txn          TransactionalKV / Transaction (OccEngine or ClientTxnStore)
//   cloud        SimCloudStore (above its backing store)
//   kv           ShardedStore (below SimCloudStore, or below the txn layer)
//   env          the WAL's WritableFile, through StoreOptions::env
//
// Each decorator opens a span on the calling thread's span stack.  A span's
// self time is its duration minus the durations of the spans opened inside
// it on the same thread, so the self times of one transaction's spans add up
// exactly to the duration of its root span.  Spans are kept in memory (the
// first kSpansKept per thread) and written out when the run ends.

#include "trace.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <thread>

#include "checker.h"
#include "cloud/sim_cloud_store.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/latency_model.h"
#include "common/random.h"
#include "common/retry_policy.h"
#include "core/core_workload.h"
#include "core/workload_factory.h"
#include "db/field_codec.h"
#include "db/kvstore_db.h"
#include "db/measured_db.h"
#include "db/txn_db.h"
#include "kv/env.h"
#include "kv/store.h"
#include "txn/client_txn_store.h"
#include "txn/occ_engine.h"
#include "txn/timestamp.h"

namespace ycsbt {
namespace perf {
namespace {

enum Layer : uint8_t { kCore, kMeasurement, kDb, kTxn, kCloud, kKv, kEnv, kLayerCount };
constexpr const char* kLayerNames[kLayerCount] = {"core", "measurement", "db", "txn",
                                                  "cloud", "kv",          "env"};

/// What a span did, finer than its layer.
enum class SpanOp : uint8_t {
  kTx, kValidate, kDbCall, kTxnRead, kTxnCommit, kTxnOther, kTxnScan,
  kStoreRead, kStoreWrite, kEnvAppend, kEnvSync, kEnvOther,
};
constexpr const char* kSpanOpNames[] = {
    "tx",    "validate", "call",  "read",   "commit", "other",
    "scan",  "read",     "write", "append", "sync",   "other"};

/// Kinds of the kv::Store calls the txn layer issues inside Commit.
enum CommitCall { kGet, kMultiGet, kCas, kPut, kDelete, kMultiWrite, kCommitCallKinds };
constexpr const char* kCommitCallNames[kCommitCallKinds] = {
    "get", "multiget", "cas", "put", "delete", "multiwrite"};

constexpr size_t kSpansKept = 1 << 16;

struct SpanRecord {
  uint64_t id;
  uint64_t parent;  ///< 0 for a root span
  uint64_t start_ns;
  uint64_t end_ns;
  Layer layer;
  SpanOp op;
};

/// Everything one thread records: its span stack, the spans it keeps, and
/// the per-layer sums the metrics are made from.  Owned and written by one
/// thread; read by the main thread after that thread has been joined.
struct ThreadTrace {
  struct Frame {
    uint64_t id;
    uint64_t start_ns;
    uint64_t child_ns;
    Layer layer;
    SpanOp op;
  };

  int thread = 0;
  uint64_t next_id = 1;
  std::vector<Frame> stack;
  std::vector<SpanRecord> spans;

  // Sums over root spans and their descendants.
  std::array<uint64_t, kLayerCount> self_ns{};
  uint64_t root_ns = 0;
  uint64_t txn_read_self_ns = 0;
  uint64_t txn_commit_self_ns = 0;
  uint64_t scan_ns = 0;
  uint64_t scan_rows = 0;

  // Transactions.
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t read_txs = 0;
  uint64_t transfers = 0;
  uint64_t retries = 0;
  uint64_t commit_calls = 0;
  uint64_t commit_ok = 0;
  Histogram commit_ns;  ///< Commit wall time of transactions that wrote

  // Store and env calls.
  bool in_commit = false;
  uint64_t tx_store_calls = 0;  ///< txn-layer store calls of the open transaction
  std::array<uint64_t, kCommitCallKinds> tx_commit_calls{};
  uint64_t read_tx_store_calls = 0;
  uint64_t transfer_store_calls = 0;
  std::array<uint64_t, kCommitCallKinds> transfer_commit_calls{};
  uint64_t cloud_calls = 0;
  Histogram cloud_self_ns;
  uint64_t kv_calls = 0;
  Histogram kv_read_self_ns;
  Histogram kv_write_self_ns;
  uint64_t user_bytes = 0;
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_syncs = 0;
  Histogram wal_sync_ns;

  void Merge(const ThreadTrace& o) {
    for (int l = 0; l < kLayerCount; ++l) self_ns[l] += o.self_ns[l];
    root_ns += o.root_ns;
    txn_read_self_ns += o.txn_read_self_ns;
    txn_commit_self_ns += o.txn_commit_self_ns;
    scan_ns += o.scan_ns;
    scan_rows += o.scan_rows;
    attempted += o.attempted;
    committed += o.committed;
    read_txs += o.read_txs;
    transfers += o.transfers;
    retries += o.retries;
    commit_calls += o.commit_calls;
    commit_ok += o.commit_ok;
    commit_ns.Merge(o.commit_ns);
    read_tx_store_calls += o.read_tx_store_calls;
    transfer_store_calls += o.transfer_store_calls;
    for (int k = 0; k < kCommitCallKinds; ++k) {
      transfer_commit_calls[k] += o.transfer_commit_calls[k];
    }
    cloud_calls += o.cloud_calls;
    cloud_self_ns.Merge(o.cloud_self_ns);
    kv_calls += o.kv_calls;
    kv_read_self_ns.Merge(o.kv_read_self_ns);
    kv_write_self_ns.Merge(o.kv_write_self_ns);
    user_bytes += o.user_bytes;
    wal_appends += o.wal_appends;
    wal_bytes += o.wal_bytes;
    wal_syncs += o.wal_syncs;
    wal_sync_ns.Merge(o.wal_sync_ns);
  }
};

/// The calling thread's trace; null on threads that are not traced (the
/// load phase), where every decorator passes calls straight through.
thread_local ThreadTrace* tls_trace = nullptr;

/// One timed call.  A span opens only under a root span (or as one), so
/// calls outside a traced transaction or validation are never counted.
class Span {
 public:
  Span(Layer layer, SpanOp op, bool root = false) {
    ThreadTrace* t = tls_trace;
    if (t == nullptr || (!root && t->stack.empty())) return;
    trace_ = t;
    t->stack.push_back({t->next_id++, SteadyNanos(), 0, layer, op});
  }
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent) and charges its self time to its layer.
  void End() {
    if (trace_ == nullptr || ended_) return;
    ended_ = true;
    uint64_t end = SteadyNanos();
    ThreadTrace::Frame f = trace_->stack.back();
    trace_->stack.pop_back();
    duration_ns_ = end - f.start_ns;
    self_ns_ = duration_ns_ - f.child_ns;
    trace_->self_ns[f.layer] += self_ns_;
    uint64_t parent = 0;
    if (trace_->stack.empty()) {
      trace_->root_ns += duration_ns_;
    } else {
      trace_->stack.back().child_ns += duration_ns_;
      parent = trace_->stack.back().id;
    }
    if (trace_->spans.size() < kSpansKept) {
      trace_->spans.push_back({f.id, parent, f.start_ns, end, f.layer, f.op});
    }
  }

  ThreadTrace* trace() const { return trace_; }
  uint64_t duration_ns() const { return duration_ns_; }
  uint64_t self_ns() const { return self_ns_; }

 private:
  ThreadTrace* trace_ = nullptr;
  bool ended_ = false;
  uint64_t duration_ns_ = 0;
  uint64_t self_ns_ = 0;
};

// ---------------------------------------------------------------- env seam

class TimedFile : public kv::WritableFile {
 public:
  explicit TimedFile(std::unique_ptr<kv::WritableFile> inner) : inner_(std::move(inner)) {}
  Status Append(std::string_view data) override {
    Span span(kEnv, SpanOp::kEnvAppend);
    Status s = inner_->Append(data);
    if (ThreadTrace* t = span.trace()) {
      ++t->wal_appends;
      t->wal_bytes += data.size();
    }
    return s;
  }
  Status Flush() override {
    Span span(kEnv, SpanOp::kEnvOther);
    return inner_->Flush();
  }
  Status Sync() override {
    Span span(kEnv, SpanOp::kEnvSync);
    Status s = inner_->Sync();
    span.End();
    if (ThreadTrace* t = span.trace()) {
      ++t->wal_syncs;
      t->wal_sync_ns.Add(static_cast<int64_t>(span.duration_ns()));
    }
    return s;
  }
  Status Truncate(uint64_t size) override { return inner_->Truncate(size); }
  Status Close() override { return inner_->Close(); }
  uint64_t size() const override { return inner_->size(); }

 private:
  std::unique_ptr<kv::WritableFile> inner_;
};

class TimedEnv : public kv::Env {
 public:
  explicit TimedEnv(kv::Env* inner) : inner_(inner) {}
  Status NewWritableFile(const std::string& path, bool truncate_existing,
                         std::unique_ptr<kv::WritableFile>* out) override {
    std::unique_ptr<kv::WritableFile> file;
    Status s = inner_->NewWritableFile(path, truncate_existing, &file);
    if (s.ok()) *out = std::make_unique<TimedFile>(std::move(file));
    return s;
  }
  Status ReadFileToString(const std::string& path, std::string* out) override {
    return inner_->ReadFileToString(path, out);
  }
  Status FileSize(const std::string& path, uint64_t* size) override {
    return inner_->FileSize(path, size);
  }
  bool FileExists(const std::string& path) override { return inner_->FileExists(path); }
  Status RemoveFile(const std::string& path) override { return inner_->RemoveFile(path); }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return inner_->RenameFile(from, to);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return inner_->TruncateFile(path, size);
  }
  Status SyncDirOf(const std::string& path) override { return inner_->SyncDirOf(path); }
  Status MaybeCrashPoint(const char* point) override {
    return inner_->MaybeCrashPoint(point);
  }

 private:
  kv::Env* inner_;
};

// ------------------------------------------------------- kv / cloud seams

/// Times a kv::Store.  `txn_facing` marks the store the txn layer holds:
/// its calls are the store calls the txn layer issues.
class TimedStore : public kv::Store {
 public:
  TimedStore(std::shared_ptr<kv::Store> inner, Layer layer, bool txn_facing)
      : inner_(std::move(inner)), layer_(layer), txn_facing_(txn_facing) {}

  Status Get(const std::string& key, std::string* value, uint64_t* etag) override {
    Call call(this, false, kGet);
    return inner_->Get(key, value, etag);
  }
  Status Put(const std::string& key, std::string_view value,
             uint64_t* etag_out) override {
    Call call(this, true, kPut, key.size() + value.size());
    return inner_->Put(key, value, etag_out);
  }
  Status ConditionalPut(const std::string& key, std::string_view value,
                        uint64_t expected_etag, uint64_t* etag_out) override {
    Call call(this, true, kCas, key.size() + value.size());
    return inner_->ConditionalPut(key, value, expected_etag, etag_out);
  }
  Status Delete(const std::string& key) override {
    Call call(this, true, kDelete, key.size());
    return inner_->Delete(key);
  }
  Status ConditionalDelete(const std::string& key, uint64_t expected_etag) override {
    Call call(this, true, kCas, key.size());
    return inner_->ConditionalDelete(key, expected_etag);
  }
  Status Scan(const std::string& start_key, size_t limit,
              std::vector<kv::ScanEntry>* out) override {
    Call call(this, false, kGet);
    return inner_->Scan(start_key, limit, out);
  }
  void MultiGet(const std::vector<std::string>& keys,
                std::vector<kv::MultiGetResult>* results) override {
    Call call(this, false, kMultiGet);
    inner_->MultiGet(keys, results);
  }
  void MultiWrite(const std::vector<kv::WriteOp>& ops,
                  std::vector<kv::WriteResult>* results) override {
    uint64_t bytes = 0;
    for (const kv::WriteOp& op : ops) bytes += op.key.size() + op.value.size();
    Call call(this, true, kMultiWrite, bytes);
    inner_->MultiWrite(ops, results);
  }
  size_t Count() const override { return inner_->Count(); }

 private:
  /// The span of one store call plus its counters.
  class Call {
   public:
    Call(TimedStore* store, bool write, CommitCall kind, uint64_t user_bytes = 0)
        : store_(store), write_(write),
          span_(store->layer_, write ? SpanOp::kStoreWrite : SpanOp::kStoreRead) {
      ThreadTrace* t = span_.trace();
      if (t == nullptr) return;
      if (store->txn_facing_) {
        ++t->tx_store_calls;
        if (t->in_commit) ++t->tx_commit_calls[kind];
      }
      if (store->layer_ == kKv) t->user_bytes += user_bytes;
    }
    ~Call() {
      span_.End();
      ThreadTrace* t = span_.trace();
      if (t == nullptr) return;
      auto self = static_cast<int64_t>(span_.self_ns());
      if (store_->layer_ == kCloud) {
        ++t->cloud_calls;
        t->cloud_self_ns.Add(self);
      } else {
        ++t->kv_calls;
        (write_ ? t->kv_write_self_ns : t->kv_read_self_ns).Add(self);
      }
    }

   private:
    TimedStore* store_;
    bool write_;
    Span span_;
  };

  std::shared_ptr<kv::Store> inner_;
  Layer layer_;
  bool txn_facing_;
};

// ---------------------------------------------------------------- txn seam

/// Times a Transaction.  Commit wall times are kept for transactions that
/// wrote (the transfers); a read-only commit has nothing to install.
class TimedTransaction : public txn::Transaction {
 public:
  explicit TimedTransaction(std::unique_ptr<txn::Transaction> inner)
      : inner_(std::move(inner)) {}
  uint64_t start_ts() const override { return inner_->start_ts(); }
  Status Read(const std::string& key, std::string* value) override {
    Span span(kTxn, SpanOp::kTxnRead);
    Status s = inner_->Read(key, value);
    ChargeRead(&span);
    return s;
  }
  void MultiRead(const std::vector<std::string>& keys,
                 std::vector<txn::TxReadResult>* results) override {
    Span span(kTxn, SpanOp::kTxnRead);
    inner_->MultiRead(keys, results);
    ChargeRead(&span);
  }
  Status Write(const std::string& key, std::string_view value) override {
    Span span(kTxn, SpanOp::kTxnOther);
    wrote_ = true;
    return inner_->Write(key, value);
  }
  Status Delete(const std::string& key) override {
    Span span(kTxn, SpanOp::kTxnOther);
    wrote_ = true;
    return inner_->Delete(key);
  }
  Status Scan(const std::string& start_key, size_t limit,
              std::vector<txn::TxScanEntry>* out) override {
    Span span(kTxn, SpanOp::kTxnOther);
    return inner_->Scan(start_key, limit, out);
  }
  Status Commit() override {
    Span span(kTxn, SpanOp::kTxnCommit);
    ThreadTrace* t = span.trace();
    if (t != nullptr) t->in_commit = true;
    Status s = inner_->Commit();
    span.End();
    if (t != nullptr) {
      t->in_commit = false;
      t->txn_commit_self_ns += span.self_ns();
      if (wrote_) t->commit_ns.Add(static_cast<int64_t>(span.duration_ns()));
      ++t->commit_calls;
      if (s.ok()) ++t->commit_ok;
    }
    return s;
  }
  Status Abort() override {
    Span span(kTxn, SpanOp::kTxnOther);
    return inner_->Abort();
  }

 private:
  static void ChargeRead(Span* span) {
    span->End();
    if (ThreadTrace* t = span->trace()) t->txn_read_self_ns += span->self_ns();
  }
  std::unique_ptr<txn::Transaction> inner_;
  bool wrote_ = false;
};

class TimedTxnKV : public txn::TransactionalKV {
 public:
  explicit TimedTxnKV(std::shared_ptr<txn::TransactionalKV> inner)
      : inner_(std::move(inner)) {}
  std::unique_ptr<txn::Transaction> Begin() override {
    Span span(kTxn, SpanOp::kTxnOther);
    return std::make_unique<TimedTransaction>(inner_->Begin());
  }
  Status LoadPut(const std::string& key, std::string_view value) override {
    Span span(kTxn, SpanOp::kTxnOther);
    return inner_->LoadPut(key, value);
  }
  Status ReadCommitted(const std::string& key, std::string* value) override {
    Span span(kTxn, SpanOp::kTxnOther);
    return inner_->ReadCommitted(key, value);
  }
  Status ScanCommitted(const std::string& start_key, size_t limit,
                       std::vector<txn::TxScanEntry>* out) override {
    Span span(kTxn, SpanOp::kTxnScan);
    Status s = inner_->ScanCommitted(start_key, limit, out);
    span.End();
    if (ThreadTrace* t = span.trace()) {
      t->scan_ns += span.duration_ns();
      t->scan_rows += out->size();
    }
    return s;
  }

 private:
  std::shared_ptr<txn::TransactionalKV> inner_;
};

// ----------------------------------------------------------------- db seam

/// Times a DB binding; stacked twice, outside MeasuredDB (`measurement`)
/// and outside TxnDB (`db`).
class TimedDB : public DB {
 public:
  TimedDB(std::unique_ptr<DB> inner, Layer layer)
      : inner_(std::move(inner)), layer_(layer) {}
  Status Init() override { return inner_->Init(); }
  Status Cleanup() override { return inner_->Cleanup(); }
  Status Read(const std::string& table, const std::string& key,
              const std::vector<std::string>* fields, FieldMap* result) override {
    Span span(layer_, SpanOp::kDbCall);
    return inner_->Read(table, key, fields, result);
  }
  void MultiRead(const std::string& table, const std::vector<std::string>& keys,
                 const std::vector<std::string>* fields,
                 std::vector<MultiReadRow>* rows) override {
    Span span(layer_, SpanOp::kDbCall);
    inner_->MultiRead(table, keys, fields, rows);
  }
  Status Scan(const std::string& table, const std::string& start_key,
              size_t record_count, const std::vector<std::string>* fields,
              std::vector<ScanRow>* result) override {
    Span span(layer_, SpanOp::kDbCall);
    return inner_->Scan(table, start_key, record_count, fields, result);
  }
  Status Update(const std::string& table, const std::string& key,
                const FieldMap& values) override {
    Span span(layer_, SpanOp::kDbCall);
    return inner_->Update(table, key, values);
  }
  Status Insert(const std::string& table, const std::string& key,
                const FieldMap& values) override {
    Span span(layer_, SpanOp::kDbCall);
    return inner_->Insert(table, key, values);
  }
  void BatchInsert(const std::string& table, const std::vector<std::string>& keys,
                   const std::vector<FieldMap>& values,
                   std::vector<Status>* statuses) override {
    Span span(layer_, SpanOp::kDbCall);
    inner_->BatchInsert(table, keys, values, statuses);
  }
  Status Delete(const std::string& table, const std::string& key) override {
    Span span(layer_, SpanOp::kDbCall);
    return inner_->Delete(table, key);
  }
  Status Start() override {
    Span span(layer_, SpanOp::kDbCall);
    return inner_->Start();
  }
  Status Commit() override {
    Span span(layer_, SpanOp::kDbCall);
    return inner_->Commit();
  }
  Status Abort() override {
    Span span(layer_, SpanOp::kDbCall);
    return inner_->Abort();
  }
  bool Transactional() const override { return inner_->Transactional(); }

 private:
  std::unique_ptr<DB> inner_;
  Layer layer_;
};

// ------------------------------------------------------------- the stack

/// The traced layer stack of one workload, from the engine up to the
/// transactional KV the clients share.
struct Stack {
  std::unique_ptr<TimedEnv> env;  // outlives the engine that writes through it
  std::shared_ptr<kv::ShardedStore> engine;
  std::shared_ptr<cloud::SimCloudStore> cloud;
  std::shared_ptr<txn::ClientTxnStore> client_txn;
  std::shared_ptr<txn::OccEngine> occ;
  std::shared_ptr<TimedTxnKV> txn_kv;
  double open_s = 0.0;  ///< engine Open(), including WAL replay
};

/// Builds the stack as DBFactory::Init does for the spec's binding and
/// properties, with decorators at the seams.
Status BuildStack(const WorkloadSpec& spec, uint64_t seed, const MemFile* wal,
                  Stack* stack) {
  std::shared_ptr<txn::TransactionalKV> inner;
  if (std::strcmp(spec.db, "occ+memkv") == 0) {
    stack->occ = std::make_shared<txn::OccEngine>(txn::OccOptions{});
    inner = stack->occ;
  } else {
    kv::StoreOptions options;
    if (spec.durable) {
      stack->env = std::make_unique<TimedEnv>(kv::Env::Default());
      options.wal_path = wal->path();
      options.sync_wal = true;
      options.wal_group_commit = true;
      options.env = stack->env.get();
    }
    stack->engine = std::make_shared<kv::ShardedStore>(options);
    uint64_t start = SteadyNanos();
    Status s = stack->engine->Open();
    stack->open_s = SecondsSince(start, SteadyNanos());
    if (!s.ok()) return s;
    std::shared_ptr<kv::Store> top;
    if (std::strcmp(spec.db, "txn+was") == 0) {
      cloud::CloudProfile profile = cloud::CloudProfile::Was();
      profile.container_rate_limit = 0;
      stack->cloud = std::make_shared<cloud::SimCloudStore>(
          profile, std::make_shared<TimedStore>(stack->engine, kKv, false));
      stack->cloud->ScaleLatency(spec.latency_scale);
      top = std::make_shared<TimedStore>(stack->cloud, kCloud, true);
    } else if (std::strcmp(spec.db, "txn+memkv") == 0) {
      top = std::make_shared<TimedStore>(stack->engine, kKv, true);
    } else {
      return Status::NotSupported(std::string("no traced stack for ") + spec.db);
    }
    txn::TxnOptions options_txn;
    options_txn.seed = seed;
    stack->client_txn = std::make_shared<txn::ClientTxnStore>(
        top, std::make_shared<txn::HlcTimestampSource>(), options_txn);
    inner = stack->client_txn;
  }
  stack->txn_kv = std::make_shared<TimedTxnKV>(inner);
  return Status::OK();
}

/// One client's DB: measurement over db over the shared txn layer.  The
/// returned DB owns the chain; `measured` receives the MeasuredDB inside.
std::unique_ptr<DB> MakeClient(const Stack& stack, Measurements* measurements,
                               MeasuredDB** measured) {
  auto inner = std::make_unique<TimedDB>(std::make_unique<TxnDB>(stack.txn_kv), kDb);
  auto m = std::make_unique<MeasuredDB>(std::move(inner), measurements);
  *measured = m.get();
  return std::make_unique<TimedDB>(std::move(m), kMeasurement);
}

uint64_t ShareOf(uint64_t total, int thread, int threads) {
  return total / threads + (static_cast<uint64_t>(thread) < total % threads ? 1 : 0);
}

/// The load phase, untraced: per-op inserts from kClientThreads threads, or
/// the sorted bulk load straight into the engine.
Status Load(const WorkloadSpec& spec, const Stack& stack, core::Workload* workload) {
  uint64_t total = workload->record_count();
  if (spec.bulk_load) {
    auto state = workload->InitThread(0, 1);
    std::vector<std::pair<std::string, std::string>> records;
    records.reserve(total);
    core::Workload::LoadRecord record;
    for (uint64_t i = 0; i < total; ++i) {
      if (!workload->BuildNextInsert(state.get(), &record)) {
        return Status::NotSupported("workload has no bulk load stream");
      }
      records.emplace_back(KvStoreDB::ComposeKey(record.table, record.key),
                           stack.client_txn->EncodeLoadValue(EncodeFields(record.values)));
    }
    std::sort(records.begin(), records.end());
    records.erase(std::unique(records.begin(), records.end(),
                              [](const auto& a, const auto& b) { return a.first == b.first; }),
                  records.end());
    constexpr size_t kBatch = 1000;
    for (size_t off = 0; off < records.size(); off += kBatch) {
      size_t end = std::min(records.size(), off + kBatch);
      std::vector<std::pair<std::string, std::string>> frame(
          std::make_move_iterator(records.begin() + static_cast<ptrdiff_t>(off)),
          std::make_move_iterator(records.begin() + static_cast<ptrdiff_t>(end)));
      Status s = stack.engine->BulkLoad(frame);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kClientThreads; ++t) {
    pool.emplace_back([&, t] {
      TxnDB db(stack.txn_kv);
      auto state = workload->InitThread(t, kClientThreads);
      for (uint64_t i = ShareOf(total, t, kClientThreads); i > 0; --i) {
        if (!workload->DoInsert(db, state.get())) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : pool) th.join();
  if (failures.load() != 0) {
    return Status::Internal(std::to_string(failures.load()) + " inserts failed");
  }
  return Status::OK();
}

/// One client thread of the closed loop, with the runner's retry rule:
/// Start, DoTransaction, Commit (or Abort), and on a retryable failure
/// OnTransactionRetry, a backoff and another attempt.
void ClientLoop(int thread, const Stack& stack, core::Workload* workload,
                const RetryPolicy& retry, Measurements* measurements,
                const std::atomic<bool>* go, const std::atomic<bool>* stop,
                ThreadTrace* trace) {
  MeasuredDB* measured = nullptr;
  std::unique_ptr<DB> db = MakeClient(stack, measurements, &measured);
  ThreadSink* sink = measurements->CreateSink();
  measured->BindSink(sink);
  db->Init();
  auto state = workload->InitThread(thread, kClientThreads);
  Random64 backoff_rng(workload->base_seed() ^ 0xBACC0FFull ^
                       (static_cast<uint64_t>(thread) << 32));
  trace->thread = thread;
  tls_trace = trace;
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();

  while (!stop->load(std::memory_order_relaxed)) {
    trace->tx_store_calls = 0;
    trace->tx_commit_calls.fill(0);
    core::TxnOpResult op;
    bool committed = false;
    {
      Span root(kCore, SpanOp::kTx, /*root=*/true);
      uint64_t start = SteadyNanos();
      RetryState backoff(retry);
      for (int attempt = 1;; ++attempt) {
        db->Start();
        op = workload->DoTransaction(*db, state.get());
        Status cs = op.ok ? db->Commit() : db->Abort();
        committed = op.ok && cs.ok();
        if (committed) break;
        Status failure = op.ok ? cs : Status::Aborted("workload operation failed");
        if (!failure.IsRetryable() ||
            backoff.Exhausted(attempt, (SteadyNanos() - start) / 1000)) {
          break;
        }
        workload->OnTransactionRetry(state.get(), op);
        ++trace->retries;
        SleepMicros(backoff.NextBackoffUs(backoff_rng, failure));
      }
      workload->OnTransactionOutcome(state.get(), op, committed);
    }
    ++trace->attempted;
    if (!committed) continue;
    ++trace->committed;
    if (std::strcmp(op.op, core::txop::kRead) == 0) {
      ++trace->read_txs;
      trace->read_tx_store_calls += trace->tx_store_calls;
    } else if (std::strcmp(op.op, core::txop::kReadModifyWrite) == 0) {
      ++trace->transfers;
      trace->transfer_store_calls += trace->tx_store_calls;
      for (int k = 0; k < kCommitCallKinds; ++k) {
        trace->transfer_commit_calls[k] += trace->tx_commit_calls[k];
      }
    }
  }
  tls_trace = nullptr;
  sink->Flush();
  db->Cleanup();
}

/// Runs the CEW validation through the traced stack on this thread.
Status TracedValidate(const Stack& stack, core::Workload* workload,
                      uint64_t operations, ThreadTrace* trace,
                      core::ValidationResult* result) {
  TxnDB db(stack.txn_kv);
  tls_trace = trace;
  Status s;
  {
    Span root(kCore, SpanOp::kValidate, /*root=*/true);
    s = workload->Validate(db, operations, result);
  }
  tls_trace = nullptr;
  return s;
}

Status WriteSpans(const std::string& path, const std::vector<const ThreadTrace*>& traces) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  std::fprintf(f, "thread\tid\tparent\tlayer\tkind\tstart_ns\tduration_ns\n");
  uint64_t origin = UINT64_MAX;
  for (const ThreadTrace* t : traces) {
    for (const SpanRecord& r : t->spans) origin = std::min(origin, r.start_ns);
  }
  for (const ThreadTrace* t : traces) {
    for (const SpanRecord& r : t->spans) {
      std::fprintf(f, "%d\t%llu\t%llu\t%s\t%s\t%llu\t%llu\n", t->thread,
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent), kLayerNames[r.layer],
                   kSpanOpNames[static_cast<int>(r.op)],
                   static_cast<unsigned long long>(r.start_ns - origin),
                   static_cast<unsigned long long>(r.end_ns - r.start_ns));
    }
  }
  return std::fclose(f) == 0 ? Status::OK() : Status::IOError("cannot write " + path);
}

double Per(double num, double den) { return den == 0 ? 0.0 : num / den; }
double Micros(int64_t ns) { return static_cast<double>(ns) / 1000.0; }

}  // namespace

Status RunTraced(const WorkloadSpec& spec, const Args& args, RunOutcome* out) {
  std::unique_ptr<MemFile> wal;
  if (spec.durable) {
    wal = std::make_unique<MemFile>();
    if (!wal->ok()) return Status::IOError("memfd_create failed");
  }
  Properties props = MakeProperties(spec, args, wal != nullptr ? wal->path() : "");
  auto stack = std::make_unique<Stack>();
  Status s = BuildStack(spec, args.seed, wal.get(), stack.get());
  if (!s.ok()) return s;
  std::unique_ptr<core::Workload> workload;
  s = core::CreateWorkload(props, &workload);
  if (!s.ok()) return s;
  uint64_t records = RecordCount(spec, args);

  uint64_t load_start = SteadyNanos();
  s = Load(spec, *stack, workload.get());
  double load_s = SecondsSince(load_start, SteadyNanos());
  if (!s.ok()) return s;

  // The run.
  txn::TxnStats txn_before;
  if (stack->client_txn != nullptr) txn_before = stack->client_txn->stats();
  txn::OccStats occ_before;
  if (stack->occ != nullptr) occ_before = stack->occ->stats();
  uint64_t cloud_before = stack->cloud != nullptr ? stack->cloud->stats().requests : 0;
  // The WAL's own record and batch counts; the env seam sees one Append per
  // group-commit batch, not per record.
  if (stack->engine != nullptr) stack->engine->DrainWalStats();

  Measurements measurements;
  RetryPolicy retry = RetryPolicy::FromProperties(props);
  std::vector<std::unique_ptr<ThreadTrace>> traces;
  std::atomic<bool> go{false}, stop{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < kClientThreads; ++t) {
    traces.push_back(std::make_unique<ThreadTrace>());
    pool.emplace_back(ClientLoop, t, std::cref(*stack), workload.get(),
                      std::cref(retry), &measurements, &go, &stop, traces.back().get());
  }
  uint64_t run_start = SteadyNanos();
  go.store(true, std::memory_order_release);
  SleepMicros(static_cast<uint64_t>(args.seconds * 1e6));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : pool) th.join();
  double run_s = SecondsSince(run_start, SteadyNanos());

  ThreadTrace run;
  for (const auto& t : traces) run.Merge(*t);
  double tx = static_cast<double>(run.committed);
  double ktx = tx / 1000.0;
  txn::TxnStats txn_after;
  if (stack->client_txn != nullptr) txn_after = stack->client_txn->stats();
  txn::OccStats occ_after;
  if (stack->occ != nullptr) occ_after = stack->occ->stats();
  uint64_t cloud_requests =
      stack->cloud != nullptr ? stack->cloud->stats().requests - cloud_before : 0;
  kv::WalStats wal_stats;
  if (stack->engine != nullptr) wal_stats = stack->engine->DrainWalStats();

  // Validation, through the same stack.
  ThreadTrace validate_trace;
  validate_trace.thread = kClientThreads;
  core::ValidationResult validation;
  s = TracedValidate(*stack, workload.get(), run.committed, &validate_trace, &validation);
  if (!s.ok()) return s;
  out->attempted = run.attempted;
  out->failed = run.attempted - run.committed;
  out->errors =
      CheckSheet(records, SheetFromValidation(validation, run.attempted, run.committed));

  // The durable workload: close, reopen from the WAL alone, compare.
  double replay_us_per_record = 0.0;
  if (spec.durable) {
    std::map<std::string, int64_t> before, after;
    {
      TxnDB db(stack->txn_kv);
      s = ReadBalances(db, &before);
      if (!s.ok()) return s;
    }
    stack = std::make_unique<Stack>();  // the old stack closes its engine first
    s = BuildStack(spec, args.seed, wal.get(), stack.get());
    if (!s.ok()) return s;
    const kv::RecoveryReport& report = stack->engine->recovery_report();
    replay_us_per_record =
        Per(stack->open_s * 1e6, static_cast<double>(report.wal_records_replayed));
    std::fprintf(stderr, "reopen %.3f s, %llu WAL records replayed\n", stack->open_s,
                 static_cast<unsigned long long>(report.wal_records_replayed));
    TxnDB db(stack->txn_kv);
    s = ReadBalances(db, &after);
    if (!s.ok()) return s;
    for (const std::string& e : CheckSameBalances(before, after)) out->errors.push_back(e);
  }

  // The span arithmetic: self times of all layers add up to the root spans.
  uint64_t self_sum = 0;
  for (uint64_t v : run.self_ns) self_sum += v;
  if (self_sum != run.root_ns) {
    out->errors.push_back("layer self times sum to " + std::to_string(self_sum) +
                          " ns, root spans to " + std::to_string(run.root_ns) + " ns");
  }
  if (run.committed == 0) out->errors.push_back("no transaction committed");

  MetricSet& m = out->metrics;
  m.Add("core.workload_self_us_per_tx", Per(Micros(run.self_ns[kCore]), tx), "us/tx");
  m.Add("core.load_us_per_record", Per(load_s * 1e6, static_cast<double>(records)),
        "us/record");
  m.Add("core.retries_per_ktx", Per(static_cast<double>(run.retries), ktx), "1/ktx");
  m.Add("measurement.self_ns_per_tx",
        Per(static_cast<double>(run.self_ns[kMeasurement]), tx), "ns/tx");
  m.Add("db.self_us_per_tx", Per(Micros(run.self_ns[kDb]), tx), "us/tx");
  m.Add("txn.read_self_us_per_tx", Per(Micros(run.txn_read_self_ns), tx), "us/tx");
  m.Add("txn.commit_self_us_per_tx", Per(Micros(run.txn_commit_self_ns), tx), "us/tx");
  m.Add("txn.commit_us_p50", Micros(run.commit_ns.Percentile(50)), "us");
  m.Add("txn.commit_us_p99", Micros(run.commit_ns.Percentile(99)), "us");
  m.Add("txn.commits_per_attempt",
        Per(static_cast<double>(run.commit_ok), static_cast<double>(run.commit_calls)),
        "ratio");
  m.Add("txn.store_calls_per_read_tx",
        Per(static_cast<double>(run.read_tx_store_calls), static_cast<double>(run.read_txs)),
        "calls/tx");
  m.Add("txn.store_calls_per_transfer",
        Per(static_cast<double>(run.transfer_store_calls),
            static_cast<double>(run.transfers)),
        "calls/tx");
  for (int k = 0; k < kCommitCallKinds; ++k) {
    m.Add(std::string("txn.commit_") + kCommitCallNames[k] + "_per_transfer",
          Per(static_cast<double>(run.transfer_commit_calls[k]),
              static_cast<double>(run.transfers)),
          "calls/tx");
  }
  m.Add("txn.lock_busy_per_ktx",
        Per(static_cast<double>(txn_after.lock_busy - txn_before.lock_busy), ktx), "1/ktx");
  m.Add("txn.conflicts_per_ktx",
        Per(static_cast<double>(txn_after.conflicts - txn_before.conflicts), ktx), "1/ktx");
  m.Add("txn.occ_validate_fails_per_ktx",
        Per(static_cast<double>(occ_after.validation_fails - occ_before.validation_fails),
            ktx),
        "1/ktx");
  m.Add("txn.scan_us_per_row",
        Per(Micros(static_cast<int64_t>(validate_trace.scan_ns)),
            static_cast<double>(validate_trace.scan_rows)),
        "us/row");
  m.Add("cloud.requests_per_tx", Per(static_cast<double>(cloud_requests), tx), "req/tx");
  m.Add("cloud.request_self_us_p50", Micros(run.cloud_self_ns.Percentile(50)), "us");
  m.Add("cloud.request_self_us_p99", Micros(run.cloud_self_ns.Percentile(99)), "us");
  m.Add("kv.calls_per_tx", Per(static_cast<double>(run.kv_calls), tx), "calls/tx");
  m.Add("kv.read_self_us_p50", Micros(run.kv_read_self_ns.Percentile(50)), "us");
  m.Add("kv.write_self_us_p50", Micros(run.kv_write_self_ns.Percentile(50)), "us");
  m.Add("kv.wal_appends_per_tx", Per(static_cast<double>(run.wal_appends), tx), "appends/tx");
  m.Add("kv.wal_records_per_tx", Per(static_cast<double>(wal_stats.appends), tx),
        "records/tx");
  m.Add("kv.wal_records_per_batch",
        Per(static_cast<double>(wal_stats.appends), static_cast<double>(wal_stats.batches)),
        "records/batch");
  m.Add("kv.wal_bytes_per_user_byte",
        Per(static_cast<double>(run.wal_bytes), static_cast<double>(run.user_bytes)), "B/B");
  m.Add("kv.wal_syncs_per_tx", Per(static_cast<double>(run.wal_syncs), tx), "syncs/tx");
  m.Add("kv.wal_sync_us_p50", Micros(run.wal_sync_ns.Percentile(50)), "us");
  m.Add("kv.replay_us_per_record", replay_us_per_record, "us/record");

  // The log: traced throughput (against the untraced run's, the tracing
  // overhead) and each layer's share of the traced transaction time.
  std::fprintf(stderr, "traced tx_per_s %.6g over %.3f s; layer self time per tx:\n",
               tx / run_s, run_s);
  for (int l = 0; l < kLayerCount; ++l) {
    std::fprintf(stderr, "  %-12s %10.4f us/tx %6.2f%%\n", kLayerNames[l],
                 Per(Micros(run.self_ns[l]), tx),
                 100.0 * Per(static_cast<double>(run.self_ns[l]),
                             static_cast<double>(run.root_ns)));
  }
  std::fprintf(stderr, "  %-12s %10.4f us/tx (sum of self times %s root spans)\n", "total",
               Per(Micros(run.root_ns), tx), self_sum == run.root_ns ? "==" : "!=");

  if (!args.spans_out.empty()) {
    std::vector<const ThreadTrace*> all;
    for (const auto& t : traces) all.push_back(t.get());
    all.push_back(&validate_trace);
    s = WriteSpans(args.spans_out, all);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace perf
}  // namespace ycsbt
