// Copyright 2026 The DataCell Authors.
//
// Engine: the public facade of MonetDB/DataCell (Fig. 1). Owns the catalog,
// the stream baskets, the scheduler, and the receptor/emitter fleets, and
// drives the SQL stack:
//
//   Engine dc;
//   dc.Execute("CREATE STREAM trades (ts timestamp, sym string, px double)");
//   dc.Execute("CREATE TABLE limits (sym string, cap double)");
//   auto q = dc.SubmitContinuous(
//       "SELECT sym, avg(px) FROM trades [RANGE 60 SECONDS SLIDE 10 SECONDS] "
//       "GROUP BY sym", {.mode = ExecMode::kIncremental});
//   dc.PushRow("trades", {...});
//   ... results arrive via the query's emitter sink (or TakeResults()).
//
// One-time queries (`Query`) run through the identical binder/optimizer/
// compiler/executor stack — the paper's "two query paradigms in one
// processing fabric".

#ifndef DATACELL_CORE_ENGINE_H_
#define DATACELL_CORE_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/basket.h"
#include "core/emitter.h"
#include "core/factory.h"
#include "core/receptor.h"
#include "core/scheduler.h"
#include "core/sharing.h"
#include "monitor/metrics.h"
#include "plan/explain.h"
#include "storage/catalog.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "util/result.h"
#include "util/sync.h"

namespace dc {

struct EngineOptions {
  /// Scheduler worker threads. 0 = synchronous mode: no threads anywhere;
  /// the caller drives execution with Pump() (deterministic, for tests).
  int scheduler_workers = 2;

  /// Capacity bound applied to every stream basket (CREATE STREAM):
  /// producers — receptors, PushRow/PushColumns — block when a basket is
  /// full until its queries consume, keeping engine RSS bounded at any
  /// ingest rate. Pushes fail fast with ResourceExhausted instead of
  /// blocking when waiting could never succeed: a full stream no query
  /// reads, or any full stream in synchronous mode (only the pushing
  /// thread could Pump()). The
  /// default is generous (tuples are consumed long before it bites);
  /// {0} restores unbounded pre-backpressure behavior. The bound counts
  /// rows only: a basket's bytes are its rows' bytes plus a dead prefix
  /// at most as large as the live rows (see basket.h).
  /// Query output baskets stay unbounded: they are drained by emitters,
  /// and blocking a factory mid-fire would stall the scheduler.
  BasketLimits basket_limits{/*max_rows=*/1 << 20};

  /// Multi-query sharing (docs/SHARING.md): queries with matching
  /// compiled identities alias one factory, and compatible windowed
  /// prefixes share one basic-window partial store (SharedWindowNode).
  /// Off only stops a submit from joining an existing factory or node:
  /// every query gets its own factory chain, and an incremental window
  /// its own one-subscriber node — the differential equivalence suite
  /// runs both and asserts identical emissions.
  bool enable_sharing = true;

  /// Durability (docs/DURABILITY.md): with a non-empty `dir`, every
  /// stream basket appends its batch log to `<dir>/<stream>.wal`, DDL and
  /// continuous-query submissions go to `<dir>/catalog.wal`, and
  /// Checkpoint() writes consistent factory-progress snapshots. A fresh
  /// Engine pointed at a populated `dir` recovers: last snapshot + WAL
  /// tail replayed through the normal append path. Empty `dir` (the
  /// default) keeps the engine fully transient.
  struct DurabilityOptions {
    std::string dir;
    /// When basket-WAL appends become durable. The catalog log is always
    /// synced (DDL/submits are rare); checkpoints force-sync everything.
    storage::FsyncPolicy fsync = storage::FsyncPolicy::kInterval;
    int fsync_interval_batches = 64;
    /// > 0: a background thread checkpoints this often (threaded engines
    /// only — synchronous mode stays thread-free; call Checkpoint()
    /// directly). 0 = manual checkpoints only.
    int checkpoint_interval_ms = 0;
    /// File-system abstraction override (crash-injection tests); null
    /// uses the real filesystem. Recovery always reads the real files.
    storage::WalEnv* env = nullptr;
  };
  DurabilityOptions durability;

  /// Event tracing (docs/OBSERVABILITY.md): record scoped spans (factory
  /// fires, basket appends/stalls, emitter drains, WAL appends) into
  /// per-thread ring buffers, dumped via trace::DumpJson() as Chrome
  /// trace_event JSON. Process-wide and refcounted across engines; off
  /// (the default) costs one relaxed atomic load per span site — the
  /// trace_overhead_guard CTest keeps the enabled cost within ~3%.
  bool enable_tracing = false;
};

/// One registered continuous query (introspection snapshot).
struct ContinuousQueryInfo {
  int id = 0;
  std::string name;
  std::string sql;
  ExecMode mode = ExecMode::kFullReeval;
  FactoryStats factory;
  EmitterStats emitter;
  BasketStats out_basket;  // emission buffer occupancy/backlog
  std::vector<std::string> input_streams;
  std::vector<std::string> input_tables;
  /// Queries currently sharing this query's factory (itself included);
  /// 1 when it runs alone. `sharing` is a human-readable note for the
  /// monitor pane: "factory x3", "node pkts#1 x8", or "".
  int shared_with = 1;
  std::string sharing;
  /// Label of the SharedWindowNode serving this query's partials
  /// ("<stream>#<ordinal>"), or "" for queries that are no node tail.
  std::string shared_node;
  /// Ingest→delivery latency snapshot (p50/p95/p99 via Percentile);
  /// empty until the first delivered emission (docs/OBSERVABILITY.md).
  Histogram latency;
};

/// The DataCell engine.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Catalog& catalog() { return catalog_; }

  // --- DDL / DML / one-time queries ----------------------------------------

  /// Executes CREATE TABLE / CREATE STREAM / INSERT (or a ';' script of
  /// them).
  Status Execute(std::string_view sql);

  /// Runs a one-time SELECT over tables and/or current basket contents
  /// (streams read as-of-now without consuming; window clauses are not
  /// allowed in one-time queries).
  Result<ColumnSet> Query(std::string_view sql);

  /// EXPLAIN: the compiled plan in the given mode, with optimizer report.
  Result<std::string> ExplainSql(std::string_view sql, plan::PlanMode mode);

  // --- Continuous queries -----------------------------------------------------

  struct ContinuousOptions {
    ExecMode mode = ExecMode::kIncremental;
    std::string name;      // defaults to "q<id>"
    Emitter::Sink sink;    // null: results buffered for TakeResults()
  };

  /// Registers a continuous query; returns its id.
  Result<int> SubmitContinuous(std::string_view sql,
                               ContinuousOptions options);
  /// Default options: incremental mode, buffered results.
  Result<int> SubmitContinuous(std::string_view sql);

  Status RemoveContinuous(int query_id);
  /// Note: with sharing enabled, queries aliasing one factory (identical
  /// compiled identity) pause and resume together.
  Status PauseQuery(int query_id);
  Status ResumeQuery(int query_id);

  /// Buffered emissions of a query submitted without a sink.
  Result<std::vector<ColumnSet>> TakeResults(int query_id);

  // --- Stream input -----------------------------------------------------------

  Status PushRow(std::string_view stream, const std::vector<Value>& row);
  Status PushColumns(std::string_view stream,
                     const std::vector<BatPtr>& cols);
  Status Heartbeat(std::string_view stream, Micros event_ts);
  /// Declares end-of-stream (flushes pending windows).
  Status SealStream(std::string_view stream);

  /// Attaches a rate-controlled receptor thread feeding `stream`.
  Result<int> AttachReceptor(std::string_view stream, Receptor::RowGen gen,
                             Receptor::Options options = {});
  Status PauseReceptor(int receptor_id);
  Status ResumeReceptor(int receptor_id);
  /// Blocks until the receptor's source is exhausted.
  Status WaitReceptor(int receptor_id);

  // --- Durability (docs/DURABILITY.md) ----------------------------------------

  /// Writes a consistent snapshot of factory progress and truncates each
  /// basket WAL to the *previous* checkpoint's horizon (so the rotated
  /// snapshot.prev.dc always pairs with a sufficient WAL tail). Serialized
  /// on dur_mu_; safe to call concurrently with ingest and fires.
  /// InvalidArgument when durability is off.
  Status Checkpoint();

  /// What the constructor's recovery pass concluded. OK after a cold
  /// start or a successful replay; an error (and the engine left
  /// transient, with logging disabled) when the on-disk state was
  /// unusable — e.g. every snapshot corrupt after a checkpoint truncated
  /// the WALs. The constructor cannot return a Status; check this after
  /// constructing an engine with durability enabled.
  Status recovery_status() const { return recovery_status_; }

  // --- Driving / introspection -------------------------------------------------

  /// Synchronous mode: fires ready factories and drains emitters until
  /// quiescent. Returns number of factory firings.
  int Pump();

  /// Threaded mode: blocks until no factory is ready/firing and all
  /// emitters drained (bounded by `timeout_ms`). Returns false on timeout.
  bool WaitIdle(int timeout_ms = 10000);

  /// Introspection for the monitor (S8).
  std::vector<ContinuousQueryInfo> Queries() const;
  Result<BasketStats> StreamStats(std::string_view stream) const;
  SchedulerStats SchedStats() const { return scheduler_.Stats(); }
  /// Multi-query sharing snapshot: live shared nodes, per-node subscriber
  /// counts, and cumulative sharing hits (docs/SHARING.md).
  SharingStats GetSharingStats() const;
  Basket* GetBasket(std::string_view stream);
  FactoryPtr GetFactory(int query_id) const;
  std::vector<std::string> StreamNames() const {
    return catalog_.StreamNames();
  }
  /// This engine's metrics registry (docs/OBSERVABILITY.md): per-query
  /// `query.<name>.latency_us` histograms are registered at submit; the
  /// AnalysisPane publishes its sampled series here as gauges. Expose via
  /// metrics().ToJson() / metrics().ToPrometheus().
  monitor::MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct QueryEntry {
    int id;
    std::string sql;
    std::string name;
    ExecMode mode;
    FactoryPtr factory;
    std::shared_ptr<Basket> out_basket;
    // Shared so Pump/WaitIdle/TakeResults can snapshot it under mu_ and
    // drain OUTSIDE the lock: sinks run inside Drain() and may re-enter
    // the engine, and a concurrent RemoveContinuous must not leave a
    // drainer holding a dangling pointer.
    std::shared_ptr<Emitter> emitter;
    std::shared_ptr<ResultCollector> collector;  // when no sink given
    /// Sharing registry key of the factory this query subscribes to, or
    /// "" when the factory is privately owned (sharing disabled).
    /// Teardown is refcounted through full_entries_[full_key].
    std::string full_key;
    /// Full compiled identity, always set (unlike full_key, which is ""
    /// with sharing disabled). EXPLAIN matches standing queries on it to
    /// report live latency for an equivalent plan.
    std::string identity_key;
    /// Per-query ingest→delivery histogram (registry name
    /// "query.<name>.latency_us"); the emitter records into it on every
    /// delivery. Kept here so Queries()/EXPLAIN can snapshot it and so
    /// teardown can Remove() it from the registry.
    std::shared_ptr<monitor::HistogramMetric> latency;
    /// Catalog-log submit token (kSubmit/kRemove pairing and the key of
    /// this query's progress in snapshots). 0 = durability off.
    uint64_t dur_token = 0;
  };

  /// One refcounted shared factory (tier F, docs/SHARING.md): every
  /// submitted query publishes its factory here keyed by full compiled
  /// identity; later identical queries alias it (refs++) with their own
  /// emitters on the shared output basket. The factory leaves the
  /// scheduler — and its node subscription, when it is a node tail —
  /// only when refs hits zero.
  struct SharedFullEntry {
    int refs = 0;
    FactoryPtr factory;
    std::shared_ptr<Basket> out_basket;
    std::vector<std::string> out_names;
  };

  Status ExecuteOne(const sql::Statement& stmt);
  Result<ColumnSet> RunSelect(const sql::SelectStmt& stmt);
  /// SubmitContinuous body. `restore` is non-null only during recovery
  /// replay: the submit token is taken from the log instead of allocated,
  /// nothing is re-logged, a founded shared node is re-anchored at its
  /// original origin, and progress is applied to the factory BEFORE it
  /// reaches the scheduler (so it can never fire from pre-restore
  /// origins). `snap_progress` is the loaded snapshot's entry for this
  /// token (null when the snapshot predates the submit); it wins over the
  /// kSubmit record's submit-time cursors, and is the ONLY progress an
  /// aliasing replay applies — the founder's own record can be stale when
  /// the founder was removed before the checkpoint.
  Result<int> SubmitInternal(std::string_view sql, ContinuousOptions options,
                             const storage::WalSubmit* restore,
                             const storage::FactoryProgress* snap_progress);
  /// The registration tail of both submit paths (a founded factory and a
  /// tier-F alias): builds the query's sink (a ResultCollector unless
  /// `options.sink` is set), its latency histogram and its emitter;
  /// captures the factory progress to log; when `schedule` (a founded
  /// factory) attaches the factory's arcs and hands it to the scheduler;
  /// then assigns the durability token, publishes `entry` in queries_ and
  /// logs the submit. An alias logs the live factory's progress, which is
  /// informational only. Returns the query id.
  int PublishQuery(QueryEntry entry, const std::vector<std::string>& out_names,
                   std::string_view sql, const ContinuousOptions& options,
                   const storage::WalSubmit* restore, bool schedule)
      DC_REQUIRES(share_mu_);
  /// Appends a kSubmit record (token, sql, the given factory progress,
  /// founded-node identity) to the catalog log. `progress` must be
  /// captured before the factory could first fire (pre-AddFactory): a
  /// post-fire cursor would make replay resume past emissions that were
  /// still undrained at the crash. Append failures are logged, not
  /// propagated — the query is already live.
  void LogSubmit(uint64_t token, std::string_view sql,
                 const ContinuousOptions& options,
                 const storage::FactoryProgress& progress,
                 const SharedWindowNodePtr& node);
  /// Constructor-time durability bring-up: creates the directory,
  /// recovers snapshot + WAL tails if present (replaying through the
  /// normal append path), then attaches WAL writers/hooks to every
  /// stream basket and opens the catalog log.
  Status InitDurability();
  /// Opens `<dir>/<name>.wal` (writing a head kReset on a fresh log) and
  /// installs the basket's durability hooks.
  Status AttachStreamWal(const std::string& name,
                         const std::shared_ptr<Basket>& basket);
  /// Background checkpoint thread body (checkpoint_interval_ms > 0).
  void CheckpointLoop();
  /// The registered node under `prefix_key` on `basket` whose grid can
  /// serve window `w` (window subsumption), or null.
  SharedWindowNodePtr FindNodeLocked(const std::string& prefix_key,
                                     const Basket* basket,
                                     const plan::WindowSpec& w) const
      DC_REQUIRES(share_mu_);
  /// Drops zero-subscriber shared nodes from the registry (their basket
  /// readers unregister with them).
  void PruneIdleNodesLocked() DC_REQUIRES(share_mu_);
  /// Shared handles to every live emitter, for draining outside mu_.
  std::vector<std::shared_ptr<Emitter>> SnapshotEmitters() const
      DC_EXCLUDES(mu_);
  /// Space-wait budget for PushRow/PushColumns: block in threaded mode,
  /// fail fast in synchronous mode (blocking would self-deadlock — only
  /// the pushing thread could ever Pump()).
  Micros PushTimeout() const;

  const EngineOptions options_;
  Catalog catalog_;
  /// Internally synchronized (kMetrics/kMetricsHistogram, both leaf-side
  /// ranks), hence usable under any engine lock; mutable so const
  /// introspection can resolve handles.
  mutable monitor::MetricsRegistry metrics_;
  /// One sample per basket trim that drops rows, shared by every basket
  /// this engine creates.
  const std::shared_ptr<monitor::HistogramMetric> basket_trim_us_ =
      metrics_.GetHistogram("basket.trim_us");

  // --- Durability state (docs/DURABILITY.md) ---
  /// Non-null iff durability is on AND usable (bring-up failures leave
  /// the engine transient rather than appending to logs it could not
  /// read). Set once in the constructor.
  storage::WalEnv* wal_env_ = nullptr;
  /// True only while the constructor replays logs: logging sites skip
  /// (replay must not re-log) and statement replay skips INSERTs into
  /// streams (their rows replay from the basket WALs instead).
  bool recovering_ = false;
  Status recovery_status_;
  storage::WalCounters wal_counters_;
  std::shared_ptr<monitor::Counter> snapshot_writes_;
  std::shared_ptr<monitor::Counter> snapshot_bytes_;
  std::shared_ptr<monitor::Counter> replayed_records_;
  std::shared_ptr<monitor::Counter> replayed_rows_;
  std::shared_ptr<monitor::Counter> recovery_runs_;
  /// Internally synchronized (kWal); the pointer is set once in the
  /// constructor. Always opened with FsyncPolicy::kAlways.
  std::unique_ptr<storage::WalWriter> catalog_wal_;
  /// label -> origin_seq of shared nodes from the loaded snapshot;
  /// consulted (then discarded) when recovery replay re-founds a node.
  std::map<std::string, uint64_t> restore_node_origins_;

  /// Serializes checkpoints. Ranks below kEmitterDrain (and everything
  /// else a checkpoint touches): Checkpoint() drains emitters and walks
  /// the sharing registry, engine maps, and factories while holding it.
  mutable Mutex dur_mu_{LockRank::kDurability};
  /// Horizons captured at the previous checkpoint — what the NEXT
  /// checkpoint may truncate each basket WAL to, so snapshot.prev.dc
  /// always pairs with a sufficient WAL tail.
  std::map<std::string, uint64_t> last_horizons_ DC_GUARDED_BY(dur_mu_);
  uint64_t next_checkpoint_id_ DC_GUARDED_BY(dur_mu_) = 1;

  /// Background checkpoint thread. Its wait mutex is a leaf (nothing is
  /// ever acquired under it); the thread is stopped FIRST in the
  /// destructor, before any subsystem it checkpoints.
  Mutex ckpt_mu_{LockRank::kLeaf};
  CondVar ckpt_cv_;
  bool ckpt_stop_ DC_GUARDED_BY(ckpt_mu_) = false;
  std::thread ckpt_thread_;

  mutable Mutex mu_{LockRank::kEngine};
  /// Declared before baskets_ so writers outlive the baskets whose hooks
  /// hold raw pointers to them. Writers are internally synchronized
  /// (kWal > kBasket: hooks append under the basket lock); the map itself
  /// is guarded by mu_.
  std::map<std::string, std::unique_ptr<storage::WalWriter>> basket_wals_
      DC_GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<Basket>> baskets_ DC_GUARDED_BY(mu_);
  std::map<int, QueryEntry> queries_ DC_GUARDED_BY(mu_);
  std::map<int, std::unique_ptr<Receptor>> receptors_ DC_GUARDED_BY(mu_);
  /// Submit token -> query id, for kRemove replay and Remove logging.
  std::map<uint64_t, int> token_to_query_ DC_GUARDED_BY(mu_);
  int next_query_id_ DC_GUARDED_BY(mu_) = 1;
  int next_receptor_id_ DC_GUARDED_BY(mu_) = 1;
  uint64_t next_submit_token_ DC_GUARDED_BY(mu_) = 1;

  // Multi-query sharing registry (docs/SHARING.md). share_mu_ ranks
  // BELOW mu_ (kSharingRegistry < kEngine) because Submit/Remove hold it
  // across their whole bookkeeping — engine map updates (mu_), scheduler
  // registration, node subscription — while factory fires never touch
  // it. Declared after baskets_ so node destructors can still unregister
  // their basket readers during engine teardown.
  mutable Mutex share_mu_{LockRank::kSharingRegistry};
  std::map<std::string, SharedFullEntry> full_entries_
      DC_GUARDED_BY(share_mu_);
  /// Live tier-P nodes per prefix key; one prefix can hold several nodes
  /// with incompatible grids (non-subsumable slides), and, with sharing
  /// off, one private node per query.
  std::map<std::string, std::vector<SharedWindowNodePtr>> prefix_nodes_
      DC_GUARDED_BY(share_mu_);
  uint64_t full_hits_ DC_GUARDED_BY(share_mu_) = 0;
  uint64_t prefix_hits_ DC_GUARDED_BY(share_mu_) = 0;
  int next_node_ord_ DC_GUARDED_BY(share_mu_) = 1;

  // Declared last so it is destroyed first: scheduler entries hold factory
  // references whose destructors unregister basket readers — the baskets
  // (and query entries) must still be alive at that point.
  Scheduler scheduler_;
};

}  // namespace dc

#endif  // DATACELL_CORE_ENGINE_H_
