// Copyright 2026 The DataCell Authors.
//
// Factory: a continuous query instance (paper §3, "Factories/Queries") —
// the co-routine-like unit the scheduler fires. Each factory encloses a
// compiled (partial) query plan; every Fire() consumes available input from
// its input baskets (and persistent tables), evaluates one emission, and
// appends the result to its output basket.
//
// Execution modes (paper §4):
//   kFullReeval   re-run the whole plan over the full window every slide —
//                 the mode for non-windowed and tumbling-window queries.
//   kIncremental  per-basic-window partial caching + merge (DESIGN.md
//                 §4.6). Requires slide | size; falls back to full
//                 re-evaluation otherwise (recorded in stats). A single
//                 windowed stream (+ optional table) keeps its partials in
//                 a SharedWindowNode and the factory is the node's merge
//                 tail; stream-stream joins run delta joins over partials
//                 the factory keeps itself.

#ifndef DATACELL_CORE_FACTORY_H_
#define DATACELL_CORE_FACTORY_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/basket.h"
#include "core/sharing.h"
#include "core/window.h"
#include "exec/executor.h"
#include "storage/snapshot.h"
#include "storage/table.h"
#include "util/result.h"
#include "util/sync.h"

namespace dc {

/// Continuous execution mode (paper §4: the two re-evaluation scenarios).
enum class ExecMode { kFullReeval, kIncremental };

const char* ExecModeName(ExecMode m);

/// One input arc of the factory (a Petri-net place): a basket or a table.
struct FactoryInput {
  bool is_stream = false;
  // Stream inputs:
  Basket* basket = nullptr;
  int reader_id = -1;
  std::optional<plan::WindowSpec> window;
  // Table inputs:
  TablePtr table;
};

/// Monitoring snapshot (demo's per-query analysis pane).
struct FactoryStats {
  uint64_t invocations = 0;
  /// Emissions appended to the output basket. Zero-row emissions keep
  /// their batch boundary there, so this equals what the emitter delivers
  /// (EmitterStats::emissions once drained).
  uint64_t emissions = 0;
  uint64_t empty_emissions = 0;  // of which zero-row result sets
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  Micros total_exec_micros = 0;
  /// The factory's own incremental state: delta-join partials and
  /// retained sides. A node tail caches nothing itself; its partials are
  /// counted on its node (SharedNodeStats).
  uint64_t cached_partials = 0;
  size_t cached_bytes = 0;
  uint64_t fragments_computed = 0;  // basic-window fragments evaluated
  /// Join pairs produced by delta joins (stream-stream incremental mode):
  /// per slide this is the new pairs only, not the full window join. The
  /// pre-aggregated path counts the pairs its group pairings represent
  /// (sum of count_l * count_r), so the number is path-independent.
  uint64_t delta_pairs = 0;
  /// Live rows (raw delta path) or groups (pre-aggregated path) in the
  /// rolling retained-side state across both join sides.
  uint64_t retained_rows = 0;
  /// Live entries across both sides' rolling join-key hash indexes.
  uint64_t index_entries = 0;
  /// Node tails (docs/SHARING.md): basic-window partials this query
  /// needed that were served from its node's cache instead of being
  /// rebuilt (fragments_computed counts the ones it built).
  uint64_t sharing_hits = 0;
  bool fell_back_to_full = false;   // incremental requested, not divisible
  bool paused = false;
  std::string last_error;
};

/// A continuous query plan instance driven by the scheduler.
class Factory {
 public:
  /// `inputs` must be ordered like the compiled query's relations.
  /// Supported shapes (validated): one non-windowed stream (+ optional
  /// table), one windowed stream (+ optional table), or two RANGE-windowed
  /// streams with equal slide.
  ///
  /// An incremental single-stream window that divides
  /// (plan::IncrementalEligible) is a merge tail of `node`
  /// (docs/SHARING.md), and only such a factory takes one: its stream input
  /// carries reader_id = -1 (the node owns the only reader) on the node's
  /// basket, its window must be grid-compatible (node->Compatible), and
  /// `node_sub` is the engine-owned subscription used for Release calls
  /// (node->Subscribe before creation, node->Unsubscribe after the factory
  /// leaves the scheduler).
  static Result<std::shared_ptr<Factory>> Create(
      int id, std::string name, std::shared_ptr<exec::QueryExecutor> executor,
      ExecMode mode, std::vector<FactoryInput> inputs,
      std::shared_ptr<Basket> output, SharedWindowNodePtr node = nullptr,
      int node_sub = -1);

  ~Factory();

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  ExecMode mode() const { return mode_; }
  const exec::QueryExecutor& executor() const { return *executor_; }
  Basket* output() const { return output_.get(); }
  const std::vector<FactoryInput>& inputs() const { return inputs_; }
  /// The node serving this factory's partials (null unless it is a node
  /// tail) and the subscription the engine drops at teardown.
  const SharedWindowNodePtr& node() const { return node_; }
  int node_sub() const { return node_sub_; }

  /// Distinct stream input baskets — the Petri-net places whose
  /// data-arrival pulses can enable this transition. The engine attaches
  /// one scheduler arc per entry (targeted enablement wiring).
  std::vector<Basket*> InputBaskets() const;

  /// Petri-net firing probe: true when Fire() would make progress.
  bool CheckReady() const;

  /// Performs one emission (or one per-batch evaluation). Errors are
  /// stored (visible in Stats) and disable the factory.
  Status Fire();

  void Pause();
  void Resume();
  bool paused() const;

  FactoryStats Stats() const;

  // --- Durability (docs/DURABILITY.md) --------------------------------------

  /// Captures the recomputation-free progress of this factory: input
  /// origins, the next due emission, the per-batch cursor and the
  /// emission count. Everything else (windows, partial caches, join
  /// indexes, retained delta sides) is rebuilt from replayed basket rows.
  storage::FactoryProgress SnapshotProgress() const;

  /// Recovery: re-applies captured progress to a freshly created factory.
  /// Valid only before the first Fire — the caller (Engine recovery)
  /// restores progress before registering the factory with the scheduler,
  /// so a worker can never fire it against pre-restore origins. A node
  /// tail refuses a stream origin other than its node's origin_seq(): its
  /// window coordinates must stay anchored where the grid is.
  Status RestoreProgress(const storage::FactoryProgress& p);

 private:
  /// kSingleWindow re-evaluates its window in full, or — with a node —
  /// merges the node's grid partials.
  enum class Shape { kPerBatch, kSingleWindow, kDualWindow };

  Factory(int id, std::string name,
          std::shared_ptr<exec::QueryExecutor> executor, ExecMode mode,
          std::vector<FactoryInput> inputs, std::shared_ptr<Basket> output,
          SharedWindowNodePtr node, int node_sub);

  /// Runs pre-publication from Create, which takes mu_ around the call so
  /// the analysis can check Validate's guarded writes.
  Status Validate() DC_REQUIRES(mu_);

  bool CheckReadyLocked() const DC_REQUIRES(mu_);
  Status FireLocked() DC_REQUIRES(mu_);
  Status FirePerBatch() DC_REQUIRES(mu_);
  Status FireSingleWindow() DC_REQUIRES(mu_);
  Status FireDualWindow() DC_REQUIRES(mu_);

  /// Initializes the first RANGE emission boundary from the earliest
  /// resident event; returns false if no data yet.
  bool EnsureRangeOrigin(int rel, int64_t* m) const DC_REQUIRES(mu_);

  /// RANGE-window readiness of one stream side at boundary m, including
  /// the sealed-stream flush rule.
  bool RangeSideReady(int rel, const WindowMath& wm, int64_t m) const
      DC_REQUIRES(mu_);

  /// Reads the stream rows of stream input `rel` covering [lo, hi) in the
  /// window coordinate space (seqs for ROWS, event ts for RANGE).
  Result<exec::StageInput> ReadStreamExtent(int rel, int64_t lo,
                                            int64_t hi) const
      DC_REQUIRES(mu_);

  exec::StageInput TableInput(int rel) const DC_REQUIRES(mu_);

  /// Arrival stamp of the input that made windowed emission `emission`
  /// due (docs/OBSERVABILITY.md): the ingest time of a ROWS window's last
  /// row, or of the append/heartbeat that pushed the watermark across a
  /// RANGE boundary (the seal, for sealed-flush emissions). Dual-window
  /// emissions become due when the *later* side crosses, hence the max
  /// across sides. -1 when unknown.
  Micros TriggerStampLocked(int64_t emission) const DC_REQUIRES(mu_);

  /// Appends `result` to the output basket carrying `trigger_us` as the
  /// batch's ingest stamp, so the emitter measures ingest→delivery
  /// latency end to end (-1: the output append stamps itself).
  Status EmitResult(const ColumnSet& result, Micros trigger_us)
      DC_REQUIRES(mu_);

  /// Stream-stream delta-join partials, keyed {expiry emission, creating
  /// emission}: the first component is the basic-window-driven emission
  /// ordinal at which every pair in the partial has left the window, so
  /// expiry evicts whole partials.
  struct PartialKey {
    int64_t a = 0;
    int64_t b = 0;
    bool operator<(const PartialKey& o) const {
      return a != o.a ? a < o.a : b < o.b;
    }
  };

  /// Reads and prejoins basic window `bw` of stream `rel` (RANGE mode).
  /// Each basic window is prejoined exactly once per side — the result is
  /// appended to the rolling retained-side state, never recomputed.
  Result<exec::StageOutput> PrejoinBasicWindow(int rel, int64_t bw)
      DC_REQUIRES(mu_);

  /// One incremental stream-stream emission: delta-join the newest basic
  /// window against the retained window, bucket new pairs by expiry, and
  /// merge all live partials.
  Status FireDualWindowDelta(int64_t m, const WindowMath& wl,
                             const WindowMath& wr) DC_REQUIRES(mu_);

  /// Row-pairing delta step: appends the new basic window(s) to each
  /// side's rolling concatenation, runs the indexed delta postjoin, and
  /// files the new pairs into expiry-keyed partials.
  Status FireDeltaRows(int64_t m, int64_t lfirst, int64_t rfirst, int64_t nl,
                       int64_t nr) DC_REQUIRES(mu_);

  /// Pre-aggregated delta step (compiled().delta_pre_agg.eligible): pairs
  /// per-key groups instead of rows and accumulates expiry-bucketed
  /// scalar aggregate states directly (product rule).
  Status FireDeltaPreAgg(int64_t m, int64_t lfirst, int64_t rfirst,
                         int64_t nl, int64_t nr) DC_REQUIRES(mu_);

  // Immutable after construction (Validate only reads them): safe without
  // mu_, e.g. for InputBaskets() and the destructor's reader unregistration.
  const int id_;
  const std::string name_;
  std::shared_ptr<exec::QueryExecutor> executor_;
  const ExecMode mode_;
  std::vector<FactoryInput> inputs_;
  std::shared_ptr<Basket> output_;
  /// Node tails only: the node serving this query's partials and the
  /// engine-owned subscription id used for Release calls.
  const SharedWindowNodePtr node_;
  const int node_sub_ = -1;

  mutable Mutex mu_{LockRank::kFactory};

  Shape shape_ DC_GUARDED_BY(mu_) = Shape::kPerBatch;
  // Relation indices of the stream inputs / the table input.
  int stream_rels_[2] DC_GUARDED_BY(mu_) = {-1, -1};
  int table_rel_ DC_GUARDED_BY(mu_) = -1;
  bool incremental_active_ DC_GUARDED_BY(mu_) = false;
  /// Dual-window delta state: false until the first incremental emission
  /// joined the whole initial window (everything "new"); afterwards each
  /// emission delta-joins only basic window m-1.
  bool delta_seeded_ DC_GUARDED_BY(mu_) = false;

  bool paused_ DC_GUARDED_BY(mu_) = false;
  bool failed_ DC_GUARDED_BY(mu_) = false;
  std::string last_error_ DC_GUARDED_BY(mu_);

  // Per-batch cursor (kPerBatch).
  uint64_t batch_cursor_ DC_GUARDED_BY(mu_) = 0;

  // Window progression (kSingleWindow / kDualWindow); k (ROWS) or
  // m (RANGE), advanced lazily by the readiness probe.
  mutable std::optional<int64_t> next_emission_ DC_GUARDED_BY(mu_);

  // Registration-time cursor per relation slot (window coordinates for
  // ROWS windows are relative to this origin).
  std::vector<uint64_t> origin_seq_ DC_GUARDED_BY(mu_);

  std::map<PartialKey, exec::Partial> partials_ DC_GUARDED_BY(mu_);

  /// Rolling retained-side state per join side (kDualWindow incremental):
  /// the row path uses delta_side_, the pre-aggregated path delta_groups_.
  exec::DeltaSideState delta_side_[2] DC_GUARDED_BY(mu_);
  exec::DeltaGroupTrack delta_groups_[2] DC_GUARDED_BY(mu_);
  /// Per join side: the arriving basic window's groups (pre-agg path),
  /// rebuilt each step; the table keeps its slot array across fires.
  ops::GroupTable delta_new_[2] DC_GUARDED_BY(mu_);
  /// Per aggregate: its index among its side's local aggregates (parallel
  /// to delta_pre_agg.agg_side), or -1 for COUNT(*).
  std::vector<int> preagg_local_ DC_GUARDED_BY(mu_);
  /// Reusable expiry-bucket scratch, indexed expiry - (m + 1); every pair
  /// created at emission m expires in [m + 1, m + min(nl, nr)].
  std::vector<std::vector<Oid>> expiry_rows_ DC_GUARDED_BY(mu_);  // row path
  /// Pre-agg path: per aggregate, one accumulator group per bucket.
  std::vector<ops::AggColumn> expiry_states_ DC_GUARDED_BY(mu_);
  std::vector<uint8_t> expiry_dirty_ DC_GUARDED_BY(mu_);  // pre-agg path

  FactoryStats stats_ DC_GUARDED_BY(mu_);
};

using FactoryPtr = std::shared_ptr<Factory>;

}  // namespace dc

#endif  // DATACELL_CORE_FACTORY_H_
