// Copyright 2026 The DataCell Authors.
//
// Multi-query sharing (docs/SHARING.md): the refcounted shared-node
// registry behind factory-graph common-subexpression elimination. Two
// tiers:
//
//   Tier F (full-factory dedup)  Queries whose full compiled identity
//       matches — prefix + finish signatures, signature parameters,
//       window geometry, execution mode — alias ONE factory; each query
//       keeps a private emitter/sink on the shared output basket. This
//       covers joins (one pair of rolling join indexes for M identical
//       texts).
//
//   Tier P (prefix/partial sharing)  Every incremental query over one
//       windowed stream whose window divides (plan::IncrementalEligible),
//       with or without a joined table, is a merge tail of a
//       SharedWindowNode: the node owns the ONLY basket reader and the
//       one cache of basic-window partials at a fixed grid granularity;
//       each tail merges the grid partials covering its own window
//       extents. Queries whose fragment prefixes match share a node; a
//       query nothing shares with runs on a one-subscriber node. Window
//       subsumption: a tail with slide S can ride a node with grid g iff
//       g | S (its window size is then also a multiple of g, since
//       incremental mode requires slide | size) — a finer-slide query's
//       partials serve any coarser compatible window.
//
// Lifecycle is refcount-driven: the engine subscribes a tail to its node
// under Engine::share_mu_ (LockRank::kSharingRegistry) and a node is
// reclaimed only when its last subscriber unsubscribes. The node's own
// mutex ranks kSharedNode (between kFactory and kSchedRegistry), so a
// firing tail — holding its factory lock — may call into the node, which
// reads baskets (kBasket) and table snapshots (kTable) underneath.

#ifndef DATACELL_CORE_SHARING_H_
#define DATACELL_CORE_SHARING_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/basket.h"
#include "core/window.h"
#include "exec/executor.h"
#include "storage/table.h"
#include "util/result.h"
#include "util/sync.h"

namespace dc {

/// Immutable shared partials (tails in different factories hold them
/// concurrently while the node evicts).
using PartialPtr = std::shared_ptr<const exec::Partial>;

/// Monitoring snapshot of one shared window node.
struct SharedNodeStats {
  std::string label;           // "<stream>#<node-ordinal>"
  std::string stream;
  int subscribers = 0;
  int64_t grid_slide = 0;      // basic-window granularity (rows or µs)
  bool rows = false;
  uint64_t partial_builds = 0;  // grid partials actually computed
  uint64_t sharing_hits = 0;    // grid partials served from cache
  uint64_t tuples_in = 0;       // stream rows read for builds
  uint64_t cached_partials = 0;
  // Cached partials plus the table side: the prejoin's own columns (not
  // those it shares with the table snapshot) and the join hash.
  size_t cached_bytes = 0;
};

/// Engine-wide sharing snapshot (monitor pane, stats assertions).
struct SharingStats {
  bool enabled = false;
  uint64_t shared_nodes = 0;      // live tier-P nodes (private ones too)
  uint64_t shared_factories = 0;  // live tier-F factories with >1 query
  /// full_hits + prefix_hits + every node's cache hits: each unit of work
  /// (a factory registration or a grid partial) served from cached state
  /// instead of being rebuilt. A one-subscriber node's hits are its reuse
  /// across slides.
  uint64_t sharing_hits = 0;
  uint64_t full_hits = 0;    // tier-F: queries that aliased a factory
  uint64_t prefix_hits = 0;  // tier-P: queries that joined a live node
  std::vector<SharedNodeStats> nodes;
};

/// Reads the stream rows of `basket` covering window coordinates [lo, hi)
/// of a window anchored at `origin_seq`: ROWS coordinates are offsets from
/// the origin, RANGE coordinates are event timestamps. Both clamp below at
/// the origin, so rows that arrived before the window's reader registered
/// never enter it.
Result<exec::StageInput> ReadWindowExtent(const Basket& basket,
                                          uint64_t origin_seq, bool rows_mode,
                                          int64_t lo, int64_t hi);

/// The basic-window partial store of one windowed stream (optionally
/// joined with one table). The node owns the basket reader; subscribed
/// tails request grid partial ranges (EnsureRange) and release consumed
/// prefixes (Release) — the reader advances, and cached partials evict, at
/// the minimum released mark across subscribers, so the slowest tail
/// bounds retention.
class SharedWindowNode {
 public:
  /// Registers a from-start reader on `basket`; grid windows are tumbling
  /// `grid_slide` rows or µs, in coordinates relative to the then-current
  /// cursor (ROWS) or absolute event time (RANGE). `executor` is the
  /// founding subscriber's: its compiled query names the stream relation
  /// slot and at most one table slot, and `table` is that table (null for
  /// a stream-only prefix). All subscribers share the fragment prefix, so
  /// the founder's executor builds partials valid for each.
  SharedWindowNode(std::string label, std::shared_ptr<Basket> basket,
                   TablePtr table,
                   std::shared_ptr<exec::QueryExecutor> executor,
                   bool rows_mode, int64_t grid_slide);
  ~SharedWindowNode();

  SharedWindowNode(const SharedWindowNode&) = delete;
  SharedWindowNode& operator=(const SharedWindowNode&) = delete;

  const std::string& label() const { return label_; }
  Basket* basket() const { return basket_.get(); }
  const Table* table() const { return table_.get(); }
  bool rows_mode() const { return rows_mode_; }
  int64_t grid_slide() const { return grid_slide_; }
  /// Basket cursor at node creation; tails anchor their window
  /// coordinates here (all subscribers share one origin).
  uint64_t origin_seq() const { return origin_seq_; }

  /// True iff a window with this slide can be served from this node's
  /// grid (window subsumption; slide | size is the caller's invariant).
  bool Compatible(bool rows, int64_t slide) const {
    return rows == rows_mode_ && slide % grid_slide_ == 0;
  }

  /// Recovery (docs/DURABILITY.md): re-anchors the grid at the node's
  /// original origin. Valid only on a fresh node (nothing built or
  /// cached) — Engine recovery applies it right after recreating the
  /// node, before any tail fires.
  Status RestoreOrigin(uint64_t origin_seq);

  /// Adds a subscriber; returns its id (pass to Release/Unsubscribe).
  int Subscribe();
  /// Drops a subscriber; re-evaluates eviction for the remaining ones.
  void Unsubscribe(int sub_id);
  int subscribers() const;

  /// Appends to `out` the grid partials covering window coordinates
  /// [lo, hi), computing and caching the missing ones. With a table, a
  /// cached partial built against an older table version is rebuilt from
  /// the still-resident basket rows. `built`/`hits`/`rows_in` are
  /// incremented (not reset) with this call's counts so the firing tail
  /// can fold them into its own FactoryStats.
  Status EnsureRange(int64_t lo, int64_t hi, std::vector<PartialPtr>* out,
                     uint64_t* built, uint64_t* hits, uint64_t* rows_in);

  /// Subscriber `sub_id` no longer needs window coordinates below `lo`;
  /// cached partials below the minimum mark across all subscribers evict
  /// and the basket reader advances accordingly. A subscriber that never
  /// released pins everything (new tails see the full retained window).
  void Release(int sub_id, int64_t lo);

  SharedNodeStats Stats() const;

 private:
  /// A cached grid partial and the table version it joined (0 without a
  /// table).
  struct GridPartial {
    PartialPtr partial;
    uint64_t table_version = 0;
  };

  /// Grid basic windows are tumbling: slide == size == grid_slide_.
  WindowMath Grid() const {
    return WindowMath(plan::WindowSpec{rows_mode_, grid_slide_, grid_slide_});
  }

  /// Reads grid basic window `j` and builds its partial (joined with
  /// `table_pre_` when the node has a table).
  Result<PartialPtr> BuildLocked(int64_t j, uint64_t* rows_in)
      DC_REQUIRES(mu_);

  /// Evicts cache entries and advances the basket reader up to the
  /// minimum released mark; a no-op while any subscriber is unreleased.
  void EvictLocked() DC_REQUIRES(mu_);

  const std::string label_;
  const std::shared_ptr<Basket> basket_;
  const TablePtr table_;
  const std::shared_ptr<exec::QueryExecutor> executor_;
  // Relation slots of the stream and the table (-1: none) in executor_'s
  // compiled query.
  const int stream_rel_;
  const int table_rel_;
  const bool rows_mode_;
  const int64_t grid_slide_;
  int reader_id_ = -1;  // immutable after construction
  /// Immutable after construction, except for a single RestoreOrigin
  /// call during recovery (before any tail fires).
  uint64_t origin_seq_ = 0;

  /// Sentinel release mark: subscriber has not released anything yet.
  static constexpr int64_t kUnreleased = INT64_MIN;

  mutable Mutex mu_{LockRank::kSharedNode};
  std::map<int64_t, GridPartial> cache_ DC_GUARDED_BY(mu_);
  /// The table's prejoin output, computed once per table version. When
  /// the table is the join's build side, table_pre_.index points at
  /// table_hash_, built over its join key in the same step.
  exec::StageInput table_pre_ DC_GUARDED_BY(mu_);
  /// Bytes of the table_pre_ columns the prejoin made (not the snapshot's).
  size_t table_pre_bytes_ DC_GUARDED_BY(mu_) = 0;
  ops::JoinHash table_hash_ DC_GUARDED_BY(mu_);
  std::optional<uint64_t> table_pre_version_ DC_GUARDED_BY(mu_);
  std::map<int, int64_t> subs_ DC_GUARDED_BY(mu_);  // sub id -> release mark
  int next_sub_ DC_GUARDED_BY(mu_) = 1;
  uint64_t builds_ DC_GUARDED_BY(mu_) = 0;
  uint64_t hits_ DC_GUARDED_BY(mu_) = 0;
  uint64_t tuples_in_ DC_GUARDED_BY(mu_) = 0;
};

using SharedWindowNodePtr = std::shared_ptr<SharedWindowNode>;

}  // namespace dc

#endif  // DATACELL_CORE_SHARING_H_
