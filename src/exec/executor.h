// Copyright 2026 The DataCell Authors.
//
// QueryExecutor: runs a compiled query's stages and owns the
// partial-result/merge machinery that both execution modes share.
//
//   One-time / FULL re-evaluation:  ExecuteFull(whole inputs)
//   INCREMENTAL:                    RunPrejoin + RunPostjoin per basic
//                                   window -> MakePartial (cached by the
//                                   factory) -> Finish(merge all partials)
//
// Because both paths run the identical stage programs and the identical
// finish step, FULL and INCREMENTAL emissions are equal by construction;
// the property tests assert it.

#ifndef DATACELL_EXEC_EXECUTOR_H_
#define DATACELL_EXEC_EXECUTOR_H_

#include <deque>
#include <utility>
#include <vector>

#include "bat/bat.h"
#include "bat/ops_group.h"
#include "bat/ops_join.h"
#include "exec/interpreter.h"
#include "plan/compiler.h"
#include "util/result.h"

namespace dc::exec {

/// Mergeable partial result of one input portion (basic window).
struct Partial {
  // Aggregate queries: the groups and their states; a scalar table (one
  // group, no keys) without GROUP BY. Empty, with no layout, otherwise.
  ops::GroupTable grouped;
  // Non-aggregate queries: the fragment's output columns. When the query
  // has an ORDER BY, MakePartial stores them pre-sorted by the hidden
  // sort columns, so each partial is one sorted run and Finish merges
  // runs instead of re-sorting the window.
  std::vector<BatPtr> frag_cols;
  uint64_t rows = 0;

  /// Bytes held (monitoring: "intermediate result sizes").
  size_t MemoryBytes() const;
};

/// Output of the delta-postjoin stage (stream-stream joins, incremental
/// mode): the fragment columns of the NEW join pairs only, plus each
/// result row's basic-window ordinal on both sides — the factory buckets
/// rows by expiry so retained results are dropped wholesale as basic
/// windows leave the window.
struct DeltaFrag {
  StageOutput frag;
  std::vector<int64_t> left_bw;
  std::vector<int64_t> right_bw;
};

/// Rolling per-side state of the delta-join row path: the [retained ; new]
/// concatenation of one side's compact columns plus the hidden bw-ordinal
/// column, and the hash index over the join-key slot. The factory appends
/// each arriving basic window exactly once, marks expired basic windows
/// dead lazily, and physically trims only when the dead prefix outgrows
/// the live rows — so per-emission assembly cost is O(new rows), not
/// O(window), and the index is never rebuilt.
struct DeltaSideState {
  /// Compact columns followed by the i64 basic-window-ordinal column.
  std::vector<BatPtr> cols;
  uint64_t rows = 0;  ///< physical rows, including the dead prefix
  uint64_t dead = 0;  ///< expired physical prefix rows awaiting trim
  /// (bw ordinal, row count) per live basic window, oldest first.
  std::deque<std::pair<int64_t, uint64_t>> bws;
  /// Rolling join hash over cols[key_slot]; positions are physical row
  /// ids.
  ops::JoinHash index;
  int key_slot = -1;  ///< compact slot of the join key on this side

  /// Drops all state and rebinds the key domain/slot (first seed fire).
  void Reset(TypeId key_domain, int key_slot_in);
  /// Appends one basic window's compact columns (prejoin output) plus the
  /// repeated ordinal `bw`. Allocates the columns on first use.
  Status AppendBasicWindow(int64_t bw, const StageOutput& compact);
  /// Indexes rows [from, rows). Call after the delta probe so the index
  /// never covers the probing emission's new rows.
  Status IndexNewRows(uint64_t from);
  /// Marks basic windows with ordinal < `first_live` dead. Their rows
  /// stay physically resident (and probe-invisible) until TrimIfWorthIt.
  void EvictBefore(int64_t first_live);
  /// Physically drops the dead prefix once it outgrows the live rows,
  /// rebasing the index in the same step so positions stay row ids.
  void TrimIfWorthIt();
  uint64_t live_rows() const { return rows - dead; }
  size_t MemoryBytes() const;
};

/// Rolling retained-side state of the pre-aggregated delta path: the
/// group-level analogue of DeltaSideState. Index positions are group
/// ordinals into counts/states/bw_of (dense append order).
struct DeltaGroupTrack {
  std::vector<uint64_t> counts;
  /// One state column per local aggregate (GroupTable's layout).
  std::vector<ops::AggColumn> states;
  std::vector<int64_t> bw_of;  ///< originating basic window per group
  uint64_t dead = 0;           ///< expired group prefix awaiting trim
  /// (bw ordinal, group count) per live basic window, oldest first.
  std::deque<std::pair<int64_t, uint64_t>> bws;
  ops::JoinHash index;  ///< over the group keys

  void Reset(TypeId key_domain);
  /// Appends one basic window's groups and indexes their keys. The pairing
  /// discipline (which side appends before the opposite side probes, so
  /// each bw pair is accumulated exactly once and new x new rides on the
  /// second probe) lives in Factory::FireDeltaPreAgg.
  Status AppendGroups(int64_t bw, const ops::GroupTable& g);
  void EvictBefore(int64_t first_live);
  void TrimIfWorthIt();
  uint64_t live_groups() const { return counts.size() - dead; }
  size_t MemoryBytes() const;
};

/// Stage runner for one compiled query. Thread-compatible: const methods
/// are safe to call concurrently.
class QueryExecutor {
 public:
  explicit QueryExecutor(plan::CompiledQuery cq);

  const plan::CompiledQuery& compiled() const { return cq_; }

  /// Prejoin stage for relation `rel` over raw input columns.
  Result<StageOutput> RunPrejoin(int rel, const StageInput& raw) const;

  /// Postjoin stage over the compact relations (prejoin outputs).
  Result<StageOutput> RunPostjoin(
      const std::vector<StageInput>& compact) const;

  /// Delta-postjoin stage: `compact` holds, per side, the concatenated
  /// [retained ; new] compact columns with StageInput::delta_old_rows set
  /// and one extra i64 basic-window-ordinal column appended after the
  /// compact columns. Produces the fragment rows of the new join pairs
  /// only.
  Result<DeltaFrag> RunPostjoinDelta(
      const std::vector<StageInput>& compact) const;

  /// Folds a fragment output into a mergeable Partial.
  Result<Partial> MakePartial(const StageOutput& frag) const;

  /// Pre-aggregation push-down (compiled().delta_pre_agg.eligible):
  /// reduces one basic window's compact columns of join side `side` (0 or
  /// 1) to per-join-key groups in `groups`, which is reset first. The
  /// group states are this side's local aggregates: those whose argument
  /// lives on this side, in query order (COUNT(*) needs none). The delta
  /// join then pairs groups instead of rows and applies the product rule
  /// (AggColumn::ScaledMerge), so per-emission cost scales with distinct
  /// keys rather than join pairs.
  Status BuildDeltaGroups(int side, const StageOutput& compact,
                          ops::GroupTable* groups) const;

  /// Merges `partials` (possibly empty) and applies the finish step:
  /// select-list evaluation, HAVING, ORDER BY, LIMIT, column naming.
  Result<ColumnSet> Finish(
      const std::vector<const Partial*>& partials) const;

  /// Whole pipeline over complete inputs — one-time queries and FULL mode.
  Result<ColumnSet> ExecuteFull(const std::vector<StageInput>& raw) const;

  /// Convenience wrapper: prejoin+postjoin+MakePartial for one portion.
  Result<Partial> ComputePartial(const std::vector<StageInput>& raw) const;

 private:
  Result<ColumnSet> FinishAggregate(
      const std::vector<const Partial*>& partials) const;
  Result<ColumnSet> FinishPlain(
      const std::vector<const Partial*>& partials) const;

  plan::CompiledQuery cq_;
  std::vector<TypeId> fragment_types_;
};

/// Types of the query's visible output columns (for result schemas).
std::vector<TypeId> OutputTypes(const plan::CompiledQuery& cq);

/// Evaluates a finish-domain expression over the merged key/aggregate
/// columns (all of length `rows`).
Result<BatPtr> EvalFinishExpr(const plan::BExpr& e,
                              const std::vector<BatPtr>& key_cols,
                              const std::vector<BatPtr>& agg_cols,
                              uint64_t rows);

}  // namespace dc::exec

#endif  // DATACELL_EXEC_EXECUTOR_H_
