// Copyright 2026 The DataCell Authors.
//
// Compiler: BoundQuery -> CompiledQuery. A compiled query is structured as
// the stages DataCell's incremental mode needs (DESIGN.md §4.6):
//
//   prejoin[r]  per-relation CAL program: raw columns -> filtered compact
//               columns (selection chain + projection pruning). In
//               incremental mode this fragment runs once per basic window.
//   postjoin    CAL program over the compact relations: equi-join,
//               post-join filters, and evaluation of the fragment output
//               expressions (group keys + aggregate arguments, or the
//               projected output columns for non-aggregate queries).
//   finish      merge/finalization metadata executed by the engine: merge
//               partial aggregates, evaluate the select list over
//               keys/aggregates, HAVING, ORDER BY, LIMIT.
//
// One-time execution and FULL re-evaluation run prejoin+postjoin on the
// whole input and finish with a single partial; INCREMENTAL caches per-
// basic-window partials and merges them — both paths share all stage code,
// which is what guarantees FULL == INCREMENTAL results.

#ifndef DATACELL_PLAN_COMPILER_H_
#define DATACELL_PLAN_COMPILER_H_

#include <vector>

#include "plan/bound.h"
#include "plan/cal.h"
#include "util/result.h"

namespace dc::plan {

/// Finalization (merge-side) specification.
struct FinishSpec {
  bool is_aggregate = false;

  // Aggregate queries:
  std::vector<TypeId> key_types;
  std::vector<std::pair<ops::AggKind, TypeId>> agg_layout;
  std::vector<BExprPtr> select_exprs;               // finish-domain
  BExprPtr having;                                  // finish-domain or null
  std::vector<std::pair<BExprPtr, bool>> order_by;  // finish-domain

  // Non-aggregate queries: fragment outputs are the visible columns
  // followed by hidden sort columns.
  int num_visible = 0;
  std::vector<std::pair<int, bool>> sort_cols;  // fragment slot, ascending

  int64_t limit = -1;
  std::vector<std::string> out_names;
};

/// EXPLAIN-facing classification of one operator under incremental mode:
/// does it run per basic window / as a delta / as a cheap merge tail, or
/// does it force full recomputation of the window?
struct StageClass {
  std::string op;            // "prejoin r0", "join", "order_by", ...
  bool incremental = false;  // false: recompute over the full window
  std::string note;          // how it is incrementalized / why it is not
};

/// A fully compiled query, ready for the executor / factories.
struct CompiledQuery {
  BoundQuery bound;

  std::vector<cal::Program> prejoin;
  /// compact_cols[r][slot] = raw column index of prejoin output `slot`.
  std::vector<std::vector<int>> compact_cols;

  cal::Program postjoin;

  /// Delta variant of the postjoin stage, emitted for stream-stream
  /// equi-joins: the join instruction is datacell.delta_join (new pairs
  /// only; the interpreter reads each side's old/new split from
  /// StageInput::delta_old_rows), each input carries one extra
  /// basic-window-ordinal column at slot compact_cols[r].size(), and the
  /// two ordinal columns ride through the post-join filters as the last
  /// two outputs so the factory can bucket result rows by expiry.
  cal::Program delta_postjoin;
  bool has_delta_postjoin = false;

  /// Compact slot of the join key per side (the left side is relation 0)
  /// and the equality domain both keys meet in (ops::JoinKeyDomain): the
  /// join hashes are built over these columns — a delta join's rolling
  /// retained-side indexes, and a stream⋈table node's table side. Valid
  /// iff bound.join is set.
  int join_key_slots[2] = {-1, -1};
  TypeId join_key_domain = TypeId::kI64;

  /// Delta pre-aggregation push-down: when the query tail is a scalar
  /// aggregate whose arguments are bare single-side columns (or
  /// COUNT(*)), with no GROUP BY and no post-join filters, each side can
  /// be pre-aggregated per join key per basic window and the delta join
  /// pairs groups instead of rows (AggColumn::ScaledMerge applies the
  /// product rule). Per-emission cost then scales with distinct keys, not
  /// join pairs.
  struct DeltaPreAgg {
    bool eligible = false;
    /// Per aggregate: the join side (0/1) its argument lives on, or -1
    /// for COUNT(*); and the compact slot of that argument on its side.
    std::vector<int> agg_side;
    std::vector<int> agg_slot;
  };
  DeltaPreAgg delta_pre_agg;

  /// Per-operator incremental-vs-recompute classification (EXPLAIN).
  std::vector<StageClass> classification;

  /// Incremental eligibility of the bound windows, via the shared rule
  /// plan::IncrementalEligible (the factory applies the same rule to its
  /// actual input windows — FactoryStats::fell_back_to_full). Rendered by
  /// EXPLAIN's classification.
  bool incremental_eligible = false;

  /// Aggregate fragment layout: postjoin outputs [0, num_keys) are group
  /// keys; agg_arg_slots[i] is the postjoin output carrying agg i's
  /// argument, or -1 for COUNT(*).
  int num_keys = 0;
  std::vector<int> agg_arg_slots;

  FinishSpec finish;

  /// Canonical fragment signatures for multi-query sharing (the engine's
  /// shared-node registry, docs/SHARING.md). `prefix_signature` covers
  /// everything that shapes the per-basic-window fragment — relations,
  /// filters, join, grouping, aggregates (and, for non-aggregate queries,
  /// the select list and sort exprs, which the fragment materializes) —
  /// but NOT window geometry (registered separately, so window
  /// subsumption can share partials across geometries) and NOT literal
  /// constants, which are rendered as `?` with their values collected in
  /// traversal order into `sig_params`. `finish_signature` covers the
  /// per-query merge tail (finish-domain select/HAVING/ORDER BY, LIMIT,
  /// output names). Two queries share work iff the relevant signatures
  /// AND their sig_params match — masking constants makes near-identical
  /// queries collide on the signature key so the registry can compare
  /// params cheaply.
  std::string prefix_signature;
  std::string finish_signature;
  std::vector<std::string> sig_params;
};

/// Compiles a bound query. Run the optimizer first (plan/optimizer.h).
Result<CompiledQuery> Compile(BoundQuery q);

}  // namespace dc::plan

#endif  // DATACELL_PLAN_COMPILER_H_
