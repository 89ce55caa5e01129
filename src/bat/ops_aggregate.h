// Copyright 2026 The DataCell Authors.
//
// Aggregation: scalar (whole-input) and grouped, plus the mergeable partial
// state that powers DataCell's incremental sliding-window mode (partial
// aggregates per basic window, merged per emission — DESIGN.md §4.6).

#ifndef DATACELL_BAT_OPS_AGGREGATE_H_
#define DATACELL_BAT_OPS_AGGREGATE_H_

#include <cstdint>
#include <string>

#include "bat/bat.h"
#include "bat/candidates.h"
#include "util/result.h"

namespace dc::ops {

/// Supported aggregate functions.
enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

const char* AggKindName(AggKind k);

/// Result type of `kind` over a column of type `input` (COUNT->I64,
/// AVG->F64, SUM over I64->I64, ...). `input` is ignored for COUNT.
Result<TypeId> AggResultType(AggKind kind, TypeId input);

/// Mergeable partial aggregate state. One AggState summarizes any subset of
/// rows; Merge() combines disjoint subsets. This is the unit DataCell
/// caches per basic window.
struct AggState {
  uint64_t count = 0;
  int64_t isum = 0;   // running sum for int-like inputs
  double dsum = 0;    // running sum for f64 inputs
  bool has_minmax = false;
  Value min;
  Value max;

  /// Folds one value in.
  void Add(const Value& v);
  /// Folds one cell of `col` in: the typed form of Add(col.GetValue(o)),
  /// which materializes no Value for numeric columns unless a new extremum
  /// is recorded. Callers whose aggregate never reads the extrema pass
  /// `with_minmax = false` to skip the tracking entirely (GroupTable does
  /// for every aggregate but MIN/MAX).
  void AddCell(const Bat& col, Oid o, bool with_minmax = true);
  /// Folds a whole column subset in (bulk path).
  void AddColumn(const Bat& col, const Candidates* cand);
  /// Combines another disjoint partial state.
  void Merge(const AggState& other);
  /// Combines `other` as if it were merged `times` times over — the
  /// product rule of delta pre-aggregation: when a per-key group on one
  /// join side pairs with `times` rows on the other side, every one of
  /// its rows appears in `times` join pairs. Sums and counts scale;
  /// MIN/MAX merge unscaled (repetition does not move extrema). Callers
  /// whose aggregate never reads the extrema (SUM/AVG/COUNT) pass
  /// `with_minmax = false` to skip the boxed-Value compares — this is the
  /// innermost loop of the delta pre-agg pairing.
  void ScaledMerge(const AggState& other, uint64_t times,
                   bool with_minmax = true);
  /// Extracts the final value for `kind` given the input column type.
  /// Empty input follows SQL: COUNT=0, SUM/AVG/MIN/MAX=NULL.
  Value Finalize(AggKind kind, TypeId input_type) const;
};

/// Scalar aggregate of `kind` over `col` restricted to `cand`.
/// For COUNT, `col` may be null (COUNT(*)): pass the row count via `cand`
/// or `domain_size`.
Result<Value> ScalarAgg(AggKind kind, const Bat* col, const Candidates* cand,
                        uint64_t domain_size);

}  // namespace dc::ops

#endif  // DATACELL_BAT_OPS_AGGREGATE_H_
