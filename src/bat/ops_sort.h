// Copyright 2026 The DataCell Authors.
//
// Ordering: stable multi-key sort producing an oid permutation, consumed by
// ORDER BY / top-n (LIMIT after sort).

#ifndef DATACELL_BAT_OPS_SORT_H_
#define DATACELL_BAT_OPS_SORT_H_

#include <vector>

#include "bat/bat.h"
#include "bat/candidates.h"
#include "util/result.h"

namespace dc::ops {

/// One ORDER BY key.
struct SortKey {
  const Bat* col;
  bool ascending = true;
};

/// Returns the candidate oids permuted into sort order (stable; ties keep
/// input order). NULL sorts as the smallest value: first ascending, last
/// descending. `cand == nullptr` sorts the full column domain.
Result<std::vector<Oid>> SortOrder(const std::vector<SortKey>& keys,
                                   const Candidates* cand = nullptr);

/// One gather of a k-way merge: rows [begin, begin + len) of run `run`
/// are next in merged order. Emitting run-length slices instead of
/// (run, row) pairs lets consumers gather with one bulk AppendRange per
/// slice — with few runs and long ascending stretches the merge output
/// collapses to a handful of slices.
struct MergeSlice {
  int run = 0;
  Oid begin = 0;
  uint64_t len = 0;
};

/// K-way merge of already-sorted runs (incremental ORDER BY tails: each
/// per-basic-window partial is a sorted run; the finish merges them
/// instead of re-sorting the whole window). `runs[i]` holds run i's sort
/// key columns; all runs must share key arity, types, and directions.
/// Returns maximal run-length slices in merged order. Ties resolve to the
/// lower run index, then input order within a run, so merging the runs of
/// a partition equals a stable sort of their concatenation.
Result<std::vector<MergeSlice>> MergeSortedRuns(
    const std::vector<std::vector<SortKey>>& runs);

}  // namespace dc::ops

#endif  // DATACELL_BAT_OPS_SORT_H_
