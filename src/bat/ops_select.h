// Copyright 2026 The DataCell Authors.
//
// Bulk selection operators: the entry point of late tuple reconstruction.
// A select scans one column (optionally restricted by an input candidate
// list) and produces the sorted candidate list of qualifying rows. A
// comparison with a NULL cell never holds, so no comparison selects one.

#ifndef DATACELL_BAT_OPS_SELECT_H_
#define DATACELL_BAT_OPS_SELECT_H_

#include "bat/bat.h"
#include "bat/candidates.h"
#include "util/result.h"

namespace dc::ops {

/// Rows where `col[i] cmp literal` holds. `cand` restricts the scan; pass
/// nullptr for the whole column. TypeError if the literal is not comparable
/// with the column type.
Result<Candidates> SelectCmp(const Bat& col, CmpOp op, const Value& literal,
                             const Candidates* cand = nullptr);

/// Rows where `lo <(=) col[i] <(=) hi` (both bounds required; use SelectCmp
/// for one-sided ranges). Fast path for BETWEEN / window predicates.
Result<Candidates> SelectRange(const Bat& col, const Value& lo, bool lo_incl,
                               const Value& hi, bool hi_incl,
                               const Candidates* cand = nullptr);

/// Rows where `a[i] cmp b[i]` holds (column vs column, equal sizes).
Result<Candidates> SelectCmpCol(const Bat& a, CmpOp op, const Bat& b,
                                const Candidates* cand = nullptr);

/// Rows where a BOOL column is true.
Result<Candidates> SelectTrue(const Bat& col,
                              const Candidates* cand = nullptr);

}  // namespace dc::ops

#endif  // DATACELL_BAT_OPS_SELECT_H_
