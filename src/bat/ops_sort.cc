#include "bat/ops_sort.h"

#include <algorithm>
#include <queue>

namespace dc::ops {

namespace {

// Three-way comparison across two columns of the same type (rows of
// different sorted runs). SortOrder and MergeSortedRuns must order cells
// identically — the FULL == INCREMENTAL stable-merge invariant depends on
// it — so this is the single comparison routine for both. NULL is the
// smallest value (MonetDB's nil order): first ascending, last descending.
int CompareCell2(const Bat& ca, Oid a, const Bat& cb, Oid b) {
  if (ca.has_nulls() || cb.has_nulls()) {
    const bool na = ca.IsNull(a);
    const bool nb = cb.IsNull(b);
    if (na || nb) return static_cast<int>(nb) - static_cast<int>(na);
  }
  switch (ca.type()) {
    case TypeId::kBool: {
      const int x = ca.BoolData()[a];
      const int y = cb.BoolData()[b];
      return x - y;
    }
    case TypeId::kI64:
    case TypeId::kTs: {
      const int64_t x = ca.I64Data()[a];
      const int64_t y = cb.I64Data()[b];
      return x < y ? -1 : (x == y ? 0 : 1);
    }
    case TypeId::kF64: {
      const double x = ca.F64Data()[a];
      const double y = cb.F64Data()[b];
      return x < y ? -1 : (x == y ? 0 : 1);
    }
    case TypeId::kStr: {
      const std::string_view x = ca.StrAt(a);
      const std::string_view y = cb.StrAt(b);
      return x < y ? -1 : (x == y ? 0 : 1);
    }
  }
  return 0;
}

// Three-way comparison of two rows of one column.
int CompareCell(const Bat& col, Oid a, Oid b) {
  return CompareCell2(col, a, col, b);
}

}  // namespace

Result<std::vector<Oid>> SortOrder(const std::vector<SortKey>& keys,
                                   const Candidates* cand) {
  if (keys.empty()) {
    return Status::InvalidArgument("SortOrder requires at least one key");
  }
  const uint64_t domain = keys[0].col->size();
  for (const SortKey& k : keys) {
    if (k.col->size() != domain) {
      return Status::InvalidArgument("SortOrder: key size mismatch");
    }
  }
  std::vector<Oid> order;
  if (cand) {
    order = cand->ToVector();
  } else {
    order.resize(domain);
    for (uint64_t i = 0; i < domain; ++i) order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](Oid a, Oid b) {
    for (const SortKey& k : keys) {
      const int c = CompareCell(*k.col, a, b);
      if (c != 0) return k.ascending ? c < 0 : c > 0;
    }
    return false;
  });
  return order;
}

Result<std::vector<MergeSlice>> MergeSortedRuns(
    const std::vector<std::vector<SortKey>>& runs) {
  size_t arity = 0;
  for (const auto& keys : runs) {
    if (keys.empty()) {
      return Status::InvalidArgument("MergeSortedRuns: run without keys");
    }
    if (arity == 0) arity = keys.size();
    if (keys.size() != arity) {
      return Status::InvalidArgument("MergeSortedRuns: key arity mismatch");
    }
  }
  // head[r] = next unconsumed row of run r. `less(a, b)` compares the
  // heads of two runs; equal keys fall back to the run index, which keeps
  // the merge equivalent to a stable sort of the concatenation.
  std::vector<Oid> head(runs.size(), 0);
  auto less = [&](int ra, int rb) {
    for (size_t k = 0; k < arity; ++k) {
      const SortKey& ka = runs[ra][k];
      const int c = CompareCell2(*ka.col, head[ra], *runs[rb][k].col,
                                 head[rb]);
      if (c != 0) return ka.ascending ? c < 0 : c > 0;
    }
    return ra < rb;
  };
  // Min-heap of run indices (std::priority_queue is a max-heap, so invert).
  auto heap_cmp = [&](int ra, int rb) { return less(rb, ra); };
  std::priority_queue<int, std::vector<int>, decltype(heap_cmp)> heap(
      heap_cmp);
  for (size_t r = 0; r < runs.size(); ++r) {
    if (runs[r][0].col->size() > 0) heap.push(static_cast<int>(r));
  }
  // Emit maximal slices: after popping the minimal run, keep consuming
  // from it while its head still precedes the next-best run's head.
  // `less(t, r)` applies the same tie rule (lower run index first), so
  // slice boundaries land exactly where the pairwise merge would switch
  // runs — batching changes the gather granularity, not the order.
  std::vector<MergeSlice> out;
  while (!heap.empty()) {
    const int r = heap.top();
    heap.pop();
    const Oid begin = head[r];
    const uint64_t n = runs[r][0].col->size();
    if (heap.empty()) {
      out.push_back(MergeSlice{r, begin, n - begin});
      break;
    }
    const int t = heap.top();
    do {
      ++head[r];
    } while (head[r] < n && !less(t, r));
    out.push_back(MergeSlice{r, begin, head[r] - begin});
    if (head[r] < n) heap.push(r);
  }
  return out;
}

}  // namespace dc::ops
