// Copyright 2026 The DataCell Authors.
//
// Aggregation state: AggColumn, the flat, typed partial states of one
// aggregate over a table's groups. GroupTable (ops_group.h) keeps one per
// aggregate; the per-basic-window partials of the incremental path, their
// per-emission merge and the delta-join pre-aggregation all fold, merge
// and finalize through it (docs/INCREMENTAL.md).

#ifndef DATACELL_BAT_OPS_AGGREGATE_H_
#define DATACELL_BAT_OPS_AGGREGATE_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "util/result.h"

namespace dc::ops {

/// Supported aggregate functions.
enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

const char* AggKindName(AggKind k);

/// Result type of `kind` over a column of type `input` (COUNT->I64,
/// AVG->F64, SUM over I64->I64, ...). `input` is ignored for COUNT.
Result<TypeId> AggResultType(AggKind kind, TypeId input);

/// The order of f64 MIN/MAX: PostgreSQL's, where NaN equals NaN and sorts
/// above every number. It is a total order on the values, so extrema do
/// not depend on fold order, partial split or merge path.
inline bool F64Less(double a, double b) {
  return !std::isnan(a) && (std::isnan(b) || a < b);
}

/// Mergeable partial states of one aggregate, one per group, held as flat
/// typed columns chosen by (kind, argument type):
///
///   COUNT(*), COUNT(col)   count
///   SUM over i64/ts        count, i64 sum
///   SUM over f64, AVG      count, f64 sum (i64 cells are summed as f64)
///   MIN/MAX over i64/ts    count, i64 extremum
///   MIN/MAX over f64       count, f64 extremum (F64Less order)
///   MIN/MAX over str       count, string extremum
///
/// `count` is the number of non-NULL argument cells folded (every row for
/// COUNT(*)); NULL cells are skipped. A group with count 0 finalizes to
/// COUNT 0 and NULL SUM/AVG/MIN/MAX, the SQL empty-input convention. A
/// state of any subset of rows merges with that of a disjoint subset;
/// this is the unit DataCell caches per basic window.
class AggColumn {
 public:
  AggColumn(AggKind kind, TypeId arg);

  AggKind kind() const { return kind_; }
  TypeId arg_type() const { return arg_; }
  /// Number of groups.
  uint64_t size() const { return count_.size(); }
  /// Non-NULL cells folded into group `g`.
  uint64_t count(uint64_t g) const { return count_[g]; }

  /// Grows or shrinks to `groups` groups; new groups are empty.
  void Resize(uint64_t groups);
  /// Folds row r of `arg` into group `gids[r]`, for every row of `arg`
  /// (`gids` spans them). `arg` is null for COUNT(*).
  void Fold(const Bat* arg, std::span<const uint32_t> gids);
  /// Folds `rows` rows of `arg` (null for COUNT(*)) into group `g`.
  void FoldAll(const Bat* arg, uint64_t rows, uint64_t g);
  /// Merges each group og of `src` (same kind and argument type) into
  /// group `dst[og]`.
  void Merge(const AggColumn& src, std::span<const uint32_t> dst);
  /// The product rule of delta pre-aggregation, for each k: group
  /// `dst[k]` absorbs group `src_g[k]` of `src` as if merged `times[k]`
  /// times over. When a per-key group on one join side pairs with `times`
  /// rows on the other side, each of its rows appears in `times` join
  /// pairs: counts and sums scale, extrema merge unscaled.
  void ScaledMerge(const AggColumn& src, std::span<const uint32_t> src_g,
                   std::span<const uint32_t> dst,
                   std::span<const uint64_t> times);
  /// Adds `rows[k]` to the count of group `dst[k]`, for each k (COUNT(*)
  /// over the join pairs of the delta pre-aggregation).
  void AddCounts(std::span<const uint32_t> dst, std::span<const uint64_t> rows);
  /// Appends every group of `src` (same kind and argument type) as new
  /// groups.
  void AppendGroups(const AggColumn& src);
  /// Drops the first `n` groups.
  void DropHead(uint64_t n);
  /// One finalized cell per group, NULL where the group's count is 0.
  Result<BatPtr> Finalize() const;
  /// Bytes held.
  size_t MemoryBytes() const;

 private:
  /// Which state column next to `count_` this (kind, type) keeps.
  enum class Field : uint8_t { kNone, kISum, kDSum, kIExt, kDExt, kSExt };

  template <typename GidOf>
  void FoldRows(const Bat* arg, uint64_t rows, GidOf gid_of);
  /// Runs `drive(each)`, which calls `each(g, og, t)` to make group g
  /// absorb group og of `src` t times over (og non-empty, t > 0).
  template <typename Drive>
  void MergeEach(const AggColumn& src, Drive drive);
  bool IsMin() const { return kind_ == AggKind::kMin; }

  AggKind kind_;
  TypeId arg_;
  Field field_;
  std::vector<uint64_t> count_;
  std::vector<int64_t> isum_;
  std::vector<double> dsum_;
  std::vector<int64_t> iext_;
  std::vector<double> dext_;
  std::vector<std::string> sext_;
};

}  // namespace dc::ops

#endif  // DATACELL_BAT_OPS_AGGREGATE_H_
