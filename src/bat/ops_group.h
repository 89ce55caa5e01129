// Copyright 2026 The DataCell Authors.
//
// Grouped and scalar aggregation: GroupTable, the one grouping kernel.
// One-time GROUP BY and scalar aggregates, FULL re-evaluation, the
// per-basic-window partials of the incremental path, their per-emission
// merge and the delta-join pre-aggregation all run on it. Its states are
// flat typed columns (AggColumn, ops_aggregate.h), never boxed Values.

#ifndef DATACELL_BAT_OPS_GROUP_H_
#define DATACELL_BAT_OPS_GROUP_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bat/bat.h"
#include "bat/key_map.h"
#include "bat/ops_aggregate.h"
#include "util/result.h"

namespace dc::ops {

/// Columnar hash table of groups with one AggColumn of flat, typed states
/// per aggregate. It keeps the distinct key tuples as key BATs in
/// first-appearance order, a row count per group, the state columns and a
/// KeyMap from key tuple to group id holding each group's hash (stored at
/// creation, so a const table can be merged from concurrently). Keys hash
/// with the HashCombine chain over their cells; one fixed-width key
/// (i64/ts/f64) takes a typed probe.
///
/// A table without key columns is scalar: it holds exactly one group, even
/// over no rows, so a scalar aggregate emits its count-0 row and merges
/// through the same path as a grouped one.
///
/// Key equality is cell equality: each NaN key is its own group, -0.0 and
/// 0.0 share one, and all NULL cells of a key column share one (SQL
/// grouping); a NULL group's output key cell is NULL. Only a table whose
/// rows or groups hold a NULL key pays for the NULL checks. A NaN key's
/// hash is salted with its group id, so NaN groups spread over the slot
/// array rather than forming one probe cluster. Folds run rows in order, then merged tables in order, so float
/// sums are reproducible. Aggregates skip NULL argument cells (see
/// AggColumn); f64 MIN/MAX follow F64Less, so NaN wins MAX and loses MIN
/// on every path.
class GroupTable {
 public:
  GroupTable() = default;
  /// `key_types`: types of the group-by key columns (none: scalar).
  /// `aggs`: (kind, argument type) per aggregate.
  GroupTable(std::vector<TypeId> key_types,
             std::vector<std::pair<AggKind, TypeId>> aggs);

  /// Drops all groups and switches to a new layout; the key map keeps its
  /// capacity, so a reused table does not reallocate it.
  void Reset(std::vector<TypeId> key_types,
             std::vector<std::pair<AggKind, TypeId>> aggs);

  /// Folds rows [0, n): `keys[k]` is the k-th key column and `values[a]`
  /// the a-th aggregate's argument column (null for COUNT(*)). NULL key
  /// cells (table columns; streams refuse NULLs at ingest) group
  /// together.
  Status AddRows(const std::vector<const Bat*>& keys,
                 const std::vector<const Bat*>& values);
  /// Scalar tables: folds `rows` rows of `values` into the one group.
  Status AddRows(uint64_t rows, const std::vector<const Bat*>& values);

  /// Folds `other` (same layout) in: its groups in their order, states
  /// merged column at a time. Never mutates `other`.
  Status Merge(const GroupTable& other);

  /// Key columns followed by one finalized column per aggregate, one row
  /// per group in first-appearance order.
  Result<std::vector<BatPtr>> Finalize() const;

  /// A scalar table holding group `g` of `states` (the delta
  /// pre-aggregation's per-expiry accumulators).
  static GroupTable ScalarFrom(const std::vector<AggColumn>& states,
                               uint64_t g);

  uint64_t num_groups() const { return counts_.size(); }
  size_t num_aggs() const { return states_.size(); }
  /// The k-th key column: row g is group g's key cell.
  const Bat& key(size_t k) const { return *keys_[k]; }
  /// Rows folded into each group.
  const std::vector<uint64_t>& counts() const { return counts_; }
  /// One state column per aggregate, row g for group g.
  const std::vector<AggColumn>& states() const { return states_; }

  /// Bytes held: key BATs, counts, state columns and the key map.
  size_t MemoryBytes() const;

 private:
  /// Appends a group with hash `h` (keys appended by the caller) into
  /// `slot`, the empty slot a failed KeyMap::Find returned. The state
  /// columns grow once per AddRows/Merge, not per group.
  uint32_t AddGroup(size_t slot, uint64_t h);
  /// Grows every state column to num_groups().
  void ResizeStates();
  /// Row-at-a-time grouping for several keys, a bool/str key, or (with
  /// kNullable) keys that may hold NULL.
  template <bool kNullable>
  void AssignGeneric(const std::vector<const Bat*>& keys,
                     std::vector<uint32_t>* gids);
  template <typename T>
  void AssignTyped(std::span<const T> data, std::vector<uint32_t>* gids);
  /// Checks `values` against the aggregates for `n` rows.
  Status CheckValues(const std::vector<const Bat*>& values, uint64_t n) const;

  std::vector<TypeId> key_types_;
  std::vector<BatPtr> keys_;
  std::vector<uint64_t> counts_;
  std::vector<AggColumn> states_;
  KeyMap map_;  ///< key tuple -> group id, with each group's hash
};

}  // namespace dc::ops

#endif  // DATACELL_BAT_OPS_GROUP_H_
