// Copyright 2026 The DataCell Authors.
//
// Grouped aggregation: GroupTable, the one grouping kernel. One-time
// GROUP BY, FULL re-evaluation, the per-basic-window partials of the
// incremental path, their per-emission merge and the delta-join
// pre-aggregation all run on it.

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

/// Columnar hash table of groups with one flat AggState per (group,
/// aggregate). It keeps the distinct key tuples as key BATs in
/// first-appearance order, a row count per group, the states with stride
/// num_aggs(), and a KeyMap from key tuple to group id holding each
/// group's hash (stored at creation, so a const table can be merged from
/// concurrently). Keys hash with the HashCombine chain over their cells;
/// one fixed-width key (i64/ts/f64) takes a typed probe.
///
/// Key equality is cell equality: each NaN key is its own group, and -0.0
/// and 0.0 share one. A NaN key's hash is salted with its group id, so
/// NaN groups spread over the slot array rather than forming one probe
/// cluster. Folds run rows in order, then merged tables in
/// order, so float sums are reproducible. MIN/MAX extrema are tracked only
/// for MIN/MAX aggregates.
class GroupTable {
 public:
  GroupTable() = default;
  /// `key_types`: types of the group-by key columns (at least one).
  /// `aggs`: (kind, argument type) per aggregate.
  GroupTable(std::vector<TypeId> key_types,
             std::vector<std::pair<AggKind, TypeId>> aggs);

  /// Drops all groups and switches to a new layout; the key map keeps its
  /// capacity, so a reused table does not reallocate it.
  void Reset(std::vector<TypeId> key_types,
             std::vector<std::pair<AggKind, TypeId>> aggs);

  /// Folds rows [0, n): `keys[k]` is the k-th key column and `values[a]`
  /// the a-th aggregate's argument column (null for COUNT(*)). A key
  /// column with a null bitmap is refused with Status::Internal: NULLs
  /// never reach grouping (streams refuse them at ingest).
  Status AddRows(const std::vector<const Bat*>& keys,
                 const std::vector<const Bat*>& values);

  /// Folds `other` (same layout) in: its groups in their order, states
  /// merged with AggState::Merge. Never mutates `other`.
  Status Merge(const GroupTable& other);

  /// Key columns followed by one finalized column per aggregate, one row
  /// per group in first-appearance order.
  Result<std::vector<BatPtr>> Finalize() const;

  uint64_t num_groups() const { return counts_.size(); }
  size_t num_aggs() const { return aggs_.size(); }
  /// The k-th key column: row g is group g's key cell.
  const Bat& key(size_t k) const { return *keys_[k]; }
  /// Rows folded into each group.
  const std::vector<uint64_t>& counts() const { return counts_; }
  /// Group g's num_aggs() states.
  const AggState* group_states(uint64_t g) const {
    return states_.data() + g * aggs_.size();
  }
  const std::vector<AggState>& states() const { return states_; }

  /// Bytes held: key BATs, counts, states and the key map.
  size_t MemoryBytes() const;

 private:
  /// Appends a group with hash `h` (keys appended by the caller) into
  /// `slot`, the empty slot a failed KeyMap::Find returned.
  uint32_t AddGroup(size_t slot, uint64_t h);
  /// Row-at-a-time grouping for several keys or a bool/str key.
  void AssignGeneric(const std::vector<const Bat*>& keys,
                     std::vector<uint32_t>* gids);
  template <typename T>
  void AssignTyped(std::span<const T> data, std::vector<uint32_t>* gids);

  std::vector<TypeId> key_types_;
  std::vector<std::pair<AggKind, TypeId>> aggs_;
  std::vector<char> minmax_;  ///< per aggregate: tracks extrema
  std::vector<BatPtr> keys_;
  std::vector<uint64_t> counts_;
  std::vector<AggState> states_;
  KeyMap map_;  ///< key tuple -> group id, with each group's hash
};

}  // namespace dc::ops

#endif  // DATACELL_BAT_OPS_GROUP_H_
