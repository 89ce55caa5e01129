// Copyright 2026 The DataCell Authors.
//
// Equi-join over two columns. Returns matching oid pairs (the MonetDB
// "join index"); callers fetch payload columns from either side with the
// returned oid lists (late reconstruction). Every equi-join runs on one
// hash kernel, JoinHash: one-time and per-window joins build it per call,
// a stream⋈table window node builds it once per table version, and the
// delta join keeps one per side over its retained rows.

#ifndef DATACELL_BAT_OPS_JOIN_H_
#define DATACELL_BAT_OPS_JOIN_H_

#include <vector>

#include "bat/bat.h"
#include "bat/candidates.h"
#include "bat/key_map.h"
#include "util/result.h"

namespace dc::ops {

/// Pairs of matching row ids; left[i] matches right[i]. HashJoin orders
/// them by left oid (probe order), ties newest build row first (chain
/// order).
struct JoinResult {
  std::vector<Oid> left;
  std::vector<Oid> right;

  uint64_t size() const { return left.size(); }
};

/// Equality domain two join key types meet in: both i64-like -> kI64,
/// both numeric -> kF64 (i64 promoted to double), str/str -> kStr.
Result<TypeId> JoinKeyDomain(TypeId l, TypeId r);

/// Join hash table over one key column (MonetDB's hash with bucket and
/// link arrays). A KeyMap gives each distinct key a dense key id; each key
/// id heads a chain of its positions and each position links to the next
/// older position with the same key, so a chain runs newest first.
///
/// Positions are dense append order: rows appended by one Append call get
/// the next positions in the order given, so a caller that appends the
/// same rows to a rolling concatenation can read a position as a row id
/// there. The table also rolls: EvictBelow hides a position prefix from
/// Probe (a suffix of every chain, where a probe stops) and Rebase
/// reclaims it, dropping the keys left without a live position.
///
/// Key equality is the domain's: in kF64, i64 keys are promoted to double,
/// -0.0 equals 0.0 and NaN matches nothing (NaN keys are never chained).
/// String keys are copied into the table, so the source column may change
/// after Append.
class JoinHash {
 public:
  /// `key_domain`: kI64, kF64 or kStr (see JoinKeyDomain).
  explicit JoinHash(TypeId key_domain = TypeId::kI64);

  /// Drops all entries and switches the key domain.
  void Reset(TypeId key_domain);

  TypeId key_domain() const { return domain_; }

  /// Appends rows [from, to) of `keys` as positions
  /// [next_pos(), next_pos() + to - from).
  Status Append(const Bat& keys, uint64_t from, uint64_t to);
  /// Appends the candidate rows of `keys`, in order, as the next positions.
  Status Append(const Bat& keys, const Candidates& rows);

  /// Marks every position below `pos` dead. Probe skips dead positions;
  /// Rebase reclaims them.
  void EvictBelow(uint64_t pos);

  /// Erases the dead positions and the keys left without a live one, and
  /// shifts the live positions down by the eviction threshold; returns
  /// that threshold (the rows the owner drops from the front of its
  /// rolling concatenation in the same step).
  uint64_t Rebase();

  /// For every probe row i in [from, to) and every live position p with
  /// an equal key, appends i to `probe_out` and p to `pos_out`: probe rows
  /// in order and, per probe row, positions ascending — or descending
  /// (chain order) with `newest_first`. Cost: O(to - from + matches).
  Status Probe(const Bat& probe, uint64_t from, uint64_t to,
               std::vector<Oid>* probe_out, std::vector<Oid>* pos_out,
               bool newest_first = false) const;
  /// As above, over the candidate rows of `probe`.
  Status Probe(const Bat& probe, const Candidates& rows,
               std::vector<Oid>* probe_out, std::vector<Oid>* pos_out,
               bool newest_first = false) const;

  /// Next position Append would assign (== positions since the last
  /// Rebase or Reset).
  uint64_t next_pos() const { return links_.size(); }
  /// Positions below this are dead.
  uint64_t live_from() const { return live_from_; }
  uint64_t live_entries() const { return next_pos() - live_from_; }
  uint64_t dead_entries() const { return live_from_; }
  /// Distinct keys held (those of dead positions too, until Rebase).
  uint64_t num_keys() const { return map_.size(); }

  /// Bytes held: the key map (hashes, slots by capacity), the key store,
  /// the chain heads and the links.
  size_t MemoryBytes() const;

 private:
  static constexpr uint32_t kNone = KeyMap::kNone;

  template <typename Reader>
  void AppendTyped(const Reader& read, const Candidates& rows);
  template <typename Reader>
  void ProbeTyped(const Reader& read, const Candidates& rows,
                  std::vector<Oid>* probe_out, std::vector<Oid>* pos_out,
                  bool newest_first) const;
  /// TypeError unless `col` can be read in this table's domain.
  Status CheckType(const Bat& col) const;

  TypeId domain_;
  KeyMap map_;
  BatPtr keys_;                  ///< key per key id, typed by the domain
  std::vector<uint32_t> heads_;  ///< newest position per key id
  std::vector<uint32_t> links_;  ///< next older position with the same key
  uint64_t live_from_ = 0;
};

/// Inner hash equi-join: builds a JoinHash over `right` (restricted to
/// `rcand`) and probes it with `left` (restricted to `lcand`). Key types
/// must meet in a JoinKeyDomain.
Result<JoinResult> HashJoin(const Bat& left, const Bat& right,
                            const Candidates* lcand = nullptr,
                            const Candidates* rcand = nullptr);

/// Delta equi-join for incremental sliding windows. Each side is the full
/// window key column laid out as [retained ; new], split at `left_old` /
/// `right_old`; each side's retained rows are covered by a JoinHash in
/// the sides' JoinKeyDomain (new rows must NOT be indexed yet). Returns
/// exactly the pairs of HashJoin(left, right) that involve at least one
/// new row, in another order: retained⋈new from two probes with only the
/// new keys, then new⋈new from a hash join over the new portions. Retained rows an index has
/// evicted (expired basic windows awaiting a trim) are skipped, so the
/// physical retained prefix may contain dead rows. Per-emission cost is
/// O(new rows + result pairs).
Result<JoinResult> IndexedDeltaJoin(const Bat& left, uint64_t left_old,
                                    const JoinHash& left_index,
                                    const Bat& right, uint64_t right_old,
                                    const JoinHash& right_index);

/// Materializes `col[oids[i]]` for every i — payload fetch through a join
/// index (oids may repeat; unlike Candidates they need not be sorted).
/// NULL rows stay NULL.
BatPtr FetchOids(const Bat& col, const std::vector<Oid>& oids);

}  // namespace dc::ops

#endif  // DATACELL_BAT_OPS_JOIN_H_
