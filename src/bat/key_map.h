// Copyright 2026 The DataCell Authors.
//
// KeyMap: the one open-addressing slot array of the hash kernels. It maps
// a key to a dense key id — 0, 1, 2, ... in first-insertion order — and
// backs both GroupTable (a key id is a group) and JoinHash (a key id owns
// a bucket chain of row positions). The caller keeps the keys, indexed by
// id, and supplies equality; the map keeps each id's hash and a
// power-of-two slot array of ids, probed linearly and grown past half
// load.

#ifndef DATACELL_BAT_KEY_MAP_H_
#define DATACELL_BAT_KEY_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dc::ops {

class KeyMap {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Drops every id. The slot array keeps its capacity, so a reused map
  /// does not reallocate it; a fresh map allocates none until its first
  /// Add.
  void Clear() {
    hashes_.clear();
    std::fill(slots_.begin(), slots_.end(), kNone);
  }

  /// Id of the key with hash `h` for which `eq(id)` holds, or kNone; then
  /// `*slot` is the empty slot where that key belongs (valid for one Add).
  template <typename Eq>
  uint32_t Find(uint64_t h, const Eq& eq, size_t* slot) const {
    if (slots_.empty()) {  // Add allocates the slots and places the key
      *slot = 0;
      return kNone;
    }
    const size_t mask = slots_.size() - 1;
    size_t i = h & mask;
    while (slots_[i] != kNone) {
      if (eq(slots_[i])) return slots_[i];
      i = (i + 1) & mask;
    }
    *slot = i;
    return kNone;
  }

  /// Gives a key with hash `h` the next id and puts it into `slot`, the
  /// empty slot the failed Find returned.
  uint32_t Add(size_t slot, uint64_t h) {
    if (slots_.empty()) {
      slots_.assign(kMinSlots, kNone);
      slot = h & (kMinSlots - 1);
    }
    const auto id = static_cast<uint32_t>(hashes_.size());
    hashes_.push_back(h);
    slots_[slot] = id;
    if (hashes_.size() * 2 > slots_.size()) Rehash(slots_.size() * 2);
    return id;
  }

  /// Replaces every id: key i of the caller's new key store gets id i and
  /// hash `hashes[i]`. The slot array is rebuilt at most half full.
  void Assign(std::vector<uint64_t> hashes) {
    hashes_ = std::move(hashes);
    Rehash(2 * hashes_.size());
  }

  uint32_t size() const { return static_cast<uint32_t>(hashes_.size()); }
  uint64_t hash(uint32_t id) const { return hashes_[id]; }
  const std::vector<uint64_t>& hashes() const { return hashes_; }

  /// Bytes held: the hashes and the slot array, by capacity.
  size_t MemoryBytes() const {
    return hashes_.capacity() * sizeof(uint64_t) +
           slots_.capacity() * sizeof(uint32_t);
  }

 private:
  static constexpr size_t kMinSlots = 16;

  /// Rebuilds the slot array with at least `min_slots` slots.
  void Rehash(size_t min_slots) {
    size_t cap = kMinSlots;
    while (cap < min_slots) cap <<= 1;
    slots_ = std::vector<uint32_t>(cap, kNone);
    const size_t mask = cap - 1;
    for (uint32_t id = 0; id < hashes_.size(); ++id) {
      size_t i = hashes_[id] & mask;
      while (slots_[i] != kNone) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  std::vector<uint64_t> hashes_;  ///< hash per id
  std::vector<uint32_t> slots_;   ///< id per slot, or kNone
};

}  // namespace dc::ops

#endif  // DATACELL_BAT_KEY_MAP_H_
