#include "bat/ops_group.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "bat/hash.h"

namespace dc::ops {

namespace {

/// Start of the per-row HashCombine chain over the key cells.
constexpr uint64_t kHashSeed = 0x9ae16a3b2f90404fULL;

/// Folds column `col` into the running row hashes `hs`.
void HashColumn(const Bat& col, std::vector<uint64_t>* hs) {
  uint64_t* h = hs->data();
  const uint64_t n = col.size();
  switch (col.type()) {
    case TypeId::kBool: {
      const auto d = col.BoolData();
      for (uint64_t r = 0; r < n; ++r) h[r] = HashCombine(h[r], HashU64(d[r]));
      return;
    }
    case TypeId::kI64:
    case TypeId::kTs: {
      const auto d = col.I64Data();
      for (uint64_t r = 0; r < n; ++r) h[r] = HashCombine(h[r], HashI64(d[r]));
      return;
    }
    case TypeId::kF64: {
      const auto d = col.F64Data();
      for (uint64_t r = 0; r < n; ++r) {
        h[r] = HashCombine(h[r], HashDouble(d[r]));
      }
      return;
    }
    case TypeId::kStr:
      for (uint64_t r = 0; r < n; ++r) {
        h[r] = HashCombine(h[r], HashBytes(col.StrAt(r)));
      }
      return;
  }
}

/// Cell equality of a[i] and b[j] (same type): NaN != NaN, -0.0 == 0.0.
bool CellsEqual(const Bat& a, uint64_t i, const Bat& b, uint64_t j) {
  switch (a.type()) {
    case TypeId::kBool:
      return a.BoolData()[i] == b.BoolData()[j];
    case TypeId::kI64:
    case TypeId::kTs:
      return a.I64Data()[i] == b.I64Data()[j];
    case TypeId::kF64:
      return a.F64Data()[i] == b.F64Data()[j];
    case TypeId::kStr:
      return a.StrAt(i) == b.StrAt(j);
  }
  return false;
}

/// The f64 columns of a key tuple, the only ones that can hold a NaN.
std::vector<std::span<const double>> F64Keys(
    const std::vector<const Bat*>& keys) {
  std::vector<std::span<const double>> f64;
  for (const Bat* k : keys) {
    if (k->type() == TypeId::kF64) f64.push_back(k->F64Data());
  }
  return f64;
}

/// True when row `r`'s key tuple holds a NaN, so it matches no group.
bool KeyHasNaN(const std::vector<std::span<const double>>& f64, uint64_t r) {
  for (std::span<const double> d : f64) {
    if (std::isnan(d[r])) return true;
  }
  return false;
}

/// Every NaN key hashes alike, yet each is a group of its own: salting its
/// hash with its new group id spreads those groups over the slot array
/// instead of piling them into one probe cluster.
uint64_t SaltNaN(uint64_t h, uint64_t new_group) {
  return HashCombine(h, HashU64(new_group));
}

/// True when group `g` of `mine` has the key tuple of row `r` of `theirs`.
bool RowEq(const std::vector<BatPtr>& mine, uint64_t g,
           const std::vector<const Bat*>& theirs, uint64_t r) {
  for (size_t k = 0; k < mine.size(); ++k) {
    if (!CellsEqual(*mine[k], g, *theirs[k], r)) return false;
  }
  return true;
}

}  // namespace

GroupTable::GroupTable(std::vector<TypeId> key_types,
                       std::vector<std::pair<AggKind, TypeId>> aggs) {
  Reset(std::move(key_types), std::move(aggs));
}

void GroupTable::Reset(std::vector<TypeId> key_types,
                       std::vector<std::pair<AggKind, TypeId>> aggs) {
  key_types_ = std::move(key_types);
  aggs_ = std::move(aggs);
  minmax_.clear();
  for (const auto& [kind, type] : aggs_) {
    minmax_.push_back(kind == AggKind::kMin || kind == AggKind::kMax);
  }
  keys_.clear();
  for (TypeId t : key_types_) keys_.push_back(Bat::MakeEmpty(t));
  counts_.clear();
  states_.clear();
  map_.Clear();
}

uint32_t GroupTable::AddGroup(size_t slot, uint64_t h) {
  counts_.push_back(0);
  states_.resize(states_.size() + aggs_.size());
  return map_.Add(slot, h);
}

template <typename T>
void GroupTable::AssignTyped(std::span<const T> data,
                             std::vector<uint32_t>* gids) {
  Bat& key = *keys_[0];
  for (uint64_t r = 0; r < data.size(); ++r) {
    const T x = data[r];
    uint64_t h;
    const T* kd;  // re-read per row: appending a group may move it
    if constexpr (std::is_same_v<T, double>) {
      h = HashCombine(kHashSeed, HashDouble(x));
      if (std::isnan(x)) h = SaltNaN(h, num_groups());
      kd = key.F64Data().data();
    } else {
      h = HashCombine(kHashSeed, HashI64(x));
      kd = key.I64Data().data();
    }
    size_t s;
    uint32_t g = map_.Find(h, [&](uint32_t id) { return kd[id] == x; }, &s);
    if (g == KeyMap::kNone) {
      if constexpr (std::is_same_v<T, double>) {
        key.AppendF64(x);
      } else {
        key.AppendI64(x);
      }
      g = AddGroup(s, h);
    }
    (*gids)[r] = g;
  }
}

void GroupTable::AssignGeneric(const std::vector<const Bat*>& keys,
                               std::vector<uint32_t>* gids) {
  const uint64_t n = keys[0]->size();
  std::vector<uint64_t> hs(n, kHashSeed);
  for (const Bat* k : keys) HashColumn(*k, &hs);
  const auto f64 = F64Keys(keys);
  for (uint64_t r = 0; r < n; ++r) {
    const uint64_t h = !f64.empty() && KeyHasNaN(f64, r)
                           ? SaltNaN(hs[r], num_groups())
                           : hs[r];
    size_t s;
    uint32_t g = map_.Find(
        h,
        [&](uint32_t id) {
          return map_.hash(id) == h && RowEq(keys_, id, keys, r);
        },
        &s);
    if (g == KeyMap::kNone) {
      for (size_t k = 0; k < keys.size(); ++k) {
        keys_[k]->AppendRange(*keys[k], r, r + 1);
      }
      g = AddGroup(s, h);
    }
    (*gids)[r] = g;
  }
}

Status GroupTable::AddRows(const std::vector<const Bat*>& keys,
                           const std::vector<const Bat*>& values) {
  if (key_types_.empty()) {
    return Status::InvalidArgument("GroupTable: no key columns");
  }
  if (keys.size() != key_types_.size()) {
    return Status::InvalidArgument("GroupTable: key column count mismatch");
  }
  if (values.size() != aggs_.size()) {
    return Status::InvalidArgument("GroupTable: value column count mismatch");
  }
  const uint64_t n = keys[0]->size();
  for (size_t k = 0; k < keys.size(); ++k) {
    if (keys[k]->type() != key_types_[k] || keys[k]->size() != n) {
      return Status::InvalidArgument("GroupTable: key column mismatch");
    }
    if (keys[k]->has_nulls()) {
      return Status::Internal("GroupTable: NULL in a group key column");
    }
  }
  for (const Bat* v : values) {
    if (v != nullptr && v->size() != n) {
      return Status::InvalidArgument("GroupTable: value column size mismatch");
    }
  }
  if (n == 0) return Status::OK();

  std::vector<uint32_t> gids(n);
  if (keys.size() == 1 && StoredAsI64(key_types_[0])) {
    AssignTyped(keys[0]->I64Data(), &gids);
  } else if (keys.size() == 1 && key_types_[0] == TypeId::kF64) {
    AssignTyped(keys[0]->F64Data(), &gids);
  } else {
    AssignGeneric(keys, &gids);
  }

  for (uint64_t r = 0; r < n; ++r) ++counts_[gids[r]];
  const size_t nagg = aggs_.size();
  for (size_t a = 0; a < nagg; ++a) {
    AggState* st = states_.data() + a;
    const Bat* v = values[a];
    if (v == nullptr) {  // COUNT(*)
      for (uint64_t r = 0; r < n; ++r) ++st[gids[r] * nagg].count;
      continue;
    }
    const bool minmax = minmax_[a] != 0;
    for (uint64_t r = 0; r < n; ++r) st[gids[r] * nagg].AddCell(*v, r, minmax);
  }
  return Status::OK();
}

Status GroupTable::Merge(const GroupTable& other) {
  if (other.num_groups() == 0) return Status::OK();
  if (other.key_types_ != key_types_ || other.aggs_ != aggs_) {
    return Status::InvalidArgument("GroupTable::Merge: incompatible layout");
  }
  if (num_groups() == 0) {
    // Every group of `other` is new here, in its order: adopt them whole.
    for (size_t k = 0; k < keys_.size(); ++k) {
      keys_[k] = other.keys_[k]->Slice(0, other.num_groups());
    }
    counts_ = other.counts_;
    states_ = other.states_;
    map_.Assign(other.map_.hashes());
    return Status::OK();
  }
  std::vector<const Bat*> theirs;
  for (const BatPtr& k : other.keys_) theirs.push_back(k.get());
  const auto f64 = F64Keys(theirs);
  const size_t nagg = aggs_.size();
  for (uint64_t og = 0; og < other.num_groups(); ++og) {
    // Re-salt a NaN group: ids of different tables' NaN groups collide.
    const uint64_t h = !f64.empty() && KeyHasNaN(f64, og)
                           ? SaltNaN(other.map_.hash(og), num_groups())
                           : other.map_.hash(og);
    size_t s;
    uint32_t g = map_.Find(
        h,
        [&](uint32_t id) {
          return map_.hash(id) == h && RowEq(keys_, id, theirs, og);
        },
        &s);
    const AggState* src = other.group_states(og);
    if (g == KeyMap::kNone) {
      for (size_t k = 0; k < keys_.size(); ++k) {
        keys_[k]->AppendRange(*theirs[k], og, og + 1);
      }
      g = AddGroup(s, h);
      counts_[g] = other.counts_[og];
      std::copy(src, src + nagg, states_.begin() + g * nagg);
      continue;
    }
    counts_[g] += other.counts_[og];
    for (size_t a = 0; a < nagg; ++a) states_[g * nagg + a].Merge(src[a]);
  }
  return Status::OK();
}

Result<std::vector<BatPtr>> GroupTable::Finalize() const {
  const uint64_t n = num_groups();
  std::vector<BatPtr> out;
  for (const BatPtr& k : keys_) out.push_back(k->Slice(0, n));
  const size_t nagg = aggs_.size();
  for (size_t a = 0; a < nagg; ++a) {
    const auto [kind, type] = aggs_[a];
    DC_ASSIGN_OR_RETURN(TypeId ot, AggResultType(kind, type));
    BatPtr col = Bat::MakeEmpty(ot);
    col->Reserve(n);
    for (uint64_t g = 0; g < n; ++g) {
      col->AppendValue(states_[g * nagg + a].Finalize(kind, type));
    }
    out.push_back(std::move(col));
  }
  return out;
}

size_t GroupTable::MemoryBytes() const {
  size_t total = counts_.capacity() * sizeof(uint64_t) +
                 states_.capacity() * sizeof(AggState) + map_.MemoryBytes();
  for (const BatPtr& k : keys_) total += k->MemoryBytes();
  return total;
}

}  // namespace dc::ops
