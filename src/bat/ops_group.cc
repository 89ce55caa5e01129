#include "bat/ops_group.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "bat/hash.h"

namespace dc::ops {

namespace {

/// Start of the per-row HashCombine chain over the key cells.
constexpr uint64_t kHashSeed = 0x9ae16a3b2f90404fULL;
/// What a NULL key cell contributes to its row's hash chain.
constexpr uint64_t kNullCellHash = 0x6a09e667f3bcc908ULL;

/// Hash of the non-NULL cell `r` of `col`.
uint64_t CellHash(const Bat& col, uint64_t r) {
  switch (col.type()) {
    case TypeId::kBool:
      return HashU64(col.BoolData()[r]);
    case TypeId::kI64:
    case TypeId::kTs:
      return HashI64(col.I64Data()[r]);
    case TypeId::kF64:
      return HashDouble(col.F64Data()[r]);
    case TypeId::kStr:
      return HashBytes(col.StrAt(r));
  }
  return 0;
}

/// Folds column `col` into the running row hashes `hs`.
void HashColumn(const Bat& col, std::vector<uint64_t>* hs) {
  uint64_t* h = hs->data();
  const uint64_t n = col.size();
  if (col.has_nulls()) {
    for (uint64_t r = 0; r < n; ++r) {
      h[r] = HashCombine(h[r],
                         col.IsNull(r) ? kNullCellHash : CellHash(col, r));
    }
    return;
  }
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
/// With `kNullable`, NULL equals NULL and nothing else, as SQL groups.
template <bool kNullable>
bool CellsEqual(const Bat& a, uint64_t i, const Bat& b, uint64_t j) {
  if constexpr (kNullable) {
    const bool a_null = a.IsNull(i);
    if (a_null || b.IsNull(j)) return a_null && b.IsNull(j);
  }
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
std::vector<const Bat*> F64Keys(const std::vector<const Bat*>& keys) {
  std::vector<const Bat*> f64;
  for (const Bat* k : keys) {
    if (k->type() == TypeId::kF64) f64.push_back(k);
  }
  return f64;
}

/// True when row `r`'s key tuple holds a NaN, so it matches no group. A
/// NULL cell is no NaN, whatever its payload.
bool KeyHasNaN(const std::vector<const Bat*>& f64, uint64_t r) {
  for (const Bat* k : f64) {
    if (std::isnan(k->F64Data()[r]) && !k->IsNull(r)) return true;
  }
  return false;
}

/// True when some column holds a NULL cell.
template <typename BatRef>
bool AnyNulls(const std::vector<BatRef>& cols) {
  return std::any_of(cols.begin(), cols.end(),
                     [](const auto& c) { return c->has_nulls(); });
}

/// Every NaN key hashes alike, yet each is a group of its own: salting its
/// hash with its new group id spreads those groups over the slot array
/// instead of piling them into one probe cluster.
uint64_t SaltNaN(uint64_t h, uint64_t new_group) {
  return HashCombine(h, HashU64(new_group));
}

/// True when group `g` of `mine` has the key tuple of row `r` of `theirs`.
template <bool kNullable>
bool RowEq(const std::vector<BatPtr>& mine, uint64_t g,
           const std::vector<const Bat*>& theirs, uint64_t r) {
  for (size_t k = 0; k < mine.size(); ++k) {
    if (!CellsEqual<kNullable>(*mine[k], g, *theirs[k], r)) return false;
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
  bool same = states_.size() == aggs.size();
  for (size_t a = 0; same && a < aggs.size(); ++a) {
    same = states_[a].kind() == aggs[a].first &&
           states_[a].arg_type() == aggs[a].second;
  }
  if (same) {  // keep the state columns' capacity
    for (AggColumn& st : states_) st.Resize(0);
  } else {
    states_.clear();
    for (const auto& [kind, type] : aggs) states_.emplace_back(kind, type);
  }
  keys_.clear();
  for (TypeId t : key_types_) keys_.push_back(Bat::MakeEmpty(t));
  counts_.clear();
  map_.Clear();
  if (key_types_.empty()) {  // scalar: the one group exists from the start
    counts_.push_back(0);
    ResizeStates();
  }
}

uint32_t GroupTable::AddGroup(size_t slot, uint64_t h) {
  counts_.push_back(0);
  return map_.Add(slot, h);
}

void GroupTable::ResizeStates() {
  for (AggColumn& st : states_) st.Resize(num_groups());
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

template <bool kNullable>
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
          return map_.hash(id) == h && RowEq<kNullable>(keys_, id, keys, r);
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

Status GroupTable::CheckValues(const std::vector<const Bat*>& values,
                               uint64_t n) const {
  if (values.size() != states_.size()) {
    return Status::InvalidArgument("GroupTable: value column count mismatch");
  }
  for (size_t a = 0; a < values.size(); ++a) {
    const Bat* v = values[a];
    if (v == nullptr) continue;
    if (v->size() != n) {
      return Status::InvalidArgument("GroupTable: value column size mismatch");
    }
    const TypeId want = states_[a].arg_type();
    if (states_[a].kind() != AggKind::kCount && v->type() != want &&
        !(StoredAsI64(v->type()) && StoredAsI64(want))) {
      return Status::InvalidArgument("GroupTable: value column type mismatch");
    }
  }
  return Status::OK();
}

Status GroupTable::AddRows(const std::vector<const Bat*>& keys,
                           const std::vector<const Bat*>& values) {
  if (key_types_.empty()) {
    return Status::InvalidArgument("GroupTable: no key columns");
  }
  if (keys.size() != key_types_.size()) {
    return Status::InvalidArgument("GroupTable: key column count mismatch");
  }
  const uint64_t n = keys[0]->size();
  for (size_t k = 0; k < keys.size(); ++k) {
    if (keys[k]->type() != key_types_[k] || keys[k]->size() != n) {
      return Status::InvalidArgument("GroupTable: key column mismatch");
    }
  }
  DC_RETURN_NOT_OK(CheckValues(values, n));
  if (n == 0) return Status::OK();

  std::vector<uint32_t> gids(n);
  if (AnyNulls(keys) || AnyNulls(keys_)) {
    // A NULL key (in the rows, or a NULL group already here) takes the
    // null-aware generic path; the typed probes compare payloads only.
    AssignGeneric<true>(keys, &gids);
  } else if (keys.size() == 1 && StoredAsI64(key_types_[0])) {
    AssignTyped(keys[0]->I64Data(), &gids);
  } else if (keys.size() == 1 && key_types_[0] == TypeId::kF64) {
    AssignTyped(keys[0]->F64Data(), &gids);
  } else {
    AssignGeneric<false>(keys, &gids);
  }

  for (uint64_t r = 0; r < n; ++r) ++counts_[gids[r]];
  ResizeStates();
  for (size_t a = 0; a < states_.size(); ++a) states_[a].Fold(values[a], gids);
  return Status::OK();
}

Status GroupTable::AddRows(uint64_t rows,
                           const std::vector<const Bat*>& values) {
  if (!key_types_.empty()) {
    return Status::InvalidArgument("GroupTable: key columns missing");
  }
  DC_RETURN_NOT_OK(CheckValues(values, rows));
  counts_[0] += rows;
  for (size_t a = 0; a < states_.size(); ++a) {
    states_[a].FoldAll(values[a], rows, 0);
  }
  return Status::OK();
}

Status GroupTable::Merge(const GroupTable& other) {
  if (other.num_groups() == 0) return Status::OK();
  bool same = other.key_types_ == key_types_ &&
              other.states_.size() == states_.size();
  for (size_t a = 0; same && a < states_.size(); ++a) {
    same = other.states_[a].kind() == states_[a].kind() &&
           other.states_[a].arg_type() == states_[a].arg_type();
  }
  if (!same) {
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
  // Where each group of `other` lands here; scalar tables map 0 to 0.
  std::vector<uint32_t> dst(other.num_groups(), 0);
  if (!key_types_.empty()) {
    std::vector<const Bat*> theirs;
    for (const BatPtr& k : other.keys_) theirs.push_back(k.get());
    const auto f64 = F64Keys(theirs);
    const bool nullable = AnyNulls(theirs) || AnyNulls(keys_);
    for (uint64_t og = 0; og < other.num_groups(); ++og) {
      // Re-salt a NaN group: ids of different tables' NaN groups collide.
      const uint64_t h = !f64.empty() && KeyHasNaN(f64, og)
                             ? SaltNaN(other.map_.hash(og), num_groups())
                             : other.map_.hash(og);
      size_t s;
      uint32_t g = map_.Find(
          h,
          [&](uint32_t id) {
            return map_.hash(id) == h &&
                   (nullable ? RowEq<true>(keys_, id, theirs, og)
                             : RowEq<false>(keys_, id, theirs, og));
          },
          &s);
      if (g == KeyMap::kNone) {
        for (size_t k = 0; k < keys_.size(); ++k) {
          keys_[k]->AppendRange(*theirs[k], og, og + 1);
        }
        g = AddGroup(s, h);
      }
      dst[og] = g;
    }
    ResizeStates();
  }
  for (uint64_t og = 0; og < other.num_groups(); ++og) {
    counts_[dst[og]] += other.counts_[og];
  }
  for (size_t a = 0; a < states_.size(); ++a) {
    states_[a].Merge(other.states_[a], dst);
  }
  return Status::OK();
}

Result<std::vector<BatPtr>> GroupTable::Finalize() const {
  const uint64_t n = num_groups();
  std::vector<BatPtr> out;
  for (const BatPtr& k : keys_) out.push_back(k->Slice(0, n));
  for (const AggColumn& st : states_) {
    DC_ASSIGN_OR_RETURN(BatPtr col, st.Finalize());
    out.push_back(std::move(col));
  }
  return out;
}

GroupTable GroupTable::ScalarFrom(const std::vector<AggColumn>& states,
                                  uint64_t g) {
  std::vector<std::pair<AggKind, TypeId>> layout;
  for (const AggColumn& st : states) {
    layout.emplace_back(st.kind(), st.arg_type());
  }
  GroupTable t({}, std::move(layout));
  const auto src = static_cast<uint32_t>(g);
  const uint32_t dst = 0;
  const uint64_t once = 1;
  for (size_t a = 0; a < states.size(); ++a) {
    t.states_[a].ScaledMerge(states[a], {&src, 1}, {&dst, 1}, {&once, 1});
  }
  return t;
}

size_t GroupTable::MemoryBytes() const {
  size_t total = counts_.capacity() * sizeof(uint64_t) + map_.MemoryBytes();
  for (const AggColumn& st : states_) total += st.MemoryBytes();
  for (const BatPtr& k : keys_) total += k->MemoryBytes();
  return total;
}

}  // namespace dc::ops
