#include "bat/ops_join.h"

#include <algorithm>
#include <span>
#include <string_view>
#include <type_traits>

#include "bat/hash.h"
#include "util/string_util.h"

namespace dc::ops {

namespace {

// Key readers: row r of a column as a key of the join domain. `null(r)`
// is true for a NULL cell; over a column without NULLs it is a constant
// false, so those loops test nothing per row.
struct I64Reader {
  const int64_t* d;
  int64_t operator()(Oid r) const { return d[r]; }
  static constexpr bool null(Oid) { return false; }
};
struct F64Reader {
  const double* d;
  double operator()(Oid r) const { return d[r]; }
  static constexpr bool null(Oid) { return false; }
};
struct PromotedReader {  // an i64 column in the f64 domain
  const int64_t* d;
  double operator()(Oid r) const { return static_cast<double>(d[r]); }
  static constexpr bool null(Oid) { return false; }
};
struct StrReader {
  const Bat* b;
  std::string_view operator()(Oid r) const { return b->StrAt(r); }
  static constexpr bool null(Oid) { return false; }
};
template <typename Reader>
struct NullableReader : Reader {  // a column with a null bitmap
  std::span<const uint8_t> nulls;
  bool null(Oid r) const { return r < nulls.size() && nulls[r] != 0; }
};

/// Calls `fn(reader)` with the reader of `col` in `domain` (the caller has
/// checked that the column type belongs to the domain).
template <typename Fn>
void WithReader(TypeId domain, const Bat& col, Fn&& fn) {
  auto with = [&](auto read) {
    if (col.has_nulls()) {
      fn(NullableReader<decltype(read)>{{read}, col.NullFlags()});
    } else {
      fn(read);
    }
  };
  if (domain == TypeId::kStr) {
    with(StrReader{&col});
  } else if (domain == TypeId::kI64) {
    with(I64Reader{col.I64Data().data()});
  } else if (StoredAsI64(col.type())) {
    with(PromotedReader{col.I64Data().data()});
  } else {
    with(F64Reader{col.F64Data().data()});
  }
}

inline uint64_t KeyHash(int64_t x) { return HashI64(x); }
inline uint64_t KeyHash(double x) { return HashDouble(x); }  // -0.0 == 0.0
inline uint64_t KeyHash(std::string_view s) { return HashBytes(s); }

inline bool IsNaN(int64_t) { return false; }
inline bool IsNaN(double x) { return x != x; }
inline bool IsNaN(std::string_view) { return false; }

inline bool StoredEq(const Bat& keys, uint32_t id, int64_t x) {
  return keys.I64Data()[id] == x;
}
inline bool StoredEq(const Bat& keys, uint32_t id, double x) {
  return keys.F64Data()[id] == x;
}
inline bool StoredEq(const Bat& keys, uint32_t id, std::string_view x) {
  return keys.StrAt(id) == x;
}

inline void Store(Bat* keys, int64_t x) { keys->AppendI64(x); }
inline void Store(Bat* keys, double x) { keys->AppendF64(x); }
inline void Store(Bat* keys, std::string_view x) { keys->AppendStr(x); }

}  // namespace

Result<TypeId> JoinKeyDomain(TypeId l, TypeId r) {
  if (StoredAsI64(l) && StoredAsI64(r)) return TypeId::kI64;
  if (IsNumeric(l) && IsNumeric(r)) return TypeId::kF64;
  if (l == TypeId::kStr && r == TypeId::kStr) return TypeId::kStr;
  return Status::TypeError(
      StrFormat("cannot equi-join %s with %s", TypeName(l), TypeName(r)));
}

// --- JoinHash ----------------------------------------------------------------

JoinHash::JoinHash(TypeId key_domain) { Reset(key_domain); }

void JoinHash::Reset(TypeId key_domain) {
  domain_ = key_domain;
  map_.Clear();
  keys_ = Bat::MakeEmpty(key_domain);
  heads_.clear();
  links_.clear();
  live_from_ = 0;
}

Status JoinHash::CheckType(const Bat& col) const {
  switch (domain_) {
    case TypeId::kI64:
      if (StoredAsI64(col.type())) return Status::OK();
      return Status::TypeError("JoinHash: i64 domain needs i64 keys");
    case TypeId::kF64:
      if (IsNumeric(col.type())) return Status::OK();
      return Status::TypeError("JoinHash: f64 domain needs numeric keys");
    case TypeId::kStr:
      if (col.type() == TypeId::kStr) return Status::OK();
      return Status::TypeError("JoinHash: str domain needs str keys");
    default:
      return Status::TypeError(
          StrFormat("JoinHash: bad key domain %s", TypeName(domain_)));
  }
}

template <typename Reader>
void JoinHash::AppendTyped(const Reader& read, const Candidates& rows) {
  using T = std::invoke_result_t<Reader, Oid>;
  rows.ForEach([&](Oid r) {
    const auto pos = static_cast<uint32_t>(links_.size());
    links_.push_back(kNone);
    if (read.null(r)) return;  // matches nothing: chained nowhere
    const T x = read(r);
    if (IsNaN(x)) return;  // likewise
    const uint64_t h = KeyHash(x);
    size_t slot;
    const uint32_t k = map_.Find(
        h,
        [&](uint32_t id) {
          if constexpr (std::is_same_v<T, std::string_view>) {
            if (map_.hash(id) != h) return false;
          }
          return StoredEq(*keys_, id, x);
        },
        &slot);
    if (k == kNone) {
      Store(keys_.get(), x);
      map_.Add(slot, h);
      heads_.push_back(pos);
    } else {
      links_[pos] = heads_[k];
      heads_[k] = pos;
    }
  });
}

Status JoinHash::Append(const Bat& keys, uint64_t from, uint64_t to) {
  if (to > keys.size() || from > to) {
    return Status::InvalidArgument("JoinHash: append out of range");
  }
  return Append(keys, Candidates::Range(from, to - from));
}

Status JoinHash::Append(const Bat& keys, const Candidates& rows) {
  DC_RETURN_NOT_OK(CheckType(keys));
  if (!rows.empty() && rows.At(rows.size() - 1) >= keys.size()) {
    return Status::InvalidArgument("JoinHash: append out of range");
  }
  if (links_.size() + rows.size() >= kNone) {
    return Status::InvalidArgument("JoinHash: more than 2^32 - 2 positions");
  }
  links_.reserve(links_.size() + rows.size());
  WithReader(domain_, keys,
             [&](const auto& read) { AppendTyped(read, rows); });
  return Status::OK();
}

void JoinHash::EvictBelow(uint64_t pos) {
  live_from_ = std::max(live_from_, std::min(pos, next_pos()));
}

uint64_t JoinHash::Rebase() {
  const uint64_t shift = live_from_;
  if (shift == 0) return 0;
  const auto base = static_cast<uint32_t>(shift);
  // A key survives iff its chain head (its newest position) is live; a
  // live chain is cut where it reaches the dead positions.
  std::vector<Oid> kept;
  std::vector<uint64_t> hashes;
  std::vector<uint32_t> heads;
  for (uint32_t k = 0; k < map_.size(); ++k) {
    if (heads_[k] < base) continue;
    kept.push_back(k);
    hashes.push_back(map_.hash(k));
    heads.push_back(heads_[k] - base);
  }
  std::vector<uint32_t> links(links_.size() - shift);
  for (size_t p = shift; p < links_.size(); ++p) {
    const uint32_t next = links_[p];
    links[p - shift] = next == kNone || next < base ? kNone : next - base;
  }
  keys_ = keys_->Gather(Candidates::FromVector(std::move(kept)));
  map_.Assign(std::move(hashes));
  heads_ = std::move(heads);
  links_ = std::move(links);
  live_from_ = 0;
  return shift;
}

template <typename Reader>
void JoinHash::ProbeTyped(const Reader& read, const Candidates& rows,
                          std::vector<Oid>* probe_out,
                          std::vector<Oid>* pos_out, bool newest_first) const {
  using T = std::invoke_result_t<Reader, Oid>;
  const auto live_from = static_cast<uint32_t>(live_from_);
  rows.ForEach([&](Oid r) {
    if (read.null(r)) return;
    const T x = read(r);
    if (IsNaN(x)) return;
    const uint64_t h = KeyHash(x);
    size_t slot;
    const uint32_t k = map_.Find(
        h,
        [&](uint32_t id) {
          if constexpr (std::is_same_v<T, std::string_view>) {
            if (map_.hash(id) != h) return false;
          }
          return StoredEq(*keys_, id, x);
        },
        &slot);
    if (k == kNone) return;
    const size_t run = pos_out->size();
    // Newest first; the dead positions are the chain's tail.
    for (uint32_t p = heads_[k]; p != kNone && p >= live_from; p = links_[p]) {
      probe_out->push_back(r);
      pos_out->push_back(p);
    }
    if (!newest_first) std::reverse(pos_out->begin() + run, pos_out->end());
  });
}

Status JoinHash::Probe(const Bat& probe, uint64_t from, uint64_t to,
                       std::vector<Oid>* probe_out, std::vector<Oid>* pos_out,
                       bool newest_first) const {
  if (to > probe.size() || from > to) {
    return Status::InvalidArgument("JoinHash: probe out of range");
  }
  return Probe(probe, Candidates::Range(from, to - from), probe_out, pos_out,
               newest_first);
}

Status JoinHash::Probe(const Bat& probe, const Candidates& rows,
                       std::vector<Oid>* probe_out, std::vector<Oid>* pos_out,
                       bool newest_first) const {
  DC_RETURN_NOT_OK(CheckType(probe));
  if (!rows.empty() && rows.At(rows.size() - 1) >= probe.size()) {
    return Status::InvalidArgument("JoinHash: probe out of range");
  }
  if (map_.size() == 0) return Status::OK();
  WithReader(domain_, probe, [&](const auto& read) {
    ProbeTyped(read, rows, probe_out, pos_out, newest_first);
  });
  return Status::OK();
}

size_t JoinHash::MemoryBytes() const {
  return map_.MemoryBytes() + keys_->MemoryBytes() +
         (heads_.capacity() + links_.capacity()) * sizeof(uint32_t);
}

// --- Joins -------------------------------------------------------------------

Result<JoinResult> HashJoin(const Bat& left, const Bat& right,
                            const Candidates* lcand, const Candidates* rcand) {
  DC_ASSIGN_OR_RETURN(TypeId domain, JoinKeyDomain(left.type(), right.type()));
  JoinHash build(domain);
  DC_RETURN_NOT_OK(rcand != nullptr ? build.Append(right, *rcand)
                                    : build.Append(right, 0, right.size()));
  JoinResult out;
  DC_RETURN_NOT_OK(
      lcand != nullptr
          ? build.Probe(left, *lcand, &out.left, &out.right,
                        /*newest_first=*/true)
          : build.Probe(left, 0, left.size(), &out.left, &out.right,
                        /*newest_first=*/true));
  // Positions count the build rows; map them back to right row ids.
  if (rcand != nullptr) {
    for (Oid& o : out.right) o = rcand->At(o);
  }
  return out;
}

Result<JoinResult> IndexedDeltaJoin(const Bat& left, uint64_t left_old,
                                    const JoinHash& left_index,
                                    const Bat& right, uint64_t right_old,
                                    const JoinHash& right_index) {
  if (left_old > left.size() || right_old > right.size()) {
    return Status::InvalidArgument(
        "IndexedDeltaJoin: old split beyond column size");
  }
  JoinResult out;
  // retained_l ⋈ new_r: probe the left index with the new right keys.
  DC_RETURN_NOT_OK(left_index.Probe(right, right_old, right.size(),
                                    &out.right, &out.left));
  // new_l ⋈ retained_r: probe the right index with the new left keys.
  DC_RETURN_NOT_OK(right_index.Probe(left, left_old, left.size(), &out.left,
                                     &out.right));
  // new_l ⋈ new_r: both portions are one basic window; plain hash join.
  const Candidates l_new = Candidates::Range(left_old, left.size() - left_old);
  const Candidates r_new =
      Candidates::Range(right_old, right.size() - right_old);
  DC_ASSIGN_OR_RETURN(JoinResult nn, HashJoin(left, right, &l_new, &r_new));
  out.left.insert(out.left.end(), nn.left.begin(), nn.left.end());
  out.right.insert(out.right.end(), nn.right.begin(), nn.right.end());
  return out;
}

BatPtr FetchOids(const Bat& col, const std::vector<Oid>& oids) {
  auto out = std::make_shared<Bat>(col.type());
  out->Reserve(oids.size());
  switch (col.type()) {
    case TypeId::kBool: {
      auto data = col.BoolData();
      for (Oid o : oids) out->AppendBool(data[o] != 0);
      break;
    }
    case TypeId::kI64:
    case TypeId::kTs: {
      auto data = col.I64Data();
      for (Oid o : oids) out->AppendI64(data[o]);
      break;
    }
    case TypeId::kF64: {
      auto data = col.F64Data();
      for (Oid o : oids) out->AppendF64(data[o]);
      break;
    }
    case TypeId::kStr:
      for (Oid o : oids) out->AppendStr(col.StrAt(o));
      break;
  }
  if (col.has_nulls()) {
    std::vector<uint8_t> nulls(oids.size());
    for (size_t i = 0; i < oids.size(); ++i) nulls[i] = col.IsNull(oids[i]);
    out->SetNulls(nulls);
  }
  return out;
}

}  // namespace dc::ops
