#include "bat/ops_aggregate.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <string_view>
#include <type_traits>

#include "util/string_util.h"

namespace dc::ops {

const char* AggKindName(AggKind k) {
  switch (k) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
  }
  return "?";
}

Result<TypeId> AggResultType(AggKind kind, TypeId input) {
  switch (kind) {
    case AggKind::kCount:
      return TypeId::kI64;
    case AggKind::kAvg:
      if (!IsNumeric(input)) return Status::TypeError("AVG needs numeric");
      return TypeId::kF64;
    case AggKind::kSum:
      if (!IsNumeric(input)) return Status::TypeError("SUM needs numeric");
      return input == TypeId::kF64 ? TypeId::kF64 : TypeId::kI64;
    case AggKind::kMin:
    case AggKind::kMax:
      if (input == TypeId::kBool) {
        return Status::TypeError("MIN/MAX over bool");
      }
      return input;
  }
  return Status::Internal("AggResultType");
}

namespace {

/// Calls `body(r)` for each row r < `rows` of `arg` whose cell is not NULL.
template <typename Body>
void ForEachValid(const Bat& arg, uint64_t rows, Body body) {
  const std::span<const uint8_t> nulls = arg.NullFlags();
  // The bitmap may end early: rows past its end are non-NULL.
  const uint64_t flagged = std::min<uint64_t>(rows, nulls.size());
  for (uint64_t r = 0; r < flagged; ++r) {
    if (nulls[r] == 0) body(r);
  }
  for (uint64_t r = flagged; r < rows; ++r) body(r);
}

/// The i64 extremum after `ext` meets `x`. An empty group's extremum is
/// the identity of its direction (INT64_MAX for MIN, INT64_MIN for MAX),
/// so no first-cell test is needed and the update compiles to a
/// conditional move: whether a cell wins is data-dependent.
template <bool kMin>
int64_t Extend(int64_t ext, int64_t x) {
  return kMin ? std::min(ext, x) : std::max(ext, x);
}

/// The f64 and string extrema of a group that held `seen` cells so far,
/// after meeting `x`. They take the first cell as is, so a NaN keeps its
/// payload (F64Less has no identity for MIN that does).
template <bool kMin>
double Extend(double ext, double x, uint64_t seen) {
  return seen == 0 || (kMin ? F64Less(x, ext) : F64Less(ext, x)) ? x : ext;
}
template <bool kMin>
void ExtendStr(std::string& ext, std::string_view x, uint64_t seen) {
  if (seen == 0 || (kMin ? x < ext : ext < x)) ext.assign(x);
}

/// Calls `f(std::true_type)` for MIN and `f(std::false_type)` for MAX, so
/// the extremum loops are compiled once per direction.
template <typename F>
void ByDirection(bool is_min, F f) {
  if (is_min) {
    f(std::true_type{});
  } else {
    f(std::false_type{});
  }
}

/// `col`, NULL where `count` is 0.
BatPtr WithNulls(BatPtr col, const std::vector<uint64_t>& count) {
  if (std::find(count.begin(), count.end(), 0) == count.end()) return col;
  std::vector<uint8_t> nulls(count.size());
  for (size_t g = 0; g < count.size(); ++g) nulls[g] = count[g] == 0;
  col->SetNulls(nulls);
  return col;
}

}  // namespace

AggColumn::AggColumn(AggKind kind, TypeId arg) : kind_(kind), arg_(arg) {
  switch (kind) {
    case AggKind::kCount:
      field_ = Field::kNone;
      break;
    case AggKind::kSum:
      field_ = StoredAsI64(arg) ? Field::kISum : Field::kDSum;
      break;
    case AggKind::kAvg:
      field_ = Field::kDSum;
      break;
    case AggKind::kMin:
    case AggKind::kMax:
      field_ = StoredAsI64(arg)         ? Field::kIExt
               : arg == TypeId::kF64    ? Field::kDExt
               : arg == TypeId::kStr    ? Field::kSExt
                                        : Field::kNone;
      break;
  }
}

void AggColumn::Resize(uint64_t groups) {
  count_.resize(groups);
  switch (field_) {
    case Field::kNone:
      return;
    case Field::kISum:
      isum_.resize(groups);
      return;
    case Field::kDSum:
      dsum_.resize(groups);
      return;
    case Field::kIExt:
      iext_.resize(groups, IsMin() ? std::numeric_limits<int64_t>::max()
                                   : std::numeric_limits<int64_t>::min());
      return;
    case Field::kDExt:
      dext_.resize(groups);
      return;
    case Field::kSExt:
      sext_.resize(groups);
      return;
  }
}

template <typename GidOf>
void AggColumn::FoldRows(const Bat* arg, uint64_t rows, GidOf gid_of) {
  uint64_t* cnt = count_.data();
  if (arg == nullptr) {  // COUNT(*)
    for (uint64_t r = 0; r < rows; ++r) ++cnt[gid_of(r)];
    return;
  }
  const bool is_min = IsMin();
  switch (field_) {
    case Field::kNone:
      ForEachValid(*arg, rows, [&](uint64_t r) { ++cnt[gid_of(r)]; });
      return;
    case Field::kISum: {
      const int64_t* d = arg->I64Data().data();
      int64_t* sum = isum_.data();
      ForEachValid(*arg, rows, [&](uint64_t r) {
        const uint32_t g = gid_of(r);
        ++cnt[g];
        sum[g] += d[r];
      });
      return;
    }
    case Field::kDSum: {
      double* sum = dsum_.data();
      if (StoredAsI64(arg->type())) {  // AVG over i64/ts
        const int64_t* d = arg->I64Data().data();
        ForEachValid(*arg, rows, [&](uint64_t r) {
          const uint32_t g = gid_of(r);
          ++cnt[g];
          sum[g] += static_cast<double>(d[r]);
        });
        return;
      }
      const double* d = arg->F64Data().data();
      ForEachValid(*arg, rows, [&](uint64_t r) {
        const uint32_t g = gid_of(r);
        ++cnt[g];
        sum[g] += d[r];
      });
      return;
    }
    case Field::kIExt: {
      const int64_t* d = arg->I64Data().data();
      int64_t* ext = iext_.data();
      return ByDirection(is_min, [&](auto dir) {
        ForEachValid(*arg, rows, [&](uint64_t r) {
          const uint32_t g = gid_of(r);
          ++cnt[g];
          ext[g] = Extend<decltype(dir)::value>(ext[g], d[r]);
        });
      });
    }
    case Field::kDExt: {
      const double* d = arg->F64Data().data();
      double* ext = dext_.data();
      return ByDirection(is_min, [&](auto dir) {
        ForEachValid(*arg, rows, [&](uint64_t r) {
          const uint32_t g = gid_of(r);
          ext[g] = Extend<decltype(dir)::value>(ext[g], d[r], cnt[g]++);
        });
      });
    }
    case Field::kSExt: {
      std::string* ext = sext_.data();
      return ByDirection(is_min, [&](auto dir) {
        ForEachValid(*arg, rows, [&](uint64_t r) {
          const uint32_t g = gid_of(r);
          ExtendStr<decltype(dir)::value>(ext[g], arg->StrAt(r), cnt[g]++);
        });
      });
    }
  }
}

void AggColumn::Fold(const Bat* arg, std::span<const uint32_t> gids) {
  const uint32_t* gid = gids.data();
  FoldRows(arg, gids.size(), [gid](uint64_t r) { return gid[r]; });
}

void AggColumn::FoldAll(const Bat* arg, uint64_t rows, uint64_t g) {
  const auto gid = static_cast<uint32_t>(g);
  FoldRows(arg, rows, [gid](uint64_t) { return gid; });
}

template <typename Drive>
void AggColumn::MergeEach(const AggColumn& src, Drive drive) {
  uint64_t* cnt = count_.data();
  const uint64_t* scnt = src.count_.data();
  const bool is_min = IsMin();
  // `absorb(g, og, t)` folds the state fields; the count follows it, so an
  // extremum sees whether group g held any cell before.
  auto run = [&](auto absorb) {
    drive([&](uint32_t g, uint64_t og, uint64_t t) {
      absorb(g, og, t);
      cnt[g] += scnt[og] * t;
    });
  };
  switch (field_) {
    case Field::kNone:
      return run([](uint32_t, uint64_t, uint64_t) {});
    case Field::kISum:
      return run([&](uint32_t g, uint64_t og, uint64_t t) {
        isum_[g] += src.isum_[og] * static_cast<int64_t>(t);
      });
    case Field::kDSum:
      return run([&](uint32_t g, uint64_t og, uint64_t t) {
        dsum_[g] += src.dsum_[og] * static_cast<double>(t);
      });
    case Field::kIExt:
      return ByDirection(is_min, [&](auto dir) {
        run([&](uint32_t g, uint64_t og, uint64_t) {
          iext_[g] = Extend<decltype(dir)::value>(iext_[g], src.iext_[og]);
        });
      });
    case Field::kDExt:
      return ByDirection(is_min, [&](auto dir) {
        run([&](uint32_t g, uint64_t og, uint64_t) {
          dext_[g] =
              Extend<decltype(dir)::value>(dext_[g], src.dext_[og], cnt[g]);
        });
      });
    case Field::kSExt:
      return ByDirection(is_min, [&](auto dir) {
        run([&](uint32_t g, uint64_t og, uint64_t) {
          ExtendStr<decltype(dir)::value>(sext_[g], src.sext_[og], cnt[g]);
        });
      });
  }
}

void AggColumn::Merge(const AggColumn& src, std::span<const uint32_t> dst) {
  const uint64_t* scnt = src.count_.data();
  MergeEach(src, [&](auto each) {
    for (uint64_t og = 0; og < src.size(); ++og) {
      if (scnt[og] != 0) each(dst[og], og, 1);
    }
  });
}

void AggColumn::ScaledMerge(const AggColumn& src,
                            std::span<const uint32_t> src_g,
                            std::span<const uint32_t> dst,
                            std::span<const uint64_t> times) {
  const uint64_t* scnt = src.count_.data();
  MergeEach(src, [&](auto each) {
    for (size_t k = 0; k < dst.size(); ++k) {
      if (times[k] == 0 || scnt[src_g[k]] == 0) continue;
      each(dst[k], src_g[k], times[k]);
    }
  });
}

void AggColumn::AddCounts(std::span<const uint32_t> dst,
                          std::span<const uint64_t> rows) {
  for (size_t k = 0; k < dst.size(); ++k) count_[dst[k]] += rows[k];
}

void AggColumn::AppendGroups(const AggColumn& src) {
  auto append = [](auto& mine, const auto& theirs) {
    mine.insert(mine.end(), theirs.begin(), theirs.end());
  };
  append(count_, src.count_);
  switch (field_) {
    case Field::kNone:
      return;
    case Field::kISum:
      return append(isum_, src.isum_);
    case Field::kDSum:
      return append(dsum_, src.dsum_);
    case Field::kIExt:
      return append(iext_, src.iext_);
    case Field::kDExt:
      return append(dext_, src.dext_);
    case Field::kSExt:
      return append(sext_, src.sext_);
  }
}

void AggColumn::DropHead(uint64_t n) {
  auto drop = [n](auto& v) {
    v.erase(v.begin(), v.begin() + static_cast<int64_t>(n));
  };
  drop(count_);
  switch (field_) {
    case Field::kNone:
      return;
    case Field::kISum:
      return drop(isum_);
    case Field::kDSum:
      return drop(dsum_);
    case Field::kIExt:
      return drop(iext_);
    case Field::kDExt:
      return drop(dext_);
    case Field::kSExt:
      return drop(sext_);
  }
}

Result<BatPtr> AggColumn::Finalize() const {
  DC_ASSIGN_OR_RETURN(TypeId out, AggResultType(kind_, arg_));
  const uint64_t n = size();
  if (kind_ == AggKind::kCount) {
    return Bat::MakeI64(std::vector<int64_t>(count_.begin(), count_.end()));
  }
  switch (field_) {
    case Field::kISum:
      return WithNulls(Bat::MakeI64(isum_), count_);
    case Field::kDSum: {
      if (kind_ == AggKind::kSum) return WithNulls(Bat::MakeF64(dsum_), count_);
      std::vector<double> avg(n);
      for (uint64_t g = 0; g < n; ++g) {
        avg[g] = count_[g] == 0 ? 0.0
                                : dsum_[g] / static_cast<double>(count_[g]);
      }
      return WithNulls(Bat::MakeF64(std::move(avg)), count_);
    }
    case Field::kIExt:
      return WithNulls(
          out == TypeId::kTs ? Bat::MakeTs(iext_) : Bat::MakeI64(iext_),
          count_);
    case Field::kDExt:
      return WithNulls(Bat::MakeF64(dext_), count_);
    case Field::kSExt:
      return WithNulls(Bat::MakeStr(sext_), count_);
    case Field::kNone:
      break;
  }
  return Status::Internal(StrFormat("AggColumn: no state for %s over %s",
                                    AggKindName(kind_), TypeName(arg_)));
}

size_t AggColumn::MemoryBytes() const {
  size_t total = count_.capacity() * sizeof(uint64_t) +
                 isum_.capacity() * sizeof(int64_t) +
                 dsum_.capacity() * sizeof(double) +
                 iext_.capacity() * sizeof(int64_t) +
                 dext_.capacity() * sizeof(double) +
                 sext_.capacity() * sizeof(std::string);
  for (const std::string& s : sext_) {
    // A string owns a heap block unless its characters sit in the
    // small-string buffer inside the object itself.
    const auto* self = reinterpret_cast<const char*>(&s);
    const std::less<const char*> before;
    if (before(s.data(), self) || !before(s.data(), self + sizeof(s))) {
      total += s.capacity() + 1;
    }
  }
  return total;
}

}  // namespace dc::ops
