#include "bat/ops_select.h"

#include "util/string_util.h"

namespace dc::ops {

namespace {

// Scans either the candidate subset or the whole column, pushing qualifying
// oids. `pred(oid)` decides membership.
template <typename Pred>
Candidates ScanWith(uint64_t col_size, const Candidates* cand, Pred&& pred) {
  std::vector<Oid> out;
  if (cand != nullptr) {
    out.reserve(cand->size());
    cand->ForEach([&](Oid o) {
      if (pred(o)) out.push_back(o);
    });
  } else {
    out.reserve(col_size / 4 + 8);
    for (Oid o = 0; o < col_size; ++o) {
      if (pred(o)) out.push_back(o);
    }
  }
  return Candidates::FromVector(std::move(out));
}

// ScanWith over the rows of `a` (and `b`, when given) where no operand is
// NULL: SQL comparisons with NULL are never true. Columns without NULLs
// keep the plain loop.
template <typename Pred>
Candidates ScanNonNull(const Bat& a, const Bat* b, const Candidates* cand,
                       Pred&& pred) {
  if (!a.has_nulls() && (b == nullptr || !b->has_nulls())) {
    return ScanWith(a.size(), cand, pred);
  }
  const std::span<const uint8_t> na = a.NullFlags();
  const std::span<const uint8_t> nb =
      b != nullptr ? b->NullFlags() : std::span<const uint8_t>{};
  auto null_at = [](std::span<const uint8_t> flags, Oid o) {
    return o < flags.size() && flags[o] != 0;
  };
  return ScanWith(a.size(), cand, [&](Oid o) {
    return !null_at(na, o) && !null_at(nb, o) && pred(o);
  });
}

template <typename T, typename Cmp>
Candidates ScanTyped(const Bat& col, std::span<const T> data,
                     const Candidates* cand, Cmp&& cmp) {
  return ScanNonNull(col, nullptr, cand,
                     [&](Oid o) { return cmp(data[o]); });
}

}  // namespace

Result<Candidates> SelectCmp(const Bat& col, CmpOp op, const Value& literal,
                             const Candidates* cand) {
  switch (col.type()) {
    case TypeId::kI64:
    case TypeId::kTs: {
      if (literal.type() == TypeId::kF64) {
        const double v = literal.AsF64();
        return ScanTyped<int64_t>(col, col.I64Data(), cand, [&](int64_t x) {
          const double dx = static_cast<double>(x);
          return CmpHolds(op, dx < v ? -1 : (dx == v ? 0 : 1));
        });
      }
      DC_ASSIGN_OR_RETURN(Value lit, literal.CastTo(TypeId::kI64));
      const int64_t v = lit.AsI64();
      switch (op) {
        case CmpOp::kEq:
          return ScanTyped<int64_t>(col, col.I64Data(), cand,
                                    [&](int64_t x) { return x == v; });
        case CmpOp::kNe:
          return ScanTyped<int64_t>(col, col.I64Data(), cand,
                                    [&](int64_t x) { return x != v; });
        case CmpOp::kLt:
          return ScanTyped<int64_t>(col, col.I64Data(), cand,
                                    [&](int64_t x) { return x < v; });
        case CmpOp::kLe:
          return ScanTyped<int64_t>(col, col.I64Data(), cand,
                                    [&](int64_t x) { return x <= v; });
        case CmpOp::kGt:
          return ScanTyped<int64_t>(col, col.I64Data(), cand,
                                    [&](int64_t x) { return x > v; });
        case CmpOp::kGe:
          return ScanTyped<int64_t>(col, col.I64Data(), cand,
                                    [&](int64_t x) { return x >= v; });
      }
      break;
    }
    case TypeId::kF64: {
      if (!IsNumeric(literal.type())) {
        return Status::TypeError("f64 select needs a numeric literal");
      }
      const double v = literal.NumericAsDouble();
      return ScanTyped<double>(col, col.F64Data(), cand, [&](double x) {
        return CmpHolds(op, x < v ? -1 : (x == v ? 0 : 1));
      });
    }
    case TypeId::kStr: {
      if (literal.type() != TypeId::kStr) {
        return Status::TypeError("str select needs a string literal");
      }
      const std::string& v = literal.AsStr();
      return ScanNonNull(col, nullptr, cand, [&](Oid o) {
        const std::string_view x = col.StrAt(o);
        const int c = x < v ? -1 : (x == v ? 0 : 1);
        return CmpHolds(op, c);
      });
    }
    case TypeId::kBool: {
      if (literal.type() != TypeId::kBool) {
        return Status::TypeError("bool select needs a boolean literal");
      }
      const uint8_t v = literal.AsBool() ? 1 : 0;
      auto data = col.BoolData();
      return ScanNonNull(col, nullptr, cand, [&](Oid o) {
        return CmpHolds(op, static_cast<int>(data[o]) - static_cast<int>(v));
      });
    }
  }
  return Status::Internal("SelectCmp: unhandled type");
}

Result<Candidates> SelectRange(const Bat& col, const Value& lo, bool lo_incl,
                               const Value& hi, bool hi_incl,
                               const Candidates* cand) {
  switch (col.type()) {
    case TypeId::kI64:
    case TypeId::kTs: {
      DC_ASSIGN_OR_RETURN(Value lov, lo.CastTo(TypeId::kI64));
      DC_ASSIGN_OR_RETURN(Value hiv, hi.CastTo(TypeId::kI64));
      const int64_t l = lov.AsI64();
      const int64_t h = hiv.AsI64();
      return ScanTyped<int64_t>(col, col.I64Data(), cand, [&](int64_t x) {
        return (lo_incl ? x >= l : x > l) && (hi_incl ? x <= h : x < h);
      });
    }
    case TypeId::kF64: {
      if (!IsNumeric(lo.type()) || !IsNumeric(hi.type())) {
        return Status::TypeError("f64 range needs numeric bounds");
      }
      const double l = lo.NumericAsDouble();
      const double h = hi.NumericAsDouble();
      return ScanTyped<double>(col, col.F64Data(), cand, [&](double x) {
        return (lo_incl ? x >= l : x > l) && (hi_incl ? x <= h : x < h);
      });
    }
    case TypeId::kStr: {
      if (lo.type() != TypeId::kStr || hi.type() != TypeId::kStr) {
        return Status::TypeError("str range needs string bounds");
      }
      const std::string& l = lo.AsStr();
      const std::string& h = hi.AsStr();
      return ScanNonNull(col, nullptr, cand, [&](Oid o) {
        const std::string_view x = col.StrAt(o);
        return (lo_incl ? x >= l : x > l) && (hi_incl ? x <= h : x < h);
      });
    }
    case TypeId::kBool:
      return Status::TypeError("range select on bool column");
  }
  return Status::Internal("SelectRange: unhandled type");
}

Result<Candidates> SelectCmpCol(const Bat& a, CmpOp op, const Bat& b,
                                const Candidates* cand) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument(
        StrFormat("SelectCmpCol: size mismatch %llu vs %llu",
                  static_cast<unsigned long long>(a.size()),
                  static_cast<unsigned long long>(b.size())));
  }
  const bool a_i = StoredAsI64(a.type());
  const bool b_i = StoredAsI64(b.type());
  if (a_i && b_i) {
    auto da = a.I64Data();
    auto db = b.I64Data();
    return ScanNonNull(a, &b, cand, [&](Oid o) {
      return CmpHolds(op, da[o] < db[o] ? -1 : (da[o] == db[o] ? 0 : 1));
    });
  }
  if (IsNumeric(a.type()) && IsNumeric(b.type())) {
    auto get = [](const Bat& col, Oid o) {
      return StoredAsI64(col.type())
                 ? static_cast<double>(col.I64Data()[o])
                 : col.F64Data()[o];
    };
    return ScanNonNull(a, &b, cand, [&](Oid o) {
      const double x = get(a, o);
      const double y = get(b, o);
      return CmpHolds(op, x < y ? -1 : (x == y ? 0 : 1));
    });
  }
  if (a.type() == TypeId::kStr && b.type() == TypeId::kStr) {
    return ScanNonNull(a, &b, cand, [&](Oid o) {
      const std::string_view x = a.StrAt(o);
      const std::string_view y = b.StrAt(o);
      return CmpHolds(op, x < y ? -1 : (x == y ? 0 : 1));
    });
  }
  return Status::TypeError(StrFormat("cannot compare %s with %s",
                                     TypeName(a.type()), TypeName(b.type())));
}

Result<Candidates> SelectTrue(const Bat& col, const Candidates* cand) {
  if (col.type() != TypeId::kBool) {
    return Status::TypeError("SelectTrue expects a bool column");
  }
  auto data = col.BoolData();
  return ScanWith(col.size(), cand, [&](Oid o) { return data[o] != 0; });
}

}  // namespace dc::ops
