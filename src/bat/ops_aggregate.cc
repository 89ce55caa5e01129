#include "bat/ops_aggregate.h"

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

void AggState::Add(const Value& v) {
  ++count;
  switch (v.type()) {
    case TypeId::kI64:
    case TypeId::kTs:
      isum += v.AsI64();
      dsum += static_cast<double>(v.AsI64());
      break;
    case TypeId::kF64:
      dsum += v.AsF64();
      break;
    default:
      break;
  }
  if (!has_minmax) {
    min = v;
    max = v;
    has_minmax = true;
  } else {
    if (v.Compare(min) < 0) min = v;
    if (v.Compare(max) > 0) max = v;
  }
}

void AggState::AddCell(const Bat& col, Oid o, bool with_minmax) {
  switch (col.type()) {
    case TypeId::kI64:
    case TypeId::kTs: {
      const int64_t x = col.I64Data()[o];
      ++count;
      isum += x;
      dsum += static_cast<double>(x);
      if (!with_minmax) return;
      if (!has_minmax) {
        min = col.type() == TypeId::kTs ? Value::Ts(x) : Value::I64(x);
        max = min;
        has_minmax = true;
      } else {
        if (x < min.AsI64()) {
          min = col.type() == TypeId::kTs ? Value::Ts(x) : Value::I64(x);
        }
        if (x > max.AsI64()) {
          max = col.type() == TypeId::kTs ? Value::Ts(x) : Value::I64(x);
        }
      }
      return;
    }
    case TypeId::kF64: {
      const double x = col.F64Data()[o];
      ++count;
      dsum += x;
      if (!with_minmax) return;
      if (!has_minmax) {
        min = Value::F64(x);
        max = Value::F64(x);
        has_minmax = true;
      } else {
        // Add()'s Value::Compare order: a NaN is never a new minimum,
        // and anything follows a NaN maximum.
        if (x < min.AsF64()) min = Value::F64(x);
        if (!(x <= max.AsF64())) max = Value::F64(x);
      }
      return;
    }
    default:
      if (!with_minmax) {  // STR/BOOL feed only the count
        ++count;
        return;
      }
      Add(col.GetValue(o));
      return;
  }
}

void AggState::AddColumn(const Bat& col, const Candidates* cand) {
  auto add_i64 = [&](int64_t x) {
    ++count;
    isum += x;
    dsum += static_cast<double>(x);
    if (!has_minmax) {
      min = col.type() == TypeId::kTs ? Value::Ts(x) : Value::I64(x);
      max = min;
      has_minmax = true;
    } else {
      if (x < min.AsI64()) {
        min = col.type() == TypeId::kTs ? Value::Ts(x) : Value::I64(x);
      }
      if (x > max.AsI64()) {
        max = col.type() == TypeId::kTs ? Value::Ts(x) : Value::I64(x);
      }
    }
  };
  switch (col.type()) {
    case TypeId::kI64:
    case TypeId::kTs: {
      auto data = col.I64Data();
      if (cand) {
        cand->ForEach([&](Oid o) { add_i64(data[o]); });
      } else {
        for (int64_t x : data) add_i64(x);
      }
      break;
    }
    case TypeId::kF64: {
      auto data = col.F64Data();
      auto add = [&](double x) {
        ++count;
        dsum += x;
        if (!has_minmax) {
          min = Value::F64(x);
          max = Value::F64(x);
          has_minmax = true;
        } else {
          if (x < min.AsF64()) min = Value::F64(x);
          if (x > max.AsF64()) max = Value::F64(x);
        }
      };
      if (cand) {
        cand->ForEach([&](Oid o) { add(data[o]); });
      } else {
        for (double x : data) add(x);
      }
      break;
    }
    case TypeId::kStr: {
      auto add = [&](Oid o) { Add(Value::Str(std::string(col.StrAt(o)))); };
      if (cand) {
        cand->ForEach(add);
      } else {
        for (Oid o = 0; o < col.size(); ++o) add(o);
      }
      break;
    }
    case TypeId::kBool: {
      auto data = col.BoolData();
      auto add = [&](Oid o) {
        ++count;
        isum += data[o] ? 1 : 0;
        dsum += data[o] ? 1.0 : 0.0;
      };
      if (cand) {
        cand->ForEach(add);
      } else {
        for (Oid o = 0; o < col.size(); ++o) add(o);
      }
      break;
    }
  }
}

void AggState::Merge(const AggState& other) {
  count += other.count;
  isum += other.isum;
  dsum += other.dsum;
  if (other.has_minmax) {
    if (!has_minmax) {
      min = other.min;
      max = other.max;
      has_minmax = true;
    } else {
      if (other.min.Compare(min) < 0) min = other.min;
      if (other.max.Compare(max) > 0) max = other.max;
    }
  }
}

void AggState::ScaledMerge(const AggState& other, uint64_t times,
                           bool with_minmax) {
  if (times == 0 || other.count == 0) return;
  count += other.count * times;
  isum += other.isum * static_cast<int64_t>(times);
  dsum += other.dsum * static_cast<double>(times);
  if (with_minmax && other.has_minmax) {
    if (!has_minmax) {
      min = other.min;
      max = other.max;
      has_minmax = true;
    } else {
      if (other.min.Compare(min) < 0) min = other.min;
      if (other.max.Compare(max) > 0) max = other.max;
    }
  }
}

// SQL empty-input conventions: COUNT over zero rows is 0; SUM, AVG, MIN
// and MAX over zero rows are NULL (typed to the aggregate's result type).
Value AggState::Finalize(AggKind kind, TypeId input_type) const {
  switch (kind) {
    case AggKind::kCount:
      return Value::I64(static_cast<int64_t>(count));
    case AggKind::kSum:
      if (count == 0) {
        return Value::Null(input_type == TypeId::kF64 ? TypeId::kF64
                                                      : TypeId::kI64);
      }
      if (input_type == TypeId::kF64) return Value::F64(dsum);
      return Value::I64(isum);
    case AggKind::kAvg:
      if (count == 0) return Value::Null(TypeId::kF64);
      return Value::F64(dsum / static_cast<double>(count));
    case AggKind::kMin:
      return has_minmax ? min : Value::Null(input_type);
    case AggKind::kMax:
      return has_minmax ? max : Value::Null(input_type);
  }
  return Value::Null(input_type);
}

Result<Value> ScalarAgg(AggKind kind, const Bat* col, const Candidates* cand,
                        uint64_t domain_size) {
  if (kind == AggKind::kCount) {
    return Value::I64(
        static_cast<int64_t>(cand ? cand->size() : domain_size));
  }
  if (col == nullptr) {
    return Status::InvalidArgument("aggregate requires a value column");
  }
  DC_RETURN_NOT_OK(AggResultType(kind, col->type()).status());
  AggState state;
  state.AddColumn(*col, cand);
  return state.Finalize(kind, col->type());
}

}  // namespace dc::ops
