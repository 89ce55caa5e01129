// Copyright 2026 The DataCell Authors.
//
// Logical types of the columnar kernel and the boxed Value used for
// literals, scalar aggregate results and row assembly at the edges.
//
// The kernel supports five logical types, mirroring the subset of MonetDB
// types the DataCell demo exercises:
//   BOOL  -- stored as uint8_t
//   I64   -- 64-bit signed integer
//   F64   -- double
//   STR   -- variable-length string (heap-backed, see string_heap.h)
//   TS    -- event timestamp, µs since epoch, stored as int64_t
//
// NULL support is deliberately narrow: a Value can be NULL (typed, no
// payload) and a Bat carries a lazy null bitmap, which is exactly what the
// SQL empty-window convention needs (scalar SUM/MIN/MAX/AVG over zero rows
// are NULL). NULLs do not participate in selections, joins, grouping or
// arithmetic — they are produced at aggregate finalization and flow to the
// emitted result columns (docs/INCREMENTAL.md "Known divergences"). Streams
// refuse NULL cells at ingest (Basket::RefuseNulls), so none reaches a
// query's input.

#ifndef DATACELL_BAT_TYPES_H_
#define DATACELL_BAT_TYPES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "util/result.h"

namespace dc {

/// Row identifier within a column ("void head" position in MonetDB terms).
using Oid = uint64_t;

/// Logical column/value type.
enum class TypeId : uint8_t { kBool = 0, kI64, kF64, kStr, kTs };

/// Stable lower-case name ("i64", "str", ...).
const char* TypeName(TypeId t);

/// Parses a type name as written in CREATE TABLE/STREAM ("int", "bigint",
/// "double", "float", "varchar", "string", "timestamp", "bool", ...).
Result<TypeId> TypeFromName(std::string_view name);

/// True for I64/F64/TS — types valid in arithmetic.
inline bool IsNumeric(TypeId t) {
  return t == TypeId::kI64 || t == TypeId::kF64 || t == TypeId::kTs;
}

/// Physical storage class of a logical type.
inline bool StoredAsI64(TypeId t) {
  return t == TypeId::kI64 || t == TypeId::kTs;
}

/// A boxed scalar value with its logical type.
class Value {
 public:
  Value() : type_(TypeId::kI64), repr_(int64_t{0}) {}

  static Value Bool(bool v) { return Value(TypeId::kBool, v); }
  static Value I64(int64_t v) { return Value(TypeId::kI64, v); }
  static Value F64(double v) { return Value(TypeId::kF64, v); }
  static Value Str(std::string v) {
    return Value(TypeId::kStr, std::move(v));
  }
  static Value Ts(int64_t micros) { return Value(TypeId::kTs, micros); }
  /// SQL NULL of logical type `t` (no payload; accessors abort).
  static Value Null(TypeId t) { return Value(t, std::monostate{}); }

  TypeId type() const { return type_; }
  bool is_null() const { return std::holds_alternative<std::monostate>(repr_); }

  bool AsBool() const { return std::get<bool>(repr_); }
  int64_t AsI64() const { return std::get<int64_t>(repr_); }
  double AsF64() const { return std::get<double>(repr_); }
  const std::string& AsStr() const { return std::get<std::string>(repr_); }

  /// Numeric value as double (I64/F64/TS); aborts on STR/BOOL.
  double NumericAsDouble() const;

  /// Coerces to `target` if a lossless / SQL-sanctioned conversion exists
  /// (I64->F64, I64<->TS, parses STR for any target). TypeError otherwise.
  Result<Value> CastTo(TypeId target) const;

  /// Three-way comparison; requires identical (or both-numeric) types.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const {
    return type_ == other.type_ && repr_ == other.repr_;
  }

  /// SQL-ish rendering for result printing ("42", "3.14", "abc", "NULL").
  std::string ToString() const;

 private:
  template <typename T>
  Value(TypeId t, T v) : type_(t), repr_(std::move(v)) {}

  TypeId type_;
  std::variant<std::monostate, bool, int64_t, double, std::string> repr_;
};

/// Comparison operators used by selects and expression evaluation.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);

/// Evaluates `a op b` given a three-way comparison result.
inline bool CmpHolds(CmpOp op, int cmp) {
  switch (op) {
    case CmpOp::kEq:
      return cmp == 0;
    case CmpOp::kNe:
      return cmp != 0;
    case CmpOp::kLt:
      return cmp < 0;
    case CmpOp::kLe:
      return cmp <= 0;
    case CmpOp::kGt:
      return cmp > 0;
    case CmpOp::kGe:
      return cmp >= 0;
  }
  return false;
}

/// Arithmetic operators for map (elementwise) evaluation.
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };

const char* ArithOpName(ArithOp op);

}  // namespace dc

#endif  // DATACELL_BAT_TYPES_H_
