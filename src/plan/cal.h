// Copyright 2026 The DataCell Authors.
//
// CAL ("column algebra language"): the physical plan representation.
// A compiled query stage is a flat instruction program over virtual
// registers, mirroring MonetDB's MAL — each instruction is one bulk
// operator call that materializes its whole result. Register contents are
// columns (Bat), candidate lists, or join oid lists.
//
// EXPLAIN prints these programs; the continuous rewriter's output is a
// visibly different program (basket binds, window slices), reproducing the
// demo's "how query plans transform" pane.

#ifndef DATACELL_PLAN_CAL_H_
#define DATACELL_PLAN_CAL_H_

#include <string>
#include <vector>

#include "bat/types.h"

namespace dc::cal {

enum class OpCode {
  kBindCol,        // V := scan.col(rel, col)
  kBindCand,       // C := scan.candidates(rel)
  kSelectCmp,      // C' := algebra.select(V, op, lit ; C?)
  kSelectCmpCol,   // C' := algebra.select(Va, op, Vb ; C?)
  kSelectTrue,     // C' := algebra.select_true(Vbool ; C?)
  kCandAnd,        // C := algebra.intersect(Ca, Cb)
  kCandOr,         // C := algebra.union(Ca, Cb)
  kCandDiff,       // C := algebra.difference(Cdomain, Ca)
  kGather,         // V' := algebra.project(V ; C)
  kJoin,           // (OL, OR) := algebra.join(Vl, Vr)
  kDeltaJoin,      // (OL, OR) := datacell.delta_join(Vl, Vr) — new pairs only
  kFetch,          // V' := algebra.fetch(V, OL)
  kMapArith,       // V := batcalc.arith(Va, op, Vb)
  kMapArithConst,  // V := batcalc.arith(Va, op, lit)
  kMapCmp,         // V := batcalc.cmp(Va, op, Vb)
  kMapCmpConst,    // V := batcalc.cmp(Va, op, lit)
  kMapAnd,         // V := batcalc.and(Va, Vb)
  kMapOr,          // V := batcalc.or(Va, Vb)
  kMapNot,         // V := batcalc.not(Va)
  kMapCast,        // V := batcalc.cast(Va, type)
  kConstCol,       // V := batcalc.const(lit, count_like=Va)
};

/// One instruction. Register operands are indices into the program's
/// register file; unused operands are -1.
struct Instr {
  OpCode op;
  int dst = -1;
  int dst2 = -1;            // kJoin: right oid list
  int a = -1;
  int b = -1;
  int c = -1;               // optional candidate operand
  Value imm;                // literal operand
  CmpOp cmp = CmpOp::kEq;
  ArithOp arith = ArithOp::kAdd;
  TypeId cast_type = TypeId::kI64;
  bool lit_left = false;    // kMapArithConst: literal is the left operand
  int rel = -1;             // kBindCol/kBindCand; joins: left input
  int rel2 = -1;            // joins: right input (its index is probed)
  int col = -1;             // kBindCol
  std::string note;         // column name etc., for rendering

  std::string ToString() const;
};

/// How to compute the row count of the final stage domain (scalar COUNT(*)
/// needs it even when no output column exists).
enum class DomainKind { kNone, kColumn, kCand, kOidList };

/// A straight-line stage program.
struct Program {
  int num_regs = 0;
  std::vector<Instr> instrs;
  std::vector<int> output_regs;
  std::vector<std::string> output_names;
  int domain_reg = -1;
  DomainKind domain_kind = DomainKind::kNone;

  int NewReg() { return num_regs++; }

  /// MAL-like listing. `bind_name` styles input binds ("scan" for
  /// one-time/table inputs, "basket" for continuous stream inputs).
  std::string ToString(const std::string& bind_name = "scan") const;
};

}  // namespace dc::cal

#endif  // DATACELL_PLAN_CAL_H_
