#include "plan/compiler.h"

#include <functional>
#include <map>
#include <set>

#include "bat/ops_join.h"
#include "util/string_util.h"

namespace dc::plan {

namespace {

using cal::Instr;
using cal::OpCode;
using cal::Program;

CmpOp FlipCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return CmpOp::kEq;
    case CmpOp::kNe:
      return CmpOp::kNe;
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
  }
  return op;
}

/// Column environment for expression emission: resolves (rel, col) to a
/// register, and provides a register whose length equals the current row
/// domain (for constant columns).
struct ColumnEnv {
  std::function<Result<int>(int rel, int col)> resolve;
  std::function<Result<int>()> size_ref;
};

class Compiler {
 public:
  explicit Compiler(BoundQuery q) { out_.bound = std::move(q); }

  Result<CompiledQuery> Run() {
    const BoundQuery& q = out_.bound;
    DC_RETURN_NOT_OK(CollectFragmentExprs());
    DC_RETURN_NOT_OK(CollectNeededColumns());
    out_.prejoin.resize(q.rels.size());
    out_.compact_cols.resize(q.rels.size());
    for (size_t r = 0; r < q.rels.size(); ++r) {
      DC_RETURN_NOT_OK(CompilePrejoin(static_cast<int>(r)));
    }
    DC_RETURN_NOT_OK(CompilePostjoin(&out_.postjoin, /*delta=*/false));
    if (q.join.has_value()) {
      DC_ASSIGN_OR_RETURN(
          out_.join_key_slots[0],
          CompactSlot(q.join->left->rel, q.join->left->col));
      DC_ASSIGN_OR_RETURN(
          out_.join_key_slots[1],
          CompactSlot(q.join->right->rel, q.join->right->col));
      DC_ASSIGN_OR_RETURN(
          out_.join_key_domain,
          ops::JoinKeyDomain(q.join->left->type, q.join->right->type));
    }
    if (q.join.has_value() && q.rels.size() == 2 && q.rels[0].is_stream &&
        q.rels[1].is_stream) {
      DC_RETURN_NOT_OK(CompilePostjoin(&out_.delta_postjoin, /*delta=*/true));
      out_.has_delta_postjoin = true;
      BuildDeltaPreAgg();
    }
    DC_RETURN_NOT_OK(BuildFinish());
    BuildClassification();
    BuildSignatures();
    return std::move(out_);
  }

 private:
  // --- Needed-column analysis (projection pruning) --------------------------

  /// Fragment output expressions (input-domain), in postjoin output order.
  Status CollectFragmentExprs() {
    const BoundQuery& q = out_.bound;
    if (q.is_aggregate) {
      for (const BExprPtr& k : q.group_by) fragment_exprs_.push_back(k);
      out_.num_keys = static_cast<int>(q.group_by.size());
      for (const BoundAgg& agg : q.aggs) {
        if (agg.arg) {
          out_.agg_arg_slots.push_back(
              static_cast<int>(fragment_exprs_.size()));
          fragment_exprs_.push_back(agg.arg);
        } else {
          out_.agg_arg_slots.push_back(-1);
        }
      }
      fragment_names_.resize(fragment_exprs_.size());
      for (size_t i = 0; i < fragment_exprs_.size(); ++i) {
        fragment_names_[i] =
            i < q.group_by.size()
                ? StrFormat("key%zu", i)
                : StrFormat("arg%zu", i - q.group_by.size());
      }
    } else {
      for (size_t i = 0; i < q.select_exprs.size(); ++i) {
        fragment_exprs_.push_back(q.select_exprs[i]);
        fragment_names_.push_back(q.out_names[i]);
      }
      for (size_t i = 0; i < q.order_by.size(); ++i) {
        fragment_exprs_.push_back(q.order_by[i].first);
        fragment_names_.push_back(StrFormat("sortkey%zu", i));
      }
    }
    return Status::OK();
  }

  static void CollectCols(const BExpr& e, std::set<std::pair<int, int>>* out) {
    if (e.kind == BKind::kColRef) out->emplace(e.rel, e.col);
    for (const auto& c : e.children) CollectCols(*c, out);
  }

  static bool HasColRef(const BExpr& e) {
    if (e.kind == BKind::kColRef) return true;
    for (const auto& c : e.children) {
      if (HasColRef(*c)) return true;
    }
    return false;
  }

  Status CollectNeededColumns() {
    const BoundQuery& q = out_.bound;
    std::set<std::pair<int, int>> needed;
    if (q.join.has_value()) {
      CollectCols(*q.join->left, &needed);
      CollectCols(*q.join->right, &needed);
    }
    for (const BExprPtr& f : q.post_join_filters) CollectCols(*f, &needed);
    bool need_size_ref = false;
    for (const BExprPtr& e : fragment_exprs_) {
      CollectCols(*e, &needed);
      if (!HasColRef(*e)) need_size_ref = true;
    }
    if ((need_size_ref || fragment_exprs_.empty()) &&
        q.rels[0].schema.NumColumns() > 0) {
      // Constant fragment expressions (and COUNT(*)-only queries executed
      // through the postjoin join path) need one real column as row-count
      // reference.
      if (q.rels.size() == 2 || need_size_ref) needed.emplace(0, 0);
    }
    needed_.assign(q.rels.size(), {});
    for (const auto& [rel, col] : needed) {
      needed_[static_cast<size_t>(rel)].push_back(col);
    }
    return Status::OK();
  }

  // --- Expression emission ----------------------------------------------------

  Result<int> EmitMapExpr(Program* p, const BExpr& e, const ColumnEnv& env) {
    switch (e.kind) {
      case BKind::kColRef:
        return env.resolve(e.rel, e.col);
      case BKind::kLiteral: {
        DC_ASSIGN_OR_RETURN(int ref, env.size_ref());
        Instr ins;
        ins.op = OpCode::kConstCol;
        ins.a = ref;
        ins.imm = e.literal;
        ins.dst = p->NewReg();
        p->instrs.push_back(ins);
        return ins.dst;
      }
      case BKind::kArith: {
        const BExpr& l = *e.children[0];
        const BExpr& r = *e.children[1];
        if (l.kind == BKind::kLiteral && r.kind != BKind::kLiteral) {
          DC_ASSIGN_OR_RETURN(int rr, EmitMapExpr(p, r, env));
          Instr ins;
          ins.op = OpCode::kMapArithConst;
          ins.a = rr;
          ins.imm = l.literal;
          ins.arith = e.arith_op;
          ins.lit_left = true;
          ins.dst = p->NewReg();
          p->instrs.push_back(ins);
          return ins.dst;
        }
        if (r.kind == BKind::kLiteral) {
          DC_ASSIGN_OR_RETURN(int lr, EmitMapExpr(p, l, env));
          Instr ins;
          ins.op = OpCode::kMapArithConst;
          ins.a = lr;
          ins.imm = r.literal;
          ins.arith = e.arith_op;
          ins.dst = p->NewReg();
          p->instrs.push_back(ins);
          return ins.dst;
        }
        DC_ASSIGN_OR_RETURN(int lr, EmitMapExpr(p, l, env));
        DC_ASSIGN_OR_RETURN(int rr, EmitMapExpr(p, r, env));
        Instr ins;
        ins.op = OpCode::kMapArith;
        ins.a = lr;
        ins.b = rr;
        ins.arith = e.arith_op;
        ins.dst = p->NewReg();
        p->instrs.push_back(ins);
        return ins.dst;
      }
      case BKind::kCmp: {
        const BExpr& l = *e.children[0];
        const BExpr& r = *e.children[1];
        if (l.kind == BKind::kLiteral && r.kind != BKind::kLiteral) {
          DC_ASSIGN_OR_RETURN(int rr, EmitMapExpr(p, r, env));
          Instr ins;
          ins.op = OpCode::kMapCmpConst;
          ins.a = rr;
          ins.imm = l.literal;
          ins.cmp = FlipCmp(e.cmp_op);
          ins.dst = p->NewReg();
          p->instrs.push_back(ins);
          return ins.dst;
        }
        if (r.kind == BKind::kLiteral) {
          DC_ASSIGN_OR_RETURN(int lr, EmitMapExpr(p, l, env));
          Instr ins;
          ins.op = OpCode::kMapCmpConst;
          ins.a = lr;
          ins.imm = r.literal;
          ins.cmp = e.cmp_op;
          ins.dst = p->NewReg();
          p->instrs.push_back(ins);
          return ins.dst;
        }
        DC_ASSIGN_OR_RETURN(int lr, EmitMapExpr(p, l, env));
        DC_ASSIGN_OR_RETURN(int rr, EmitMapExpr(p, r, env));
        Instr ins;
        ins.op = OpCode::kMapCmp;
        ins.a = lr;
        ins.b = rr;
        ins.cmp = e.cmp_op;
        ins.dst = p->NewReg();
        p->instrs.push_back(ins);
        return ins.dst;
      }
      case BKind::kAnd:
      case BKind::kOr: {
        DC_ASSIGN_OR_RETURN(int lr, EmitMapExpr(p, *e.children[0], env));
        DC_ASSIGN_OR_RETURN(int rr, EmitMapExpr(p, *e.children[1], env));
        Instr ins;
        ins.op = e.kind == BKind::kAnd ? OpCode::kMapAnd : OpCode::kMapOr;
        ins.a = lr;
        ins.b = rr;
        ins.dst = p->NewReg();
        p->instrs.push_back(ins);
        return ins.dst;
      }
      case BKind::kNot: {
        DC_ASSIGN_OR_RETURN(int cr, EmitMapExpr(p, *e.children[0], env));
        Instr ins;
        ins.op = OpCode::kMapNot;
        ins.a = cr;
        ins.dst = p->NewReg();
        p->instrs.push_back(ins);
        return ins.dst;
      }
      case BKind::kKeyRef:
      case BKind::kAggRef:
        return Status::Internal(
            "finish-domain expression in a CAL stage program");
    }
    return Status::Internal("EmitMapExpr: unhandled node");
  }

  // --- Prejoin ---------------------------------------------------------------

  /// Compiles a predicate into a candidate chain; returns the new candidate
  /// register. `cand` is the incoming candidate register.
  Result<int> CompilePred(Program* p, const BExpr& e, int cand,
                          const ColumnEnv& env) {
    switch (e.kind) {
      case BKind::kCmp: {
        const BExpr& l = *e.children[0];
        const BExpr& r = *e.children[1];
        if (l.kind == BKind::kColRef && r.kind == BKind::kLiteral) {
          DC_ASSIGN_OR_RETURN(int col, env.resolve(l.rel, l.col));
          Instr ins;
          ins.op = OpCode::kSelectCmp;
          ins.a = col;
          ins.b = cand;
          ins.imm = r.literal;
          ins.cmp = e.cmp_op;
          ins.dst = p->NewReg();
          p->instrs.push_back(ins);
          return ins.dst;
        }
        if (l.kind == BKind::kLiteral && r.kind == BKind::kColRef) {
          DC_ASSIGN_OR_RETURN(int col, env.resolve(r.rel, r.col));
          Instr ins;
          ins.op = OpCode::kSelectCmp;
          ins.a = col;
          ins.b = cand;
          ins.imm = l.literal;
          ins.cmp = FlipCmp(e.cmp_op);
          ins.dst = p->NewReg();
          p->instrs.push_back(ins);
          return ins.dst;
        }
        if (l.kind == BKind::kColRef && r.kind == BKind::kColRef) {
          DC_ASSIGN_OR_RETURN(int la, env.resolve(l.rel, l.col));
          DC_ASSIGN_OR_RETURN(int rb, env.resolve(r.rel, r.col));
          Instr ins;
          ins.op = OpCode::kSelectCmpCol;
          ins.a = la;
          ins.b = rb;
          ins.c = cand;
          ins.cmp = e.cmp_op;
          ins.dst = p->NewReg();
          p->instrs.push_back(ins);
          return ins.dst;
        }
        break;  // complex comparison: fall through to map fallback
      }
      case BKind::kAnd: {
        DC_ASSIGN_OR_RETURN(int c1, CompilePred(p, *e.children[0], cand, env));
        return CompilePred(p, *e.children[1], c1, env);
      }
      case BKind::kOr: {
        DC_ASSIGN_OR_RETURN(int c1, CompilePred(p, *e.children[0], cand, env));
        DC_ASSIGN_OR_RETURN(int c2, CompilePred(p, *e.children[1], cand, env));
        Instr ins;
        ins.op = OpCode::kCandOr;
        ins.a = c1;
        ins.b = c2;
        ins.dst = p->NewReg();
        p->instrs.push_back(ins);
        return ins.dst;
      }
      case BKind::kNot: {
        DC_ASSIGN_OR_RETURN(int ci, CompilePred(p, *e.children[0], cand, env));
        Instr ins;
        ins.op = OpCode::kCandDiff;
        ins.a = cand;
        ins.b = ci;
        ins.dst = p->NewReg();
        p->instrs.push_back(ins);
        return ins.dst;
      }
      case BKind::kLiteral: {
        if (e.type != TypeId::kBool) break;
        if (e.literal.AsBool()) return cand;  // WHERE TRUE: no-op
        Instr ins;  // WHERE FALSE: empty candidates
        ins.op = OpCode::kCandDiff;
        ins.a = cand;
        ins.b = cand;
        ins.dst = p->NewReg();
        p->instrs.push_back(ins);
        return ins.dst;
      }
      default:
        break;
    }
    // Fallback: evaluate as a boolean map over the raw domain, then filter.
    DC_ASSIGN_OR_RETURN(int boolreg, EmitMapExpr(p, e, env));
    Instr ins;
    ins.op = OpCode::kSelectTrue;
    ins.a = boolreg;
    ins.b = cand;
    ins.dst = p->NewReg();
    p->instrs.push_back(ins);
    return ins.dst;
  }

  Status CompilePrejoin(int r) {
    const BoundQuery& q = out_.bound;
    Program& p = out_.prejoin[r];
    std::map<int, int> bound_cols;  // raw col -> reg

    ColumnEnv env;
    env.resolve = [&, r](int rel, int col) -> Result<int> {
      if (rel != r) {
        return Status::Internal("prejoin: foreign column reference");
      }
      auto it = bound_cols.find(col);
      if (it != bound_cols.end()) return it->second;
      Instr ins;
      ins.op = OpCode::kBindCol;
      ins.rel = rel;
      ins.col = col;
      ins.note = q.rels[rel].schema.column(col).name;
      ins.dst = p.NewReg();
      p.instrs.push_back(ins);
      bound_cols[col] = ins.dst;
      return ins.dst;
    };
    env.size_ref = [&]() -> Result<int> { return env.resolve(r, 0); };

    Instr bind_cand;
    bind_cand.op = OpCode::kBindCand;
    bind_cand.rel = r;
    bind_cand.dst = p.NewReg();
    p.instrs.push_back(bind_cand);
    int cand = bind_cand.dst;

    for (const BExprPtr& f : q.rel_filters[r]) {
      DC_ASSIGN_OR_RETURN(cand, CompilePred(&p, *f, cand, env));
    }

    for (int col : needed_[r]) {
      DC_ASSIGN_OR_RETURN(int colreg, env.resolve(r, col));
      Instr g;
      g.op = OpCode::kGather;
      g.a = colreg;
      g.b = cand;
      g.dst = p.NewReg();
      p.instrs.push_back(g);
      p.output_regs.push_back(g.dst);
      p.output_names.push_back(q.rels[r].schema.column(col).name);
      out_.compact_cols[r].push_back(col);
    }
    p.domain_reg = cand;
    p.domain_kind = cal::DomainKind::kCand;
    return Status::OK();
  }

  // --- Postjoin ----------------------------------------------------------------

  /// Compact slot of raw column (rel, col), or error.
  Result<int> CompactSlot(int rel, int col) const {
    const auto& slots = out_.compact_cols[rel];
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i] == col) return static_cast<int>(i);
    }
    return Status::Internal(
        StrFormat("column r%d.c%d not in compact set", rel, col));
  }

  /// Compiles the postjoin stage into `*p`. With `delta` set the join
  /// instruction becomes datacell.delta_join and each side's hidden
  /// basic-window-ordinal column (input slot compact_cols[rel].size()) is
  /// carried through the join and the post-join filters, emitted as the
  /// last two outputs ("bw$l", "bw$r") for the factory's expiry bucketing.
  Status CompilePostjoin(Program* pp, bool delta) {
    const BoundQuery& q = out_.bound;
    Program& p = *pp;

    // (rel, col) -> register holding that column in the current domain.
    // The hidden ordinal columns use col = schema.NumColumns() (one past
    // the raw columns, never produced by a kColRef).
    std::map<std::pair<int, int>, int> regs;
    auto ord_key = [&](int rel) {
      return std::make_pair(
          rel, static_cast<int>(q.rels[rel].schema.NumColumns()));
    };
    auto bind_compact = [&](int rel, int col) -> Result<int> {
      auto key = std::make_pair(rel, col);
      auto it = regs.find(key);
      if (it != regs.end()) return it->second;
      DC_ASSIGN_OR_RETURN(int slot, CompactSlot(rel, col));
      Instr ins;
      ins.op = OpCode::kBindCol;
      ins.rel = rel;
      ins.col = slot;
      ins.note = q.rels[rel].schema.column(col).name;
      ins.dst = p.NewReg();
      p.instrs.push_back(ins);
      regs[key] = ins.dst;
      return ins.dst;
    };

    if (q.join.has_value()) {
      // Bind keys, join, then fetch every needed column into the joined
      // domain.
      DC_ASSIGN_OR_RETURN(int lkey,
                          bind_compact(q.join->left->rel, q.join->left->col));
      DC_ASSIGN_OR_RETURN(
          int rkey, bind_compact(q.join->right->rel, q.join->right->col));
      Instr j;
      j.op = delta ? OpCode::kDeltaJoin : OpCode::kJoin;
      j.a = lkey;
      j.b = rkey;
      j.rel = q.join->left->rel;
      j.rel2 = q.join->right->rel;
      j.dst = p.NewReg();
      j.dst2 = p.NewReg();
      p.instrs.push_back(j);
      const int lo = j.dst;
      const int ro = j.dst2;

      std::map<std::pair<int, int>, int> joined;
      for (int rel = 0; rel < 2; ++rel) {
        for (int col : out_.compact_cols[rel]) {
          DC_ASSIGN_OR_RETURN(int src, bind_compact(rel, col));
          Instr f;
          f.op = OpCode::kFetch;
          f.a = src;
          f.b = rel == 0 ? lo : ro;
          f.dst = p.NewReg();
          p.instrs.push_back(f);
          joined[{rel, col}] = f.dst;
        }
      }
      if (delta) {
        // Bind + fetch the per-side basic-window ordinal columns.
        for (int rel = 0; rel < 2; ++rel) {
          Instr bind;
          bind.op = OpCode::kBindCol;
          bind.rel = rel;
          bind.col = static_cast<int>(out_.compact_cols[rel].size());
          bind.note = rel == 0 ? "bw$l" : "bw$r";
          bind.dst = p.NewReg();
          p.instrs.push_back(bind);
          Instr f;
          f.op = OpCode::kFetch;
          f.a = bind.dst;
          f.b = rel == 0 ? lo : ro;
          f.dst = p.NewReg();
          p.instrs.push_back(f);
          joined[ord_key(rel)] = f.dst;
        }
      }
      regs = std::move(joined);
      p.domain_reg = lo;
      p.domain_kind = cal::DomainKind::kOidList;
    } else {
      // Single relation: compact columns are already the domain.
      for (int col : out_.compact_cols[0]) {
        DC_RETURN_NOT_OK(bind_compact(0, col).status());
      }
      p.domain_kind = cal::DomainKind::kNone;  // rows = input rel0 rows
    }

    ColumnEnv env;
    env.resolve = [&](int rel, int col) -> Result<int> {
      auto it = regs.find({rel, col});
      if (it != regs.end()) return it->second;
      return Status::Internal("postjoin: unbound column");
    };
    env.size_ref = [&]() -> Result<int> {
      if (!regs.empty()) return regs.begin()->second;
      return Status::Internal("postjoin: no size-reference column");
    };

    // Post-join filters: boolean map -> select_true -> gather all columns.
    if (!q.post_join_filters.empty()) {
      int boolreg = -1;
      for (const BExprPtr& f : q.post_join_filters) {
        DC_ASSIGN_OR_RETURN(int br, EmitMapExpr(&p, *f, env));
        if (boolreg < 0) {
          boolreg = br;
        } else {
          Instr a;
          a.op = OpCode::kMapAnd;
          a.a = boolreg;
          a.b = br;
          a.dst = p.NewReg();
          p.instrs.push_back(a);
          boolreg = a.dst;
        }
      }
      Instr st;
      st.op = OpCode::kSelectTrue;
      st.a = boolreg;
      st.dst = p.NewReg();
      p.instrs.push_back(st);
      const int cand = st.dst;
      for (auto& [key, reg] : regs) {
        Instr g;
        g.op = OpCode::kGather;
        g.a = reg;
        g.b = cand;
        g.dst = p.NewReg();
        p.instrs.push_back(g);
        reg = g.dst;
      }
      p.domain_reg = cand;
      p.domain_kind = cal::DomainKind::kCand;
    }

    // Fragment outputs.
    for (size_t i = 0; i < fragment_exprs_.size(); ++i) {
      DC_ASSIGN_OR_RETURN(int reg, EmitMapExpr(&p, *fragment_exprs_[i], env));
      p.output_regs.push_back(reg);
      p.output_names.push_back(fragment_names_[i]);
    }
    if (delta) {
      for (int rel = 0; rel < 2; ++rel) {
        p.output_regs.push_back(regs[ord_key(rel)]);
        p.output_names.push_back(rel == 0 ? "bw$l" : "bw$r");
      }
    }
    if (!p.output_regs.empty()) {
      p.domain_reg = p.output_regs[0];
      p.domain_kind = cal::DomainKind::kColumn;
    }
    return Status::OK();
  }

  // --- Finish -------------------------------------------------------------------

  Status BuildFinish() {
    const BoundQuery& q = out_.bound;
    FinishSpec& f = out_.finish;
    f.is_aggregate = q.is_aggregate;
    f.limit = q.limit;
    f.out_names = q.out_names;
    if (q.is_aggregate) {
      for (const BExprPtr& k : q.group_by) f.key_types.push_back(k->type);
      for (const BoundAgg& a : q.aggs) {
        f.agg_layout.emplace_back(a.kind, a.arg_type);
      }
      f.select_exprs = q.select_exprs;
      f.having = q.having;
      f.order_by = q.order_by;
    } else {
      f.num_visible = static_cast<int>(q.select_exprs.size());
      for (size_t i = 0; i < q.order_by.size(); ++i) {
        f.sort_cols.emplace_back(f.num_visible + static_cast<int>(i),
                                 q.order_by[i].second);
      }
    }
    return Status::OK();
  }

  // --- Delta pre-aggregation eligibility -----------------------------------

  /// Fills out_.delta_pre_agg. The push-down applies when the whole tail
  /// above the delta join is a scalar aggregate over bare columns: each
  /// side is then pre-aggregated per join key per basic window and the
  /// delta join pairs (key, count, states) groups, applying the product
  /// rule (AggColumn::ScaledMerge). Any GROUP BY, post-join filter, or
  /// computed aggregate argument keeps the raw row-pairing path.
  void BuildDeltaPreAgg() {
    const BoundQuery& q = out_.bound;
    auto& pa = out_.delta_pre_agg;
    pa.eligible = false;
    if (!q.is_aggregate || !q.group_by.empty() ||
        !q.post_join_filters.empty()) {
      return;
    }
    std::vector<int> side;
    std::vector<int> slot;
    for (const BoundAgg& a : q.aggs) {
      if (!a.arg) {  // COUNT(*): contribution is cnt_l * cnt_r
        side.push_back(-1);
        slot.push_back(-1);
        continue;
      }
      if (a.arg->kind != BKind::kColRef) return;  // computed arg: raw path
      Result<int> s = CompactSlot(a.arg->rel, a.arg->col);
      if (!s.ok()) return;
      side.push_back(a.arg->rel);
      slot.push_back(*s);
    }
    pa.eligible = true;
    pa.agg_side = std::move(side);
    pa.agg_slot = std::move(slot);
  }

  // --- Classification -----------------------------------------------------

  /// Per-operator incremental-vs-recompute classification, surfaced by
  /// EXPLAIN in incremental mode. Divisibility (slide | size) is decidable
  /// here because windows are part of the bound query; the factory applies
  /// the same rule at registration time (FactoryStats::fell_back_to_full).
  void BuildClassification() {
    const BoundQuery& q = out_.bound;
    auto add = [&](std::string op, bool inc, std::string note) {
      out_.classification.push_back(
          StageClass{std::move(op), inc, std::move(note)});
    };

    bool any_window = false;
    std::vector<const WindowSpec*> windows;
    for (const BoundRelation& rel : q.rels) {
      if (!rel.is_stream) continue;
      windows.push_back(rel.window.has_value() ? &*rel.window : nullptr);
      any_window = any_window || rel.window.has_value();
    }
    const bool inc_ok = IncrementalEligible(windows);
    out_.incremental_eligible = inc_ok;
    const std::string fallback =
        !any_window ? "no window: per-batch, each batch processed once"
                    : "window size not divisible by slide -> full "
                      "re-evaluation every slide";

    int num_streams = 0;
    for (size_t r = 0; r < q.rels.size(); ++r) {
      const BoundRelation& rel = q.rels[r];
      const std::string op = StrFormat("prejoin r%zu", r);
      if (!rel.is_stream) {
        add(op, true, "table compact cached; recomputed on version change");
        continue;
      }
      ++num_streams;
      add(op, inc_ok, inc_ok ? "one fragment per basic window, cached"
                             : fallback);
    }

    if (q.join.has_value()) {
      if (num_streams == 2) {
        std::string note =
            "delta-join: rolling retained-side hash index, O(new) "
            "probes (retained⋈new via index, new⋈new hashed); "
            "partials dropped on expiry";
        if (out_.delta_pre_agg.eligible) {
          note +=
              "; pre-aggregated below the join (groups paired, "
              "product rule)";
        }
        add("join", inc_ok, inc_ok ? note : fallback);
      } else {
        add("join", inc_ok,
            inc_ok ? "stream fragments cached; re-joined against the "
                     "table snapshot on version change"
                   : fallback);
      }
    }

    if (q.is_aggregate) {
      add("aggregate", inc_ok,
          inc_ok ? "per-basic-window partial states, merged per emission"
                 : fallback);
      if (q.having) {
        add("having", inc_ok,
            inc_ok ? "finish tail over merged groups (O(groups), not "
                     "O(window))"
                   : fallback);
      }
      if (!q.order_by.empty()) {
        add("order_by", inc_ok,
            inc_ok ? "finish tail: re-sorts merged groups (group set "
                     "changes every slide)"
                   : fallback);
      }
    } else if (!q.order_by.empty()) {
      add("order_by", inc_ok,
          inc_ok ? "merge of sorted runs (each partial pre-sorted once)"
                 : fallback);
    }
  }

  // --- Sharing signatures (docs/SHARING.md) ---------------------------------

  /// Canonical rendering of a bound expression. With `mask` set, literal
  /// values become `?:<type>` and the value is filed into sig_params in
  /// traversal order — so constant-differing queries collide on the
  /// signature and the registry compares params separately. Unmasked
  /// rendering inlines the value (used for the finish signature, where
  /// only full identity shares).
  void SigExpr(const BExpr& e, bool mask, std::string* out) {
    switch (e.kind) {
      case BKind::kLiteral:
        if (mask) {
          *out += StrFormat("?:%s", TypeName(e.literal.type()));
          out_.sig_params.push_back(e.literal.ToString());
        } else {
          *out += e.literal.ToString();
        }
        return;
      case BKind::kColRef:
        *out += StrFormat("r%d.c%d", e.rel, e.col);
        return;
      case BKind::kKeyRef:
        *out += StrFormat("key#%d", e.index);
        return;
      case BKind::kAggRef:
        *out += StrFormat("agg#%d", e.index);
        return;
      case BKind::kArith:
        *out += "(";
        SigExpr(*e.children[0], mask, out);
        *out += StrFormat(" %s ", ArithOpName(e.arith_op));
        SigExpr(*e.children[1], mask, out);
        *out += ")";
        return;
      case BKind::kCmp:
        *out += "(";
        SigExpr(*e.children[0], mask, out);
        *out += StrFormat(" %s ", CmpOpName(e.cmp_op));
        SigExpr(*e.children[1], mask, out);
        *out += ")";
        return;
      case BKind::kAnd:
      case BKind::kOr:
        *out += "(";
        SigExpr(*e.children[0], mask, out);
        *out += e.kind == BKind::kAnd ? " AND " : " OR ";
        SigExpr(*e.children[1], mask, out);
        *out += ")";
        return;
      case BKind::kNot:
        *out += "(NOT ";
        SigExpr(*e.children[0], mask, out);
        *out += ")";
        return;
    }
  }

  /// Fills prefix_signature / finish_signature / sig_params. The prefix
  /// covers everything that shapes the per-basic-window fragment;
  /// binder-resolved structures (not SQL text) make the rendering
  /// canonical: aliases are gone, columns are (rel, col) indices, filters
  /// appear in pushed-down order, aggregates are deduplicated. Window
  /// geometry is deliberately excluded (only ROWS-vs-RANGE is part of the
  /// prefix) so a shared node can serve subsumable geometries.
  void BuildSignatures() {
    const BoundQuery& q = out_.bound;
    std::string p;
    for (size_t r = 0; r < q.rels.size(); ++r) {
      const BoundRelation& rel = q.rels[r];
      p += StrFormat("rel%zu=%s:%s%s;", r, rel.is_stream ? "stream" : "table",
                     rel.name.c_str(),
                     rel.window ? (rel.window->rows ? "|rows" : "|range")
                                : "");
    }
    for (size_t r = 0; r < q.rel_filters.size(); ++r) {
      for (const BExprPtr& f : q.rel_filters[r]) {
        p += StrFormat("filter%zu=", r);
        SigExpr(*f, /*mask=*/true, &p);
        p += ";";
      }
    }
    if (q.join.has_value()) {
      p += "join=";
      SigExpr(*q.join->left, /*mask=*/true, &p);
      p += "=";
      SigExpr(*q.join->right, /*mask=*/true, &p);
      p += ";";
    }
    for (const BExprPtr& f : q.post_join_filters) {
      p += "postfilter=";
      SigExpr(*f, /*mask=*/true, &p);
      p += ";";
    }
    for (const BExprPtr& g : q.group_by) {
      p += "key=";
      SigExpr(*g, /*mask=*/true, &p);
      p += ";";
    }
    for (const BoundAgg& a : q.aggs) {
      p += StrFormat("agg=%s(", ops::AggKindName(a.kind));
      if (a.arg) {
        SigExpr(*a.arg, /*mask=*/true, &p);
      } else {
        p += "*";
      }
      p += StrFormat("):%s;", TypeName(a.out_type));
    }
    if (!q.is_aggregate) {
      // Non-aggregate fragments materialize the select list and the
      // hidden sort columns, so both belong to the prefix.
      for (const BExprPtr& s : q.select_exprs) {
        p += "sel=";
        SigExpr(*s, /*mask=*/true, &p);
        p += ";";
      }
      for (const auto& [e, asc] : q.order_by) {
        p += asc ? "sortA=" : "sortD=";
        SigExpr(*e, /*mask=*/true, &p);
        p += ";";
      }
    }
    out_.prefix_signature = std::move(p);

    // Finish tail: only full identity shares it, so literals stay inline.
    std::string t;
    if (q.is_aggregate) {
      for (const BExprPtr& s : q.select_exprs) {
        t += "sel=";
        SigExpr(*s, /*mask=*/false, &t);
        t += ";";
      }
      if (q.having) {
        t += "having=";
        SigExpr(*q.having, /*mask=*/false, &t);
        t += ";";
      }
      for (const auto& [e, asc] : q.order_by) {
        t += asc ? "sortA=" : "sortD=";
        SigExpr(*e, /*mask=*/false, &t);
        t += ";";
      }
    }
    t += StrFormat("limit=%lld;", static_cast<long long>(q.limit));
    for (const std::string& n : q.out_names) t += "name=" + n + ";";
    out_.finish_signature = std::move(t);
  }

  CompiledQuery out_;
  std::vector<BExprPtr> fragment_exprs_;
  std::vector<std::string> fragment_names_;
  std::vector<std::vector<int>> needed_;
};

}  // namespace

Result<CompiledQuery> Compile(BoundQuery q) {
  Compiler c(std::move(q));
  return c.Run();
}

}  // namespace dc::plan
