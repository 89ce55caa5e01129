#include "exec/interpreter.h"

#include <variant>

#include "bat/ops_arith.h"
#include "bat/ops_join.h"
#include "bat/ops_select.h"
#include "util/string_util.h"

namespace dc::exec {

namespace {

using OidList = std::shared_ptr<std::vector<Oid>>;

using Register = std::variant<std::monostate, BatPtr, Candidates, OidList>;

struct Machine {
  const cal::Program& p;
  const std::vector<StageInput>& inputs;
  std::vector<Register> regs;

  explicit Machine(const cal::Program& program,
                   const std::vector<StageInput>& in)
      : p(program), inputs(in), regs(program.num_regs) {}

  Result<BatPtr> Col(int r) const {
    if (r < 0 || !std::holds_alternative<BatPtr>(regs[r])) {
      return Status::Internal(StrFormat("register V%d is not a column", r));
    }
    return std::get<BatPtr>(regs[r]);
  }
  Result<Candidates> Cand(int r) const {
    if (r < 0 || !std::holds_alternative<Candidates>(regs[r])) {
      return Status::Internal(StrFormat("register C%d is not candidates", r));
    }
    return std::get<Candidates>(regs[r]);
  }
  const Candidates* CandPtr(int r) const {
    if (r < 0) return nullptr;
    return std::get_if<Candidates>(&regs[r]);
  }
  Result<OidList> Oids(int r) const {
    if (r < 0 || !std::holds_alternative<OidList>(regs[r])) {
      return Status::Internal(StrFormat("register O%d is not an oid list", r));
    }
    return std::get<OidList>(regs[r]);
  }

  Status Step(const cal::Instr& i) {
    using cal::OpCode;
    switch (i.op) {
      case OpCode::kBindCol: {
        const auto& rel = inputs[i.rel];
        if (i.col < 0 || static_cast<size_t>(i.col) >= rel.cols.size()) {
          return Status::Internal("bind: column index out of range");
        }
        regs[i.dst] = rel.cols[i.col];
        return Status::OK();
      }
      case OpCode::kBindCand: {
        regs[i.dst] = Candidates::Range(0, inputs[i.rel].rows);
        return Status::OK();
      }
      case OpCode::kSelectCmp: {
        DC_ASSIGN_OR_RETURN(BatPtr col, Col(i.a));
        const Candidates* cand = CandPtr(i.b);
        DC_ASSIGN_OR_RETURN(Candidates out,
                            ops::SelectCmp(*col, i.cmp, i.imm, cand));
        regs[i.dst] = std::move(out);
        return Status::OK();
      }
      case OpCode::kSelectCmpCol: {
        DC_ASSIGN_OR_RETURN(BatPtr a, Col(i.a));
        DC_ASSIGN_OR_RETURN(BatPtr b, Col(i.b));
        const Candidates* cand = CandPtr(i.c);
        DC_ASSIGN_OR_RETURN(Candidates out,
                            ops::SelectCmpCol(*a, i.cmp, *b, cand));
        regs[i.dst] = std::move(out);
        return Status::OK();
      }
      case OpCode::kSelectTrue: {
        DC_ASSIGN_OR_RETURN(BatPtr col, Col(i.a));
        const Candidates* cand = CandPtr(i.b);
        DC_ASSIGN_OR_RETURN(Candidates out, ops::SelectTrue(*col, cand));
        regs[i.dst] = std::move(out);
        return Status::OK();
      }
      case OpCode::kCandAnd: {
        DC_ASSIGN_OR_RETURN(Candidates a, Cand(i.a));
        DC_ASSIGN_OR_RETURN(Candidates b, Cand(i.b));
        regs[i.dst] = Candidates::Intersect(a, b);
        return Status::OK();
      }
      case OpCode::kCandOr: {
        DC_ASSIGN_OR_RETURN(Candidates a, Cand(i.a));
        DC_ASSIGN_OR_RETURN(Candidates b, Cand(i.b));
        regs[i.dst] = Candidates::Union(a, b);
        return Status::OK();
      }
      case OpCode::kCandDiff: {
        DC_ASSIGN_OR_RETURN(Candidates a, Cand(i.a));
        DC_ASSIGN_OR_RETURN(Candidates b, Cand(i.b));
        regs[i.dst] = Candidates::Difference(a, b);
        return Status::OK();
      }
      case OpCode::kGather: {
        DC_ASSIGN_OR_RETURN(BatPtr col, Col(i.a));
        DC_ASSIGN_OR_RETURN(Candidates cand, Cand(i.b));
        regs[i.dst] = col->Gather(cand);
        return Status::OK();
      }
      case OpCode::kJoin:
      case OpCode::kDeltaJoin: {
        DC_ASSIGN_OR_RETURN(BatPtr l, Col(i.a));
        DC_ASSIGN_OR_RETURN(BatPtr r, Col(i.b));
        if (i.rel < 0 || i.rel2 < 0 ||
            static_cast<size_t>(i.rel) >= inputs.size() ||
            static_cast<size_t>(i.rel2) >= inputs.size()) {
          return Status::Internal("join: bad input relation");
        }
        const StageInput& lin = inputs[i.rel];
        const StageInput& rin = inputs[i.rel2];
        ops::JoinResult jr;
        if (i.op == OpCode::kDeltaJoin) {
          // Retained⋈new via the rolling indexes, new⋈new via a hash join
          // over the new portions only.
          if (lin.index == nullptr || rin.index == nullptr) {
            return Status::Internal("delta_join: input without an index");
          }
          DC_ASSIGN_OR_RETURN(
              jr, ops::IndexedDeltaJoin(*l, lin.delta_old_rows, *lin.index,
                                        *r, rin.delta_old_rows, *rin.index));
        } else if (rin.index != nullptr) {
          // Prebuilt build side: its positions are the right row ids.
          DC_ASSIGN_OR_RETURN(TypeId domain,
                              ops::JoinKeyDomain(l->type(), r->type()));
          if (rin.index->key_domain() != domain ||
              rin.index->next_pos() != r->size() ||
              rin.index->live_from() != 0) {
            return Status::Internal("join: index does not cover the key");
          }
          DC_RETURN_NOT_OK(rin.index->Probe(*l, 0, l->size(), &jr.left,
                                            &jr.right,
                                            /*newest_first=*/true));
        } else {
          DC_ASSIGN_OR_RETURN(jr, ops::HashJoin(*l, *r));
        }
        regs[i.dst] = std::make_shared<std::vector<Oid>>(std::move(jr.left));
        regs[i.dst2] =
            std::make_shared<std::vector<Oid>>(std::move(jr.right));
        return Status::OK();
      }
      case OpCode::kFetch: {
        DC_ASSIGN_OR_RETURN(BatPtr col, Col(i.a));
        DC_ASSIGN_OR_RETURN(OidList oids, Oids(i.b));
        regs[i.dst] = ops::FetchOids(*col, *oids);
        return Status::OK();
      }
      case OpCode::kMapArith: {
        DC_ASSIGN_OR_RETURN(BatPtr a, Col(i.a));
        DC_ASSIGN_OR_RETURN(BatPtr b, Col(i.b));
        DC_ASSIGN_OR_RETURN(BatPtr out, ops::MapArith(*a, i.arith, *b));
        regs[i.dst] = std::move(out);
        return Status::OK();
      }
      case OpCode::kMapArithConst: {
        DC_ASSIGN_OR_RETURN(BatPtr a, Col(i.a));
        DC_ASSIGN_OR_RETURN(BatPtr out,
                            ops::MapArithConst(*a, i.arith, i.imm,
                                               i.lit_left));
        regs[i.dst] = std::move(out);
        return Status::OK();
      }
      case OpCode::kMapCmp: {
        DC_ASSIGN_OR_RETURN(BatPtr a, Col(i.a));
        DC_ASSIGN_OR_RETURN(BatPtr b, Col(i.b));
        DC_ASSIGN_OR_RETURN(BatPtr out, ops::MapCmpCol(*a, i.cmp, *b));
        regs[i.dst] = std::move(out);
        return Status::OK();
      }
      case OpCode::kMapCmpConst: {
        DC_ASSIGN_OR_RETURN(BatPtr a, Col(i.a));
        DC_ASSIGN_OR_RETURN(BatPtr out, ops::MapCmpConst(*a, i.cmp, i.imm));
        regs[i.dst] = std::move(out);
        return Status::OK();
      }
      case OpCode::kMapAnd: {
        DC_ASSIGN_OR_RETURN(BatPtr a, Col(i.a));
        DC_ASSIGN_OR_RETURN(BatPtr b, Col(i.b));
        DC_ASSIGN_OR_RETURN(BatPtr out, ops::MapAnd(*a, *b));
        regs[i.dst] = std::move(out);
        return Status::OK();
      }
      case OpCode::kMapOr: {
        DC_ASSIGN_OR_RETURN(BatPtr a, Col(i.a));
        DC_ASSIGN_OR_RETURN(BatPtr b, Col(i.b));
        DC_ASSIGN_OR_RETURN(BatPtr out, ops::MapOr(*a, *b));
        regs[i.dst] = std::move(out);
        return Status::OK();
      }
      case OpCode::kMapNot: {
        DC_ASSIGN_OR_RETURN(BatPtr a, Col(i.a));
        DC_ASSIGN_OR_RETURN(BatPtr out, ops::MapNot(*a));
        regs[i.dst] = std::move(out);
        return Status::OK();
      }
      case OpCode::kMapCast: {
        DC_ASSIGN_OR_RETURN(BatPtr a, Col(i.a));
        DC_ASSIGN_OR_RETURN(BatPtr out, ops::MapCast(*a, i.cast_type));
        regs[i.dst] = std::move(out);
        return Status::OK();
      }
      case OpCode::kConstCol: {
        DC_ASSIGN_OR_RETURN(BatPtr ref, Col(i.a));
        regs[i.dst] = ops::MakeConstColumn(i.imm, ref->size());
        return Status::OK();
      }
    }
    return Status::Internal("unhandled opcode");
  }
};

}  // namespace

Result<StageOutput> ExecuteProgram(const cal::Program& program,
                                   const std::vector<StageInput>& inputs) {
  Machine m(program, inputs);
  for (const cal::Instr& i : program.instrs) {
    DC_RETURN_NOT_OK(m.Step(i));
  }
  StageOutput out;
  for (int r : program.output_regs) {
    DC_ASSIGN_OR_RETURN(BatPtr col, m.Col(r));
    out.cols.push_back(std::move(col));
  }
  switch (program.domain_kind) {
    case cal::DomainKind::kColumn: {
      DC_ASSIGN_OR_RETURN(BatPtr col, m.Col(program.domain_reg));
      out.rows = col->size();
      break;
    }
    case cal::DomainKind::kCand: {
      DC_ASSIGN_OR_RETURN(Candidates cand, m.Cand(program.domain_reg));
      out.rows = cand.size();
      break;
    }
    case cal::DomainKind::kOidList: {
      DC_ASSIGN_OR_RETURN(auto oids, m.Oids(program.domain_reg));
      out.rows = oids->size();
      break;
    }
    case cal::DomainKind::kNone:
      out.rows = inputs.empty() ? 0 : inputs[0].rows;
      break;
  }
  return out;
}

}  // namespace dc::exec
