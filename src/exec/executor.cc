#include "exec/executor.h"

#include "bat/ops_arith.h"
#include "bat/ops_select.h"
#include "bat/ops_sort.h"
#include "bat/ops_join.h"

namespace dc::exec {

size_t Partial::MemoryBytes() const {
  size_t total = grouped.MemoryBytes();
  for (const BatPtr& c : frag_cols) total += c->MemoryBytes();
  return total;
}

// --- DeltaSideState ----------------------------------------------------------

void DeltaSideState::Reset(TypeId key_domain, int key_slot_in) {
  cols.clear();
  rows = 0;
  dead = 0;
  bws.clear();
  index.Reset(key_domain);
  key_slot = key_slot_in;
}

Status DeltaSideState::AppendBasicWindow(int64_t bw,
                                         const StageOutput& compact) {
  if (cols.empty()) {
    for (const BatPtr& c : compact.cols) {
      cols.push_back(Bat::MakeEmpty(c->type()));
    }
    cols.push_back(Bat::MakeEmpty(TypeId::kI64));  // bw-ordinal column
  } else if (cols.size() != compact.cols.size() + 1) {
    return Status::Internal("delta side: compact column arity changed");
  }
  const uint64_t n = compact.rows;
  for (size_t i = 0; i < compact.cols.size(); ++i) {
    cols[i]->AppendRange(*compact.cols[i], 0, n);
  }
  cols.back()->AppendRepeatedI64(bw, n);
  rows += n;
  bws.emplace_back(bw, n);
  return Status::OK();
}

Status DeltaSideState::IndexNewRows(uint64_t from) {
  if (key_slot < 0 || static_cast<size_t>(key_slot) >= cols.size()) {
    return Status::Internal("delta side: bad key slot");
  }
  return index.Append(*cols[key_slot], from, rows);
}

void DeltaSideState::EvictBefore(int64_t first_live) {
  while (!bws.empty() && bws.front().first < first_live) {
    dead += bws.front().second;
    bws.pop_front();
  }
  index.EvictBelow(dead);
}

void DeltaSideState::TrimIfWorthIt() {
  if (dead == 0 || dead <= rows - dead) return;
  for (const BatPtr& c : cols) c->DropHead(dead);
  index.Rebase();
  rows -= dead;
  dead = 0;
}

size_t DeltaSideState::MemoryBytes() const {
  size_t total = bws.size() * sizeof(std::pair<int64_t, uint64_t>);
  for (const BatPtr& c : cols) total += c->MemoryBytes();
  return total + index.MemoryBytes();
}

// --- DeltaGroupTrack ---------------------------------------------------------

void DeltaGroupTrack::Reset(TypeId key_domain) {
  counts.clear();
  states.clear();
  bw_of.clear();
  dead = 0;
  bws.clear();
  index.Reset(key_domain);
}

Status DeltaGroupTrack::AppendGroups(int64_t bw, const ops::GroupTable& g) {
  DC_RETURN_NOT_OK(index.Append(g.key(0), 0, g.num_groups()));
  if (states.empty()) {
    for (const ops::AggColumn& st : g.states()) {
      states.emplace_back(st.kind(), st.arg_type());
    }
  } else if (states.size() != g.num_aggs()) {
    return Status::Internal("delta pre-agg: aggregate arity changed");
  }
  counts.insert(counts.end(), g.counts().begin(), g.counts().end());
  for (size_t a = 0; a < states.size(); ++a) {
    states[a].AppendGroups(g.states()[a]);
  }
  bw_of.insert(bw_of.end(), g.num_groups(), bw);
  bws.emplace_back(bw, g.num_groups());
  return Status::OK();
}

void DeltaGroupTrack::EvictBefore(int64_t first_live) {
  while (!bws.empty() && bws.front().first < first_live) {
    dead += bws.front().second;
    bws.pop_front();
  }
  index.EvictBelow(dead);
}

void DeltaGroupTrack::TrimIfWorthIt() {
  if (dead == 0 || dead <= counts.size() - dead) return;
  counts.erase(counts.begin(), counts.begin() + static_cast<int64_t>(dead));
  for (ops::AggColumn& st : states) st.DropHead(dead);
  bw_of.erase(bw_of.begin(), bw_of.begin() + static_cast<int64_t>(dead));
  index.Rebase();
  dead = 0;
}

size_t DeltaGroupTrack::MemoryBytes() const {
  size_t total = counts.capacity() * sizeof(uint64_t) +
                 bw_of.capacity() * sizeof(int64_t) + index.MemoryBytes();
  for (const ops::AggColumn& st : states) total += st.MemoryBytes();
  return total;
}

QueryExecutor::QueryExecutor(plan::CompiledQuery cq) : cq_(std::move(cq)) {
  const plan::BoundQuery& q = cq_.bound;
  if (q.is_aggregate) {
    for (const plan::BExprPtr& k : q.group_by) {
      fragment_types_.push_back(k->type);
    }
    for (const plan::BoundAgg& a : q.aggs) {
      if (a.arg) fragment_types_.push_back(a.arg_type);
    }
  } else {
    for (const plan::BExprPtr& e : q.select_exprs) {
      fragment_types_.push_back(e->type);
    }
    for (const auto& [e, asc] : q.order_by) fragment_types_.push_back(e->type);
  }
}

Result<StageOutput> QueryExecutor::RunPrejoin(int rel,
                                              const StageInput& raw) const {
  std::vector<StageInput> inputs(cq_.prejoin.size());
  inputs[rel] = raw;
  return ExecuteProgram(cq_.prejoin[rel], inputs);
}

Result<StageOutput> QueryExecutor::RunPostjoin(
    const std::vector<StageInput>& compact) const {
  return ExecuteProgram(cq_.postjoin, compact);
}

Result<DeltaFrag> QueryExecutor::RunPostjoinDelta(
    const std::vector<StageInput>& compact) const {
  if (!cq_.has_delta_postjoin) {
    return Status::Internal("query has no delta postjoin stage");
  }
  DC_ASSIGN_OR_RETURN(StageOutput out,
                      ExecuteProgram(cq_.delta_postjoin, compact));
  if (out.cols.size() < 2) {
    return Status::Internal("delta postjoin missing ordinal outputs");
  }
  DeltaFrag df;
  const BatPtr rbw = out.cols.back();
  out.cols.pop_back();
  const BatPtr lbw = out.cols.back();
  out.cols.pop_back();
  const auto lspan = lbw->I64Data();
  const auto rspan = rbw->I64Data();
  df.left_bw.assign(lspan.begin(), lspan.end());
  df.right_bw.assign(rspan.begin(), rspan.end());
  df.frag = std::move(out);
  return df;
}

Result<Partial> QueryExecutor::MakePartial(const StageOutput& frag) const {
  Partial p;
  p.rows = frag.rows;
  const plan::FinishSpec& f = cq_.finish;
  if (!f.is_aggregate) {
    p.frag_cols = frag.cols;
    // Pre-sort the partial by the hidden sort columns: every partial is
    // then a sorted run and Finish merges runs instead of re-sorting the
    // merged window (stable, so FULL — a single whole-window partial —
    // and INCREMENTAL agree).
    if (!f.sort_cols.empty() && p.rows > 1) {
      std::vector<ops::SortKey> keys;
      for (const auto& [slot, asc] : f.sort_cols) {
        keys.push_back(ops::SortKey{p.frag_cols[slot].get(), asc});
      }
      DC_ASSIGN_OR_RETURN(std::vector<Oid> order, ops::SortOrder(keys));
      for (BatPtr& c : p.frag_cols) c = ops::FetchOids(*c, order);
    }
    return p;
  }
  std::vector<const Bat*> values;
  for (size_t i = 0; i < cq_.bound.aggs.size(); ++i) {
    const int slot = cq_.agg_arg_slots[i];
    values.push_back(slot < 0 ? nullptr : frag.cols[slot].get());
  }
  p.grouped.Reset(f.key_types, f.agg_layout);
  if (cq_.num_keys == 0) {
    DC_RETURN_NOT_OK(p.grouped.AddRows(frag.rows, values));
    return p;
  }
  std::vector<const Bat*> keys;
  for (int k = 0; k < cq_.num_keys; ++k) keys.push_back(frag.cols[k].get());
  DC_RETURN_NOT_OK(p.grouped.AddRows(keys, values));
  return p;
}

Status QueryExecutor::BuildDeltaGroups(int side, const StageOutput& compact,
                                       ops::GroupTable* groups) const {
  const auto& pa = cq_.delta_pre_agg;
  if (!pa.eligible) {
    return Status::Internal("query has no delta pre-aggregation");
  }
  const int key_slot = cq_.join_key_slots[side];
  if (key_slot < 0 || static_cast<size_t>(key_slot) >= compact.cols.size()) {
    return Status::Internal("delta pre-agg: bad key slot");
  }
  const Bat* key = compact.cols[key_slot].get();

  // This side's local aggregates (query order) and their compact slots.
  std::vector<std::pair<ops::AggKind, TypeId>> layout;
  std::vector<const Bat*> arg_cols;
  for (size_t i = 0; i < pa.agg_side.size(); ++i) {
    if (pa.agg_side[i] != side) continue;
    const int slot = pa.agg_slot[i];
    if (slot < 0 || static_cast<size_t>(slot) >= compact.cols.size()) {
      return Status::Internal("delta pre-agg: bad argument slot");
    }
    arg_cols.push_back(compact.cols[slot].get());
    layout.emplace_back(cq_.bound.aggs[i].kind, cq_.bound.aggs[i].arg_type);
  }
  groups->Reset({key->type()}, std::move(layout));
  return groups->AddRows({key}, arg_cols);
}

Result<ColumnSet> QueryExecutor::Finish(
    const std::vector<const Partial*>& partials) const {
  if (cq_.finish.is_aggregate) return FinishAggregate(partials);
  return FinishPlain(partials);
}

Result<BatPtr> EvalFinishExpr(const plan::BExpr& e,
                              const std::vector<BatPtr>& key_cols,
                              const std::vector<BatPtr>& agg_cols,
                              uint64_t rows) {
  using plan::BKind;
  switch (e.kind) {
    case BKind::kKeyRef:
      return key_cols[e.index];
    case BKind::kAggRef:
      return agg_cols[e.index];
    case BKind::kLiteral:
      return ops::MakeConstColumn(e.literal, rows);
    case BKind::kArith: {
      DC_ASSIGN_OR_RETURN(
          BatPtr l, EvalFinishExpr(*e.children[0], key_cols, agg_cols, rows));
      DC_ASSIGN_OR_RETURN(
          BatPtr r, EvalFinishExpr(*e.children[1], key_cols, agg_cols, rows));
      return ops::MapArith(*l, e.arith_op, *r);
    }
    case BKind::kCmp: {
      DC_ASSIGN_OR_RETURN(
          BatPtr l, EvalFinishExpr(*e.children[0], key_cols, agg_cols, rows));
      DC_ASSIGN_OR_RETURN(
          BatPtr r, EvalFinishExpr(*e.children[1], key_cols, agg_cols, rows));
      return ops::MapCmpCol(*l, e.cmp_op, *r);
    }
    case BKind::kAnd:
    case BKind::kOr: {
      DC_ASSIGN_OR_RETURN(
          BatPtr l, EvalFinishExpr(*e.children[0], key_cols, agg_cols, rows));
      DC_ASSIGN_OR_RETURN(
          BatPtr r, EvalFinishExpr(*e.children[1], key_cols, agg_cols, rows));
      return e.kind == BKind::kAnd ? ops::MapAnd(*l, *r) : ops::MapOr(*l, *r);
    }
    case BKind::kNot: {
      DC_ASSIGN_OR_RETURN(
          BatPtr c, EvalFinishExpr(*e.children[0], key_cols, agg_cols, rows));
      return ops::MapNot(*c);
    }
    case BKind::kColRef:
      break;
  }
  return Status::Internal("EvalFinishExpr: input-domain node");
}

Result<ColumnSet> QueryExecutor::FinishAggregate(
    const std::vector<const Partial*>& partials) const {
  const plan::FinishSpec& f = cq_.finish;
  // A scalar aggregate merges into a one-group table: exactly one output
  // row, even over empty input.
  ops::GroupTable merged(f.key_types, f.agg_layout);
  for (const Partial* p : partials) {
    DC_RETURN_NOT_OK(merged.Merge(p->grouped));
  }
  DC_ASSIGN_OR_RETURN(std::vector<BatPtr> cols, merged.Finalize());
  const auto nkeys = static_cast<std::ptrdiff_t>(cq_.num_keys);
  std::vector<BatPtr> key_cols(cols.begin(), cols.begin() + nkeys);
  std::vector<BatPtr> agg_cols(cols.begin() + nkeys, cols.end());
  uint64_t rows = merged.num_groups();

  // Select list.
  ColumnSet out;
  out.names = f.out_names;
  for (const plan::BExprPtr& e : f.select_exprs) {
    DC_ASSIGN_OR_RETURN(BatPtr col,
                        EvalFinishExpr(*e, key_cols, agg_cols, rows));
    out.cols.push_back(std::move(col));
  }

  // HAVING filters groups (applies equally to key/agg columns so ORDER BY
  // sees only surviving groups).
  if (f.having) {
    DC_ASSIGN_OR_RETURN(BatPtr pred,
                        EvalFinishExpr(*f.having, key_cols, agg_cols, rows));
    DC_ASSIGN_OR_RETURN(Candidates cand, ops::SelectTrue(*pred));
    for (BatPtr& c : out.cols) c = c->Gather(cand);
    for (BatPtr& c : key_cols) c = c->Gather(cand);
    for (BatPtr& c : agg_cols) c = c->Gather(cand);
    rows = cand.size();
  }

  // ORDER BY over finish-domain expressions.
  if (!f.order_by.empty()) {
    std::vector<BatPtr> sort_cols;
    std::vector<ops::SortKey> keys;
    for (const auto& [e, asc] : f.order_by) {
      DC_ASSIGN_OR_RETURN(BatPtr col,
                          EvalFinishExpr(*e, key_cols, agg_cols, rows));
      sort_cols.push_back(col);
      keys.push_back(ops::SortKey{sort_cols.back().get(), asc});
    }
    DC_ASSIGN_OR_RETURN(std::vector<Oid> order, ops::SortOrder(keys));
    for (BatPtr& c : out.cols) c = ops::FetchOids(*c, order);
  }

  if (f.limit >= 0 && out.NumRows() > static_cast<uint64_t>(f.limit)) {
    for (BatPtr& c : out.cols) c = c->Slice(0, f.limit);
  }
  return out;
}

Result<ColumnSet> QueryExecutor::FinishPlain(
    const std::vector<const Partial*>& partials) const {
  const plan::FinishSpec& f = cq_.finish;
  std::vector<BatPtr> cols;
  for (TypeId t : fragment_types_) cols.push_back(Bat::MakeEmpty(t));

  // Partials that actually carry fragment rows (a partial may be missing
  // columns only when it is empty).
  std::vector<const Partial*> runs;
  for (const Partial* p : partials) {
    if (p->rows > 0 && p->frag_cols.size() >= cols.size()) runs.push_back(p);
  }

  if (!f.sort_cols.empty() && !runs.empty()) {
    // ORDER BY tail: each partial is already a sorted run (MakePartial),
    // so merge the runs instead of re-sorting the whole window. Stable
    // merge + stable per-run sort == stable sort of the concatenation,
    // which keeps FULL and INCREMENTAL emissions identical.
    std::vector<std::vector<ops::SortKey>> run_keys(runs.size());
    for (size_t r = 0; r < runs.size(); ++r) {
      for (const auto& [slot, asc] : f.sort_cols) {
        run_keys[r].push_back(
            ops::SortKey{runs[r]->frag_cols[slot].get(), asc});
      }
    }
    DC_ASSIGN_OR_RETURN(std::vector<ops::MergeSlice> merged,
                        ops::MergeSortedRuns(run_keys));
    uint64_t total = 0;
    for (const ops::MergeSlice& s : merged) total += s.len;
    for (size_t c = 0; c < cols.size(); ++c) {
      cols[c]->Reserve(total);
      // Each slice is a maximal run-length of consecutive rows from one
      // run, so the gather is a handful of bulk copies per batch instead
      // of one AppendRange call per row.
      for (const ops::MergeSlice& s : merged) {
        cols[c]->AppendRange(*runs[s.run]->frag_cols[c], s.begin,
                             s.begin + s.len);
      }
    }
  } else {
    // No ORDER BY: concatenate fragment outputs in partial order.
    for (const Partial* p : runs) {
      for (size_t c = 0; c < cols.size(); ++c) {
        cols[c]->AppendRange(*p->frag_cols[c], 0, p->frag_cols[c]->size());
      }
    }
  }

  ColumnSet out;
  out.names = f.out_names;
  for (int i = 0; i < f.num_visible; ++i) out.cols.push_back(cols[i]);
  if (f.limit >= 0 && out.NumRows() > static_cast<uint64_t>(f.limit)) {
    for (BatPtr& c : out.cols) c = c->Slice(0, f.limit);
  }
  return out;
}

std::vector<TypeId> OutputTypes(const plan::CompiledQuery& cq) {
  std::vector<TypeId> out;
  const auto& exprs = cq.finish.is_aggregate ? cq.finish.select_exprs
                                             : cq.bound.select_exprs;
  for (const plan::BExprPtr& e : exprs) out.push_back(e->type);
  return out;
}

Result<Partial> QueryExecutor::ComputePartial(
    const std::vector<StageInput>& raw) const {
  std::vector<StageInput> compact(cq_.prejoin.size());
  for (size_t r = 0; r < cq_.prejoin.size(); ++r) {
    DC_ASSIGN_OR_RETURN(StageOutput pre,
                        RunPrejoin(static_cast<int>(r), raw[r]));
    compact[r] = StageInput{std::move(pre.cols), pre.rows};
  }
  DC_ASSIGN_OR_RETURN(StageOutput frag, RunPostjoin(compact));
  return MakePartial(frag);
}

Result<ColumnSet> QueryExecutor::ExecuteFull(
    const std::vector<StageInput>& raw) const {
  DC_ASSIGN_OR_RETURN(Partial p, ComputePartial(raw));
  return Finish({&p});
}

}  // namespace dc::exec
