#include "core/factory.h"

#include <algorithm>

#include "bat/ops_join.h"
#include "monitor/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace dc {

const char* ExecModeName(ExecMode m) {
  return m == ExecMode::kFullReeval ? "full" : "incremental";
}

Factory::Factory(int id, std::string name,
                 std::shared_ptr<exec::QueryExecutor> executor, ExecMode mode,
                 std::vector<FactoryInput> inputs,
                 std::shared_ptr<Basket> output, SharedWindowNodePtr node,
                 int node_sub)
    : id_(id),
      name_(std::move(name)),
      executor_(std::move(executor)),
      mode_(mode),
      inputs_(std::move(inputs)),
      output_(std::move(output)),
      node_(std::move(node)),
      node_sub_(node_sub) {}

Factory::~Factory() {
  for (const FactoryInput& in : inputs_) {
    if (in.is_stream && in.basket != nullptr && in.reader_id >= 0) {
      in.basket->UnregisterReader(in.reader_id);
    }
  }
}

Result<std::shared_ptr<Factory>> Factory::Create(
    int id, std::string name, std::shared_ptr<exec::QueryExecutor> executor,
    ExecMode mode, std::vector<FactoryInput> inputs,
    std::shared_ptr<Basket> output, SharedWindowNodePtr node, int node_sub) {
  auto f = std::shared_ptr<Factory>(new Factory(
      id, std::move(name), std::move(executor), mode, std::move(inputs),
      std::move(output), std::move(node), node_sub));
  {
    // Pre-publication, so uncontended — taken for the thread-safety
    // analysis, which checks Validate's guarded writes against mu_.
    MutexLock lock(f->mu_);
    DC_RETURN_NOT_OK(f->Validate());
  }
  return f;
}

Status Factory::Validate() {
  const plan::CompiledQuery& cq = executor_->compiled();
  if (inputs_.size() != cq.bound.rels.size()) {
    return Status::InvalidArgument("factory inputs do not match plan");
  }
  origin_seq_.assign(inputs_.size(), 0);
  int num_streams = 0;
  int num_windowed = 0;
  for (size_t r = 0; r < inputs_.size(); ++r) {
    FactoryInput& in = inputs_[r];
    if (in.is_stream) {
      // Node tails carry no reader of their own: the node owns the one
      // reader, and window coordinates anchor at the node's origin.
      if (in.basket == nullptr ||
          (in.reader_id < 0 && node_ == nullptr)) {
        return Status::InvalidArgument("stream input missing basket/reader");
      }
      if (num_streams >= 2) {
        return Status::NotImplemented("more than two stream inputs");
      }
      stream_rels_[num_streams++] = static_cast<int>(r);
      origin_seq_[r] = node_ != nullptr
                           ? node_->origin_seq()
                           : in.basket->ReaderCursor(in.reader_id);
      if (in.window.has_value()) ++num_windowed;
    } else {
      if (in.table == nullptr) {
        return Status::InvalidArgument("table input missing table");
      }
      if (table_rel_ >= 0) {
        return Status::NotImplemented("more than one table input");
      }
      table_rel_ = static_cast<int>(r);
    }
  }
  if (num_streams == 0) {
    return Status::InvalidArgument(
        "continuous query requires at least one stream input");
  }
  if (num_streams == 2) {
    const auto& wl = inputs_[stream_rels_[0]].window;
    const auto& wr = inputs_[stream_rels_[1]].window;
    if (!wl.has_value() || !wr.has_value() || wl->rows || wr->rows) {
      return Status::NotImplemented(
          "stream-stream joins require RANGE windows on both streams");
    }
    if (wl->slide != wr->slide) {
      return Status::NotImplemented(
          "stream-stream joins require equal window slides");
    }
    shape_ = Shape::kDualWindow;
  } else if (num_windowed == 1) {
    shape_ = Shape::kSingleWindow;
  } else {
    shape_ = Shape::kPerBatch;
    batch_cursor_ = origin_seq_[stream_rels_[0]];
  }

  // Decide whether incremental processing is applicable. The rule itself
  // (plan::IncrementalEligible) is shared with the compiler's EXPLAIN
  // classification; it is evaluated here over the factory's actual input
  // windows, which tests may inject independently of the SQL.
  incremental_active_ = false;
  if (mode_ == ExecMode::kIncremental && shape_ != Shape::kPerBatch) {
    std::vector<const plan::WindowSpec*> windows;
    for (int s = 0; s < 2; ++s) {
      const int rel = stream_rels_[s];
      if (rel < 0) continue;
      windows.push_back(inputs_[rel].window.has_value()
                            ? &*inputs_[rel].window
                            : nullptr);
    }
    incremental_active_ = plan::IncrementalEligible(windows);
    stats_.fell_back_to_full = !incremental_active_;
  }
  // An incremental single window keeps its partials in a node — it is a
  // tail exactly when that applies (docs/SHARING.md).
  const bool wants_node =
      shape_ == Shape::kSingleWindow && incremental_active_;
  if (wants_node != (node_ != nullptr)) {
    return Status::InvalidArgument(
        wants_node ? "incremental window requires a SharedWindowNode"
                   : "only an incremental divisible single-stream window "
                     "runs on a SharedWindowNode");
  }
  if (node_ != nullptr) {
    const int rel = stream_rels_[0];
    const plan::WindowSpec& w = *inputs_[rel].window;
    const Table* table =
        table_rel_ >= 0 ? inputs_[table_rel_].table.get() : nullptr;
    if (node_sub_ < 0 || inputs_[rel].basket != node_->basket() ||
        table != node_->table()) {
      return Status::InvalidArgument(
          "node tail needs a subscription to a node over its stream and "
          "table");
    }
    if (!node_->Compatible(w.rows, w.slide)) {
      return Status::InvalidArgument(
          "node tail window is not grid-compatible with its node");
    }
  }
  if (shape_ == Shape::kDualWindow) {
    // Local-aggregate numbering for the pre-aggregated delta path: each
    // side's delta groups carry states only for the aggregates whose
    // argument lives on that side, in query order.
    const auto& pa = cq.delta_pre_agg;
    preagg_local_.assign(pa.agg_side.size(), -1);
    int next_local[2] = {0, 0};
    for (size_t i = 0; i < pa.agg_side.size(); ++i) {
      if (pa.agg_side[i] >= 0) {
        preagg_local_[i] = next_local[pa.agg_side[i]]++;
      }
    }
  }
  return Status::OK();
}

void Factory::Pause() {
  MutexLock lock(mu_);
  paused_ = true;
  stats_.paused = true;
}

void Factory::Resume() {
  MutexLock lock(mu_);
  paused_ = false;
  stats_.paused = false;
}

bool Factory::paused() const {
  MutexLock lock(mu_);
  return paused_;
}

std::vector<Basket*> Factory::InputBaskets() const {
  std::vector<Basket*> out;
  for (const FactoryInput& in : inputs_) {
    if (!in.is_stream || in.basket == nullptr) continue;
    if (std::find(out.begin(), out.end(), in.basket) == out.end()) {
      out.push_back(in.basket);
    }
  }
  return out;
}

FactoryStats Factory::Stats() const {
  MutexLock lock(mu_);
  FactoryStats s = stats_;
  s.cached_partials = partials_.size();
  size_t bytes = 0;
  for (const auto& [k, p] : partials_) bytes += p.MemoryBytes();
  // Rolling delta-join state (one of the two sets is in use, the other
  // stays empty — row path vs pre-aggregated path).
  for (int side = 0; side < 2; ++side) {
    const exec::DeltaSideState& ds = delta_side_[side];
    const exec::DeltaGroupTrack& gt = delta_groups_[side];
    s.retained_rows += ds.live_rows() + gt.live_groups();
    s.index_entries += ds.index.live_entries() + gt.index.live_entries();
    bytes += ds.MemoryBytes() + gt.MemoryBytes();
  }
  s.cached_bytes = bytes;
  return s;
}

storage::FactoryProgress Factory::SnapshotProgress() const {
  MutexLock lock(mu_);
  storage::FactoryProgress p;
  p.origins = origin_seq_;
  p.has_next_emission = next_emission_.has_value();
  p.next_emission = next_emission_.value_or(0);
  p.batch_cursor = batch_cursor_;
  p.emissions = stats_.emissions;
  return p;
}

Status Factory::RestoreProgress(const storage::FactoryProgress& p) {
  MutexLock lock(mu_);
  if (stats_.invocations > 0) {
    return Status::InvalidArgument(StrFormat(
        "factory %s: RestoreProgress after it already fired", name_.c_str()));
  }
  if (p.origins.size() != origin_seq_.size()) {
    return Status::InvalidArgument(
        StrFormat("factory %s: progress has %zu origins, factory has %zu "
                  "inputs",
                  name_.c_str(), p.origins.size(), origin_seq_.size()));
  }
  if (node_ != nullptr) {
    const int rel = stream_rels_[0];
    if (p.origins[rel] != node_->origin_seq()) {
      return Status::InvalidArgument(StrFormat(
          "factory %s: restored stream origin %llu differs from node %s "
          "origin %llu",
          name_.c_str(), static_cast<unsigned long long>(p.origins[rel]),
          node_->label().c_str(),
          static_cast<unsigned long long>(node_->origin_seq())));
    }
  }
  // Only cursors are restored. Reader cursors self-heal (each fire
  // re-advances them), and window/partial/join state rebuilds from the
  // replayed rows — delta_seeded_ stays false so the first dual-window
  // emission re-joins the whole initial window.
  origin_seq_ = p.origins;
  if (p.has_next_emission) {
    next_emission_ = p.next_emission;
  } else {
    next_emission_.reset();
  }
  batch_cursor_ = p.batch_cursor;
  stats_.emissions = p.emissions;
  return Status::OK();
}

bool Factory::CheckReady() const {
  MutexLock lock(mu_);
  return CheckReadyLocked();
}

bool Factory::EnsureRangeOrigin(int rel, int64_t* m) const {
  if (next_emission_.has_value()) {
    *m = *next_emission_;
    return true;
  }
  const FactoryInput& in = inputs_[rel];
  const BasketView view = in.basket->Read(origin_seq_[rel], 1);
  if (view.rows == 0) return false;
  const WindowMath wm(*in.window);
  const int64_t ts0 =
      view.cols[in.basket->ts_col()]->I64Data()[0];
  *m = wm.FirstRangeEmission(ts0);
  return true;
}

bool Factory::CheckReadyLocked() const {
  if (paused_ || failed_) return false;
  switch (shape_) {
    case Shape::kPerBatch: {
      const int rel = stream_rels_[0];
      return inputs_[rel].basket->HighSeq() > batch_cursor_;
    }
    case Shape::kSingleWindow: {
      // Node tails probe like full re-evaluation: origin_seq_ was anchored
      // at the node's origin in Validate, and readiness only reads the
      // basket's high seq / watermark.
      const int rel = stream_rels_[0];
      const FactoryInput& in = inputs_[rel];
      const WindowMath wm(*in.window);
      if (in.window->rows) {
        // A sealed stream can never complete another ROWS window; the
        // factory goes dormant on the trailing partial window.
        const int64_t k = next_emission_.value_or(0);
        const uint64_t high = in.basket->HighSeq();
        return high >= origin_seq_[rel] &&
               wm.RowsReady(k, high - origin_seq_[rel]);
      }
      int64_t m = 0;
      if (!EnsureRangeOrigin(rel, &m)) return false;
      next_emission_ = m;
      return RangeSideReady(rel, wm, m);
    }
    case Shape::kDualWindow: {
      const int l = stream_rels_[0];
      const int r = stream_rels_[1];
      if (!next_emission_.has_value()) {
        // Boundaries are shared (equal slide); start at the later of the
        // two streams' first windows so both sides have coverage.
        int64_t ml = 0, mr = 0;
        if (!EnsureRangeOrigin(l, &ml)) return false;
        if (!EnsureRangeOrigin(r, &mr)) return false;
        next_emission_ = std::max(ml, mr);
      }
      const int64_t m = *next_emission_;
      return RangeSideReady(l, WindowMath(*inputs_[l].window), m) &&
             RangeSideReady(r, WindowMath(*inputs_[r].window), m);
    }
  }
  return false;
}

bool Factory::RangeSideReady(int rel, const WindowMath& wm, int64_t m) const {
  const Basket* b = inputs_[rel].basket;
  const Micros watermark = b->EventWatermark();
  if (wm.RangeReady(m, watermark)) return true;
  // A sealed stream flushes every window that could still contain data,
  // then the factory goes dormant for that side.
  return b->sealed() && wm.RangeExtent(m).first <= watermark;
}

Result<exec::StageInput> Factory::ReadStreamExtent(int rel, int64_t lo,
                                                   int64_t hi) const {
  const FactoryInput& in = inputs_[rel];
  return ReadWindowExtent(*in.basket, origin_seq_[rel], in.window->rows, lo,
                          hi);
}

exec::StageInput Factory::TableInput(int rel) const {
  const TableVersionPtr snap = inputs_[rel].table->Snapshot();
  return exec::StageInput{snap->cols, snap->NumRows()};
}

Micros Factory::TriggerStampLocked(int64_t emission) const {
  Micros stamp = -1;
  for (int s = 0; s < 2; ++s) {
    const int rel = stream_rels_[s];
    if (rel < 0) continue;
    const FactoryInput& in = inputs_[rel];
    if (!in.is_stream || in.basket == nullptr || !in.window.has_value()) {
      continue;
    }
    const WindowMath wm(*in.window);
    Micros t;
    if (in.window->rows) {
      t = in.basket->IngestStampForSeq(
          origin_seq_[rel] + static_cast<uint64_t>(wm.RowsWindowEnd(emission)));
    } else {
      t = in.basket->IngestStampForWatermark(wm.RangeBoundary(emission));
    }
    stamp = std::max(stamp, t);
  }
  return stamp;
}

Status Factory::EmitResult(const ColumnSet& result, Micros trigger_us) {
  // Zero-row results are appended too: the basket records their batch
  // boundary, so the emitter delivers the empty result set and `emissions`
  // stays equal to emitter-delivered emissions.
  DC_RETURN_NOT_OK(
      output_->Append(result.cols, Basket::kBlockForever, trigger_us));
  stats_.tuples_out += result.NumRows();
  stats_.emissions++;
  if (result.NumRows() == 0) stats_.empty_emissions++;
  return Status::OK();
}

Status Factory::Fire() {
  MutexLock lock(mu_);
  if (!CheckReadyLocked()) return Status::OK();
  trace::Span span("factory.fire", "factory", id_);
  Stopwatch watch;
  Status st = FireLocked();
  stats_.invocations++;
  stats_.total_exec_micros += watch.ElapsedMicros();
  if (!st.ok()) {
    failed_ = true;
    last_error_ = st.ToString();
    stats_.last_error = last_error_;
    DC_LOG(kError) << "factory " << name_ << " failed: " << st.ToString();
  }
  return st;
}

Status Factory::FireLocked() {
  switch (shape_) {
    case Shape::kPerBatch:
      return FirePerBatch();
    case Shape::kSingleWindow:
      return FireSingleWindow();
    case Shape::kDualWindow:
      return FireDualWindow();
  }
  return Status::Internal("bad shape");
}

Status Factory::FirePerBatch() {
  const int rel = stream_rels_[0];
  const FactoryInput& in = inputs_[rel];
  const uint64_t high = in.basket->HighSeq();
  if (high <= batch_cursor_) return Status::OK();
  // The emission's response clock started when its oldest pending row
  // arrived (worst case across the consumed batches).
  const Micros trigger = in.basket->IngestStampForSeq(batch_cursor_ + 1);
  BasketView view = in.basket->Read(batch_cursor_, high - batch_cursor_);
  std::vector<exec::StageInput> raw(inputs_.size());
  raw[rel] = exec::StageInput{std::move(view.cols), view.rows};
  if (table_rel_ >= 0) raw[table_rel_] = TableInput(table_rel_);
  stats_.tuples_in += raw[rel].rows;
  DC_ASSIGN_OR_RETURN(ColumnSet result, executor_->ExecuteFull(raw));
  DC_RETURN_NOT_OK(EmitResult(result, trigger));
  batch_cursor_ = view.first_seq + view.rows;
  in.basket->AdvanceReader(in.reader_id, batch_cursor_);
  return Status::OK();
}

Status Factory::FireSingleWindow() {
  const int rel = stream_rels_[0];
  const FactoryInput& in = inputs_[rel];
  const WindowMath wm(*in.window);
  const bool rows_mode = in.window->rows;
  const int64_t k = next_emission_.value_or(0);

  int64_t ext_lo, ext_hi;  // window extent in window coordinates
  if (rows_mode) {
    ext_lo = wm.RowsWindowStart(k);
    ext_hi = wm.RowsWindowEnd(k);
  } else {
    std::tie(ext_lo, ext_hi) = wm.RangeExtent(k);
  }
  const Micros trigger = TriggerStampLocked(k);
  // Everything before the next window's start is released after emitting.
  const int64_t next_lo =
      rows_mode ? wm.RowsWindowStart(k + 1) : wm.RangeExtent(k + 1).first;

  if (node_ != nullptr) {
    // The node serves (and caches) the grid partials covering this window;
    // whichever subscriber fires first pays for a build, later ones hit.
    std::vector<PartialPtr> parts;
    uint64_t built = 0, hits = 0, rows_in = 0;
    DC_RETURN_NOT_OK(
        node_->EnsureRange(ext_lo, ext_hi, &parts, &built, &hits, &rows_in));
    stats_.fragments_computed += built;
    stats_.sharing_hits += hits;
    stats_.tuples_in += rows_in;
    std::vector<const exec::Partial*> ps;
    ps.reserve(parts.size());
    for (const PartialPtr& p : parts) ps.push_back(p.get());
    DC_ASSIGN_OR_RETURN(ColumnSet result, executor_->Finish(ps));
    DC_RETURN_NOT_OK(EmitResult(result, trigger));
    // The node advances its reader / evicts at the minimum mark across
    // subscribers.
    node_->Release(node_sub_, next_lo);
  } else {
    std::vector<exec::StageInput> raw(inputs_.size());
    DC_ASSIGN_OR_RETURN(raw[rel], ReadStreamExtent(rel, ext_lo, ext_hi));
    if (table_rel_ >= 0) raw[table_rel_] = TableInput(table_rel_);
    stats_.tuples_in += raw[rel].rows;
    DC_ASSIGN_OR_RETURN(ColumnSet result, executor_->ExecuteFull(raw));
    DC_RETURN_NOT_OK(EmitResult(result, trigger));
    if (rows_mode) {
      in.basket->AdvanceReader(in.reader_id,
                               origin_seq_[rel] + static_cast<uint64_t>(next_lo));
    } else {
      DC_ASSIGN_OR_RETURN(auto range,
                          in.basket->SeqRangeForTs(next_lo, next_lo + 1));
      in.basket->AdvanceReader(in.reader_id, range.first);
    }
  }
  next_emission_ = k + 1;
  return Status::OK();
}

Status Factory::FireDualWindow() {
  const int l = stream_rels_[0];
  const int r = stream_rels_[1];
  const WindowMath wl(*inputs_[l].window);
  const WindowMath wr(*inputs_[r].window);
  const int64_t m = *next_emission_;

  if (!incremental_active_) {
    std::vector<exec::StageInput> raw(inputs_.size());
    const auto [llo, lhi] = wl.RangeExtent(m);
    const auto [rlo, rhi] = wr.RangeExtent(m);
    DC_ASSIGN_OR_RETURN(raw[l], ReadStreamExtent(l, llo, lhi));
    DC_ASSIGN_OR_RETURN(raw[r], ReadStreamExtent(r, rlo, rhi));
    stats_.tuples_in += raw[l].rows + raw[r].rows;
    DC_ASSIGN_OR_RETURN(ColumnSet result, executor_->ExecuteFull(raw));
    DC_RETURN_NOT_OK(EmitResult(result, TriggerStampLocked(m)));
  } else {
    DC_RETURN_NOT_OK(FireDualWindowDelta(m, wl, wr));
  }

  for (int s = 0; s < 2; ++s) {
    const int rel = stream_rels_[s];
    const WindowMath& wm = s == 0 ? wl : wr;
    const auto [next_lo, next_hi] = wm.RangeExtent(m + 1);
    DC_ASSIGN_OR_RETURN(
        auto range, inputs_[rel].basket->SeqRangeForTs(next_lo, next_lo + 1));
    inputs_[rel].basket->AdvanceReader(inputs_[rel].reader_id, range.first);
  }
  next_emission_ = m + 1;
  return Status::OK();
}

Result<exec::StageOutput> Factory::PrejoinBasicWindow(int rel, int64_t bw) {
  const WindowMath wm(*inputs_[rel].window);
  const auto [lo, hi] = wm.BasicWindowExtent(bw);
  DC_ASSIGN_OR_RETURN(exec::StageInput raw, ReadStreamExtent(rel, lo, hi));
  stats_.tuples_in += raw.rows;
  return executor_->RunPrejoin(rel, raw);
}

Status Factory::FireDeltaRows(int64_t m, int64_t lfirst, int64_t rfirst,
                              int64_t nl, int64_t nr) {
  const plan::CompiledQuery& cq = executor_->compiled();
  const int64_t firsts[2] = {lfirst, rfirst};

  // Roll each side forward: mark expired basic windows dead, then append
  // the new basic window(s) — m-1 in steady state, the whole initial
  // window on the seed fire (the indexes are empty then, so every pair
  // comes out of the new x new hash join).
  std::vector<exec::StageInput> compact(inputs_.size());
  uint64_t old_rows[2] = {0, 0};
  for (int s = 0; s < 2; ++s) {
    exec::DeltaSideState& ds = delta_side_[s];
    if (!delta_seeded_) ds.Reset(cq.join_key_domain, cq.join_key_slots[s]);
    ds.EvictBefore(firsts[s]);
    old_rows[s] = ds.rows;
    for (int64_t j = delta_seeded_ ? m - 1 : firsts[s]; j < m; ++j) {
      DC_ASSIGN_OR_RETURN(exec::StageOutput pre,
                          PrejoinBasicWindow(stream_rels_[s], j));
      DC_RETURN_NOT_OK(ds.AppendBasicWindow(j, pre));
    }
    compact[stream_rels_[s]] =
        exec::StageInput{ds.cols, ds.rows, old_rows[s], &ds.index};
  }

  DC_ASSIGN_OR_RETURN(exec::DeltaFrag df,
                      executor_->RunPostjoinDelta(compact));
  stats_.fragments_computed++;
  stats_.delta_pairs += df.frag.rows;
  // Index the new rows only after the probe: the retained index must
  // never cover the emission that probes it.
  for (int s = 0; s < 2; ++s) {
    DC_RETURN_NOT_OK(delta_side_[s].IndexNewRows(old_rows[s]));
  }

  // Bucket the new pairs by the emission at which they leave the window:
  // pair (jl, jr) is live while m' <= min(jl + nl, jr + nr), so its
  // expiry lands in [m + 1, m + min(nl, nr)] and the reusable scratch is
  // indexed by expiry - (m + 1). Partials are keyed {expiry, created}, so
  // expiry evicts whole buckets — no retained row is ever rescanned.
  const size_t nbuckets = static_cast<size_t>(std::min(nl, nr));
  if (expiry_rows_.size() < nbuckets) expiry_rows_.resize(nbuckets);
  for (uint64_t i = 0; i < df.frag.rows; ++i) {
    const int64_t idx = std::min(df.left_bw[i] + nl, df.right_bw[i] + nr) - m;
    if (idx < 0 || static_cast<size_t>(idx) >= nbuckets) {
      return Status::Internal("delta join: pair expiry out of range");
    }
    expiry_rows_[idx].push_back(static_cast<Oid>(i));
  }
  for (size_t idx = 0; idx < nbuckets; ++idx) {
    std::vector<Oid>& rows = expiry_rows_[idx];
    if (rows.empty()) continue;
    exec::StageOutput bucket;
    bucket.rows = rows.size();
    for (const BatPtr& col : df.frag.cols) {
      bucket.cols.push_back(ops::FetchOids(*col, rows));
    }
    rows.clear();  // keep capacity for the next fire
    DC_ASSIGN_OR_RETURN(exec::Partial p, executor_->MakePartial(bucket));
    partials_.insert_or_assign(
        PartialKey{m + 1 + static_cast<int64_t>(idx), m}, std::move(p));
  }

  for (int s = 0; s < 2; ++s) delta_side_[s].TrimIfWorthIt();
  return Status::OK();
}

Status Factory::FireDeltaPreAgg(int64_t m, int64_t lfirst, int64_t rfirst,
                                int64_t nl, int64_t nr) {
  const plan::CompiledQuery& cq = executor_->compiled();
  const auto& pa = cq.delta_pre_agg;
  const size_t nagg = pa.agg_side.size();
  const size_t nbuckets = static_cast<size_t>(std::min(nl, nr));
  // One accumulator group per expiry bucket, per aggregate.
  if (expiry_states_.empty()) {
    for (const auto& [kind, type] : cq.finish.agg_layout) {
      expiry_states_.emplace_back(kind, type);
    }
  }
  for (ops::AggColumn& st : expiry_states_) {
    st.Resize(0);
    st.Resize(nbuckets);
  }
  expiry_dirty_.assign(nbuckets, 0);
  if (!delta_seeded_) {
    delta_groups_[0].Reset(cq.join_key_domain);
    delta_groups_[1].Reset(cq.join_key_domain);
  }
  delta_groups_[0].EvictBefore(lfirst);
  delta_groups_[1].EvictBefore(rfirst);

  // One probe's group pairings, gathered before the aggregate loops. A
  // pairing (left group, right group) with row counts (cl, cr) stands for
  // cl * cr join pairs; the product rule folds it into its expiry bucket.
  uint64_t pairs = 0;
  std::vector<uint32_t> bucket, lgroup, rgroup;
  std::vector<uint64_t> lrows, rrows, both;
  auto pair_up = [&](int64_t jl, int64_t jr, uint64_t gl, uint64_t gr,
                     uint64_t cl, uint64_t cr) -> Status {
    const int64_t idx = std::min(jl + nl, jr + nr) - m;
    if (idx < 0 || static_cast<size_t>(idx) >= nbuckets) {
      return Status::Internal("delta pre-agg: pair expiry out of range");
    }
    expiry_dirty_[idx] = 1;
    bucket.push_back(static_cast<uint32_t>(idx));
    lgroup.push_back(static_cast<uint32_t>(gl));
    rgroup.push_back(static_cast<uint32_t>(gr));
    lrows.push_back(cl);
    rrows.push_back(cr);
    both.push_back(cl * cr);
    pairs += cl * cr;
    return Status::OK();
  };
  // Folds the gathered pairings into the buckets, one aggregate at a time:
  // a left argument's state scales by the right rows, and vice versa.
  // (A track holds no state columns before its first append, and then no
  // probe finds a pairing either.)
  auto fold_pairs = [&](const std::vector<ops::AggColumn>& left,
                        const std::vector<ops::AggColumn>& right) {
    if (bucket.empty()) return;
    for (size_t i = 0; i < nagg; ++i) {
      ops::AggColumn& acc = expiry_states_[i];
      if (pa.agg_side[i] < 0) {
        acc.AddCounts(bucket, both);  // COUNT(*)
      } else if (pa.agg_side[i] == 0) {
        acc.ScaledMerge(left[preagg_local_[i]], lgroup, bucket, rrows);
      } else {
        acc.ScaledMerge(right[preagg_local_[i]], rgroup, bucket, lrows);
      }
    }
    for (auto* v : {&bucket, &lgroup, &rgroup}) v->clear();
    for (auto* v : {&lrows, &rrows, &both}) v->clear();
  };

  // Probes the opposite side's track with side `s`'s new groups `g` of
  // basic window j and folds the pairings.
  auto probe_new = [&](int s, int64_t j, const ops::GroupTable& g) -> Status {
    if (g.num_groups() == 0) return Status::OK();
    const exec::DeltaGroupTrack& t = delta_groups_[1 - s];
    std::vector<Oid> probe_out, pos_out;
    DC_RETURN_NOT_OK(
        t.index.Probe(g.key(0), 0, g.num_groups(), &probe_out, &pos_out));
    for (size_t k = 0; k < probe_out.size(); ++k) {
      const uint64_t n = probe_out[k], p = pos_out[k];
      DC_RETURN_NOT_OK(s == 0 ? pair_up(j, t.bw_of[p], n, p, g.counts()[n],
                                        t.counts[p])
                              : pair_up(t.bw_of[p], j, p, n, t.counts[p],
                                        g.counts()[n]));
    }
    if (s == 0) {
      fold_pairs(g.states(), t.states);
    } else {
      fold_pairs(t.states, g.states());
    }
    return Status::OK();
  };

  // Steady state runs one step (new basic window m-1 on both sides); the
  // seed fire replays the initial window basic window by basic window, so
  // every cross-bw pairing goes through the same retained x new probes.
  // Within a step the left new groups are appended to their track before
  // the right new groups probe it, so that one probe covers retained x new
  // and new x new at once — no separate new x new join. A side whose
  // window is one basic window needs no case of its own: its groups leave
  // the track at the next fire's EvictBefore.
  const int64_t firsts[2] = {lfirst, rfirst};
  for (int64_t j = delta_seeded_ ? m - 1 : std::min(lfirst, rfirst); j < m;
       ++j) {
    for (int s = 0; s < 2; ++s) {
      if (j < firsts[s]) continue;
      ops::GroupTable& g = delta_new_[s];
      DC_ASSIGN_OR_RETURN(exec::StageOutput pre,
                          PrejoinBasicWindow(stream_rels_[s], j));
      DC_RETURN_NOT_OK(executor_->BuildDeltaGroups(s, pre, &g));
      stats_.fragments_computed++;
      DC_RETURN_NOT_OK(probe_new(s, j, g));
      DC_RETURN_NOT_OK(delta_groups_[s].AppendGroups(j, g));
    }
  }
  stats_.delta_pairs += pairs;

  // One partial per touched expiry, written after all steps so seed-fire
  // steps that share an expiry accumulate into one {expiry, m} key.
  for (size_t idx = 0; idx < nbuckets; ++idx) {
    if (!expiry_dirty_[idx]) continue;
    exec::Partial p;
    p.grouped = ops::GroupTable::ScalarFrom(expiry_states_, idx);
    partials_.insert_or_assign(
        PartialKey{m + 1 + static_cast<int64_t>(idx), m}, std::move(p));
  }

  for (int s = 0; s < 2; ++s) delta_groups_[s].TrimIfWorthIt();
  return Status::OK();
}

Status Factory::FireDualWindowDelta(int64_t m, const WindowMath& wl,
                                    const WindowMath& wr) {
  const int64_t nl = wl.NumBasicWindows();
  const int64_t nr = wr.NumBasicWindows();
  const auto [lfirst, llast] = wl.BasicWindowsForRange(m);  // llast == m
  const auto [rfirst, rlast] = wr.BasicWindowsForRange(m);

  if (executor_->compiled().delta_pre_agg.eligible) {
    DC_RETURN_NOT_OK(FireDeltaPreAgg(m, lfirst, rfirst, nl, nr));
  } else {
    DC_RETURN_NOT_OK(FireDeltaRows(m, lfirst, rfirst, nl, nr));
  }
  delta_seeded_ = true;

  // Merge every live partial (map order: expiry, then creation — a
  // deterministic order; emission row order beyond ORDER BY is
  // unspecified, see docs/INCREMENTAL.md).
  std::vector<const exec::Partial*> ps;
  ps.reserve(partials_.size());
  for (const auto& [key, p] : partials_) ps.push_back(&p);
  DC_ASSIGN_OR_RETURN(ColumnSet result, executor_->Finish(ps));
  DC_RETURN_NOT_OK(EmitResult(result, TriggerStampLocked(m)));

  // Evict pairs gone by the next emission.
  std::erase_if(partials_,
                [&](const auto& kv) { return kv.first.a <= m + 1; });
  return Status::OK();
}

}  // namespace dc
