#include "core/sharing.h"

#include <algorithm>

#include "util/string_util.h"

namespace dc {

namespace {

// Index of the first relation of `q` that is (or is not) a stream, or -1.
int RelSlot(const plan::BoundQuery& q, bool stream) {
  for (size_t r = 0; r < q.rels.size(); ++r) {
    if (q.rels[r].is_stream == stream) return static_cast<int>(r);
  }
  return -1;
}

// Bytes of the columns of `cols` that are not in `shared`, each counted
// once.
size_t OwnedBytes(const std::vector<BatPtr>& cols,
                  const std::vector<BatPtr>& shared) {
  size_t total = 0;
  for (auto it = cols.begin(); it != cols.end(); ++it) {
    const auto same = [&](const BatPtr& b) { return b == *it; };
    if (std::none_of(shared.begin(), shared.end(), same) &&
        std::none_of(cols.begin(), it, same)) {
      total += (*it)->MemoryBytes();
    }
  }
  return total;
}

}  // namespace

Result<exec::StageInput> ReadWindowExtent(const Basket& basket,
                                          uint64_t origin_seq, bool rows_mode,
                                          int64_t lo, int64_t hi) {
  BasketView view;
  if (rows_mode) {
    const int64_t origin = static_cast<int64_t>(origin_seq);
    const int64_t abs_lo = std::max<int64_t>(origin + lo, origin);
    const int64_t abs_hi = std::max<int64_t>(origin + hi, abs_lo);
    view = basket.Read(static_cast<uint64_t>(abs_lo),
                       static_cast<uint64_t>(abs_hi - abs_lo));
  } else {
    DC_ASSIGN_OR_RETURN(auto range, basket.SeqRangeForTs(lo, hi));
    const uint64_t seq_lo = std::max(range.first, origin_seq);
    const uint64_t seq_hi = std::max(range.second, seq_lo);
    view = basket.Read(seq_lo, seq_hi - seq_lo);
  }
  return exec::StageInput{std::move(view.cols), view.rows};
}

SharedWindowNode::SharedWindowNode(
    std::string label, std::shared_ptr<Basket> basket, TablePtr table,
    std::shared_ptr<exec::QueryExecutor> executor, bool rows_mode,
    int64_t grid_slide)
    : label_(std::move(label)),
      basket_(std::move(basket)),
      table_(std::move(table)),
      executor_(std::move(executor)),
      stream_rel_(RelSlot(executor_->compiled().bound, true)),
      table_rel_(RelSlot(executor_->compiled().bound, false)),
      rows_mode_(rows_mode),
      grid_slide_(grid_slide) {
  reader_id_ = basket_->RegisterReader(/*from_start=*/true);
  origin_seq_ = basket_->ReaderCursor(reader_id_);
}

SharedWindowNode::~SharedWindowNode() {
  if (reader_id_ >= 0) basket_->UnregisterReader(reader_id_);
}

Status SharedWindowNode::RestoreOrigin(uint64_t origin_seq) {
  MutexLock lock(mu_);
  if (builds_ != 0 || !cache_.empty()) {
    return Status::InvalidArgument(StrFormat(
        "shared node %s: RestoreOrigin after partials were built",
        label_.c_str()));
  }
  // The reader cursor stays where registration put it (at or below the
  // restored origin after a WAL replay); it only pins retention and
  // advances through Release like any other cursor.
  origin_seq_ = origin_seq;
  return Status::OK();
}

int SharedWindowNode::Subscribe() {
  MutexLock lock(mu_);
  const int id = next_sub_++;
  subs_.emplace(id, kUnreleased);
  return id;
}

void SharedWindowNode::Unsubscribe(int sub_id) {
  MutexLock lock(mu_);
  subs_.erase(sub_id);
  // The departed subscriber may have been the one pinning retention.
  if (!subs_.empty()) EvictLocked();
}

int SharedWindowNode::subscribers() const {
  MutexLock lock(mu_);
  return static_cast<int>(subs_.size());
}

Status SharedWindowNode::EnsureRange(int64_t lo, int64_t hi,
                                     std::vector<PartialPtr>* out,
                                     uint64_t* built, uint64_t* hits,
                                     uint64_t* rows_in) {
  MutexLock lock(mu_);
  // One table version per call: every partial this call serves joined the
  // same snapshot, and the table's prejoin — plus, when the table is the
  // join's build (right) side, its join hash — runs once per version.
  uint64_t version = 0;
  if (table_ != nullptr) {
    const TableVersionPtr snap = table_->Snapshot();
    version = snap->version;
    if (table_pre_version_ != version) {
      DC_ASSIGN_OR_RETURN(
          exec::StageOutput pre,
          executor_->RunPrejoin(table_rel_,
                                exec::StageInput{snap->cols, snap->NumRows()}));
      table_pre_ = exec::StageInput{std::move(pre.cols), pre.rows};
      table_pre_bytes_ = OwnedBytes(table_pre_.cols, snap->cols);
      const plan::CompiledQuery& cq = executor_->compiled();
      if (cq.bound.join.has_value() && table_rel_ == 1) {
        table_hash_.Reset(cq.join_key_domain);
        DC_RETURN_NOT_OK(
            table_hash_.Append(*table_pre_.cols[cq.join_key_slots[1]], 0,
                               table_pre_.rows));
        table_pre_.index = &table_hash_;
      }
      table_pre_version_ = version;
    }
  }
  const WindowMath gm = Grid();
  const int64_t first = gm.BasicWindowOf(lo);
  // Subsumption keeps tail extents grid-aligned; tolerate a ragged end
  // anyway by covering through the last coordinate.
  const int64_t last = lo < hi ? gm.BasicWindowOf(hi - 1) + 1 : first;
  for (int64_t j = first; j < last; ++j) {
    if (auto it = cache_.find(j);
        it != cache_.end() && it->second.table_version == version) {
      out->push_back(it->second.partial);
      ++*hits;
      ++hits_;
      continue;
    }
    DC_ASSIGN_OR_RETURN(PartialPtr p, BuildLocked(j, rows_in));
    cache_.insert_or_assign(j, GridPartial{p, version});
    out->push_back(std::move(p));
    ++*built;
    ++builds_;
  }
  return Status::OK();
}

Result<PartialPtr> SharedWindowNode::BuildLocked(int64_t j,
                                                 uint64_t* rows_in) {
  const auto [blo, bhi] = Grid().BasicWindowExtent(j);
  DC_ASSIGN_OR_RETURN(
      exec::StageInput raw,
      ReadWindowExtent(*basket_, origin_seq_, rows_mode_, blo, bhi));
  *rows_in += raw.rows;
  tuples_in_ += raw.rows;
  std::vector<exec::StageInput> compact(executor_->compiled().bound.rels.size());
  DC_ASSIGN_OR_RETURN(exec::StageOutput pre,
                      executor_->RunPrejoin(stream_rel_, raw));
  compact[stream_rel_] = exec::StageInput{std::move(pre.cols), pre.rows};
  if (table_rel_ >= 0) compact[table_rel_] = table_pre_;
  DC_ASSIGN_OR_RETURN(exec::StageOutput frag, executor_->RunPostjoin(compact));
  DC_ASSIGN_OR_RETURN(exec::Partial p, executor_->MakePartial(frag));
  return std::make_shared<const exec::Partial>(std::move(p));
}

void SharedWindowNode::Release(int sub_id, int64_t lo) {
  MutexLock lock(mu_);
  auto it = subs_.find(sub_id);
  if (it == subs_.end()) return;
  const int64_t first_needed_bw = Grid().BasicWindowOf(lo);
  if (first_needed_bw > it->second) it->second = first_needed_bw;
  EvictLocked();
}

void SharedWindowNode::EvictLocked() {
  int64_t min_mark = INT64_MAX;
  for (const auto& [id, mark] : subs_) {
    if (mark == kUnreleased) return;  // a tail still needs everything
    min_mark = std::min(min_mark, mark);
  }
  if (subs_.empty() || min_mark == INT64_MAX) return;
  cache_.erase(cache_.begin(), cache_.lower_bound(min_mark));
  // Advance the shared reader to the first retained grid window's start
  // (the Factory release rule, applied at the fleet minimum).
  if (rows_mode_) {
    if (min_mark <= 0) return;
    basket_->AdvanceReader(
        reader_id_,
        origin_seq_ + static_cast<uint64_t>(min_mark) *
                          static_cast<uint64_t>(grid_slide_));
  } else {
    if (min_mark <= INT64_MIN / grid_slide_ ||
        min_mark >= INT64_MAX / grid_slide_) {
      return;
    }
    const int64_t ts = min_mark * grid_slide_;
    auto range = basket_->SeqRangeForTs(ts, ts + 1);
    if (range.ok()) basket_->AdvanceReader(reader_id_, range->first);
  }
}

SharedNodeStats SharedWindowNode::Stats() const {
  MutexLock lock(mu_);
  SharedNodeStats s;
  s.label = label_;
  s.stream = basket_->name();
  s.subscribers = static_cast<int>(subs_.size());
  s.grid_slide = grid_slide_;
  s.rows = rows_mode_;
  s.partial_builds = builds_;
  s.sharing_hits = hits_;
  s.tuples_in = tuples_in_;
  s.cached_partials = cache_.size();
  for (const auto& [j, gp] : cache_) {
    s.cached_bytes += gp.partial->MemoryBytes();
  }
  s.cached_bytes += table_pre_bytes_;
  if (table_pre_.index != nullptr) s.cached_bytes += table_hash_.MemoryBytes();
  return s;
}

}  // namespace dc
