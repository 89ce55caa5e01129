#include "core/basket.h"

#include <algorithm>

#include "monitor/trace.h"
#include "util/string_util.h"

namespace dc {

namespace {
/// Bound on retained watermark stamps; beyond it the oldest are trimmed
/// and stamp lookups for trimmed boundaries fall back conservatively.
constexpr size_t kMaxWatermarkStamps = 8192;
}  // namespace

Basket::Basket(std::string name, Schema schema, size_t ts_col,
               BasketLimits limits,
               std::shared_ptr<monitor::HistogramMetric> trim_us)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      ts_col_(ts_col),
      trim_us_(std::move(trim_us)),
      limits_(limits) {
  for (const ColumnDef& c : schema_.columns()) {
    cols_.push_back(Bat::MakeEmpty(c.type));
  }
}

Status Basket::ValidateBatch(const std::vector<BatPtr>& cols,
                             uint64_t* n) const {
  if (cols.size() != cols_.size()) {
    return Status::InvalidArgument(
        StrFormat("basket %s: expected %zu columns, got %zu", name_.c_str(),
                  cols_.size(), cols.size()));
  }
  *n = cols.empty() ? 0 : cols[0]->size();
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i]->type() != schema_.column(i).type) {
      return Status::TypeError(
          StrFormat("basket %s column %zu: expected %s, got %s",
                    name_.c_str(), i, TypeName(schema_.column(i).type),
                    TypeName(cols[i]->type())));
    }
    if (cols[i]->size() != *n) {
      return Status::InvalidArgument("ragged basket append");
    }
  }
  return Status::OK();
}

Status Basket::NullCellError(size_t col) const {
  return Status::InvalidArgument(StrFormat(
      "stream %s column %s: NULL cell refused (streams carry no NULLs)",
      name_.c_str(),
      col < schema_.NumColumns() ? schema_.column(col).name.c_str() : "?"));
}

Status Basket::RefuseNulls(const std::vector<BatPtr>& cols) const {
  for (size_t c = 0; c < cols.size(); ++c) {
    if (!cols[c]->has_nulls()) continue;
    for (uint64_t i = 0; i < cols[c]->size(); ++i) {
      if (cols[c]->IsNull(i)) return NullCellError(c);
    }
  }
  return Status::OK();
}

Status Basket::RefuseNulls(const std::vector<Value>& row) const {
  for (size_t c = 0; c < row.size(); ++c) {
    if (row[c].is_null()) return NullCellError(c);
  }
  return Status::OK();
}

size_t Basket::MemoryBytesLocked() const {
  size_t total = 0;
  for (const BatPtr& c : cols_) total += c->MemoryBytes();
  return total;
}

bool Basket::AtCapacityLocked() const {
  return limits_.max_rows > 0 && high_ - base_ >= limits_.max_rows;
}

Status Basket::WaitForSpaceLocked(uint64_t n, Micros timeout_micros) {
  // Admission control: a batch is admitted as soon as the basket is below
  // the bound, so occupancy overshoots by at most the one in-flight batch
  // (and batches larger than the bound still make progress).
  if (n == 0 || !limits_.bounded() || !AtCapacityLocked()) return Status::OK();
  ++append_stalls_;
  trace::Span stall_span("basket.stall", "basket",
                         static_cast<int64_t>(n));
  bool admitted;
  if (timeout_micros < 0) {  // kBlockForever
    // An unbounded wait is satisfiable only if a reader exists to free
    // space; with none, fail fast instead of deadlocking the producer.
    // (Bounded waits below still sleep out their slice — pollers like the
    // parked receptor rely on that for pacing.)
    if (readers_.empty()) {
      ++append_timeouts_;
      return Status::ResourceExhausted(StrFormat(
          "basket %s full with no readers to drain it", name_.c_str()));
    }
    const Micros wait_start = SteadyMicros();
    while (AtCapacityLocked() && !readers_.empty()) space_cv_.Wait(mu_);
    stall_micros_ += SteadyMicros() - wait_start;
    admitted = !AtCapacityLocked();
    if (!admitted) {
      // Still at capacity, so the wake came from the readers_.empty() arm:
      // the last reader unregistered mid-wait and nothing can free space.
      ++append_timeouts_;
      return Status::ResourceExhausted(StrFormat(
          "basket %s full with no readers to drain it", name_.c_str()));
    }
  } else {
    const Micros wait_start = SteadyMicros();
    const Micros deadline = wait_start + timeout_micros;
    admitted = !AtCapacityLocked();
    while (!admitted) {
      const Micros now = SteadyMicros();
      if (now >= deadline) break;
      space_cv_.WaitFor(mu_, deadline - now);
      admitted = !AtCapacityLocked();
    }
    stall_micros_ += SteadyMicros() - wait_start;
  }
  if (admitted) return Status::OK();
  ++append_timeouts_;
  return Status::ResourceExhausted(
      StrFormat("basket %s full (%llu resident rows, cap %llu rows)",
                name_.c_str(),
                static_cast<unsigned long long>(high_ - base_),
                static_cast<unsigned long long>(limits_.max_rows)));
}

Status Basket::Append(const std::vector<BatPtr>& cols, Micros timeout_micros,
                      Micros ingest_us) {
  // Stamp before any capacity wait: a batch stalled by backpressure is
  // "in flight" from the producer's perspective, so the stall counts
  // toward downstream ingest→delivery latency.
  if (ingest_us < 0) ingest_us = SteadyMicros();
  trace::Span span("basket.append", "basket",
                   cols.empty() ? 0 : static_cast<int64_t>(cols[0]->size()));
  {
    MutexLock lock(mu_);
    uint64_t n = 0;
    DC_RETURN_NOT_OK(ValidateBatch(cols, &n));
    DC_RETURN_NOT_OK(WaitForSpaceLocked(n, timeout_micros));
    DC_RETURN_NOT_OK(AppendLocked(cols, ingest_us));
  }
  NotifyAll();
  return Status::OK();
}

Status Basket::AppendLocked(const std::vector<BatPtr>& cols,
                            Micros ingest_us) {
  const uint64_t n = cols.empty() ? 0 : cols[0]->size();
  if (n == 0) {
    // A zero-row batch carries no data but its boundary is an emission:
    // record it in the batch log so emitters deliver the empty result set.
    // With no batch-tracking reader the boundary has no consumer and is
    // not retained — otherwise repeated empty appends on a reader-less
    // basket would grow the log without bound (bypassing the capacity
    // gate, which zero-row batches are exempt from).
    bool any_tracker = false;
    for (const auto& [id, st] : readers_) any_tracker |= st.tracks_batches;
    const BasketBatch boundary{append_batches_, high_, high_, ingest_us};
    if (any_tracker) batches_.push_back(boundary);
    ++append_batches_;
    ++empty_batches_;
    if (hooks_.on_batch) hooks_.on_batch(boundary, cols);
    return Status::OK();
  }
  BatPtr clamped_ts;  // set iff clamping rewrote the ts column (WAL copy)
  for (size_t i = 0; i < cols.size(); ++i) {
    if (i == ts_col_) {
      // Clamp event time to be non-decreasing (documented simplification).
      auto ts = cols[i]->I64Data();
      Micros prev = watermark_;
      bool monotone = true;
      for (int64_t t : ts) {
        if (t < prev) {
          monotone = false;
          break;
        }
        prev = t;
      }
      if (monotone) {
        cols_[i]->AppendRange(*cols[i], 0, n);
        watermark_ = std::max(watermark_, ts[n - 1]);
      } else {
        Micros clamp = watermark_;
        if (hooks_.on_batch) clamped_ts = Bat::MakeEmpty(cols[i]->type());
        for (int64_t t : ts) {
          clamp = std::max<Micros>(clamp, t);
          cols_[i]->AppendI64(clamp);
          if (clamped_ts) clamped_ts->AppendI64(clamp);
        }
        watermark_ = clamp;
      }
    } else {
      cols_[i]->AppendRange(*cols[i], 0, n);
    }
  }
  const BasketBatch logged{append_batches_, high_, high_ + n, ingest_us};
  batches_.push_back(logged);
  ++append_batches_;
  high_ += n;
  if (hooks_.on_batch) {
    // The WAL must see the values the basket actually stored, so a
    // replayed log re-clamps as a no-op.
    if (clamped_ts) {
      std::vector<BatPtr> stored = cols;
      stored[ts_col_] = clamped_ts;
      hooks_.on_batch(logged, stored);
    } else {
      hooks_.on_batch(logged, cols);
    }
  }
  PushWatermarkStampLocked(watermark_, ingest_us);
  resident_hwm_rows_ = std::max(resident_hwm_rows_, high_ - base_);
  memory_hwm_bytes_ = std::max(memory_hwm_bytes_, MemoryBytesLocked());
  return Status::OK();
}

Status Basket::AppendRow(const std::vector<Value>& row,
                         Micros timeout_micros) {
  std::vector<BatPtr> cols;
  if (row.size() != schema_.NumColumns()) {
    return Status::InvalidArgument(
        StrFormat("basket %s: expected %zu values, got %zu", name_.c_str(),
                  schema_.NumColumns(), row.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    DC_ASSIGN_OR_RETURN(Value v, row[i].CastTo(schema_.column(i).type));
    auto col = Bat::MakeEmpty(schema_.column(i).type);
    col->AppendValue(v);
    cols.push_back(std::move(col));
  }
  return Append(cols, timeout_micros);
}

void Basket::Heartbeat(Micros event_ts) {
  {
    MutexLock lock(mu_);
    watermark_ = std::max(watermark_, event_ts);
    PushWatermarkStampLocked(watermark_, SteadyMicros());
    if (hooks_.on_heartbeat) hooks_.on_heartbeat(event_ts);
  }
  NotifyAll();
}

void Basket::Seal() {
  {
    MutexLock lock(mu_);
    if (!sealed_) {
      sealed_ = true;
      // Terminal stamp: sealed-flush emissions (fired although the
      // watermark never reached their boundary) resolve their trigger
      // time to the seal.
      PushWatermarkStampLocked(INT64_MAX, SteadyMicros());
      if (hooks_.on_seal) hooks_.on_seal();
    }
  }
  NotifyAll();
}

void Basket::SetDurabilityHooks(DurabilityHooks hooks) {
  MutexLock lock(mu_);
  hooks_ = std::move(hooks);
}

Status Basket::RestoreLogPosition(uint64_t start_seq, uint64_t next_ordinal,
                                  Micros watermark, bool sealed) {
  MutexLock lock(mu_);
  if (high_ != 0 || append_batches_ != 0) {
    return Status::InvalidArgument(StrFormat(
        "basket %s: RestoreLogPosition on a non-empty basket", name_.c_str()));
  }
  base_ = high_ = start_seq;
  append_batches_ = next_ordinal;
  if (watermark > watermark_) {
    watermark_ = watermark;
    PushWatermarkStampLocked(watermark_, SteadyMicros());
  }
  if (sealed) {
    sealed_ = true;
    PushWatermarkStampLocked(INT64_MAX, SteadyMicros());
  }
  return Status::OK();
}

void Basket::PushWatermarkStampLocked(Micros watermark, Micros at_us) {
  if (!wm_stamps_.empty() && wm_stamps_.back().watermark >= watermark) return;
  wm_stamps_.push_back(WatermarkStamp{watermark, at_us});
  if (wm_stamps_.size() > kMaxWatermarkStamps) wm_stamps_.pop_front();
}

Micros Basket::IngestStampForSeq(uint64_t end_seq) const {
  MutexLock lock(mu_);
  // batches_ is ascending in end_seq; find the first entry whose end_seq
  // reaches `end_seq` (zero-row entries share an end_seq with the data
  // batch before them, and lower_bound lands on the earlier — data —
  // entry, which carries the arrival time we want).
  auto it = std::lower_bound(
      batches_.begin(), batches_.end(), end_seq,
      [](const BasketBatch& b, uint64_t seq) { return b.end_seq < seq; });
  if (it != batches_.end()) return it->ingest_us;
  // The entry was trimmed (all surviving entries end below end_seq can't
  // happen for a due emission, so this is the already-shrunk case): fall
  // back to the oldest survivor — later than the truth, i.e. latency is
  // underestimated, never inflated.
  if (!batches_.empty()) return batches_.front().ingest_us;
  return -1;
}

Micros Basket::IngestStampForWatermark(Micros ts) const {
  MutexLock lock(mu_);
  auto it = std::lower_bound(
      wm_stamps_.begin(), wm_stamps_.end(), ts,
      [](const WatermarkStamp& s, Micros t) { return s.watermark < t; });
  if (it != wm_stamps_.end()) return it->at_us;
  return -1;
}

bool Basket::sealed() const {
  MutexLock lock(mu_);
  return sealed_;
}

int Basket::AddListener(std::function<void()> fn) {
  MutexLock lock(mu_);
  const int id = next_listener_++;
  listeners_[id] = std::move(fn);
  return id;
}

void Basket::RemoveListener(int listener_id) {
  MutexLock lock(mu_);
  listeners_.erase(listener_id);
  // A notify pass snapshots listeners before invoking them, so one that
  // started before the erase may still hold this listener. Callers tear
  // the listener's target down right after we return (e.g. ~Emitter on a
  // shared output basket whose aliased factory keeps firing), so block
  // until every in-flight pass has finished.
  while (notify_active_ > 0) notify_cv_.Wait(mu_);
}

void Basket::NotifyAll() {
  // Copy under lock, call outside it (listeners re-enter the scheduler).
  std::vector<std::function<void()>> fns;
  {
    MutexLock lock(mu_);
    fns.reserve(listeners_.size());
    for (const auto& [id, fn] : listeners_) fns.push_back(fn);
    ++notify_active_;
  }
  for (auto& fn : fns) fn();
  MutexLock lock(mu_);
  if (--notify_active_ == 0) notify_cv_.NotifyAll();
}

int Basket::RegisterReader(bool from_start, bool track_batches) {
  MutexLock lock(mu_);
  const int id = next_reader_++;
  ReaderState st;
  st.cursor = from_start ? base_ : high_;
  st.tracks_batches = track_batches;
  st.batch_ord = from_start ? (batches_.empty() ? append_batches_
                                                : batches_.front().ordinal)
                            : append_batches_;
  readers_[id] = st;
  return id;
}

uint64_t Basket::ReaderCursor(int reader_id) const {
  MutexLock lock(mu_);
  auto it = readers_.find(reader_id);
  return it == readers_.end() ? 0 : it->second.cursor;
}

void Basket::UnregisterReader(int reader_id) {
  {
    MutexLock lock(mu_);
    readers_.erase(reader_id);
    ShrinkLocked();
  }
  space_cv_.NotifyAll();
}

BasketView Basket::Read(uint64_t from_seq, uint64_t max_rows) const {
  MutexLock lock(mu_);
  BasketView view;
  const uint64_t lo = std::max(from_seq, base_);
  const uint64_t hi =
      std::min(high_, max_rows == UINT64_MAX ? high_ : lo + max_rows);
  view.first_seq = lo;
  view.rows = hi > lo ? hi - lo : 0;
  for (const BatPtr& c : cols_) {
    view.cols.push_back(view.rows == 0
                            ? Bat::MakeEmpty(c->type())
                            : c->Slice(lo - base_, hi - base_));
  }
  return view;
}

Result<std::pair<uint64_t, uint64_t>> Basket::SeqRangeForTs(
    Micros ts_lo, Micros ts_hi) const {
  if (!HasEventTime()) {
    return Status::InvalidArgument(
        StrFormat("basket %s has no event-time column", name_.c_str()));
  }
  MutexLock lock(mu_);
  auto ts = cols_[ts_col_]->I64Data();
  auto lo_it = std::lower_bound(ts.begin(), ts.end(), ts_lo);
  auto hi_it = std::lower_bound(ts.begin(), ts.end(), ts_hi);
  return std::make_pair(base_ + (lo_it - ts.begin()),
                        base_ + (hi_it - ts.begin()));
}

void Basket::AdvanceReader(int reader_id, uint64_t upto_seq) {
  // upto_ordinal=0 is a no-op on the batch cursor (it only ever advances).
  AdvanceReaderBatches(reader_id, upto_seq, 0);
}

void Basket::AdvanceReaderBatches(int reader_id, uint64_t upto_seq,
                                  uint64_t upto_ordinal) {
  {
    MutexLock lock(mu_);
    auto it = readers_.find(reader_id);
    if (it == readers_.end()) return;
    it->second.cursor =
        std::max(it->second.cursor, std::min(upto_seq, high_));
    it->second.batch_ord =
        std::max(it->second.batch_ord, std::min(upto_ordinal, append_batches_));
    ShrinkLocked();
  }
  space_cv_.NotifyAll();
}

void Basket::ShrinkLocked() {
  // Drop the prefix consumed by all readers. With no readers, nothing is
  // dropped (one-time queries may still want to peek).
  if (readers_.empty()) return;
  uint64_t min_cursor = high_;
  uint64_t min_batch_ord = UINT64_MAX;
  bool any_tracker = false;
  for (const auto& [id, st] : readers_) {
    min_cursor = std::min(min_cursor, st.cursor);
    if (st.tracks_batches) {
      any_tracker = true;
      min_batch_ord = std::min(min_batch_ord, st.batch_ord);
    }
  }
  if (min_cursor > base_) {
    const uint64_t drop = min_cursor - base_;
    const Micros start = trim_us_ != nullptr ? SteadyMicros() : 0;
    for (BatPtr& c : cols_) c->DropHead(drop);
    if (trim_us_ != nullptr) trim_us_->Record(SteadyMicros() - start);
    base_ = min_cursor;
  }
  // Trim the batch log: an entry goes once its rows are below the drop
  // horizon AND every batch-tracking reader has acknowledged its ordinal.
  // The ordinal condition is what keeps a zero-row boundary sitting exactly
  // at the horizon alive until its emitter delivers it (and, being
  // monotone, makes double delivery impossible).
  while (!batches_.empty() && batches_.front().end_seq <= base_ &&
         (!any_tracker || batches_.front().ordinal < min_batch_ord)) {
    batches_.pop_front();
  }
}

uint64_t Basket::HighSeq() const {
  MutexLock lock(mu_);
  return high_;
}

uint64_t Basket::DropHorizon() const {
  MutexLock lock(mu_);
  return base_;
}

Micros Basket::EventWatermark() const {
  MutexLock lock(mu_);
  return watermark_;
}

std::vector<BasketBatch> Basket::BatchesAfter(uint64_t from_ordinal) const {
  MutexLock lock(mu_);
  std::vector<BasketBatch> out;
  for (const BasketBatch& b : batches_) {
    if (b.ordinal >= from_ordinal) out.push_back(b);
  }
  return out;
}

BasketStats Basket::Stats() const {
  MutexLock lock(mu_);
  BasketStats s;
  s.appended_total = high_;
  s.dropped_total = base_;
  s.resident_rows = high_ - base_;
  s.append_batches = append_batches_;
  s.empty_batches = empty_batches_;
  s.memory_bytes = MemoryBytesLocked();
  s.event_watermark = watermark_ == INT64_MIN ? 0 : watermark_;
  s.capacity_rows = limits_.max_rows;
  s.resident_hwm_rows = resident_hwm_rows_;
  s.memory_hwm_bytes = memory_hwm_bytes_;
  s.append_stalls = append_stalls_;
  s.append_timeouts = append_timeouts_;
  s.stall_micros = stall_micros_;
  s.readers = readers_.size();
  return s;
}

}  // namespace dc
