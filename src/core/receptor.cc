#include "core/receptor.h"

#include <fstream>

#include "util/csv.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace dc {

Receptor::Receptor(std::string name, Basket* basket, RowGen gen,
                   Options options)
    : name_(std::move(name)),
      basket_(basket),
      gen_(std::move(gen)),
      options_(options) {}

Receptor::~Receptor() { Stop(); }

void Receptor::Start() {
  if (thread_.joinable()) return;
  start_time_.store(SteadyMicros());
  thread_ = std::thread([this] { Run(); });
}

void Receptor::Stop() {
  stop_.store(true);
  pause_cv_.NotifyAll();  // interrupt a pacing sleep
  if (thread_.joinable()) thread_.join();
}

void Receptor::WaitFinished() {
  if (thread_.joinable()) thread_.join();
}

void Receptor::Pause() {
  MutexLock lock(pause_mu_);
  paused_.store(true);
  pause_cv_.NotifyAll();  // interrupt a pacing sleep so the ack is prompt
  // Wait for the ingestion thread to acknowledge (or to have finished):
  // an in-flight batch may still land during this wait, but once Pause()
  // returns nothing more reaches the basket until Resume().
  while (!pause_acked_ && !finished_.load() && thread_.joinable()) {
    pause_cv_.Wait(pause_mu_);
  }
}

void Receptor::Resume() {
  MutexLock lock(pause_mu_);
  paused_.store(false);
  pause_acked_ = false;
}

ReceptorStats Receptor::Stats() const {
  ReceptorStats s;
  s.rows = rows_.load();
  s.batches = batches_.load();
  s.finished = finished_.load();
  s.paused = paused_.load();
  s.parked = parked_.load();
  s.parks = parks_.load();
  s.parked_micros = parked_micros_.load();
  const Micros started = start_time_.load();
  s.running_micros = started == 0 ? 0 : SteadyMicros() - started;
  return s;
}

void Receptor::Run() {
  const Schema& schema = basket_->schema();
  std::vector<Value> row(schema.NumColumns());
  std::vector<BatPtr> batch;
  auto reset_batch = [&] {
    batch.clear();
    for (const ColumnDef& c : schema.columns()) {
      batch.push_back(Bat::MakeEmpty(c.type));
      batch.back()->Reserve(options_.batch_rows);
    }
  };
  reset_batch();

  // Token-based pacing: next_deadline advances by batch_rows/rate per
  // append so bursts average out to the target rate.
  const double rate = options_.rows_per_sec;
  Micros next_deadline = SteadyMicros();
  uint64_t in_batch = 0;
  bool source_done = false;

  // When the basket is full the receptor parks: it retries the append in
  // short slices so a concurrent Pause()/Stop() is honored within one
  // slice. While paused it does not attempt the append at all — Pause()'s
  // contract ("nothing reaches the basket after the ack") must hold even
  // with a batch pending; the batch lands after Resume(), so backpressure
  // never loses tuples.
  constexpr Micros kParkSliceMicros = 5 * kMicrosPerMilli;

  // Pause gate shared by the main loop and the flush park loop: ack the
  // pause and idle briefly. The ack is set only after re-checking paused_
  // under pause_mu_ (Pause/Resume mutate it under that mutex) — acking
  // after a concurrent Resume would let the *next* Pause() return on the
  // stale ack with an append still landing.
  auto ack_pause_and_idle = [&] {
    {
      MutexLock lock(pause_mu_);
      if (paused_.load()) pause_acked_ = true;
    }
    pause_cv_.NotifyAll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };

  auto flush = [&]() {
    if (in_batch == 0) return;
    bool counted_park = false;
    // One ingest stamp per batch, taken before the first append attempt:
    // park slices retry with the same stamp, so time spent parked on a
    // full basket counts toward downstream ingest→delivery latency.
    const Micros ingest_us = SteadyMicros();
    // A batch with a NULL cell is malformed: refused like any other below.
    const Status valid = basket_->RefuseNulls(batch);
    while (true) {
      // During a Stop() the pause gate is bypassed (matching the pre-
      // backpressure final flush): the batch gets one bounded append
      // attempt below so shutdown with a non-full basket stays loss-free.
      if (paused_.load() && !stop_.load()) {
        ack_pause_and_idle();
        continue;
      }
      const Micros slice_start = SteadyMicros();
      const Status st =
          valid.ok() ? basket_->Append(batch, kParkSliceMicros, ingest_us)
                     : valid;
      if (st.ok()) {
        rows_.fetch_add(in_batch);
        batches_.fetch_add(1);
        break;
      }
      if (!st.IsResourceExhausted()) {
        DC_LOG(kError) << "receptor " << name_
                       << " append failed: " << st.ToString();
        break;  // malformed batch: drop it, keep ingesting
      }
      // Only time actually spent against the full basket counts as parked
      // time — a Pause() during the park must not inflate it.
      parked_micros_.fetch_add(SteadyMicros() - slice_start);
      if (stop_.load()) break;  // stopping against a full basket: drop
      if (!counted_park) {
        counted_park = true;
        parks_.fetch_add(1);
        parked_.store(true);
      }
    }
    if (counted_park) parked_.store(false);
    in_batch = 0;
    reset_batch();
  };

  while (!stop_.load() && !source_done) {
    if (paused_.load()) {
      ack_pause_and_idle();
      continue;
    }
    // Fill one batch.
    while (in_batch < options_.batch_rows) {
      if (!gen_(&row)) {
        source_done = true;
        break;
      }
      for (size_t c = 0; c < batch.size(); ++c) {
        auto cast = row[c].CastTo(schema.column(c).type);
        if (!cast.ok()) {
          DC_LOG(kError) << "receptor " << name_ << ": "
                         << cast.status().ToString();
          source_done = true;
          break;
        }
        batch[c]->AppendValue(*cast);
      }
      ++in_batch;
    }
    flush();
    if (rate > 0 && !source_done) {
      next_deadline += static_cast<Micros>(
          options_.batch_rows / rate * kMicrosPerSecond);
      const Micros now = SteadyMicros();
      if (next_deadline > now) {
        // Interruptible pacing sleep: Pause()/Stop() must not have to wait
        // out the full inter-batch gap (batch_rows/rate can be seconds).
        MutexLock lock(pause_mu_);
        while (!paused_.load() && !stop_.load()) {
          const Micros cur = SteadyMicros();
          if (cur >= next_deadline) break;
          pause_cv_.WaitFor(pause_mu_, next_deadline - cur);
        }
      } else if (now - next_deadline > kMicrosPerSecond) {
        next_deadline = now;  // fell behind badly; do not burst-catch-up
      }
    }
  }
  flush();
  {
    // Under pause_mu_ so a concurrent Pause() cannot miss the wakeup.
    MutexLock lock(pause_mu_);
    finished_.store(true);
  }
  pause_cv_.NotifyAll();
  if (options_.seal_on_finish && !stop_.load()) basket_->Seal();
}

Result<Receptor::RowGen> CsvRowGen(const std::string& path,
                                   const Schema& schema) {
  auto file = std::make_shared<std::ifstream>(path);
  if (!file->is_open()) {
    return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  const size_t ncols = schema.NumColumns();
  return Receptor::RowGen([file, ncols](std::vector<Value>* row) {
    std::string line;
    while (std::getline(*file, line)) {
      if (line.empty()) continue;
      auto fields = ParseCsvLine(line);
      if (!fields.ok() || fields->size() != ncols) continue;  // skip bad rows
      for (size_t i = 0; i < ncols; ++i) {
        (*row)[i] = Value::Str(std::move((*fields)[i]));
      }
      return true;
    }
    return false;
  });
}

}  // namespace dc
