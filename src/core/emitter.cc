#include "core/emitter.h"

#include "monitor/trace.h"

namespace dc {

Emitter::Emitter(std::string name, std::shared_ptr<Basket> basket,
                 std::vector<std::string> column_names, Sink sink,
                 std::shared_ptr<monitor::HistogramMetric> latency)
    : name_(std::move(name)),
      basket_(std::move(basket)),
      column_names_(std::move(column_names)),
      sink_(std::move(sink)),
      latency_(std::move(latency)) {
  reader_id_ =
      basket_->RegisterReader(/*from_start=*/true, /*track_batches=*/true);
  cursor_ = basket_->ReaderCursor(reader_id_);
  batch_cursor_ = 0;
  listener_id_ = basket_->AddListener([this] {
    {
      MutexLock lock(wake_mu_);
      wake_ = true;
    }
    wake_cv_.NotifyOne();
  });
}

Emitter::~Emitter() {
  Stop();
  // Unhook the wake listener before members die: the basket outlives this
  // emitter (shared ownership) and would otherwise pulse a dangling `this`.
  basket_->RemoveListener(listener_id_);
  basket_->UnregisterReader(reader_id_);
}

int Emitter::Drain() {
  MutexLock lock(drain_mu_);
  trace::Span span("emitter.drain", "emitter");
  int delivered = 0;
  for (const BasketBatch& b : basket_->BatchesAfter(batch_cursor_)) {
    // A zero-row batch reads back as typed empty columns, so the sink sees
    // the emission with its schema intact.
    BasketView view = basket_->Read(cursor_, b.end_seq - cursor_);
    ColumnSet emission;
    emission.names = column_names_;
    emission.cols = std::move(view.cols);
    if (sink_) sink_(emission);
    rows_.fetch_add(view.rows);
    emissions_.fetch_add(1);
    if (view.rows == 0) empty_emissions_.fetch_add(1);
    // Delivery closes the latency clock the batch's ingest stamp opened
    // (for factory outputs: the trigger stamp of the source input).
    if (latency_ != nullptr && b.ingest_us >= 0) {
      latency_->Record(SteadyMicros() - b.ingest_us);
    }
    cursor_ = b.end_seq;
    batch_cursor_ = b.ordinal + 1;
    basket_->AdvanceReaderBatches(reader_id_, cursor_, batch_cursor_);
    ++delivered;
  }
  if (delivered == 0) {
    span.Cancel();  // idle tick, not worth a trace event
  } else {
    span.set_arg(delivered);
  }
  return delivered;
}

void Emitter::Start() {
  if (thread_.joinable()) return;
  {
    MutexLock lock(wake_mu_);
    stop_ = false;
  }
  thread_ = std::thread([this] { Run(); });
}

void Emitter::Stop() {
  {
    // Under wake_mu_, so the store cannot land between Run's check and
    // its wait.
    MutexLock lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
}

void Emitter::Run() {
  // No fallback tick: every append sets wake_ under wake_mu_ before it
  // notifies, and the wait re-checks it under the same lock.
  for (;;) {
    {
      MutexLock lock(wake_mu_);
      while (!wake_ && !stop_) wake_cv_.Wait(wake_mu_);
      if (stop_) break;
      wake_ = false;
    }
    Drain();
  }
  Drain();  // final flush
}

EmitterStats Emitter::Stats() const {
  EmitterStats s;
  s.emissions = emissions_.load();
  s.empty_emissions = empty_emissions_.load();
  s.rows = rows_.load();
  return s;
}

Emitter::Sink ResultCollector::AsSink() {
  return [this](const ColumnSet& emission) {
    MutexLock lock(mu_);
    emissions_.push_back(emission);
    rows_ += emission.NumRows();
  };
}

std::vector<ColumnSet> ResultCollector::TakeAll() {
  MutexLock lock(mu_);
  std::vector<ColumnSet> out(emissions_.begin(), emissions_.end());
  emissions_.clear();
  return out;
}

size_t ResultCollector::EmissionCount() const {
  MutexLock lock(mu_);
  return emissions_.size();
}

uint64_t ResultCollector::RowCount() const {
  MutexLock lock(mu_);
  return rows_;
}

}  // namespace dc
