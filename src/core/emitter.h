// Copyright 2026 The DataCell Authors.
//
// Emitter: the per-client delivery process (paper §3) draining a query's
// output basket and handing complete emissions to a result sink. Emission
// boundaries are preserved through the basket's batch log, so a sink sees
// exactly the result sets the factory produced — including zero-row result
// sets (SQL count=0 windows), which are delivered as empty ColumnSets with
// the correct schema rather than silently swallowed.

#ifndef DATACELL_CORE_EMITTER_H_
#define DATACELL_CORE_EMITTER_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/basket.h"
#include "monitor/metrics.h"
#include "util/sync.h"

namespace dc {

/// Emitter statistics.
struct EmitterStats {
  uint64_t emissions = 0;        // delivered emissions, empty ones included
  uint64_t empty_emissions = 0;  // delivered zero-row emissions
  uint64_t rows = 0;
};

/// Drains one output basket to one sink. Passive by default (call Drain());
/// Start() attaches a delivery thread woken by basket appends.
class Emitter {
 public:
  using Sink = std::function<void(const ColumnSet& emission)>;

  /// `latency` (optional): per-query ingest→delivery histogram; every
  /// delivered emission whose batch carries an ingest stamp records
  /// `now - stamp` into it (docs/OBSERVABILITY.md). The handle is shared
  /// so it outlives registry removal during query teardown.
  Emitter(std::string name, std::shared_ptr<Basket> basket,
          std::vector<std::string> column_names, Sink sink,
          std::shared_ptr<monitor::HistogramMetric> latency = nullptr);
  ~Emitter();

  const std::string& name() const { return name_; }

  /// Delivers all complete emissions currently buffered; returns how many.
  int Drain();

  void Start();
  void Stop();

  EmitterStats Stats() const;

 private:
  void Run();

  const std::string name_;
  std::shared_ptr<Basket> basket_;
  const std::vector<std::string> column_names_;
  Sink sink_;
  const std::shared_ptr<monitor::HistogramMetric> latency_;
  int reader_id_;
  int listener_id_ = -1;  // wake listener on basket_ (removed in dtor)

  // Serializes Drain callers. Sinks run under it and may re-enter the
  // engine, so kEmitterDrain ranks above only kMonitor.
  Mutex drain_mu_{LockRank::kEmitterDrain};
  // Consumed-up-to row sequence / delivered batch ordinals < batch_cursor_.
  uint64_t cursor_ DC_GUARDED_BY(drain_mu_);
  uint64_t batch_cursor_ DC_GUARDED_BY(drain_mu_);
  std::atomic<uint64_t> emissions_{0};
  std::atomic<uint64_t> empty_emissions_{0};
  std::atomic<uint64_t> rows_{0};

  std::thread thread_;
  Mutex wake_mu_{LockRank::kEmitterWake};
  CondVar wake_cv_;
  bool wake_ DC_GUARDED_BY(wake_mu_) = false;
  bool stop_ DC_GUARDED_BY(wake_mu_) = false;
};

/// Convenience sink buffering emissions for polling (tests, benches).
class ResultCollector {
 public:
  Emitter::Sink AsSink();

  /// Removes and returns all buffered emissions.
  std::vector<ColumnSet> TakeAll();

  size_t EmissionCount() const;
  uint64_t RowCount() const;

 private:
  mutable Mutex mu_{LockRank::kCollector};
  std::deque<ColumnSet> emissions_ DC_GUARDED_BY(mu_);
  uint64_t rows_ DC_GUARDED_BY(mu_) = 0;
};

}  // namespace dc

#endif  // DATACELL_CORE_EMITTER_H_
