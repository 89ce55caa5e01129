// Shared helpers for the experiment harnesses (bench_* binaries).
// Each binary regenerates one experiment from DESIGN.md §3 and prints a
// paper-style table; EXPERIMENTS.md records the measured shapes.

#ifndef DATACELL_BENCH_BENCH_COMMON_H_
#define DATACELL_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "util/clock.h"
#include "util/string_util.h"

namespace dc::bench {

/// Prints the experiment banner.
inline void Banner(const char* id, const char* title) {
  printf("\n================================================================\n");
  printf("%s  %s\n", id, title);
  printf("================================================================\n");
}

/// Feeds `batches` of pre-generated columns into a stream of a synchronous
/// engine, pumping after every batch; returns wall time in µs.
inline Micros FeedAndPump(Engine& engine, const std::string& stream,
                          const std::vector<std::vector<BatPtr>>& batches,
                          bool seal = true) {
  Stopwatch watch;
  for (const auto& batch : batches) {
    DC_CHECK_OK(engine.PushColumns(stream, batch));
    engine.Pump();
  }
  if (seal) {
    DC_CHECK_OK(engine.SealStream(stream));
    engine.Pump();
  }
  return watch.ElapsedMicros();
}

/// Per-query outcome of one run.
struct RunStats {
  uint64_t emissions = 0;
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  uint64_t fragments = 0;
  Micros exec_micros = 0;      // total factory execution time
  size_t cached_bytes = 0;     // intermediate cache footprint at end
  Micros wall_micros = 0;

  double ExecPerEmissionUs() const {
    return emissions == 0 ? 0
                          : static_cast<double>(exec_micros) /
                                static_cast<double>(emissions);
  }
};

/// Intermediate cache footprint of query `qid`: its factory's own state
/// plus, for a node tail, the grid partials its SharedWindowNode caches
/// (where an incremental single-stream window keeps them).
inline size_t CachedBytes(Engine& engine, int qid) {
  size_t bytes = engine.GetFactory(qid)->Stats().cached_bytes;
  for (const ContinuousQueryInfo& q : engine.Queries()) {
    if (q.id != qid || q.shared_node.empty()) continue;
    for (const SharedNodeStats& n : engine.GetSharingStats().nodes) {
      if (n.label == q.shared_node) bytes += n.cached_bytes;
    }
  }
  return bytes;
}

inline RunStats Collect(Engine& engine, int qid, Micros wall) {
  RunStats out;
  const FactoryStats fs = engine.GetFactory(qid)->Stats();
  out.emissions = fs.emissions;
  out.tuples_in = fs.tuples_in;
  out.tuples_out = fs.tuples_out;
  out.fragments = fs.fragments_computed;
  out.exec_micros = fs.total_exec_micros;
  out.cached_bytes = CachedBytes(engine, qid);
  out.wall_micros = wall;
  return out;
}

inline dc::EngineOptions Sync() {
  dc::EngineOptions o;
  o.scheduler_workers = 0;
  return o;
}

inline dc::EngineOptions Threaded(int workers = 2) {
  dc::EngineOptions o;
  o.scheduler_workers = workers;
  return o;
}

inline Engine::ContinuousOptions QueryOpts(ExecMode mode,
                                           std::string name = "",
                                           Emitter::Sink sink = nullptr) {
  Engine::ContinuousOptions o;
  o.mode = mode;
  o.name = std::move(name);
  o.sink = std::move(sink);
  return o;
}

/// Swallows emissions (throughput experiments).
inline Emitter::Sink NullSink() {
  return [](const ColumnSet&) {};
}

}  // namespace dc::bench

#endif  // DATACELL_BENCH_BENCH_COMMON_H_
