// Tracing overhead guard: the event tracer must be effectively free when
// EngineOptions::enable_tracing is off (one relaxed atomic load per span
// site) and cheap when on. This harness runs a fixed deterministic
// workload — sync engine, incremental windowed aggregate, bulk batches —
// with tracing off and on, in many short interleaved repetitions (the
// order alternates per repetition, so a burst of host load falls on both
// sides), timing each run's CPU time. It fails (exit 1) if the median
// traced time exceeds the median untraced time by more than the ratio
// bench/overhead_gate.h allows: 5 % plus the untraced runs' relative
// interquartile range, never more than 25 %.
//
// Side product: writes trace.json (Chrome trace_event JSON, loadable in
// Perfetto / chrome://tracing) from the traced runs, and checks the dump
// round-trips the expected span names. CI uploads it as an artifact.

#include <time.h>

#include <algorithm>
#include <string>

#include "bench/bench_common.h"
#include "bench/overhead_gate.h"
#include "monitor/trace.h"
#include "workload/generators.h"

namespace dc {
namespace {

using bench::Banner;
using bench::FeedAndPump;
using workload::SensorBatch;
using workload::SensorConfig;

// ~25-40 ms a run: short runs, many of them, keep the medians steady.
constexpr uint64_t kRows = 100000;
constexpr uint64_t kBatchRows = 512;
constexpr int kReps = 41;

/// CPU time this process has used, in µs. The workload runs on the
/// calling thread of a synchronous engine, so CPU time is its cost, and
/// unlike wall time it does not count the time other processes on a
/// shared host hold the core.
Micros ProcessCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<Micros>(ts.tv_sec) * kMicrosPerSecond +
         static_cast<Micros>(ts.tv_nsec / 1000);
}

/// CPU time of feeding the workload through a fresh engine, in µs.
Micros RunOnce(bool tracing, const std::vector<std::vector<BatPtr>>& batches) {
  EngineOptions opts = bench::Sync();
  opts.enable_tracing = tracing;
  Engine engine(opts);
  DC_CHECK_OK(engine.Execute(workload::SensorDdl("s")));
  auto q = engine.SubmitContinuous(
      "SELECT sensor, AVG(temp), COUNT(*) FROM s "
      "[RANGE 200 MILLISECONDS SLIDE 50 MILLISECONDS] GROUP BY sensor",
      bench::QueryOpts(ExecMode::kIncremental, "trace_probe",
                       bench::NullSink()));
  DC_CHECK_OK(q.status());
  const Micros start = ProcessCpuMicros();
  FeedAndPump(engine, "s", batches);
  return ProcessCpuMicros() - start;
}

bool DumpAndCheckTrace() {
  const std::string json = trace::DumpJson();
  FILE* f = fopen("trace.json", "w");
  if (f == nullptr) {
    printf("  !! cannot write trace.json\n");
    return false;
  }
  fwrite(json.data(), 1, json.size(), f);
  fclose(f);
  printf("wrote trace.json (%zu bytes, %llu buffered events)\n", json.size(),
         static_cast<unsigned long long>(trace::BufferedEventsForTest()));
  bool ok = true;
  for (const char* span : {"traceEvents", "factory.fire", "basket.append",
                           "emitter.drain"}) {
    if (json.find(span) == std::string::npos) {
      printf("  !! trace.json is missing \"%s\"\n", span);
      ok = false;
    }
  }
  return ok;
}

}  // namespace
}  // namespace dc

int main() {
  using namespace dc;
  Banner("T1", "tracing overhead: fixed workload, tracing off vs on");

  SensorConfig config;
  config.rows = kRows;
  std::vector<std::vector<BatPtr>> batches;
  for (uint64_t off = 0; off < kRows; off += kBatchRows) {
    batches.push_back(
        SensorBatch(config, off, std::min(kBatchRows, kRows - off)));
  }

  RunOnce(false, batches);  // warm-up: page in code + allocator state

  std::vector<Micros> off_runs;
  std::vector<Micros> on_runs;
  printf("\n%4s | %12s %12s\n", "rep", "off", "on");
  for (int rep = 0; rep < kReps; ++rep) {
    // Alternate which side runs first, so a drift in the host's speed
    // does not fall on one side.
    Micros off = 0;
    Micros on = 0;
    if (rep % 2 == 0) {
      off = RunOnce(false, batches);
      on = RunOnce(true, batches);
    } else {
      on = RunOnce(true, batches);
      off = RunOnce(false, batches);
    }
    off_runs.push_back(off);
    on_runs.push_back(on);
    printf("%4d | %12s %12s\n", rep, FormatDuration(off).c_str(),
           FormatDuration(on).c_str());
  }

  const bench::OverheadVerdict v = bench::JudgeOverhead(off_runs, on_runs);
  printf("\nmedian off %.2f ms, median on %.2f ms, ratio %.3f "
         "(allowed %.3f: off spread %.3f)\n",
         v.median_off / 1e3, v.median_on / 1e3, v.ratio, v.allowed,
         v.off_spread);

  const bool trace_ok = DumpAndCheckTrace();
  if (!v.pass) {
    printf("FAIL: tracing overhead above budget\n");
    return 1;
  }
  if (!trace_ok) {
    printf("FAIL: trace.json round-trip incomplete\n");
    return 1;
  }
  printf("PASS: tracing overhead within budget\n");
  return 0;
}
