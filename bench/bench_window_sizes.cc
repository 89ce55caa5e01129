// E3 — "Window Sizes" (paper §4): how window size and step change plans
// and performance in both execution modes.
//
// Two sweeps over a grouped sliding-window aggregation:
//  (a) fixed window/slide ratio (8 basic windows), growing window size;
//  (b) fixed window size, growing number of basic windows.
// Expected shape: full re-evaluation cost grows with the window size
// (it re-scans W every slide); incremental cost tracks the slide (fresh
// fragment) plus a merge term that grows mildly with the basic-window
// count.

#include "bench/bench_common.h"
#include "workload/generators.h"

namespace dc {
namespace {

using bench::Banner;
using bench::Collect;
using bench::FeedAndPump;
using bench::QueryOpts;
using bench::RunStats;
using bench::Sync;

constexpr uint64_t kRows = 120000;
constexpr Micros kTsStep = 100;

RunStats RunOne(ExecMode mode, Micros window, Micros slide,
                const std::vector<std::vector<BatPtr>>& batches) {
  Engine engine(Sync());
  DC_CHECK_OK(engine.Execute(workload::SensorDdl("s")));
  const std::string sql = StrFormat(
      "SELECT sensor, count(*), avg(temp) "
      "FROM s [RANGE %lld MICROSECONDS SLIDE %lld MICROSECONDS] "
      "GROUP BY sensor",
      static_cast<long long>(window), static_cast<long long>(slide));
  auto qid = engine.SubmitContinuous(
      sql, QueryOpts(mode, "agg", bench::NullSink()));
  DC_CHECK_OK(qid.status());
  // Feed without sealing so the cached-intermediate footprint is sampled
  // while windows are still live, then flush.
  const Micros wall = FeedAndPump(engine, "s", batches, /*seal=*/false);
  const size_t live_cache = bench::CachedBytes(engine, *qid);
  DC_CHECK_OK(engine.SealStream("s"));
  engine.Pump();
  RunStats out = Collect(engine, *qid, wall);
  out.cached_bytes = live_cache;
  return out;
}

void Row(const char* label, Micros window, Micros slide,
         const std::vector<std::vector<BatPtr>>& batches) {
  RunStats full = RunOne(ExecMode::kFullReeval, window, slide, batches);
  RunStats inc = RunOne(ExecMode::kIncremental, window, slide, batches);
  printf("%-18s %5lld | %14.1f | %14.1f %10zu | %7.2fx\n", label,
         static_cast<long long>(window / slide), full.ExecPerEmissionUs(),
         inc.ExecPerEmissionUs(), inc.cached_bytes,
         inc.exec_micros == 0
             ? 0.0
             : static_cast<double>(full.exec_micros) /
                   static_cast<double>(inc.exec_micros));
}

}  // namespace
}  // namespace dc

int main() {
  using namespace dc;
  Banner("E3", "window sizes and steps (grouped sliding-window agg)");
  workload::SensorConfig config;
  config.ts_step = kTsStep;
  config.num_sensors = 64;
  std::vector<std::vector<BatPtr>> batches;
  for (uint64_t off = 0; off < kRows; off += 1000) {
    batches.push_back(workload::SensorBatch(config, off, 1000));
  }

  printf("\n(a) growing window, fixed ratio window/slide = 8\n");
  printf("%-18s %5s | %14s | %14s %10s | %8s\n", "window", "n_bw",
         "full:us/emit", "inc:us/emit", "inc:cache", "speedup");
  printf("%s\n", std::string(86, '-').c_str());
  for (int64_t wsec_ms : {500, 1000, 2000, 4000, 8000}) {
    const Micros window = wsec_ms * kMicrosPerMilli;
    Row(FormatDuration(window).c_str(), window, window / 8, batches);
  }

  printf("\n(b) fixed window = 4 s, growing basic-window count\n");
  printf("%-18s %5s | %14s | %14s %10s | %8s\n", "slide", "n_bw",
         "full:us/emit", "inc:us/emit", "inc:cache", "speedup");
  printf("%s\n", std::string(86, '-').c_str());
  const Micros window = 4 * kMicrosPerSecond;
  for (int n : {1, 2, 4, 8, 16, 32, 64}) {
    const Micros slide = window / n;
    Row(FormatDuration(slide).c_str(), window, slide, batches);
  }
  return 0;
}
