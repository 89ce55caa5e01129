// E7 — durability overhead: the same fixed ingest workload with the WAL
// off, on with fsync=never (append-only logging, OS-buffered), and on
// with the default fsync=interval policy (docs/DURABILITY.md). Reports
// wall time, ingest throughput, and the wal.* counters per configuration
// over interleaved repetitions (off/never/interval, off/never/interval,
// ...), as the median with the min and max, so a cold file cache or one
// noisy repetition cannot bias a single arm.
//
// Emits BENCH_wal.json (schema in docs/BENCHMARKS.md), gated in CI by
// scripts/check_bench_regression.py --wal on the ratio of the fsync=never
// and durability-off medians — the WAL rides the existing batch-ordinal
// log, so its cost is one framed append per batch, not a per-row tax.
//
// `--smoke` runs 200 k rows (the CI size); the full run 2 M.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "storage/wal.h"
#include "workload/generators.h"

namespace dc {
namespace {

using bench::Banner;
using bench::QueryOpts;
using bench::Sync;

constexpr uint64_t kRows = 2000000;
constexpr uint64_t kSmokeRows = 200000;
constexpr uint64_t kBatchRows = 1000;
constexpr Micros kTsStep = 100;
constexpr int kReps = 5;

struct WalConfig {
  const char* key;    // JSON section name
  bool durable;
  storage::FsyncPolicy fsync = storage::FsyncPolicy::kNever;
};

struct WalRun {
  Micros wall = 0;
  uint64_t records = 0;
  uint64_t bytes = 0;
  uint64_t syncs = 0;
};

/// One configuration's repetitions: the median run (by wall time) plus
/// the fastest and slowest wall times.
struct WalSummary {
  WalRun median;
  Micros min_wall = 0;
  Micros max_wall = 0;
};

WalSummary Summarize(std::vector<WalRun> runs) {
  std::sort(runs.begin(), runs.end(),
            [](const WalRun& a, const WalRun& b) { return a.wall < b.wall; });
  return {runs[runs.size() / 2], runs.front().wall, runs.back().wall};
}

double Ms(Micros us) { return static_cast<double>(us) / 1000.0; }

std::string FreshDir() {
  std::string tmpl = std::filesystem::temp_directory_path() /
                     "dc_bench_wal_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::perror("mkdtemp");
    std::exit(1);
  }
  return tmpl;
}

WalRun RunOnce(const WalConfig& cfg,
               const std::vector<std::vector<BatPtr>>& batches) {
  EngineOptions o = Sync();
  std::string dir;
  if (cfg.durable) {
    dir = FreshDir();
    o.durability.dir = dir;
    o.durability.fsync = cfg.fsync;
  }
  WalRun r;
  {
    Engine engine(o);
    DC_CHECK_OK(engine.Execute(workload::PacketDdl("pkts")));
    DC_CHECK_OK(engine
                    .SubmitContinuous(
                        "SELECT port, count(*), sum(bytes) FROM pkts "
                        "[RANGE 1 SECONDS SLIDE 250 MILLISECONDS] "
                        "GROUP BY port",
                        QueryOpts(ExecMode::kIncremental, "agg",
                                  bench::NullSink()))
                    .status());
    DC_CHECK_OK(engine
                    .SubmitContinuous(
                        "SELECT count(*), avg(bytes) FROM pkts "
                        "[RANGE 2 SECONDS SLIDE 500 MILLISECONDS]",
                        QueryOpts(ExecMode::kIncremental, "scalar",
                                  bench::NullSink()))
                    .status());
    r.wall = bench::FeedAndPump(engine, "pkts", batches);
    r.records = engine.metrics().GetCounter("wal.records")->Value();
    r.bytes = engine.metrics().GetCounter("wal.bytes")->Value();
    r.syncs = engine.metrics().GetCounter("wal.syncs")->Value();
  }
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  return r;
}

void PrintRow(const char* label, const WalSummary& s, uint64_t rows,
              const WalSummary& base) {
  const WalRun& r = s.median;
  const double rows_per_s = static_cast<double>(rows) * kMicrosPerSecond /
                            static_cast<double>(r.wall);
  printf("%14s | %9.1f %9.1f %9.1f %12.0f | %9llu %10llu %8llu | %6.2fx\n",
         label, Ms(r.wall), Ms(s.min_wall), Ms(s.max_wall), rows_per_s,
         static_cast<unsigned long long>(r.records),
         static_cast<unsigned long long>(r.bytes),
         static_cast<unsigned long long>(r.syncs),
         static_cast<double>(r.wall) / static_cast<double>(base.median.wall));
}

void JsonSection(FILE* f, const char* key, const WalSummary& s, uint64_t rows,
                 const char* trail) {
  const WalRun& r = s.median;
  fprintf(f,
          "  \"%s\": {\"wall_ms\": %.3f, \"wall_ms_min\": %.3f, "
          "\"wall_ms_max\": %.3f, \"rows_per_s\": %.1f, "
          "\"wal_records\": %llu, \"wal_bytes\": %llu, \"wal_syncs\": "
          "%llu}%s\n",
          key, Ms(r.wall), Ms(s.min_wall), Ms(s.max_wall),
          static_cast<double>(rows) * kMicrosPerSecond /
              static_cast<double>(r.wall),
          static_cast<unsigned long long>(r.records),
          static_cast<unsigned long long>(r.bytes),
          static_cast<unsigned long long>(r.syncs), trail);
}

}  // namespace
}  // namespace dc

int main(int argc, char** argv) {
  using namespace dc;
  const bool smoke = argc > 1 && strcmp(argv[1], "--smoke") == 0;
  const uint64_t rows = smoke ? kSmokeRows : kRows;

  workload::PacketConfig config;
  config.ts_step = kTsStep;
  std::vector<std::vector<BatPtr>> batches;
  for (uint64_t off = 0; off < rows; off += kBatchRows) {
    batches.push_back(workload::PacketBatch(config, off, kBatchRows));
  }

  Banner("E7", "durability overhead: WAL off vs fsync=never vs fsync=interval");
  printf("\n%llu rows in %zu batches, 2 standing queries, median [min, max] "
         "of %d interleaved reps\n",
         static_cast<unsigned long long>(rows), batches.size(), kReps);

  const WalConfig configs[] = {
      {"off", false},
      {"fsync_never", true, storage::FsyncPolicy::kNever},
      {"fsync_interval", true, storage::FsyncPolicy::kInterval},
  };
  std::vector<WalRun> runs[3];
  for (int rep = 0; rep < kReps; ++rep) {
    for (int c = 0; c < 3; ++c) runs[c].push_back(RunOnce(configs[c], batches));
  }
  WalSummary sum[3];
  for (int c = 0; c < 3; ++c) sum[c] = Summarize(runs[c]);

  printf("\n%14s | %9s %9s %9s %12s | %9s %10s %8s | %7s\n", "config",
         "median ms", "min ms", "max ms", "rows/s", "records", "bytes",
         "syncs", "vs off");
  printf("%s\n", std::string(104, '-').c_str());
  for (int c = 0; c < 3; ++c) {
    PrintRow(configs[c].key, sum[c], rows, sum[0]);
  }

  FILE* f = fopen("BENCH_wal.json", "w");
  if (f == nullptr) {
    printf("  !! cannot write BENCH_wal.json\n");
    return 1;
  }
  const double never_ratio = static_cast<double>(sum[1].median.wall) /
                             static_cast<double>(sum[0].median.wall);
  const double interval_ratio = static_cast<double>(sum[2].median.wall) /
                                static_cast<double>(sum[0].median.wall);
  fprintf(f, "{\n  \"bench\": \"wal\",\n  \"generated_by\": \"bench_wal\",\n");
  fprintf(f, "  \"rows\": %llu,\n  \"reps\": %d,\n  \"stat\": \"median\",\n",
          static_cast<unsigned long long>(rows), kReps);
  JsonSection(f, configs[0].key, sum[0], rows, ",");
  JsonSection(f, configs[1].key, sum[1], rows, ",");
  JsonSection(f, configs[2].key, sum[2], rows, ",");
  fprintf(f, "  \"overhead_never\": %.3f,\n  \"overhead_interval\": %.3f\n}\n",
          never_ratio, interval_ratio);
  fclose(f);
  printf("\nwrote BENCH_wal.json (medians: never %.2fx, interval %.2fx vs "
         "off)\n",
         never_ratio, interval_ratio);
  return 0;
}
