// E7 — basket mechanics (paper §3, "Baskets"): the cost of the stream
// buffer vs ordinary persistent tables, and the append/consume cycle.
// google-benchmark microbenches:
//   * basket column-batch append (the receptor hot path)
//   * basket row append
//   * COW table append (why baskets exist: tables are read-optimized)
//   * full append->read->advance->shrink cycle at steady state
//   * bounded-basket producer/consumer throughput (the backpressure path)
//   * sliding trim: per-advance cost at 30 k and 300 k resident rows,
//     which must not grow with the resident window (the trim is amortized
//     O(dropped); check_bench_regression.py --baskets gates the ratio)
//
// `--smoke` runs the suite at a tiny time budget and writes
// BENCH_baskets.json next to the binary (the CI anti-bit-rot entry that
// tracks ingest throughput under bounded memory).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/basket.h"
#include "storage/table.h"
#include "workload/generators.h"

namespace dc {
namespace {

Schema SensorSchema() {
  Schema s;
  DC_CHECK_OK(s.AddColumn("ts", TypeId::kTs));
  DC_CHECK_OK(s.AddColumn("sensor", TypeId::kI64));
  DC_CHECK_OK(s.AddColumn("temp", TypeId::kF64));
  return s;
}

void BM_BasketAppendBatch(benchmark::State& state) {
  const uint64_t batch_rows = state.range(0);
  workload::SensorConfig config;
  auto batch = workload::SensorBatch(config, 0, batch_rows);
  Basket basket("s", SensorSchema(), 0);
  const int reader = basket.RegisterReader(true);
  uint64_t consumed = 0;
  for (auto _ : state) {
    DC_CHECK_OK(basket.Append(batch));
    // Consume immediately so the basket stays small (steady state).
    consumed += batch_rows;
    basket.AdvanceReader(reader, consumed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch_rows));
}
BENCHMARK(BM_BasketAppendBatch)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BasketAppendRow(benchmark::State& state) {
  Basket basket("s", SensorSchema(), 0);
  const int reader = basket.RegisterReader(true);
  int64_t i = 0;
  for (auto _ : state) {
    DC_CHECK_OK(basket.AppendRow(
        {Value::Ts(i), Value::I64(i % 100), Value::F64(20.0)}));
    ++i;
    basket.AdvanceReader(reader, static_cast<uint64_t>(i));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BasketAppendRow);

void BM_TableAppendBatchCow(benchmark::State& state) {
  const uint64_t batch_rows = state.range(0);
  workload::SensorConfig config;
  auto batch = workload::SensorBatch(config, 0, batch_rows);
  for (auto _ : state) {
    state.PauseTiming();
    // Fresh table per iteration so COW cost reflects the growing-table
    // append the paper's design avoids on the hot path.
    Table table("t", SensorSchema());
    state.ResumeTiming();
    for (int k = 0; k < 8; ++k) {
      DC_CHECK_OK(table.AppendColumns(batch));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 8 *
                          static_cast<int64_t>(batch_rows));
}
BENCHMARK(BM_TableAppendBatchCow)->Arg(1024);

void BM_BasketWindowReadCycle(benchmark::State& state) {
  const uint64_t window_rows = state.range(0);
  workload::SensorConfig config;
  auto batch = workload::SensorBatch(config, 0, window_rows);
  Basket basket("s", SensorSchema(), 0);
  const int reader = basket.RegisterReader(true);
  uint64_t cursor = 0;
  for (auto _ : state) {
    DC_CHECK_OK(basket.Append(batch));
    BasketView view = basket.Read(cursor, window_rows);
    benchmark::DoNotOptimize(view.rows);
    cursor += window_rows;
    basket.AdvanceReader(reader, cursor);  // triggers shrink
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(window_rows));
}
BENCHMARK(BM_BasketWindowReadCycle)->Arg(1024)->Arg(8192);

void BM_BasketBackpressureCycle(benchmark::State& state) {
  // Producer/consumer through a bounded basket: the producer blocks when
  // the bound is hit, the consumer thread drains in window-sized chunks.
  // Items/s is end-to-end ingest throughput under bounded memory.
  const uint64_t cap_rows = state.range(0);
  constexpr uint64_t kBatchRows = 256;
  workload::SensorConfig config;
  auto batch = workload::SensorBatch(config, 0, kBatchRows);
  BasketLimits limits;
  limits.max_rows = cap_rows;
  Basket basket("s", SensorSchema(), 0, limits);
  const int reader = basket.RegisterReader(true);

  std::atomic<bool> done{false};
  std::thread consumer([&] {
    uint64_t cursor = 0;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t high = basket.HighSeq();
      if (high == cursor) {
        std::this_thread::yield();
        continue;
      }
      BasketView view = basket.Read(cursor, high - cursor);
      benchmark::DoNotOptimize(view.rows);
      cursor = view.first_seq + view.rows;
      basket.AdvanceReader(reader, cursor);
    }
  });
  for (auto _ : state) {
    DC_CHECK_OK(basket.Append(batch));  // blocks at the bound
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchRows));
  state.counters["stalls"] =
      static_cast<double>(basket.Stats().append_stalls);
  state.counters["hwm_rows"] =
      static_cast<double>(basket.Stats().resident_hwm_rows);
}
BENCHMARK(BM_BasketBackpressureCycle)->Arg(1024)->Arg(10000)->UseRealTime();

Schema TrimSchema() {
  Schema s;
  for (int c = 0; c < 5; ++c) {
    DC_CHECK_OK(s.AddColumn("c" + std::to_string(c), TypeId::kI64));
  }
  DC_CHECK_OK(s.AddColumn("name", TypeId::kStr));
  return s;
}

void BM_BasketSlidingTrim(benchmark::State& state) {
  // A window of state.range(0) resident rows slides by a fixed 1 000 rows
  // per advance: append 1 000, then the reader's advance drops the oldest
  // 1 000. The time per advance must not depend on the resident rows.
  const uint64_t resident = state.range(0);
  constexpr uint64_t kAdvanceRows = 1000;
  std::vector<BatPtr> batch;
  for (int c = 0; c < 5; ++c) {
    std::vector<int64_t> v(kAdvanceRows);
    for (uint64_t i = 0; i < kAdvanceRows; ++i) v[i] = int64_t(i) * (c + 1);
    batch.push_back(Bat::MakeI64(std::move(v)));
  }
  auto names = Bat::MakeEmpty(TypeId::kStr);
  for (uint64_t i = 0; i < kAdvanceRows; ++i) {
    names->AppendStr("host-" + std::to_string(i % 500));
  }
  batch.push_back(names);
  Basket basket("s", TrimSchema());
  const int reader = basket.RegisterReader(true);
  for (uint64_t r = 0; r < resident; r += kAdvanceRows) {
    DC_CHECK_OK(basket.Append(batch));
  }
  uint64_t cursor = 0;
  const auto advance = [&] {
    DC_CHECK_OK(basket.Append(batch));
    cursor += kAdvanceRows;
    basket.AdvanceReader(reader, cursor);
  };
  // Warm up past the first compaction, so the columns' capacity has
  // settled and the timed advances see the steady state.
  for (uint64_t r = 0; r <= resident; r += kAdvanceRows) advance();
  for (auto _ : state) advance();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAdvanceRows));
}
// 600 timed advances span one or two compactions at 300 k resident rows
// (one every 301 advances) and about twenty at 30 k; five repetitions give
// the gate a median.
BENCHMARK(BM_BasketSlidingTrim)
    ->Arg(30000)
    ->Arg(300000)
    ->Iterations(600)
    ->Repetitions(5);

}  // namespace
}  // namespace dc

// `--smoke` expands to a tiny time budget plus a JSON report, so CI can run
// the suite cheaply and archive BENCH_baskets.json for the perf trajectory.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::vector<std::string> smoke_flags;
  const auto smoke_it = std::find_if(args.begin(), args.end(), [](char* a) {
    return std::string_view(a) == "--smoke";
  });
  if (smoke_it != args.end()) {
    args.erase(smoke_it);
    smoke_flags = {"--benchmark_min_time=0.01",
                   "--benchmark_out=BENCH_baskets.json",
                   "--benchmark_out_format=json"};
    for (std::string& f : smoke_flags) args.push_back(f.data());
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
