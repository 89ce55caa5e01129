// E8 — columnar kernel microbenchmarks (paper §3, "A Column-oriented
// DBMS"): the bulk operators DataCell reuses. Validates that the substrate
// behaves like a column store: selection scans at memory speed, candidate
// lists keep downstream operators proportional to selectivity, hash
// join/group scale with input, not with window bookkeeping.

#include <benchmark/benchmark.h>

#include "bat/ops_arith.h"
#include "bat/ops_group.h"
#include "bat/ops_join.h"
#include "bat/ops_select.h"
#include "bat/ops_sort.h"
#include "storage/wal.h"
#include "util/random.h"
#include "workload/generators.h"

namespace dc {
namespace {

BatPtr RandomI64(uint64_t n, int64_t lo, int64_t hi, uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<int64_t> v(n);
  for (auto& x : v) x = rng.UniformInt(lo, hi);
  return Bat::MakeI64(std::move(v));
}

BatPtr RandomF64(uint64_t n, uint64_t seed = 2) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.UniformDouble(0, 1000);
  return Bat::MakeF64(std::move(v));
}

void BM_SelectCmp(benchmark::State& state) {
  const uint64_t n = 1 << 20;
  const int64_t sel_pct = state.range(0);
  auto col = RandomI64(n, 0, 99);
  const Value lit = Value::I64(sel_pct);
  for (auto _ : state) {
    auto cand = ops::SelectCmp(*col, CmpOp::kLt, lit);
    benchmark::DoNotOptimize(cand->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SelectCmp)->Arg(1)->Arg(10)->Arg(50)->Arg(100);

void BM_SelectThenGather(benchmark::State& state) {
  const uint64_t n = 1 << 20;
  const int64_t sel_pct = state.range(0);
  auto key = RandomI64(n, 0, 99);
  auto payload = RandomF64(n);
  const Value lit = Value::I64(sel_pct);
  for (auto _ : state) {
    auto cand = ops::SelectCmp(*key, CmpOp::kLt, lit);
    auto out = payload->Gather(*cand);
    benchmark::DoNotOptimize(out->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SelectThenGather)->Arg(1)->Arg(10)->Arg(100);

void BM_MapArith(benchmark::State& state) {
  const uint64_t n = 1 << 20;
  auto a = RandomF64(n, 3);
  auto b = RandomF64(n, 4);
  for (auto _ : state) {
    auto out = ops::MapArith(*a, ArithOp::kMul, *b);
    benchmark::DoNotOptimize((*out)->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_MapArith);

void BM_HashJoin(benchmark::State& state) {
  const uint64_t n = state.range(0);
  auto left = RandomI64(n, 0, static_cast<int64_t>(n) - 1, 5);
  auto right = RandomI64(n / 4, 0, static_cast<int64_t>(n) - 1, 6);
  for (auto _ : state) {
    auto jr = ops::HashJoin(*left, *right);
    benchmark::DoNotOptimize(jr->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_HashJoin)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

// The stream⋈table shape of online_analytics' flows_by_asn: one basic
// window of 2 500 stream keys probes a join hash built once over the
// 20 000-row hosts table (unique keys), as a window node does between
// table versions.
void BM_JoinProbePrebuilt(benchmark::State& state) {
  constexpr int64_t kHosts = 20000;
  std::vector<int64_t> ips(kHosts);
  for (int64_t i = 0; i < kHosts; ++i) ips[i] = i;
  auto table = Bat::MakeI64(std::move(ips));
  auto stream = RandomI64(2500, 0, kHosts - 1, 8);
  ops::JoinHash build(TypeId::kI64);
  DC_CHECK_OK(build.Append(*table, 0, table->size()));
  std::vector<Oid> left, right;
  for (auto _ : state) {
    left.clear();
    right.clear();
    DC_CHECK_OK(build.Probe(*stream, 0, stream->size(), &left, &right,
                            /*newest_first=*/true));
    benchmark::DoNotOptimize(right.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream->size()));
}
BENCHMARK(BM_JoinProbePrebuilt)->Unit(benchmark::kMicrosecond);

// One fire of a delta join's rolling index over a 10-basic-window window
// of 2 500-row basic windows (keys uniform over 5 000 values, about 5
// matches per probe): evict the basic window that left, probe with the
// new one, append it, and rebase once the dead prefix outgrows the live
// rows — the retained side's work per emission.
void BM_RollingJoinFire(benchmark::State& state) {
  constexpr uint64_t kBw = 2500;
  constexpr int kWindow = 10;
  std::vector<BatPtr> bws;
  for (uint64_t s = 0; s < 16; ++s) bws.push_back(RandomI64(kBw, 0, 4999, s));
  ops::JoinHash idx(TypeId::kI64);
  for (int j = 0; j < kWindow; ++j) DC_CHECK_OK(idx.Append(*bws[j], 0, kBw));
  std::vector<Oid> probe_out, pos_out;
  size_t next = kWindow;
  for (auto _ : state) {
    const Bat& fresh = *bws[next++ % bws.size()];
    idx.EvictBelow(idx.live_from() + kBw);
    probe_out.clear();
    pos_out.clear();
    DC_CHECK_OK(idx.Probe(fresh, 0, kBw, &probe_out, &pos_out));
    DC_CHECK_OK(idx.Append(fresh, 0, kBw));
    if (idx.dead_entries() > idx.live_entries()) idx.Rebase();
    benchmark::DoNotOptimize(pos_out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBw));
}
BENCHMARK(BM_RollingJoinFire)->Unit(benchmark::kMicrosecond);

void BM_GroupTableBuild(benchmark::State& state) {
  const uint64_t n = 1 << 19;
  const int64_t cardinality = state.range(0);
  auto keys = RandomI64(n, 0, cardinality - 1, 7);
  for (auto _ : state) {
    ops::GroupTable groups({TypeId::kI64}, {});
    benchmark::DoNotOptimize(groups.AddRows({keys.get()}, {}).ok());
    benchmark::DoNotOptimize(groups.num_groups());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_GroupTableBuild)->Arg(16)->Arg(1024)->Arg(65536);

// The per-emission merge of an incremental GROUP BY, in the shape of
// netmon's src_heavy: 5 basic-window partials of 12.5 k rows over 5 000
// Zipf source hosts, each with count(*) and sum(bytes), merged in order
// and finalized.
void BM_GroupTableMerge(benchmark::State& state) {
  constexpr int kPartials = 5;
  constexpr uint64_t kRows = 12500;
  const std::vector<std::pair<ops::AggKind, TypeId>> aggs{
      {ops::AggKind::kCount, TypeId::kI64},
      {ops::AggKind::kSum, TypeId::kI64}};
  ZipfGenerator zipf(5000, 0.99, 10);
  std::vector<ops::GroupTable> partials;
  for (int p = 0; p < kPartials; ++p) {
    std::vector<int64_t> src(kRows);
    for (int64_t& x : src) x = static_cast<int64_t>(zipf.Next());
    auto keys = Bat::MakeI64(std::move(src));
    auto bytes = RandomI64(kRows, 40, 1500, 11 + p);
    partials.emplace_back(std::vector<TypeId>{TypeId::kI64}, aggs);
    if (!partials.back().AddRows({keys.get()}, {nullptr, bytes.get()}).ok()) {
      state.SkipWithError("partial build failed");
      return;
    }
  }
  for (auto _ : state) {
    ops::GroupTable merged({TypeId::kI64}, aggs);
    for (const ops::GroupTable& p : partials) {
      benchmark::DoNotOptimize(merged.Merge(p).ok());
    }
    auto cols = merged.Finalize();
    benchmark::DoNotOptimize(cols->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kPartials * static_cast<int64_t>(kRows));
}
BENCHMARK(BM_GroupTableMerge)->Unit(benchmark::kMicrosecond);

// The per-basic-window partial build of an incremental GROUP BY, in
// BM_GroupTableMerge's shape (12.5 k Zipf rows over 5 000 source hosts),
// with three aggregate layouts: 0 = keys only, 1 = count(*) + sum(i64),
// 2 = min + max(i64). The states are flat typed columns, so folding the
// aggregates costs a small multiple of building the keys;
// check_bench_regression.py --grouping gates layouts 1 and 2 against 0 on
// the medians of the repetitions.
void BM_GroupTableFold(benchmark::State& state) {
  constexpr uint64_t kRows = 12500;
  ZipfGenerator zipf(5000, 0.99, 10);
  std::vector<int64_t> src(kRows);
  for (int64_t& x : src) x = static_cast<int64_t>(zipf.Next());
  auto keys = Bat::MakeI64(std::move(src));
  auto bytes = RandomI64(kRows, 40, 1500, 11);
  std::vector<std::pair<ops::AggKind, TypeId>> aggs;
  std::vector<const Bat*> values;
  switch (state.range(0)) {
    case 1:
      aggs = {{ops::AggKind::kCount, TypeId::kI64},
              {ops::AggKind::kSum, TypeId::kI64}};
      values = {nullptr, bytes.get()};
      state.SetLabel("count+sum");
      break;
    case 2:
      aggs = {{ops::AggKind::kMin, TypeId::kI64},
              {ops::AggKind::kMax, TypeId::kI64}};
      values = {bytes.get(), bytes.get()};
      state.SetLabel("min+max");
      break;
    default:
      state.SetLabel("keys only");
      break;
  }
  // One table reset per iteration, as the delta pre-aggregation reuses
  // its per-side tables: the key map keeps its slots, so the timings
  // compare folds rather than allocator behaviour.
  ops::GroupTable partial;
  for (auto _ : state) {
    partial.Reset({TypeId::kI64}, aggs);
    benchmark::DoNotOptimize(partial.AddRows({keys.get()}, values).ok());
    benchmark::DoNotOptimize(partial.num_groups());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRows));
}
BENCHMARK(BM_GroupTableFold)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond)
    ->Repetitions(5);

void BM_ScalarAggregate(benchmark::State& state) {
  const uint64_t n = 1 << 20;
  auto col = RandomF64(n, 8);
  const std::vector<std::pair<ops::AggKind, TypeId>> aggs{
      {ops::AggKind::kSum, TypeId::kF64},
      {ops::AggKind::kMin, TypeId::kF64},
      {ops::AggKind::kMax, TypeId::kF64}};
  for (auto _ : state) {
    ops::GroupTable st({}, aggs);
    benchmark::DoNotOptimize(
        st.AddRows(n, {col.get(), col.get(), col.get()}).ok());
    benchmark::DoNotOptimize(st.states().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ScalarAggregate);

void BM_Sort(benchmark::State& state) {
  const uint64_t n = state.range(0);
  auto col = RandomI64(n, 0, 1 << 30, 9);
  for (auto _ : state) {
    auto order = ops::SortOrder({{col.get(), true}});
    benchmark::DoNotOptimize(order->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Sort)->Arg(1 << 14)->Arg(1 << 17);

// Ablation for the compiler's predicate strategy (DESIGN.md §4.3): a
// conjunction evaluated as a candidate chain (select on the shrinking
// candidate list) vs the boolean-map fallback (materialize full bool
// columns, AND them, then filter). The chain wins whenever the first
// conjunct is selective, which is why the optimizer orders conjuncts
// cheapest/most-selective first.
void BM_AblationCandidateChain(benchmark::State& state) {
  const uint64_t n = 1 << 20;
  const int64_t first_sel = state.range(0);  // % passing the first conjunct
  auto a = RandomI64(n, 0, 99, 12);
  auto b = RandomI64(n, 0, 99, 13);
  for (auto _ : state) {
    auto c1 = ops::SelectCmp(*a, CmpOp::kLt, Value::I64(first_sel));
    auto c2 = ops::SelectCmp(*b, CmpOp::kLt, Value::I64(50), &*c1);
    benchmark::DoNotOptimize(c2->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_AblationCandidateChain)->Arg(1)->Arg(50)->Arg(100);

void BM_AblationBoolMapFallback(benchmark::State& state) {
  const uint64_t n = 1 << 20;
  const int64_t first_sel = state.range(0);
  auto a = RandomI64(n, 0, 99, 12);
  auto b = RandomI64(n, 0, 99, 13);
  for (auto _ : state) {
    auto m1 = ops::MapCmpConst(*a, CmpOp::kLt, Value::I64(first_sel));
    auto m2 = ops::MapCmpConst(*b, CmpOp::kLt, Value::I64(50));
    auto both = ops::MapAnd(**m1, **m2);
    auto cand = ops::SelectTrue(**both);
    benchmark::DoNotOptimize(cand->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_AblationBoolMapFallback)->Arg(1)->Arg(50)->Arg(100);

void BM_CandidateIntersect(benchmark::State& state) {
  const uint64_t n = 1 << 20;
  auto a = RandomI64(n, 0, 99, 10);
  auto b = RandomI64(n, 0, 99, 11);
  auto ca = *ops::SelectCmp(*a, CmpOp::kLt, Value::I64(50));
  auto cb = *ops::SelectCmp(*b, CmpOp::kLt, Value::I64(50));
  for (auto _ : state) {
    auto out = Candidates::Intersect(ca, cb);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_CandidateIntersect);

// Basket-log codec on netmon's batch shape: one 625-row packet batch
// (ts + four i64 columns), as logged per append by a durable engine.
std::vector<BatPtr> NetmonBatch() {
  return workload::PacketBatch(workload::PacketConfig{}, 0, 625);
}

void BM_WalEncodeBatch(benchmark::State& state) {
  const std::vector<BatPtr> cols = NetmonBatch();
  size_t bytes = 0;
  for (auto _ : state) {
    storage::WalFrame frame = storage::EncodeBatch(7, 4375, 625, cols);
    bytes = frame.payload().size();
    benchmark::DoNotOptimize(frame.payload().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_WalEncodeBatch);

void BM_WalDecodeBatch(benchmark::State& state) {
  const storage::WalFrame frame =
      storage::EncodeBatch(7, 4375, 625, NetmonBatch());
  const storage::WalRecord rec{storage::WalRecordType::kBatch,
                               std::string(frame.payload().substr(1))};
  for (auto _ : state) {
    auto batch = storage::DecodeBatch(rec);
    benchmark::DoNotOptimize(batch.ok());
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * frame.payload().size()));
}
BENCHMARK(BM_WalDecodeBatch);

void BM_Crc32(benchmark::State& state) {
  const storage::WalFrame frame =
      storage::EncodeBatch(7, 4375, 625, NetmonBatch());
  const std::string_view payload = frame.payload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::Crc32(payload.data(), payload.size()));
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * payload.size()));
}
BENCHMARK(BM_Crc32);

}  // namespace
}  // namespace dc

BENCHMARK_MAIN();
