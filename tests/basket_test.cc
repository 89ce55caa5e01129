// Unit tests for baskets (multi-reader consumption, dropping, watermarks,
// batch boundaries) and the window-boundary math.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/basket.h"
#include "core/window.h"
#include "tests/test_util.h"

namespace dc {
namespace {

using testutil::TsI64Schema;

TEST(BasketTest, AppendAndRead) {
  Basket b("s", TsI64Schema(), 0);
  ASSERT_TRUE(b.AppendRow({Value::Ts(10), Value::I64(1)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Ts(20), Value::I64(2)}).ok());
  EXPECT_EQ(b.HighSeq(), 2u);
  BasketView view = b.Read(0);
  EXPECT_EQ(view.rows, 2u);
  EXPECT_EQ(view.cols[1]->I64Data()[1], 2);
  EXPECT_EQ(b.EventWatermark(), 20);
}

TEST(BasketTest, TypeAndArityChecks) {
  Basket b("s", TsI64Schema(), 0);
  EXPECT_FALSE(b.Append({Bat::MakeI64({1})}).ok());  // wrong arity
  EXPECT_FALSE(
      b.Append({Bat::MakeI64({1}), Bat::MakeI64({1})}).ok());  // ts type
  EXPECT_FALSE(
      b.Append({Bat::MakeTs({1, 2}), Bat::MakeI64({1})}).ok());  // ragged
}

TEST(BasketTest, OutOfOrderTimestampsClamped) {
  Basket b("s", TsI64Schema(), 0);
  ASSERT_TRUE(b.AppendRow({Value::Ts(100), Value::I64(1)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Ts(50), Value::I64(2)}).ok());
  BasketView view = b.Read(0);
  EXPECT_EQ(view.cols[0]->I64Data()[1], 100);  // clamped
  EXPECT_EQ(b.EventWatermark(), 100);
}

TEST(BasketTest, ReadersGateDropping) {
  Basket b("s", TsI64Schema(), 0);
  const int r1 = b.RegisterReader(true);
  const int r2 = b.RegisterReader(true);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(b.AppendRow({Value::Ts(i), Value::I64(i)}).ok());
  }
  b.AdvanceReader(r1, 7);
  EXPECT_EQ(b.DropHorizon(), 0u);  // r2 still at 0
  b.AdvanceReader(r2, 4);
  EXPECT_EQ(b.DropHorizon(), 4u);  // min cursor
  EXPECT_EQ(b.Stats().resident_rows, 6u);
  EXPECT_EQ(b.Stats().dropped_total, 4u);
  // Reading below the horizon clamps up.
  BasketView view = b.Read(0);
  EXPECT_EQ(view.first_seq, 4u);
  EXPECT_EQ(view.cols[1]->I64Data()[0], 4);
  // Unregistering the slow reader lets r1's cursor take effect.
  b.UnregisterReader(r2);
  EXPECT_EQ(b.DropHorizon(), 7u);
}

TEST(BasketTest, NoReadersMeansNoDropping) {
  Basket b("s", TsI64Schema(), 0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(b.AppendRow({Value::Ts(i), Value::I64(i)}).ok());
  }
  EXPECT_EQ(b.DropHorizon(), 0u);
  EXPECT_EQ(b.Stats().resident_rows, 5u);
}

TEST(BasketTest, ReaderFromNowVsStart) {
  Basket b("s", TsI64Schema(), 0);
  ASSERT_TRUE(b.AppendRow({Value::Ts(1), Value::I64(1)}).ok());
  const int from_start = b.RegisterReader(true);
  const int from_now = b.RegisterReader(false);
  EXPECT_EQ(b.ReaderCursor(from_start), 0u);
  EXPECT_EQ(b.ReaderCursor(from_now), 1u);
}

TEST(BasketTest, SeqRangeForTs) {
  Basket b("s", TsI64Schema(), 0);
  for (int64_t ts : {10, 20, 20, 30, 40}) {
    ASSERT_TRUE(b.AppendRow({Value::Ts(ts), Value::I64(0)}).ok());
  }
  auto range = b.SeqRangeForTs(20, 40);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->first, 1u);
  EXPECT_EQ(range->second, 4u);
  // After dropping, sequence numbers stay absolute.
  const int r = b.RegisterReader(true);
  b.AdvanceReader(r, 2);
  range = b.SeqRangeForTs(20, 40);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->first, 2u);  // first resident row with ts >= 20
  EXPECT_EQ(range->second, 4u);
}

TEST(BasketTest, BatchLogSurvivesUpToDrop) {
  Basket b("s", TsI64Schema(), 0);
  ASSERT_TRUE(b.Append({Bat::MakeTs({1, 2}), Bat::MakeI64({1, 2})}).ok());
  ASSERT_TRUE(b.Append({Bat::MakeTs({3}), Bat::MakeI64({3})}).ok());
  auto batches = b.BatchesAfter(0);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].end_seq, 2u);
  EXPECT_EQ(batches[1].end_seq, 3u);
  ASSERT_EQ(b.BatchesAfter(1).size(), 1u);
  EXPECT_EQ(b.BatchesAfter(1)[0].end_seq, 3u);
  // Entries below the drop horizon are trimmed (no tracking reader here).
  const int r = b.RegisterReader(true);
  b.AdvanceReader(r, 2);
  batches = b.BatchesAfter(0);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].end_seq, 3u);
}

TEST(BasketTest, EmptyBatchKeepsBoundaryForTrackingReader) {
  Basket b("s", TsI64Schema(), 0);
  b.RegisterReader(/*from_start=*/true, /*track_batches=*/true);
  ASSERT_TRUE(b.Append({Bat::MakeTs({1, 2}), Bat::MakeI64({1, 2})}).ok());
  ASSERT_TRUE(
      b.Append({Bat::MakeEmpty(TypeId::kTs), Bat::MakeEmpty(TypeId::kI64)})
          .ok());
  ASSERT_TRUE(b.Append({Bat::MakeTs({3}), Bat::MakeI64({3})}).ok());
  EXPECT_EQ(b.HighSeq(), 3u);  // the empty batch added no rows
  EXPECT_EQ(b.Stats().append_batches, 3u);
  EXPECT_EQ(b.Stats().empty_batches, 1u);
  const auto batches = b.BatchesAfter(0);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[1].begin_seq, 2u);
  EXPECT_EQ(batches[1].end_seq, 2u);  // zero-row boundary preserved
  EXPECT_EQ(batches[2].end_seq, 3u);
}

TEST(BasketTest, EmptyBatchNotRetainedWithoutTrackingReader) {
  // With nobody consuming the batch log, zero-row boundaries have no
  // consumer: they count in stats but are not retained, so keep-alive
  // empty appends cannot grow the log without bound.
  Basket b("s", TsI64Schema(), 0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        b.Append({Bat::MakeEmpty(TypeId::kTs), Bat::MakeEmpty(TypeId::kI64)})
            .ok());
  }
  EXPECT_EQ(b.Stats().empty_batches, 3u);
  EXPECT_TRUE(b.BatchesAfter(0).empty());
}

TEST(BasketTest, EmptyBatchAtDropHorizonSurvivesUntilAcked) {
  Basket b("s", TsI64Schema(), 0);
  const int r = b.RegisterReader(/*from_start=*/true, /*track_batches=*/true);
  ASSERT_TRUE(b.Append({Bat::MakeTs({1, 2}), Bat::MakeI64({1, 2})}).ok());
  ASSERT_TRUE(
      b.Append({Bat::MakeEmpty(TypeId::kTs), Bat::MakeEmpty(TypeId::kI64)})
          .ok());
  ASSERT_TRUE(b.Append({Bat::MakeTs({3}), Bat::MakeI64({3})}).ok());
  // Deliver batch 0 only: rows [0,2) drop, leaving the zero-row boundary
  // sitting exactly at the drop horizon (seq 2). It must not be trimmed.
  b.AdvanceReaderBatches(r, 2, 1);
  EXPECT_EQ(b.DropHorizon(), 2u);
  auto pending = b.BatchesAfter(1);
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].ordinal, 1u);
  EXPECT_EQ(pending[0].end_seq, 2u);  // the empty boundary, still alive
  // Acking it trims it without touching the following data batch — a
  // delivered empty batch can never reappear (no double delivery).
  b.AdvanceReaderBatches(r, 2, 2);
  pending = b.BatchesAfter(0);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].ordinal, 2u);
}

TEST(BasketTest, BoundedAppendTimesOutWhenFull) {
  BasketLimits limits;
  limits.max_rows = 4;
  Basket b("s", TsI64Schema(), 0, limits);
  const int r = b.RegisterReader(true);
  // Below the bound: admitted even though the batch overshoots it.
  ASSERT_TRUE(b.Append({Bat::MakeTs({1, 2, 3}), Bat::MakeI64({1, 2, 3})},
                       /*timeout_micros=*/0)
                  .ok());
  ASSERT_TRUE(b.Append({Bat::MakeTs({4, 5}), Bat::MakeI64({4, 5})},
                       /*timeout_micros=*/0)
                  .ok());
  EXPECT_EQ(b.Stats().resident_rows, 5u);  // cap + one in-flight batch
  // At capacity: a non-blocking append fails, a short wait times out.
  const Status st = b.Append({Bat::MakeTs({6}), Bat::MakeI64({6})},
                             /*timeout_micros=*/0);
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_TRUE(b.Append({Bat::MakeTs({6}), Bat::MakeI64({6})},
                       /*timeout_micros=*/2 * kMicrosPerMilli)
                  .IsResourceExhausted());
  const BasketStats stats = b.Stats();
  EXPECT_EQ(stats.capacity_rows, 4u);
  EXPECT_EQ(stats.resident_hwm_rows, 5u);
  EXPECT_GE(stats.append_stalls, 2u);
  EXPECT_GE(stats.append_timeouts, 2u);
  // Draining frees space; the append is admitted again.
  b.AdvanceReader(r, 3);
  ASSERT_TRUE(b.Append({Bat::MakeTs({6}), Bat::MakeI64({6})},
                       /*timeout_micros=*/0)
                  .ok());
  // Zero-row batches bypass the capacity gate entirely.
  ASSERT_TRUE(
      b.Append({Bat::MakeEmpty(TypeId::kTs), Bat::MakeEmpty(TypeId::kI64)},
               /*timeout_micros=*/0)
          .ok());
}

TEST(BasketTest, BlockingAppendFailsFastWithNoReaders) {
  // An unbounded wait on a reader-less basket can never be satisfied
  // (nothing frees space): Append must fail fast instead of deadlocking
  // the producer — e.g. Engine::PushRow into a stream no query consumes.
  BasketLimits limits;
  limits.max_rows = 2;
  Basket b("s", TsI64Schema(), 0, limits);
  ASSERT_TRUE(b.Append({Bat::MakeTs({1, 2}), Bat::MakeI64({1, 2})}).ok());
  const Status st = b.Append({Bat::MakeTs({3}), Bat::MakeI64({3})});
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
}

TEST(BasketTest, BlockedAppendWakesWhenReaderFreesSpace) {
  BasketLimits limits;
  limits.max_rows = 2;
  Basket b("s", TsI64Schema(), 0, limits);
  const int r = b.RegisterReader(true);
  ASSERT_TRUE(b.Append({Bat::MakeTs({1, 2}), Bat::MakeI64({1, 2})}).ok());
  std::thread consumer([&] {
    // Wait for the producer to actually stall (the counter bumps before
    // the wait) so the stall assertion below can't race a loaded machine.
    while (b.Stats().append_stalls == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    b.AdvanceReader(r, 2);
  });
  // Blocks until the consumer drains, then lands without loss.
  ASSERT_TRUE(b.Append({Bat::MakeTs({3}), Bat::MakeI64({3})}).ok());
  consumer.join();
  EXPECT_EQ(b.HighSeq(), 3u);
  EXPECT_GE(b.Stats().append_stalls, 1u);
  EXPECT_EQ(b.Stats().append_timeouts, 0u);
}

TEST(BasketTest, HeartbeatAndSeal) {
  Basket b("s", TsI64Schema(), 0);
  b.Heartbeat(500);
  EXPECT_EQ(b.EventWatermark(), 500);
  EXPECT_FALSE(b.sealed());
  b.Seal();
  EXPECT_TRUE(b.sealed());
}

TEST(BasketTest, ListenersFire) {
  Basket b("s", TsI64Schema(), 0);
  int pulses = 0;
  b.AddListener([&] { ++pulses; });
  ASSERT_TRUE(b.AppendRow({Value::Ts(1), Value::I64(1)}).ok());
  b.Heartbeat(2);
  b.Seal();
  EXPECT_EQ(pulses, 3);
}

// --- WindowMath -------------------------------------------------------------

// A sliding basket: 300 k resident rows, 1/12 of them dropped per advance
// (the slide of a 12-basic-window window). A trim only advances each
// column's head offset, so memory_bytes keeps counting the dead prefix and
// never falls on a trim that moves no row; a column compacts once its dead
// prefix outgrows its live rows, and only then does memory_bytes fall.
// Read and SeqRangeForTs see exactly the live rows throughout.
TEST(BasketTest, SlidingTrimKeepsReadsAndFootprint) {
  Schema schema;
  ASSERT_TRUE(schema.AddColumn("ts", TypeId::kTs).ok());
  ASSERT_TRUE(schema.AddColumn("v", TypeId::kI64).ok());
  ASSERT_TRUE(schema.AddColumn("name", TypeId::kStr).ok());
  const auto name_of = [](uint64_t seq) {
    return "n" + std::to_string(seq % 97);
  };
  const auto batch = [&](uint64_t from, uint64_t n) {
    std::vector<int64_t> ts(n), v(n);
    auto names = Bat::MakeEmpty(TypeId::kStr);
    for (uint64_t i = 0; i < n; ++i) {
      ts[i] = static_cast<int64_t>(from + i) * 10;
      v[i] = static_cast<int64_t>((from + i) * 7 % 1000003);
      names->AppendStr(name_of(from + i));
    }
    return std::vector<BatPtr>{Bat::MakeTs(std::move(ts)),
                               Bat::MakeI64(std::move(v)), names};
  };
  constexpr uint64_t kResident = 300000;
  constexpr uint64_t kSlide = kResident / 12;
  Basket b("s", schema, 0);
  const int reader = b.RegisterReader(true);
  ASSERT_TRUE(b.Append(batch(0, kResident)).ok());
  uint64_t high = kResident;
  uint64_t dead = 0;  // the compaction rule, modeled
  int compactions = 0;
  for (int advance = 0; advance < 30; ++advance) {
    ASSERT_TRUE(b.Append(batch(high, kSlide)).ok());
    high += kSlide;
    const size_t before = b.Stats().memory_bytes;
    b.AdvanceReader(reader, high - kResident);
    const BasketStats st = b.Stats();
    const uint64_t lo = high - kResident;
    ASSERT_EQ(b.DropHorizon(), lo);
    ASSERT_EQ(st.resident_rows, kResident);
    dead += kSlide;
    const bool compacted = dead > kResident;
    if (compacted) {
      dead = 0;
      ++compactions;
    }
    EXPECT_EQ(st.memory_bytes < before, compacted) << "advance " << advance;

    // A compact copy of the live rows bounds the footprint from below; the
    // dead prefix (at most the live rows) and vector growth stay within a
    // constant factor of it, so the row bound still bounds memory.
    if (advance % 6 == 0) {
      const BasketView all = b.Read(0);
      ASSERT_EQ(all.first_seq, lo);
      ASSERT_EQ(all.rows, kResident);
      size_t compact_bytes = 0;
      for (const BatPtr& c : all.cols) compact_bytes += c->MemoryBytes();
      EXPECT_GE(st.memory_bytes, compact_bytes) << "advance " << advance;
      EXPECT_LE(st.memory_bytes, 5 * compact_bytes) << "advance " << advance;
    }

    for (const uint64_t from : {lo, lo + 12345, high - 700}) {
      const BasketView view = b.Read(from, 1000);
      ASSERT_EQ(view.first_seq, from);
      ASSERT_EQ(view.rows, std::min<uint64_t>(1000, high - from));
      for (uint64_t i = 0; i < view.rows; ++i) {
        const uint64_t seq = from + i;
        ASSERT_EQ(view.cols[0]->I64Data()[i], static_cast<int64_t>(seq) * 10);
        ASSERT_EQ(view.cols[1]->I64Data()[i],
                  static_cast<int64_t>(seq * 7 % 1000003));
        ASSERT_EQ(view.cols[2]->StrAt(i), name_of(seq)) << seq;
      }
    }
    auto range = b.SeqRangeForTs(static_cast<Micros>(lo + 100) * 10,
                                 static_cast<Micros>(lo + 200) * 10 + 5);
    ASSERT_TRUE(range.ok());
    EXPECT_EQ(*range, std::make_pair(lo + 100, lo + 201));
    range = b.SeqRangeForTs(0, static_cast<Micros>(high) * 10);
    ASSERT_TRUE(range.ok());
    EXPECT_EQ(*range, std::make_pair(lo, high));
  }
  EXPECT_EQ(compactions, 2);  // at the 13th and the 26th advance
}

TEST(WindowMathTest, RowsWindows) {
  plan::WindowSpec spec;
  spec.rows = true;
  spec.size = 10;
  spec.slide = 3;
  WindowMath wm(spec);
  EXPECT_FALSE(wm.Divisible());
  EXPECT_EQ(wm.RowsWindowStart(0), 0);
  EXPECT_EQ(wm.RowsWindowEnd(0), 10);
  EXPECT_EQ(wm.RowsWindowStart(2), 6);
  EXPECT_TRUE(wm.RowsReady(0, 10));
  EXPECT_FALSE(wm.RowsReady(1, 12));
  EXPECT_TRUE(wm.RowsReady(1, 13));
}

TEST(WindowMathTest, BasicWindowsForRows) {
  plan::WindowSpec spec;
  spec.rows = true;
  spec.size = 12;
  spec.slide = 4;
  WindowMath wm(spec);
  ASSERT_TRUE(wm.Divisible());
  EXPECT_EQ(wm.NumBasicWindows(), 3);
  auto [first, last] = wm.BasicWindowsForRows(2);
  EXPECT_EQ(first, 2);
  EXPECT_EQ(last, 5);
  auto [lo, hi] = wm.BasicWindowExtent(2);
  EXPECT_EQ(lo, 8);
  EXPECT_EQ(hi, 12);
}

TEST(WindowMathTest, RangeWindows) {
  plan::WindowSpec spec;
  spec.rows = false;
  spec.size = 100;
  spec.slide = 25;
  WindowMath wm(spec);
  EXPECT_EQ(wm.FirstRangeEmission(0), 1);
  EXPECT_EQ(wm.FirstRangeEmission(24), 1);
  EXPECT_EQ(wm.FirstRangeEmission(25), 2);
  EXPECT_EQ(wm.RangeBoundary(4), 100);
  auto [lo, hi] = wm.RangeExtent(4);
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 100);
  EXPECT_TRUE(wm.RangeReady(4, 100));
  EXPECT_FALSE(wm.RangeReady(4, 99));
  auto [first, last] = wm.BasicWindowsForRange(4);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(last, 4);
}

TEST(WindowMathTest, NegativeCoordinatesFloorCorrectly) {
  plan::WindowSpec spec;
  spec.rows = false;
  spec.size = 10;
  spec.slide = 5;
  WindowMath wm(spec);
  EXPECT_EQ(wm.BasicWindowOf(-1), -1);
  EXPECT_EQ(wm.BasicWindowOf(-5), -1);
  EXPECT_EQ(wm.BasicWindowOf(-6), -2);
  EXPECT_EQ(wm.BasicWindowOf(0), 0);
}

}  // namespace
}  // namespace dc
