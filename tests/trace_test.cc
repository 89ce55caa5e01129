// Unit tests for src/monitor/trace.h: refcounted enablement, span /
// instant recording, ring-buffer overwrite, per-thread tids, the Chrome
// trace_event JSON dump, the engine integration (factory fire /
// basket append / emitter drain spans appear when
// EngineOptions::enable_tracing is set), and the WAL writer's spans.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench/overhead_gate.h"
#include "core/engine.h"
#include "monitor/trace.h"
#include "storage/wal.h"
#include "tests/crash_util.h"

namespace dc {
namespace {

/// Balanced enable scope so a failing test cannot leak an enable ref
/// into later tests.
struct EnableScope {
  EnableScope() { trace::AddEnableRef(); }
  ~EnableScope() { trace::ReleaseEnableRef(); }
};

TEST(TraceTest, DisabledByDefaultRecordsNothing) {
  trace::ClearForTest();
  ASSERT_FALSE(trace::Enabled());
  { trace::Span span("noop", "test", 1); }
  trace::Instant("noop.instant", "test");
  EXPECT_EQ(trace::BufferedEventsForTest(), 0u);
}

TEST(TraceTest, EnableRefsAreRefcounted) {
  trace::AddEnableRef();
  trace::AddEnableRef();
  EXPECT_TRUE(trace::Enabled());
  trace::ReleaseEnableRef();
  EXPECT_TRUE(trace::Enabled());  // one ref still held
  trace::ReleaseEnableRef();
  EXPECT_FALSE(trace::Enabled());
}

TEST(TraceTest, SpanRecordsCompleteEvent) {
  trace::ClearForTest();
  EnableScope on;
  { trace::Span span("unit.work", "test", 7); }
  EXPECT_EQ(trace::BufferedEventsForTest(), 1u);
  const std::string json = trace::DumpJson();
  EXPECT_NE(json.find("\"name\":\"unit.work\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"v\":7}"), std::string::npos);
}

TEST(TraceTest, CancelSuppressesTheSpan) {
  trace::ClearForTest();
  EnableScope on;
  {
    trace::Span span("cancelled", "test");
    span.Cancel();
  }
  EXPECT_EQ(trace::BufferedEventsForTest(), 0u);
}

TEST(TraceTest, SetArgUpdatesPayload) {
  trace::ClearForTest();
  EnableScope on;
  {
    trace::Span span("late.arg", "test");
    span.set_arg(42);
  }
  EXPECT_NE(trace::DumpJson().find("\"args\":{\"v\":42}"), std::string::npos);
}

TEST(TraceTest, InstantHasZeroDuration) {
  trace::ClearForTest();
  EnableScope on;
  trace::Instant("tick", "test", 3);
  const std::string json = trace::DumpJson();
  EXPECT_NE(json.find("\"name\":\"tick\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0"), std::string::npos);
}

TEST(TraceTest, SpanArmedAtConstructionSurvivesDisable) {
  // Enablement is sampled once in the ctor: a span open across the last
  // ReleaseEnableRef still records (late, not torn).
  trace::ClearForTest();
  trace::AddEnableRef();
  {
    trace::Span span("crossing", "test");
    trace::ReleaseEnableRef();
  }
  EXPECT_FALSE(trace::Enabled());
  EXPECT_EQ(trace::BufferedEventsForTest(), 1u);
}

TEST(TraceTest, RingOverwritesOldest) {
  trace::ClearForTest();
  EnableScope on;
  const uint64_t n = 9000;  // > kEventsPerThread (8192)
  for (uint64_t i = 0; i < n; ++i) trace::Instant("flood", "test");
  EXPECT_EQ(trace::BufferedEventsForTest(), 8192u);
}

TEST(TraceTest, ThreadsGetDistinctTids) {
  trace::ClearForTest();
  EnableScope on;
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([] { trace::Instant("worker.evt", "test"); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(trace::BufferedEventsForTest(), 2u);
  // Both events present, on different tid values — find the two tid
  // fields and check they differ.
  const std::string json = trace::DumpJson();
  const size_t first = json.find("\"tid\":");
  const size_t second = json.find("\"tid\":", first + 1);
  ASSERT_NE(second, std::string::npos);
  const std::string tid1 = json.substr(first, json.find(',', first) - first);
  const std::string tid2 =
      json.substr(second, json.find(',', second) - second);
  EXPECT_NE(tid1, tid2);
}

TEST(TraceTest, DumpJsonIsWellFormedWhenEmpty) {
  trace::ClearForTest();
  EXPECT_EQ(trace::DumpJson(), "{\"traceEvents\":[]}");
}

TEST(TraceTest, EngineIntegrationEmitsPipelineSpans) {
  trace::ClearForTest();
  EngineOptions opts;
  opts.scheduler_workers = 0;
  opts.enable_tracing = true;
  {
    Engine engine(opts);
    ASSERT_TRUE(engine.Execute("CREATE STREAM s (v int)").ok());
    auto q = engine.SubmitContinuous(
        "SELECT SUM(v) FROM s [ROWS 4 SLIDE 2]");
    ASSERT_TRUE(q.ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(engine.PushRow("s", {Value::I64(i)}).ok());
    }
    engine.Pump();
  }
  EXPECT_FALSE(trace::Enabled());  // engine dtor released the ref
  const std::string json = trace::DumpJson();
  EXPECT_NE(json.find("\"name\":\"basket.append\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"factory.fire\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"emitter.drain\""), std::string::npos);
}

TEST(TraceTest, WalWriterEmitsAppendAndFsyncSpans) {
  trace::ClearForTest();
  const std::string dir = testutil::MakeTempDir("walspans");
  {
    EnableScope on;
    auto w = storage::WalWriter::Open(
        storage::WalEnv::Default(), dir + "/t.wal",
        storage::FsyncPolicy::kAlways, 1, storage::WalCounters{});
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ASSERT_TRUE((*w)->Append(storage::EncodeHeartbeat(5)).ok());
  }
  const std::string json = trace::DumpJson();
  // A heartbeat frame is 8 header bytes + the type tag + one i64.
  EXPECT_NE(json.find("\"name\":\"wal.append\",\"cat\":\"wal\""),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"v\":17}"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"wal.fsync\""), std::string::npos);
  testutil::RemoveDirRecursive(dir);
}

// The tracing-overhead guard's verdict on synthetic timings: a ratio of
// medians whose bound grows with the untraced runs' spread but is capped,
// so 37 % overhead fails even on a noisy host, 1 % passes, and a slow
// outlier on either side moves neither median.
TEST(OverheadGateTest, RatioOfMediansFailsRealOverhead) {
  auto scaled = [](const std::vector<Micros>& v, double f) {
    std::vector<Micros> out;
    for (Micros x : v) out.push_back(static_cast<Micros>(x * f));
    return out;
  };
  // Off runs of 166-205 ms: a 4 % interquartile spread.
  const std::vector<Micros> off{170000, 166000, 181000, 175000, 205000,
                                172000, 178000, 169000, 174000};
  const bench::OverheadVerdict one =
      bench::JudgeOverhead(off, scaled(off, 1.01));
  EXPECT_TRUE(one.pass) << one.ratio << " vs " << one.allowed;
  EXPECT_NEAR(one.ratio, 1.01, 1e-3);
  const bench::OverheadVerdict bad =
      bench::JudgeOverhead(off, scaled(off, 1.37));
  EXPECT_FALSE(bad.pass) << bad.ratio << " vs " << bad.allowed;
  // No millisecond floor: 15 % overhead on a sub-second run fails.
  EXPECT_FALSE(bench::JudgeOverhead(off, scaled(off, 1.15)).pass);

  // A noisy host widens the bound, never past the cap.
  const std::vector<Micros> noisy{100000, 160000, 90000, 150000, 120000,
                                  95000, 140000, 110000, 130000};
  const bench::OverheadVerdict wide =
      bench::JudgeOverhead(noisy, scaled(noisy, 1.37));
  EXPECT_EQ(wide.allowed, bench::kMaxRatio);
  EXPECT_FALSE(wide.pass);
  EXPECT_TRUE(bench::JudgeOverhead(noisy, scaled(noisy, 1.01)).pass);

  // One stalled traced run does not fail the gate; no runs never pass.
  std::vector<Micros> on = scaled(off, 1.01);
  on[3] = 900000;
  EXPECT_TRUE(bench::JudgeOverhead(off, on).pass);
  EXPECT_FALSE(bench::JudgeOverhead({}, {}).pass);
}

}  // namespace
}  // namespace dc
