// Unit tests for src/monitor/metrics.h: handle semantics (create-on-first-
// use, shared handles, Remove keeps handles valid), snapshot collection,
// and the JSON / Prometheus exposition formats; and the metrics an engine
// serves from its own registry with no AnalysisPane attached.

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "monitor/metrics.h"
#include "tests/test_util.h"

namespace dc::monitor {
namespace {

TEST(MetricsRegistryTest, GetReturnsSameHandle) {
  MetricsRegistry reg;
  auto c1 = reg.GetCounter("ingest.rows");
  auto c2 = reg.GetCounter("ingest.rows");
  EXPECT_EQ(c1.get(), c2.get());
  c1->Add(3);
  c2->Add(2);
  EXPECT_EQ(c1->Value(), 5u);

  auto h1 = reg.GetHistogram("lat");
  auto h2 = reg.GetHistogram("lat");
  EXPECT_EQ(h1.get(), h2.get());
}

TEST(MetricsRegistryTest, GaugeLastWriteWins) {
  MetricsRegistry reg;
  auto g = reg.GetGauge("basket.rows");
  g->Set(10.5);
  g->Set(7.0);
  EXPECT_DOUBLE_EQ(g->Value(), 7.0);
}

TEST(MetricsRegistryTest, HistogramRecordsAndSnapshots) {
  MetricsRegistry reg;
  auto h = reg.GetHistogram("lat_us");
  for (int i = 1; i <= 100; ++i) h->Record(i * 1000);
  const Histogram snap = h->Snapshot();
  EXPECT_EQ(snap.count(), 100u);
  EXPECT_GE(snap.Percentile(0.99), snap.Percentile(0.50));
  h->Reset();
  EXPECT_EQ(h->Snapshot().count(), 0u);
}

TEST(MetricsRegistryTest, RemoveDropsFromExpositionButKeepsHandle) {
  MetricsRegistry reg;
  auto c = reg.GetCounter("gone");
  c->Add(1);
  EXPECT_TRUE(reg.Remove("gone"));
  EXPECT_FALSE(reg.Remove("gone"));
  EXPECT_EQ(reg.ToJson().find("gone"), std::string::npos);
  c->Add(1);  // handle stays valid after Remove
  EXPECT_EQ(c->Value(), 2u);
  // Re-registering the name starts a fresh metric.
  auto c2 = reg.GetCounter("gone");
  EXPECT_EQ(c2->Value(), 0u);
  EXPECT_NE(c2.get(), c.get());
}

TEST(MetricsRegistryTest, CollectReturnsAllKindsSorted) {
  MetricsRegistry reg;
  reg.GetCounter("b.count")->Add(4);
  reg.GetGauge("a.rate")->Set(1.5);
  reg.GetHistogram("c.lat")->Record(42);
  const std::vector<MetricSnapshot> snaps = reg.Collect();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].name, "a.rate");
  EXPECT_EQ(snaps[0].kind, MetricSnapshot::Kind::kGauge);
  EXPECT_DOUBLE_EQ(snaps[0].value, 1.5);
  EXPECT_EQ(snaps[1].name, "b.count");
  EXPECT_EQ(snaps[1].kind, MetricSnapshot::Kind::kCounter);
  EXPECT_DOUBLE_EQ(snaps[1].value, 4.0);
  EXPECT_EQ(snaps[2].name, "c.lat");
  EXPECT_EQ(snaps[2].kind, MetricSnapshot::Kind::kHistogram);
  EXPECT_EQ(snaps[2].hist.count(), 1u);
}

TEST(MetricsRegistryTest, ToJsonShape) {
  MetricsRegistry reg;
  reg.GetCounter("fires")->Add(7);
  reg.GetGauge("rate")->Set(2.5);
  auto h = reg.GetHistogram("query.q1.latency_us");
  h->Record(1000);
  h->Record(3000);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"fires\":7"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"rate\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"query.q1.latency_us\":{"), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(MetricsRegistryTest, ToJsonEscapesNames) {
  MetricsRegistry reg;
  reg.GetCounter("weird\"name\\x")->Add(1);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"weird\\\"name\\\\x\":1"), std::string::npos);
}

TEST(MetricsRegistryTest, ToPrometheusShape) {
  MetricsRegistry reg;
  reg.GetCounter("query.q1.fires")->Add(3);
  reg.GetGauge("sched.queue")->Set(4);
  auto h = reg.GetHistogram("query.q1.latency_us");
  for (int i = 0; i < 10; ++i) h->Record(100 * (i + 1));
  const std::string text = reg.ToPrometheus();
  // Names sanitized to [a-zA-Z0-9_:]; dots become underscores.
  EXPECT_NE(text.find("# TYPE query_q1_fires counter"), std::string::npos);
  EXPECT_NE(text.find("query_q1_fires 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sched_queue gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE query_q1_latency_us summary"),
            std::string::npos);
  EXPECT_NE(text.find("query_q1_latency_us{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("query_q1_latency_us_count 10"), std::string::npos);
  // Names (not values — quantile labels contain dots) are sanitized.
  EXPECT_EQ(text.find("query.q1"), std::string::npos)
      << "unsanitized metric name leaked into Prometheus exposition";
}

TEST(MetricsRegistryTest, ConcurrentGetAndUpdate) {
  MetricsRegistry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 1000; ++i) {
        reg.GetCounter("shared")->Add(1);
        reg.GetHistogram("lat")->Record(i);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("shared")->Value(), 4000u);
  EXPECT_EQ(reg.GetHistogram("lat")->Snapshot().count(), 4000u);
}

TEST(MetricsRegistryTest, GlobalIsASingleton) {
  MetricsRegistry& a = MetricsRegistry::Global();
  MetricsRegistry& b = MetricsRegistry::Global();
  EXPECT_EQ(&a, &b);
}

// basket.trim_us is resolved when the engine is built, so it is served
// with no pane, and gets one sample per basket trim that drops rows.
class EngineMetricsTest : public testutil::SyncEngineTest {};

std::optional<MetricSnapshot> FindMetric(const MetricsRegistry& registry,
                                         const std::string& name) {
  for (MetricSnapshot& m : registry.Collect()) {
    if (m.name == name) return std::move(m);
  }
  return std::nullopt;
}

TEST_F(EngineMetricsTest, BasketTrimHistogramWithoutPane) {
  const auto before = FindMetric(engine_.metrics(), "basket.trim_us");
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->kind, MetricSnapshot::Kind::kHistogram);
  EXPECT_EQ(before->hist.count(), 0u);

  Exec("CREATE STREAM s (v int)");
  const int qid = Submit("SELECT v FROM s WHERE v > 1");
  for (int i = 0; i < 5; ++i) PushPump("s", {Value::I64(i)});
  EXPECT_EQ(Take(qid).size(), 5u);
  // Each fire's advance trims the stream basket (and each delivery the
  // output basket's non-empty batches).
  const auto after = FindMetric(engine_.metrics(), "basket.trim_us");
  ASSERT_TRUE(after.has_value());
  EXPECT_GE(after->hist.count(), 5u);
}

}  // namespace
}  // namespace dc::monitor
