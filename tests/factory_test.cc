// Unit tests for Factory: shape validation, firing rules, consumption/
// dropping behaviour, incremental caching (on a SharedWindowNode) and
// fallback, node-tail anchoring, pause semantics.

#include "core/factory.h"

#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "tests/test_util.h"
#include "util/string_util.h"

namespace dc {
namespace {

class FactoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Schema s = testutil::TsI64Schema();
    StreamDef def;
    def.name = "s";
    def.schema = s;
    def.ts_column = 0;
    ASSERT_TRUE(catalog_.RegisterStream(def).ok());
    basket_ = std::make_shared<Basket>("s", s, 0);

    Schema out;
    ASSERT_TRUE(out.AddColumn("x", TypeId::kI64).ok());
    out_schema_ = out;
  }

  std::shared_ptr<exec::QueryExecutor> MakeExecutor(const std::string& sql) {
    return testutil::CompileQuery(sql, catalog_);
  }

  FactoryInput StreamInput(std::optional<plan::WindowSpec> window) {
    FactoryInput in;
    in.is_stream = true;
    in.basket = basket_.get();
    in.reader_id = basket_->RegisterReader(true);
    in.window = window;
    return in;
  }

  /// An incremental window factory: a merge tail of a fresh one-subscriber
  /// node that owns the basket reader (the engine's wiring, by hand).
  Result<FactoryPtr> NodeTail(const std::shared_ptr<exec::QueryExecutor>& ex,
                              const plan::WindowSpec& w,
                              const std::shared_ptr<Basket>& out) {
    node_ = std::make_shared<SharedWindowNode>("s#1", basket_, nullptr, ex,
                                               w.rows, w.slide);
    FactoryInput in;
    in.is_stream = true;
    in.basket = basket_.get();
    in.window = w;
    return Factory::Create(1, "f", ex, ExecMode::kIncremental, {in}, out,
                           node_, node_->Subscribe());
  }

  std::shared_ptr<Basket> OutBasket(const exec::QueryExecutor& ex) {
    Schema out;
    const auto types = exec::OutputTypes(ex.compiled());
    for (size_t i = 0; i < types.size(); ++i) {
      DC_CHECK_OK(out.AddColumn(StrFormat("c%zu", i), types[i]));
    }
    return std::make_shared<Basket>("out", out);
  }

  void Push(int64_t ts_sec, int64_t v) {
    ASSERT_TRUE(basket_
                    ->AppendRow({Value::Ts(ts_sec * kMicrosPerSecond),
                                 Value::I64(v)})
                    .ok());
  }

  Catalog catalog_;
  std::shared_ptr<Basket> basket_;
  SharedWindowNodePtr node_;
  Schema out_schema_;
};

TEST_F(FactoryTest, PerBatchFiresOnlyWithData) {
  auto ex = MakeExecutor("SELECT v FROM s");
  auto out = OutBasket(*ex);
  auto f = Factory::Create(1, "f", ex, ExecMode::kFullReeval,
                           {StreamInput(std::nullopt)}, out);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_FALSE((*f)->CheckReady());
  Push(1, 10);
  EXPECT_TRUE((*f)->CheckReady());
  ASSERT_TRUE((*f)->Fire().ok());
  EXPECT_FALSE((*f)->CheckReady());
  EXPECT_EQ(out->HighSeq(), 1u);
  // Consumed tuples are dropped from the input basket.
  EXPECT_EQ(basket_->Stats().resident_rows, 0u);
}

TEST_F(FactoryTest, RowsWindowFiringAndConsumption) {
  plan::WindowSpec w;
  w.rows = true;
  w.size = 4;
  w.slide = 2;
  auto ex = MakeExecutor("SELECT sum(v) FROM s");
  auto out = OutBasket(*ex);
  auto f = Factory::Create(1, "f", ex, ExecMode::kFullReeval,
                           {StreamInput(w)}, out);
  ASSERT_TRUE(f.ok());
  for (int i = 1; i <= 3; ++i) Push(i, i);
  EXPECT_FALSE((*f)->CheckReady());  // 3 rows < window of 4
  Push(4, 4);
  ASSERT_TRUE((*f)->CheckReady());
  ASSERT_TRUE((*f)->Fire().ok());
  // Window [0,4) emitted sum 10; rows 0,1 (below next window start) drop.
  EXPECT_EQ(out->Read(0).cols[0]->I64Data()[0], 10);
  EXPECT_EQ(basket_->Stats().dropped_total, 2u);
  EXPECT_FALSE((*f)->CheckReady());
  Push(5, 5);
  Push(6, 6);
  ASSERT_TRUE((*f)->CheckReady());
  ASSERT_TRUE((*f)->Fire().ok());
  EXPECT_EQ(out->Read(1).cols[0]->I64Data()[0], 3 + 4 + 5 + 6);
}

TEST_F(FactoryTest, IncrementalCachesFragmentsPerBasicWindow) {
  plan::WindowSpec w;
  w.rows = true;
  w.size = 4;
  w.slide = 1;
  auto ex = MakeExecutor("SELECT sum(v), count(*) FROM s");
  auto out = OutBasket(*ex);
  auto f = NodeTail(ex, w, out);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  for (int i = 0; i < 10; ++i) {
    Push(i, 1);
    while ((*f)->CheckReady()) ASSERT_TRUE((*f)->Fire().ok());
  }
  const FactoryStats stats = (*f)->Stats();
  EXPECT_EQ(stats.emissions, 7u);  // windows ending at rows 4..10
  // Each row entered exactly one fragment: 10 tuples in, not 7*4.
  EXPECT_EQ(stats.tuples_in, 10u);
  EXPECT_EQ(stats.fragments_computed, 10u);
  EXPECT_FALSE(stats.fell_back_to_full);
  // The partials live on the node, bounded by n_bw.
  EXPECT_EQ(stats.cached_partials, 0u);
  EXPECT_LE(node_->Stats().cached_partials, 4u);
}

TEST_F(FactoryTest, IncrementalWindowRequiresANode) {
  plan::WindowSpec w;
  w.rows = true;
  w.size = 4;
  w.slide = 1;
  auto ex = MakeExecutor("SELECT sum(v) FROM s");
  auto out = OutBasket(*ex);
  EXPECT_FALSE(Factory::Create(1, "f", ex, ExecMode::kIncremental,
                               {StreamInput(w)}, out)
                   .ok());
  // ...and only an incremental divisible window takes one.
  node_ = std::make_shared<SharedWindowNode>("s#1", basket_, nullptr, ex,
                                             w.rows, w.slide);
  EXPECT_FALSE(Factory::Create(1, "f", ex, ExecMode::kFullReeval,
                               {StreamInput(w)}, out, node_,
                               node_->Subscribe())
                   .ok());
}

TEST_F(FactoryTest, NodeTailRefusesMisanchoredRestore) {
  plan::WindowSpec w;
  w.rows = true;
  w.size = 4;
  w.slide = 2;
  auto ex = MakeExecutor("SELECT sum(v) FROM s");
  auto f = NodeTail(ex, w, OutBasket(*ex));
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  storage::FactoryProgress p = (*f)->SnapshotProgress();
  ASSERT_EQ(p.origins, std::vector<uint64_t>{node_->origin_seq()});
  p.origins[0] = node_->origin_seq() + 2;
  const Status st = (*f)->RestoreProgress(p);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("node s#1"), std::string::npos)
      << st.ToString();
  // The refused restore left the tail anchored at its node.
  EXPECT_EQ((*f)->SnapshotProgress().origins[0], node_->origin_seq());
  p.origins[0] = node_->origin_seq();
  EXPECT_TRUE((*f)->RestoreProgress(p).ok());
}

TEST_F(FactoryTest, IncrementalFallsBackWhenNotDivisible) {
  plan::WindowSpec w;
  w.rows = true;
  w.size = 5;
  w.slide = 2;  // 5 % 2 != 0
  auto ex = MakeExecutor("SELECT sum(v) FROM s");
  auto out = OutBasket(*ex);
  auto f = Factory::Create(1, "f", ex, ExecMode::kIncremental,
                           {StreamInput(w)}, out);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE((*f)->Stats().fell_back_to_full);
  for (int i = 0; i < 7; ++i) Push(i, i);
  while ((*f)->CheckReady()) ASSERT_TRUE((*f)->Fire().ok());
  // Still correct: window [0,5) then [2,7).
  EXPECT_EQ(out->Read(0).cols[0]->I64Data()[0], 0 + 1 + 2 + 3 + 4);
  EXPECT_EQ(out->Read(1).cols[0]->I64Data()[0], 2 + 3 + 4 + 5 + 6);
}

TEST_F(FactoryTest, RangeWindowSkipsEmptyLeadingWindows) {
  plan::WindowSpec w;
  w.rows = false;
  w.size = 4 * kMicrosPerSecond;
  w.slide = 2 * kMicrosPerSecond;
  auto ex = MakeExecutor("SELECT count(*) FROM s");
  auto out = OutBasket(*ex);
  auto f = NodeTail(ex, w, out);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  // Stream starts late: first event at t=100 s.
  Push(100, 1);
  Push(101, 2);
  EXPECT_FALSE((*f)->CheckReady());  // watermark 101 < boundary 102
  Push(103, 3);
  ASSERT_TRUE((*f)->CheckReady());
  ASSERT_TRUE((*f)->Fire().ok());
  // First window ends at 102 s and contains the events at 100/101.
  EXPECT_EQ(out->Read(0).cols[0]->I64Data()[0], 2);
}

TEST_F(FactoryTest, PausedFactoryIsNotReady) {
  auto ex = MakeExecutor("SELECT v FROM s");
  auto out = OutBasket(*ex);
  auto f = Factory::Create(1, "f", ex, ExecMode::kFullReeval,
                           {StreamInput(std::nullopt)}, out);
  ASSERT_TRUE(f.ok());
  Push(1, 1);
  (*f)->Pause();
  EXPECT_TRUE((*f)->paused());
  EXPECT_FALSE((*f)->CheckReady());
  (*f)->Resume();
  EXPECT_TRUE((*f)->CheckReady());
}

TEST_F(FactoryTest, ValidationErrors) {
  auto ex = MakeExecutor("SELECT v FROM s");
  auto out = OutBasket(*ex);
  // No inputs at all.
  EXPECT_FALSE(
      Factory::Create(1, "f", ex, ExecMode::kFullReeval, {}, out).ok());
  // Stream input without a basket.
  FactoryInput bad;
  bad.is_stream = true;
  EXPECT_FALSE(
      Factory::Create(1, "f", ex, ExecMode::kFullReeval, {bad}, out).ok());
}

TEST_F(FactoryTest, FireIsIdempotentWhenNotReady) {
  auto ex = MakeExecutor("SELECT v FROM s");
  auto out = OutBasket(*ex);
  auto f = Factory::Create(1, "f", ex, ExecMode::kFullReeval,
                           {StreamInput(std::nullopt)}, out);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Fire().ok());  // no data: no-op
  EXPECT_EQ((*f)->Stats().emissions, 0u);
}

}  // namespace
}  // namespace dc
