// End-to-end tests of the Engine facade: DDL, one-time queries, continuous
// queries in both execution modes, pause/resume, stream-table joins.
// The engine runs in synchronous mode (0 workers) and is driven by Pump()
// for determinism (see tests/test_util.h).

#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "bat/ops_join.h"
#include "tests/test_util.h"
#include "util/string_util.h"

namespace dc {
namespace {

using testutil::RowStrings;

class EngineTest : public testutil::SyncEngineTest {};

TEST_F(EngineTest, CreateTableInsertAndQuery) {
  Exec("CREATE TABLE items (id int, name string, price double)");
  Exec("INSERT INTO items VALUES (1, 'apple', 1.5), (2, 'pear', 2.0), "
       "(3, 'fig', 9.0)");
  const ColumnSet result = MustQuery(
      "SELECT name, price FROM items WHERE price > 1.7 ORDER BY price");
  ASSERT_EQ(result.NumRows(), 2u);
  EXPECT_EQ(result.cols[0]->GetValue(0).AsStr(), "pear");
  EXPECT_EQ(result.cols[0]->GetValue(1).AsStr(), "fig");
}

TEST_F(EngineTest, OneTimeAggregation) {
  Exec("CREATE TABLE t (g int, v int)");
  Exec("INSERT INTO t VALUES (1, 10), (1, 20), (2, 5), (2, 7), (3, 100)");
  const ColumnSet result = MustQuery(
      "SELECT g, sum(v) AS s, count(*) AS c FROM t GROUP BY g "
      "HAVING count(*) > 1 ORDER BY s DESC");
  ASSERT_EQ(result.NumRows(), 2u);
  EXPECT_EQ(result.cols[0]->GetValue(0).AsI64(), 1);  // sum 30
  EXPECT_EQ(result.cols[1]->GetValue(0).AsI64(), 30);
  EXPECT_EQ(result.cols[0]->GetValue(1).AsI64(), 2);  // sum 12
  EXPECT_EQ(result.cols[2]->GetValue(1).AsI64(), 2);
}

TEST_F(EngineTest, OneTimeJoin) {
  Exec("CREATE TABLE a (k int, x string)");
  Exec("CREATE TABLE b (k int, y double)");
  Exec("INSERT INTO a VALUES (1,'one'), (2,'two'), (3,'three')");
  Exec("INSERT INTO b VALUES (2, 2.5), (3, 3.5), (4, 4.5)");
  const ColumnSet result = MustQuery(
      "SELECT a.x, b.y FROM a JOIN b ON a.k = b.k ORDER BY b.y");
  ASSERT_EQ(result.NumRows(), 2u);
  EXPECT_EQ(result.cols[0]->GetValue(0).AsStr(), "two");
  EXPECT_EQ(result.cols[0]->GetValue(1).AsStr(), "three");
}

TEST_F(EngineTest, PerBatchContinuousQuery) {
  Exec("CREATE STREAM s (v int)");
  const int qid = Submit("SELECT v FROM s WHERE v >= 10",
                         ExecMode::kFullReeval);
  Push("s", {Value::I64(5)});
  PushPump("s", {Value::I64(15)});
  PushPump("s", {Value::I64(25)});
  auto rows = RowStrings(Take(qid));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], "15|");
  EXPECT_EQ(rows[1], "25|");
}

TEST_F(EngineTest, RowsWindowAggregation) {
  Exec("CREATE STREAM s (v int)");
  // Tumbling window of 4 rows: sum per window.
  const int qid = Submit("SELECT sum(v) FROM s [ROWS 4]",
                         ExecMode::kFullReeval);
  for (int i = 1; i <= 10; ++i) Push("s", {Value::I64(i)});
  engine_.Pump();
  const std::vector<ColumnSet> results = Take(qid);
  ASSERT_EQ(results.size(), 2u);  // rows 1-4 and 5-8; 9,10 pending
  EXPECT_EQ(results[0].cols[0]->GetValue(0).AsI64(), 10);
  EXPECT_EQ(results[1].cols[0]->GetValue(0).AsI64(), 26);
}

TEST_F(EngineTest, SlidingRowsWindowFullVsIncremental) {
  Exec("CREATE STREAM s (v int)");
  const char* sql =
      "SELECT sum(v), count(*), min(v), max(v), avg(v) "
      "FROM s [ROWS 6 SLIDE 2]";
  const int full = Submit(sql, ExecMode::kFullReeval);
  const int inc = Submit(sql, ExecMode::kIncremental);
  for (int i = 0; i < 25; ++i) PushPump("s", {Value::I64(i * 7 % 13)});
  const auto fr = Take(full);
  ASSERT_GT(fr.size(), 0u);
  EXPECT_EQ(RowStrings(fr), RowStrings(Take(inc)));
  // Incremental mode must actually be active (not the fallback).
  EXPECT_FALSE(engine_.GetFactory(inc)->Stats().fell_back_to_full);
}

TEST_F(EngineTest, RangeWindowGroupedAggregation) {
  Exec("CREATE STREAM m (ts timestamp, sym string, px double)");
  const int qid = Submit(
      "SELECT sym, count(*) AS n, avg(px) AS apx "
      "FROM m [RANGE 10 SECONDS SLIDE 5 SECONDS] "
      "GROUP BY sym ORDER BY sym");

  auto push = [&](int64_t sec, const char* sym, double px) {
    Push("m", {Value::Ts(sec * kMicrosPerSecond), Value::Str(sym),
               Value::F64(px)});
  };
  push(1, "aa", 10);
  push(2, "bb", 20);
  push(4, "aa", 30);
  push(6, "aa", 40);
  push(9, "bb", 60);
  engine_.Pump();
  // Watermark is 9s: no window boundary (5s: window [-5,5) needs wm>=5 --
  // that one fired; [0,10) needs wm>=10).
  push(11, "aa", 70);
  engine_.Pump();
  const std::vector<ColumnSet> results = Take(qid);
  // Boundary 5s: window [-5,5) = rows at 1,2,4 -> aa:2, bb:1.
  // Boundary 10s: window [0,10) = rows 1..9 -> aa:3, bb:2.
  ASSERT_EQ(results.size(), 2u);
  const ColumnSet& w1 = results[0];
  ASSERT_EQ(w1.NumRows(), 2u);
  EXPECT_EQ(w1.cols[0]->GetValue(0).AsStr(), "aa");
  EXPECT_EQ(w1.cols[1]->GetValue(0).AsI64(), 2);
  const ColumnSet& w2 = results[1];
  EXPECT_EQ(w2.cols[1]->GetValue(0).AsI64(), 3);
  EXPECT_EQ(w2.cols[1]->GetValue(1).AsI64(), 2);
}

TEST_F(EngineTest, StreamTableJoinContinuous) {
  Exec("CREATE TABLE ref (k int, label string)");
  Exec("INSERT INTO ref VALUES (1,'one'), (2,'two')");
  Exec("CREATE STREAM s (k int, v int)");
  const int qid = Submit("SELECT label, v FROM s JOIN ref ON s.k = ref.k",
                         ExecMode::kFullReeval);
  Push("s", {Value::I64(1), Value::I64(100)});
  Push("s", {Value::I64(9), Value::I64(200)});
  Push("s", {Value::I64(2), Value::I64(300)});
  engine_.Pump();
  auto rows = RowStrings(Take(qid));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], "one|100|");
  EXPECT_EQ(rows[1], "two|300|");
}

TEST_F(EngineTest, PauseAndResumeQuery) {
  Exec("CREATE STREAM s (v int)");
  const int qid = Submit("SELECT v FROM s", ExecMode::kFullReeval);
  PushPump("s", {Value::I64(1)});
  ASSERT_TRUE(engine_.PauseQuery(qid).ok());
  PushPump("s", {Value::I64(2)});
  EXPECT_EQ(RowStrings(Take(qid)).size(), 1u);  // second row not processed
  ASSERT_TRUE(engine_.ResumeQuery(qid).ok());
  engine_.Pump();
  EXPECT_EQ(RowStrings(Take(qid)).size(), 1u);  // row 2 arrives after resume
}

TEST_F(EngineTest, SealFlushesRangeWindows) {
  Exec("CREATE STREAM s (ts timestamp, v int)");
  const int qid =
      Submit("SELECT sum(v) FROM s [RANGE 4 SECONDS SLIDE 2 SECONDS]");
  Push("s", {Value::Ts(1 * kMicrosPerSecond), Value::I64(10)});
  PushPump("s", {Value::Ts(3 * kMicrosPerSecond), Value::I64(20)});
  Seal("s");
  const std::vector<ColumnSet> results = Take(qid);
  // Windows: [-2,2)->10 (boundary 2 fired by watermark 3),
  // [0,4)->30, [2,6)->20 flushed by seal. Window [4,8) starts past the
  // last event: dormant.
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].cols[0]->GetValue(0).AsI64(), 10);
  EXPECT_EQ(results[1].cols[0]->GetValue(0).AsI64(), 30);
  EXPECT_EQ(results[2].cols[0]->GetValue(0).AsI64(), 20);
}

TEST_F(EngineTest, MultipleQueriesShareOneBasket) {
  Exec("CREATE STREAM s (v int)");
  const int q1 = Submit("SELECT v FROM s WHERE v % 2 = 0",
                        ExecMode::kFullReeval);
  const int q2 = Submit("SELECT v FROM s WHERE v % 2 = 1",
                        ExecMode::kFullReeval);
  for (int i = 0; i < 6; ++i) Push("s", {Value::I64(i)});
  engine_.Pump();
  EXPECT_EQ(RowStrings(Take(q1)).size(), 3u);
  EXPECT_EQ(RowStrings(Take(q2)).size(), 3u);
  // Both consumed everything: the basket dropped all tuples.
  auto stats = engine_.StreamStats("s");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->resident_rows, 0u);
  EXPECT_EQ(stats->dropped_total, 6u);
}

TEST_F(EngineTest, ExplainShowsPlanTransformation) {
  Exec("CREATE STREAM s (ts timestamp, v int)");
  const std::string sql =
      "SELECT sum(v) FROM s [RANGE 10 SECONDS SLIDE 2 SECONDS] WHERE v > 3";
  auto onetime = engine_.ExplainSql(sql, plan::PlanMode::kOneTime);
  auto incr = engine_.ExplainSql(sql, plan::PlanMode::kContinuousIncremental);
  ASSERT_TRUE(onetime.ok() && incr.ok());
  EXPECT_NE(onetime->find("scan.candidates"), std::string::npos);
  EXPECT_NE(incr->find("basket.candidates"), std::string::npos);
  EXPECT_NE(incr->find("per basic window"), std::string::npos);
  EXPECT_NE(incr->find("merge"), std::string::npos);
}

TEST_F(EngineTest, ExplainReportsObservedLatencyOfStandingQueries) {
  Exec("CREATE STREAM s (v int)");
  const std::string sql = "SELECT count(*) FROM s [ROWS 2 SLIDE 2]";
  // No standing query with this identity yet: no latency line.
  auto before = engine_.ExplainSql(sql, plan::PlanMode::kContinuousIncremental);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->find("latency:"), std::string::npos);
  Submit(sql);
  for (int i = 0; i < 4; ++i) PushPump("s", {Value::I64(i)});
  // Two windows closed and delivered, so the query's ingest→delivery
  // histogram has points and EXPLAIN merges them into a latency line.
  auto after = engine_.ExplainSql(sql, plan::PlanMode::kContinuousIncremental);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->find("latency:"), std::string::npos);
  EXPECT_NE(after->find("count=2"), std::string::npos);
}

// Regression: Pump()/WaitIdle()/TakeResults() used to hold the engine
// registry lock across emitter drains, so a sink that re-enters the
// engine (the monitor does exactly this) self-deadlocked. Drains now run
// on a snapshot outside the lock; under the lock-rank validator the
// re-entry is also checked (kEmitterDrain < kEngine).
TEST_F(EngineTest, SinkMayReenterEngineDuringPump) {
  Exec("CREATE STREAM s (ts timestamp, v int)");
  int reentries = 0;
  Engine::ContinuousOptions opts;
  opts.name = "reenter";
  opts.sink = [&](const ColumnSet&) {
    // Introspection re-entry, as the analysis pane performs per sample.
    EXPECT_FALSE(engine_.Queries().empty());
    EXPECT_TRUE(engine_.StreamStats("s").ok());
    ++reentries;
  };
  auto qid = engine_.SubmitContinuous("SELECT v FROM s", opts);
  ASSERT_TRUE(qid.ok()) << qid.status().ToString();
  for (int i = 0; i < 3; ++i) {
    PushPump("s", {Value::Ts(i), Value::I64(i)});
  }
  EXPECT_GE(reentries, 1);
}

// Regression: TakeResults() snapshotted a raw Emitter* under the lock and
// drained it after release, so a concurrent RemoveContinuous() destroyed
// the emitter mid-drain (use-after-free under ASan). The entry now holds
// a shared_ptr that drainers copy.
// Every incremental divisible single-stream window — stream-only or
// joined with a table — runs as the tail of a SharedWindowNode, with
// sharing on or off; the node holds the query's only basket reader.
TEST(EngineNodeTest, IncrementalWindowsRunOnNodesWithSharingOnAndOff) {
  for (const bool sharing : {true, false}) {
    SCOPED_TRACE(sharing ? "sharing on" : "sharing off");
    EngineOptions o = testutil::SyncOptions();
    o.enable_sharing = sharing;
    Engine engine(o);
    ASSERT_TRUE(engine.Execute("CREATE STREAM s (ts timestamp, g int, v int);"
                               "CREATE TABLE dim (g int, label string);"
                               "INSERT INTO dim VALUES (1, 'a'), (2, 'b')")
                    .ok());
    const char* queries[] = {
        "SELECT g, sum(v) FROM s [RANGE 4 SECONDS SLIDE 2 SECONDS] GROUP BY g",
        "SELECT label, count(*) FROM s [ROWS 6 SLIDE 3] "
        "JOIN dim ON s.g = dim.g GROUP BY label"};
    std::vector<int> ids;
    for (const char* sql : queries) {
      auto id = engine.SubmitContinuous(sql);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(*id);
    }
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(engine
                      .PushRow("s", {Value::Ts(i * kMicrosPerSecond),
                                     Value::I64(i % 3), Value::I64(i)})
                      .ok());
      engine.Pump();
    }

    const SharingStats ss = engine.GetSharingStats();
    ASSERT_EQ(ss.nodes.size(), 2u);
    for (const ContinuousQueryInfo& q : engine.Queries()) {
      SCOPED_TRACE(q.sql);
      ASSERT_FALSE(q.shared_node.empty());
      auto node = std::find_if(
          ss.nodes.begin(), ss.nodes.end(),
          [&](const SharedNodeStats& n) { return n.label == q.shared_node; });
      ASSERT_NE(node, ss.nodes.end());
      EXPECT_EQ(node->stream, "s");
      EXPECT_EQ(node->subscribers, 1);
      EXPECT_GT(node->partial_builds, 0u);
      EXPECT_GT(q.factory.emissions, 0u);
      // The factory holds no reader of its own...
      for (const FactoryInput& in : engine.GetFactory(q.id)->inputs()) {
        if (in.is_stream) EXPECT_LT(in.reader_id, 0);
      }
    }
    // ...so the stream's readers are exactly the two nodes'.
    EXPECT_EQ(engine.StreamStats("s")->readers, 2u);

    // EXPLAIN names the stream⋈table node a new tail would join.
    auto explain = engine.ExplainSql(
        "SELECT label, count(*) FROM s [ROWS 12 SLIDE 6] "
        "JOIN dim ON s.g = dim.g GROUP BY label HAVING count(*) > 1",
        plan::PlanMode::kContinuousIncremental);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    EXPECT_NE(explain->find(sharing ? "shared with 1 query (window node s#2)"
                                    : "sharing: disabled"),
              std::string::npos)
        << *explain;

    for (int id : ids) ASSERT_TRUE(engine.RemoveContinuous(id).ok());
    EXPECT_TRUE(engine.GetSharingStats().nodes.empty());
    EXPECT_EQ(engine.StreamStats("s")->readers, 0u);
  }
}

// A stream-table node's footprint counts the table side it keeps: the
// prejoin's copy of the table columns the query needs, next to its
// cached partials and the table's join hash.
TEST(EngineNodeTest, StreamTableNodeCountsItsTablePrejoin) {
  constexpr int64_t kHosts = 20000;
  Engine engine(testutil::SyncOptions());
  ASSERT_TRUE(engine.Execute("CREATE STREAM s (ts timestamp, src int, v int);"
                             "CREATE TABLE hosts (ip int, asn int, region int)")
                  .ok());
  std::vector<int64_t> ip(kHosts), asn(kHosts), region(kHosts);
  for (int64_t i = 0; i < kHosts; ++i) {
    ip[i] = i;
    asn[i] = i % 97;
    region[i] = i % 5;
  }
  auto hosts = engine.catalog().GetTable("hosts");
  ASSERT_TRUE(hosts.ok());
  ASSERT_TRUE((*hosts)
                  ->AppendColumns({Bat::MakeI64(std::move(ip)),
                                   Bat::MakeI64(std::move(asn)),
                                   Bat::MakeI64(std::move(region))})
                  .ok());
  auto id = engine.SubmitContinuous(
      "SELECT asn, count(*) FROM s [RANGE 4 SECONDS SLIDE 2 SECONDS] "
      "JOIN hosts ON s.src = hosts.ip WHERE hosts.region < 4 GROUP BY asn");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine
                    .PushRow("s", {Value::Ts(i * kMicrosPerSecond),
                                   Value::I64(i * 7), Value::I64(i)})
                    .ok());
    engine.Pump();
  }
  // The filtered prejoin keeps the ip and asn cells of 4/5 of the hosts,
  // and the join hash is built over those ips.
  std::vector<int64_t> kept;
  for (int64_t i = 0; i < kHosts; ++i) {
    if (i % 5 < 4) kept.push_back(i);
  }
  const size_t prejoin_bytes = 2 * kept.size() * sizeof(int64_t);
  ops::JoinHash hash;
  hash.Reset(TypeId::kI64);
  ASSERT_TRUE(hash.Append(*Bat::MakeI64(kept), 0, kept.size()).ok());
  const SharingStats ss = engine.GetSharingStats();
  ASSERT_EQ(ss.nodes.size(), 1u);
  EXPECT_GE(ss.nodes[0].cached_bytes, prejoin_bytes + hash.MemoryBytes());
}

TEST(EngineConcurrencyTest, TakeResultsRacesRemoveContinuous) {
  Engine engine;  // threaded mode: 2 scheduler workers
  ASSERT_TRUE(
      engine.Execute("CREATE STREAM s (ts timestamp, v int)").ok());
  for (int round = 0; round < 25; ++round) {
    auto qid = engine.SubmitContinuous("SELECT v FROM s");
    ASSERT_TRUE(qid.ok()) << qid.status().ToString();
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(engine.PushRow("s", {Value::Ts(i), Value::I64(i)}).ok());
    }
    std::thread taker([&] {
      // Races the removal: NotFound after the removal wins is expected.
      for (int i = 0; i < 16; ++i) (void)engine.TakeResults(*qid);
    });
    std::thread remover([&] { (void)engine.RemoveContinuous(*qid); });
    taker.join();
    remover.join();
  }
}

TEST_F(EngineTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(engine_.Query("SELECT v FROM nosuch").ok());
  EXPECT_FALSE(engine_.Execute("CREATE TABLE t (x whatever)").ok());
  Exec("CREATE TABLE t (x int)");
  EXPECT_FALSE(engine_.Query("SELECT y FROM t").ok());
  EXPECT_FALSE(engine_.Query("SELECT sum(x), y FROM t").ok());
  EXPECT_FALSE(engine_.SubmitContinuous("SELECT x FROM t").ok());
  // Window on a table is rejected.
  EXPECT_FALSE(engine_.Query("SELECT x FROM t [ROWS 5]").ok());
}

// Streams refuse NULL cells at ingest, so none reaches a group key or an
// aggregate argument. Every push path names the stream and column, and the
// standing query keeps serving the rows that follow.
TEST_F(EngineTest, StreamsRefuseNullCellsAndKeepServing) {
  Exec("CREATE STREAM s (ts timestamp, k int, v int)");
  const int qid =
      Submit("SELECT k, sum(v) FROM s [ROWS 4 SLIDE 2] GROUP BY k");

  const Status key = engine_.PushRow(
      "s", {Value::Ts(1), Value::Null(TypeId::kI64), Value::I64(5)});
  EXPECT_TRUE(key.IsInvalidArgument()) << key.ToString();
  EXPECT_NE(key.message().find("stream s column k"), std::string::npos)
      << key.ToString();
  const Status arg = engine_.PushRow(
      "s", {Value::Ts(1), Value::I64(0), Value::Null(TypeId::kI64)});
  EXPECT_TRUE(arg.IsInvalidArgument()) << arg.ToString();
  EXPECT_NE(arg.message().find("column v"), std::string::npos);
  BatPtr nulls = Bat::MakeEmpty(TypeId::kI64);
  nulls->AppendI64(1);
  nulls->AppendNull();
  const Status batch = engine_.PushColumns(
      "s", {Bat::MakeTs({1, 2}), nulls, Bat::MakeI64({1, 2})});
  EXPECT_TRUE(batch.IsInvalidArgument()) << batch.ToString();
  EXPECT_NE(batch.message().find("column k"), std::string::npos);
  engine_.Pump();
  EXPECT_TRUE(Take(qid).empty());  // nothing was appended

  for (int i = 0; i < 4; ++i) {
    Push("s", {Value::Ts(10 + i), Value::I64(i % 2), Value::I64(i)});
  }
  engine_.Pump();
  EXPECT_EQ(RowStrings(Take(qid)),
            (std::vector<std::string>{"0|2|", "1|4|"}));
}

// Tables may hold NULL cells (streams refuse them), and aggregates skip
// them: COUNT(v) counts the other cells, SUM/AVG/MIN/MAX fold only those,
// and a group whose cells are all NULL reads COUNT 0 and NULL elsewhere.
class NullTableTest : public testutil::SyncEngineTest {
 protected:
  // t(k, v) = (1, 10), (1, NULL), (1, 5), (2, NULL).
  void LoadTable() {
    Exec("CREATE TABLE t (k int, v int)");
    BatPtr v = Bat::MakeEmpty(TypeId::kI64);
    v->AppendI64(10);
    v->AppendNull();
    v->AppendI64(5);
    v->AppendNull();
    auto t = engine_.catalog().GetTable("t");
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->AppendColumns({Bat::MakeI64({1, 1, 1, 2}), v}).ok());
  }
};

TEST_F(NullTableTest, OneTimeAggregatesSkipNullCells) {
  LoadTable();
  EXPECT_TRUE(testutil::ColumnSetMatches(
      MustQuery("SELECT count(*), count(v), sum(v), avg(v), min(v), max(v) "
                "FROM t"),
      {{"4", "2", "15", "7.5", "5", "10"}}));
  EXPECT_TRUE(testutil::ColumnSetMatches(
      MustQuery("SELECT k, count(*), count(v), sum(v), avg(v), min(v), "
                "max(v) FROM t GROUP BY k ORDER BY k"),
      {{"1", "3", "2", "15", "7.5", "5", "10"},
       {"2", "1", "0", "NULL", "NULL", "NULL", "NULL"}}));
}

// A stream joined with the table carries the table's NULL cells into the
// aggregates: INCREMENTAL (per-basic-window partials of a window node)
// and FULL emit the same rows, and those rows skip the NULLs.
TEST_F(NullTableTest, StreamTableIncrementalMatchesFull) {
  LoadTable();
  Exec("CREATE STREAM s (ts timestamp, sk int)");
  const std::string aggs =
      "count(*), count(v), sum(v), avg(v), min(v), max(v) "
      "FROM s [ROWS 4 SLIDE 2] JOIN t ON s.sk = t.k";
  const std::string grouped =
      "SELECT k, " + aggs + " GROUP BY k ORDER BY k";
  const std::string scalar = "SELECT " + aggs;
  const int gi = Submit(grouped, ExecMode::kIncremental);
  const int gf = Submit(grouped, ExecMode::kFullReeval);
  const int si = Submit(scalar, ExecMode::kIncremental);
  const int sf = Submit(scalar, ExecMode::kFullReeval);
  for (int i = 0; i < 8; ++i) {
    PushPump("s", {Value::Ts(i), Value::I64(1 + i % 2)});
  }
  // Every window holds sk 1, 2, 1, 2: each 1 pairs with (10, NULL, 5),
  // each 2 with (NULL).
  const std::vector<std::vector<std::string>> want_grouped{
      {"1", "6", "4", "30", "7.5", "5", "10"},
      {"2", "2", "0", "NULL", "NULL", "NULL", "NULL"}};
  const std::vector<std::vector<std::string>> want_scalar{
      {"8", "4", "30", "7.5", "5", "10"}};
  const auto inc_grouped = Take(gi);
  const auto inc_scalar = Take(si);
  ASSERT_EQ(inc_grouped.size(), 3u);
  ASSERT_EQ(inc_scalar.size(), 3u);
  for (size_t e = 0; e < 3; ++e) {
    EXPECT_TRUE(testutil::ColumnSetMatches(inc_grouped[e], want_grouped));
    EXPECT_TRUE(testutil::ColumnSetMatches(inc_scalar[e], want_scalar));
  }
  EXPECT_EQ(testutil::EmissionStrings(inc_grouped),
            testutil::EmissionStrings(Take(gf)));
  EXPECT_EQ(testutil::EmissionStrings(inc_scalar),
            testutil::EmissionStrings(Take(sf)));
}

// SQL puts every NULL group key in one group, whose key cell reads NULL;
// a NULL's payload (0, "") never joins a real 0 or "".
class NullGroupKeyTest : public testutil::SyncEngineTest {
 protected:
  // g(id, k, name) = (1, 7, a), (2, NULL, NULL), (3, 0, ""), (4, NULL, a).
  void LoadTable() {
    Exec("CREATE TABLE g (id int, k int, name string)");
    BatPtr k = Bat::MakeEmpty(TypeId::kI64);
    k->AppendI64(7);
    k->AppendNull();
    k->AppendI64(0);
    k->AppendNull();
    BatPtr name = Bat::MakeEmpty(TypeId::kStr);
    name->AppendStr("a");
    name->AppendNull();
    name->AppendStr("");
    name->AppendStr("a");
    auto g = engine_.catalog().GetTable("g");
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(
        (*g)->AppendColumns({Bat::MakeI64({1, 2, 3, 4}), k, name}).ok());
  }

  static std::vector<std::string> SortedRows(
      const std::vector<ColumnSet>& emissions) {
    std::vector<std::string> rows = testutil::RowStrings(emissions);
    std::sort(rows.begin(), rows.end());
    return rows;
  }
};

TEST_F(NullGroupKeyTest, OneTimeGroupByNullableColumn) {
  LoadTable();
  EXPECT_EQ(SortedRows({MustQuery("SELECT k, count(*), sum(id) FROM g "
                                  "GROUP BY k")}),
            (std::vector<std::string>{"0|1|3|", "7|1|1|", "NULL|2|6|"}));
  EXPECT_EQ(SortedRows({MustQuery("SELECT k, name, count(*) FROM g "
                                  "GROUP BY k, name")}),
            (std::vector<std::string>{"0||1|", "7|a|1|", "NULL|NULL|1|",
                                      "NULL|a|1|"}));
}

// A stream joined with the table, grouped by the table's nullable column:
// INCREMENTAL (per-basic-window partials merged per emission) and FULL
// emit the same groups.
TEST_F(NullGroupKeyTest, StreamTableIncrementalMatchesFull) {
  LoadTable();
  Exec("CREATE STREAM s (ts timestamp, sk int)");
  const std::string sql =
      "SELECT k, count(*), sum(sk) FROM s [ROWS 4 SLIDE 2] "
      "JOIN g ON s.sk = g.id GROUP BY k";
  const int inc = Submit(sql, ExecMode::kIncremental);
  const int full = Submit(sql, ExecMode::kFullReeval);
  for (int i = 0; i < 8; ++i) {
    PushPump("s", {Value::Ts(i), Value::I64(1 + i % 4)});
  }
  // Every window holds sk 1..4 once: 1 -> 7, 2 and 4 -> NULL, 3 -> 0.
  const auto inc_out = Take(inc);
  const auto full_out = Take(full);
  ASSERT_EQ(inc_out.size(), 3u);
  ASSERT_EQ(full_out.size(), 3u);
  for (size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(SortedRows({inc_out[e]}),
              (std::vector<std::string>{"0|1|3|", "7|1|1|", "NULL|2|6|"}))
        << "emission " << e;
    EXPECT_EQ(SortedRows({inc_out[e]}), SortedRows({full_out[e]}))
        << "emission " << e;
  }
}

// A comparison with NULL is never true: the NULL rows' payload is 0, and
// neither a WHERE on the column nor an equi-join may take it for a 0.
TEST_F(NullGroupKeyTest, WhereNeverSelectsNull) {
  LoadTable();
  EXPECT_EQ(SortedRows({MustQuery("SELECT id FROM g WHERE k = 0")}),
            (std::vector<std::string>{"3|"}));
  EXPECT_EQ(SortedRows({MustQuery("SELECT id FROM g WHERE k < 5")}),
            (std::vector<std::string>{"3|"}));
  EXPECT_EQ(SortedRows({MustQuery("SELECT id FROM g WHERE k <> 7")}),
            (std::vector<std::string>{"3|"}));
  EXPECT_EQ(SortedRows({MustQuery("SELECT id FROM g WHERE name = ''")}),
            (std::vector<std::string>{"3|"}));
}

TEST_F(NullGroupKeyTest, EquiJoinNeverPairsNull) {
  LoadTable();
  EXPECT_EQ(SortedRows({MustQuery("SELECT a.id, b.id FROM g a JOIN g b "
                                  "ON a.k = b.k")}),
            (std::vector<std::string>{"1|1|", "3|3|"}));
  EXPECT_EQ(SortedRows({MustQuery("SELECT a.id, b.id FROM g a JOIN g b "
                                  "ON a.name = b.name")}),
            (std::vector<std::string>{"1|1|", "1|4|", "3|3|", "4|1|",
                                      "4|4|"}));
}

// NULL sorts as the smallest value (MonetDB's nil order): first under
// ASC, last under DESC, and the NULL rows stay together.
TEST_F(NullGroupKeyTest, OrderByPlacesNullsTogether) {
  LoadTable();
  EXPECT_EQ(testutil::RowStrings({MustQuery("SELECT id, k FROM g ORDER BY "
                                            "k DESC")}),
            (std::vector<std::string>{"1|7|", "3|0|", "2|NULL|",
                                      "4|NULL|"}));
  EXPECT_EQ(testutil::RowStrings({MustQuery("SELECT id, k FROM g ORDER BY "
                                            "k, id")}),
            (std::vector<std::string>{"2|NULL|", "4|NULL|", "3|0|",
                                      "1|7|"}));
}

// The same order on the incremental path, whose sorted per-basic-window
// partials are merged run by run: INCREMENTAL equals FULL.
TEST_F(NullGroupKeyTest, OrderByNullsIncrementalMatchesFull) {
  LoadTable();
  Exec("CREATE STREAM s (ts timestamp, sk int)");
  const std::string sql =
      "SELECT sk, k FROM s [ROWS 4 SLIDE 1] JOIN g ON s.sk = g.id "
      "ORDER BY k DESC";
  const int inc = Submit(sql, ExecMode::kIncremental);
  const int full = Submit(sql, ExecMode::kFullReeval);
  for (int i = 0; i < 8; ++i) {
    PushPump("s", {Value::Ts(i), Value::I64(1 + i % 4)});
  }
  // Every window holds sk 1..4 once: 1 -> 7, 2 and 4 -> NULL, 3 -> 0.
  const auto inc_out = Take(inc);
  const auto full_out = Take(full);
  ASSERT_EQ(inc_out.size(), 5u);
  ASSERT_EQ(full_out.size(), 5u);
  for (size_t e = 0; e < inc_out.size(); ++e) {
    const std::vector<std::string> rows = testutil::RowStrings({inc_out[e]});
    ASSERT_EQ(rows.size(), 4u) << "emission " << e;
    EXPECT_EQ(rows[0], "1|7|") << "emission " << e;
    EXPECT_EQ(rows[1], "3|0|") << "emission " << e;
    EXPECT_EQ(rows[2].substr(1), "|NULL|") << "emission " << e;
    EXPECT_EQ(rows[3].substr(1), "|NULL|") << "emission " << e;
    EXPECT_EQ(rows, testutil::RowStrings({full_out[e]})) << "emission " << e;
  }
}

// f64 MIN/MAX order NaN above every number (PostgreSQL's rule) on every
// path: one-time scalar and grouped queries over each row order of NaN,
// 5, 3, and sliding windows over all those orders in a row, whose
// one-row basic-window partials split the window, INCREMENTAL and FULL.
TEST_F(EngineTest, NaNExtremaFollowOneOrderOnEveryPath) {
  auto less = [](double a, double b) {  // NaN above every number
    return !std::isnan(a) && (std::isnan(b) || a < b);
  };
  auto cell = [](double x) { return Value::F64(x).ToString(); };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Exec("CREATE STREAM s (ts timestamp, k int, x double)");
  const std::string window = " FROM s [ROWS 3 SLIDE 1]";
  const int scalar_inc =
      Submit("SELECT min(x), max(x)" + window, ExecMode::kIncremental);
  const int scalar_full =
      Submit("SELECT min(x), max(x)" + window, ExecMode::kFullReeval);
  const int grouped_inc = Submit("SELECT k, min(x), max(x)" + window +
                                     " GROUP BY k",
                                 ExecMode::kIncremental);
  const int grouped_full = Submit("SELECT k, min(x), max(x)" + window +
                                      " GROUP BY k",
                                  ExecMode::kFullReeval);

  std::vector<double> vals{3, 5, nan};
  std::vector<double> pushed;
  int perm = 0;
  do {
    const std::string t = StrFormat("u%d", perm++);
    Exec("CREATE TABLE " + t + " (k int, x double)");
    auto table = engine_.catalog().GetTable(t);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)
                    ->AppendColumns({Bat::MakeI64({7, 7, 7}),
                                     Bat::MakeF64(vals)})
                    .ok());
    EXPECT_TRUE(testutil::ColumnSetMatches(
        MustQuery("SELECT min(x), max(x) FROM " + t), {{"3", cell(nan)}}))
        << t;
    EXPECT_TRUE(testutil::ColumnSetMatches(
        MustQuery("SELECT k, min(x), max(x) FROM " + t + " GROUP BY k"),
        {{"7", "3", cell(nan)}}))
        << t;
    for (double x : vals) {
      PushPump("s", {Value::Ts(static_cast<int64_t>(pushed.size())),
                     Value::I64(7), Value::F64(x)});
      pushed.push_back(x);
    }
  } while (std::next_permutation(vals.begin(), vals.end(), less));
  ASSERT_EQ(perm, 6);

  const auto scalar = Take(scalar_inc);
  const auto grouped = Take(grouped_inc);
  ASSERT_EQ(scalar.size(), pushed.size() - 2);
  ASSERT_EQ(grouped.size(), pushed.size() - 2);
  for (size_t e = 0; e < scalar.size(); ++e) {
    const auto [lo, hi] =
        std::minmax_element(pushed.begin() + e, pushed.begin() + e + 3, less);
    EXPECT_TRUE(
        testutil::ColumnSetMatches(scalar[e], {{cell(*lo), cell(*hi)}}))
        << "window " << e;
    EXPECT_TRUE(testutil::ColumnSetMatches(grouped[e],
                                           {{"7", cell(*lo), cell(*hi)}}))
        << "window " << e;
  }
  EXPECT_EQ(testutil::EmissionStrings(scalar),
            testutil::EmissionStrings(Take(scalar_full)));
  EXPECT_EQ(testutil::EmissionStrings(grouped),
            testutil::EmissionStrings(Take(grouped_full)));
}

}  // namespace
}  // namespace dc
