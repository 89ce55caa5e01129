// Two-paradigm equivalence — the paper's core claim, end-to-end: a
// continuous query and a one-time query over identical data, through the
// same binder/optimizer/compiler/executor stack, must produce identical
// results.
//
// Every row is fed both to a stream (consumed by SubmitContinuous) and to a
// persistent table (read by Query). For each continuous emission the test
// derives the window's exact extent from WindowMath and replays it as a
// one-time query:
//  * RANGE windows: `WHERE ts >= start AND ts < end` over the table;
//  * ROWS windows: a per-window table holding exactly that row chunk.
// Swept over aggregate shapes × window geometries × both execution modes
// (incremental and full re-evaluation).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "core/window.h"
#include "storage/wal.h"
#include "tests/crash_util.h"
#include "tests/durability_workload.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "util/string_util.h"

namespace dc {
namespace {

using testutil::RowStrings;

struct EquivCase {
  const char* label;
  const char* select;  // projection / aggregate list
  const char* where;   // extra predicate ("" = none)
  const char* tail;    // GROUP BY / ORDER BY clause ("" = none)
  int64_t size;        // window size (seconds for RANGE, rows for ROWS)
  int64_t slide;
  ExecMode mode;
};

std::string CaseName(const ::testing::TestParamInfo<EquivCase>& info) {
  return StrFormat("%s_%lld_%lld_%s", info.param.label,
                   static_cast<long long>(info.param.size),
                   static_cast<long long>(info.param.slide),
                   info.param.mode == ExecMode::kIncremental ? "inc" : "full");
}

/// Rows of one emission as printable strings.
std::vector<std::string> Cells(const ColumnSet& cs) {
  return RowStrings({cs});
}

/// Matches the continuous emission sequence 1:1 against the one-time
/// replay of every window. Since zero-row emissions keep their batch
/// boundary in the output basket and emitters deliver them, every window —
/// empty or not — must produce exactly one emission equal to its replay,
/// cell-for-cell and in order.
void CheckEmissionsMatchReplays(Engine& engine,
                                const std::vector<ColumnSet>& emissions,
                                const std::vector<std::string>& window_sqls,
                                const std::string& continuous_sql) {
  ASSERT_EQ(emissions.size(), window_sqls.size())
      << "one emission per window expected\ncontinuous: " << continuous_sql;
  for (size_t i = 0; i < window_sqls.size(); ++i) {
    const std::string& onetime = window_sqls[i];
    auto replay = engine.Query(onetime);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString()
                             << "\nsql: " << onetime;
    EXPECT_EQ(Cells(emissions[i]), Cells(*replay))
        << "emission " << i << " differs from its window replay"
        << "\ncontinuous: " << continuous_sql << "\none-time:   " << onetime
        << "\nreplay:\n"
        << replay->ToString(1 << 20) << "\nemission:\n"
        << emissions[i].ToString(1 << 20);
  }
}

std::string ContinuousSql(const EquivCase& c, bool rows_window) {
  std::string sql = StrFormat(
      rows_window ? "SELECT %s FROM s [ROWS %lld SLIDE %lld]"
                  : "SELECT %s FROM s [RANGE %lld SECONDS SLIDE %lld SECONDS]",
      c.select, static_cast<long long>(c.size),
      static_cast<long long>(c.slide));
  if (*c.where) sql += StrFormat(" WHERE %s", c.where);
  if (*c.tail) sql += StrFormat(" %s", c.tail);
  return sql;
}

// Both paradigms must agree bit-for-bit on doubles, so w values are dyadic
// rationals (k/16) that round-trip exactly through the SQL literal below.
struct Row {
  int64_t ts_us;
  int64_t g;
  int64_t v;
  int64_t w16;  // w = w16 / 16.0
};

std::vector<Row> MakeRows(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Row> rows;
  int64_t ts_sec = 0;
  for (int i = 0; i < n; ++i) {
    ts_sec += rng.UniformInt(0, 3) / 2;  // 0 or 1 s per row, duplicates kept
    rows.push_back(Row{ts_sec * kMicrosPerSecond, rng.UniformInt(0, 5),
                       rng.UniformInt(-50, 50), rng.UniformInt(0, 160)});
  }
  return rows;
}

std::string ValuesList(const std::vector<Row>& rows, size_t lo, size_t hi) {
  std::string values;
  for (size_t i = lo; i < hi; ++i) {
    values += StrFormat("%s(%lld, %lld, %lld, %.6f)", i == lo ? "" : ", ",
                        static_cast<long long>(rows[i].ts_us),
                        static_cast<long long>(rows[i].g),
                        static_cast<long long>(rows[i].v),
                        static_cast<double>(rows[i].w16) / 16.0);
  }
  return values;
}

class TwoParadigms : public testutil::SyncEngineTest,
                     public ::testing::WithParamInterface<EquivCase> {};

// --- RANGE windows: replayed as ts-interval predicates over the table ----

TEST_P(TwoParadigms, RangeWindowMatchesOneTimeQuery) {
  const EquivCase& c = GetParam();
  Exec("CREATE STREAM s (ts timestamp, g int, v int, w double)");
  Exec("CREATE TABLE t (ts timestamp, g int, v int, w double)");

  const std::string sql = ContinuousSql(c, /*rows_window=*/false);
  auto qid = engine_.SubmitContinuous(sql, testutil::WithMode(c.mode));
  ASSERT_TRUE(qid.ok()) << qid.status().ToString() << "\nsql: " << sql;

  const std::vector<Row> rows = MakeRows(7 * c.size + c.slide, 300);
  for (size_t i = 0; i < rows.size(); i += 50) {
    const size_t hi = std::min(i + 50, rows.size());
    Exec(StrFormat("INSERT INTO t VALUES %s",
                   ValuesList(rows, i, hi).c_str()));
  }
  for (const Row& r : rows) {
    PushPump("s", {Value::Ts(r.ts_us), Value::I64(r.g), Value::I64(r.v),
                   Value::F64(static_cast<double>(r.w16) / 16.0)});
  }
  Seal("s");

  const std::vector<ColumnSet> emissions = Take(*qid);
  ASSERT_GT(emissions.size(), 2u) << sql;

  // Candidate windows end at boundaries m0*slide .. m_last*slide: from the
  // first window containing an event through the last one flushed by seal
  // (every window whose start lies at or before the last event).
  plan::WindowSpec spec;
  spec.size = c.size * kMicrosPerSecond;
  spec.slide = c.slide * kMicrosPerSecond;
  const WindowMath wm(spec);
  const int64_t m0 = wm.FirstRangeEmission(rows.front().ts_us);
  const int64_t m_last =
      (rows.back().ts_us + spec.size) / spec.slide;  // non-negative ts
  std::vector<std::string> window_sqls;
  for (int64_t m = m0; m <= m_last; ++m) {
    const auto [start, end] = wm.RangeExtent(m);
    std::string onetime = StrFormat(
        "SELECT %s FROM t WHERE ts >= %lld AND ts < %lld", c.select,
        static_cast<long long>(start), static_cast<long long>(end));
    if (*c.where) onetime += StrFormat(" AND %s", c.where);
    if (*c.tail) onetime += StrFormat(" %s", c.tail);
    window_sqls.push_back(std::move(onetime));
  }
  CheckEmissionsMatchReplays(engine_, emissions, window_sqls, sql);
}

constexpr const char* kScalar = "count(*), sum(v), min(v), max(v), avg(w)";
constexpr const char* kGrouped = "g, count(*), sum(v), avg(w)";
constexpr const char* kGroupTail = "GROUP BY g ORDER BY g";
constexpr const char* kProjection = "ts, g, v";
constexpr const char* kProjTail = "ORDER BY ts, g, v";

std::vector<EquivCase> RangeCases() {
  std::vector<EquivCase> cases;
  // (size, slide) seconds: tumbling, divisible sliding (true incremental
  // path), and non-divisible sliding (falls back to full re-evaluation).
  const std::pair<int64_t, int64_t> windows[] = {{4, 4}, {8, 2}, {6, 4}};
  const EquivCase shapes[] = {
      {"scalar", kScalar, "", "", 0, 0, ExecMode::kIncremental},
      {"grouped", kGrouped, "", kGroupTail, 0, 0, ExecMode::kIncremental},
      {"filtered", kGrouped, "v > 0", kGroupTail, 0, 0,
       ExecMode::kIncremental},
      {"projection", kProjection, "v % 2 = 0", kProjTail, 0, 0,
       ExecMode::kIncremental},
  };
  for (const EquivCase& shape : shapes) {
    for (auto [size, slide] : windows) {
      for (ExecMode mode : {ExecMode::kIncremental, ExecMode::kFullReeval}) {
        EquivCase c = shape;
        c.size = size;
        c.slide = slide;
        c.mode = mode;
        cases.push_back(c);
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Range, TwoParadigms,
                         ::testing::ValuesIn(RangeCases()), CaseName);

// --- ROWS windows: replayed as per-window row-chunk tables ---------------

class TwoParadigmsRows : public testutil::SyncEngineTest,
                         public ::testing::WithParamInterface<EquivCase> {};

TEST_P(TwoParadigmsRows, RowsWindowMatchesOneTimeQuery) {
  const EquivCase& c = GetParam();
  Exec("CREATE STREAM s (ts timestamp, g int, v int, w double)");

  const std::string sql = ContinuousSql(c, /*rows_window=*/true);
  auto qid = engine_.SubmitContinuous(sql, testutil::WithMode(c.mode));
  ASSERT_TRUE(qid.ok()) << qid.status().ToString() << "\nsql: " << sql;

  const std::vector<Row> rows = MakeRows(13 * c.size + c.slide, 120);
  for (const Row& r : rows) {
    PushPump("s", {Value::Ts(r.ts_us), Value::I64(r.g), Value::I64(r.v),
                   Value::F64(static_cast<double>(r.w16) / 16.0)});
  }
  // No seal: ROWS emission k fires exactly when row k*slide + size arrives.
  const std::vector<ColumnSet> emissions = Take(*qid);
  ASSERT_GT(emissions.size(), 2u) << sql;

  // Candidate window k covers the row chunk [k*slide, k*slide + size).
  const size_t num_windows =
      (rows.size() - static_cast<size_t>(c.size)) /
          static_cast<size_t>(c.slide) +
      1;
  std::vector<std::string> window_sqls;
  for (size_t k = 0; k < num_windows; ++k) {
    const size_t lo = k * static_cast<size_t>(c.slide);
    const size_t hi = lo + static_cast<size_t>(c.size);
    const std::string table = StrFormat("w%lld", static_cast<long long>(k));
    Exec(StrFormat("CREATE TABLE %s (ts timestamp, g int, v int, w double)",
                   table.c_str()));
    Exec(StrFormat("INSERT INTO %s VALUES %s", table.c_str(),
                   ValuesList(rows, lo, hi).c_str()));
    std::string onetime =
        StrFormat("SELECT %s FROM %s", c.select, table.c_str());
    if (*c.where) onetime += StrFormat(" WHERE %s", c.where);
    if (*c.tail) onetime += StrFormat(" %s", c.tail);
    window_sqls.push_back(std::move(onetime));
  }
  CheckEmissionsMatchReplays(engine_, emissions, window_sqls, sql);
}

std::vector<EquivCase> RowsCases() {
  std::vector<EquivCase> cases;
  const std::pair<int64_t, int64_t> windows[] = {{10, 10}, {12, 4}};
  const EquivCase shapes[] = {
      {"scalar", kScalar, "", "", 0, 0, ExecMode::kIncremental},
      {"grouped", kGrouped, "", kGroupTail, 0, 0, ExecMode::kIncremental},
      {"filtered", kGrouped, "v > 0", kGroupTail, 0, 0,
       ExecMode::kIncremental},
  };
  for (const EquivCase& shape : shapes) {
    for (auto [size, slide] : windows) {
      for (ExecMode mode : {ExecMode::kIncremental, ExecMode::kFullReeval}) {
        EquivCase c = shape;
        c.size = size;
        c.slide = slide;
        c.mode = mode;
        cases.push_back(c);
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Rows, TwoParadigmsRows,
                         ::testing::ValuesIn(RowsCases()), CaseName);

// --- Stream-stream delta joins vs one-time recompute ----------------------
//
// The incremental delta-join claim (docs/INCREMENTAL.md): joining only the
// newest basic window against the retained window and merging the cached
// pair partials must equal a one-time full-window recompute, for every
// emission, across slide/size ratios (incl. unequal sizes and the
// non-divisible fallback), empty basic windows, and duplicate join keys.

struct JoinCase {
  const char* label;
  const char* select;  // projection / aggregate list
  const char* tail;    // GROUP BY / ORDER BY clause ("" = none)
  int64_t lsize;       // left window size, seconds
  int64_t rsize;       // right window size, seconds
  int64_t slide;       // shared slide, seconds
  ExecMode mode;
};

std::string JoinCaseName(const ::testing::TestParamInfo<JoinCase>& info) {
  return StrFormat("%s_%lld_%lld_%lld_%s", info.param.label,
                   static_cast<long long>(info.param.lsize),
                   static_cast<long long>(info.param.rsize),
                   static_cast<long long>(info.param.slide),
                   info.param.mode == ExecMode::kIncremental ? "inc" : "full");
}

struct JoinRow {
  int64_t ts_us;
  int64_t k;
  int64_t v;
};

/// Monotone event times with occasional multi-second jumps so some basic
/// windows are empty; keys drawn from a small domain so duplicates are
/// guaranteed on both sides.
std::vector<JoinRow> MakeJoinRows(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<JoinRow> rows;
  int64_t ts_sec = 0;
  for (int i = 0; i < n; ++i) {
    ts_sec += rng.UniformInt(0, 3) / 2;             // 0 or 1 s per row
    if (rng.UniformInt(0, 15) == 0) ts_sec += 4;    // gap: empty basic windows
    rows.push_back(JoinRow{ts_sec * kMicrosPerSecond, rng.UniformInt(0, 4),
                           rng.UniformInt(-30, 30)});
  }
  return rows;
}

class TwoParadigmsJoin : public testutil::SyncEngineTest,
                         public ::testing::WithParamInterface<JoinCase> {};

TEST_P(TwoParadigmsJoin, DeltaJoinMatchesOneTimeRecompute) {
  const JoinCase& c = GetParam();
  Exec("CREATE STREAM a (ats timestamp, ka int, x int)");
  Exec("CREATE STREAM b (bts timestamp, kb int, y int)");
  Exec("CREATE TABLE ta (ats timestamp, ka int, x int)");
  Exec("CREATE TABLE tb (bts timestamp, kb int, y int)");

  const std::string sql = StrFormat(
      "SELECT %s FROM a [RANGE %lld SECONDS SLIDE %lld SECONDS] JOIN "
      "b [RANGE %lld SECONDS SLIDE %lld SECONDS] ON ka = kb%s%s",
      c.select, static_cast<long long>(c.lsize),
      static_cast<long long>(c.slide), static_cast<long long>(c.rsize),
      static_cast<long long>(c.slide), *c.tail ? " " : "", c.tail);
  auto qid = engine_.SubmitContinuous(sql, testutil::WithMode(c.mode));
  ASSERT_TRUE(qid.ok()) << qid.status().ToString() << "\nsql: " << sql;

  const std::vector<JoinRow> la = MakeJoinRows(11 * c.lsize + c.slide, 260);
  const std::vector<JoinRow> lb = MakeJoinRows(17 * c.rsize + c.slide, 260);
  auto values = [](const std::vector<JoinRow>& rows, size_t lo, size_t hi) {
    std::string out;
    for (size_t i = lo; i < hi; ++i) {
      out += StrFormat("%s(%lld, %lld, %lld)", i == lo ? "" : ", ",
                       static_cast<long long>(rows[i].ts_us),
                       static_cast<long long>(rows[i].k),
                       static_cast<long long>(rows[i].v));
    }
    return out;
  };
  for (size_t i = 0; i < la.size(); i += 65) {
    const size_t hi = std::min(i + 65, la.size());
    Exec(StrFormat("INSERT INTO ta VALUES %s", values(la, i, hi).c_str()));
    Exec(StrFormat("INSERT INTO tb VALUES %s", values(lb, i, hi).c_str()));
  }
  for (size_t i = 0; i < la.size(); ++i) {
    PushPump("a", {Value::Ts(la[i].ts_us), Value::I64(la[i].k),
                   Value::I64(la[i].v)});
    PushPump("b", {Value::Ts(lb[i].ts_us), Value::I64(lb[i].k),
                   Value::I64(lb[i].v)});
  }
  Seal("a");
  Seal("b");

  const std::vector<ColumnSet> emissions = Take(*qid);
  ASSERT_GT(emissions.size(), 2u) << sql;

  // Emission boundaries are shared (equal slide): the factory starts at
  // the later of the two sides' first windows and the seal flushes every
  // window both sides can still cover.
  plan::WindowSpec lspec, rspec;
  lspec.size = c.lsize * kMicrosPerSecond;
  lspec.slide = c.slide * kMicrosPerSecond;
  rspec.size = c.rsize * kMicrosPerSecond;
  rspec.slide = c.slide * kMicrosPerSecond;
  const WindowMath wl(lspec), wr(rspec);
  const int64_t m0 = std::max(wl.FirstRangeEmission(la.front().ts_us),
                              wr.FirstRangeEmission(lb.front().ts_us));
  const int64_t m_last =
      std::min((la.back().ts_us + lspec.size) / lspec.slide,
               (lb.back().ts_us + rspec.size) / rspec.slide);
  std::vector<std::string> window_sqls;
  for (int64_t m = m0; m <= m_last; ++m) {
    const auto [lstart, lend] = wl.RangeExtent(m);
    const auto [rstart, rend] = wr.RangeExtent(m);
    std::string onetime = StrFormat(
        "SELECT %s FROM ta JOIN tb ON ka = kb "
        "WHERE ats >= %lld AND ats < %lld AND bts >= %lld AND bts < %lld",
        c.select, static_cast<long long>(std::max<int64_t>(lstart, 0)),
        static_cast<long long>(lend),
        static_cast<long long>(std::max<int64_t>(rstart, 0)),
        static_cast<long long>(rend));
    if (*c.tail) onetime += StrFormat(" %s", c.tail);
    window_sqls.push_back(std::move(onetime));
  }
  CheckEmissionsMatchReplays(engine_, emissions, window_sqls, sql);

  // The incremental path must actually have used delta joins (not the
  // fallback) whenever the windows divide.
  const FactoryStats fs = engine_.GetFactory(*qid)->Stats();
  const bool divisible =
      c.lsize % c.slide == 0 && c.rsize % c.slide == 0;
  if (c.mode == ExecMode::kIncremental && divisible) {
    EXPECT_FALSE(fs.fell_back_to_full);
    EXPECT_GT(fs.fragments_computed, 0u);
  }
  if (c.mode == ExecMode::kIncremental && !divisible) {
    EXPECT_TRUE(fs.fell_back_to_full);
  }
}

constexpr const char* kJoinScalar = "count(*), sum(x), sum(y), min(x), max(y)";
constexpr const char* kJoinGrouped = "ka, count(*), sum(x), sum(y)";
constexpr const char* kJoinGroupTail =
    "GROUP BY ka HAVING count(*) > 2 ORDER BY ka";
constexpr const char* kJoinProjection = "ats, ka, x, y";
// Total order over every output column: stable-merge ties carry no
// information, so FULL, INCREMENTAL, and the one-time replay agree
// cell-for-cell.
constexpr const char* kJoinProjTail = "ORDER BY ats, ka, x, y";

std::vector<JoinCase> JoinCases() {
  std::vector<JoinCase> cases;
  // (lsize, rsize, slide) seconds: tumbling, divisible sliding with equal
  // and unequal sizes (true delta-join path), one tumbling side beside a
  // sliding one (either way round), and a non-divisible pair (full
  // re-evaluation fallback).
  const std::tuple<int64_t, int64_t, int64_t> windows[] = {
      {4, 4, 4}, {8, 8, 2}, {8, 4, 2}, {8, 4, 4}, {4, 8, 4}, {6, 4, 4}};
  const JoinCase shapes[] = {
      {"scalar", kJoinScalar, "", 0, 0, 0, ExecMode::kIncremental},
      {"grouped", kJoinGrouped, kJoinGroupTail, 0, 0, 0,
       ExecMode::kIncremental},
      {"projection", kJoinProjection, kJoinProjTail, 0, 0, 0,
       ExecMode::kIncremental},
  };
  for (const JoinCase& shape : shapes) {
    for (const auto& [lsize, rsize, slide] : windows) {
      for (ExecMode mode : {ExecMode::kIncremental, ExecMode::kFullReeval}) {
        JoinCase c = shape;
        c.lsize = lsize;
        c.rsize = rsize;
        c.slide = slide;
        c.mode = mode;
        cases.push_back(c);
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Join, TwoParadigmsJoin,
                         ::testing::ValuesIn(JoinCases()), JoinCaseName);

// --- Delta join under churn (threaded engine; exercised under TSan) -------
//
// Two producer threads feed both join sides while scheduler workers fire
// the incremental join factory and the main thread polls stats and
// pauses/resumes the query. Hunts for data races in the delta-join state
// (compact cache, expiry-keyed partials) rather than for exact values —
// the equivalence cases above pin those.
TEST(DeltaJoinChurn, ThreadedProducersStatsAndPauseResume) {
  Engine engine(testutil::Threaded(2));
  ASSERT_TRUE(
      engine.Execute("CREATE STREAM a (ats timestamp, ka int, x int)").ok());
  ASSERT_TRUE(
      engine.Execute("CREATE STREAM b (bts timestamp, kb int, y int)").ok());
  auto qid = engine.SubmitContinuous(
      "SELECT ka, count(*), sum(x), sum(y) FROM "
      "a [RANGE 4 SECONDS SLIDE 1 SECONDS] JOIN "
      "b [RANGE 8 SECONDS SLIDE 1 SECONDS] ON ka = kb "
      "GROUP BY ka ORDER BY ka",
      testutil::WithMode(ExecMode::kIncremental));
  ASSERT_TRUE(qid.ok()) << qid.status().ToString();

  constexpr int kRows = 600;
  auto produce = [&](const char* stream, uint64_t seed) {
    Rng rng(seed);
    int64_t ts_sec = 0;
    for (int i = 0; i < kRows; ++i) {
      ts_sec += rng.UniformInt(0, 3) / 2;
      ASSERT_TRUE(engine
                      .PushRow(stream, {Value::Ts(ts_sec * kMicrosPerSecond),
                                        Value::I64(rng.UniformInt(0, 6)),
                                        Value::I64(rng.UniformInt(0, 50))})
                      .ok());
    }
  };
  std::thread ta([&] { produce("a", 101); });
  std::thread tb([&] { produce("b", 202); });
  for (int i = 0; i < 20; ++i) {
    (void)engine.GetFactory(*qid)->Stats();
    if (i == 8) ASSERT_TRUE(engine.PauseQuery(*qid).ok());
    if (i == 12) ASSERT_TRUE(engine.ResumeQuery(*qid).ok());
    std::this_thread::yield();
  }
  ta.join();
  tb.join();
  ASSERT_TRUE(engine.SealStream("a").ok());
  ASSERT_TRUE(engine.SealStream("b").ok());
  ASSERT_TRUE(engine.WaitIdle());

  const FactoryStats fs = engine.GetFactory(*qid)->Stats();
  EXPECT_TRUE(fs.last_error.empty()) << fs.last_error;
  EXPECT_FALSE(fs.fell_back_to_full);
  EXPECT_GT(fs.emissions, 0u);
  auto results = engine.TakeResults(*qid);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), fs.emissions);
}

// --- Long-horizon churn: delta-join bookkeeping vs brute force ------------
//
// Drives a delta join through many times the full window turnover (shared
// timestamp sequence with a forced 16 s dead zone, so several emissions
// see empty windows) and cross-checks the incremental path's counters
// against brute-force references computed from the raw rows:
//  * delta_pairs — every matching pair that ever co-exists in the window
//    is created exactly once; the raw and pre-aggregated paths must agree
//    with the same reference;
//  * retained_rows / index_entries — the rolling retained-side state and
//    its hash index must end holding exactly the final window (rows on
//    the raw path, per-basic-window key groups on the pre-agg path).
// The scalar case also pins the empty-window convention: COUNT 0, other
// aggregates NULL.

struct ChurnRows {
  std::vector<JoinRow> a, b;
};

/// Both sides share one timestamp sequence so the dead zone is empty on
/// both, guaranteeing emissions whose join windows hold no rows at all.
ChurnRows MakeChurnRows(int n) {
  Rng ts_rng(991), ra(11), rb(22);
  ChurnRows d;
  int64_t ts_sec = 0;
  for (int i = 0; i < n; ++i) {
    ts_sec += ts_rng.UniformInt(0, 3) / 2;  // 0 or 1 s per row
    if (i == n / 2) ts_sec += 16;           // dead zone: empty windows
    d.a.push_back(JoinRow{ts_sec * kMicrosPerSecond, ra.UniformInt(0, 4),
                          ra.UniformInt(-30, 30)});
    d.b.push_back(JoinRow{ts_sec * kMicrosPerSecond, rb.UniformInt(0, 4),
                          rb.UniformInt(-30, 30)});
  }
  return d;
}

class DeltaJoinLongHorizon : public testutil::SyncEngineTest {
 protected:
  static constexpr int64_t kLSize = 4, kRSize = 8, kSlide = 1;  // seconds
  static constexpr int64_t kSlideUs = kSlide * kMicrosPerSecond;
  static constexpr int64_t kNl = kLSize / kSlide, kNr = kRSize / kSlide;
  static constexpr int kRows = 300;

  void RunChurn(const char* select, const char* tail,
                std::vector<ColumnSet>* emissions, FactoryStats* fs) {
    Exec("CREATE STREAM a (ats timestamp, ka int, x int)");
    Exec("CREATE STREAM b (bts timestamp, kb int, y int)");
    const std::string sql = StrFormat(
        "SELECT %s FROM a [RANGE %lld SECONDS SLIDE %lld SECONDS] JOIN "
        "b [RANGE %lld SECONDS SLIDE %lld SECONDS] ON ka = kb%s%s",
        select, static_cast<long long>(kLSize), static_cast<long long>(kSlide),
        static_cast<long long>(kRSize), static_cast<long long>(kSlide),
        *tail ? " " : "", tail);
    auto qid = engine_.SubmitContinuous(
        sql, testutil::WithMode(ExecMode::kIncremental));
    ASSERT_TRUE(qid.ok()) << qid.status().ToString() << "\nsql: " << sql;

    rows_ = MakeChurnRows(kRows);
    for (int i = 0; i < kRows; ++i) {
      PushPump("a", {Value::Ts(rows_.a[i].ts_us), Value::I64(rows_.a[i].k),
                     Value::I64(rows_.a[i].v)});
      PushPump("b", {Value::Ts(rows_.b[i].ts_us), Value::I64(rows_.b[i].k),
                     Value::I64(rows_.b[i].v)});
    }
    Seal("a");
    Seal("b");

    *emissions = Take(*qid);
    *fs = engine_.GetFactory(*qid)->Stats();
    ASSERT_TRUE(fs->last_error.empty()) << fs->last_error;
    EXPECT_FALSE(fs->fell_back_to_full);

    m0_ = rows_.a.front().ts_us / kSlideUs + 1;
    m_last_ = std::min(
        (rows_.a.back().ts_us + kLSize * kMicrosPerSecond) / kSlideUs,
        (rows_.b.back().ts_us + kRSize * kMicrosPerSecond) / kSlideUs);
    ASSERT_EQ(emissions->size(), static_cast<size_t>(m_last_ - m0_ + 1));
    // Long horizon: the data must churn through >= 4 full window turnovers.
    ASSERT_GE(m_last_ - m0_, 4 * std::max(kNl, kNr));
  }

  /// Matching pairs whose joint window-membership range intersects the
  /// fired emissions [m0_, m_last_]: row ts is in window m iff
  /// m in [ts/slide + 1, ts/slide + n]. Each such pair is created by
  /// exactly one fire on either delta path.
  uint64_t ExpectedDeltaPairs() const {
    uint64_t pairs = 0;
    for (const JoinRow& l : rows_.a) {
      const int64_t llo = l.ts_us / kSlideUs + 1, lhi = l.ts_us / kSlideUs + kNl;
      for (const JoinRow& r : rows_.b) {
        if (l.k != r.k) continue;
        const int64_t rlo = r.ts_us / kSlideUs + 1;
        const int64_t rhi = r.ts_us / kSlideUs + kNr;
        if (std::max({llo, rlo, m0_}) <= std::min({lhi, rhi, m_last_})) ++pairs;
      }
    }
    return pairs;
  }

  /// Rows of the final retained window, i.e. ts in RangeExtent(m_last_),
  /// summed over both sides (every row's ts is below the last boundary).
  uint64_t ExpectedRetainedRows() const {
    uint64_t rows = 0;
    for (const JoinRow& l : rows_.a)
      if (l.ts_us >= (m_last_ - kNl) * kSlideUs) ++rows;
    for (const JoinRow& r : rows_.b)
      if (r.ts_us >= (m_last_ - kNr) * kSlideUs) ++rows;
    return rows;
  }

  /// Pre-agg path: one group per (live basic window, distinct key).
  uint64_t ExpectedRetainedGroups() const {
    auto side = [&](const std::vector<JoinRow>& rows, int64_t n) {
      uint64_t groups = 0;
      for (int64_t j = m_last_ - n; j < m_last_; ++j) {
        std::set<int64_t> keys;
        for (const JoinRow& r : rows)
          if (r.ts_us / kSlideUs == j) keys.insert(r.k);
        groups += keys.size();
      }
      return groups;
    };
    return side(rows_.a, kNl) + side(rows_.b, kNr);
  }

  ChurnRows rows_;
  int64_t m0_ = 0, m_last_ = 0;
};

TEST_F(DeltaJoinLongHorizon, RawPathCountersMatchBruteForce) {
  std::vector<ColumnSet> emissions;
  FactoryStats fs;
  ASSERT_NO_FATAL_FAILURE(
      RunChurn(kJoinProjection, kJoinProjTail, &emissions, &fs));
  EXPECT_EQ(fs.delta_pairs, ExpectedDeltaPairs());
  EXPECT_EQ(fs.retained_rows, ExpectedRetainedRows());
  EXPECT_EQ(fs.index_entries, ExpectedRetainedRows());
}

TEST_F(DeltaJoinLongHorizon, PreAggPathCountersMatchBruteForce) {
  std::vector<ColumnSet> emissions;
  FactoryStats fs;
  ASSERT_NO_FATAL_FAILURE(RunChurn(kJoinScalar, "", &emissions, &fs));
  // Path-independent: the group-pairing product rule represents exactly
  // the pairs the raw path would have materialized.
  EXPECT_EQ(fs.delta_pairs, ExpectedDeltaPairs());
  EXPECT_EQ(fs.retained_rows, ExpectedRetainedGroups());
  EXPECT_EQ(fs.index_entries, ExpectedRetainedGroups());

  // The dead zone forces emissions whose join result is empty: COUNT is 0
  // and every other scalar aggregate is SQL NULL (not 0).
  int empty_emissions = 0;
  for (const ColumnSet& cs : emissions) {
    ASSERT_EQ(cs.NumRows(), 1u);
    if (cs.cols[0]->GetValue(0).AsI64() != 0) continue;
    ++empty_emissions;
    for (size_t c = 1; c < cs.cols.size(); ++c) {
      EXPECT_TRUE(cs.cols[c]->IsNull(0)) << "col " << c;
      EXPECT_TRUE(cs.cols[c]->GetValue(0).is_null()) << "col " << c;
    }
  }
  EXPECT_GT(empty_emissions, 0);
}

// --- Shared vs unshared differential matrix (docs/SHARING.md) -------------
//
// The sharing registry must be invisible in the output: every query running
// in a shared engine (one receptor fan-out per stream, shared window nodes,
// deduplicated factories) must emit byte-for-byte what it emits alone in an
// engine with EngineOptions::enable_sharing = false. The matrix covers
// factory-level dedup (identical texts, incl. joins and full re-evaluation
// mode), shared window nodes (same fragment prefix, differing HAVING/LIMIT
// tails, with or without a joined table), window subsumption (coarser
// compatible slides riding a finer grid), and the paths sharing must NOT
// capture (non-divisible fallback, incompatible slides). Unshared
// incremental windows still run on (one-subscriber) nodes, so every
// incremental case is also checked against a solo full re-evaluation,
// which shares no code with the node.

EngineOptions SharingOpts(bool enable) {
  EngineOptions o = testutil::SyncOptions();
  o.enable_sharing = enable;
  return o;
}

class SharingDifferential : public ::testing::Test {
 protected:
  struct ShareCase {
    std::string sql;
    ExecMode mode = ExecMode::kIncremental;
  };

  static void Ddl(Engine& e) {
    ASSERT_TRUE(
        e.Execute("CREATE STREAM s (ts timestamp, g int, v int, w double)")
            .ok());
    ASSERT_TRUE(
        e.Execute("CREATE STREAM r (rts timestamp, kr int, y int)").ok());
    ASSERT_TRUE(e.Execute("CREATE TABLE dim (dg int, label string);"
                          "INSERT INTO dim VALUES (0,'a'), (1,'b'), "
                          "(1,'bb'), (2,'c'), (4,'e')")
                    .ok());
  }

  /// Identical deterministic feed for the shared engine and every solo
  /// replay: both streams advance on one timestamp sequence.
  static void Feed(Engine& e) {
    const std::vector<Row> rows = MakeRows(4242, 240);
    for (const Row& r : rows) {
      ASSERT_TRUE(
          e.PushRow("s", {Value::Ts(r.ts_us), Value::I64(r.g), Value::I64(r.v),
                          Value::F64(static_cast<double>(r.w16) / 16.0)})
              .ok());
      ASSERT_TRUE(e.PushRow("r", {Value::Ts(r.ts_us), Value::I64(r.v % 5),
                                  Value::I64(r.w16)})
                      .ok());
      e.Pump();
    }
    ASSERT_TRUE(e.SealStream("s").ok());
    ASSERT_TRUE(e.SealStream("r").ok());
    e.Pump();
  }

  /// Emissions of `c` run alone in a fresh unshared engine in `mode`.
  static void RunSolo(const ShareCase& c, ExecMode mode,
                      std::vector<std::string>* out) {
    Engine solo(SharingOpts(false));
    ASSERT_NO_FATAL_FAILURE(Ddl(solo));
    auto sq = solo.SubmitContinuous(c.sql, testutil::WithMode(mode));
    ASSERT_TRUE(sq.ok()) << sq.status().ToString() << "\nsql: " << c.sql;
    ASSERT_NO_FATAL_FAILURE(Feed(solo));
    auto got = solo.TakeResults(*sq);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    *out = testutil::EmissionStrings(*got);
  }

  /// Runs every case concurrently in `shared` and each case alone in a
  /// fresh unshared engine — incremental cases also in full
  /// re-evaluation mode; emissions must match byte-for-byte.
  void RunMatrix(const std::vector<ShareCase>& cases, Engine* shared) {
    ASSERT_NO_FATAL_FAILURE(Ddl(*shared));
    for (const ShareCase& c : cases) {
      auto qid = shared->SubmitContinuous(c.sql, testutil::WithMode(c.mode));
      ASSERT_TRUE(qid.ok()) << qid.status().ToString() << "\nsql: " << c.sql;
      query_ids_.push_back(*qid);
    }
    ASSERT_NO_FATAL_FAILURE(Feed(*shared));
    for (size_t i = 0; i < cases.size(); ++i) {
      auto got = shared->TakeResults(query_ids_[i]);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_GT(got->size(), 2u) << cases[i].sql;
      const std::vector<std::string> got_s = testutil::EmissionStrings(*got);

      std::vector<std::string> want;
      ASSERT_NO_FATAL_FAILURE(RunSolo(cases[i], cases[i].mode, &want));
      EXPECT_EQ(got_s, want)
          << "query " << i << " diverges under sharing\nsql: " << cases[i].sql;
      if (cases[i].mode == ExecMode::kIncremental) {
        ASSERT_NO_FATAL_FAILURE(
            RunSolo(cases[i], ExecMode::kFullReeval, &want));
        EXPECT_EQ(got_s, want) << "query " << i
                               << " diverges from full re-evaluation\nsql: "
                               << cases[i].sql;
      }
    }
  }

  std::vector<int> query_ids_;
};

TEST_F(SharingDifferential, RangePrefixFamilyWithSubsumptionAndFallback) {
  std::vector<ShareCase> cases;
  // Same fragment prefix, four HAVING constants: one shared node, four tails.
  for (int i = 0; i < 4; ++i) {
    cases.push_back({StrFormat(
        "SELECT g, count(*), sum(v), avg(w) FROM s "
        "[RANGE 4 SECONDS SLIDE 1 SECONDS] "
        "GROUP BY g HAVING count(*) > %d ORDER BY g", i)});
  }
  // Coarser compatible geometry rides the same node (slide 2 on grid 1).
  cases.push_back({"SELECT g, count(*), sum(v), avg(w) FROM s "
                   "[RANGE 8 SECONDS SLIDE 2 SECONDS] "
                   "GROUP BY g HAVING count(*) > 1 ORDER BY g"});
  // Non-divisible window: must stay on the solo full-reevaluation fallback.
  cases.push_back({"SELECT g, count(*), sum(v), avg(w) FROM s "
                   "[RANGE 6 SECONDS SLIDE 4 SECONDS] "
                   "GROUP BY g HAVING count(*) > 1 ORDER BY g"});

  Engine shared(SharingOpts(true));
  RunMatrix(cases, &shared);

  const SharingStats ss = shared.GetSharingStats();
  EXPECT_TRUE(ss.enabled);
  ASSERT_EQ(ss.shared_nodes, 1u);
  EXPECT_EQ(ss.nodes[0].subscribers, 5);
  EXPECT_EQ(ss.prefix_hits, 4u);
  EXPECT_GT(ss.sharing_hits, 0u);
  // Six queries, two basket readers: the shared node plus the one fallback
  // factory — receptor fan-out is per shared node, not per query.
  EXPECT_EQ(shared.StreamStats("s")->readers, 2u);
  EXPECT_TRUE(shared.GetFactory(query_ids_.back())->Stats().fell_back_to_full);
  EXPECT_FALSE(
      shared.GetFactory(query_ids_.front())->Stats().fell_back_to_full);

  // The monitor-facing per-query sharing note names the node for members.
  int noted = 0;
  for (const ContinuousQueryInfo& q : shared.Queries()) {
    if (q.sharing.find("node") != std::string::npos) ++noted;
  }
  EXPECT_EQ(noted, 5);
}

TEST_F(SharingDifferential, RowsPrefixFamilyWithSubsumption) {
  std::vector<ShareCase> cases;
  for (int i = 0; i < 3; ++i) {
    cases.push_back({StrFormat(
        "SELECT g, count(*), sum(v) FROM s [ROWS 12 SLIDE 4] "
        "GROUP BY g HAVING count(*) > %d ORDER BY g", i)});
  }
  // ROWS subsumption: slide 8 rides the 4-row grid.
  cases.push_back({"SELECT g, count(*), sum(v) FROM s [ROWS 24 SLIDE 8] "
                   "GROUP BY g HAVING count(*) > 0 ORDER BY g"});

  Engine shared(SharingOpts(true));
  RunMatrix(cases, &shared);

  const SharingStats ss = shared.GetSharingStats();
  ASSERT_EQ(ss.shared_nodes, 1u);
  EXPECT_EQ(ss.nodes[0].subscribers, 4);
  EXPECT_EQ(ss.prefix_hits, 3u);
  EXPECT_EQ(shared.StreamStats("s")->readers, 1u);
}

TEST_F(SharingDifferential, StreamTablePrefixFamily) {
  std::vector<ShareCase> cases;
  // Same stream⋈table fragment prefix, three HAVING constants plus a
  // coarser compatible geometry: one node caching the joined partials.
  for (int i = 0; i < 3; ++i) {
    cases.push_back({StrFormat(
        "SELECT label, count(*), sum(v) FROM s "
        "[RANGE 4 SECONDS SLIDE 1 SECONDS] JOIN dim ON s.g = dim.dg "
        "GROUP BY label HAVING count(*) > %d ORDER BY label", i)});
  }
  cases.push_back({"SELECT label, count(*), sum(v) FROM s "
                   "[RANGE 6 SECONDS SLIDE 2 SECONDS] JOIN dim ON s.g = dim.dg "
                   "GROUP BY label HAVING sum(v) > 0 ORDER BY label"});

  Engine shared(SharingOpts(true));
  RunMatrix(cases, &shared);

  const SharingStats ss = shared.GetSharingStats();
  ASSERT_EQ(ss.shared_nodes, 1u);
  EXPECT_EQ(ss.nodes[0].subscribers, 4);
  EXPECT_EQ(ss.prefix_hits, 3u);
  EXPECT_GT(ss.nodes[0].sharing_hits, 0u);
  EXPECT_EQ(shared.StreamStats("s")->readers, 1u);
}

TEST_F(SharingDifferential, FactoryDedupForDuplicateTextsJoinsAndFullMode) {
  const char* kAgg =
      "SELECT count(*), sum(v) FROM s [RANGE 2 SECONDS SLIDE 2 SECONDS]";
  const char* kFull =
      "SELECT g, count(*) FROM s [RANGE 4 SECONDS SLIDE 2 SECONDS] "
      "GROUP BY g ORDER BY g";
  const char* kJoin =
      "SELECT count(*), sum(v), sum(y) FROM "
      "s [RANGE 4 SECONDS SLIDE 2 SECONDS] JOIN "
      "r [RANGE 4 SECONDS SLIDE 2 SECONDS] ON g = kr";
  const std::vector<ShareCase> cases = {
      {kAgg}, {kAgg},  // identical incremental window aggregates
      {kFull, ExecMode::kFullReeval},  // identical full-reeval queries
      {kFull, ExecMode::kFullReeval},
      {kJoin}, {kJoin},  // identical stream-stream delta joins
      // Same join text in the other mode: must NOT dedup across modes.
      {kJoin, ExecMode::kFullReeval},
  };

  Engine shared(SharingOpts(true));
  RunMatrix(cases, &shared);

  const SharingStats ss = shared.GetSharingStats();
  EXPECT_EQ(ss.full_hits, 3u);
  EXPECT_EQ(ss.shared_factories, 3u);
  int aliased = 0;
  for (const ContinuousQueryInfo& q : shared.Queries()) {
    if (q.shared_with > 1) {
      EXPECT_EQ(q.shared_with, 2);
      ++aliased;
    }
  }
  EXPECT_EQ(aliased, 6);
}

TEST_F(SharingDifferential, IncompatibleSlidesSplitNodes) {
  // Grid 2 s first; slide 3 s does not divide it, so the same prefix gets a
  // second node. Later queries join the first compatible node.
  const std::vector<ShareCase> cases = {
      {"SELECT g, count(*) FROM s [RANGE 4 SECONDS SLIDE 2 SECONDS] "
       "GROUP BY g ORDER BY g"},
      {"SELECT g, count(*) FROM s [RANGE 9 SECONDS SLIDE 3 SECONDS] "
       "GROUP BY g ORDER BY g"},
      {"SELECT g, count(*) FROM s [RANGE 12 SECONDS SLIDE 6 SECONDS] "
       "GROUP BY g ORDER BY g"},
      {"SELECT g, count(*) FROM s [RANGE 12 SECONDS SLIDE 3 SECONDS] "
       "GROUP BY g ORDER BY g"},
  };

  Engine shared(SharingOpts(true));
  RunMatrix(cases, &shared);

  const SharingStats ss = shared.GetSharingStats();
  ASSERT_EQ(ss.shared_nodes, 2u);
  EXPECT_EQ(ss.prefix_hits, 2u);
  EXPECT_EQ(shared.StreamStats("s")->readers, 2u);
  int subs = 0;
  for (const SharedNodeStats& n : ss.nodes) subs += n.subscribers;
  EXPECT_EQ(subs, 4);
}

// ---------------------------------------------------------------------------
// RecoveryDifferential: kill-and-recover mid-stream must be invisible in
// the output. The durability workload (tier-P shared-prefix pair, ROWS
// ordinal anchoring, empty-window scalar, stream-stream delta join) runs
// once uninterrupted and once killed at a checkpoint: emissions drained
// before the kill concatenated with emissions after recovery must equal
// the unkilled run BATCH FOR BATCH — same ordinals, same rows, including
// the n == 0 emissions the empty-window scalar produces. Swept over both
// execution modes and several kill fractions, with sharing on and off
// (unshared, every incremental window recovers on its own private node).
// ---------------------------------------------------------------------------

class RecoveryDifferential : public ::testing::TestWithParam<ExecMode> {
 protected:
  static constexpr int kTapeRows = 36;

  static EngineOptions Options(const std::string& dir, bool sharing) {
    EngineOptions o = testutil::DurableSyncOptions(
        dir, nullptr, storage::FsyncPolicy::kInterval);
    o.enable_sharing = sharing;
    return o;
  }

  std::vector<int> Submit(Engine& e) {
    std::vector<int> qids;
    for (const std::string& sql : testutil::WorkloadQueries()) {
      auto q = e.SubmitContinuous(sql, testutil::WithMode(GetParam()));
      EXPECT_TRUE(q.ok()) << q.status().ToString() << "\nsql: " << sql;
      qids.push_back(q.ok() ? *q : -1);
    }
    return qids;
  }

  void KillAtCheckpointThenRecover(bool sharing);
};

void RecoveryDifferential::KillAtCheckpointThenRecover(bool sharing) {
  const std::vector<testutil::WRow> rows = testutil::WorkloadRows(kTapeRows);

  // Unkilled oracle.
  std::vector<std::vector<std::string>> oracle;
  {
    const std::string odir = testutil::MakeTempDir("rdiff_oracle");
    Engine e(Options(odir, sharing));
    testutil::WorkloadDdl(e);
    const std::vector<int> qids = Submit(e);
    testutil::WorkloadFeed(e, rows, 0, 0, rows.size());
    testutil::WorkloadSeal(e);
    oracle = testutil::WorkloadTake(e, qids);
    testutil::RemoveDirRecursive(odir);
  }
  for (const auto& per_query : oracle) ASSERT_GT(per_query.size(), 3u);

  for (const size_t kill_at : {rows.size() / 3, rows.size() / 2,
                               3 * rows.size() / 4}) {
    SCOPED_TRACE("kill_at=" + std::to_string(kill_at));
    const std::string dir = testutil::MakeTempDir("rdiff");

    // Phase 1: feed to the kill point, drain what has been emitted so
    // far, checkpoint, and die (destructor = clean process exit; the
    // hard-kill spectrum is recovery_test's crash-point enumeration).
    std::vector<std::vector<std::string>> head;
    {
      Engine e(Options(dir, sharing));
      testutil::WorkloadDdl(e);
      const std::vector<int> qids = Submit(e);
      testutil::WorkloadFeed(e, rows, 0, 0, kill_at);
      head = testutil::WorkloadTake(e, qids);
      ASSERT_TRUE(e.Checkpoint().ok());
    }

    // Phase 2: recover, resume the tape from the replayed low marks,
    // seal, and drain the tail.
    Engine rec(Options(dir, sharing));
    ASSERT_TRUE(rec.recovery_status().ok())
        << rec.recovery_status().ToString();
    std::map<std::string, int> by_sql;
    for (const ContinuousQueryInfo& q : rec.Queries()) by_sql[q.sql] = q.id;
    std::vector<int> qids;
    for (const std::string& sql : testutil::WorkloadQueries()) {
      ASSERT_EQ(by_sql.count(sql), 1u) << "lost across restart: " << sql;
      qids.push_back(by_sql[sql]);
    }
    const uint64_t lo_s = rec.GetBasket("s")->HighSeq();
    const uint64_t lo_r = rec.GetBasket("r")->HighSeq();
    ASSERT_EQ(lo_s, kill_at);  // graceful exit synced the whole prefix
    ASSERT_EQ(lo_r, kill_at);
    testutil::WorkloadFeed(rec, rows, lo_s, lo_r, rows.size());
    testutil::WorkloadSeal(rec);
    const std::vector<std::vector<std::string>> tail =
        testutil::WorkloadTake(rec, qids);

    // head ++ tail == oracle, batch for batch: no lost, duplicated, or
    // reordered emission anywhere in the matrix.
    for (size_t q = 0; q < oracle.size(); ++q) {
      SCOPED_TRACE("query " + std::to_string(q));
      std::vector<std::string> stitched = head[q];
      stitched.insert(stitched.end(), tail[q].begin(), tail[q].end());
      EXPECT_EQ(stitched, oracle[q]);
    }
    testutil::RemoveDirRecursive(dir);
  }
}

TEST_P(RecoveryDifferential, KillAtCheckpointThenRecoverMatchesBatchForBatch) {
  KillAtCheckpointThenRecover(/*sharing=*/true);
}

TEST_P(RecoveryDifferential, UnsharedKillAtCheckpointThenRecover) {
  KillAtCheckpointThenRecover(/*sharing=*/false);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RecoveryDifferential,
    ::testing::Values(ExecMode::kIncremental, ExecMode::kFullReeval),
    [](const ::testing::TestParamInfo<ExecMode>& info) {
      return std::string(ExecModeName(info.param));
    });

}  // namespace
}  // namespace dc
