// Property-based suites (parameterized gtest sweeps).
//
// P1 — the paper's central invariant: FULL re-evaluation and INCREMENTAL
//      processing produce identical emissions, swept over query shapes ×
//      window kinds × (size, slide) combinations × data seeds — and, for
//      the stream⋈table join, while the table changes under the window.
// P2 — candidate-list algebra obeys set semantics against a reference
//      std::set implementation, over random universes.
// P3 — aggregate partial states: any partition of the input merges to the
//      same result as the whole, over random splits and types.

#include <gtest/gtest.h>

#include <set>

#include "bat/ops_aggregate.h"
#include "bat/ops_select.h"
#include "core/engine.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "util/string_util.h"

namespace dc {
namespace {

using testutil::EmissionStrings;

// --- P1: FULL == INCREMENTAL --------------------------------------------------

struct ModeCase {
  const char* label;
  const char* select;   // query text after FROM clause injection
  bool rows_window;
  int64_t size;         // rows, or seconds
  int64_t slide;
  uint64_t seed;
};

std::string CaseSql(const ModeCase& c) {
  const std::string window =
      c.rows_window
          ? StrFormat("[ROWS %lld SLIDE %lld]",
                      static_cast<long long>(c.size),
                      static_cast<long long>(c.slide))
          : StrFormat("[RANGE %lld SECONDS SLIDE %lld SECONDS]",
                      static_cast<long long>(c.size),
                      static_cast<long long>(c.slide));
  std::string sql = c.select;
  const size_t pos = sql.find("$W");
  EXPECT_NE(pos, std::string::npos);
  sql.replace(pos, 2, window);
  return sql;
}

/// Runs `c` in both modes side by side over one seeded feed and returns
/// each mode's emissions. With `dim_insert_every` > 0, a row is INSERTed
/// into the joined `dim` table after every that many stream rows — new
/// keys and duplicates of old ones, so the join result really changes.
struct ModeRun {
  std::vector<ColumnSet> full;
  std::vector<ColumnSet> inc;
  FactoryStats inc_stats;
};

void RunBothModes(const ModeCase& c, int dim_insert_every, ModeRun* out) {
  Engine engine(testutil::SyncOptions());
  ASSERT_TRUE(
      engine.Execute("CREATE STREAM s (ts timestamp, g int, v int, w double)")
          .ok());
  ASSERT_TRUE(engine
                  .Execute("CREATE TABLE dim (g int, label string);"
                           "INSERT INTO dim VALUES (0,'a'), (1,'b'), "
                           "(2,'c'), (3,'d')")
                  .ok());

  const std::string sql = CaseSql(c);
  auto full =
      engine.SubmitContinuous(sql, testutil::WithMode(ExecMode::kFullReeval));
  auto inc = engine.SubmitContinuous(
      sql, testutil::WithMode(ExecMode::kIncremental));
  ASSERT_TRUE(full.ok()) << full.status().ToString() << " sql: " << sql;
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  ASSERT_FALSE(engine.GetFactory(*inc)->Stats().fell_back_to_full);

  Rng rng(c.seed);
  const int rows = 400;
  int64_t ts_sec = 0;
  for (int i = 0; i < rows; ++i) {
    // Event time advances by 0..1 s per row (duplicates included).
    ts_sec += rng.UniformInt(0, 3) / 2;
    ASSERT_TRUE(engine
                    .PushRow("s", {Value::Ts(ts_sec * kMicrosPerSecond),
                                   Value::I64(rng.UniformInt(0, 5)),
                                   Value::I64(rng.UniformInt(-50, 50)),
                                   Value::F64(rng.UniformDouble(0, 10))})
                    .ok());
    if (dim_insert_every > 0 && i % dim_insert_every == dim_insert_every - 1) {
      ASSERT_TRUE(engine
                      .Execute(StrFormat("INSERT INTO dim VALUES (%d, 'n%d')",
                                         (i / dim_insert_every) % 6, i))
                      .ok());
    }
    engine.Pump();
  }
  ASSERT_TRUE(engine.SealStream("s").ok());
  engine.Pump();

  out->inc_stats = engine.GetFactory(*inc)->Stats();
  auto full_results = engine.TakeResults(*full);
  auto inc_results = engine.TakeResults(*inc);
  ASSERT_TRUE(full_results.ok() && inc_results.ok());
  out->full = *std::move(full_results);
  out->inc = *std::move(inc_results);
}

class FullVsIncremental : public ::testing::TestWithParam<ModeCase> {};

TEST_P(FullVsIncremental, EmissionsIdentical) {
  const ModeCase& c = GetParam();
  ModeRun run;
  ASSERT_NO_FATAL_FAILURE(RunBothModes(c, 0, &run));
  ASSERT_GT(run.full.size(), 0u) << CaseSql(c);
  EXPECT_EQ(EmissionStrings(run.full), EmissionStrings(run.inc)) << CaseSql(c);
}

constexpr const char* kScalarAgg =
    "SELECT count(*), sum(v), avg(w), min(v), max(v) FROM s $W";
constexpr const char* kGroupedAgg =
    "SELECT g, count(*), sum(v), avg(w) FROM s $W GROUP BY g ORDER BY g";
constexpr const char* kFilteredAgg =
    "SELECT g, sum(v) FROM s $W WHERE v > 0 AND w < 8.0 GROUP BY g "
    "ORDER BY g";
constexpr const char* kHavingLimit =
    "SELECT g, count(*) AS c FROM s $W GROUP BY g HAVING count(*) > 2 "
    "ORDER BY c DESC, g LIMIT 3";
constexpr const char* kProjection =
    "SELECT ts, v * 2, w FROM s $W WHERE v % 3 = 0 ORDER BY ts, v";
constexpr const char* kJoinTable =
    "SELECT label, sum(v), count(*) FROM s $W JOIN dim ON s.g = dim.g "
    "GROUP BY label ORDER BY label";

std::vector<ModeCase> MakeCases() {
  std::vector<ModeCase> cases;
  const std::pair<int64_t, int64_t> rows_windows[] = {
      {8, 8}, {8, 4}, {12, 3}, {20, 5}, {32, 4}};
  const std::pair<int64_t, int64_t> range_windows[] = {
      {4, 4}, {4, 2}, {8, 2}, {12, 3}};
  const char* queries[] = {kScalarAgg, kGroupedAgg, kFilteredAgg,
                           kHavingLimit, kProjection, kJoinTable};
  uint64_t seed = 1;
  for (const char* q : queries) {
    for (auto [size, slide] : rows_windows) {
      cases.push_back(ModeCase{"rows", q, true, size, slide, seed++});
    }
    for (auto [size, slide] : range_windows) {
      cases.push_back(ModeCase{"range", q, false, size, slide, seed++});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FullVsIncremental,
                         ::testing::ValuesIn(MakeCases()));

// The stream⋈table join while `dim` gets INSERTs: full re-evaluation joins
// each window with the table as of its fire, and incremental partials
// built against an older table version must be rebuilt to match.
class FullVsIncrementalTableChurn
    : public ::testing::TestWithParam<ModeCase> {};

TEST_P(FullVsIncrementalTableChurn, EmissionsIdentical) {
  const ModeCase& c = GetParam();
  ModeRun churn, calm;
  ASSERT_NO_FATAL_FAILURE(RunBothModes(c, 25, &churn));
  ASSERT_GT(churn.full.size(), 0u) << CaseSql(c);
  EXPECT_EQ(EmissionStrings(churn.full), EmissionStrings(churn.inc))
      << CaseSql(c);
  // The same feed with a static table: the INSERTs changed the output,
  // and (when a window spans several basic windows, so partials outlive
  // a table change) forced stale partials to be rebuilt.
  ASSERT_NO_FATAL_FAILURE(RunBothModes(c, 0, &calm));
  EXPECT_NE(EmissionStrings(churn.inc), EmissionStrings(calm.inc))
      << CaseSql(c);
  if (c.size > c.slide) {
    EXPECT_GT(churn.inc_stats.fragments_computed,
              calm.inc_stats.fragments_computed)
        << CaseSql(c);
  } else {
    EXPECT_EQ(churn.inc_stats.fragments_computed,
              calm.inc_stats.fragments_computed)
        << CaseSql(c);
  }
}

std::vector<ModeCase> JoinTableCases() {
  std::vector<ModeCase> cases;
  for (const ModeCase& c : MakeCases()) {
    if (c.select == kJoinTable) cases.push_back(c);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FullVsIncrementalTableChurn,
                         ::testing::ValuesIn(JoinTableCases()));

// --- P1b: stream-stream join equivalence (separate: needs two streams) ----

class DualStreamCase : public ::testing::TestWithParam<int> {};

TEST_P(DualStreamCase, JoinFullVsIncremental) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Engine engine(testutil::SyncOptions());
  ASSERT_TRUE(
      engine.Execute("CREATE STREAM a (ts timestamp, k int, x int)").ok());
  ASSERT_TRUE(
      engine.Execute("CREATE STREAM b (ts timestamp, k int, y int)").ok());
  const char* sql =
      "SELECT count(*), sum(x), sum(y) FROM "
      "a [RANGE 4 SECONDS SLIDE 2 SECONDS] JOIN "
      "b [RANGE 6 SECONDS SLIDE 2 SECONDS] ON a.k = b.k";
  auto full =
      engine.SubmitContinuous(sql, testutil::WithMode(ExecMode::kFullReeval));
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto inc = engine.SubmitContinuous(
      sql, testutil::WithMode(ExecMode::kIncremental));
  ASSERT_TRUE(inc.ok());

  Rng rng(seed);
  int64_t ta = 0, tb = 0;
  for (int i = 0; i < 300; ++i) {
    ta += rng.UniformInt(0, 2) / 2;
    tb += rng.UniformInt(0, 2) / 2;
    ASSERT_TRUE(engine
                    .PushRow("a", {Value::Ts(ta * kMicrosPerSecond),
                                   Value::I64(rng.UniformInt(0, 8)),
                                   Value::I64(rng.UniformInt(0, 100))})
                    .ok());
    ASSERT_TRUE(engine
                    .PushRow("b", {Value::Ts(tb * kMicrosPerSecond),
                                   Value::I64(rng.UniformInt(0, 8)),
                                   Value::I64(rng.UniformInt(0, 100))})
                    .ok());
    engine.Pump();
  }
  ASSERT_TRUE(engine.SealStream("a").ok());
  ASSERT_TRUE(engine.SealStream("b").ok());
  engine.Pump();

  auto fr = engine.TakeResults(*full);
  auto ir = engine.TakeResults(*inc);
  ASSERT_TRUE(fr.ok() && ir.ok());
  ASSERT_GT(fr->size(), 0u);
  EXPECT_EQ(EmissionStrings(*fr), EmissionStrings(*ir));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualStreamCase, ::testing::Range(1, 6));

// --- P2: candidate algebra vs std::set reference ---------------------------

class CandidateAlgebra : public ::testing::TestWithParam<int> {};

TEST_P(CandidateAlgebra, MatchesReferenceSets) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 977);
  const uint64_t domain = 200;
  auto random_set = [&] {
    std::set<Oid> s;
    const int n = static_cast<int>(rng.UniformInt(0, 60));
    for (int i = 0; i < n; ++i) {
      s.insert(static_cast<Oid>(rng.UniformInt(0, domain - 1)));
    }
    return s;
  };
  auto to_cand = [](const std::set<Oid>& s) {
    return Candidates::FromVector(std::vector<Oid>(s.begin(), s.end()));
  };
  auto to_vec = [](const std::set<Oid>& s) {
    return std::vector<Oid>(s.begin(), s.end());
  };
  for (int round = 0; round < 20; ++round) {
    const std::set<Oid> sa = random_set();
    const std::set<Oid> sb = random_set();
    const Candidates a = to_cand(sa);
    const Candidates b = to_cand(sb);
    std::set<Oid> ref_and, ref_or, ref_diff;
    std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                          std::inserter(ref_and, ref_and.begin()));
    std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                   std::inserter(ref_or, ref_or.begin()));
    std::set_difference(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::inserter(ref_diff, ref_diff.begin()));
    EXPECT_EQ(Candidates::Intersect(a, b).ToVector(), to_vec(ref_and));
    EXPECT_EQ(Candidates::Union(a, b).ToVector(), to_vec(ref_or));
    EXPECT_EQ(Candidates::Difference(a, b).ToVector(), to_vec(ref_diff));
    // Membership agrees everywhere.
    for (Oid o = 0; o < domain; o += 7) {
      EXPECT_EQ(a.Contains(o), sa.count(o) > 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandidateAlgebra, ::testing::Range(1, 9));

// --- P3: partial-state merges over random partitions ------------------------

class AggMergePartition : public ::testing::TestWithParam<int> {};

TEST_P(AggMergePartition, AnyPartitionMergesToWhole) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 131);
  const uint64_t n = 200 + rng.Next() % 200;
  std::vector<double> data(n);
  for (auto& x : data) x = rng.UniformDouble(-100, 100);
  auto whole_col = Bat::MakeF64(data);

  ops::AggState whole;
  whole.AddColumn(*whole_col, nullptr);

  // Random partition into 1..10 contiguous chunks.
  ops::AggState merged;
  uint64_t pos = 0;
  while (pos < n) {
    const uint64_t len =
        std::min<uint64_t>(n - pos, 1 + rng.Next() % (n / 3 + 1));
    auto chunk = whole_col->Slice(pos, pos + len);
    ops::AggState part;
    part.AddColumn(*chunk, nullptr);
    merged.Merge(part);
    pos += len;
  }
  for (ops::AggKind k :
       {ops::AggKind::kCount, ops::AggKind::kSum, ops::AggKind::kMin,
        ops::AggKind::kMax}) {
    EXPECT_EQ(merged.Finalize(k, TypeId::kF64).ToString(),
              whole.Finalize(k, TypeId::kF64).ToString());
  }
  // AVG within floating-point tolerance (associativity of the division).
  EXPECT_NEAR(merged.Finalize(ops::AggKind::kAvg, TypeId::kF64).AsF64(),
              whole.Finalize(ops::AggKind::kAvg, TypeId::kF64).AsF64(),
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggMergePartition, ::testing::Range(1, 13));

}  // namespace
}  // namespace dc
