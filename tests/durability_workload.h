// Copyright 2026 The DataCell Authors.
//
// The shared durability workload: one deterministic row tape over two
// streams, five continuous queries spanning every recovery-relevant shape
// (tier-P shared-node pair, ROWS ordinal anchoring, empty-window scalar,
// stream-stream delta join), and feed/resume helpers whose per-stream low
// marks let a recovered engine continue exactly where WAL replay left its
// baskets. Used by recovery_test.cc (crash-point enumeration) and
// wal_fuzz_test.cc (torn-file fuzzing) against the same oracle protocol.

#ifndef DATACELL_TESTS_DURABILITY_WORKLOAD_H_
#define DATACELL_TESTS_DURABILITY_WORKLOAD_H_

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "storage/wal.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace dc {
namespace testutil {

struct WRow {
  int64_t ts_us;
  int64_t g;
  int64_t v;
  int64_t w16;  // w = w16 / 16.0, dyadic so replay round-trips exactly
};

inline std::vector<WRow> WorkloadRows(int n, uint64_t seed = 20260809) {
  Rng rng(seed);
  std::vector<WRow> rows;
  int64_t ts_sec = 0;
  for (int i = 0; i < n; ++i) {
    ts_sec += rng.UniformInt(0, 3) / 2;  // 0 or 1 s per row
    rows.push_back(WRow{ts_sec * kMicrosPerSecond, rng.UniformInt(0, 5),
                        rng.UniformInt(-50, 50), rng.UniformInt(0, 160)});
  }
  return rows;
}

inline EngineOptions DurableSyncOptions(const std::string& dir,
                                        storage::WalEnv* env,
                                        storage::FsyncPolicy fsync,
                                        int fsync_interval = 4) {
  EngineOptions o = SyncOptions();
  o.durability.dir = dir;
  o.durability.env = env;
  o.durability.fsync = fsync;
  o.durability.fsync_interval_batches = fsync_interval;
  return o;
}

inline void WorkloadDdl(Engine& e) {
  ASSERT_TRUE(
      e.Execute("CREATE STREAM s (ts timestamp, g int, v int, w double)")
          .ok());
  ASSERT_TRUE(e.Execute("CREATE STREAM r (rts timestamp, kr int, y int)").ok());
}

inline std::vector<std::string> WorkloadQueries() {
  return {
      // Tier-P pair: same fragment prefix, different HAVING tails — one
      // shared window node whose origin must survive recovery.
      "SELECT g, count(*), sum(v), avg(w) FROM s "
      "[RANGE 4 SECONDS SLIDE 2 SECONDS] "
      "GROUP BY g HAVING count(*) > 0 ORDER BY g",
      "SELECT g, count(*), sum(v), avg(w) FROM s "
      "[RANGE 4 SECONDS SLIDE 2 SECONDS] "
      "GROUP BY g HAVING count(*) > 1 ORDER BY g",
      // ROWS geometry: origins are ordinal row seqs, not timestamps.
      "SELECT g, count(*), sum(v) FROM s [ROWS 8 SLIDE 4] "
      "GROUP BY g ORDER BY g",
      // Narrow scalar window: guarantees empty (n == 0) emissions, whose
      // COUNT-0/NULL convention must survive a kill-and-recover.
      "SELECT count(*), sum(v), max(v) FROM s "
      "[RANGE 2 SECONDS SLIDE 2 SECONDS]",
      // Stream-stream delta join: its join hashes are rebuilt by replay.
      "SELECT count(*), sum(v), sum(y) FROM s "
      "[RANGE 4 SECONDS SLIDE 2 SECONDS] JOIN "
      "r [RANGE 4 SECONDS SLIDE 2 SECONDS] ON g = kr",
  };
}

inline std::vector<int> WorkloadSubmit(Engine& e) {
  std::vector<int> qids;
  for (const std::string& sql : WorkloadQueries()) {
    auto q = e.SubmitContinuous(sql, WithMode(ExecMode::kIncremental));
    EXPECT_TRUE(q.ok()) << q.status().ToString() << "\nsql: " << sql;
    qids.push_back(q.ok() ? *q : -1);
  }
  return qids;
}

/// Feeds tape rows [*, hi): stream s from row lo_s, stream r from lo_r.
/// A fresh run passes lo_s == lo_r == 0; a recovered run passes each
/// basket's replayed HighSeq so the tape continues without gap or dup.
/// Heartbeats re-fire on their original schedule (watermarks are
/// monotone, so re-sending an already-replayed heartbeat is a no-op).
inline void WorkloadFeed(Engine& e, const std::vector<WRow>& rows,
                         uint64_t lo_s, uint64_t lo_r, size_t hi) {
  const size_t lo = std::min(static_cast<size_t>(std::min(lo_s, lo_r)), hi);
  for (size_t i = lo; i < hi; ++i) {
    if (i >= lo_s) {
      ASSERT_TRUE(
          e.PushRow("s", {Value::Ts(rows[i].ts_us), Value::I64(rows[i].g),
                          Value::I64(rows[i].v),
                          Value::F64(static_cast<double>(rows[i].w16) / 16.0)})
              .ok());
    }
    if (i >= lo_r) {
      ASSERT_TRUE(e.PushRow("r", {Value::Ts(rows[i].ts_us),
                                  Value::I64(rows[i].v % 5),
                                  Value::I64(rows[i].w16)})
                      .ok());
    }
    if (i % 10 == 9) {
      ASSERT_TRUE(e.Heartbeat("s", rows[i].ts_us).ok());
      ASSERT_TRUE(e.Heartbeat("r", rows[i].ts_us).ok());
    }
    e.Pump();
  }
}

inline void WorkloadSeal(Engine& e) {
  ASSERT_TRUE(e.SealStream("s").ok());
  ASSERT_TRUE(e.SealStream("r").ok());
  e.Pump();
}

/// Drains every query's buffered emissions as comparable strings
/// (EmissionStrings keeps zero-row emissions as entries, so n == 0
/// ordinals participate in the suffix comparison).
inline std::vector<std::vector<std::string>> WorkloadTake(
    Engine& e, const std::vector<int>& qids) {
  std::vector<std::vector<std::string>> out;
  for (int q : qids) {
    auto r = e.TakeResults(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    out.push_back(r.ok() ? EmissionStrings(*r) : std::vector<std::string>{});
  }
  return out;
}

/// True iff `got` is a contiguous suffix of `want`.
inline ::testing::AssertionResult IsSuffixOf(
    const std::vector<std::string>& got, const std::vector<std::string>& want) {
  if (got.size() > want.size()) {
    return ::testing::AssertionFailure()
           << "recovered run emitted " << got.size() << " > oracle "
           << want.size();
  }
  const size_t skip = want.size() - got.size();
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[skip + i]) {
      return ::testing::AssertionFailure()
             << "emission " << i << " (oracle " << skip + i
             << ") diverges:\n got: " << got[i]
             << "\nwant: " << want[skip + i];
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace testutil
}  // namespace dc

#endif  // DATACELL_TESTS_DURABILITY_WORKLOAD_H_
