// Copyright 2026 The DataCell Authors.
//
// Durability proof (docs/DURABILITY.md): kill-and-recover at EVERY
// filesystem operation the durability layer performs — mid-WAL-record,
// between an append and its fsync, mid-snapshot-rename, after a snapshot
// lands but before the WALs truncate — then recover on the real files,
// resume the deterministic row tape, and compare every query's emission
// sequence against an uninterrupted oracle:
//
//   recovered emissions  ==  a contiguous SUFFIX of the oracle's, and
//   |oracle| - |recovered|  <=  emissions already delivered at the last
//                               checkpoint that STARTED before the trip
//                               (0 when no checkpoint had started).
//
// The suffix half proves no divergence and no duplication; the bound half
// proves nothing is lost beyond what a checkpoint had durably handed to
// sinks before the crash. Storage-level unit tests (framing, torn-tail
// scans, snapshot prev-fallback), an fsync-policy sweep, and a threaded
// background-checkpointer round-trip ride along.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "tests/crash_util.h"
#include "tests/durability_workload.h"
#include "tests/test_util.h"
#include "util/string_util.h"

// Full crash-point enumeration is cheap in a normal build but 10-20x
// slower under sanitizers; stride the kill points there (coverage still
// spans the whole op range, offset per style so the two styles interleave).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define DC_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define DC_SANITIZED_BUILD 1
#endif
#endif

namespace dc {
namespace {

using storage::FsyncPolicy;
using testutil::CrashEnv;
using testutil::DurableSyncOptions;
using testutil::IsSuffixOf;
using testutil::MakeTempDir;
using testutil::RemoveDirRecursive;
using testutil::WorkloadDdl;
using testutil::WorkloadFeed;
using testutil::WorkloadQueries;
using testutil::WorkloadRows;
using testutil::WorkloadSeal;
using testutil::WorkloadSubmit;
using testutil::WorkloadTake;
using testutil::WRow;

// --------------------------------------------------------------------------
// Storage-level unit coverage.
// --------------------------------------------------------------------------

TEST(WalCodec, RecordsRoundTripThroughWriterAndScan) {
  const std::string dir = MakeTempDir("walcodec");
  const std::string path = dir + "/t.wal";

  storage::WalReset reset;
  reset.start_seq = 17;
  reset.next_ordinal = 5;
  reset.watermark = 123456;
  reset.sealed = true;
  storage::WalSubmit sub;
  sub.token = 42;
  sub.sql = "SELECT count(*) FROM s [ROWS 4 SLIDE 4]";
  sub.mode = 1;
  sub.name = "q";
  sub.origins = {7, 9};
  sub.batch_cursor = 3;
  sub.node_label = "s#1";
  sub.node_origin = 7;

  {
    auto w = storage::WalWriter::Open(storage::WalEnv::Default(), path,
                                      FsyncPolicy::kAlways, 1,
                                      storage::WalCounters{});
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ASSERT_TRUE((*w)->Append(storage::EncodeReset(reset)).ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeBatch(5, 17, 0, {})).ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeHeartbeat(-7)).ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeSeal()).ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeStatement("CREATE TABLE t (x int)"))
                    .ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeSubmit(sub)).ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeRemove(42)).ok());
  }

  auto scan = storage::ReadWalFile(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->clean_tail);
  ASSERT_EQ(scan->records.size(), 7u);

  auto r0 = storage::DecodeReset(scan->records[0]);
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(r0->start_seq, 17u);
  EXPECT_EQ(r0->next_ordinal, 5u);
  EXPECT_EQ(r0->watermark, 123456);
  EXPECT_TRUE(r0->sealed);

  auto r1 = storage::DecodeBatch(scan->records[1]);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->ordinal, 5u);
  EXPECT_EQ(r1->begin_seq, 17u);
  EXPECT_EQ(r1->rows, 0u);

  auto r2 = storage::DecodeHeartbeat(scan->records[2]);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, -7);
  EXPECT_EQ(scan->records[3].type, storage::WalRecordType::kSeal);

  auto r4 = storage::DecodeStatement(scan->records[4]);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(*r4, "CREATE TABLE t (x int)");

  auto r5 = storage::DecodeSubmit(scan->records[5]);
  ASSERT_TRUE(r5.ok());
  EXPECT_EQ(r5->token, 42u);
  EXPECT_EQ(r5->sql, sub.sql);
  EXPECT_EQ(r5->mode, 1);
  EXPECT_EQ(r5->name, "q");
  EXPECT_EQ(r5->origins, sub.origins);
  EXPECT_EQ(r5->batch_cursor, 3u);
  EXPECT_EQ(r5->node_label, "s#1");
  EXPECT_EQ(r5->node_origin, 7u);

  auto r6 = storage::DecodeRemove(scan->records[6]);
  ASSERT_TRUE(r6.ok());
  EXPECT_EQ(*r6, 42u);

  RemoveDirRecursive(dir);
}

TEST(WalCodec, TornAndGarbageTailsScanToTheValidPrefix) {
  const std::string dir = MakeTempDir("waltorn");
  const std::string path = dir + "/t.wal";
  {
    auto w = storage::WalWriter::Open(storage::WalEnv::Default(), path,
                                      FsyncPolicy::kAlways, 1,
                                      storage::WalCounters{});
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*w)->Append(storage::EncodeHeartbeat(i)).ok());
    }
  }
  auto full = storage::ReadWalFile(path);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->records.size(), 4u);
  ASSERT_TRUE(full->clean_tail);

  // Garbage appended past the last record: same records, dirty tail.
  {
    FILE* f = fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    fwrite("\x03\x00\x00", 1, 3, f);
    fclose(f);
  }
  auto dirty = storage::ReadWalFile(path);
  ASSERT_TRUE(dirty.ok());
  EXPECT_EQ(dirty->records.size(), 4u);
  EXPECT_FALSE(dirty->clean_tail);
  EXPECT_EQ(dirty->valid_bytes, full->valid_bytes);

  // Truncation mid-record: one fewer record, dirty tail.
  ASSERT_TRUE(storage::WalEnv::Default()
                  ->TruncateFile(path, full->valid_bytes - 3)
                  .ok());
  auto torn = storage::ReadWalFile(path);
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(torn->records.size(), 3u);
  EXPECT_FALSE(torn->clean_tail);

  // Re-opening a writer truncates to the valid prefix and appends cleanly.
  {
    auto w = storage::WalWriter::Open(storage::WalEnv::Default(), path,
                                      FsyncPolicy::kAlways, 1,
                                      storage::WalCounters{});
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeHeartbeat(99)).ok());
  }
  auto fixed = storage::ReadWalFile(path);
  ASSERT_TRUE(fixed.ok());
  ASSERT_EQ(fixed->records.size(), 4u);
  EXPECT_TRUE(fixed->clean_tail);
  auto hb = storage::DecodeHeartbeat(fixed->records[3]);
  ASSERT_TRUE(hb.ok());
  EXPECT_EQ(*hb, 99);

  RemoveDirRecursive(dir);
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// FNV-1a 64 — a dependency-free digest for golden byte images.
uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Asserts two columns hold the same cells: type, length, NULLs, and
/// every value bit for bit (so NaN and -0.0 count).
void ExpectSameCells(const Bat& want, const Bat& got, size_t col) {
  ASSERT_EQ(want.type(), got.type()) << "column " << col;
  ASSERT_EQ(want.size(), got.size()) << "column " << col;
  for (uint64_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(StrFormat("column %zu row %llu", col,
                           static_cast<unsigned long long>(i)));
    ASSERT_EQ(want.IsNull(i), got.IsNull(i));
    if (want.IsNull(i)) continue;
    switch (want.type()) {
      case TypeId::kBool:
        EXPECT_EQ(want.BoolData()[i], got.BoolData()[i]);
        break;
      case TypeId::kI64:
      case TypeId::kTs:
        EXPECT_EQ(want.I64Data()[i], got.I64Data()[i]);
        break;
      case TypeId::kF64:
        EXPECT_EQ(std::memcmp(&want.F64Data()[i], &got.F64Data()[i],
                              sizeof(double)),
                  0);
        break;
      case TypeId::kStr:
        EXPECT_EQ(want.StrAt(i), got.StrAt(i));
        break;
    }
  }
}

/// A 5-row batch over all five types: INT64_MIN/MAX, NaN, -0.0, -inf,
/// empty and repeated strings, bools, and NULL-flagged i64/str columns.
std::vector<BatPtr> GoldenColumns() {
  std::vector<BatPtr> cols;
  cols.push_back(Bat::MakeI64({INT64_MIN, -1, 0, 1, INT64_MAX}));
  cols.push_back(Bat::MakeTs({0, 1000, 1000, 2000000, INT64_MAX}));
  cols.push_back(Bat::MakeF64({std::numeric_limits<double>::quiet_NaN(), -0.0,
                               0.0, 1.5,
                               -std::numeric_limits<double>::infinity()}));
  cols.push_back(Bat::MakeStr({"", "a", "a", "hello world", ""}));
  cols.push_back(Bat::MakeBool({1, 0, 1, 1, 0}));
  BatPtr ints = Bat::MakeEmpty(TypeId::kI64);
  ints->AppendI64(7);
  ints->AppendNull();
  ints->AppendI64(-3);
  ints->AppendNull();
  ints->AppendI64(9);
  cols.push_back(ints);
  BatPtr strs = Bat::MakeEmpty(TypeId::kStr);
  strs->AppendNull();
  strs->AppendStr("x");
  strs->AppendStr("");
  strs->AppendNull();
  strs->AppendStr("x");
  cols.push_back(strs);
  return cols;
}

// The on-disk format is frozen: these digests were computed from logs and
// snapshots written by the byte-at-a-time codec the bulk codec replaced.
TEST(WalCodec, GoldenBytesAreUnchangedAndRoundTrip) {
  const std::string dir = MakeTempDir("walgolden");
  const std::string path = dir + "/g.wal";
  const std::vector<BatPtr> cols = GoldenColumns();
  const std::vector<BatPtr> empty = {
      Bat::MakeEmpty(TypeId::kBool), Bat::MakeEmpty(TypeId::kI64),
      Bat::MakeEmpty(TypeId::kF64), Bat::MakeEmpty(TypeId::kStr),
      Bat::MakeEmpty(TypeId::kTs)};
  storage::WalReset reset;
  reset.start_seq = 100;
  reset.next_ordinal = 3;
  reset.watermark = -5;
  storage::WalSubmit sub;
  sub.token = 42;
  sub.sql = "SELECT count(*) FROM s [ROWS 4 SLIDE 4]";
  sub.mode = 1;
  sub.name = "q";
  sub.origins = {7, 9};
  sub.batch_cursor = 3;
  sub.node_label = "s#1";
  sub.node_origin = 7;

  std::vector<storage::WalFrame> frames;
  frames.push_back(storage::EncodeReset(reset));
  frames.push_back(storage::EncodeBatch(3, 100, 5, cols));
  frames.push_back(storage::EncodeBatch(4, 105, 0, empty));
  frames.push_back(storage::EncodeHeartbeat(-7));
  frames.push_back(storage::EncodeSeal());
  frames.push_back(storage::EncodeStatement("CREATE TABLE t (x int)"));
  frames.push_back(storage::EncodeSubmit(sub));
  frames.push_back(storage::EncodeRemove(42));

  std::string expected(storage::kWalMagic, sizeof(storage::kWalMagic));
  {
    auto w = storage::WalWriter::Open(storage::WalEnv::Default(), path,
                                      FsyncPolicy::kNever, 1,
                                      storage::WalCounters{});
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    for (storage::WalFrame& f : frames) {
      storage::WalFrame copy = f;
      expected.append(copy.Seal());
      ASSERT_TRUE((*w)->Append(std::move(f)).ok());
    }
  }
  const std::string file = FileBytes(path);
  EXPECT_EQ(file, expected);
  EXPECT_EQ(file.size(), 653u);
  EXPECT_EQ(Fnv1a(file), 0x784fa0dd1f06d906ull);

  auto scan = storage::ReadWalFile(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->clean_tail);
  ASSERT_EQ(scan->records.size(), frames.size());
  auto full = storage::DecodeBatch(scan->records[1]);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->ordinal, 3u);
  EXPECT_EQ(full->begin_seq, 100u);
  EXPECT_EQ(full->rows, 5u);
  ASSERT_EQ(full->cols.size(), cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    ExpectSameCells(*cols[c], *full->cols[c], c);
  }
  auto none = storage::DecodeBatch(scan->records[2]);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->rows, 0u);
  ASSERT_EQ(none->cols.size(), empty.size());
  for (size_t c = 0; c < empty.size(); ++c) {
    ExpectSameCells(*empty[c], *none->cols[c], c);
  }

  storage::SnapshotData snap;
  snap.checkpoint_id = 9;
  snap.baskets.push_back({"s", 20});
  snap.baskets.push_back({"r", 0});
  snap.queries.push_back(
      {7, storage::FactoryProgress{{20, 3}, true, -5, 3, 11}});
  snap.queries.push_back({8, storage::FactoryProgress{{}, false, 0, 0, 0}});
  snap.nodes.push_back({"s#1", 20});
  ASSERT_TRUE(
      storage::WriteSnapshot(storage::WalEnv::Default(), dir, snap).ok());
  const std::string snap_file = FileBytes(storage::SnapshotPath(dir));
  EXPECT_EQ(snap_file.size(), 218u);
  EXPECT_EQ(Fnv1a(snap_file), 0x8cfbff2cc93badd8ull);
  auto loaded = storage::LoadSnapshot(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->checkpoint_id, 9u);
  ASSERT_EQ(loaded->queries.size(), 2u);
  EXPECT_EQ(loaded->queries[0].progress.origins,
            (std::vector<uint64_t>{20, 3}));
  EXPECT_EQ(loaded->queries[0].progress.next_emission, -5);

  RemoveDirRecursive(dir);
}

uint32_t BitwiseCrc32(const unsigned char* p, size_t n) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1)));
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(WalCodec, Crc32MatchesTheBitwiseReference) {
  EXPECT_EQ(storage::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(storage::Crc32(nullptr, 0), 0u);
  std::vector<unsigned char> buf(257 + 16);
  uint32_t x = 12345;
  for (unsigned char& b : buf) {
    x = x * 1103515245u + 12345u;
    b = static_cast<unsigned char>(x >> 16);
  }
  for (size_t align = 0; align < 16; ++align) {
    for (size_t n = 0; n <= 257; ++n) {
      ASSERT_EQ(storage::Crc32(buf.data() + align, n),
                BitwiseCrc32(buf.data() + align, n))
          << "length " << n << " at offset " << align;
    }
  }
}

long PeakRssKb() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// A kBatch body holding one column header {type, n, nulls} and no
/// values: 28 header bytes + 10 column bytes.
storage::WalRecord LyingBatch(TypeId type, uint64_t rows, bool nulls) {
  std::string body;
  auto put = [&body](const void* p, size_t n) {
    body.append(static_cast<const char*>(p), n);
  };
  const uint64_t header[3] = {0, 0, rows};
  const uint32_t ncols = 1;
  const uint8_t col[2] = {static_cast<uint8_t>(type),
                          static_cast<uint8_t>(nulls ? 1 : 0)};
  put(header, sizeof(header));
  put(&ncols, sizeof(ncols));
  put(&col[0], 1);
  put(&rows, sizeof(rows));
  put(&col[1], 1);
  return {storage::WalRecordType::kBatch, body};
}

// A checksum-valid record may still declare more rows than it carries.
// The decoder must refuse such a length before allocating for it: at
// 2^25 i64 rows, growing the column first would take 256 MB or more.
TEST(WalCodec, ImpossibleRowCountIsRefusedBeforeAllocating) {
  constexpr uint64_t kRows = uint64_t{1} << 25;
  const long before_kb = PeakRssKb();
  for (TypeId type : {TypeId::kI64, TypeId::kTs, TypeId::kF64,
                      TypeId::kBool, TypeId::kStr}) {
    for (bool nulls : {false, true}) {
      const storage::WalRecord rec = LyingBatch(type, kRows, nulls);
      ASSERT_EQ(rec.body.size(), 38u);
      auto decoded = storage::DecodeBatch(rec);
      ASSERT_FALSE(decoded.ok()) << TypeName(type);
      EXPECT_TRUE(decoded.status().IsParseError())
          << decoded.status().ToString();
    }
  }
  // The peak may not move by more than allocator noise.
  EXPECT_LT(PeakRssKb() - before_kb, 32 * 1024)
      << "decoding a lying length allocated for it";
}

// Checksums only catch torn writes; a body that passes them may still be
// malformed. Every truncation and single-byte corruption of a batch body
// must decode to consistent columns or be refused, never read past the
// record (the sanitizer builds check the bounds).
TEST(WalCodec, MalformedBatchBodiesDecodeConsistentlyOrAreRefused) {
  const storage::WalFrame frame =
      storage::EncodeBatch(3, 100, 5, GoldenColumns());
  const std::string body(frame.payload().substr(1));
  auto check = [](const std::string& b) {
    auto decoded = storage::DecodeBatch({storage::WalRecordType::kBatch, b});
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsParseError())
          << decoded.status().ToString();
      return;
    }
    for (const BatPtr& c : decoded->cols) EXPECT_EQ(c->size(), decoded->rows);
  };
  for (size_t len = 0; len < body.size(); ++len) check(body.substr(0, len));
  for (size_t i = 0; i < body.size(); ++i) {
    for (const uint8_t v : {0x00, 0x01, 0x7F, 0xFF}) {
      std::string b = body;
      b[i] = static_cast<char>(v);
      check(b);
    }
  }
}

TEST(SnapshotFiles, AtomicRotationWithPrevFallback) {
  const std::string dir = MakeTempDir("snap");
  ASSERT_TRUE(storage::LoadSnapshot(dir).status().IsNotFound());

  storage::SnapshotData one;
  one.checkpoint_id = 1;
  one.baskets.push_back({"s", 10});
  storage::SnapshotData two;
  two.checkpoint_id = 2;
  two.baskets.push_back({"s", 20});
  two.queries.push_back({7, storage::FactoryProgress{{20}, true, 5, 3, 11}});
  two.nodes.push_back({"s#1", 20});

  ASSERT_TRUE(
      storage::WriteSnapshot(storage::WalEnv::Default(), dir, one).ok());
  ASSERT_TRUE(
      storage::WriteSnapshot(storage::WalEnv::Default(), dir, two).ok());

  auto loaded = storage::LoadSnapshot(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->checkpoint_id, 2u);
  ASSERT_EQ(loaded->queries.size(), 1u);
  EXPECT_EQ(loaded->queries[0].token, 7u);
  EXPECT_EQ(loaded->queries[0].progress.origins, std::vector<uint64_t>{20});
  EXPECT_TRUE(loaded->queries[0].progress.has_next_emission);
  EXPECT_EQ(loaded->queries[0].progress.emissions, 11u);
  ASSERT_EQ(loaded->nodes.size(), 1u);
  EXPECT_EQ(loaded->nodes[0].label, "s#1");

  // Corrupt the current snapshot: the previous one must serve.
  {
    FILE* f = fopen(storage::SnapshotPath(dir).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, 12, SEEK_SET);
    fputc(0x5a, f);
    fclose(f);
  }
  auto fallback = storage::LoadSnapshot(dir);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback->checkpoint_id, 1u);

  // Both corrupt: refuse (the WAL tail alone cannot be trusted once a
  // checkpoint may have truncated it).
  {
    FILE* f = fopen(storage::SnapshotPrevPath(dir).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, 12, SEEK_SET);
    fputc(0x5a, f);
    fclose(f);
  }
  EXPECT_FALSE(storage::LoadSnapshot(dir).ok());
  EXPECT_FALSE(storage::LoadSnapshot(dir).status().IsNotFound());

  RemoveDirRecursive(dir);
}

// --------------------------------------------------------------------------
// Engine-level recovery harness.
// --------------------------------------------------------------------------

struct ScriptMarks {
  std::vector<int64_t> ops;                   // env op count at ckpt start
  std::vector<std::vector<uint64_t>> counts;  // per-query emissions there
};

/// DDL + submits + segmented feed with a Checkpoint between segments.
/// No seal — the tape is resumable. Checkpoint failures are tolerated
/// only once the env has tripped (a dead env can surface a short read).
std::vector<int> RunScript(Engine& e, const std::vector<WRow>& rows,
                           const std::vector<size_t>& ckpts, CrashEnv* env,
                           ScriptMarks* marks) {
  WorkloadDdl(e);
  std::vector<int> qids = WorkloadSubmit(e);
  size_t lo = 0;
  for (size_t c : ckpts) {
    WorkloadFeed(e, rows, lo, lo, c);
    lo = c;
    if (marks != nullptr) {
      marks->ops.push_back(env != nullptr ? env->OpCount() : 0);
      std::vector<uint64_t> cnt;
      for (int q : qids) cnt.push_back(e.GetFactory(q)->Stats().emissions);
      marks->counts.push_back(cnt);
    }
    const Status cs = e.Checkpoint();
    if (env == nullptr || !env->tripped()) {
      EXPECT_TRUE(cs.ok()) << cs.ToString();
    }
  }
  WorkloadFeed(e, rows, lo, lo, rows.size());
  return qids;
}

/// Recovers from `dir` on the real filesystem, re-creates whatever part
/// of the catalog the crash predated (a lost CREATE/submit implies the
/// trip came before any data op — the catalog log is fsync-always and
/// strictly precedes feeding — which the HighSeq assertions verify),
/// resumes the tape from each basket's replayed HighSeq, seals, and
/// returns per-query emissions in workload order.
void RecoverAndResume(const std::string& dir, FsyncPolicy fsync,
                      const std::vector<WRow>& rows,
                      std::vector<std::vector<std::string>>* out) {
  Engine rec(DurableSyncOptions(dir, nullptr, fsync));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();

  bool rebuilt_catalog = false;
  if (!rec.StreamStats("s").ok()) {
    rebuilt_catalog = true;
    ASSERT_TRUE(
        rec.Execute("CREATE STREAM s (ts timestamp, g int, v int, w double)")
            .ok());
  }
  if (!rec.StreamStats("r").ok()) {
    rebuilt_catalog = true;
    ASSERT_TRUE(
        rec.Execute("CREATE STREAM r (rts timestamp, kr int, y int)").ok());
  }

  std::map<std::string, int> by_sql;
  for (const ContinuousQueryInfo& q : rec.Queries()) by_sql[q.sql] = q.id;
  std::vector<int> qids;
  for (const std::string& sql : WorkloadQueries()) {
    if (auto it = by_sql.find(sql); it != by_sql.end()) {
      qids.push_back(it->second);
      continue;
    }
    rebuilt_catalog = true;
    auto q = rec.SubmitContinuous(sql,
                                  testutil::WithMode(ExecMode::kIncremental));
    ASSERT_TRUE(q.ok()) << q.status().ToString() << "\nsql: " << sql;
    qids.push_back(*q);
  }
  if (rebuilt_catalog) {
    // Catalog loss can only mean the crash predated every data append.
    ASSERT_EQ(rec.GetBasket("s")->HighSeq(), 0u);
    ASSERT_EQ(rec.GetBasket("r")->HighSeq(), 0u);
  }

  const uint64_t lo_s = rec.GetBasket("s")->HighSeq();
  const uint64_t lo_r = rec.GetBasket("r")->HighSeq();
  ASSERT_LE(lo_s, rows.size());
  ASSERT_LE(lo_r, rows.size());
  WorkloadFeed(rec, rows, lo_s, lo_r, rows.size());
  WorkloadSeal(rec);
  *out = WorkloadTake(rec, qids);
}

/// Index of the last checkpoint whose first op precedes trip `k`
/// (its emission count upper-bounds what recovery may not re-emit).
int64_t LastStartedCheckpoint(const ScriptMarks& marks, int64_t k) {
  int64_t j = -1;
  for (size_t i = 0; i < marks.ops.size(); ++i) {
    if (marks.ops[i] <= k) j = static_cast<int64_t>(i);
  }
  return j;
}

void AssertRecoveredAgainstOracle(
    const std::vector<std::vector<std::string>>& got,
    const std::vector<std::vector<std::string>>& oracle,
    const ScriptMarks& marks, int64_t k) {
  ASSERT_EQ(got.size(), oracle.size());
  const int64_t j = LastStartedCheckpoint(marks, k);
  for (size_t q = 0; q < oracle.size(); ++q) {
    ASSERT_TRUE(IsSuffixOf(got[q], oracle[q])) << "query " << q;
    const size_t missing = oracle[q].size() - got[q].size();
    const uint64_t bound = j >= 0 ? marks.counts[j][q] : 0;
    EXPECT_LE(missing, bound)
        << "query " << q << ": recovery lost emissions a checkpoint never "
        << "covered (trip op " << k << ", last started checkpoint " << j
        << ")";
  }
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeTempDir("recovery"); }
  void TearDown() override { testutil::RemoveDirRecursive(dir_); }

  /// Uninterrupted durable run: the oracle emissions and per-checkpoint
  /// emission counts every crash run is judged against.
  void RunOracle(const std::vector<WRow>& rows,
                 const std::vector<size_t>& ckpts, FsyncPolicy fsync,
                 std::vector<std::vector<std::string>>* emissions,
                 ScriptMarks* marks) {
    const std::string odir = MakeTempDir("oracle");
    {
      Engine e(DurableSyncOptions(odir, nullptr, fsync));
      ASSERT_TRUE(e.recovery_status().ok());
      std::vector<int> qids = RunScript(e, rows, ckpts, nullptr, marks);
      WorkloadSeal(e);
      *emissions = WorkloadTake(e, qids);
    }
    RemoveDirRecursive(odir);
    for (const auto& per_query : *emissions) {
      ASSERT_GT(per_query.size(), 3u) << "oracle produced a trivial tape";
    }
  }

  std::string dir_;
};

TEST_F(RecoveryTest, ColdStartOnEmptyDirIsANoOp) {
  Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
  EXPECT_TRUE(e.recovery_status().ok());
  EXPECT_EQ(e.metrics().GetCounter("recovery.runs")->Value(), 0u);
  WorkloadDdl(e);
  EXPECT_GT(e.metrics().GetCounter("wal.records")->Value(), 0u);
}

// Graceful shutdown + no checkpoint: the destructor syncs every log, so
// a restart replays the WHOLE history and re-emits every emission — the
// recovered engine's output equals the oracle exactly, with no resume
// feed at all (the seal was logged too).
TEST_F(RecoveryTest, GracefulRestartReplaysTheFullTape) {
  const std::vector<WRow> rows = WorkloadRows(36);
  std::vector<std::vector<std::string>> oracle;
  std::vector<int> qids;
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kNever));
    qids = RunScript(e, rows, {}, nullptr, nullptr);
    WorkloadSeal(e);
    oracle = WorkloadTake(e, qids);
  }
  Engine rec(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kNever));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();
  EXPECT_EQ(rec.metrics().GetCounter("recovery.runs")->Value(), 1u);
  EXPECT_GT(rec.metrics().GetCounter("recovery.replayed_rows")->Value(), 0u);
  // Replay happens in the constructor; emissions are already buffered.
  EXPECT_EQ(WorkloadTake(rec, qids), oracle);
  // The shared-window nodes came back under their original deterministic
  // labels: one per distinct window on s, with the tier-P pair (HAVING
  // twins) still co-subscribed to s#1.
  const SharingStats ss = rec.GetSharingStats();
  ASSERT_EQ(ss.shared_nodes, 3u);
  bool found_pair = false;
  for (const auto& n : ss.nodes) {
    if (n.label == "s#1") {
      EXPECT_EQ(n.subscribers, 2);
      found_pair = true;
    }
  }
  EXPECT_TRUE(found_pair) << "tier-P node s#1 did not survive recovery";
}

// Checkpoint then graceful restart: recovery restores the checkpoint's
// progress cursors, so the replay re-emits EXACTLY the post-checkpoint
// tail — equality, not just a bound.
TEST_F(RecoveryTest, CheckpointCutsReplayExactlyAtItsEmissionCounts) {
  const std::vector<WRow> rows = WorkloadRows(36);
  ScriptMarks marks;
  std::vector<std::vector<std::string>> oracle;
  std::vector<int> qids;
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kInterval));
    qids = RunScript(e, rows, {24}, nullptr, &marks);
    WorkloadSeal(e);
    oracle = WorkloadTake(e, qids);
  }
  Engine rec(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kInterval));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();
  const std::vector<std::vector<std::string>> got = WorkloadTake(rec, qids);
  ASSERT_EQ(got.size(), oracle.size());
  ASSERT_EQ(marks.counts.size(), 1u);
  for (size_t q = 0; q < oracle.size(); ++q) {
    const size_t cut = static_cast<size_t>(marks.counts[0][q]);
    ASSERT_LE(cut, oracle[q].size());
    EXPECT_EQ(got[q],
              std::vector<std::string>(oracle[q].begin() + cut,
                                       oracle[q].end()))
        << "query " << q << " did not resume exactly at checkpoint cut "
        << cut;
  }
}

// RemoveContinuous is logged and replayed: a removed query stays removed
// after restart, and the survivors still match the oracle.
TEST_F(RecoveryTest, RemoveContinuousSurvivesRestart) {
  const std::vector<WRow> rows = WorkloadRows(24);
  std::vector<int> qids;
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
    WorkloadDdl(e);
    qids = WorkloadSubmit(e);
    WorkloadFeed(e, rows, 0, 0, 12);
    ASSERT_TRUE(e.RemoveContinuous(qids[1]).ok());
    WorkloadFeed(e, rows, 12, 12, rows.size());
  }
  Engine rec(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();
  std::map<std::string, int> by_sql;
  for (const ContinuousQueryInfo& q : rec.Queries()) by_sql[q.sql] = q.id;
  const std::vector<std::string> sqls = WorkloadQueries();
  EXPECT_EQ(by_sql.count(sqls[1]), 0u) << "removed query resurrected";
  EXPECT_EQ(by_sql.size(), sqls.size() - 1);
  WorkloadSeal(rec);
  for (const auto& [sql, id] : by_sql) {
    auto r = rec.TakeResults(id);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r->size(), 0u) << sql;
  }
}

// A tier-F alias whose FOUNDING query was removed before the last
// checkpoint: the founder's token has no snapshot entry, so its replay
// restores stale submit-time origins — below the WAL truncation floor
// once a second checkpoint cut the logs. The surviving alias's snapshot
// progress must be re-applied when its kSubmit replays, or recovery
// re-reads rows that no longer exist / re-emits delivered output.
TEST_F(RecoveryTest, AliasRestoresSnapshotProgressAfterFounderRemoval) {
  const std::vector<WRow> rows = WorkloadRows(36);
  // The stream-stream join: not tier-P eligible, so the alias shares the
  // factory directly (tier F) and the restored FACTORY origins — not a
  // shared node's snapshot-restored origin — are what recovery must fix.
  const std::string sql = WorkloadQueries()[4];

  // Oracle: same submit/remove schedule on a transient engine.
  std::vector<std::string> oracle;
  {
    Engine e(testutil::SyncOptions());
    WorkloadDdl(e);
    auto a = e.SubmitContinuous(sql, testutil::WithMode(ExecMode::kIncremental));
    auto b = e.SubmitContinuous(sql, testutil::WithMode(ExecMode::kIncremental));
    ASSERT_TRUE(a.ok() && b.ok());
    WorkloadFeed(e, rows, 0, 0, 12);
    ASSERT_TRUE(e.RemoveContinuous(*a).ok());
    WorkloadFeed(e, rows, 12, 12, rows.size());
    WorkloadSeal(e);
    auto r = e.TakeResults(*b);
    ASSERT_TRUE(r.ok());
    oracle = testutil::EmissionStrings(*r);
    ASSERT_GT(oracle.size(), 3u);
  }

  uint64_t at_ckpt = 0;  // alias emissions already counted at checkpoint
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
    ASSERT_TRUE(e.recovery_status().ok());
    WorkloadDdl(e);
    auto a = e.SubmitContinuous(sql, testutil::WithMode(ExecMode::kIncremental));
    auto b = e.SubmitContinuous(sql, testutil::WithMode(ExecMode::kIncremental));
    ASSERT_TRUE(a.ok() && b.ok());
    WorkloadFeed(e, rows, 0, 0, 12);
    ASSERT_TRUE(e.RemoveContinuous(*a).ok());
    at_ckpt = e.GetFactory(*b)->Stats().emissions;
    // Two checkpoints: the second truncates the WALs to the first's
    // horizon, making the founder's submit-time origins unreplayable.
    ASSERT_TRUE(e.Checkpoint().ok());
    ASSERT_TRUE(e.Checkpoint().ok());
    WorkloadFeed(e, rows, 12, 12, 24);
  }

  Engine rec(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();
  std::map<std::string, int> by_sql;
  for (const ContinuousQueryInfo& q : rec.Queries()) by_sql[q.sql] = q.id;
  ASSERT_EQ(by_sql.size(), 1u) << "only the alias should survive";
  const uint64_t lo = rec.GetBasket("s")->HighSeq();
  ASSERT_LE(lo, rows.size());
  WorkloadFeed(rec, rows, lo, lo, rows.size());
  WorkloadSeal(rec);
  auto r = rec.TakeResults(by_sql[sql]);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<std::string> got = testutil::EmissionStrings(*r);
  ASSERT_TRUE(IsSuffixOf(got, oracle));
  EXPECT_LE(oracle.size() - got.size(), at_ckpt)
      << "recovery lost emissions the checkpoint never covered";
}

// The tentpole: enumerate every crash point of the scripted run (two
// checkpoints, fsync=interval) under both loss styles and hold recovery
// to the suffix + checkpoint-bound contract.
TEST_F(RecoveryTest, CrashPointEnumerationMatchesOracle) {
  const std::vector<WRow> rows = WorkloadRows(40);
  const std::vector<size_t> ckpts = {14, 28};
  const FsyncPolicy policy = FsyncPolicy::kInterval;

  std::vector<std::vector<std::string>> oracle;
  ScriptMarks oracle_marks;
  ASSERT_NO_FATAL_FAILURE(
      RunOracle(rows, ckpts, policy, &oracle, &oracle_marks));

  // Counting run: identical script under an unarmed CrashEnv. Its op
  // marks index the same op sequence every armed run replays pre-trip.
  int64_t n_ops = 0;
  ScriptMarks marks;
  {
    const std::string cdir = MakeTempDir("count");
    CrashEnv env;
    {
      Engine e(DurableSyncOptions(cdir, &env, policy));
      RunScript(e, rows, ckpts, &env, &marks);
    }
    n_ops = env.OpCount();
    RemoveDirRecursive(cdir);
  }
  ASSERT_GT(n_ops, 60) << "enumeration would be vacuous";
  // Determinism cross-check: buffering must not change what fires when.
  ASSERT_EQ(marks.counts, oracle_marks.counts);

#ifdef DC_SANITIZED_BUILD
  int64_t stride = 9;
#else
  int64_t stride = 1;
#endif
  if (const char* s = std::getenv("DC_CRASH_STRIDE")) stride = atoll(s);
  if (stride < 1) stride = 1;

  for (const CrashEnv::Style style :
       {CrashEnv::Style::kDropTail, CrashEnv::Style::kTorn}) {
    const int64_t offset =
        style == CrashEnv::Style::kTorn ? stride / 2 : 0;
    for (int64_t k = offset; k < n_ops; k += stride) {
      SCOPED_TRACE(StrFormat(
          "trip=%lld/%lld style=%s", static_cast<long long>(k),
          static_cast<long long>(n_ops),
          style == CrashEnv::Style::kTorn ? "torn" : "drop-tail"));
      const std::string kdir = MakeTempDir("crash");
      CrashEnv env;
      env.ArmTrip(k, style, /*torn_seed=*/0xC0FFEEull ^
                                static_cast<uint64_t>(k) * 2654435761ull);
      {
        Engine e(DurableSyncOptions(kdir, &env, policy));
        RunScript(e, rows, ckpts, &env, nullptr);
      }
      ASSERT_TRUE(env.tripped());
      std::vector<std::vector<std::string>> got;
      ASSERT_NO_FATAL_FAILURE(RecoverAndResume(kdir, policy, rows, &got));
      ASSERT_NO_FATAL_FAILURE(
          AssertRecoveredAgainstOracle(got, oracle, marks, k));
      RemoveDirRecursive(kdir);
    }
  }
}

// Every fsync policy honors the same contract at representative mid-run
// crash points (kNever only persists via checkpoints and clean Sync;
// kAlways tightens the loss window to at most the in-flight record).
TEST_F(RecoveryTest, FsyncPolicySweepAtRepresentativeCrashPoints) {
  const std::vector<WRow> rows = WorkloadRows(40);
  const std::vector<size_t> ckpts = {14, 28};

  for (const FsyncPolicy policy :
       {FsyncPolicy::kNever, FsyncPolicy::kInterval, FsyncPolicy::kAlways}) {
    std::vector<std::vector<std::string>> oracle;
    ScriptMarks oracle_marks;
    ASSERT_NO_FATAL_FAILURE(
        RunOracle(rows, ckpts, policy, &oracle, &oracle_marks));

    int64_t n_ops = 0;
    ScriptMarks marks;
    {
      const std::string cdir = MakeTempDir("count");
      CrashEnv env;
      {
        Engine e(DurableSyncOptions(cdir, &env, policy));
        RunScript(e, rows, ckpts, &env, &marks);
      }
      n_ops = env.OpCount();
      RemoveDirRecursive(cdir);
    }
    ASSERT_GT(n_ops, 20);

    for (const CrashEnv::Style style :
         {CrashEnv::Style::kDropTail, CrashEnv::Style::kTorn}) {
      for (const int64_t k :
           {n_ops / 4, n_ops / 2, (3 * n_ops) / 4, n_ops - 1}) {
        SCOPED_TRACE(StrFormat(
            "policy=%d trip=%lld style=%s", static_cast<int>(policy),
            static_cast<long long>(k),
            style == CrashEnv::Style::kTorn ? "torn" : "drop-tail"));
        const std::string kdir = MakeTempDir("sweep");
        CrashEnv env;
        env.ArmTrip(k, style, 0xFACEull + static_cast<uint64_t>(k));
        {
          Engine e(DurableSyncOptions(kdir, &env, policy));
          RunScript(e, rows, ckpts, &env, nullptr);
        }
        std::vector<std::vector<std::string>> got;
        ASSERT_NO_FATAL_FAILURE(RecoverAndResume(kdir, policy, rows, &got));
        ASSERT_NO_FATAL_FAILURE(
            AssertRecoveredAgainstOracle(got, oracle, marks, k));
        RemoveDirRecursive(kdir);
      }
    }
  }
}

// Durability must be output-invisible: the durable engine's emissions
// equal a plain in-memory engine's, checkpoint calls and all.
TEST_F(RecoveryTest, DurabilityDoesNotChangeEmissions) {
  const std::vector<WRow> rows = WorkloadRows(36);
  std::vector<std::vector<std::string>> plain;
  {
    Engine e(testutil::SyncOptions());
    WorkloadDdl(e);
    std::vector<int> qids = WorkloadSubmit(e);
    WorkloadFeed(e, rows, 0, 0, rows.size());
    WorkloadSeal(e);
    plain = WorkloadTake(e, qids);
  }
  std::vector<std::vector<std::string>> durable;
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kInterval));
    std::vector<int> qids = RunScript(e, rows, {12, 24}, nullptr, nullptr);
    WorkloadSeal(e);
    durable = WorkloadTake(e, qids);
  }
  EXPECT_EQ(durable, plain);
}

// Threaded engine with the background checkpointer: snapshots happen on
// their own, a restart recovers cleanly, and the resumed sync-mode run
// still lands on a suffix of the deterministic per-window oracle.
TEST(RecoveryThreaded, BackgroundCheckpointerRecovers) {
  const std::string dir = MakeTempDir("ckptloop");
  const std::vector<WRow> rows = WorkloadRows(240);

  std::vector<std::vector<std::string>> oracle;
  {
    Engine e(testutil::SyncOptions());
    WorkloadDdl(e);
    std::vector<int> qids = WorkloadSubmit(e);
    WorkloadFeed(e, rows, 0, 0, rows.size());
    WorkloadSeal(e);
    oracle = WorkloadTake(e, qids);
  }

  {
    EngineOptions o = testutil::Threaded(2);
    o.durability.dir = dir;
    o.durability.fsync = FsyncPolicy::kInterval;
    o.durability.fsync_interval_batches = 8;
    o.durability.checkpoint_interval_ms = 5;
    Engine e(o);
    ASSERT_TRUE(e.recovery_status().ok());
    WorkloadDdl(e);
    WorkloadSubmit(e);
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(
          e.PushRow("s", {Value::Ts(rows[i].ts_us), Value::I64(rows[i].g),
                          Value::I64(rows[i].v),
                          Value::F64(static_cast<double>(rows[i].w16) / 16.0)})
              .ok());
      ASSERT_TRUE(e.PushRow("r", {Value::Ts(rows[i].ts_us),
                                  Value::I64(rows[i].v % 5),
                                  Value::I64(rows[i].w16)})
                      .ok());
      if (i % 10 == 9) {
        ASSERT_TRUE(e.Heartbeat("s", rows[i].ts_us).ok());
        ASSERT_TRUE(e.Heartbeat("r", rows[i].ts_us).ok());
      }
      if (i % 48 == 47) {
        std::this_thread::sleep_for(std::chrono::milliseconds(8));
      }
    }
    ASSERT_TRUE(e.WaitIdle());
    EXPECT_GE(e.metrics().GetCounter("snapshot.writes")->Value(), 1u);
  }

  Engine rec(DurableSyncOptions(dir, nullptr, FsyncPolicy::kInterval));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();
  EXPECT_GT(rec.metrics().GetCounter("recovery.replayed_records")->Value(),
            0u);
  std::map<std::string, int> by_sql;
  for (const ContinuousQueryInfo& q : rec.Queries()) by_sql[q.sql] = q.id;
  std::vector<int> qids;
  for (const std::string& sql : WorkloadQueries()) {
    ASSERT_EQ(by_sql.count(sql), 1u) << sql;
    qids.push_back(by_sql[sql]);
  }
  const uint64_t lo_s = rec.GetBasket("s")->HighSeq();
  const uint64_t lo_r = rec.GetBasket("r")->HighSeq();
  ASSERT_EQ(lo_s, rows.size());  // graceful shutdown synced everything
  ASSERT_EQ(lo_r, rows.size());
  WorkloadSeal(rec);
  const std::vector<std::vector<std::string>> got = WorkloadTake(rec, qids);
  for (size_t q = 0; q < got.size(); ++q) {
    EXPECT_TRUE(IsSuffixOf(got[q], oracle[q])) << "query " << q;
  }
  RemoveDirRecursive(dir);
}

TEST_F(RecoveryTest, DurabilityMetricsAreExposed) {
  const std::vector<WRow> rows = WorkloadRows(24);
  Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
  // Two checkpoints: a WAL is only truncated to the PREVIOUS checkpoint's
  // horizon, so the first checkpoint snapshots but cannot cut yet.
  std::vector<int> qids = RunScript(e, rows, {8, 16}, nullptr, nullptr);
  WorkloadSeal(e);
  WorkloadTake(e, qids);
  EXPECT_GT(e.metrics().GetCounter("wal.records")->Value(), 0u);
  EXPECT_GT(e.metrics().GetCounter("wal.bytes")->Value(), 0u);
  EXPECT_GT(e.metrics().GetCounter("wal.syncs")->Value(), 0u);
  EXPECT_GT(e.metrics().GetCounter("wal.truncations")->Value(), 0u);
  EXPECT_EQ(e.metrics().GetCounter("snapshot.writes")->Value(), 2u);
  EXPECT_GT(e.metrics().GetCounter("snapshot.bytes")->Value(), 0u);
}

}  // namespace
}  // namespace dc
