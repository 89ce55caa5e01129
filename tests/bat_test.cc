// Unit tests for the columnar kernel containers: Value, Bat, StringHeap,
// Candidates, ColumnSet.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "bat/candidates.h"
#include "bat/string_heap.h"
#include "bat/types.h"
#include "util/random.h"
#include "util/string_util.h"

namespace dc {
namespace {

TEST(ValueTest, BasicsAndToString) {
  EXPECT_EQ(Value::I64(42).ToString(), "42");
  EXPECT_EQ(Value::F64(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::F64(3.0).ToString(), "3");
  EXPECT_EQ(Value::Str("hi").ToString(), "hi");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Ts(5).type(), TypeId::kTs);
}

TEST(ValueTest, Compare) {
  EXPECT_LT(Value::I64(1).Compare(Value::I64(2)), 0);
  EXPECT_EQ(Value::I64(2).Compare(Value::F64(2.0)), 0);
  EXPECT_GT(Value::Str("b").Compare(Value::Str("a")), 0);
  EXPECT_LT(Value::Bool(false).Compare(Value::Bool(true)), 0);
}

TEST(ValueTest, Casts) {
  EXPECT_EQ(Value::I64(3).CastTo(TypeId::kF64)->AsF64(), 3.0);
  EXPECT_EQ(Value::Str("17").CastTo(TypeId::kI64)->AsI64(), 17);
  EXPECT_EQ(Value::Str("2.5").CastTo(TypeId::kF64)->AsF64(), 2.5);
  EXPECT_EQ(Value::F64(9.9).CastTo(TypeId::kI64)->AsI64(), 9);
  EXPECT_EQ(Value::I64(5).CastTo(TypeId::kTs)->AsI64(), 5);
  EXPECT_EQ(Value::I64(12).CastTo(TypeId::kStr)->AsStr(), "12");
  EXPECT_FALSE(Value::Str("abc").CastTo(TypeId::kI64).ok());
}

TEST(TypeTest, Names) {
  EXPECT_STREQ(TypeName(TypeId::kI64), "i64");
  EXPECT_EQ(*TypeFromName("BIGINT"), TypeId::kI64);
  EXPECT_EQ(*TypeFromName("varchar"), TypeId::kStr);
  EXPECT_EQ(*TypeFromName("timestamp"), TypeId::kTs);
  EXPECT_FALSE(TypeFromName("blob").ok());
}

TEST(StringHeapTest, AddAndGet) {
  StringHeap heap;
  const uint64_t a = heap.Add("hello");
  const uint64_t b = heap.Add("");
  const uint64_t c = heap.Add("world");
  EXPECT_EQ(heap.Get(a), "hello");
  EXPECT_EQ(heap.Get(b), "");
  EXPECT_EQ(heap.Get(c), "world");
}

TEST(BatTest, AppendAndRead) {
  auto b = Bat::MakeI64({1, 2, 3});
  EXPECT_EQ(b->size(), 3u);
  b->AppendI64(4);
  EXPECT_EQ(b->I64Data()[3], 4);
  EXPECT_EQ(b->GetValue(0).AsI64(), 1);
}

TEST(BatTest, StringColumn) {
  auto b = Bat::MakeStr({"aa", "bb", "cc"});
  EXPECT_EQ(b->StrAt(1), "bb");
  b->AppendStr("dd");
  EXPECT_EQ(b->size(), 4u);
  EXPECT_EQ(b->GetValue(3).AsStr(), "dd");
}

TEST(BatTest, SliceAndGather) {
  auto b = Bat::MakeI64({10, 20, 30, 40, 50});
  auto s = b->Slice(1, 4);
  EXPECT_EQ(s->size(), 3u);
  EXPECT_EQ(s->I64Data()[0], 20);
  auto g = b->Gather(Candidates::FromVector({0, 2, 4}));
  EXPECT_EQ(g->size(), 3u);
  EXPECT_EQ(g->I64Data()[2], 50);
}

TEST(BatTest, DropHeadIntColumn) {
  auto b = Bat::MakeI64({1, 2, 3, 4});
  b->DropHead(2);
  EXPECT_EQ(b->size(), 2u);
  EXPECT_EQ(b->I64Data()[0], 3);
}

TEST(BatTest, DropHeadRebuildsStringHeap) {
  auto b = Bat::MakeStr({"first", "second", "third"});
  const size_t before = b->MemoryBytes();
  b->DropHead(2);
  EXPECT_EQ(b->size(), 1u);
  EXPECT_EQ(b->StrAt(0), "third");
  EXPECT_LT(b->MemoryBytes(), before);
}

TEST(BatTest, AppendRangeAcrossTypes) {
  auto src = Bat::MakeF64({1.5, 2.5, 3.5});
  Bat dst(TypeId::kF64);
  dst.AppendRange(*src, 1, 3);
  EXPECT_EQ(dst.size(), 2u);
  EXPECT_EQ(dst.F64Data()[0], 2.5);
}

TEST(BatTest, AppendValueCoercesNumeric) {
  Bat dst(TypeId::kF64);
  dst.AppendValue(Value::I64(3));
  EXPECT_EQ(dst.F64Data()[0], 3.0);
}

// --- Head offset: DropHead trims in O(dropped) ---------------------------

TEST(BatTest, DropHeadMovesNoRowWhileDeadPrefixFitsLiveRows) {
  std::vector<int64_t> v(100);
  for (int64_t i = 0; i < 100; ++i) v[i] = i;
  auto b = Bat::MakeI64(v);
  const int64_t* base = b->I64Data().data();
  const size_t bytes = b->MemoryBytes();
  b->DropHead(10);
  EXPECT_EQ(b->I64Data().data(), base + 10);
  b->DropHead(30);  // dead 40 <= live 60: still no move
  EXPECT_EQ(b->I64Data().data(), base + 40);
  EXPECT_EQ(b->size(), 60u);
  EXPECT_EQ(b->I64Data()[0], 40);
  EXPECT_EQ(b->GetValue(59).AsI64(), 99);
  EXPECT_EQ(b->MemoryBytes(), bytes);  // the dead prefix still counts
  b->DropHead(11);  // dead 51 > live 49: one compaction
  EXPECT_EQ(b->I64Data().data(), base);
  ASSERT_EQ(b->size(), 49u);
  for (uint64_t i = 0; i < 49; ++i) EXPECT_EQ(b->I64Data()[i], 51 + int64_t(i));
  EXPECT_EQ(b->MemoryBytes(), bytes);  // capacity is kept, as with erase
}

TEST(BatTest, DropHeadKeepsStringViewsUntilCompaction) {
  std::vector<std::string> v;
  for (int i = 0; i < 100; ++i) v.push_back("str-" + std::to_string(i));
  auto b = Bat::MakeStr(v);
  const std::string_view s20 = b->StrAt(20);
  const size_t bytes = b->MemoryBytes();
  b->DropHead(10);
  EXPECT_EQ(b->StrAt(10).data(), s20.data());  // no heap rebuild
  b->DropHead(40);  // dead 50 == live 50
  EXPECT_EQ(b->StrAt(0), "str-50");
  EXPECT_EQ(b->MemoryBytes(), bytes);
  b->DropHead(1);  // dead 51 > live 49: the heap is rebuilt
  ASSERT_EQ(b->size(), 49u);
  for (uint64_t i = 0; i < 49; ++i) {
    EXPECT_EQ(b->StrAt(i), "str-" + std::to_string(51 + i));
  }
  // The rebuilt heap holds only the live strings (4-byte length + bytes).
  size_t live_heap = 0;
  for (int i = 51; i < 100; ++i) live_heap += 4 + v[i].size();
  EXPECT_LE(b->MemoryBytes(), live_heap + 100 * sizeof(uint64_t));
  EXPECT_LT(b->MemoryBytes(), bytes);
}

TEST(BatTest, DropHeadKeepsNullFlagsAcrossCompaction) {
  Bat b(TypeId::kF64);
  for (int i = 0; i < 20; ++i) {
    if (i % 3 == 0) {
      b.AppendNull();
    } else {
      b.AppendF64(i + 0.5);
    }
  }
  b.AppendF64(99.5);  // rows past the bitmap's end are non-null
  const double* row7 = &b.F64Data()[7];
  b.DropHead(7);  // dead 7 <= live 14
  ASSERT_EQ(b.size(), 14u);
  EXPECT_EQ(b.F64Data().data(), row7);
  EXPECT_TRUE(b.has_nulls());
  for (uint64_t i = 0; i < b.size(); ++i) {
    const int row = static_cast<int>(i) + 7;
    EXPECT_EQ(b.IsNull(i), row % 3 == 0 && row < 20) << row;
  }
  EXPECT_EQ(b.NullFlags().size(), 12u);  // the bitmap ends at row 18
  EXPECT_EQ(b.NullFlags()[2], 1);  // row 9
  b.DropHead(4);  // dead 11 > live 10: compaction
  ASSERT_EQ(b.size(), 10u);
  for (uint64_t i = 0; i < b.size(); ++i) {
    const int row = static_cast<int>(i) + 11;
    EXPECT_EQ(b.IsNull(i), row % 3 == 0 && row < 20) << row;
    if (!b.IsNull(i)) EXPECT_EQ(b.F64Data()[i], row == 20 ? 99.5 : row + 0.5);
  }
  EXPECT_EQ(b.NullFlags().size(), 8u);
  b.DropHead(9);  // only the non-null tail row stays
  EXPECT_FALSE(b.IsNull(0));
  EXPECT_EQ(b.GetValue(0).AsF64(), 99.5);
}

TEST(BatTest, ReadsFromASourceWithADeadPrefix) {
  auto src = Bat::MakeStr({"a", "bb", "", "dddd", "e", "ff"});
  src->AppendNull();
  const char* row3 = src->StrAt(3).data();
  src->DropHead(2);  // "", "dddd", "e", "ff", NULL
  EXPECT_EQ(src->StrAt(1).data(), row3);
  Bat dst(TypeId::kStr);
  dst.AppendRange(*src, 1, 3);
  dst.AppendCandidates(*src, Candidates::FromVector({0, 3, 4}));
  ASSERT_EQ(dst.size(), 5u);
  EXPECT_EQ(dst.StrAt(0), "dddd");
  EXPECT_EQ(dst.StrAt(1), "e");
  EXPECT_EQ(dst.StrAt(2), "");
  EXPECT_EQ(dst.StrAt(3), "ff");
  EXPECT_TRUE(dst.IsNull(4));
  EXPECT_FALSE(dst.IsNull(2));
  auto slice = src->Slice(3, 5);
  EXPECT_EQ(slice->GetValue(0).AsStr(), "ff");
  EXPECT_TRUE(slice->IsNull(1));
}

// Seeded oracle: random append / DropHead / AppendRange / AppendCandidates
// / SetNulls sequences over all five types, with NULLs, against a
// std::vector reference. Two columns take part, so ranges and candidates
// are read from a source that may have a dead prefix of its own. The
// reference also tracks each column's dead prefix: a DropHead that leaves
// it no larger than the live rows must move no row. A
// failing sequence is shrunk greedily (ops removed one at a time while it
// still fails) before it is reported. DC_FUZZ_SEED overrides the base
// seed, DC_FUZZ_ROUNDS the round count.

enum class OpKind { kAppend, kAppendNull, kDropHead, kAppendRange,
                    kAppendCandidates, kSetNulls };

struct BatOp {
  OpKind kind;
  int target;     // 0 or 1: the column mutated (the other is the source)
  uint64_t arg;   // seed of every size, offset and value the op draws
};

using RefCol = std::vector<std::optional<Value>>;  // nullopt = NULL

Value OracleValue(TypeId t, Rng& rng) {
  static const double kF64[] = {0.0, -0.0, 1.5, -2.25, 1e300, 3.0};
  static const char* const kStrs[] = {"", "a", "bb", "a longer string",
                                      "xyz"};
  switch (t) {
    case TypeId::kBool:
      return Value::Bool(rng.Bernoulli(0.5));
    case TypeId::kI64:
      return Value::I64(rng.UniformInt(-1000, 1000));
    case TypeId::kTs:
      return Value::Ts(rng.UniformInt(0, 1 << 20));
    case TypeId::kF64:
      return Value::F64(kF64[rng.UniformInt(0, 5)]);
    case TypeId::kStr:
      return Value::Str(kStrs[rng.UniformInt(0, 4)]);
  }
  abort();
}

/// Exact rendering of a cell, doubles bit for bit.
std::string Render(const std::optional<Value>& v) {
  if (!v) return "NULL";
  if (v->type() == TypeId::kF64) return StrFormat("%a", v->AsF64());
  return v->ToString();
}

/// Every read path of `b` against `ref`; empty when they agree.
std::string Mismatch(const Bat& b, const RefCol& ref) {
  if (b.size() != ref.size()) {
    return StrFormat("size %llu, expected %zu",
                     static_cast<unsigned long long>(b.size()), ref.size());
  }
  const auto flags = b.NullFlags();
  if (flags.size() > b.size()) return "null bitmap longer than the column";
  bool any_null = false;
  for (uint64_t i = 0; i < b.size(); ++i) {
    const bool null = !ref[i].has_value();
    any_null = any_null || null;
    const std::string at = StrFormat(" at row %llu",
                                     static_cast<unsigned long long>(i));
    if (b.IsNull(i) != null) return "IsNull" + at;
    if ((i < flags.size() && flags[i] != 0) != null) return "NullFlags" + at;
    const Value got = b.GetValue(i);
    const std::optional<Value> boxed =
        got.is_null() ? std::nullopt : std::optional<Value>(got);
    if (Render(boxed) != Render(ref[i])) {
      return "GetValue " + Render(boxed) + at + ", expected " +
             Render(ref[i]);
    }
    // The typed payload of a NULL row is the type's zero.
    switch (b.type()) {
      case TypeId::kBool:
        if (b.BoolData()[i] != (null ? 0 : ref[i]->AsBool())) {
          return "BoolData" + at;
        }
        break;
      case TypeId::kI64:
      case TypeId::kTs:
        if (b.I64Data()[i] != (null ? 0 : ref[i]->AsI64())) {
          return "I64Data" + at;
        }
        break;
      case TypeId::kF64: {
        const double want = null ? 0.0 : ref[i]->AsF64();
        if (StrFormat("%a", b.F64Data()[i]) != StrFormat("%a", want)) {
          return "F64Data" + at;
        }
        break;
      }
      case TypeId::kStr:
        if (b.StrAt(i) != (null ? "" : ref[i]->AsStr())) return "StrAt" + at;
        break;
    }
  }
  if (any_null && !b.has_nulls()) return "has_nulls() false with NULL rows";
  return "";
}

/// Address of row `i`'s payload (for a STR row, of its heap bytes).
const void* RowAddress(const Bat& b, uint64_t i) {
  switch (b.type()) {
    case TypeId::kBool:
      return &b.BoolData()[i];
    case TypeId::kI64:
    case TypeId::kTs:
      return &b.I64Data()[i];
    case TypeId::kF64:
      return &b.F64Data()[i];
    case TypeId::kStr:
      return b.StrAt(i).data();
  }
  abort();
}

/// Applies `ops` to two fresh columns of type `t`; returns the first
/// mismatch against the reference, or "" when every step agrees.
std::string RunBatOps(TypeId t, const std::vector<BatOp>& ops) {
  Bat cols[2] = {Bat(t), Bat(t)};
  RefCol refs[2];
  uint64_t dead[2] = {0, 0};  // the compaction rule, modeled
  for (size_t k = 0; k < ops.size(); ++k) {
    const BatOp& op = ops[k];
    Bat& dst = cols[op.target];
    RefCol& ref = refs[op.target];
    const Bat& src = cols[1 - op.target];
    const RefCol src_ref = refs[1 - op.target];
    Rng rng(op.arg);
    switch (op.kind) {
      case OpKind::kAppend: {
        const int64_t n = rng.UniformInt(1, 40);
        for (int64_t i = 0; i < n; ++i) {
          const Value v = OracleValue(t, rng);
          dst.AppendValue(v);
          ref.push_back(v);
        }
        break;
      }
      case OpKind::kAppendNull:
        dst.AppendNull();
        ref.push_back(std::nullopt);
        break;
      case OpKind::kDropHead: {
        // Mostly small drops (the slide), sometimes past the size.
        const int64_t most = static_cast<int64_t>(ref.size()) /
                             (rng.Bernoulli(0.8) ? 4 : 1);
        const uint64_t n = static_cast<uint64_t>(rng.UniformInt(0, most + 1));
        const uint64_t dropped = std::min<uint64_t>(n, ref.size());
        const bool survives = dropped < ref.size();
        const void* first = survives ? RowAddress(dst, dropped) : nullptr;
        dst.DropHead(n);
        ref.erase(ref.begin(), ref.begin() + static_cast<int64_t>(dropped));
        dead[op.target] += dropped;
        if (dead[op.target] > ref.size()) {
          dead[op.target] = 0;  // compacted
        } else if (survives && RowAddress(dst, 0) != first) {
          return StrFormat("op %zu: DropHead(%llu) moved rows with %llu "
                           "dead and %zu live",
                           k, static_cast<unsigned long long>(n),
                           static_cast<unsigned long long>(dead[op.target]),
                           ref.size());
        }
        break;
      }
      case OpKind::kAppendRange: {
        const int64_t size = static_cast<int64_t>(src_ref.size());
        const uint64_t from = static_cast<uint64_t>(rng.UniformInt(0, size));
        const uint64_t to = static_cast<uint64_t>(
            rng.UniformInt(static_cast<int64_t>(from), size));
        dst.AppendRange(src, from, to);
        ref.insert(ref.end(), src_ref.begin() + from, src_ref.begin() + to);
        break;
      }
      case OpKind::kAppendCandidates: {
        std::vector<Oid> oids;
        const double p = rng.UniformDouble();
        for (uint64_t i = 0; i < src_ref.size(); ++i) {
          if (rng.UniformDouble() < p) oids.push_back(i);
        }
        dst.AppendCandidates(src, Candidates::FromVector(oids));
        for (Oid o : oids) ref.push_back(src_ref[o]);
        break;
      }
      case OpKind::kSetNulls: {
        std::vector<uint8_t> flags(ref.size());
        for (size_t i = 0; i < flags.size(); ++i) {
          flags[i] = rng.Bernoulli(0.15) ? 1 : 0;
          if (flags[i] != 0) ref[i] = std::nullopt;
        }
        dst.SetNulls(flags);
        break;
      }
    }
    for (int c = 0; c < 2; ++c) {
      const std::string m = Mismatch(cols[c], refs[c]);
      if (!m.empty()) {
        return StrFormat("after op %zu, column %d: ", k, c) + m;
      }
    }
  }
  // Whole-column copies read through the head offset as well.
  for (int c = 0; c < 2; ++c) {
    const RefCol& ref = refs[c];
    const uint64_t from = ref.size() / 3;
    const std::string m = Mismatch(
        *cols[c].Slice(from, ref.size()),
        RefCol(ref.begin() + static_cast<int64_t>(from), ref.end()));
    if (!m.empty()) return StrFormat("Slice of column %d: ", c) + m;
  }
  return "";
}

std::string DescribeOps(const std::vector<BatOp>& ops) {
  static const char* const kNames[] = {"Append", "AppendNull", "DropHead",
                                       "AppendRange", "AppendCandidates",
                                       "SetNulls"};
  std::string out;
  for (const BatOp& op : ops) {
    out += StrFormat("  col%d.%s(arg=%llu)\n", op.target,
                     kNames[static_cast<int>(op.kind)],
                     static_cast<unsigned long long>(op.arg));
  }
  return out;
}

TEST(BatOracle, HeadOffsetMatchesVectorReference) {
  uint64_t base_seed = 20261020;
  int rounds = 300;
  if (const char* s = std::getenv("DC_FUZZ_SEED")) {
    base_seed = std::strtoull(s, nullptr, 10);
  }
  if (const char* s = std::getenv("DC_FUZZ_ROUNDS")) rounds = std::atoi(s);
  constexpr TypeId kTypes[] = {TypeId::kBool, TypeId::kI64, TypeId::kF64,
                               TypeId::kStr, TypeId::kTs};
  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(round);
    Rng rng(seed);
    const TypeId t = kTypes[rng.UniformInt(0, 4)];
    std::vector<BatOp> ops(static_cast<size_t>(rng.UniformInt(1, 60)));
    for (BatOp& op : ops) {
      // Appends outweigh drops so columns grow past a few compactions.
      static const OpKind kMix[] = {
          OpKind::kAppend,      OpKind::kAppend,
          OpKind::kAppend,      OpKind::kAppendNull,
          OpKind::kDropHead,    OpKind::kDropHead,
          OpKind::kDropHead,    OpKind::kAppendRange,
          OpKind::kAppendCandidates, OpKind::kSetNulls};
      op.kind = kMix[rng.UniformInt(0, 9)];
      op.target = static_cast<int>(rng.UniformInt(0, 1));
      op.arg = rng.Next();
    }
    if (RunBatOps(t, ops).empty()) continue;
    // Greedy shrink: drop ops while the sequence still fails.
    for (size_t i = ops.size(); i-- > 0;) {
      std::vector<BatOp> fewer = ops;
      fewer.erase(fewer.begin() + static_cast<int64_t>(i));
      if (!RunBatOps(t, fewer).empty()) ops = std::move(fewer);
    }
    FAIL() << "seed " << seed << " (" << TypeName(t) << "): "
           << RunBatOps(t, ops) << "\nshrunk to " << ops.size() << " ops:\n"
           << DescribeOps(ops) << "  repro: DC_FUZZ_SEED=" << seed
           << " DC_FUZZ_ROUNDS=1 ./bat_test --gtest_filter=BatOracle.*";
  }
}

TEST(CandidatesTest, DenseRange) {
  auto c = Candidates::Range(5, 3);
  EXPECT_TRUE(c.is_dense());
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.At(0), 5u);
  EXPECT_EQ(c.At(2), 7u);
  EXPECT_TRUE(c.Contains(6));
  EXPECT_FALSE(c.Contains(8));
}

TEST(CandidatesTest, VectorNormalizesToDense) {
  auto c = Candidates::FromVector({3, 4, 5});
  EXPECT_TRUE(c.is_dense());
  auto sparse = Candidates::FromVector({3, 5, 9});
  EXPECT_FALSE(sparse.is_dense());
  EXPECT_TRUE(sparse.Contains(5));
}

TEST(CandidatesTest, IntersectDense) {
  auto a = Candidates::Range(0, 10);
  auto b = Candidates::Range(5, 10);
  auto c = Candidates::Intersect(a, b);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.At(0), 5u);
}

TEST(CandidatesTest, IntersectSparse) {
  auto a = Candidates::FromVector({1, 3, 5, 7});
  auto b = Candidates::FromVector({3, 4, 7, 9});
  auto c = Candidates::Intersect(a, b);
  EXPECT_EQ(c.ToVector(), (std::vector<Oid>{3, 7}));
}

TEST(CandidatesTest, UnionAndDifference) {
  auto a = Candidates::FromVector({1, 3, 5});
  auto b = Candidates::FromVector({2, 3, 6});
  EXPECT_EQ(Candidates::Union(a, b).ToVector(),
            (std::vector<Oid>{1, 2, 3, 5, 6}));
  auto domain = Candidates::Range(0, 7);
  EXPECT_EQ(Candidates::Difference(domain, a).ToVector(),
            (std::vector<Oid>{0, 2, 4, 6}));
}

TEST(CandidatesTest, EmptyBehaviour) {
  Candidates empty;
  EXPECT_TRUE(empty.empty());
  auto a = Candidates::Range(0, 5);
  EXPECT_EQ(Candidates::Intersect(empty, a).size(), 0u);
  EXPECT_EQ(Candidates::Union(empty, a).size(), 5u);
}

TEST(ColumnSetTest, FindAndRow) {
  ColumnSet cs;
  cs.names = {"a", "b"};
  cs.cols = {Bat::MakeI64({1, 2}), Bat::MakeStr({"x", "y"})};
  EXPECT_EQ(*cs.Find("b"), 1u);
  EXPECT_FALSE(cs.Find("z").ok());
  auto row = cs.Row(1);
  EXPECT_EQ(row[0].AsI64(), 2);
  EXPECT_EQ(row[1].AsStr(), "y");
  EXPECT_NE(cs.ToString().find("a"), std::string::npos);
}

}  // namespace
}  // namespace dc
