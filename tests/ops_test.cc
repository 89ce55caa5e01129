// Unit tests for the bulk kernel operators: select, arith maps, join
// (incl. the rolling join hash), group/aggregate (incl. the mergeable
// partial states), sort.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>

#include "bat/ops_aggregate.h"
#include "bat/ops_arith.h"
#include "bat/ops_group.h"
#include "bat/ops_join.h"
#include "bat/ops_select.h"
#include "bat/ops_sort.h"
#include "exec/executor.h"
#include "util/random.h"
#include "util/string_util.h"

namespace dc {
namespace {

using ops::AggKind;

TEST(SelectTest, CmpOnI64) {
  auto col = Bat::MakeI64({5, 1, 9, 3, 7});
  auto c = ops::SelectCmp(*col, CmpOp::kGt, Value::I64(4));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->ToVector(), (std::vector<Oid>{0, 2, 4}));
  c = ops::SelectCmp(*col, CmpOp::kEq, Value::I64(3));
  EXPECT_EQ(c->ToVector(), (std::vector<Oid>{3}));
  c = ops::SelectCmp(*col, CmpOp::kLe, Value::I64(3));
  EXPECT_EQ(c->ToVector(), (std::vector<Oid>{1, 3}));
}

TEST(SelectTest, CmpWithCandidates) {
  auto col = Bat::MakeI64({5, 1, 9, 3, 7});
  auto base = Candidates::FromVector({0, 1, 2});
  auto c = ops::SelectCmp(*col, CmpOp::kGt, Value::I64(4), &base);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->ToVector(), (std::vector<Oid>{0, 2}));
}

TEST(SelectTest, F64LiteralAgainstIntColumn) {
  auto col = Bat::MakeI64({1, 2, 3});
  auto c = ops::SelectCmp(*col, CmpOp::kGt, Value::F64(1.5));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->size(), 2u);
}

TEST(SelectTest, StringCmp) {
  auto col = Bat::MakeStr({"pear", "apple", "fig"});
  auto c = ops::SelectCmp(*col, CmpOp::kEq, Value::Str("fig"));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->ToVector(), (std::vector<Oid>{2}));
  EXPECT_FALSE(ops::SelectCmp(*col, CmpOp::kEq, Value::I64(1)).ok());
}

TEST(SelectTest, Range) {
  auto col = Bat::MakeI64({1, 5, 10, 15, 20});
  auto c = ops::SelectRange(*col, Value::I64(5), true, Value::I64(15), false);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->ToVector(), (std::vector<Oid>{1, 2}));
}

TEST(SelectTest, CmpColVsCol) {
  auto a = Bat::MakeI64({1, 5, 3});
  auto b = Bat::MakeI64({2, 4, 3});
  auto c = ops::SelectCmpCol(*a, CmpOp::kLt, *b);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->ToVector(), (std::vector<Oid>{0}));
  c = ops::SelectCmpCol(*a, CmpOp::kGe, *b);
  EXPECT_EQ(c->ToVector(), (std::vector<Oid>{1, 2}));
}

TEST(SelectTest, SelectTrue) {
  auto col = Bat::MakeBool({1, 0, 1, 0});
  auto c = ops::SelectTrue(*col);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->ToVector(), (std::vector<Oid>{0, 2}));
}

TEST(ArithTest, IntAddMul) {
  auto a = Bat::MakeI64({1, 2, 3});
  auto b = Bat::MakeI64({10, 20, 30});
  auto sum = ops::MapArith(*a, ArithOp::kAdd, *b);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ((*sum)->type(), TypeId::kI64);
  EXPECT_EQ((*sum)->I64Data()[2], 33);
  auto mul = ops::MapArithConst(*a, ArithOp::kMul, Value::I64(5));
  EXPECT_EQ((*mul)->I64Data()[1], 10);
}

TEST(ArithTest, DivisionAlwaysF64) {
  auto a = Bat::MakeI64({10, 9});
  auto d = ops::MapArithConst(*a, ArithOp::kDiv, Value::I64(4));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->type(), TypeId::kF64);
  EXPECT_EQ((*d)->F64Data()[0], 2.5);
}

TEST(ArithTest, DivByZeroSaturates) {
  auto a = Bat::MakeI64({10});
  auto d = ops::MapArithConst(*a, ArithOp::kDiv, Value::I64(0));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->F64Data()[0], 0.0);
  auto m = ops::MapArithConst(*a, ArithOp::kMod, Value::I64(0));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ((*m)->I64Data()[0], 0);
}

TEST(ArithTest, LiteralLeft) {
  auto a = Bat::MakeI64({1, 2});
  auto r = ops::MapArithConst(*a, ArithOp::kSub, Value::I64(10),
                              /*literal_left=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->I64Data()[0], 9);
  EXPECT_EQ((*r)->I64Data()[1], 8);
}

TEST(ArithTest, MixedPromotesToF64) {
  auto a = Bat::MakeI64({1, 2});
  auto b = Bat::MakeF64({0.5, 0.5});
  auto r = ops::MapArith(*a, ArithOp::kAdd, *b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->type(), TypeId::kF64);
  EXPECT_EQ((*r)->F64Data()[0], 1.5);
}

TEST(ArithTest, BoolMaps) {
  auto a = Bat::MakeBool({1, 1, 0, 0});
  auto b = Bat::MakeBool({1, 0, 1, 0});
  EXPECT_EQ((*ops::MapAnd(*a, *b))->BoolData()[0], 1);
  EXPECT_EQ((*ops::MapAnd(*a, *b))->BoolData()[1], 0);
  EXPECT_EQ((*ops::MapOr(*a, *b))->BoolData()[2], 1);
  EXPECT_EQ((*ops::MapNot(*a))->BoolData()[3], 1);
  EXPECT_FALSE(ops::MapAnd(*a, *Bat::MakeI64({1, 2, 3, 4})).ok());
}

TEST(ArithTest, CmpMaps) {
  auto a = Bat::MakeI64({1, 5, 3});
  auto r = ops::MapCmpConst(*a, CmpOp::kGe, Value::I64(3));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->BoolData()[0], 0);
  EXPECT_EQ((*r)->BoolData()[1], 1);
  EXPECT_EQ((*r)->BoolData()[2], 1);
}

TEST(ArithTest, Cast) {
  auto a = Bat::MakeI64({1, 2});
  auto f = ops::MapCast(*a, TypeId::kF64);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->F64Data()[1], 2.0);
  auto s = ops::MapCast(*a, TypeId::kStr);
  EXPECT_EQ((*s)->StrAt(0), "1");
}

TEST(ArithTest, ConstColumn) {
  auto c = ops::MakeConstColumn(Value::Str("x"), 3);
  EXPECT_EQ(c->size(), 3u);
  EXPECT_EQ(c->StrAt(2), "x");
}

TEST(JoinTest, IntInnerJoin) {
  auto l = Bat::MakeI64({1, 2, 3, 2});
  auto r = Bat::MakeI64({2, 4, 2});
  auto jr = ops::HashJoin(*l, *r);
  ASSERT_TRUE(jr.ok());
  // Left rows 1 and 3 (value 2) each match right rows 0 and 2.
  EXPECT_EQ(jr->size(), 4u);
  for (size_t i = 0; i < jr->size(); ++i) {
    EXPECT_EQ(l->I64Data()[jr->left[i]], r->I64Data()[jr->right[i]]);
  }
}

TEST(JoinTest, StringJoin) {
  auto l = Bat::MakeStr({"a", "b", "c"});
  auto r = Bat::MakeStr({"b", "c", "d"});
  auto jr = ops::HashJoin(*l, *r);
  ASSERT_TRUE(jr.ok());
  EXPECT_EQ(jr->size(), 2u);
}

TEST(JoinTest, MixedNumericJoinViaDouble) {
  auto l = Bat::MakeI64({1, 2});
  auto r = Bat::MakeF64({2.0, 3.0});
  auto jr = ops::HashJoin(*l, *r);
  ASSERT_TRUE(jr.ok());
  EXPECT_EQ(jr->size(), 1u);
  EXPECT_EQ(jr->left[0], 1u);
}

TEST(JoinTest, WithCandidates) {
  auto l = Bat::MakeI64({1, 2, 2});
  auto r = Bat::MakeI64({2, 2});
  auto lcand = Candidates::FromVector({0, 1});
  auto rcand = Candidates::FromVector({1});
  auto jr = ops::HashJoin(*l, *r, &lcand, &rcand);
  ASSERT_TRUE(jr.ok());
  EXPECT_EQ(jr->size(), 1u);
  EXPECT_EQ(jr->left[0], 1u);
  EXPECT_EQ(jr->right[0], 1u);
}

TEST(JoinTest, TypeMismatchFails) {
  auto l = Bat::MakeStr({"a"});
  auto r = Bat::MakeI64({1});
  EXPECT_FALSE(ops::HashJoin(*l, *r).ok());
}

TEST(JoinTest, JoinKeyDomain) {
  auto dom = ops::JoinKeyDomain(TypeId::kI64, TypeId::kI64);
  ASSERT_TRUE(dom.ok());
  EXPECT_EQ(*dom, TypeId::kI64);
  dom = ops::JoinKeyDomain(TypeId::kI64, TypeId::kF64);
  ASSERT_TRUE(dom.ok());
  EXPECT_EQ(*dom, TypeId::kF64);
  dom = ops::JoinKeyDomain(TypeId::kStr, TypeId::kStr);
  ASSERT_TRUE(dom.ok());
  EXPECT_EQ(*dom, TypeId::kStr);
  EXPECT_FALSE(ops::JoinKeyDomain(TypeId::kStr, TypeId::kI64).ok());
}

TEST(JoinTest, TiesComeNewestBuildRowFirst) {
  auto l = Bat::MakeI64({2, 1});
  auto r = Bat::MakeI64({1, 2, 1, 2, 2});
  auto jr = ops::HashJoin(*l, *r);
  ASSERT_TRUE(jr.ok());
  EXPECT_EQ(jr->left, (std::vector<Oid>{0, 0, 0, 1, 1}));
  EXPECT_EQ(jr->right, (std::vector<Oid>{4, 3, 1, 2, 0}));
}

// The delta-join invariant: the pairs of HashJoin over [old ; new] on both
// sides that involve at least one row past a split — new⋈old ∪ old⋈new ∪
// new⋈new — skipping pairs with a left (right) row below `l_dead`
// (`r_dead`), as a sorted multiset.
std::vector<std::pair<Oid, Oid>> NewPairs(const Bat& l, uint64_t l_old,
                                          uint64_t l_dead, const Bat& r,
                                          uint64_t r_old, uint64_t r_dead) {
  auto full = ops::HashJoin(l, r);
  EXPECT_TRUE(full.ok());
  std::vector<std::pair<Oid, Oid>> out;
  if (!full.ok()) return out;
  for (size_t i = 0; i < full->size(); ++i) {
    const Oid a = full->left[i], b = full->right[i];
    if ((a >= l_old || b >= r_old) && a >= l_dead && b >= r_dead) {
      out.emplace_back(a, b);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// IndexedDeltaJoin with indexes covering exactly the retained (old) rows
// must produce exactly the new pairs of the full join.
void CheckIndexedEqualsDeltaJoin(const Bat& l, uint64_t l_old, const Bat& r,
                                 uint64_t r_old) {
  auto dom = ops::JoinKeyDomain(l.type(), r.type());
  ASSERT_TRUE(dom.ok());
  ops::JoinHash li(*dom), ri(*dom);
  ASSERT_TRUE(li.Append(l, 0, l_old).ok());
  ASSERT_TRUE(ri.Append(r, 0, r_old).ok());
  auto got = ops::IndexedDeltaJoin(l, l_old, li, r, r_old, ri);
  ASSERT_TRUE(got.ok());
  std::vector<std::pair<Oid, Oid>> got_pairs;
  for (size_t i = 0; i < got->size(); ++i) {
    got_pairs.emplace_back(got->left[i], got->right[i]);
  }
  std::sort(got_pairs.begin(), got_pairs.end());
  EXPECT_EQ(got_pairs, NewPairs(l, l_old, 0, r, r_old, 0));
}

TEST(JoinTest, IndexedDeltaJoinMatchesDeltaJoin) {
  auto l = Bat::MakeI64({1, 2, 2, 3, 2, 1});  // old: rows 0-3, new: 4-5
  auto r = Bat::MakeI64({2, 1, 4, 2, 1});     // old: rows 0-2, new: 3-4
  CheckIndexedEqualsDeltaJoin(*l, 4, *r, 3);
  // Empty retained portions (the seed fire): everything from new x new.
  CheckIndexedEqualsDeltaJoin(*l, 0, *r, 0);
  CheckIndexedEqualsDeltaJoin(*l, 0, *r, 3);
  // Empty new portions: no pairs at all, or only cross-side-new ones.
  CheckIndexedEqualsDeltaJoin(*l, l->size(), *r, r->size());
  CheckIndexedEqualsDeltaJoin(*l, l->size(), *r, 3);
  // Mixed-type keys meet in the f64 domain.
  auto rf = Bat::MakeF64({2.0, 1.0, 4.5, 2.0, 1.0});
  CheckIndexedEqualsDeltaJoin(*l, 4, *rf, 3);
  // String keys.
  auto ls = Bat::MakeStr({"a", "b", "a", "c"});
  auto rs = Bat::MakeStr({"b", "a", "a"});
  CheckIndexedEqualsDeltaJoin(*ls, 2, *rs, 2);
  // A split beyond the column is refused.
  ops::JoinHash empty;
  EXPECT_FALSE(
      ops::IndexedDeltaJoin(*l, l->size() + 1, empty, *r, 0, empty).ok());
}

TEST(RollingJoinIndexTest, AppendProbeEvict) {
  auto keys = Bat::MakeI64({7, 8, 7, 9});
  ops::JoinHash idx(TypeId::kI64);
  ASSERT_TRUE(idx.Append(*keys, 0, keys->size()).ok());
  EXPECT_EQ(idx.next_pos(), 4u);
  EXPECT_EQ(idx.live_entries(), 4u);

  auto probe = Bat::MakeI64({7, 9, 5});
  std::vector<Oid> probe_out, pos_out;
  ASSERT_TRUE(idx.Probe(*probe, 0, probe->size(), &probe_out, &pos_out).ok());
  EXPECT_EQ(probe_out, (std::vector<Oid>{0, 0, 1}));
  EXPECT_EQ(pos_out, (std::vector<Oid>{0, 2, 3}));  // ascending per probe row

  // Evicting positions < 2 hides the first 7 but keeps the second.
  idx.EvictBelow(2);
  EXPECT_EQ(idx.live_entries(), 2u);
  probe_out.clear();
  pos_out.clear();
  ASSERT_TRUE(idx.Probe(*probe, 0, probe->size(), &probe_out, &pos_out).ok());
  EXPECT_EQ(probe_out, (std::vector<Oid>{0, 1}));
  EXPECT_EQ(pos_out, (std::vector<Oid>{2, 3}));
}

TEST(RollingJoinIndexTest, RebaseShiftsPositionsWithOwnerTrim) {
  // Mirrors the factory's physical trim: DropHead on the rolling column
  // and Rebase on the index in the same step keep positions == row ids.
  auto keys = Bat::MakeStr({"x", "y", "x", "z"});
  ops::JoinHash idx(TypeId::kStr);
  ASSERT_TRUE(idx.Append(*keys, 0, keys->size()).ok());
  idx.EvictBelow(2);
  EXPECT_EQ(idx.Rebase(), 2u);
  keys->DropHead(2);
  EXPECT_EQ(idx.next_pos(), 2u);
  EXPECT_EQ(idx.dead_entries(), 0u);
  EXPECT_EQ(idx.num_keys(), 2u);  // "y" left with its only position

  auto probe = Bat::MakeStr({"x", "y", "z"});
  std::vector<Oid> probe_out, pos_out;
  ASSERT_TRUE(idx.Probe(*probe, 0, probe->size(), &probe_out, &pos_out).ok());
  // Surviving rows are "x" (now row 0) and "z" (now row 1); "y" was
  // evicted with the prefix.
  EXPECT_EQ(probe_out, (std::vector<Oid>{0, 2}));
  EXPECT_EQ(pos_out, (std::vector<Oid>{0, 1}));
  for (size_t i = 0; i < pos_out.size(); ++i) {
    EXPECT_EQ(keys->StrAt(pos_out[i]), probe->StrAt(probe_out[i]));
  }
}

TEST(RollingJoinIndexTest, F64DomainPromotesAndNormalizesZero) {
  auto keys = Bat::MakeF64({1.0, -0.0, 2.5});
  ops::JoinHash idx(TypeId::kF64);
  ASSERT_TRUE(idx.Append(*keys, 0, keys->size()).ok());
  // i64 probe keys are promoted; +0.0 must find the indexed -0.0.
  auto probe = Bat::MakeI64({1, 0});
  std::vector<Oid> probe_out, pos_out;
  ASSERT_TRUE(idx.Probe(*probe, 0, probe->size(), &probe_out, &pos_out).ok());
  EXPECT_EQ(probe_out, (std::vector<Oid>{0, 1}));
  EXPECT_EQ(pos_out, (std::vector<Oid>{0, 1}));
}

TEST(JoinHashTest, TypeAndRangeErrors) {
  ops::JoinHash idx(TypeId::kI64);
  auto s = Bat::MakeStr({"a"});
  auto i = Bat::MakeI64({1, 2});
  EXPECT_FALSE(idx.Append(*s, 0, 1).ok());
  EXPECT_FALSE(idx.Append(*i, 1, 3).ok());
  std::vector<Oid> a, b;
  EXPECT_FALSE(idx.Probe(*s, 0, 1, &a, &b).ok());
  EXPECT_FALSE(idx.Probe(*i, 0, 3, &a, &b).ok());
  EXPECT_EQ(idx.next_pos(), 0u);
}

// The delta indexes charge their real footprint: the key store (here
// 1 000 distinct 100-byte strings), the key map, the chain heads and the
// links — not a per-position guess — and Rebase gives the bytes of the
// keys it drops back.
TEST(JoinHashTest, MemoryBytesCoversKeysAndShrinksOnRebase) {
  std::vector<std::string> strs;
  for (int i = 0; i < 1000; ++i) {
    strs.push_back(StrFormat("%04d", i) + std::string(96, 'k'));
  }
  auto keys = Bat::MakeStr(strs);

  ops::GroupTable groups({TypeId::kStr}, {});
  ASSERT_TRUE(groups.AddRows({keys.get()}, {}).ok());
  exec::DeltaGroupTrack track;
  track.Reset(TypeId::kStr);
  ASSERT_TRUE(track.AppendGroups(0, groups).ok());
  EXPECT_GE(track.MemoryBytes(), 100u * 1000u);
  EXPECT_GE(track.index.MemoryBytes(), 100u * 1000u);

  ops::JoinHash idx(TypeId::kStr);
  ASSERT_TRUE(idx.Append(*keys, 0, keys->size()).ok());
  const size_t full = idx.MemoryBytes();
  EXPECT_GE(full, 100u * 1000u);
  idx.EvictBelow(500);
  EXPECT_EQ(idx.MemoryBytes(), full);  // eviction alone frees nothing
  EXPECT_EQ(idx.Rebase(), 500u);
  EXPECT_EQ(idx.num_keys(), 500u);
  EXPECT_LT(idx.MemoryBytes(), full);
  EXPECT_GE(idx.MemoryBytes(), 50u * 1000u);  // the surviving keys
}

TEST(JoinTest, FetchOids) {
  auto col = Bat::MakeStr({"x", "y", "z"});
  auto out = ops::FetchOids(*col, {2, 0, 2});
  EXPECT_EQ(out->size(), 3u);
  EXPECT_EQ(out->StrAt(0), "z");
  EXPECT_EQ(out->StrAt(2), "z");
}

// Finalized columns of a table built from `keys` / `values` in one call.
std::vector<BatPtr> GroupWhole(const std::vector<TypeId>& key_types,
                               const std::vector<std::pair<AggKind, TypeId>>&
                                   aggs,
                               const std::vector<const Bat*>& keys,
                               const std::vector<const Bat*>& values) {
  ops::GroupTable t(key_types, aggs);
  EXPECT_TRUE(t.AddRows(keys, values).ok());
  auto cols = t.Finalize();
  EXPECT_TRUE(cols.ok());
  return cols.ok() ? *cols : std::vector<BatPtr>{};
}

TEST(GroupTableTest, SingleKey) {
  // Each row's group shows in the sum of row ids it collects.
  auto key = Bat::MakeI64({1, 2, 1, 3, 2});
  auto rowid = Bat::MakeI64({0, 1, 2, 3, 4});
  const auto cols = GroupWhole(
      {TypeId::kI64}, {{AggKind::kCount, TypeId::kI64},
                       {AggKind::kSum, TypeId::kI64}},
      {key.get()}, {nullptr, rowid.get()});
  ASSERT_EQ(cols.size(), 3u);
  ASSERT_EQ(cols[0]->size(), 3u);
  EXPECT_EQ(std::vector<int64_t>(cols[0]->I64Data().begin(),
                                 cols[0]->I64Data().end()),
            (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(std::vector<int64_t>(cols[1]->I64Data().begin(),
                                 cols[1]->I64Data().end()),
            (std::vector<int64_t>{2, 2, 1}));
  EXPECT_EQ(std::vector<int64_t>(cols[2]->I64Data().begin(),
                                 cols[2]->I64Data().end()),
            (std::vector<int64_t>{0 + 2, 1 + 4, 3}));
}

TEST(GroupTableTest, MultiKey) {
  auto k1 = Bat::MakeI64({1, 1, 2, 1});
  auto k2 = Bat::MakeStr({"a", "b", "a", "a"});
  auto rowid = Bat::MakeI64({0, 1, 2, 3});
  const auto cols = GroupWhole({TypeId::kI64, TypeId::kStr},
                               {{AggKind::kSum, TypeId::kI64}},
                               {k1.get(), k2.get()}, {rowid.get()});
  ASSERT_EQ(cols.size(), 3u);
  ASSERT_EQ(cols[0]->size(), 3u);
  // Row 3 joins row 0's group: (1,a) collects rows 0 and 3.
  EXPECT_EQ(cols[0]->I64Data()[0], 1);
  EXPECT_EQ(cols[1]->StrAt(0), "a");
  EXPECT_EQ(cols[2]->I64Data()[0], 0 + 3);
  EXPECT_EQ(cols[1]->StrAt(1), "b");
  EXPECT_EQ(cols[0]->I64Data()[2], 2);
}

TEST(GroupTableTest, GroupedAggregates) {
  auto key = Bat::MakeI64({1, 2, 1, 2});
  auto val = Bat::MakeI64({10, 20, 30, 40});
  const auto cols = GroupWhole(
      {TypeId::kI64},
      {{AggKind::kSum, TypeId::kI64},
       {AggKind::kCount, TypeId::kI64},
       {AggKind::kAvg, TypeId::kI64}},
      {key.get()}, {val.get(), nullptr, val.get()});
  ASSERT_EQ(cols.size(), 4u);
  EXPECT_EQ(cols[1]->I64Data()[0], 40);
  EXPECT_EQ(cols[1]->I64Data()[1], 60);
  EXPECT_EQ(cols[2]->I64Data()[0], 2);
  EXPECT_EQ(cols[3]->F64Data()[0], 20.0);
}

// All NULL cells of a key column form one group, whose key cell is NULL;
// a NULL's payload (0, "") never matches a real 0 or "". Once a table holds
// a NULL group, batches without NULLs still probe null-aware, and Merge
// keeps NULL groups apart from the rest, into an empty or a filled table.
TEST(GroupTableTest, NullKeysFormOneGroup) {
  const std::vector<std::pair<AggKind, TypeId>> layout{
      {AggKind::kCount, TypeId::kI64}, {AggKind::kSum, TypeId::kI64}};
  auto key = Bat::MakeEmpty(TypeId::kI64);
  key->AppendI64(1);
  key->AppendNull();
  key->AppendI64(0);
  key->AppendNull();
  key->AppendI64(1);
  auto rowid = Bat::MakeI64({0, 1, 2, 3, 4});
  ops::GroupTable t({TypeId::kI64}, layout);
  ASSERT_TRUE(t.AddRows({key.get()}, {nullptr, rowid.get()}).ok());
  auto more = Bat::MakeI64({0, 1});
  auto more_id = Bat::MakeI64({10, 20});
  ASSERT_TRUE(t.AddRows({more.get()}, {nullptr, more_id.get()}).ok());
  auto check = [](const ops::GroupTable& g) {
    auto cols = g.Finalize();
    ASSERT_TRUE(cols.ok());
    const std::vector<BatPtr>& c = *cols;
    ASSERT_EQ(c[0]->size(), 3u);  // groups 1, NULL, 0
    EXPECT_FALSE(c[0]->IsNull(0));
    EXPECT_TRUE(c[0]->IsNull(1));
    EXPECT_FALSE(c[0]->IsNull(2));
    EXPECT_EQ(c[0]->I64Data()[0], 1);
    EXPECT_EQ(c[0]->I64Data()[2], 0);
    EXPECT_EQ(c[1]->I64Data()[0], 3);
    EXPECT_EQ(c[1]->I64Data()[1], 2);
    EXPECT_EQ(c[1]->I64Data()[2], 2);
    EXPECT_EQ(c[2]->I64Data()[0], 0 + 4 + 20);
    EXPECT_EQ(c[2]->I64Data()[1], 1 + 3);
    EXPECT_EQ(c[2]->I64Data()[2], 2 + 10);
  };
  check(t);

  // The same rows as partials: [1, NULL], [0, NULL, 1] and [0, 1].
  auto part = [&](const BatPtr& k, const BatPtr& v, uint64_t from,
                  uint64_t to) {
    ops::GroupTable p({TypeId::kI64}, layout);
    auto ks = k->Slice(from, to);
    auto vs = v->Slice(from, to);
    EXPECT_TRUE(p.AddRows({ks.get()}, {nullptr, vs.get()}).ok());
    return p;
  };
  ops::GroupTable merged({TypeId::kI64}, layout);
  for (const ops::GroupTable& p :
       {part(key, rowid, 0, 2), part(key, rowid, 2, 5),
        part(more, more_id, 0, 2)}) {
    ASSERT_TRUE(merged.Merge(p).ok());
  }
  check(merged);

  // Several keys: (NULL, "") is neither ("", "") nor (NULL, "a").
  auto k1 = Bat::MakeEmpty(TypeId::kStr);
  auto k2 = Bat::MakeStr({"", "", "a", "", "a"});
  k1->AppendNull();
  k1->AppendStr("");
  k1->AppendNull();
  k1->AppendNull();
  k1->AppendNull();
  const auto cols = GroupWhole({TypeId::kStr, TypeId::kStr},
                               {{AggKind::kCount, TypeId::kI64}},
                               {k1.get(), k2.get()}, {nullptr});
  ASSERT_EQ(cols[0]->size(), 3u);
  EXPECT_TRUE(cols[0]->IsNull(0));
  EXPECT_FALSE(cols[0]->IsNull(1));
  EXPECT_TRUE(cols[0]->IsNull(2));
  EXPECT_EQ(cols[2]->I64Data()[0], 2);
  EXPECT_EQ(cols[2]->I64Data()[1], 1);
  EXPECT_EQ(cols[2]->I64Data()[2], 2);

  // f64: the NULLs share one group, each NaN keeps its own.
  auto x = Bat::MakeEmpty(TypeId::kF64);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  x->AppendF64(nan);
  x->AppendNull();
  x->AppendF64(nan);
  x->AppendNull();
  x->AppendF64(0.0);
  const auto fcols = GroupWhole({TypeId::kF64},
                                {{AggKind::kCount, TypeId::kI64}},
                                {x.get()}, {nullptr});
  ASSERT_EQ(fcols[0]->size(), 4u);  // NaN, NULL, NaN, 0
  EXPECT_TRUE(fcols[0]->IsNull(1));
  EXPECT_EQ(fcols[1]->I64Data()[1], 2);
  EXPECT_EQ(fcols[1]->I64Data()[3], 1);
}

// Each NaN key is its own group, yet every NaN hashes alike. Salting a
// NaN key's hash with its group id keeps grouping them linear on the typed
// f64 probe, the generic multi-key probe and Merge, where partials' NaN
// groups share ids. Unsalted, the NaN groups formed one probe cluster:
// O(n^2), tens of seconds for 200 000 NaN keys.
TEST(GroupTableTest, NaNKeysGroupInLinearTime) {
  constexpr uint64_t kRows = 200000;
  constexpr uint64_t kPartRows = 10;
  const std::vector<std::pair<AggKind, TypeId>> count{
      {AggKind::kCount, TypeId::kI64}};
  auto tag = Bat::MakeI64(std::vector<int64_t>(kRows, 7));
  // Groups kRows distinct keys three ways: the typed f64 probe, the
  // generic multi-key probe, and Merge of kPartRows-group partials.
  // `key(i)` gives the i-th key; returns the seconds taken.
  auto group_all = [&](auto key) {
    std::vector<double> vals(kRows);
    for (uint64_t i = 0; i < kRows; ++i) vals[i] = key(i);
    auto col = Bat::MakeF64(vals);
    const auto start = std::chrono::steady_clock::now();
    ops::GroupTable typed({TypeId::kF64}, count);
    EXPECT_TRUE(typed.AddRows({col.get()}, {nullptr}).ok());
    EXPECT_EQ(typed.num_groups(), kRows);
    ops::GroupTable generic({TypeId::kI64, TypeId::kF64}, count);
    EXPECT_TRUE(generic.AddRows({tag.get(), col.get()}, {nullptr}).ok());
    EXPECT_EQ(generic.num_groups(), kRows);
    ops::GroupTable merged({TypeId::kF64}, count);
    for (uint64_t p = 0; p < kRows / kPartRows; ++p) {
      auto slice = col->Slice(p * kPartRows, (p + 1) * kPartRows);
      ops::GroupTable part({TypeId::kF64}, count);
      EXPECT_TRUE(part.AddRows({slice.get()}, {nullptr}).ok());
      EXPECT_TRUE(merged.Merge(part).ok());
    }
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    EXPECT_EQ(merged.num_groups(), kRows);
    auto cols = merged.Finalize();
    EXPECT_TRUE(cols.ok());
    if (cols.ok()) {
      const double last = (*cols)[0]->F64Data()[kRows - 1];
      EXPECT_TRUE(last == key(kRows - 1) ||
                  (std::isnan(last) && std::isnan(key(kRows - 1))));
      EXPECT_EQ((*cols)[1]->I64Data()[kRows - 1], 1);
    }
    return secs;
  };
  auto finite = [](uint64_t i) { return static_cast<double>(i); };
  auto nan = [](uint64_t) { return static_cast<double>(NAN); };

  // Relative to distinct finite keys, so a slow build or a loaded machine
  // scales both sides; one probe cluster of NaN keys reads thousands of
  // times slower here. Best of two runs each damps scheduling noise.
  double finite_s = 1e9, nan_s = 1e9;
  for (int rep = 0; rep < 2; ++rep) {
    finite_s = std::min(finite_s, group_all(finite));
    nan_s = std::min(nan_s, group_all(nan));
  }
  EXPECT_LT(nan_s, 10 * finite_s)
      << "NaN keys " << nan_s << " s, finite keys " << finite_s << " s";
}

// A scalar (keyless) table with one aggregate, `kind` over `type`, folded
// over `rows` rows of `col` (null for COUNT(*)).
ops::GroupTable ScalarTable(AggKind kind, TypeId type, const Bat* col,
                            uint64_t rows) {
  ops::GroupTable t({}, {{kind, type}});
  EXPECT_TRUE(t.AddRows(rows, {col}).ok());
  return t;
}

// The finalized cell of aggregate `a` in group `g` of `t`.
Value Final(const ops::GroupTable& t, size_t a = 0, uint64_t g = 0) {
  auto cols = t.Finalize();
  EXPECT_TRUE(cols.ok()) << cols.status().ToString();
  if (!cols.ok()) return Value::Null(TypeId::kI64);
  return (*cols)[cols->size() - t.num_aggs() + a]->GetValue(g);
}

TEST(AggStateTest, ScalarAggregates) {
  auto col = Bat::MakeI64({4, 8, 2, 6});
  EXPECT_EQ(Final(ScalarTable(AggKind::kSum, TypeId::kI64, col.get(), 4))
                .AsI64(),
            20);
  EXPECT_EQ(Final(ScalarTable(AggKind::kMin, TypeId::kI64, col.get(), 4))
                .AsI64(),
            2);
  EXPECT_EQ(Final(ScalarTable(AggKind::kMax, TypeId::kI64, col.get(), 4))
                .AsI64(),
            8);
  EXPECT_EQ(Final(ScalarTable(AggKind::kAvg, TypeId::kI64, col.get(), 4))
                .AsF64(),
            5.0);
  EXPECT_EQ(
      Final(ScalarTable(AggKind::kCount, TypeId::kI64, nullptr, 4)).AsI64(),
      4);
}

TEST(AggStateTest, MergeEqualsWhole) {
  // The incremental invariant in miniature: folding two halves and merging
  // must equal folding the whole.
  auto whole = Bat::MakeF64({1.5, -2.0, 7.25, 0.0, 3.5, 9.0});
  auto a = whole->Slice(0, 3);
  auto b = whole->Slice(3, 6);
  for (AggKind k : {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                    AggKind::kMin, AggKind::kMax}) {
    ops::GroupTable sa = ScalarTable(k, TypeId::kF64, a.get(), 3);
    const ops::GroupTable sb = ScalarTable(k, TypeId::kF64, b.get(), 3);
    const ops::GroupTable sw = ScalarTable(k, TypeId::kF64, whole.get(), 6);
    ASSERT_TRUE(sa.Merge(sb).ok());
    EXPECT_EQ(Final(sa).ToString(), Final(sw).ToString())
        << ops::AggKindName(k);
  }
}

// SQL empty-input conventions: COUNT over zero rows is 0, everything else
// is a typed NULL (SUM keeps its result-type rule: f64 in, f64 NULL out).
TEST(AggStateTest, EmptyInputConventions) {
  auto empty = [](AggKind k, TypeId t) {
    return Final(ops::GroupTable({}, {{k, t}}));
  };
  EXPECT_EQ(empty(AggKind::kCount, TypeId::kI64).AsI64(), 0);
  EXPECT_TRUE(empty(AggKind::kSum, TypeId::kI64).is_null());
  EXPECT_EQ(empty(AggKind::kSum, TypeId::kI64).type(), TypeId::kI64);
  EXPECT_TRUE(empty(AggKind::kSum, TypeId::kF64).is_null());
  EXPECT_EQ(empty(AggKind::kSum, TypeId::kF64).type(), TypeId::kF64);
  EXPECT_TRUE(empty(AggKind::kAvg, TypeId::kI64).is_null());
  EXPECT_EQ(empty(AggKind::kAvg, TypeId::kI64).type(), TypeId::kF64);
  EXPECT_TRUE(empty(AggKind::kMin, TypeId::kStr).is_null());
  EXPECT_TRUE(empty(AggKind::kMax, TypeId::kStr).is_null());
  EXPECT_TRUE(empty(AggKind::kMin, TypeId::kI64).is_null());
  EXPECT_TRUE(empty(AggKind::kMax, TypeId::kF64).is_null());
  EXPECT_TRUE(empty(AggKind::kMin, TypeId::kTs).is_null());
  EXPECT_EQ(empty(AggKind::kMin, TypeId::kTs).type(), TypeId::kTs);
  EXPECT_EQ(empty(AggKind::kSum, TypeId::kI64).ToString(), "NULL");
}

// The one-group AggColumn of `kind` over `type`, folded over `col`.
ops::AggColumn OneGroup(AggKind kind, TypeId type, const Bat* col) {
  ops::AggColumn c(kind, type);
  c.Resize(1);
  if (col != nullptr) c.FoldAll(col, col->size(), 0);
  return c;
}

// Finalized cell of group `g` of `c`.
std::string FinalCell(const ops::AggColumn& c, uint64_t g = 0) {
  auto col = c.Finalize();
  EXPECT_TRUE(col.ok()) << col.status().ToString();
  return col.ok() ? (*col)->GetValue(g).ToString() : "?";
}

constexpr uint32_t kGroup0 = 0;

TEST(AggStateTest, ScaledMergeEqualsRepeatedMerge) {
  // Product rule of the pre-aggregated delta join: pairing a group of
  // rows with `times` opposite-side rows replicates count/sums `times`
  // times but leaves min/max untouched.
  auto ints = Bat::MakeI64({4, -1, 7});
  auto dbls = Bat::MakeF64({4, -1, 7});
  const uint64_t three = 3;
  for (const Bat* col : {ints.get(), dbls.get()}) {
    for (AggKind k : {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                      AggKind::kMin, AggKind::kMax}) {
      const ops::AggColumn other = OneGroup(k, col->type(), col);
      ops::AggColumn scaled = OneGroup(k, col->type(), nullptr);
      scaled.ScaledMerge(other, {&kGroup0, 1}, {&kGroup0, 1}, {&three, 1});
      ops::AggColumn repeated = OneGroup(k, col->type(), nullptr);
      for (int i = 0; i < 3; ++i) repeated.Merge(other, {&kGroup0, 1});

      EXPECT_EQ(scaled.count(0), repeated.count(0));
      EXPECT_EQ(FinalCell(scaled), FinalCell(repeated))
          << ops::AggKindName(k) << " over " << TypeName(col->type());
    }
  }
}

TEST(AggStateTest, ScaledMergeZeroTimesIsIdentity) {
  auto col = Bat::MakeI64({5});
  const ops::AggColumn other = OneGroup(AggKind::kSum, TypeId::kI64, col.get());
  ops::AggColumn s = OneGroup(AggKind::kSum, TypeId::kI64, nullptr);
  const uint64_t zero = 0;
  s.ScaledMerge(other, {&kGroup0, 1}, {&kGroup0, 1}, {&zero, 1});
  EXPECT_EQ(s.count(0), 0u);
  EXPECT_EQ(FinalCell(s), "NULL");
}

// Aggregates skip NULL argument cells: COUNT(col) counts the others and
// SUM/AVG/MIN/MAX fold only them, on the scalar and the grouped path. A
// group whose cells are all NULL has COUNT 0 and NULL everywhere else;
// COUNT(*) still counts its rows.
TEST(AggStateTest, NullCellsAreSkipped) {
  auto v = Bat::MakeEmpty(TypeId::kI64);
  const std::vector<std::optional<int64_t>> cells{10, std::nullopt, 5,
                                                  std::nullopt, std::nullopt};
  for (const std::optional<int64_t>& x : cells) {
    if (x) {
      v->AppendI64(*x);
    } else {
      v->AppendNull();
    }
  }
  auto key = Bat::MakeI64({1, 1, 1, 2, 2});  // group 2: all NULL
  const std::vector<std::pair<AggKind, TypeId>> aggs{
      {AggKind::kCount, TypeId::kI64}, {AggKind::kCount, TypeId::kI64},
      {AggKind::kSum, TypeId::kI64},   {AggKind::kAvg, TypeId::kI64},
      {AggKind::kMin, TypeId::kI64},   {AggKind::kMax, TypeId::kI64}};
  const std::vector<const Bat*> args{nullptr, v.get(), v.get(),
                                     v.get(), v.get(), v.get()};
  auto row = [&](const ops::GroupTable& t, uint64_t g) {
    std::string out;
    for (size_t a = 0; a < aggs.size(); ++a) {
      out += Final(t, a, g).ToString() + "|";
    }
    return out;
  };

  auto head = v->Slice(0, 3);  // the group-1 rows alone, scalar
  ops::GroupTable scalar({}, aggs);
  ASSERT_TRUE(scalar.AddRows(3, {nullptr, head.get(), head.get(), head.get(),
                                 head.get(), head.get()})
                  .ok());
  EXPECT_EQ(row(scalar, 0), "3|2|15|7.5|5|10|");

  ops::GroupTable grouped({TypeId::kI64}, aggs);
  ASSERT_TRUE(grouped.AddRows({key.get()}, args).ok());
  EXPECT_EQ(row(grouped, 0), "3|2|15|7.5|5|10|");
  EXPECT_EQ(row(grouped, 1), "2|0|NULL|NULL|NULL|NULL|");

  // Merged from one-row partials, NULL-only ones included.
  ops::GroupTable merged({TypeId::kI64}, aggs);
  for (uint64_t r = 0; r < key->size(); ++r) {
    auto k = key->Slice(r, r + 1);
    auto x = v->Slice(r, r + 1);
    ops::GroupTable part({TypeId::kI64}, aggs);
    ASSERT_TRUE(part.AddRows({k.get()}, {nullptr, x.get(), x.get(), x.get(),
                                         x.get(), x.get()})
                    .ok());
    ASSERT_TRUE(merged.Merge(part).ok());
  }
  EXPECT_EQ(row(merged, 0), "3|2|15|7.5|5|10|");
  EXPECT_EQ(row(merged, 1), "2|0|NULL|NULL|NULL|NULL|");
}

// f64 MIN/MAX order NaN above every number (PostgreSQL's rule), so over
// NaN, 5, 3 MAX is NaN and MIN is 3 whatever the row order, the partial
// split, the path (scalar or grouped, fold, merge or scaled merge); over
// NaN alone both are NaN.
TEST(AggStateTest, NaNOrderIsPathIndependent) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<AggKind, TypeId>> aggs{
      {AggKind::kMin, TypeId::kF64}, {AggKind::kMax, TypeId::kF64}};
  auto render = [](const Value& v) {
    return std::isnan(v.AsF64()) ? std::string("NaN") : v.ToString();
  };
  for (const auto& [input, want_min, want_max] :
       std::vector<std::tuple<std::vector<double>, std::string, std::string>>{
           {{nan, 5, 3}, "3", "NaN"}, {{nan, nan}, "NaN", "NaN"}}) {
    std::vector<double> vals = input;
    std::sort(vals.begin(), vals.end(),
              [](double a, double b) { return ops::F64Less(a, b); });
    do {
      auto col = Bat::MakeF64(vals);
      auto key = Bat::MakeI64(std::vector<int64_t>(vals.size(), 7));
      const uint64_t n = vals.size();
      // Every split of the rows into a prefix and a suffix partial.
      for (uint64_t cut = 0; cut <= n; ++cut) {
        auto c1 = col->Slice(0, cut);
        auto c2 = col->Slice(cut, n);
        auto k1 = key->Slice(0, cut);
        auto k2 = key->Slice(cut, n);
        ops::GroupTable s1({}, aggs), s2({}, aggs);
        ASSERT_TRUE(s1.AddRows(cut, {c1.get(), c1.get()}).ok());
        ASSERT_TRUE(s2.AddRows(n - cut, {c2.get(), c2.get()}).ok());
        ASSERT_TRUE(s1.Merge(s2).ok());
        ops::GroupTable g1({TypeId::kI64}, aggs), g2({TypeId::kI64}, aggs);
        ASSERT_TRUE(g1.AddRows({k1.get()}, {c1.get(), c1.get()}).ok());
        ASSERT_TRUE(g2.AddRows({k2.get()}, {c2.get(), c2.get()}).ok());
        ASSERT_TRUE(g1.Merge(g2).ok());
        // The delta pre-aggregation's product rule over the same split.
        std::vector<ops::AggColumn> scaled;
        for (const auto& [kind, type] : aggs) {
          scaled.push_back(OneGroup(kind, type, nullptr));
          const uint64_t twice = 2;
          for (const Bat* part : {c1.get(), c2.get()}) {
            const ops::AggColumn p = OneGroup(kind, type, part);
            scaled.back().ScaledMerge(p, {&kGroup0, 1}, {&kGroup0, 1},
                                      {&twice, 1});
          }
        }
        const std::string where = StrFormat(
            "rows %s cut %llu", col->ToString().c_str(),
            static_cast<unsigned long long>(cut));
        for (const ops::GroupTable* t : {&s1, &g1}) {
          EXPECT_EQ(render(Final(*t, 0)), want_min) << where;
          EXPECT_EQ(render(Final(*t, 1)), want_max) << where;
        }
        for (size_t a = 0; a < 2; ++a) {
          auto fin = scaled[a].Finalize();
          ASSERT_TRUE(fin.ok());
          EXPECT_EQ(render((*fin)->GetValue(0)), a == 0 ? want_min : want_max)
              << where;
        }
      }
    } while (std::next_permutation(
        vals.begin(), vals.end(),
        [](double a, double b) { return ops::F64Less(a, b); }));
  }
}

// States are flat columns: a count(*) + sum(i64) partial over 5 000
// groups holds at most 48 bytes per group beyond what the same groups
// cost without aggregates (keys, row counts, key map). Two boxed-Value
// states of 128 bytes each per group would need 256.
TEST(GroupTableTest, FlatStateFootprint) {
  constexpr int64_t kGroups = 5000;
  std::vector<int64_t> ks(kGroups), vs(kGroups);
  for (int64_t i = 0; i < kGroups; ++i) {
    ks[i] = i * 7919;
    vs[i] = i;
  }
  auto keys = Bat::MakeI64(ks);
  auto vals = Bat::MakeI64(vs);
  ops::GroupTable bare({TypeId::kI64}, {});
  ASSERT_TRUE(bare.AddRows({keys.get()}, {}).ok());
  ops::GroupTable partial({TypeId::kI64}, {{AggKind::kCount, TypeId::kI64},
                                           {AggKind::kSum, TypeId::kI64}});
  ASSERT_TRUE(partial.AddRows({keys.get()}, {nullptr, vals.get()}).ok());
  ASSERT_EQ(partial.num_groups(), static_cast<uint64_t>(kGroups));
  EXPECT_LE(partial.MemoryBytes(), bare.MemoryBytes() + 48 * kGroups)
      << partial.MemoryBytes() - bare.MemoryBytes() << " state bytes";
}

TEST(GroupTableTest, MergePartialsEqualsWhole) {
  const std::vector<TypeId> key_types{TypeId::kStr};
  const std::vector<std::pair<AggKind, TypeId>> aggs{
      {AggKind::kSum, TypeId::kI64}, {AggKind::kCount, TypeId::kI64}};

  auto keys = Bat::MakeStr({"a", "b", "a", "c", "b", "a"});
  auto vals = Bat::MakeI64({1, 2, 3, 4, 5, 6});

  ops::GroupTable whole(key_types, aggs);
  ASSERT_TRUE(whole.AddRows({keys.get()}, {vals.get(), nullptr}).ok());

  ops::GroupTable m1(key_types, aggs), m2(key_types, aggs);
  auto k1 = keys->Slice(0, 3);
  auto v1 = vals->Slice(0, 3);
  auto k2 = keys->Slice(3, 6);
  auto v2 = vals->Slice(3, 6);
  ASSERT_TRUE(m1.AddRows({k1.get()}, {v1.get(), nullptr}).ok());
  ASSERT_TRUE(m2.AddRows({k2.get()}, {v2.get(), nullptr}).ok());
  ASSERT_TRUE(m1.Merge(m2).ok());

  auto cw = whole.Finalize();
  auto cm = m1.Finalize();
  ASSERT_TRUE(cw.ok() && cm.ok());
  ASSERT_EQ((*cw)[0]->size(), (*cm)[0]->size());
  for (uint64_t i = 0; i < (*cw)[0]->size(); ++i) {
    EXPECT_EQ((*cw)[0]->GetValue(i).ToString(),
              (*cm)[0]->GetValue(i).ToString());
    EXPECT_EQ((*cw)[1]->GetValue(i).AsI64(), (*cm)[1]->GetValue(i).AsI64());
    EXPECT_EQ((*cw)[2]->GetValue(i).AsI64(), (*cm)[2]->GetValue(i).AsI64());
  }
}

// Expands MergeSortedRuns' run-length slices back to (run, row) pairs.
static std::vector<std::pair<int, Oid>> ExpandSlices(
    const std::vector<ops::MergeSlice>& slices) {
  std::vector<std::pair<int, Oid>> out;
  for (const ops::MergeSlice& s : slices) {
    for (uint64_t i = 0; i < s.len; ++i) out.emplace_back(s.run, s.begin + i);
  }
  return out;
}

TEST(SortTest, MergeSortedRunsEqualsStableSortOfConcat) {
  // Three runs with duplicate keys; merging must equal a stable sort of
  // the concatenation (ties keep run order, then in-run order) — the
  // incremental ORDER BY tail invariant.
  auto r0 = Bat::MakeI64({1, 3, 3, 8});
  auto r1 = Bat::MakeI64({2, 3, 9});
  auto r2 = Bat::MakeI64({3});
  auto merged = ops::MergeSortedRuns(
      {{{r0.get(), true}}, {{r1.get(), true}}, {{r2.get(), true}}});
  ASSERT_TRUE(merged.ok());
  const std::vector<std::pair<int, Oid>> want{
      {0, 0}, {1, 0}, {0, 1}, {0, 2}, {1, 1}, {2, 0}, {0, 3}, {1, 2}};
  EXPECT_EQ(ExpandSlices(*merged), want);
  // Slices are maximal: consecutive rows from one run coalesce, so the
  // 3,3 tie inside r0 is a single slice.
  for (size_t i = 1; i < merged->size(); ++i) {
    const ops::MergeSlice& prev = (*merged)[i - 1];
    const ops::MergeSlice& cur = (*merged)[i];
    EXPECT_FALSE(prev.run == cur.run && prev.begin + prev.len == cur.begin)
        << "slices " << i - 1 << " and " << i << " should have coalesced";
  }
}

TEST(SortTest, MergeSortedRunsDescendingAndEmptyRuns) {
  auto r0 = Bat::MakeI64({9, 4});
  auto r1 = Bat::MakeEmpty(TypeId::kI64);
  auto r2 = Bat::MakeI64({7});
  auto merged = ops::MergeSortedRuns(
      {{{r0.get(), false}}, {{r1.get(), false}}, {{r2.get(), false}}});
  ASSERT_TRUE(merged.ok());
  const std::vector<std::pair<int, Oid>> want{{0, 0}, {2, 0}, {0, 1}};
  EXPECT_EQ(ExpandSlices(*merged), want);
}

TEST(SortTest, MergeSortedRunsSingleRunIsOneSlice) {
  auto r0 = Bat::MakeI64({1, 2, 3, 4});
  auto merged = ops::MergeSortedRuns({{{r0.get(), true}}});
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->size(), 1u);
  EXPECT_EQ((*merged)[0].run, 0);
  EXPECT_EQ((*merged)[0].begin, 0u);
  EXPECT_EQ((*merged)[0].len, 4u);
}

TEST(SortTest, SingleKeyAscDesc) {
  auto col = Bat::MakeI64({3, 1, 2});
  auto asc = ops::SortOrder({{col.get(), true}});
  ASSERT_TRUE(asc.ok());
  EXPECT_EQ(*asc, (std::vector<Oid>{1, 2, 0}));
  auto desc = ops::SortOrder({{col.get(), false}});
  EXPECT_EQ(*desc, (std::vector<Oid>{0, 2, 1}));
}

TEST(SortTest, MultiKeyStable) {
  auto k1 = Bat::MakeI64({1, 2, 1, 2});
  auto k2 = Bat::MakeStr({"z", "a", "a", "z"});
  auto order = ops::SortOrder({{k1.get(), true}, {k2.get(), true}});
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(*order, (std::vector<Oid>{2, 0, 1, 3}));
}

TEST(SortTest, WithCandidates) {
  auto col = Bat::MakeI64({9, 3, 7, 1});
  auto cand = Candidates::FromVector({0, 2, 3});
  auto order = ops::SortOrder({{col.get(), true}}, &cand);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(*order, (std::vector<Oid>{3, 2, 0}));
}

// --- Grouping oracle -------------------------------------------------------
//
// GroupTable against a brute-force reference that shares none of its code:
// a std::map from key tuple to group (a row with a NaN key cell skips the
// map, since each NaN is its own group) and plain per-group accumulators
// (MIN/MAX in PostgreSQL's order, with NaN above every number).
// Keys are 1-3 columns over all five types with small domains (NaN, -0.0,
// duplicate and empty strings, and in some columns NULLs, which form one
// group per key column like any other value); the rows are split at random into
// contiguous, possibly empty partials, each grouped by its own table and
// merged in order. Seeded like the other fuzzers: DC_FUZZ_SEED overrides
// the base seed, DC_FUZZ_ROUNDS the round count.

constexpr TypeId kAllTypes[] = {TypeId::kBool, TypeId::kI64, TypeId::kF64,
                                TypeId::kStr, TypeId::kTs};

BatPtr OracleColumn(Rng& rng, TypeId t, uint64_t n, bool is_key) {
  static const char* const kStrs[] = {"", "a", "b", "ab", "a"};
  static const double kKeyF64[] = {0.0, -0.0, 1.5, -2.25, NAN, 3.0};
  // Argument values include NaN, which MIN/MAX order above every number.
  static const double kArgF64[] = {0.0,  -0.0, 0.1, 1e16,
                                   -3.75, 2.5,  0.3, NAN};
  const int64_t i64_hi = rng.Bernoulli(0.5) ? 3 : 1000;  // few or many groups
  // Some key columns hold NULLs, as a nullable table column does.
  const double null_p = is_key && rng.Bernoulli(0.3) ? 0.2 : 0;
  BatPtr col = Bat::MakeEmpty(t);
  for (uint64_t i = 0; i < n; ++i) {
    if (null_p > 0 && rng.Bernoulli(null_p)) {
      col->AppendNull();
      continue;
    }
    switch (t) {
      case TypeId::kBool:
        col->AppendBool(rng.Bernoulli(0.5));
        break;
      case TypeId::kI64:
        col->AppendI64(rng.UniformInt(-3, i64_hi));
        break;
      case TypeId::kTs:
        col->AppendI64(rng.UniformInt(0, 4) * 1000);
        break;
      case TypeId::kF64:
        col->AppendF64(is_key ? kKeyF64[rng.UniformInt(0, 5)]
                              : kArgF64[rng.UniformInt(0, 7)]);
        break;
      case TypeId::kStr:
        col->AppendStr(kStrs[rng.UniformInt(0, 4)]);
        break;
    }
  }
  return col;
}

/// Exact rendering of one cell: type, and doubles bit for bit.
std::string RenderCell(const Value& v) {
  std::string out = TypeName(v.type());
  out += ':';
  if (v.is_null()) return out + "NULL";
  if (v.type() == TypeId::kF64) return out + StrFormat("%a", v.AsF64());
  return out + v.ToString();
}

/// One string per group: its finalized cells, then its row count.
std::vector<std::string> RenderRows(const ops::GroupTable& t) {
  const auto cols = t.Finalize();
  EXPECT_TRUE(cols.ok());
  std::vector<std::string> rows(t.num_groups());
  for (uint64_t g = 0; g < rows.size(); ++g) {
    for (const BatPtr& c : *cols) rows[g] += RenderCell(c->GetValue(g)) + "|";
    rows[g] += StrFormat("rows=%llu",
                         static_cast<unsigned long long>(t.counts()[g]));
  }
  return rows;
}

struct OracleCase {
  std::vector<TypeId> key_types;
  std::vector<std::pair<AggKind, TypeId>> aggs;
  std::vector<BatPtr> keys;
  std::vector<BatPtr> args;  // null for COUNT(*)
  uint64_t rows = 0;
};

/// The reference's MIN/MAX order: Value::Compare, except that a NaN
/// equals every NaN and sorts above every number (PostgreSQL's rule).
bool RefLess(const Value& a, const Value& b) {
  if (a.type() == TypeId::kF64 && std::isnan(a.AsF64())) return false;
  if (b.type() == TypeId::kF64 && std::isnan(b.AsF64())) return true;
  return a.Compare(b) < 0;
}

/// Expected rows of `c` grouped as the partials [cuts[p], cuts[p+1]).
std::vector<std::string> ReferenceRows(const OracleCase& c,
                                       const std::vector<uint64_t>& cuts) {
  struct KeyLess {
    bool operator()(const std::vector<Value>& a,
                    const std::vector<Value>& b) const {
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].is_null() || b[i].is_null()) {  // NULL first, NULL == NULL
          if (a[i].is_null() != b[i].is_null()) return a[i].is_null();
          continue;
        }
        const int cmp = a[i].Compare(b[i]);
        if (cmp != 0) return cmp < 0;
      }
      return false;
    }
  };
  struct Acc {  // one aggregate over a group's rows in one partial
    uint64_t count = 0;
    int64_t isum = 0;
    double dsum = 0;
  };
  struct Group {
    std::vector<Value> key;
    std::vector<std::vector<Acc>> parts;  // per partial holding the group
    size_t last_part = SIZE_MAX;
    std::vector<std::optional<Value>> min, max;
    uint64_t rows = 0;
  };
  const size_t nagg = c.aggs.size();
  std::map<std::vector<Value>, size_t, KeyLess> index;
  std::vector<Group> groups;
  for (size_t p = 0; p + 1 < cuts.size(); ++p) {
    for (uint64_t r = cuts[p]; r < cuts[p + 1]; ++r) {
      std::vector<Value> key;
      bool nan = false;
      for (const BatPtr& k : c.keys) {
        key.push_back(k->GetValue(r));
        nan = nan || (k->type() == TypeId::kF64 && !key.back().is_null() &&
                      std::isnan(key.back().AsF64()));
      }
      size_t g;
      auto it = nan ? index.end() : index.find(key);
      if (it != index.end()) {
        g = it->second;
      } else {
        g = groups.size();
        if (!nan) index.emplace(key, g);
        groups.push_back(Group{key, {}, SIZE_MAX,
                               std::vector<std::optional<Value>>(nagg),
                               std::vector<std::optional<Value>>(nagg)});
      }
      Group& grp = groups[g];
      ++grp.rows;
      if (grp.last_part != p) {
        grp.parts.emplace_back(nagg);
        grp.last_part = p;
      }
      for (size_t a = 0; a < nagg; ++a) {
        Acc& acc = grp.parts.back()[a];
        ++acc.count;
        if (c.args[a] == nullptr) continue;
        const Value v = c.args[a]->GetValue(r);
        if (StoredAsI64(v.type())) {
          acc.isum += v.AsI64();
          acc.dsum += static_cast<double>(v.AsI64());
        } else if (v.type() == TypeId::kF64) {
          acc.dsum += v.AsF64();
        }
        if (!grp.min[a] || RefLess(v, *grp.min[a])) grp.min[a] = v;
        if (!grp.max[a] || RefLess(*grp.max[a], v)) grp.max[a] = v;
      }
    }
  }
  std::vector<std::string> rows;
  for (const Group& grp : groups) {
    std::string row;
    for (const Value& k : grp.key) row += RenderCell(k) + "|";
    for (size_t a = 0; a < nagg; ++a) {
      uint64_t count = 0;
      int64_t isum = 0;
      double dsum = 0;
      for (size_t i = 0; i < grp.parts.size(); ++i) {
        const Acc& acc = grp.parts[i][a];
        count += acc.count;
        isum += acc.isum;
        dsum = i == 0 ? acc.dsum : dsum + acc.dsum;
      }
      const auto [kind, type] = c.aggs[a];
      Value v;
      switch (kind) {
        case AggKind::kCount:
          v = Value::I64(static_cast<int64_t>(count));
          break;
        case AggKind::kSum:
          v = type == TypeId::kF64 ? Value::F64(dsum) : Value::I64(isum);
          break;
        case AggKind::kAvg:
          v = Value::F64(dsum / static_cast<double>(count));
          break;
        case AggKind::kMin:
          v = *grp.min[a];
          break;
        case AggKind::kMax:
          v = *grp.max[a];
          break;
      }
      row += RenderCell(v) + "|";
    }
    rows.push_back(row + StrFormat("rows=%llu",
                                   static_cast<unsigned long long>(grp.rows)));
  }
  return rows;
}

OracleCase MakeOracleCase(Rng& rng) {
  OracleCase c;
  c.rows = rng.Bernoulli(0.1)
               ? 0
               : static_cast<uint64_t>(rng.UniformInt(1, 120));
  const int nkeys = static_cast<int>(rng.UniformInt(1, 3));
  for (int k = 0; k < nkeys; ++k) {
    c.key_types.push_back(kAllTypes[rng.UniformInt(0, 4)]);
    c.keys.push_back(OracleColumn(rng, c.key_types.back(), c.rows, true));
  }
  static const TypeId kNumeric[] = {TypeId::kI64, TypeId::kF64, TypeId::kTs};
  static const TypeId kOrdered[] = {TypeId::kI64, TypeId::kF64, TypeId::kTs,
                                    TypeId::kStr};
  const int naggs = static_cast<int>(rng.UniformInt(1, 4));
  for (int a = 0; a < naggs; ++a) {
    const auto kind = static_cast<AggKind>(rng.UniformInt(0, 4));
    TypeId t = TypeId::kI64;
    bool star = false;
    switch (kind) {
      case AggKind::kCount:
        star = rng.Bernoulli(0.3);
        t = kAllTypes[rng.UniformInt(0, 4)];
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        t = kNumeric[rng.UniformInt(0, 2)];
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        t = kOrdered[rng.UniformInt(0, 3)];
        break;
    }
    c.aggs.emplace_back(kind, star ? TypeId::kI64 : t);
    c.args.push_back(star ? nullptr : OracleColumn(rng, t, c.rows, false));
  }
  return c;
}

/// Table columns restricted to rows [from, to).
std::pair<std::vector<BatPtr>, std::vector<BatPtr>> OracleSlice(
    const OracleCase& c, uint64_t from, uint64_t to) {
  std::pair<std::vector<BatPtr>, std::vector<BatPtr>> out;
  for (const BatPtr& k : c.keys) out.first.push_back(k->Slice(from, to));
  for (const BatPtr& v : c.args) {
    out.second.push_back(v ? v->Slice(from, to) : nullptr);
  }
  return out;
}

std::vector<const Bat*> Raw(const std::vector<BatPtr>& cols) {
  std::vector<const Bat*> out;
  for (const BatPtr& c : cols) out.push_back(c.get());
  return out;
}

TEST(GroupTableOracle, MatchesBruteForceReference) {
  uint64_t base_seed = 20261017;
  int rounds = 200;
  if (const char* s = std::getenv("DC_FUZZ_SEED")) {
    base_seed = std::strtoull(s, nullptr, 10);
  }
  if (const char* s = std::getenv("DC_FUZZ_ROUNDS")) rounds = std::atoi(s);
  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(round);
    Rng rng(seed);
    const OracleCase c = MakeOracleCase(rng);
    std::vector<uint64_t> cuts{0, c.rows};
    const int nparts = static_cast<int>(rng.UniformInt(1, 4));
    for (int p = 1; p < nparts; ++p) {
      cuts.push_back(static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(c.rows))));
    }
    std::sort(cuts.begin(), cuts.end());
    const std::string repro = StrFormat(
        "seed %llu (%zu keys, %zu aggs, %llu rows, %zu partials)\n"
        "  repro: DC_FUZZ_SEED=%llu DC_FUZZ_ROUNDS=1 ./ops_test "
        "--gtest_filter=GroupTableOracle.*",
        static_cast<unsigned long long>(seed), c.keys.size(), c.aggs.size(),
        static_cast<unsigned long long>(c.rows), cuts.size() - 1,
        static_cast<unsigned long long>(seed));

    // One AddRows over every row, and one AddRows per partial into the
    // same table: both fold each group's rows in order.
    ops::GroupTable whole(c.key_types, c.aggs);
    ASSERT_TRUE(whole.AddRows(Raw(c.keys), Raw(c.args)).ok()) << repro;
    ops::GroupTable stepwise(c.key_types, c.aggs);
    // Partials, each grouped on its own, merged in order.
    std::vector<ops::GroupTable> parts;
    std::vector<std::vector<std::string>> part_rows;
    for (size_t p = 0; p + 1 < cuts.size(); ++p) {
      const auto [keys, args] = OracleSlice(c, cuts[p], cuts[p + 1]);
      ASSERT_TRUE(stepwise.AddRows(Raw(keys), Raw(args)).ok()) << repro;
      parts.emplace_back(c.key_types, c.aggs);
      ASSERT_TRUE(parts.back().AddRows(Raw(keys), Raw(args)).ok()) << repro;
      part_rows.push_back(RenderRows(parts.back()));
    }
    ops::GroupTable merged(c.key_types, c.aggs);
    for (const ops::GroupTable& t : parts) {
      ASSERT_TRUE(merged.Merge(t).ok()) << repro;
    }

    const std::vector<std::string> one_part =
        ReferenceRows(c, {0, c.rows});
    EXPECT_EQ(RenderRows(whole), one_part) << repro;
    EXPECT_EQ(RenderRows(stepwise), one_part) << repro;
    EXPECT_EQ(RenderRows(merged), ReferenceRows(c, cuts))
        << repro;
    EXPECT_EQ(merged.num_groups(), one_part.size()) << repro;
    for (size_t p = 0; p < parts.size(); ++p) {  // Merge left them alone
      EXPECT_EQ(RenderRows(parts[p]), part_rows[p]) << repro;
    }
    if (HasFailure()) return;
  }
}


// --- Join oracle -----------------------------------------------------------
//
// HashJoin, a rolling JoinHash and IndexedDeltaJoin against a brute-force
// nested loop that shares none of their code. Keys cover every join
// domain: i64 and ts (INT64_MIN/MAX, 2^53 + 1), f64 (NaN, -0.0 and 0.0,
// 2^53), i64⋈f64 promotion, and str (empty, repeated, long); sides may be
// empty and candidate lists are random. Seeded like the other fuzzers:
// DC_FUZZ_SEED overrides the base seed, DC_FUZZ_ROUNDS the round count.

constexpr int64_t kTwo53 = int64_t{1} << 53;

BatPtr JoinOracleColumn(Rng& rng, TypeId t, uint64_t n) {
  static const int64_t kI64[] = {-2, -1, 0, 1, 2, 3, INT64_MIN, INT64_MAX,
                                 kTwo53, kTwo53 + 1};
  static const double kF64[] = {0.0, -0.0, 1.0, 2.5, -1.0, NAN,
                                9007199254740992.0, 1e300};
  static const std::string kLong(300, 'z');
  const std::string strs[] = {"", "a", "ab", "b", kLong, kLong + "y"};
  BatPtr col = Bat::MakeEmpty(t);
  // Few distinct keys (long chains) or the whole small domain.
  const int64_t hi = rng.Bernoulli(0.3) ? 2 : 9;
  for (uint64_t i = 0; i < n; ++i) {
    switch (t) {
      case TypeId::kI64:
      case TypeId::kTs:
        col->AppendI64(kI64[rng.UniformInt(0, hi)]);
        break;
      case TypeId::kF64:
        col->AppendF64(kF64[rng.UniformInt(0, std::min<int64_t>(hi, 7))]);
        break;
      case TypeId::kStr:
        col->AppendStr(strs[rng.UniformInt(0, std::min<int64_t>(hi, 5))]);
        break;
      case TypeId::kBool:
        col->AppendBool(rng.Bernoulli(0.5));
        break;
    }
  }
  return col;
}

/// SQL equality of a[i] and b[j] across the join domains.
bool JoinKeysEqual(const Bat& a, uint64_t i, const Bat& b, uint64_t j) {
  if (StoredAsI64(a.type()) && StoredAsI64(b.type())) {
    return a.I64Data()[i] == b.I64Data()[j];
  }
  auto num = [](const Bat& c, uint64_t r) {
    return StoredAsI64(c.type()) ? static_cast<double>(c.I64Data()[r])
                                 : c.F64Data()[r];
  };
  if (a.type() == TypeId::kStr) return a.StrAt(i) == b.StrAt(j);
  return num(a, i) == num(b, j);
}

/// Random candidates over [0, n): none (all rows), a dense range or a
/// sorted sparse subset.
std::optional<Candidates> RandomCandidates(Rng& rng, uint64_t n) {
  const int kind = static_cast<int>(rng.UniformInt(0, 2));
  if (kind == 0) return std::nullopt;
  if (kind == 1) {
    const auto a = static_cast<uint64_t>(
        rng.UniformInt(0, static_cast<int64_t>(n)));
    const auto b = static_cast<uint64_t>(
        rng.UniformInt(static_cast<int64_t>(a), static_cast<int64_t>(n)));
    return Candidates::Range(a, b - a);
  }
  std::vector<Oid> oids;
  for (Oid o = 0; o < n; ++o) {
    if (rng.Bernoulli(0.5)) oids.push_back(o);
  }
  return Candidates::FromVector(std::move(oids));
}

std::vector<Oid> CandidateRows(const std::optional<Candidates>& c,
                               uint64_t n) {
  return c ? c->ToVector() : Candidates::Range(0, n).ToVector();
}

using PairList = std::vector<std::pair<Oid, Oid>>;

PairList Pairs(const std::vector<Oid>& a, const std::vector<Oid>& b) {
  PairList out;
  for (size_t i = 0; i < a.size(); ++i) out.emplace_back(a[i], b[i]);
  return out;
}

/// The rolling model: every position ever appended since the last rebase,
/// as (column, row) of the key it was appended with.
struct RollingModel {
  std::vector<std::pair<BatPtr, uint64_t>> pos;
  uint64_t live_from = 0;

  /// Live positions equal to probe row `r` of `probe`, ascending.
  std::vector<Oid> Matches(const Bat& probe, uint64_t r) const {
    std::vector<Oid> out;
    for (uint64_t p = live_from; p < pos.size(); ++p) {
      if (JoinKeysEqual(*pos[p].first, pos[p].second, probe, r)) {
        out.push_back(p);
      }
    }
    return out;
  }
};

TEST(JoinHashOracle, MatchesNestedLoop) {
  uint64_t base_seed = 20261019;
  int rounds = 200;
  if (const char* s = std::getenv("DC_FUZZ_SEED")) {
    base_seed = std::strtoull(s, nullptr, 10);
  }
  if (const char* s = std::getenv("DC_FUZZ_ROUNDS")) rounds = std::atoi(s);
  // (left type, right type): every pair that meets in a join domain.
  static const std::pair<TypeId, TypeId> kTypePairs[] = {
      {TypeId::kI64, TypeId::kI64}, {TypeId::kTs, TypeId::kI64},
      {TypeId::kI64, TypeId::kTs},  {TypeId::kF64, TypeId::kF64},
      {TypeId::kI64, TypeId::kF64}, {TypeId::kF64, TypeId::kI64},
      {TypeId::kTs, TypeId::kF64},  {TypeId::kStr, TypeId::kStr}};
  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(round);
    Rng rng(seed);
    const auto [lt, rt] = kTypePairs[rng.UniformInt(0, 7)];
    const std::string repro = StrFormat(
        "seed %llu (%s ⋈ %s)\n"
        "  repro: DC_FUZZ_SEED=%llu DC_FUZZ_ROUNDS=1 ./ops_test "
        "--gtest_filter=JoinHashOracle.*",
        static_cast<unsigned long long>(seed), TypeName(lt), TypeName(rt),
        static_cast<unsigned long long>(seed));
    auto domain = ops::JoinKeyDomain(lt, rt);
    ASSERT_TRUE(domain.ok()) << repro;
    auto size = [&] {
      return static_cast<uint64_t>(rng.Bernoulli(0.1) ? 0
                                                      : rng.UniformInt(1, 40));
    };

    // HashJoin: probe rows in order, ties newest build row first.
    {
      const uint64_t ln = size(), rn = size();
      BatPtr l = JoinOracleColumn(rng, lt, ln);
      BatPtr r = JoinOracleColumn(rng, rt, rn);
      const auto lc = RandomCandidates(rng, ln);
      const auto rc = RandomCandidates(rng, rn);
      PairList want;
      const std::vector<Oid> rrows = CandidateRows(rc, rn);
      for (Oid a : CandidateRows(lc, ln)) {
        for (auto it = rrows.rbegin(); it != rrows.rend(); ++it) {
          if (JoinKeysEqual(*l, a, *r, *it)) want.emplace_back(a, *it);
        }
      }
      auto got = ops::HashJoin(*l, *r, lc ? &*lc : nullptr,
                               rc ? &*rc : nullptr);
      ASSERT_TRUE(got.ok()) << repro;
      EXPECT_EQ(Pairs(got->left, got->right), want) << repro << " HashJoin";
    }

    // Rolling JoinHash: random Append / EvictBelow / Rebase / Probe.
    {
      ops::JoinHash idx(*domain);
      RollingModel model;
      const int steps = static_cast<int>(rng.UniformInt(1, 12));
      for (int step = 0; step < steps; ++step) {
        switch (rng.UniformInt(0, 3)) {
          case 0: {  // append a random slice of a fresh column
            const uint64_t n = size();
            BatPtr col = JoinOracleColumn(rng, rt, n);
            const auto from = static_cast<uint64_t>(
                rng.UniformInt(0, static_cast<int64_t>(n)));
            ASSERT_TRUE(idx.Append(*col, from, n).ok()) << repro;
            for (uint64_t i = from; i < n; ++i) model.pos.emplace_back(col, i);
            break;
          }
          case 1: {  // evict, possibly past the end or below live_from
            const auto p = static_cast<uint64_t>(rng.UniformInt(
                0, static_cast<int64_t>(model.pos.size()) + 2));
            idx.EvictBelow(p);
            model.live_from = std::max(
                model.live_from,
                std::min<uint64_t>(p, model.pos.size()));
            break;
          }
          case 2: {  // rebase
            EXPECT_EQ(idx.Rebase(), model.live_from) << repro;
            model.pos.erase(model.pos.begin(),
                            model.pos.begin() +
                                static_cast<int64_t>(model.live_from));
            model.live_from = 0;
            break;
          }
          default: {  // probe, both orders
            const uint64_t n = size();
            BatPtr probe = JoinOracleColumn(rng, lt, n);
            const auto pc = RandomCandidates(rng, n);
            PairList asc, desc;
            for (Oid r : CandidateRows(pc, n)) {
              const std::vector<Oid> m = model.Matches(*probe, r);
              for (Oid p : m) asc.emplace_back(r, p);
              for (auto it = m.rbegin(); it != m.rend(); ++it) {
                desc.emplace_back(r, *it);
              }
            }
            const Candidates rows = pc ? *pc : Candidates::Range(0, n);
            std::vector<Oid> a, b, c, d;
            ASSERT_TRUE(idx.Probe(*probe, rows, &a, &b).ok()) << repro;
            ASSERT_TRUE(idx.Probe(*probe, rows, &c, &d, true).ok()) << repro;
            EXPECT_EQ(Pairs(a, b), asc) << repro << " probe, step " << step;
            EXPECT_EQ(Pairs(c, d), desc) << repro << " probe, step " << step;
            break;
          }
        }
        EXPECT_EQ(idx.next_pos(), model.pos.size()) << repro;
        EXPECT_EQ(idx.live_from(), model.live_from) << repro;
        if (HasFailure()) return;
      }
    }

    // IndexedDeltaJoin == the new-row pairs of HashJoin over the whole
    // window, with a random dead prefix on each retained side.
    {
      const uint64_t ln = size(), rn = size();
      BatPtr l = JoinOracleColumn(rng, lt, ln);
      BatPtr r = JoinOracleColumn(rng, rt, rn);
      const auto l_old = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(ln)));
      const auto r_old = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(rn)));
      const auto l_dead = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(l_old)));
      const auto r_dead = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(r_old)));
      ops::JoinHash li(*domain), ri(*domain);
      ASSERT_TRUE(li.Append(*l, 0, l_old).ok()) << repro;
      ASSERT_TRUE(ri.Append(*r, 0, r_old).ok()) << repro;
      li.EvictBelow(l_dead);
      ri.EvictBelow(r_dead);
      auto got = ops::IndexedDeltaJoin(*l, l_old, li, *r, r_old, ri);
      ASSERT_TRUE(got.ok()) << repro;
      PairList got_pairs = Pairs(got->left, got->right);
      std::sort(got_pairs.begin(), got_pairs.end());
      EXPECT_EQ(got_pairs, NewPairs(*l, l_old, l_dead, *r, r_old, r_dead))
          << repro << " IndexedDeltaJoin";
    }
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace dc
