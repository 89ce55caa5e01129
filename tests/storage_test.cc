// Unit tests for schemas, COW tables, indexes, and the catalog.

#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace dc {
namespace {

Schema TwoColSchema() {
  Schema s;
  EXPECT_TRUE(s.AddColumn("k", TypeId::kI64).ok());
  EXPECT_TRUE(s.AddColumn("name", TypeId::kStr).ok());
  return s;
}

TEST(SchemaTest, AddFindDuplicate) {
  Schema s = TwoColSchema();
  EXPECT_EQ(*s.Find("name"), 1u);
  EXPECT_FALSE(s.Find("missing").ok());
  EXPECT_TRUE(s.AddColumn("k", TypeId::kI64).IsInvalidArgument() ||
              s.AddColumn("k", TypeId::kI64).code() ==
                  StatusCode::kAlreadyExists);
  EXPECT_EQ(s.ToString(), "(k i64, name str)");
}

TEST(TableTest, AppendRowAndSnapshot) {
  Table t("t", TwoColSchema());
  EXPECT_EQ(t.NumRows(), 0u);
  ASSERT_TRUE(t.AppendRow({Value::I64(1), Value::Str("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::I64(2), Value::Str("b")}).ok());
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.Snapshot()->cols[1]->StrAt(1), "b");
}

TEST(TableTest, SnapshotIsImmutableUnderAppends) {
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.AppendRow({Value::I64(1), Value::Str("a")}).ok());
  TableVersionPtr snap = t.Snapshot();
  ASSERT_TRUE(t.AppendRow({Value::I64(2), Value::Str("b")}).ok());
  EXPECT_EQ(snap->NumRows(), 1u);        // old version untouched
  EXPECT_EQ(t.Snapshot()->NumRows(), 2u);
  EXPECT_GT(t.Snapshot()->version, snap->version);
}

TEST(TableTest, TypeChecking) {
  Table t("t", TwoColSchema());
  EXPECT_FALSE(t.AppendRow({Value::Str("nope"), Value::Str("a")}).ok());
  EXPECT_FALSE(t.AppendRow({Value::I64(1)}).ok());
  // I64 -> STR coercion goes through CastTo (allowed: renders as string).
  EXPECT_TRUE(t.AppendRow({Value::I64(1), Value::I64(7)}).ok());
  EXPECT_EQ(t.Snapshot()->cols[1]->StrAt(0), "7");
}

TEST(TableBuilderTest, BulkLoad) {
  TableBuilder b(TwoColSchema());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(b.AddRow({Value::I64(i), Value::Str("row")}).ok());
  }
  auto table = std::move(b).Build("bulk");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->NumRows(), 100u);
}

TEST(CatalogTest, RegisterAndResolve) {
  Catalog c;
  ASSERT_TRUE(
      c.RegisterTable(std::make_shared<Table>("t", TwoColSchema())).ok());
  StreamDef def;
  def.name = "s";
  def.schema = TwoColSchema();
  ASSERT_TRUE(c.RegisterStream(def).ok());
  EXPECT_TRUE(c.IsTable("t"));
  EXPECT_TRUE(c.IsStream("s"));
  EXPECT_FALSE(c.IsStream("t"));
  EXPECT_TRUE(c.GetTable("t").ok());
  EXPECT_TRUE(c.GetStream("s").ok());
  EXPECT_FALSE(c.GetTable("s").ok());
}

TEST(CatalogTest, NamespaceShared) {
  Catalog c;
  ASSERT_TRUE(
      c.RegisterTable(std::make_shared<Table>("x", TwoColSchema())).ok());
  StreamDef def;
  def.name = "x";
  def.schema = TwoColSchema();
  EXPECT_EQ(c.RegisterStream(def).code(), StatusCode::kAlreadyExists);
}

TEST(CatalogTest, StreamTsValidation) {
  Catalog c;
  StreamDef def;
  def.name = "s";
  def.schema = TwoColSchema();
  def.ts_column = 0;  // column 0 is I64, not TS
  EXPECT_TRUE(c.RegisterStream(def).IsTypeError());
  def.ts_column = 5;  // out of range
  EXPECT_TRUE(c.RegisterStream(def).IsInvalidArgument());
}

TEST(CatalogTest, Drop) {
  Catalog c;
  ASSERT_TRUE(
      c.RegisterTable(std::make_shared<Table>("t", TwoColSchema())).ok());
  EXPECT_TRUE(c.DropTable("t").ok());
  EXPECT_FALSE(c.DropTable("t").ok());
  EXPECT_FALSE(c.IsTable("t"));
}

}  // namespace
}  // namespace dc
