// Unit tests for storage/: ColumnVector, Schema, Table, Catalog,
// ResultRegistry (including the rename operator's O(1) semantics).

#include <gtest/gtest.h>

#include <limits>

#include "storage/catalog.h"
#include "storage/column_vector.h"
#include "storage/result_registry.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace dbspinner {
namespace {

template <typename T>
T Unwrap(Result<T> r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(ColumnVectorTest, AppendTypedValues) {
  ColumnVector col(TypeId::kInt64);
  col.AppendInt64(1);
  col.AppendNull();
  col.AppendInt64(3);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.Int64At(0), 1);
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.GetValue(2).int64_value(), 3);
}

TEST(ColumnVectorTest, CoercingAppend) {
  ColumnVector col(TypeId::kDouble);
  col.Append(Value::Int64(2));
  EXPECT_DOUBLE_EQ(col.DoubleAt(0), 2.0);
}

TEST(ColumnVectorTest, Gather) {
  ColumnVector col(TypeId::kString);
  col.AppendString("a");
  col.AppendString("b");
  col.AppendString("c");
  ColumnVectorPtr out = col.Gather({2, 0});
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ(out->StringAt(0), "c");
  EXPECT_EQ(out->StringAt(1), "a");
}

TEST(ColumnVectorTest, EqualsAtCrossType) {
  // Each INT64 equals (as a double) the DOUBLE beside it, including
  // 2^53 + 1 against 2^53 and INT64_MAX against 2^63; equal values must
  // hash alike.
  ColumnVector a(TypeId::kInt64);
  a.AppendInt64(5);
  a.AppendInt64((int64_t{1} << 53) + 1);
  a.AppendInt64(std::numeric_limits<int64_t>::max());
  ColumnVector b(TypeId::kDouble);
  b.AppendDouble(5.0);
  b.AppendDouble(9007199254740992.0);
  b.AppendDouble(9223372036854775808.0);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a.EqualsAt(i, b, i)) << i;
    EXPECT_EQ(a.HashAt(i), b.HashAt(i)) << i;
    ASSERT_TRUE(a.GetValue(i).Equals(b.GetValue(i))) << i;
  }
}

TEST(ColumnVectorTest, NullEqualsNull) {
  ColumnVector a(TypeId::kInt64);
  a.AppendNull();
  a.AppendInt64(0);
  EXPECT_TRUE(a.EqualsAt(0, a, 0));
  EXPECT_FALSE(a.EqualsAt(0, a, 1));
}

TEST(SchemaTest, FindColumnCaseInsensitive) {
  Schema s;
  s.AddColumn("Node", TypeId::kInt64);
  s.AddColumn("rank", TypeId::kDouble);
  EXPECT_EQ(*s.FindColumn("NODE"), 0u);
  EXPECT_EQ(*s.FindColumn("rank"), 1u);
  EXPECT_FALSE(s.FindColumn("missing").has_value());
}

TEST(SchemaTest, TypesCompatible) {
  Schema a, b, c;
  a.AddColumn("x", TypeId::kInt64);
  b.AddColumn("y", TypeId::kDouble);
  c.AddColumn("z", TypeId::kString);
  EXPECT_TRUE(a.TypesCompatible(b));  // int widens to double
  EXPECT_FALSE(a.TypesCompatible(c));
}

TEST(SchemaTest, ToString) {
  Schema s;
  s.AddColumn("a", TypeId::kInt64);
  EXPECT_EQ(s.ToString(), "(a BIGINT)");
}

Schema TwoColSchema() {
  Schema s;
  s.AddColumn("id", TypeId::kInt64);
  s.AddColumn("v", TypeId::kDouble);
  return s;
}

TEST(TableTest, AppendAndGet) {
  auto t = Table::Make(TwoColSchema());
  t->AppendRow({Value::Int64(1), Value::Double(0.5)});
  t->AppendRow({Value::Int64(2), Value::Null()});
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 1);
  EXPECT_TRUE(t->GetValue(1, 1).is_null());
}

TEST(TableTest, FromColumns) {
  auto id = std::make_shared<ColumnVector>(TypeId::kInt64);
  auto v = std::make_shared<ColumnVector>(TypeId::kDouble);
  id->AppendInt64(1);
  v->AppendDouble(2.0);
  auto t = Table::FromColumns(TwoColSchema(), {id, v});
  EXPECT_EQ(t->num_rows(), 1u);
}

TEST(TableTest, CloneIsDeep) {
  auto t = Table::Make(TwoColSchema());
  t->AppendRow({Value::Int64(1), Value::Double(1.0)});
  auto copy = t->Clone();
  copy->AppendRow({Value::Int64(2), Value::Double(2.0)});
  EXPECT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(copy->num_rows(), 2u);
}

TEST(TableTest, SameRowsIsOrderInsensitive) {
  auto a = Table::Make(TwoColSchema());
  auto b = Table::Make(TwoColSchema());
  a->AppendRow({Value::Int64(1), Value::Double(1.0)});
  a->AppendRow({Value::Int64(2), Value::Double(2.0)});
  b->AppendRow({Value::Int64(2), Value::Double(2.0)});
  b->AppendRow({Value::Int64(1), Value::Double(1.0)});
  EXPECT_TRUE(Table::SameRows(*a, *b));
  b->AppendRow({Value::Int64(3), Value::Double(3.0)});
  EXPECT_FALSE(Table::SameRows(*a, *b));
}

TEST(TableTest, SameRowsDetectsValueDifference) {
  auto a = Table::Make(TwoColSchema());
  auto b = Table::Make(TwoColSchema());
  a->AppendRow({Value::Int64(1), Value::Double(1.0)});
  b->AppendRow({Value::Int64(1), Value::Double(1.5)});
  EXPECT_FALSE(Table::SameRows(*a, *b));
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  auto t = Table::Make(TwoColSchema());
  ASSERT_TRUE(catalog.CreateTable("T1", t).ok());
  EXPECT_TRUE(catalog.Exists("t1"));
  EXPECT_FALSE(catalog.CreateTable("t1", t).ok());  // duplicate
  auto entry = catalog.Get("T1");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->table.get(), t.get());
  ASSERT_TRUE(catalog.DropTable("t1").ok());
  EXPECT_FALSE(catalog.Get("t1").ok());
  EXPECT_FALSE(catalog.DropTable("t1").ok());
  EXPECT_TRUE(catalog.DropTable("t1", /*if_exists=*/true).ok());
}

TEST(CatalogTest, PrimaryKeyIsStored) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", Table::Make(TwoColSchema()), 0).ok());
  EXPECT_EQ((*catalog.Get("t"))->primary_key_col, 0u);
}

TEST(ResultRegistryTest, PutGetRemove) {
  ResultRegistry reg;
  auto t = Table::Make(TwoColSchema());
  reg.Put("r1", t);
  EXPECT_TRUE(reg.Exists("R1"));
  EXPECT_EQ(Unwrap(reg.Get("r1")).get(), t.get());
  reg.Remove("r1");
  EXPECT_FALSE(reg.Get("r1").ok());
}

TEST(ResultRegistryTest, RenameMovesPointerWithoutCopy) {
  ResultRegistry reg;
  auto working = Table::Make(TwoColSchema());
  working->AppendRow({Value::Int64(1), Value::Double(1.0)});
  auto old_main = Table::Make(TwoColSchema());
  reg.Put("main", old_main);
  reg.Put("working", working);

  ASSERT_TRUE(reg.Rename("working", "main").ok());
  EXPECT_FALSE(reg.Exists("working"));
  auto got = reg.Get("main");
  ASSERT_TRUE(got.ok());
  // Same storage object: rename moved a pointer, not rows.
  EXPECT_EQ(got->get(), working.get());
}

TEST(ResultRegistryTest, RenameMissingSourceIsInternalError) {
  // A rename whose source is not bound can only come from a malformed
  // program (the rewriter emits matching Materialize/Rename pairs), so it
  // must surface as kInternal — the code the differential fuzzer treats as
  // "engine bug", distinct from the kNotFound of a plain Get on a bad name.
  ResultRegistry reg;
  Status s = reg.Rename("nope", "x");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("nope"), std::string::npos);
  EXPECT_FALSE(reg.Exists("x"));
}

TEST(ResultRegistryTest, Clear) {
  ResultRegistry reg;
  reg.Put("a", Table::Make(TwoColSchema()));
  reg.Put("b", Table::Make(TwoColSchema()));
  EXPECT_EQ(reg.size(), 2u);
  reg.Clear();
  EXPECT_EQ(reg.size(), 0u);
}

}  // namespace
}  // namespace dbspinner
