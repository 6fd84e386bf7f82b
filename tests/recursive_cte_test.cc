// Recursive CTE (WITH RECURSIVE) semantics: fixed-point union evaluation.

#include <gtest/gtest.h>

#include "test_util.h"

namespace dbspinner {
namespace {

using testing::MustExecute;
using testing::MustQuery;

TEST(RecursiveCteTest, CountToTen) {
  Database db;
  auto t = MustQuery(&db,
                     "WITH RECURSIVE r (n) AS (SELECT 1 UNION ALL "
                     "SELECT n + 1 FROM r WHERE n < 10) "
                     "SELECT COUNT(*), MAX(n) FROM r");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 10);
  EXPECT_EQ(t->GetValue(0, 1).int64_value(), 10);
}

TEST(RecursiveCteTest, UnionDistinctReachesFixpoint) {
  Database db;
  MustExecute(&db, "CREATE TABLE edge (a BIGINT, b BIGINT)");
  // A cycle: 1->2->3->1. UNION (distinct) terminates despite the cycle.
  MustExecute(&db, "INSERT INTO edge VALUES (1, 2), (2, 3), (3, 1)");
  auto t = MustQuery(&db,
                     "WITH RECURSIVE reach (n) AS (SELECT 1 UNION "
                     "SELECT edge.b FROM reach JOIN edge ON reach.n = edge.a) "
                     "SELECT n FROM reach ORDER BY n");
  ASSERT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 1);
  EXPECT_EQ(t->GetValue(2, 0).int64_value(), 3);
}

TEST(RecursiveCteTest, TransitiveClosure) {
  Database db;
  MustExecute(&db, "CREATE TABLE edge (a BIGINT, b BIGINT)");
  MustExecute(&db,
              "INSERT INTO edge VALUES (1, 2), (2, 3), (3, 4), (10, 11)");
  auto t = MustQuery(&db,
                     "WITH RECURSIVE reach (n) AS (SELECT 1 UNION "
                     "SELECT edge.b FROM reach JOIN edge ON reach.n = edge.a) "
                     "SELECT COUNT(*) FROM reach");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 4);  // 1,2,3,4; not 10/11
}

TEST(RecursiveCteTest, BillOfMaterials) {
  // The paper's canonical recursive use case: hierarchical aggregation done
  // after the recursion (aggregates are not allowed inside it).
  Database db;
  MustExecute(&db,
              "CREATE TABLE parts (parent VARCHAR, child VARCHAR, "
              "qty BIGINT)");
  MustExecute(&db,
              "INSERT INTO parts VALUES ('car', 'wheel', 4), "
              "('car', 'engine', 1), ('engine', 'piston', 6), "
              "('wheel', 'bolt', 5)");
  auto t = MustQuery(
      &db,
      "WITH RECURSIVE bom (part, qty) AS ("
      "  SELECT child, qty FROM parts WHERE parent = 'car' "
      "UNION ALL "
      "  SELECT parts.child, bom.qty * parts.qty FROM bom "
      "  JOIN parts ON parts.parent = bom.part) "
      "SELECT part, SUM(qty) FROM bom GROUP BY part ORDER BY part");
  ASSERT_EQ(t->num_rows(), 4u);
  // bolt: 4 wheels * 5 bolts = 20.
  EXPECT_EQ(t->GetValue(0, 0).string_value(), "bolt");
  EXPECT_EQ(t->GetValue(0, 1).int64_value(), 20);
  // piston: 1 engine * 6 = 6.
  EXPECT_EQ(t->GetValue(2, 0).string_value(), "piston");
  EXPECT_EQ(t->GetValue(2, 1).int64_value(), 6);
}

// The CTE's schema widens to the recursive part's types, as an iterative
// CTE's does, instead of casting the recursive rows to the base part's.
TEST(RecursiveCteTest, RecursivePartWidensTheSchema) {
  Database db;
  auto t = MustQuery(&db,
                     "WITH RECURSIVE r (n) AS (SELECT 1 UNION "
                     "SELECT 1.5 FROM r) SELECT n FROM r ORDER BY n");
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->schema().column(0).type, TypeId::kDouble);
  EXPECT_EQ(t->GetValue(0, 0).double_value(), 1.0);
  EXPECT_EQ(t->GetValue(1, 0).double_value(), 1.5);
}

TEST(RecursiveCteTest, UnionAllWidensTheSchema) {
  Database db;
  auto t = MustQuery(&db,
                     "WITH RECURSIVE r (n) AS (SELECT 1 UNION ALL "
                     "SELECT n + 0.5 FROM r WHERE n < 3) "
                     "SELECT n FROM r ORDER BY n");
  ASSERT_EQ(t->num_rows(), 5u);
  EXPECT_EQ(t->schema().column(0).type, TypeId::kDouble);
  const double expected[] = {1.0, 1.5, 2.0, 2.5, 3.0};
  for (size_t r = 0; r < 5; ++r) {
    EXPECT_EQ(t->GetValue(r, 0).double_value(), expected[r]) << "row " << r;
  }
}

TEST(RecursiveCteTest, NonSelfReferentialFallsBackToRegular) {
  Database db;
  auto t = MustQuery(&db,
                     "WITH RECURSIVE c (x) AS (SELECT 5 UNION ALL SELECT 6) "
                     "SELECT SUM(x) FROM c");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 11);
}

TEST(RecursiveCteTest, BaseMustNotReferenceSelf) {
  Database db;
  auto result = db.Query(
      "WITH RECURSIVE r (n) AS (SELECT n FROM r UNION ALL SELECT 1) "
      "SELECT * FROM r");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBindError);
}

TEST(RecursiveCteTest, NonUnionBodyFails) {
  Database db;
  MustExecute(&db, "CREATE TABLE t (n BIGINT)");
  MustExecute(&db, "INSERT INTO t VALUES (1)");
  auto result = db.Query(
      "WITH RECURSIVE r (n) AS (SELECT n + 1 FROM r) SELECT * FROM r");
  ASSERT_FALSE(result.ok());
}

TEST(RecursiveCteTest, GuardStopsRunawayUnionAll) {
  Database db;
  db.options().max_iterations_guard = 100;
  auto result = db.Query(
      "WITH RECURSIVE r (n) AS (SELECT 1 UNION ALL SELECT n FROM r) "
      "SELECT COUNT(*) FROM r");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("max_iterations_guard"),
            std::string::npos);
}

TEST(RecursiveCteTest, RecursiveFeedsIterative) {
  // Recursive and iterative CTEs compose in one statement.
  Database db;
  MustExecute(&db, "CREATE TABLE edge (a BIGINT, b BIGINT)");
  MustExecute(&db, "INSERT INTO edge VALUES (1, 2), (2, 3)");
  auto t = MustQuery(
      &db,
      "WITH RECURSIVE reach (n) AS (SELECT 1 UNION "
      "  SELECT edge.b FROM reach JOIN edge ON reach.n = edge.a), "
      "ITERATIVE grow (total) AS (SELECT COUNT(*) FROM reach ITERATE "
      "  SELECT total * 2 FROM grow UNTIL 2 ITERATIONS) "
      "SELECT total FROM grow");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 12);  // 3 nodes * 2 * 2
}

}  // namespace
}  // namespace dbspinner
