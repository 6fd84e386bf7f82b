// End-to-end SQL tests through the Database facade: scans, filters,
// projections, joins, aggregates, unions, sorting, DDL/DML.

#include <gtest/gtest.h>

#include <cmath>

#include "test_util.h"

namespace dbspinner {
namespace {

using testing::ExpectSameRows;
using testing::MustExecute;
using testing::MustQuery;

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::MustExecute(&db_, "CREATE TABLE t (a BIGINT, b DOUBLE, s VARCHAR)");
    testing::MustExecute(
        &db_,
        "INSERT INTO t VALUES (1, 1.5, 'x'), (2, 2.5, 'y'), (3, NULL, 'x'), "
        "(4, 4.5, NULL)");
  }
  Database db_;
};

TEST_F(SqlTest, SelectConstant) {
  auto t = MustQuery(&db_, "SELECT 1 + 2 AS three, 'a' || 'b'");
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 3);
  EXPECT_EQ(t->GetValue(0, 1).string_value(), "ab");
}

TEST_F(SqlTest, SelectStar) {
  auto t = MustQuery(&db_, "SELECT * FROM t");
  EXPECT_EQ(t->num_rows(), 4u);
  EXPECT_EQ(t->num_columns(), 3u);
}

TEST_F(SqlTest, WhereFiltersNullAsFalse) {
  auto t = MustQuery(&db_, "SELECT a FROM t WHERE b > 2");
  // b NULL rows excluded.
  EXPECT_EQ(t->num_rows(), 2u);
}

TEST_F(SqlTest, IsNullPredicates) {
  EXPECT_EQ(MustQuery(&db_, "SELECT a FROM t WHERE b IS NULL")->num_rows(),
            1u);
  EXPECT_EQ(MustQuery(&db_, "SELECT a FROM t WHERE s IS NOT NULL")->num_rows(),
            3u);
}

TEST_F(SqlTest, Projection) {
  auto t = MustQuery(&db_, "SELECT a * 10 AS a10, b + a FROM t WHERE a = 2");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 20);
  EXPECT_DOUBLE_EQ(t->GetValue(0, 1).double_value(), 4.5);
}

TEST_F(SqlTest, OrderByAndLimit) {
  auto t = MustQuery(&db_, "SELECT a FROM t ORDER BY a DESC LIMIT 2");
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 4);
  EXPECT_EQ(t->GetValue(1, 0).int64_value(), 3);
}

TEST_F(SqlTest, OrderByNullsFirst) {
  auto t = MustQuery(&db_, "SELECT b FROM t ORDER BY b");
  EXPECT_TRUE(t->GetValue(0, 0).is_null());
}

TEST_F(SqlTest, OrderByPosition) {
  auto t = MustQuery(&db_, "SELECT a, b FROM t ORDER BY 1 DESC LIMIT 1");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 4);
}

TEST_F(SqlTest, Distinct) {
  auto t = MustQuery(&db_, "SELECT DISTINCT s FROM t");
  EXPECT_EQ(t->num_rows(), 3u);  // 'x', 'y', NULL
}

TEST_F(SqlTest, GlobalAggregates) {
  auto t = MustQuery(&db_,
                     "SELECT COUNT(*), COUNT(b), SUM(a), AVG(b), MIN(a), "
                     "MAX(b) FROM t");
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 4);
  EXPECT_EQ(t->GetValue(0, 1).int64_value(), 3);  // NULL skipped
  EXPECT_EQ(t->GetValue(0, 2).int64_value(), 10);
  EXPECT_NEAR(t->GetValue(0, 3).double_value(), (1.5 + 2.5 + 4.5) / 3, 1e-12);
  EXPECT_EQ(t->GetValue(0, 4).int64_value(), 1);
  EXPECT_DOUBLE_EQ(t->GetValue(0, 5).double_value(), 4.5);
}

TEST_F(SqlTest, GlobalAggregateOnEmptyInput) {
  auto t = MustQuery(&db_, "SELECT COUNT(*), SUM(a) FROM t WHERE a > 100");
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 0);
  EXPECT_TRUE(t->GetValue(0, 1).is_null());
}

TEST_F(SqlTest, GroupBy) {
  auto t = MustQuery(&db_,
                     "SELECT s, COUNT(*), SUM(a) FROM t GROUP BY s "
                     "ORDER BY s");
  ASSERT_EQ(t->num_rows(), 3u);  // NULL group first
  EXPECT_TRUE(t->GetValue(0, 0).is_null());
  EXPECT_EQ(t->GetValue(1, 0).string_value(), "x");
  EXPECT_EQ(t->GetValue(1, 1).int64_value(), 2);
  EXPECT_EQ(t->GetValue(1, 2).int64_value(), 4);
}

TEST_F(SqlTest, GroupByExpression) {
  auto t = MustQuery(&db_,
                     "SELECT a % 2, COUNT(*) FROM t GROUP BY a % 2 "
                     "ORDER BY 1");
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 1).int64_value(), 2);
}

TEST_F(SqlTest, Having) {
  auto t = MustQuery(&db_,
                     "SELECT s, COUNT(*) AS c FROM t GROUP BY s "
                     "HAVING COUNT(*) > 1");
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->GetValue(0, 0).string_value(), "x");
}

TEST_F(SqlTest, CountDistinct) {
  auto t = MustQuery(&db_, "SELECT COUNT(DISTINCT s) FROM t");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 2);  // NULL not counted
}

TEST_F(SqlTest, StdDevAndVariance) {
  // b values: 1.5, 2.5, 4.5 (NULL skipped). Sample variance of those is
  // ((1.5-a)^2 + (2.5-a)^2 + (4.5-a)^2) / 2 with a = 17/6.
  auto t = MustQuery(&db_, "SELECT VARIANCE(b), STDDEV(b) FROM t");
  double mean = (1.5 + 2.5 + 4.5) / 3.0;
  double var = ((1.5 - mean) * (1.5 - mean) + (2.5 - mean) * (2.5 - mean) +
                (4.5 - mean) * (4.5 - mean)) /
               2.0;
  EXPECT_NEAR(t->GetValue(0, 0).double_value(), var, 1e-9);
  EXPECT_NEAR(t->GetValue(0, 1).double_value(), std::sqrt(var), 1e-9);
}

TEST_F(SqlTest, StdDevOfSingleValueIsNull) {
  auto t = MustQuery(&db_, "SELECT STDDEV(b) FROM t WHERE a = 1");
  EXPECT_TRUE(t->GetValue(0, 0).is_null());
}

TEST_F(SqlTest, AggregateInsideExpression) {
  auto t = MustQuery(&db_, "SELECT 0.85 * SUM(b) FROM t");
  EXPECT_NEAR(t->GetValue(0, 0).double_value(), 0.85 * 8.5, 1e-12);
}

TEST_F(SqlTest, NonGroupedColumnFails) {
  auto result = db_.Query("SELECT a, COUNT(*) FROM t GROUP BY s");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBindError);
}

TEST_F(SqlTest, InnerJoin) {
  MustExecute(&db_, "CREATE TABLE u (a BIGINT, tag VARCHAR)");
  MustExecute(&db_, "INSERT INTO u VALUES (1, 'one'), (3, 'three'), (9, 'n')");
  auto t = MustQuery(&db_,
                     "SELECT t.a, u.tag FROM t JOIN u ON t.a = u.a "
                     "ORDER BY t.a");
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 1).string_value(), "one");
  EXPECT_EQ(t->GetValue(1, 1).string_value(), "three");
}

TEST_F(SqlTest, LeftJoinPadsNulls) {
  MustExecute(&db_, "CREATE TABLE u (a BIGINT, tag VARCHAR)");
  MustExecute(&db_, "INSERT INTO u VALUES (1, 'one')");
  auto t = MustQuery(&db_,
                     "SELECT t.a, u.tag FROM t LEFT JOIN u ON t.a = u.a "
                     "ORDER BY t.a");
  ASSERT_EQ(t->num_rows(), 4u);
  EXPECT_EQ(t->GetValue(0, 1).string_value(), "one");
  EXPECT_TRUE(t->GetValue(1, 1).is_null());
}

TEST_F(SqlTest, JoinWithResidualPredicate) {
  MustExecute(&db_, "CREATE TABLE u (a BIGINT, v BIGINT)");
  MustExecute(&db_, "INSERT INTO u VALUES (1, 10), (1, 0), (2, 5)");
  auto t = MustQuery(&db_,
                     "SELECT t.a, u.v FROM t JOIN u ON t.a = u.a AND u.v > 1 "
                     "ORDER BY t.a, u.v");
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 1).int64_value(), 10);
  EXPECT_EQ(t->GetValue(1, 1).int64_value(), 5);
}

TEST_F(SqlTest, NonEquiJoinUsesNestedLoop) {
  MustExecute(&db_, "CREATE TABLE u (lo BIGINT, hi BIGINT)");
  MustExecute(&db_, "INSERT INTO u VALUES (1, 2), (3, 4)");
  auto t = MustQuery(&db_,
                     "SELECT t.a, u.lo FROM t JOIN u ON t.a BETWEEN u.lo AND "
                     "u.hi ORDER BY t.a");
  EXPECT_EQ(t->num_rows(), 4u);
}

TEST_F(SqlTest, CrossJoin) {
  MustExecute(&db_, "CREATE TABLE u (x BIGINT)");
  MustExecute(&db_, "INSERT INTO u VALUES (1), (2)");
  auto t = MustQuery(&db_, "SELECT t.a, u.x FROM t CROSS JOIN u");
  EXPECT_EQ(t->num_rows(), 8u);
}

TEST_F(SqlTest, SelfJoinWithAliases) {
  auto t = MustQuery(&db_,
                     "SELECT x.a, y.a FROM t AS x JOIN t AS y "
                     "ON x.a = y.a + 1 ORDER BY x.a");
  ASSERT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 2);
}

TEST_F(SqlTest, UnionDedupes) {
  auto t = MustQuery(&db_, "SELECT s FROM t UNION SELECT s FROM t");
  EXPECT_EQ(t->num_rows(), 3u);
}

TEST_F(SqlTest, UnionAllKeeps) {
  auto t = MustQuery(&db_, "SELECT s FROM t UNION ALL SELECT s FROM t");
  EXPECT_EQ(t->num_rows(), 8u);
}

TEST_F(SqlTest, UnionWidensTypes) {
  auto t = MustQuery(&db_, "SELECT a FROM t UNION ALL SELECT b FROM t");
  EXPECT_EQ(t->schema().column(0).type, TypeId::kDouble);
  EXPECT_EQ(t->num_rows(), 8u);
}

TEST_F(SqlTest, DerivedTableQuery) {
  auto t = MustQuery(&db_,
                     "SELECT sub.c FROM (SELECT COUNT(*) AS c FROM t) sub");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 4);
}

TEST_F(SqlTest, RegularCte) {
  auto t = MustQuery(&db_,
                     "WITH big AS (SELECT a FROM t WHERE a >= 3) "
                     "SELECT COUNT(*) FROM big");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 2);
}

TEST_F(SqlTest, CteReferencedTwice) {
  auto t = MustQuery(&db_,
                     "WITH c AS (SELECT a FROM t) "
                     "SELECT COUNT(*) FROM c AS x JOIN c AS y ON x.a = y.a");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 4);
}

TEST_F(SqlTest, ChainedCtes) {
  auto t = MustQuery(&db_,
                     "WITH c1 AS (SELECT a FROM t), "
                     "c2 AS (SELECT a + 1 AS a FROM c1) "
                     "SELECT MAX(a) FROM c2");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 5);
}

TEST_F(SqlTest, CaseExpression) {
  auto t = MustQuery(&db_,
                     "SELECT CASE WHEN a < 3 THEN 'small' ELSE 'big' END "
                     "FROM t ORDER BY a");
  EXPECT_EQ(t->GetValue(0, 0).string_value(), "small");
  EXPECT_EQ(t->GetValue(3, 0).string_value(), "big");
}

TEST_F(SqlTest, ScalarFunctions) {
  auto t = MustQuery(
      &db_,
      "SELECT LEAST(3, 1, 2), GREATEST(3, 1, 2), COALESCE(NULL, 5), "
      "CEILING(1.2), FLOOR(1.8), ROUND(1.23456, 2), MOD(7, 3), ABS(-4)");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 1);
  EXPECT_EQ(t->GetValue(0, 1).int64_value(), 3);
  EXPECT_EQ(t->GetValue(0, 2).int64_value(), 5);
  EXPECT_DOUBLE_EQ(t->GetValue(0, 3).double_value(), 2.0);
  EXPECT_DOUBLE_EQ(t->GetValue(0, 4).double_value(), 1.0);
  EXPECT_DOUBLE_EQ(t->GetValue(0, 5).double_value(), 1.23);
  EXPECT_EQ(t->GetValue(0, 6).int64_value(), 1);
  EXPECT_EQ(t->GetValue(0, 7).int64_value(), 4);
}

TEST_F(SqlTest, IntegerDivisionTruncates) {
  auto t = MustQuery(&db_, "SELECT 7 / 2, 7.0 / 2");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 3);
  EXPECT_DOUBLE_EQ(t->GetValue(0, 1).double_value(), 3.5);
}

TEST_F(SqlTest, DivisionByZeroFails) {
  auto result = db_.Query("SELECT a / 0 FROM t");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
}

// --- DDL / DML ---------------------------------------------------------------

TEST_F(SqlTest, UpdateSimple) {
  auto result = db_.Execute("UPDATE t SET b = b * 2 WHERE a <= 2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_affected, 2);
  auto t = MustQuery(&db_, "SELECT b FROM t WHERE a = 1");
  EXPECT_DOUBLE_EQ(t->GetValue(0, 0).double_value(), 3.0);
}

TEST_F(SqlTest, UpdateWithFromJoin) {
  MustExecute(&db_, "CREATE TABLE w (a BIGINT, nb DOUBLE)");
  MustExecute(&db_, "INSERT INTO w VALUES (1, 100.0), (3, 300.0)");
  auto result = db_.Execute(
      "UPDATE t SET b = w.nb FROM w WHERE t.a = w.a");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_affected, 2);
  auto t = MustQuery(&db_, "SELECT a, b FROM t ORDER BY a");
  EXPECT_DOUBLE_EQ(t->GetValue(0, 1).double_value(), 100.0);
  EXPECT_DOUBLE_EQ(t->GetValue(2, 1).double_value(), 300.0);
  EXPECT_DOUBLE_EQ(t->GetValue(1, 1).double_value(), 2.5);  // untouched
}

TEST_F(SqlTest, DeleteRows) {
  auto result = db_.Execute("DELETE FROM t WHERE s = 'x'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_affected, 2);
  EXPECT_EQ(MustQuery(&db_, "SELECT * FROM t")->num_rows(), 2u);
}

TEST_F(SqlTest, InsertSelectWithColumnSubset) {
  MustExecute(&db_, "CREATE TABLE u (a BIGINT, b DOUBLE, s VARCHAR)");
  MustExecute(&db_, "INSERT INTO u (a) SELECT a * 100 FROM t WHERE a <= 2");
  auto t = MustQuery(&db_, "SELECT a, b FROM u ORDER BY a");
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 100);
  EXPECT_TRUE(t->GetValue(0, 1).is_null());
}

TEST_F(SqlTest, InsertDoesNotMutatePriorResults) {
  auto before = MustQuery(&db_, "SELECT * FROM t");
  size_t rows_before = before->num_rows();
  MustExecute(&db_, "INSERT INTO t VALUES (99, 9.9, 'z')");
  EXPECT_EQ(before->num_rows(), rows_before);  // COW protects old readers
  EXPECT_EQ(MustQuery(&db_, "SELECT * FROM t")->num_rows(), rows_before + 1);
}

/// Renders a table as "v,v;v,v" rows for compact expectations.
std::string RenderRows(const Table& table) {
  std::string out;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (r > 0) out += ";";
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += ",";
      out += table.GetValue(r, c).ToString();
    }
  }
  return out;
}

// The semantics every write statement keeps, checked with the verifier
// enforcing: a failed statement must leave `t` as the fixture loaded it.
TEST_F(SqlTest, DmlSemanticsTable) {
  struct Case {
    const char* name;
    std::vector<std::string> before;  ///< run first, must succeed
    std::string sql;
    StatusCode code;        ///< expected status of `sql`
    int64_t rows_affected;  ///< checked when `code` is kOk
    std::vector<std::string> after;  ///< run next, must succeed
    std::string check;      ///< query rendered with RenderRows
    std::string expected;
  };
  const std::string kAll = "SELECT a, b FROM t ORDER BY a";
  const std::string kFixture = "1,1.5;2,2.5;3,NULL;4,4.5";
  const std::vector<Case> cases = {
      {"null-where-hits-nothing", {}, "UPDATE t SET a = 0 WHERE NULL",
       StatusCode::kOk, 0, {}, kAll, kFixture},
      {"null-comparison-hits-nothing", {}, "DELETE FROM t WHERE b = NULL",
       StatusCode::kOk, 0, {}, kAll, kFixture},
      {"null-column-skipped", {}, "UPDATE t SET a = a * 10 WHERE b > 2",
       StatusCode::kOk, 2, {}, kAll, "1,1.5;3,NULL;20,2.5;40,4.5"},
      {"set-error-leaves-table", {}, "UPDATE t SET b = a / 0 WHERE a = 1",
       StatusCode::kExecutionError, 0, {}, kAll, kFixture},
      {"filter-runs-before-set", {},
       "UPDATE t SET b = 1 / (a - 2) WHERE a <> 2", StatusCode::kOk, 3, {},
       kAll, "1,-1.0;2,2.5;3,1.0;4,0.0"},
      {"set-rounds-to-bigint", {}, "UPDATE t SET a = 2.7 WHERE a = 1",
       StatusCode::kOk, 1, {}, kAll, "2,2.5;3,1.5;3,NULL;4,4.5"},
      {"insert-casts-string", {}, "INSERT INTO t (a) SELECT '12'",
       StatusCode::kOk, 1, {}, kAll, kFixture + ";12,NULL"},
      {"insert-bad-cast-fails", {}, "INSERT INTO t (a) SELECT 'x'",
       StatusCode::kTypeError, 0, {}, kAll, kFixture},
      {"update-from-two-matches",
       {"CREATE TABLE w (a BIGINT, nb DOUBLE)",
        "INSERT INTO w VALUES (1, 10.0), (1, 20.0), (3, 30.0)"},
       "UPDATE t SET b = w.nb FROM w WHERE t.a = w.a", StatusCode::kOk, 2,
       {},
       "SELECT a, CASE WHEN b IN (10.0, 20.0) THEN 'w' "
       "ELSE CAST(b AS VARCHAR) END FROM t ORDER BY a",
       "1,w;2,2.5;3,30.0;4,4.5"},
      {"update-from-self-join", {},
       "UPDATE t SET b = t2.b FROM t AS t2 WHERE t.a = t2.a + 1",
       StatusCode::kOk, 3, {}, kAll, "1,1.5;2,1.5;3,2.5;4,NULL"},
      {"delete-without-where", {}, "DELETE FROM t", StatusCode::kOk, 4, {},
       kAll, ""},
      {"update-rolled-back", {"BEGIN"}, "UPDATE t SET b = 0",
       StatusCode::kOk, 4, {"ROLLBACK"}, kAll, kFixture},
      // The row-id query's own column name cannot be a target column.
      {"rowid-column-rejected",
       {"CREATE TABLE r (__rowid BIGINT)", "INSERT INTO r VALUES (7)"},
       "DELETE FROM r", StatusCode::kNotImplemented, 0, {},
       "SELECT * FROM r", "7"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Database db;
    db.options().verify.enforce = true;
    MustExecute(&db, "CREATE TABLE t (a BIGINT, b DOUBLE, s VARCHAR)");
    MustExecute(&db,
                "INSERT INTO t VALUES (1, 1.5, 'x'), (2, 2.5, 'y'), "
                "(3, NULL, 'x'), (4, 4.5, NULL)");
    for (const std::string& sql : c.before) MustExecute(&db, sql);
    Result<QueryResult> result = db.Execute(c.sql);
    EXPECT_EQ(result.status().code(), c.code) << result.status().ToString();
    if (result.ok()) {
      EXPECT_EQ(result->rows_affected, c.rows_affected);
    }
    for (const std::string& sql : c.after) MustExecute(&db, sql);
    EXPECT_EQ(RenderRows(*MustQuery(&db, c.check)), c.expected);
  }
}

// A write statement reports the execution counters of the query it ran,
// like the SELECT it reads from does.
TEST_F(SqlTest, DmlReturnsProgramStats) {
  MustExecute(&db_, "CREATE TABLE u (a BIGINT, b DOUBLE, s VARCHAR)");
  const char* statements[] = {
      "INSERT INTO u SELECT * FROM t",
      "UPDATE u SET b = 0 WHERE a > 1",
      "UPDATE u SET b = t.b FROM t WHERE u.a = t.a",
      "DELETE FROM u WHERE a = 4",
  };
  for (const char* sql : statements) {
    Result<QueryResult> result = db_.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString() << "\nSQL: " << sql;
    EXPECT_GT(result->stats.pipeline_rows_in, 0) << sql;
  }
}

TEST_F(SqlTest, DropTable) {
  MustExecute(&db_, "DROP TABLE t");
  EXPECT_FALSE(db_.Query("SELECT * FROM t").ok());
}

TEST_F(SqlTest, ExecuteScriptReturnsLastResult) {
  auto result = db_.ExecuteScript(
      "CREATE TABLE z (x BIGINT); INSERT INTO z VALUES (1), (2); "
      "SELECT SUM(x) FROM z");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table->GetValue(0, 0).int64_value(), 3);
}

TEST_F(SqlTest, ExplainProducesSteps) {
  auto result = db_.Execute("EXPLAIN SELECT a FROM t WHERE a > 1");
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->explain.find("Final query"), std::string::npos);
}

}  // namespace
}  // namespace dbspinner
