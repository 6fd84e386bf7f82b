// Tests for the extended SQL surface: EXCEPT / INTERSECT, LIMIT OFFSET,
// CREATE TABLE AS SELECT, LIKE, wide join/group keys and BIGINT division
// edge cases.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "test_util.h"

namespace dbspinner {
namespace {

using testing::MustExecute;
using testing::MustQuery;

class SqlFeaturesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(&db_, "CREATE TABLE a (x BIGINT)");
    MustExecute(&db_, "CREATE TABLE b (x BIGINT)");
    MustExecute(&db_, "INSERT INTO a VALUES (1), (2), (2), (3), (4)");
    MustExecute(&db_, "INSERT INTO b VALUES (2), (4), (5)");
  }
  Database db_;
};

TEST_F(SqlFeaturesTest, Except) {
  auto t = MustQuery(&db_, "SELECT x FROM a EXCEPT SELECT x FROM b "
                           "ORDER BY x");
  ASSERT_EQ(t->num_rows(), 2u);  // {1, 3}, deduped
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 1);
  EXPECT_EQ(t->GetValue(1, 0).int64_value(), 3);
}

TEST_F(SqlFeaturesTest, Intersect) {
  auto t = MustQuery(&db_, "SELECT x FROM a INTERSECT SELECT x FROM b "
                           "ORDER BY x");
  ASSERT_EQ(t->num_rows(), 2u);  // {2, 4}
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 2);
  EXPECT_EQ(t->GetValue(1, 0).int64_value(), 4);
}

TEST_F(SqlFeaturesTest, ExceptDedupesLeft) {
  auto t = MustQuery(&db_, "SELECT x FROM a EXCEPT SELECT x FROM b "
                           "WHERE x > 100");
  EXPECT_EQ(t->num_rows(), 4u);  // distinct {1,2,3,4}
}

TEST_F(SqlFeaturesTest, SetOpsChain) {
  // (a EXCEPT b) INTERSECT a  ==  {1, 3}
  auto t = MustQuery(&db_,
                     "SELECT x FROM a EXCEPT SELECT x FROM b "
                     "INTERSECT SELECT x FROM a ORDER BY x");
  ASSERT_EQ(t->num_rows(), 2u);
}

TEST_F(SqlFeaturesTest, ExceptWidensTypes) {
  MustExecute(&db_, "CREATE TABLE d (x DOUBLE)");
  MustExecute(&db_, "INSERT INTO d VALUES (2.0)");
  auto t = MustQuery(&db_, "SELECT x FROM a EXCEPT SELECT x FROM d");
  EXPECT_EQ(t->schema().column(0).type, TypeId::kDouble);
  EXPECT_EQ(t->num_rows(), 3u);  // {1, 3, 4}
}

TEST_F(SqlFeaturesTest, LimitOffset) {
  auto t = MustQuery(&db_, "SELECT x FROM a ORDER BY x LIMIT 2 OFFSET 1");
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 2);
  EXPECT_EQ(t->GetValue(1, 0).int64_value(), 2);
}

TEST_F(SqlFeaturesTest, OffsetOnly) {
  auto t = MustQuery(&db_, "SELECT x FROM a ORDER BY x OFFSET 3");
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 3);
}

TEST_F(SqlFeaturesTest, OffsetPastEnd) {
  auto t = MustQuery(&db_, "SELECT x FROM a LIMIT 10 OFFSET 100");
  EXPECT_EQ(t->num_rows(), 0u);
}

TEST_F(SqlFeaturesTest, CreateTableAsSelect) {
  MustExecute(&db_,
              "CREATE TABLE doubled AS SELECT x * 2 AS x2 FROM a WHERE x < 3");
  auto t = MustQuery(&db_, "SELECT x2 FROM doubled ORDER BY x2");
  ASSERT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 2);
  EXPECT_EQ(t->schema().column(0).name, "x2");
}

TEST_F(SqlFeaturesTest, CtasReportsRowCount) {
  auto result = db_.Execute("CREATE TABLE copy AS SELECT x FROM a");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_affected, 5);
}

TEST_F(SqlFeaturesTest, CtasFromIterativeCte) {
  // An iterative CTE result persisted as a table: the "use the result as
  // input to another query" workflow without re-running the loop.
  MustExecute(&db_,
              "CREATE TABLE grown AS "
              "WITH ITERATIVE g (v) AS (SELECT 1 ITERATE SELECT v * 2 FROM g "
              "UNTIL 5 ITERATIONS) SELECT v FROM g");
  auto t = MustQuery(&db_, "SELECT v FROM grown");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 32);
}

TEST_F(SqlFeaturesTest, CtasDuplicateNameFails) {
  auto result = db_.Execute("CREATE TABLE a AS SELECT 1");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAlreadyExists);
}

class LikeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(&db_, "CREATE TABLE s (v VARCHAR)");
    MustExecute(&db_,
                "INSERT INTO s VALUES ('apple'), ('apricot'), ('banana'), "
                "('grape'), (NULL)");
  }
  Database db_;
};

TEST_F(LikeTest, PrefixPattern) {
  auto t = MustQuery(&db_, "SELECT v FROM s WHERE v LIKE 'ap%' ORDER BY v");
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 0).string_value(), "apple");
}

TEST_F(LikeTest, SuffixAndInfix) {
  EXPECT_EQ(MustQuery(&db_, "SELECT v FROM s WHERE v LIKE '%ana'")->num_rows(),
            1u);
  EXPECT_EQ(MustQuery(&db_, "SELECT v FROM s WHERE v LIKE '%ap%'")->num_rows(),
            3u);
}

TEST_F(LikeTest, UnderscoreMatchesOneChar) {
  EXPECT_EQ(
      MustQuery(&db_, "SELECT v FROM s WHERE v LIKE 'gr_pe'")->num_rows(),
      1u);
  EXPECT_EQ(
      MustQuery(&db_, "SELECT v FROM s WHERE v LIKE 'gr_p'")->num_rows(), 0u);
}

TEST_F(LikeTest, NotLike) {
  // NULL rows fail both LIKE and NOT LIKE.
  EXPECT_EQ(
      MustQuery(&db_, "SELECT v FROM s WHERE v NOT LIKE 'ap%'")->num_rows(),
      2u);
}

TEST_F(LikeTest, ExactMatchNoWildcards) {
  EXPECT_EQ(
      MustQuery(&db_, "SELECT v FROM s WHERE v LIKE 'apple'")->num_rows(),
      1u);
}

TEST_F(LikeTest, PercentBacktracking) {
  MustExecute(&db_, "INSERT INTO s VALUES ('aXbXbXc')");
  EXPECT_EQ(
      MustQuery(&db_, "SELECT v FROM s WHERE v LIKE 'a%b%c'")->num_rows(),
      1u);
}

TEST_F(LikeTest, LikeOnNumberFails) {
  MustExecute(&db_, "CREATE TABLE n (x BIGINT)");
  auto result = db_.Query("SELECT x FROM n WHERE x LIKE '1%'");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTypeError);
}

// Keys past 2^53 where INT64 and DOUBLE meet: the hash paths must agree
// with `=`, which compares an INT64 with a DOUBLE as doubles.
class WideKeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (Database* db : {&db_, &nested_}) {
      MustExecute(db, "CREATE TABLE bi (k BIGINT)");
      MustExecute(db, "CREATE TABLE dbl (k DOUBLE)");
      MustExecute(db,
                  "INSERT INTO bi VALUES (9007199254740992), "
                  "(9007199254740993), (9223372036854775807), (5)");
      MustExecute(db,
                  "INSERT INTO dbl VALUES (9007199254740992.0), "
                  "(9223372036854775807.0), (5.0), (6.0)");
    }
  }
  static EngineOptions NoPushdown() {
    EngineOptions options;
    options.optimizer.enable_predicate_pushdown = false;
    return options;
  }
  Database db_;
  // Keeps the WHERE above a nested-loop cross join: the reference answer.
  Database nested_{NoPushdown()};
};

TEST_F(WideKeyTest, BigintDoubleJoinMatchesCrossJoinFilter) {
  // 2^53 + 1 and 2^53 both equal 2^53.0; INT64_MAX equals 2^63.
  for (const char* from : {"bi JOIN dbl ON bi.k = dbl.k",
                           "dbl JOIN bi ON dbl.k = bi.k"}) {
    TablePtr joined = MustQuery(
        &db_, std::string("SELECT bi.k, dbl.k FROM ") + from);
    TablePtr reference = MustQuery(
        &nested_, "SELECT bi.k, dbl.k FROM bi CROSS JOIN dbl "
                  "WHERE bi.k = dbl.k");
    EXPECT_EQ(reference->num_rows(), 4u);
    testing::ExpectSameRows(joined, reference);
  }
}

TEST_F(WideKeyTest, GroupByAndDistinctKeepExtremeIntsApart) {
  MustExecute(&db_, "CREATE TABLE ext (k BIGINT)");
  MustExecute(&db_,
              "INSERT INTO ext VALUES (9223372036854775807), "
              "(9223372036854775806), (-9223372036854775807 - 1), "
              "(9223372036854775807), (9223372036854775806)");
  TablePtr groups =
      MustQuery(&db_, "SELECT k, COUNT(*) FROM ext GROUP BY k ORDER BY k");
  ASSERT_EQ(groups->num_rows(), 3u);
  EXPECT_EQ(groups->GetValue(0, 0).int64_value(),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(groups->GetValue(1, 0).int64_value(),
            std::numeric_limits<int64_t>::max() - 1);
  EXPECT_EQ(groups->GetValue(2, 0).int64_value(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(groups->GetValue(2, 1).int64_value(), 2);
  EXPECT_EQ(MustQuery(&db_, "SELECT DISTINCT k FROM ext")->num_rows(), 3u);
}

// INT64_MIN / -1 is the one BIGINT quotient that does not fit, and the
// hardware divide traps on it: it must fail with a typed error. x % -1 is 0
// for every x, INT64_MIN included (as in PostgreSQL).
void ExpectOverflow(Database* db, const std::string& sql) {
  auto r = db->Execute(sql);
  ASSERT_FALSE(r.ok()) << sql;
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError) << sql;
  EXPECT_NE(r.status().message().find("integer overflow"), std::string::npos)
      << r.status().ToString();
}

TEST(IntegerOverflowTest, MinInt64DivModMinusOneFolded) {
  Database db;
  ExpectOverflow(&db, "SELECT (-9223372036854775807 - 1) / -1");
  TablePtr mod = MustQuery(&db, "SELECT (-9223372036854775807 - 1) % -1");
  EXPECT_EQ(mod->GetValue(0, 0).int64_value(), 0);
}

TEST(IntegerOverflowTest, MinInt64DivModMinusOneOverColumns) {
  EngineOptions options;
  options.optimizer.enable_constant_folding = false;
  Database db(options);
  MustExecute(&db, "CREATE TABLE t (a BIGINT, b BIGINT)");
  MustExecute(&db,
              "INSERT INTO t VALUES (-9223372036854775807 - 1, -1), "
              "(7, -1), (-7, 2)");
  ExpectOverflow(&db, "SELECT a / b FROM t");
  ExpectOverflow(&db, "SELECT a / -1 FROM t");
  TablePtr mod = MustQuery(&db, "SELECT a % b, a % -1 FROM t");
  ASSERT_EQ(mod->num_rows(), 3u);
  EXPECT_EQ(mod->GetValue(0, 0).int64_value(), 0);
  EXPECT_EQ(mod->GetValue(1, 0).int64_value(), 0);
  EXPECT_EQ(mod->GetValue(2, 0).int64_value(), -1);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(mod->GetValue(r, 1).int64_value(), 0);
  }
  TablePtr div = MustQuery(&db, "SELECT a / b FROM t WHERE b = 2");
  EXPECT_EQ(div->GetValue(0, 0).int64_value(), -3);
}

// BIGINT +, -, *, unary - and ABS fail with "integer overflow" instead of
// wrapping: on constants (which the folder leaves to run time), and on
// columns at widths 1 and 4, where the vectorized evaluator is the one
// that fails.
TEST(IntegerOverflowTest, ArithmeticFailsInsteadOfWrapping) {
  {
    Database db;
    ExpectOverflow(&db, "SELECT 9223372036854775807 + 1");
    ExpectOverflow(&db, "SELECT -9223372036854775807 - 2");
    ExpectOverflow(&db, "SELECT 4611686018427387904 * 4");
    ExpectOverflow(&db, "SELECT -(-9223372036854775807 - 1)");
    ExpectOverflow(&db, "SELECT ABS(-9223372036854775807 - 1)");
  }
  for (int workers : {1, 4}) {
    EngineOptions options;
    options.num_workers = workers;
    if (workers > 1) {
      options.mpp_min_rows_per_task = 1;
      options.morsel_size = 1;
    }
    Database db(options);
    MustExecute(&db, "CREATE TABLE t (i BIGINT)");
    MustExecute(&db,
                "INSERT INTO t VALUES (1), (2), (9223372036854775807), "
                "(-9223372036854775807 - 1)");
    ExpectOverflow(&db, "SELECT i * 4611686018427387904 FROM t");
    ExpectOverflow(&db, "SELECT i + 1 FROM t");
    ExpectOverflow(&db, "SELECT i - 1 FROM t");
    ExpectOverflow(&db, "SELECT -i FROM t");
    ExpectOverflow(&db, "SELECT ABS(i) FROM t");
    ExpectOverflow(&db, "SELECT i FROM t WHERE i + 1 > 0");
    // MOD by -1 is 0 for every value, INT64_MIN included.
    TablePtr mod = MustQuery(&db, "SELECT MOD(i, -1) FROM t");
    ASSERT_EQ(mod->num_rows(), 4u);
    for (size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(mod->GetValue(r, 0).int64_value(), 0);
    }
    // Rows that fit still compute.
    TablePtr fits = MustQuery(
        &db, "SELECT i * 2, -i, ABS(-i) FROM t WHERE i > 0 AND i < 3");
    ASSERT_EQ(fits->num_rows(), 2u) << "workers=" << workers;
    for (size_t r = 0; r < 2; ++r) {
      const int64_t i = fits->GetValue(r, 2).int64_value();
      EXPECT_EQ(fits->GetValue(r, 0).int64_value(), 2 * i);
      EXPECT_EQ(fits->GetValue(r, 1).int64_value(), -i);
    }
  }
}

// SUM over BIGINT fails on overflow instead of wrapping, at width 1 and at
// width 4 with one-row morsels, where each partial holds one addend.
TEST(IntegerOverflowTest, SumFailsInPartialAndAtMerge) {
  const std::string sum =
      "SELECT SUM(i) FROM (SELECT 9223372036854775807 AS i "
      "UNION ALL SELECT 1 AS i) s";
  for (int workers : {1, 4}) {
    EngineOptions options;
    options.num_workers = workers;
    if (workers > 1) {
      options.mpp_min_rows_per_task = 1;
      options.morsel_size = 1;
    }
    Database db(options);
    ExpectOverflow(&db, sum);
    ExpectOverflow(&db, sum + " GROUP BY i % 1");
    // The largest sums that fit still come back exactly.
    TablePtr fits = MustQuery(
        &db,
        "SELECT SUM(i) FROM (SELECT 9223372036854775806 AS i "
        "UNION ALL SELECT 1 AS i UNION ALL SELECT -1 AS i "
        "UNION ALL SELECT 1 AS i) s");
    EXPECT_EQ(fits->GetValue(0, 0).int64_value(),
              std::numeric_limits<int64_t>::max())
        << "workers=" << workers;
  }
}

// An integer SUM is exact until Finalize: a running sum that passes
// INT64_MAX midway still returns the total when it fits, whatever the
// morsel split.
TEST(IntegerOverflowTest, SumPassingInt64MaxMidwayFits) {
  const std::string sum =
      "SELECT SUM(i) FROM (SELECT 9223372036854775807 AS i "
      "UNION ALL SELECT 1 AS i UNION ALL SELECT -1 AS i) s";
  for (int workers : {1, 4}) {
    EngineOptions options;
    options.num_workers = workers;
    if (workers > 1) {
      options.mpp_min_rows_per_task = 1;
      options.morsel_size = 1;
    }
    Database db(options);
    for (const std::string& q : {sum, sum + " GROUP BY i % 1"}) {
      TablePtr t = MustQuery(&db, q);
      ASSERT_EQ(t->num_rows(), 1u) << q;
      EXPECT_EQ(t->GetValue(0, 0).int64_value(),
                std::numeric_limits<int64_t>::max())
          << q << " workers=" << workers;
    }
  }
}

// Nesting past kMaxExpressionDepth fails with a ParseError instead of
// overflowing the stack of the passes that recurse over the tree.
void ExpectTooDeep(Database* db, const std::string& sql) {
  auto r = db->Execute(sql);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("nested deeper than"), std::string::npos)
      << r.status().ToString();
}

std::string Repeat(const std::string& part, const std::string& sep, int n) {
  std::string out = part;
  for (int i = 1; i < n; ++i) out += sep + part;
  return out;
}

TEST(ExpressionDepthTest, DeepParenthesesFailWithParseError) {
  Database db;
  ExpectTooDeep(&db, "SELECT " + std::string(10000, '(') + "1" +
                         std::string(10000, ')'));
  ExpectTooDeep(&db, "SELECT " + Repeat("NOT", " ", 10000) + " TRUE");
  ExpectTooDeep(&db, "SELECT " + Repeat("-", " ", 10000) + " 1");
  // Nesting within the limit still runs.
  TablePtr t = MustQuery(&db, "SELECT " + std::string(200, '(') + "7" +
                                  std::string(200, ')'));
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 7);
}

// Operator chains nest their left operand without parser recursion; the
// parser measures them instead.
TEST(ExpressionDepthTest, LongOperatorChainFailsWithParseError) {
  Database db;
  ExpectTooDeep(&db, "SELECT " + Repeat("1", "+", 50000));
  ExpectTooDeep(&db, "SELECT 1 WHERE " + Repeat("TRUE", " AND ", 50000));
  ExpectTooDeep(&db, Repeat("SELECT 1", " UNION ALL ", 50000));
  // A chain whose first operand is itself a chain nests both.
  ExpectTooDeep(&db, "SELECT (" + Repeat("1", "*", 200) + ")" +
                         Repeat("+1", "", 200));
  TablePtr t = MustQuery(&db, "SELECT " + Repeat("1", "+", 200));
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 200);
  t = MustQuery(&db, Repeat("SELECT 1", " UNION ALL ", 200));
  EXPECT_EQ(t->num_rows(), 200u);
}

// NaN is one value, equal to itself and above every number (as in
// PostgreSQL): in ORDER BY, in top-N, in MIN/MAX and in grouping. sqrt of a
// negative number is NaN.
class NanOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(&db_, "CREATE TABLE n (i BIGINT, x DOUBLE)");
    MustExecute(&db_,
                "INSERT INTO n VALUES (1, 3), (2, -1), (3, 1), (4, -4), "
                "(5, 2), (6, 0.5)");
  }
  std::vector<int64_t> Ids(const TablePtr& t) {
    std::vector<int64_t> ids;
    for (size_t r = 0; r < t->num_rows(); ++r) {
      ids.push_back(t->GetValue(r, 0).int64_value());
    }
    return ids;
  }
  Database db_;
};

TEST_F(NanOrderTest, OrderBySortsNanLast) {
  EXPECT_EQ(Ids(MustQuery(&db_, "SELECT i FROM n ORDER BY sqrt(x)")),
            (std::vector<int64_t>{6, 3, 5, 1, 2, 4}));
  EXPECT_EQ(Ids(MustQuery(&db_, "SELECT i FROM n ORDER BY sqrt(x) DESC")),
            (std::vector<int64_t>{2, 4, 1, 5, 3, 6}));
}

TEST_F(NanOrderTest, TopNOverNan) {
  EXPECT_EQ(
      Ids(MustQuery(&db_, "SELECT i FROM n ORDER BY sqrt(x), i LIMIT 3")),
      (std::vector<int64_t>{6, 3, 5}));
  EXPECT_EQ(Ids(MustQuery(
                &db_, "SELECT i FROM n ORDER BY sqrt(x) DESC, i LIMIT 3")),
            (std::vector<int64_t>{2, 4, 1}));
}

TEST_F(NanOrderTest, GroupByAndDistinctMakeOneNanGroup) {
  TablePtr groups = MustQuery(
      &db_,
      "SELECT COUNT(*) FROM n GROUP BY sqrt(x) HAVING COUNT(*) > 1");
  ASSERT_EQ(groups->num_rows(), 1u);
  EXPECT_EQ(groups->GetValue(0, 0).int64_value(), 2);
  EXPECT_EQ(MustQuery(&db_, "SELECT sqrt(x) FROM n GROUP BY sqrt(x)")
                ->num_rows(),
            5u);
  EXPECT_EQ(MustQuery(&db_, "SELECT DISTINCT sqrt(x) FROM n")->num_rows(), 5u);
  TablePtr agg = MustQuery(
      &db_,
      "SELECT COUNT(DISTINCT sqrt(x)), MIN(sqrt(x)), MAX(sqrt(x)) FROM n");
  EXPECT_EQ(agg->GetValue(0, 0).int64_value(), 5);
  EXPECT_DOUBLE_EQ(agg->GetValue(0, 1).double_value(), std::sqrt(0.5));
  EXPECT_TRUE(std::isnan(agg->GetValue(0, 2).double_value()));
  // Equality stays IEEE: NaN joins nothing, itself included.
  EXPECT_EQ(MustQuery(&db_,
                      "SELECT a.i FROM n a JOIN n b ON sqrt(a.x) = sqrt(b.x)")
                ->num_rows(),
            4u);
}

// A comparison with NaN gives one answer on every path: the filter on a
// column against a constant, a filter behind another conjunct, and a
// projection, alone or under OR. NaN sorts above every number.
TEST_F(NanOrderTest, ComparisonsAgreeOnEveryPath) {
  MustExecute(&db_, "CREATE TABLE t (i BIGINT, x DOUBLE)");
  MustExecute(&db_, "INSERT INTO t VALUES (1, 4), (2, -1), (3, 9)");
  MustExecute(&db_, "CREATE TABLE u AS SELECT i, sqrt(x) AS y FROM t");
  EXPECT_EQ(Ids(MustQuery(&db_, "SELECT i FROM u WHERE y > 2.5 ORDER BY i")),
            (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(Ids(MustQuery(&db_,
                          "SELECT i FROM u WHERE i % 1 = 0 AND y > 2.5 "
                          "ORDER BY i")),
            (std::vector<int64_t>{2, 3}));
  for (const char* sql : {"SELECT i, y > 2.5 FROM u ORDER BY i",
                          "SELECT i, (y > 2.5) OR (i < 0) FROM u ORDER BY i"}) {
    TablePtr t = MustQuery(&db_, sql);
    ASSERT_EQ(t->num_rows(), 3u) << sql;
    EXPECT_FALSE(t->GetValue(0, 1).bool_value()) << sql;
    EXPECT_TRUE(t->GetValue(1, 1).bool_value()) << sql;
    EXPECT_TRUE(t->GetValue(2, 1).bool_value()) << sql;
  }
}

// Joins without an equality run as nested loops: the condition runs for
// one left row against every right row. Pairs come out left-major, then
// the unmatched LEFT rows, NULL-padded; a condition that fails on any
// pair fails the statement, as row-wise evaluation of every pair does.
class NestedLoopJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(&db_, "CREATE TABLE l (a BIGINT)");
    MustExecute(&db_, "INSERT INTO l VALUES (1), (2), (NULL), (4)");
    MustExecute(&db_, "CREATE TABLE r (c BIGINT)");
    MustExecute(&db_, "INSERT INTO r VALUES (0), (2), (NULL), (3)");
  }
  // The rows of `sql` as "a:c" strings, in output order.
  std::vector<std::string> Pairs(const std::string& sql) {
    TablePtr t = MustQuery(&db_, sql);
    std::vector<std::string> out;
    for (size_t i = 0; i < t->num_rows(); ++i) {
      out.push_back(t->GetValue(i, 0).ToString() + ":" +
                    t->GetValue(i, 1).ToString());
    }
    return out;
  }
  Database db_;
};

TEST_F(NestedLoopJoinTest, InnerNonEquiWithNulls) {
  EXPECT_EQ(Pairs("SELECT l.a, r.c FROM l JOIN r ON l.a < r.c"),
            (std::vector<std::string>{"1:2", "1:3", "2:3"}));
}

TEST_F(NestedLoopJoinTest, LeftNonEquiPadsUnmatchedRows) {
  EXPECT_EQ(Pairs("SELECT l.a, r.c FROM l LEFT JOIN r ON l.a < r.c"),
            (std::vector<std::string>{"1:2", "1:3", "2:3", "NULL:NULL",
                                      "4:NULL"}));
}

TEST_F(NestedLoopJoinTest, ConditionFailingOnSomePairsFailsStatement) {
  auto r = db_.Execute("SELECT l.a FROM l JOIN r ON 10 / r.c > l.a");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
  // Guarded, the division never sees the zero.
  EXPECT_EQ(
      Pairs("SELECT l.a, r.c FROM l JOIN r ON r.c <> 0 AND 10 / r.c > l.a"),
      (std::vector<std::string>{"1:2", "1:3", "2:2", "2:3", "4:2"}));
}

// INSERT … VALUES evaluates each value once, before the row is cast to the
// target column's type.
TEST(InsertValuesTest, ComputedValues) {
  Database db;
  MustExecute(&db, "CREATE TABLE t (i BIGINT, s VARCHAR, d DOUBLE)");
  MustExecute(&db,
              "INSERT INTO t VALUES (-(2 + 3), UPPER('ab'), LEAST(2.5, 1)), "
              "(CAST('7' AS BIGINT), CASE WHEN 1 > 2 THEN 'no' ELSE 'yes' "
              "END, 7 / 2), (ABS(-4) * 2, COALESCE(NULL, 'c'), NULL)");
  TablePtr t = MustQuery(&db, "SELECT i, s, d FROM t ORDER BY i");
  ASSERT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), -5);
  EXPECT_EQ(t->GetValue(0, 1).string_value(), "AB");
  EXPECT_EQ(t->GetValue(0, 2).double_value(), 1.0);
  EXPECT_EQ(t->GetValue(1, 0).int64_value(), 7);
  EXPECT_EQ(t->GetValue(1, 1).string_value(), "yes");
  EXPECT_EQ(t->GetValue(1, 2).double_value(), 3.0);
  EXPECT_EQ(t->GetValue(2, 0).int64_value(), 8);
  EXPECT_EQ(t->GetValue(2, 1).string_value(), "c");
  EXPECT_TRUE(t->GetValue(2, 2).is_null());
}

TEST(InsertValuesTest, FailingValueFailsTheInsert) {
  Database db;
  MustExecute(&db, "CREATE TABLE t (i BIGINT)");
  ExpectOverflow(&db, "INSERT INTO t VALUES (1), (9223372036854775807 + 1)");
  EXPECT_EQ(MustQuery(&db, "SELECT i FROM t")->num_rows(), 0u);
}

TEST(InsertValuesTest, WrongArityIsABindError) {
  Database db;
  MustExecute(&db, "CREATE TABLE t (i BIGINT, j BIGINT)");
  auto r = db.Execute("INSERT INTO t VALUES (1, 2), (3)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
  EXPECT_EQ(r.status().message(), "INSERT row has 1 values, expected 2");
}

}  // namespace
}  // namespace dbspinner
