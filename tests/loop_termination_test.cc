// Loop-termination edge cases: 0-iteration programs (the termination
// condition already holds before the first Ri), Delta termination when the
// first iteration changes nothing, and duplicate-key detection on the merge
// path under MPP partitioning. Companion tests to the differential fuzzer's
// oracle matrix — each of these is a boundary the fuzzer generates.

#include <gtest/gtest.h>

#include "test_util.h"

namespace dbspinner {
namespace {

using testing::MustExecute;
using testing::MustQuery;

void LoadBase(Database* db) {
  MustExecute(db, "CREATE TABLE base (id BIGINT, v BIGINT)");
  MustExecute(db, "INSERT INTO base VALUES (1, 10), (2, 20), (3, 30)");
}

// --- 0-iteration programs ----------------------------------------------------

TEST(LoopTerminationTest, ZeroIterationsReturnsR0Unchanged) {
  Database db;
  LoadBase(&db);
  auto t = MustQuery(&db,
                     "WITH ITERATIVE it (id, v) AS (SELECT id, v FROM base "
                     "ITERATE SELECT id, v + 1 FROM it UNTIL 0 ITERATIONS) "
                     "SELECT id, v FROM it ORDER BY id");
  ASSERT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->GetValue(0, 1).int64_value(), 10);
  EXPECT_EQ(t->GetValue(2, 1).int64_value(), 30);
}

TEST(LoopTerminationTest, ZeroIterationsSkipsMergePathBody) {
  Database db;
  LoadBase(&db);
  // Merge path (Ri has WHERE): the body must not run even once.
  auto t = MustQuery(&db,
                     "WITH ITERATIVE it (id, v) AS (SELECT id, v FROM base "
                     "ITERATE SELECT id, v + 1 FROM it WHERE id <= 2 "
                     "UNTIL 0 ITERATIONS) "
                     "SELECT SUM(v) FROM it");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 60);
}

TEST(LoopTerminationTest, ZeroUpdatesReturnsR0Unchanged) {
  Database db;
  LoadBase(&db);
  auto t = MustQuery(&db,
                     "WITH ITERATIVE it (id, v) AS (SELECT id, v FROM base "
                     "ITERATE SELECT id, v + 1 FROM it UNTIL 0 UPDATES) "
                     "SELECT MAX(v) FROM it");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 30);
}

TEST(LoopTerminationTest, AnyConditionTrueOnR0SkipsBody) {
  Database db;
  // UNTIL ANY(n >= 0) already holds over R0, so the counter never increments.
  auto t = MustQuery(&db,
                     "WITH ITERATIVE c (n) AS (SELECT 0 ITERATE "
                     "SELECT n + 1 FROM c UNTIL ANY(n >= 0)) "
                     "SELECT n FROM c");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 0);
}

TEST(LoopTerminationTest, AllConditionTrueOnR0SkipsBody) {
  Database db;
  LoadBase(&db);
  auto t = MustQuery(&db,
                     "WITH ITERATIVE it (id, v) AS (SELECT id, v FROM base "
                     "ITERATE SELECT id, v + 1 FROM it UNTIL ALL(v >= 10)) "
                     "SELECT MAX(v) FROM it");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 30);
}

TEST(LoopTerminationTest, AnyConditionFalseOnR0StillIterates) {
  Database db;
  // Sanity inverse: a condition not yet true on R0 must enter the loop.
  auto t = MustQuery(&db,
                     "WITH ITERATIVE c (n) AS (SELECT 0 ITERATE "
                     "SELECT n + 1 FROM c UNTIL ANY(n >= 2)) "
                     "SELECT n FROM c");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 2);
}

TEST(LoopTerminationTest, EmptyBaseRecursiveCteSkipsRecursion) {
  Database db;
  MustExecute(&db, "CREATE TABLE empty_edges (src BIGINT, dst BIGINT)");
  // The recursive arm watches an empty working set: zero recursive rounds.
  auto t = MustQuery(&db,
                     "WITH RECURSIVE reach (n) AS ("
                     "  SELECT src FROM empty_edges"
                     " UNION "
                     "  SELECT e.dst FROM reach JOIN empty_edges AS e "
                     "  ON reach.n = e.src) "
                     "SELECT COUNT(*) FROM reach");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 0);
}

// --- Delta termination -------------------------------------------------------

TEST(LoopTerminationTest, DeltaTerminationStopsWhenFirstIterationIsNoop) {
  Database db;
  LoadBase(&db);
  // The body reproduces the table verbatim, so iteration 1 changes 0 rows
  // and DELTA < 1 stops immediately (Delta needs two versions to compare,
  // so exactly one body run happens).
  auto t = MustQuery(&db,
                     "WITH ITERATIVE it (id, v) AS (SELECT id, v FROM base "
                     "ITERATE SELECT id, v FROM it UNTIL DELTA < 1) "
                     "SELECT id, v FROM it ORDER BY id");
  ASSERT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->GetValue(0, 1).int64_value(), 10);
}

TEST(LoopTerminationTest, DeltaTerminationStopsWithDuplicatedKey) {
  Database db;
  db.options().max_iterations_guard = 10;
  MustExecute(&db, "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustExecute(&db, "INSERT INTO t VALUES (1, 1), (1, 2), (2, 5)");
  // Key 1 holds two rows. Each row of the unchanged copy still equals a
  // previous row of its key, so iteration 1 changes nothing.
  auto result = db.Execute(
      "WITH ITERATIVE r (k, v) AS (SELECT k, v FROM t "
      "ITERATE SELECT k, v FROM r UNTIL DELTA < 1) SELECT * FROM r");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table->num_rows(), 3u);
  EXPECT_EQ(result->stats.loop_iterations, 1);
}

// Iteration 1 turns key 1's rows {(1,1),(1,2)} into {(1,1),(1,1)}: every
// current row still equals a previous row, but (1,2) equals no current row,
// so the change counts 1 and the loop runs a second, unchanging iteration
// before DELTA < 1 stops it. With and without the delta rewrite.
TEST(LoopTerminationTest, DeltaTerminationCountsDroppedRowOfDuplicatedKey) {
  for (bool delta : {false, true}) {
    SCOPED_TRACE(delta ? "delta on" : "delta off");
    Database db;
    db.options().optimizer.enable_delta_iteration = delta;
    db.options().max_iterations_guard = 10;
    MustExecute(&db, "CREATE TABLE t (k BIGINT, v BIGINT)");
    MustExecute(&db, "INSERT INTO t VALUES (1, 1), (1, 2), (2, 5)");
    auto result = db.Execute(
        "WITH ITERATIVE r (k, v) AS (SELECT k, v FROM t "
        "ITERATE SELECT k, CASE WHEN k = 1 THEN 1 ELSE v END FROM r "
        "UNTIL DELTA < 1) SELECT k, v FROM r ORDER BY k, v");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.loop_iterations, 2);
    ASSERT_EQ(result->table->num_rows(), 3u);
    EXPECT_EQ(result->table->GetValue(1, 1).int64_value(), 1);
    EXPECT_EQ(result->table->GetValue(2, 1).int64_value(), 5);
  }
}

TEST(LoopTerminationTest, DeltaTerminationConvergesOnceValuesSettle) {
  Database db;
  LoadBase(&db);
  // LEAST(v + 10, 50): rows settle at 50; once fewer than 1 row changes the
  // loop stops. 30 -> 40 -> 50 takes 2 changing iterations, then one no-op.
  auto t = MustQuery(&db,
                     "WITH ITERATIVE it (id, v) AS (SELECT id, v FROM base "
                     "ITERATE SELECT id, LEAST(v + 10, 50) FROM it "
                     "UNTIL DELTA < 1) "
                     "SELECT MIN(v), MAX(v) FROM it");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 50);
  EXPECT_EQ(t->GetValue(0, 1).int64_value(), 50);
}

TEST(LoopTerminationTest, DeltaAlwaysRunsTheFirstIteration) {
  Database db;
  // Even a huge delta bound runs iteration 1 before comparing versions:
  // DELTA < 1000000 stops right after it (1 row changed < bound).
  auto t = MustQuery(&db,
                     "WITH ITERATIVE c (n) AS (SELECT 0 ITERATE "
                     "SELECT n + 1 FROM c UNTIL DELTA < 1000000) "
                     "SELECT n FROM c");
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 1);
}

// --- merge-path duplicate keys under MPP ------------------------------------

class MergeDuplicateKeyMppTest : public ::testing::TestWithParam<int> {};

TEST_P(MergeDuplicateKeyMppTest, DuplicateWorkingKeyDetectedAtEveryWidth) {
  EngineOptions opts;
  opts.num_workers = GetParam();
  opts.mpp_min_rows_per_task = 1;  // force partitioning even on tiny inputs
  Database db(opts);
  MustExecute(&db, "CREATE TABLE base (id BIGINT, v BIGINT)");
  MustExecute(&db,
              "INSERT INTO base VALUES (1, 1), (2, 2), (3, 3), (4, 4), "
              "(5, 5), (6, 6), (7, 7), (8, 8)");
  // Ri maps every row to key 1: the merge must reject the ambiguous update
  // identically whether the update ran serially or partitioned.
  auto result = db.Query(
      "WITH ITERATIVE it (id, v) AS (SELECT id, v FROM base ITERATE "
      "SELECT 1, v + 1 FROM it WHERE v < 100 UNTIL 2 ITERATIONS) "
      "SELECT * FROM it");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(result.status().message().find("duplicate"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Widths, MergeDuplicateKeyMppTest,
                         ::testing::Values(1, 2, 8));

TEST(LoopTerminationTest, MergeResultsMatchAcrossMppWidths) {
  // The positive counterpart: a legal merge loop must produce identical
  // results serially and partitioned.
  auto run = [](int workers) {
    EngineOptions opts;
    opts.num_workers = workers;
    opts.mpp_min_rows_per_task = 1;
    Database db(opts);
    MustExecute(&db, "CREATE TABLE base (id BIGINT, v BIGINT)");
    MustExecute(&db,
                "INSERT INTO base VALUES (1, 1), (2, 2), (3, 3), (4, 4), "
                "(5, 5), (6, 6), (7, 7), (8, 8)");
    return MustQuery(&db,
                     "WITH ITERATIVE it (id, v) AS (SELECT id, v FROM base "
                     "ITERATE SELECT id, v + id FROM it WHERE id <= 4 "
                     "UNTIL 3 ITERATIONS) "
                     "SELECT id, v FROM it ORDER BY id");
  };
  TablePtr serial = run(1);
  TablePtr mpp = run(8);
  testing::ExpectSameRows(serial, mpp);
}

}  // namespace
}  // namespace dbspinner
