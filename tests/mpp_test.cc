// Shared-nothing simulation tests: the thread pool and parallel SQL
// execution equivalence (fused probes, pre-aggregation, DISTINCT's
// partition order and shuffle counter).

#include <gtest/gtest.h>

#include <atomic>

#include "exec/row_index.h"
#include "mpp/thread_pool.h"
#include "test_util.h"

namespace dbspinner {
namespace {

TEST(ThreadPoolTest, ParallelForRunsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForMorselsPropagatesFirstError) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  Status st = pool.ParallelForMorsels(
      100, 4,
      [&](size_t m, size_t) -> Status {
        hits[m].fetch_add(1);
        if (m == 7) return Status::ExecutionError("boom");
        return Status::OK();
      },
      nullptr, nullptr, nullptr, nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "boom");
  // A failed morsel does not stop the queue: every morsel still ran once.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(MppSqlTest, ParallelQueriesMatchSerial) {
  Database serial;
  testing::MustExecute(&serial, "CREATE TABLE t (k BIGINT, v DOUBLE)");
  for (int chunk = 0; chunk < 4; ++chunk) {
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < 500; ++i) {
      int id = chunk * 500 + i;
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(id % 13) + ", " +
                std::to_string(id * 0.5) + ")";
    }
    testing::MustExecute(&serial, insert);
  }
  Database parallel;
  parallel.options().num_workers = 4;
  parallel.options().mpp_min_rows_per_task = 16;
  auto entry = serial.catalog().Get("t");
  ASSERT_TRUE(entry.ok());
  ASSERT_TRUE(parallel.RegisterTable("t", (*entry)->table).ok());

  const char* queries[] = {
      "SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM t GROUP BY k",
      "SELECT v FROM t WHERE v > 250 AND k < 7",
      "SELECT a.k, COUNT(*) FROM t a JOIN t b ON a.k = b.k GROUP BY a.k",
      "SELECT DISTINCT k FROM t",
      // The fused probe pads unmatched LEFT rows per chunk; the residual
      // leaves most probe rows unmatched.
      "SELECT a.k, b.v FROM t a LEFT JOIN t b "
      "ON a.k = b.k AND b.v > a.v + 900",
  };
  for (const char* q : queries) {
    TablePtr a = testing::MustQuery(&serial, q);
    TablePtr b = testing::MustQuery(&parallel, q);
    EXPECT_TRUE(Table::SameRows(*a, *b)) << q;
  }
}

// DISTINCT keeps the first occurrence of each row. Above width 1 it emits
// them in the MPP design's order: stably bucketed by the hash of the whole
// row modulo the width, as if each simulated node emitted its own rows in
// turn. The expected order is built here from the input table.
TEST(MppSqlTest, DistinctOrderAtEveryWidth) {
  Database db;
  testing::MustExecute(&db, "CREATE TABLE t (k BIGINT, s TEXT)");
  std::string insert = "INSERT INTO t VALUES (NULL, 'x')";
  for (int i = 1; i < 300; ++i) {
    insert += ", (" + (i % 23 == 0 ? std::string("NULL")
                                   : std::to_string(i % 37)) +
              ", '" + std::string(1, static_cast<char>('a' + i % 3)) + "')";
  }
  testing::MustExecute(&db, insert);
  auto entry = db.catalog().Get("t");
  ASSERT_TRUE(entry.ok());
  const Table& input = *(*entry)->table;
  const KeyColumns cols = AllColumnsOf(input);

  std::vector<uint32_t> first;
  for (uint32_t i = 0; i < input.num_rows(); ++i) {
    bool seen = false;
    for (uint32_t j : first) {
      seen = seen || (cols[0]->EqualsAt(i, *cols[0], j) &&
                      cols[1]->EqualsAt(i, *cols[1], j));
    }
    if (!seen) first.push_back(i);
  }
  ASSERT_LT(first.size(), input.num_rows());

  for (int width : {1, 4, 8}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    std::vector<uint32_t> expected;
    for (int p = 0; p < width; ++p) {
      for (uint32_t i : first) {
        if (width == 1 || HashKeys(cols, i) % width == static_cast<size_t>(p)) {
          expected.push_back(i);
        }
      }
    }
    db.options().num_workers = width;
    db.options().mpp_min_rows_per_task = 8;
    TablePtr out = testing::MustQuery(&db, "SELECT DISTINCT k, s FROM t");
    ASSERT_EQ(out->num_rows(), expected.size());
    for (size_t r = 0; r < expected.size(); ++r) {
      for (size_t c = 0; c < 2; ++c) {
        EXPECT_TRUE(out->column(c).EqualsAt(r, *cols[c], expected[r]))
            << "row " << r << " col " << c;
      }
    }
  }
}

TEST(MppSqlTest, DistinctOfEmptyTableKeepsSchema) {
  Database db;
  db.options().num_workers = 8;
  db.options().mpp_min_rows_per_task = 1;
  testing::MustExecute(&db, "CREATE TABLE e (k BIGINT, v DOUBLE)");
  TablePtr out = testing::MustQuery(&db, "SELECT DISTINCT k, v FROM e");
  EXPECT_EQ(out->num_rows(), 0u);
  ASSERT_EQ(out->num_columns(), 2u);
  EXPECT_EQ(out->schema().column(0).type, TypeId::kInt64);
  EXPECT_EQ(out->schema().column(1).type, TypeId::kDouble);
}

// A parallel DISTINCT counts its whole input as shuffled on every column
// (the MPP design moves each row to the node that owns its hash); the
// shuffle is a fault site.
TEST(MppSqlTest, ShuffleStatsReported) {
  Database db;
  db.options().num_workers = 4;
  db.options().mpp_min_rows_per_task = 8;
  testing::MustExecute(&db, "CREATE TABLE t (k BIGINT)");
  std::string insert = "INSERT INTO t VALUES (0)";
  for (int i = 1; i < 400; ++i) insert += ", (" + std::to_string(i % 5) + ")";
  testing::MustExecute(&db, insert);
  const std::string q = "SELECT DISTINCT k FROM t";
  auto result = db.Execute(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table->num_rows(), 5u);
  EXPECT_EQ(result->stats.rows_shuffled, 400);

  db.options().fault_injection.enabled = true;
  db.options().fault_injection.rate = 1.0;
  db.options().fault_injection.site_filter = "exec.distinct.shuffle";
  auto faulted = db.Execute(q);
  ASSERT_FALSE(faulted.ok());
  EXPECT_NE(faulted.status().message().find("exec.distinct.shuffle"),
            std::string::npos)
      << faulted.status().ToString();
}

// A parallel GROUP BY is served by fused pre-aggregation: per-worker
// partial hash tables merged once at the breaker, no key repartitioning.
// The shuffle counter must stay zero, the pre-aggregation counters must
// engage, and the rows must equal the width-1 answer exactly.
TEST(MppSqlTest, FusedPreAggregationSkipsShuffle) {
  Database db;
  db.options().num_workers = 4;
  db.options().mpp_min_rows_per_task = 8;
  db.options().morsel_size = 64;  // 400 rows -> several morsels per worker
  testing::MustExecute(&db, "CREATE TABLE t (k BIGINT)");
  std::string insert = "INSERT INTO t VALUES (0)";
  for (int i = 1; i < 400; ++i) insert += ", (" + std::to_string(i % 5) + ")";
  testing::MustExecute(&db, insert);

  const std::string q = "SELECT k, COUNT(*), SUM(k) FROM t GROUP BY k";
  auto fused = db.Execute(q);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_EQ(fused->stats.rows_shuffled, 0);
  EXPECT_GT(fused->stats.agg_partials_merged, 0);
  EXPECT_EQ(fused->stats.agg_rows_preaggregated, 400);

  db.options().num_workers = 1;
  auto serial = db.Execute(q);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_EQ(serial->stats.agg_partials_merged, 0);
  EXPECT_TRUE(Table::SameRows(*fused->table, *serial->table));
}

}  // namespace
}  // namespace dbspinner
