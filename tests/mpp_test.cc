// Shared-nothing simulation tests: the thread pool, hash partitioning, and
// parallel SQL execution equivalence (fused probes, pre-aggregation, the
// DISTINCT shuffle).

#include <gtest/gtest.h>

#include <atomic>
#include <unordered_map>

#include "mpp/partition.h"
#include "mpp/thread_pool.h"
#include "test_util.h"

namespace dbspinner {
namespace {

Schema KV() {
  Schema s;
  s.AddColumn("k", TypeId::kInt64);
  s.AddColumn("v", TypeId::kDouble);
  return s;
}

TablePtr MakeKV(int64_t n) {
  auto t = Table::Make(KV());
  for (int64_t i = 0; i < n; ++i) {
    t->AppendRow({Value::Int64(i % 17), Value::Double(static_cast<double>(i))});
  }
  return t;
}

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

TEST(PartitionTest, HashPartitionKeepsEqualKeysTogether) {
  auto t = MakeKV(500);
  auto parts = HashPartition(*t, {0}, 4);
  ASSERT_EQ(parts.size(), 4u);
  size_t total = 0;
  // Each key appears in exactly one partition.
  std::unordered_map<int64_t, size_t> owner;
  for (size_t p = 0; p < parts.size(); ++p) {
    total += parts[p]->num_rows();
    for (size_t r = 0; r < parts[p]->num_rows(); ++r) {
      int64_t k = parts[p]->GetValue(r, 0).int64_value();
      auto it = owner.find(k);
      if (it == owner.end()) {
        owner[k] = p;
      } else {
        EXPECT_EQ(it->second, p) << "key " << k << " split across partitions";
      }
    }
  }
  EXPECT_EQ(total, t->num_rows());
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

// A parallel DISTINCT hash-partitions its whole input on every column, so
// duplicates meet on one simulated node; the shuffle is a fault site.
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
