// Parallel fused pipelines through the work-stealing morsel dispatcher:
// MorselQueue unit behavior, degenerate morsel shapes (empty source,
// 1-row morsels over 10k rows) at several widths, cancellation landing
// mid-steal, and the options-validation gate for session overrides.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>

#include "engine/workloads.h"
#include "graph/generator.h"
#include "mpp/thread_pool.h"
#include "server/session.h"
#include "test_util.h"

namespace dbspinner {
namespace {

using server::SessionManager;
using testing::ExpectSameRows;
using testing::MustQuery;
using testing::Unwrap;

// --- MorselQueue unit behavior ---------------------------------------------

TEST(MorselQueue, PartitionsIntoContiguousRangesAndBackSteals) {
  // 10 morsels over 4 workers: spans [0,3) [3,6) [6,8) [8,10). A single
  // worker draining the whole queue first sweeps its own span front-to-back
  // (no steals), then back-steals everything else from the fullest victim.
  MorselQueue q(10, 4);
  ASSERT_EQ(q.width(), 4u);

  size_t m = 0;
  bool stolen = false;
  std::multiset<size_t> seen;
  int own = 0;
  int steals = 0;
  while (q.Pop(0, &m, &stolen)) {
    seen.insert(m);
    if (stolen) {
      ++steals;
    } else {
      ++own;
      EXPECT_EQ(m, seen.size() - 1);  // own span arrives in order 0,1,2
    }
  }
  EXPECT_EQ(seen.size(), 10u);  // every morsel claimed exactly once
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 9u);
  EXPECT_EQ(std::set<size_t>(seen.begin(), seen.end()).size(), 10u);
  EXPECT_EQ(own, 3);     // [0,3) was worker 0's span
  EXPECT_EQ(steals, 7);  // the rest came from the other three ranges
  // Drained queue keeps returning false.
  EXPECT_FALSE(q.Pop(0, &m, &stolen));
  EXPECT_FALSE(q.Pop(3, &m, &stolen));
}

TEST(MorselQueue, WidthClampsToMorselCount) {
  MorselQueue q(3, 8);
  EXPECT_EQ(q.width(), 3u);
  size_t m = 0;
  bool stolen = false;
  // Worker slots beyond width wrap onto existing ranges.
  EXPECT_TRUE(q.Pop(5, &m, &stolen));
  EXPECT_EQ(m, 2u);  // 5 % 3 == 2 -> own range is [2,3)
  EXPECT_FALSE(stolen);
}

TEST(MorselQueue, EmptyQueueDrainsImmediately) {
  MorselQueue q(0, 4);
  size_t m = 0;
  bool stolen = false;
  EXPECT_FALSE(q.Pop(0, &m, &stolen));
}

// --- degenerate parallel pipelines through the dispatcher ------------------

void SetParallel(Database* db, int workers, size_t morsel_size) {
  db->options().num_workers = workers;
  db->options().mpp_min_rows_per_task = 1;
  db->options().morsel_size = morsel_size;
}

TEST(PipelineParallel, EmptySourceAtEveryWidth) {
  for (int workers : {1, 2, 8}) {
    Database db;
    SetParallel(&db, workers, 1);
    testing::MustExecute(&db, "CREATE TABLE t (k BIGINT, v DOUBLE)");

    TablePtr filtered = MustQuery(&db, "SELECT k FROM t WHERE k > 10");
    EXPECT_EQ(filtered->num_rows(), 0u) << "workers=" << workers;

    // Zero-group aggregate: grouped -> no rows; global -> one zero row.
    TablePtr grouped =
        MustQuery(&db, "SELECT k, COUNT(*) FROM t GROUP BY k");
    EXPECT_EQ(grouped->num_rows(), 0u) << "workers=" << workers;
    auto global = db.Execute("SELECT COUNT(*), SUM(v) FROM t");
    ASSERT_TRUE(global.ok()) << global.status().ToString();
    ASSERT_EQ(global->table->num_rows(), 1u);
    EXPECT_EQ(global->table->column(0).GetValue(0).int64_value(), 0);
  }
}

TEST(PipelineParallel, SingleRowMorselsAgreeAcrossWidths) {
  // 10k rows at morsel_size=1: the dispatcher sees 10k one-row morsels, so
  // every claim/steal path and every chunk boundary is exercised. All
  // widths must agree with the serial answer exactly (integer aggregates).
  Database serial;
  SetParallel(&serial, 1, 1024);
  testing::MustExecute(&serial, "CREATE TABLE t (k BIGINT, v BIGINT)");
  std::string insert = "INSERT INTO t VALUES (0, 0)";
  for (int i = 1; i < 10000; ++i) {
    insert += ", (" + std::to_string(i % 97) + ", " + std::to_string(i) + ")";
  }
  testing::MustExecute(&serial, insert);
  const std::string agg_q =
      "SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM t GROUP BY k";
  const std::string filter_q = "SELECT k, v FROM t WHERE v % 7 = 3";
  TablePtr agg_expected = MustQuery(&serial, agg_q);
  TablePtr filter_expected = MustQuery(&serial, filter_q);

  int64_t total_stolen = 0;
  for (int workers : {2, 8}) {
    Database db;
    SetParallel(&db, workers, 1);
    testing::MustExecute(&db, "CREATE TABLE t (k BIGINT, v BIGINT)");
    testing::MustExecute(&db, insert);

    auto agg = db.Execute(agg_q);
    ASSERT_TRUE(agg.ok()) << agg.status().ToString();
    EXPECT_TRUE(Table::SameRows(*agg->table, *agg_expected))
        << "workers=" << workers;
    EXPECT_GE(agg->stats.morsels_dispatched, 10000);
    EXPECT_GT(agg->stats.agg_partials_merged, 0);
    total_stolen += agg->stats.morsels_stolen;

    auto filtered = db.Execute(filter_q);
    ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
    EXPECT_TRUE(Table::SameRows(*filtered->table, *filter_expected))
        << "workers=" << workers;
    total_stolen += filtered->stats.morsels_stolen;
  }
  // 10k one-row morsels across unevenly-scheduled workers: some stealing
  // must have happened somewhere in the sweep (the counter is wired up).
  EXPECT_GT(total_stolen, 0);
}

// Cancellation while workers are actively claiming/stealing morsels: the
// token is checked per claimed morsel, so a mid-steal cancel kills the
// query with kCancelled, the pool drains cleanly, and the session still
// serves correct queries afterwards.
TEST(PipelineParallel, CancelLandsMidStealWithoutCorruption) {
  auto db = std::make_unique<Database>();
  graph::GraphSpec spec;
  spec.num_nodes = 200;
  spec.num_edges = 800;
  graph::EdgeList g = graph::Generate(spec);
  ASSERT_TRUE(graph::LoadIntoDatabase(db.get(), g, 0.75, 5).ok());
  SetParallel(db.get(), 4, 1);

  SessionManager mgr(db.get());
  auto s = mgr.CreateSession();
  const std::string long_query = workloads::PRQuery(100000);

  std::atomic<bool> started{false};
  Result<QueryResult> result = Status::Internal("query never ran");
  std::thread runner([&] {
    started = true;
    result = s->Execute(long_query);
  });
  while (!started) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  s->CancelCurrent();
  runner.join();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();

  TablePtr expected = MustQuery(db.get(), workloads::PRQuery(3));
  TablePtr after = Unwrap(s->Execute(workloads::PRQuery(3))).table;
  ExpectSameRows(expected, after);
}

// --- session-override validation (engine/options.cc::Validate) -------------

TEST(OptionsValidation, SessionOverridesRejectedPerStatement) {
  Database db;
  testing::MustExecute(&db, "CREATE TABLE t (k BIGINT)");
  testing::MustExecute(&db, "INSERT INTO t VALUES (1), (2), (3)");

  SessionManager mgr(&db);
  auto s = mgr.CreateSession();

  // A session can \set its options to nonsense between statements; the
  // engine must reject the next statement with kInvalidArgument instead of
  // dividing by zero somewhere inside the morsel math.
  struct Case {
    const char* label;
    std::function<void(EngineOptions&)> poke;
  } cases[] = {
      {"morsel_size=0", [](EngineOptions& o) { o.morsel_size = 0; }},
      {"mpp_min_rows_per_task=0",
       [](EngineOptions& o) { o.mpp_min_rows_per_task = 0; }},
      {"num_workers=0", [](EngineOptions& o) { o.num_workers = 0; }},
      {"max_iterations_guard=0",
       [](EngineOptions& o) { o.max_iterations_guard = 0; }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.label);
    EngineOptions saved = s->options();
    c.poke(s->options());
    auto r = s->Execute("SELECT COUNT(*) FROM t");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
    s->options() = saved;
  }

  // After restoring sane values the same session works again.
  auto ok = s->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->table->num_rows(), 1u);

  // The database-level API takes the same gate.
  db.options().morsel_size = 0;
  auto bad = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  db.options().morsel_size = 1024;
  ASSERT_TRUE(db.Execute("SELECT COUNT(*) FROM t").ok());
}

}  // namespace
}  // namespace dbspinner
