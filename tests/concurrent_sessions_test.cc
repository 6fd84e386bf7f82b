// Concurrent serving tests (DESIGN.md §10): N sessions hammering one
// Database must produce exactly the results serial execution produces, a
// cancelled/deadlined iterative query must die mid-loop with kCancelled and
// leave the engine healthy, and the admission scheduler must bound
// concurrency fairly. Runs under the TSan CI job (DBSPINNER_TSAN).

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "engine/workloads.h"
#include "graph/generator.h"
#include "server/session.h"
#include "test_util.h"

namespace dbspinner {
namespace testing {
namespace {

using server::QueryScheduler;
using server::SchedulerOptions;
using server::SessionManager;

std::unique_ptr<Database> MakeGraphDb() {
  auto db = std::make_unique<Database>();
  graph::GraphSpec spec;
  spec.num_nodes = 200;
  spec.num_edges = 800;
  graph::EdgeList g = graph::Generate(spec);
  EXPECT_TRUE(graph::LoadIntoDatabase(db.get(), g, 0.75, 5).ok());
  return db;
}

// --- correctness under concurrency -----------------------------------------

TEST(ConcurrentSessions, ParallelReadsMatchSerialExecution) {
  std::unique_ptr<Database> db = MakeGraphDb();
  SessionManager mgr(db.get());

  // A mixed read workload: two iterative workloads and a join-aggregate.
  const std::vector<std::string> queries = {
      workloads::PRQuery(5),
      workloads::SSSPQuery(8, 1, 50),
      "SELECT e1.src, COUNT(*) FROM edges e1 JOIN edges e2 "
      "ON e1.dst = e2.src GROUP BY e1.src",
  };

  // Serial baseline on the default session.
  std::vector<TablePtr> expected;
  for (const auto& q : queries) expected.push_back(MustQuery(db.get(), q));

  constexpr int kSessions = 4;
  constexpr int kReps = 3;
  std::vector<std::shared_ptr<server::Session>> sessions;
  for (int s = 0; s < kSessions; ++s) sessions.push_back(mgr.CreateSession());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // results[s][r*queries.size() + q]
  std::vector<std::vector<TablePtr>> results(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      for (int rep = 0; rep < kReps; ++rep) {
        for (const auto& q : queries) {
          Result<QueryResult> r = sessions[s]->Execute(q);
          if (!r.ok()) {
            ++failures;
            return;
          }
          results[s].push_back(r->table);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_EQ(failures.load(), 0);
  for (int s = 0; s < kSessions; ++s) {
    ASSERT_EQ(results[s].size(), queries.size() * kReps);
    for (int rep = 0; rep < kReps; ++rep) {
      for (size_t q = 0; q < queries.size(); ++q) {
        ExpectSameRows(expected[q], results[s][rep * queries.size() + q]);
      }
    }
  }
}

TEST(ConcurrentSessions, ReadersUnaffectedByConcurrentWriters) {
  Database db;
  MustExecute(&db, "CREATE TABLE t (id BIGINT, v BIGINT)");
  MustExecute(&db, "INSERT INTO t VALUES (0, 0)");
  SessionManager mgr(&db);

  constexpr int kWriters = 2;
  constexpr int kRowsEach = 40;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto s = mgr.CreateSession();
      for (int i = 0; i < kRowsEach; ++i) {
        auto r = s->Execute("INSERT INTO t VALUES (" +
                            std::to_string(w * kRowsEach + i + 1) + ", 1)");
        if (!r.ok()) ++failures;
      }
    });
  }
  // Readers: every snapshot must be internally consistent — COUNT(*) and
  // COUNT(id) come from the same pinned version, so they always agree.
  for (int rdr = 0; rdr < 2; ++rdr) {
    threads.emplace_back([&] {
      auto s = mgr.CreateSession();
      for (int i = 0; i < 30; ++i) {
        auto r = s->Execute("SELECT COUNT(*), COUNT(id) FROM t");
        if (!r.ok()) {
          ++failures;
          return;
        }
        int64_t c1 = r->table->GetValue(0, 0).int64_value();
        int64_t c2 = r->table->GetValue(0, 1).int64_value();
        if (c1 != c2) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_EQ(failures.load(), 0);
  TablePtr final_count = MustQuery(&db, "SELECT COUNT(*) FROM t");
  EXPECT_EQ(final_count->GetValue(0, 0).int64_value(),
            1 + kWriters * kRowsEach);
}

TEST(ConcurrentSessions, TransactionBlocksOtherWritersUntilRollback) {
  Database db;
  MustExecute(&db, "CREATE TABLE t (id BIGINT)");
  SessionManager mgr(&db);

  auto a = mgr.CreateSession();
  auto b = mgr.CreateSession();
  DBSP_ASSERT_OK(a->Execute("BEGIN").status());
  DBSP_ASSERT_OK(a->Execute("INSERT INTO t VALUES (1)").status());

  // B's write must wait for A's transaction, then land on the rolled-back
  // state.
  std::thread writer([&] { (void)b->Execute("INSERT INTO t VALUES (2)"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  DBSP_ASSERT_OK(a->Execute("ROLLBACK").status());
  writer.join();

  TablePtr rows = MustQuery(&db, "SELECT id FROM t");
  ASSERT_EQ(rows->num_rows(), 1u);
  EXPECT_EQ(rows->GetValue(0, 0).int64_value(), 2);
}

TEST(ConcurrentSessions, CommitRunsWhileAdmissionSlotsBlockOnCommitLock) {
  // Regression: with one admission slot, a writer from another session is
  // admitted and then blocks on the commit lock held by A's transaction. If
  // A's COMMIT had to pass admission it would queue behind that writer
  // forever — admission slots occupied by waiters only the queued COMMIT
  // can unblock. The in-transaction admission bypass breaks the cycle.
  Database db;
  MustExecute(&db, "CREATE TABLE t (id BIGINT)");
  SchedulerOptions sched;
  sched.max_concurrent_queries = 1;
  SessionManager mgr(&db, sched);

  auto a = mgr.CreateSession();
  auto b = mgr.CreateSession();
  DBSP_ASSERT_OK(a->Execute("BEGIN").status());
  DBSP_ASSERT_OK(a->Execute("INSERT INTO t VALUES (1)").status());

  // B occupies the only admission slot, then blocks on the commit lock.
  std::thread writer([&] { (void)b->Execute("INSERT INTO t VALUES (2)"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  DBSP_ASSERT_OK(a->Execute("COMMIT").status());
  writer.join();

  TablePtr rows = MustQuery(&db, "SELECT COUNT(*) FROM t");
  EXPECT_EQ(rows->GetValue(0, 0).int64_value(), 2);
}

TEST(ConcurrentSessions, CommitOnDifferentThreadThanBegin) {
  // The commit lock is thread-agnostic: BEGIN on one thread, COMMIT on
  // another (a connection handler may hop threads between statements).
  Database db;
  MustExecute(&db, "CREATE TABLE t (id BIGINT)");
  SessionManager mgr(&db);
  auto s = mgr.CreateSession();

  std::thread t1([&] {
    DBSP_ASSERT_OK(s->Execute("BEGIN").status());
    DBSP_ASSERT_OK(s->Execute("INSERT INTO t VALUES (7)").status());
  });
  t1.join();
  std::thread t2([&] { DBSP_ASSERT_OK(s->Execute("COMMIT").status()); });
  t2.join();

  TablePtr rows = MustQuery(&db, "SELECT id FROM t");
  ASSERT_EQ(rows->num_rows(), 1u);
  EXPECT_EQ(rows->GetValue(0, 0).int64_value(), 7);
}

TEST(ConcurrentSessions, WriterBlockedOnTransactionIsCancellable) {
  // A writer queued behind an open transaction must die with kCancelled
  // when its deadline fires: the commit-lock wait polls the token instead
  // of blocking uninterruptibly.
  Database db;
  MustExecute(&db, "CREATE TABLE t (id BIGINT)");
  SessionManager mgr(&db);

  auto a = mgr.CreateSession();
  auto b = mgr.CreateSession();
  DBSP_ASSERT_OK(a->Execute("BEGIN").status());

  Result<QueryResult> blocked =
      b->ExecuteWithDeadline("INSERT INTO t VALUES (1)", 30'000);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kCancelled);

  DBSP_ASSERT_OK(a->Execute("ROLLBACK").status());
  // The engine is healthy: the cancelled writer left no lock held.
  DBSP_ASSERT_OK(b->Execute("INSERT INTO t VALUES (2)").status());
  TablePtr rows = MustQuery(&db, "SELECT COUNT(*) FROM t");
  EXPECT_EQ(rows->GetValue(0, 0).int64_value(), 1);
}

TEST(ConcurrentSessions, RegisterTableSerializesWithOpenTransaction) {
  // RegisterTable takes the commit lock: it must wait out an open
  // transaction instead of publishing a catalog version under it.
  Database db;
  MustExecute(&db, "CREATE TABLE t (id BIGINT)");
  SessionManager mgr(&db);
  auto a = mgr.CreateSession();
  DBSP_ASSERT_OK(a->Execute("BEGIN").status());

  std::atomic<bool> registered{false};
  std::thread reg([&] {
    Schema schema;
    schema.AddColumn("x", TypeId::kInt64);
    DBSP_ASSERT_OK(db.RegisterTable("ext", Table::Make(schema)));
    registered = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(registered.load());

  DBSP_ASSERT_OK(a->Execute("ROLLBACK").status());
  reg.join();
  EXPECT_TRUE(registered.load());
  // ROLLBACK's catalog restore and the registration both survived.
  EXPECT_TRUE(db.catalog().Exists("ext"));
  EXPECT_TRUE(db.catalog().Exists("t"));
}

TEST(ConcurrentSessions, PerSessionOptionOverridesAreIsolated) {
  std::unique_ptr<Database> db = MakeGraphDb();
  SessionManager mgr(db.get());

  auto tweaked = mgr.CreateSession();
  auto plain = mgr.CreateSession();
  tweaked->options().optimizer.enable_rename_optimization = false;
  tweaked->options().num_workers = 2;

  TablePtr expected = MustQuery(db.get(), workloads::PRQuery(4));
  QueryResult from_tweaked = Unwrap(tweaked->Execute(workloads::PRQuery(4)));
  QueryResult from_plain = Unwrap(plain->Execute(workloads::PRQuery(4)));
  ExpectSameRows(expected, from_tweaked.table);
  ExpectSameRows(expected, from_plain.table);
  // The default session's options were not touched by the overrides.
  EXPECT_TRUE(db->options().optimizer.enable_rename_optimization);
  EXPECT_EQ(db->options().num_workers, 1);
}

// --- cancellation and deadlines --------------------------------------------

TEST(ConcurrentSessions, CancelKillsIterativeQueryMidLoop) {
  std::unique_ptr<Database> db = MakeGraphDb();
  SessionManager mgr(db.get());
  auto s = mgr.CreateSession();

  // An UNTIL-bounded loop far larger than could finish quickly: the cancel
  // must cut it off at a step boundary mid-flight.
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

  // The engine is not corrupted: the same session immediately serves a
  // correct query, and the cancelled loop leaked nothing into the catalog.
  TablePtr expected = MustQuery(db.get(), workloads::PRQuery(3));
  TablePtr after = Unwrap(s->Execute(workloads::PRQuery(3))).table;
  ExpectSameRows(expected, after);
}

// Mid-morsel cancellation: with a 1-row morsel size the vectorized pipeline
// checks the cancellation token between every pair of rows, so a cancel
// lands inside a single operator's scan rather than only at step
// boundaries. The query must still die with kCancelled and leak nothing.
TEST(ConcurrentSessions, CancelLandsAtMorselBoundaryInsidePipeline) {
  std::unique_ptr<Database> db = MakeGraphDb();
  db->options().morsel_size = 1;
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

  // The session serves a correct query afterwards, and the extra per-morsel
  // checks were really taken (far more than the per-step count alone).
  TablePtr expected = MustQuery(db.get(), workloads::PRQuery(3));
  auto after = Unwrap(s->Execute(workloads::PRQuery(3)));
  ExpectSameRows(expected, after.table);
  EXPECT_GT(after.stats.cancel_checks, 0);
  EXPECT_GT(after.stats.morsels_dispatched, after.stats.pipelines_run);
}

TEST(ConcurrentSessions, DeadlineExpiresIterativeQuery) {
  std::unique_ptr<Database> db = MakeGraphDb();
  SessionManager mgr(db.get());
  auto s = mgr.CreateSession();

  Result<QueryResult> result =
      s->ExecuteWithDeadline(workloads::PRQuery(100000), /*micros=*/50000);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();

  // Subsequent statements on the session run normally (the expired token
  // was statement-scoped).
  TablePtr t = Unwrap(s->Execute("SELECT COUNT(*) FROM edges")).table;
  EXPECT_EQ(t->num_rows(), 1u);
}

// --- admission control (direct scheduler tests: deterministic) -------------

TEST(QuerySchedulerTest, RejectsWhenQueueFull) {
  SchedulerOptions opts;
  opts.max_concurrent_queries = 1;
  opts.max_queue_depth = 0;
  QueryScheduler sched(opts);

  CancellationToken inert;
  Result<QueryScheduler::Slot> first = sched.Admit(1, inert);
  DBSP_ASSERT_OK(first.status());
  Result<QueryScheduler::Slot> second = sched.Admit(2, inert);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(sched.stats().rejected_queue_full, 1);

  // Releasing the slot makes room again.
  first = Status::Unavailable("drop");  // destroys the held slot
  Result<QueryScheduler::Slot> third = sched.Admit(2, inert);
  DBSP_ASSERT_OK(third.status());
}

TEST(QuerySchedulerTest, CancelledWhileQueuedReturnsCancelled) {
  SchedulerOptions opts;
  opts.max_concurrent_queries = 1;
  opts.max_queue_depth = 4;
  QueryScheduler sched(opts);

  CancellationToken inert;
  Result<QueryScheduler::Slot> holder = sched.Admit(1, inert);
  DBSP_ASSERT_OK(holder.status());

  CancellationToken cancel = CancellationToken::Make();
  Result<QueryScheduler::Slot> waited = Status::Internal("never admitted");
  std::thread waiter([&] { waited = sched.Admit(2, cancel); });
  // Let it enqueue, then kill it while it waits.
  while (sched.stats().queued < 1) std::this_thread::yield();
  cancel.RequestCancel();
  waiter.join();

  ASSERT_FALSE(waited.ok());
  EXPECT_EQ(waited.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(sched.stats().cancelled_while_queued, 1);
}

TEST(QuerySchedulerTest, FairnessPrefersLeastLoadedSession) {
  SchedulerOptions opts;
  opts.max_concurrent_queries = 2;
  opts.max_queue_depth = 4;
  QueryScheduler sched(opts);

  CancellationToken inert;
  // Session 1 occupies both slots.
  Result<QueryScheduler::Slot> a1 = sched.Admit(1, inert);
  Result<QueryScheduler::Slot> a2 = sched.Admit(1, inert);
  DBSP_ASSERT_OK(a1.status());
  DBSP_ASSERT_OK(a2.status());

  // Session 1 queues a third query FIRST, then session 2 queues its first.
  std::atomic<int> order{0};
  std::atomic<int> first_granted{0};
  std::thread t1([&] {
    Result<QueryScheduler::Slot> s = sched.Admit(1, inert);
    int expected = 0;
    first_granted.compare_exchange_strong(expected, 1);
    (void)s;
    (void)order;
  });
  while (sched.stats().queued < 1) std::this_thread::yield();
  std::thread t2([&] {
    Result<QueryScheduler::Slot> s = sched.Admit(2, inert);
    int expected = 0;
    first_granted.compare_exchange_strong(expected, 2);
    // Hold briefly so t1 cannot win by recycling this slot instantly.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    (void)s;
  });
  while (sched.stats().queued < 2) std::this_thread::yield();

  // Free ONE of session 1's slots: session 2 (0 running) must beat session
  // 1's third query (1 still running) despite arriving later.
  a1 = Status::Unavailable("drop");
  t2.join();
  a2 = Status::Unavailable("drop");
  t1.join();

  EXPECT_EQ(first_granted.load(), 2);
  EXPECT_EQ(sched.stats().admitted, 4);
}

TEST(ConcurrentSessions, QueueWaitSurfacesInStats) {
  SchedulerOptions sched;
  sched.max_concurrent_queries = 1;
  Database db;
  MustExecute(&db, "CREATE TABLE t (id BIGINT)");
  MustExecute(&db, "INSERT INTO t VALUES (1), (2), (3)");
  SessionManager mgr(&db, sched);

  // With one slot, some of these concurrent queries must queue; the waits
  // show up in the scheduler counters and in per-query ExecStats.
  constexpr int kThreads = 3;
  std::atomic<int64_t> max_queue_wait{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      auto s = mgr.CreateSession();
      for (int r = 0; r < 5; ++r) {
        auto res = s->Execute("SELECT COUNT(*) FROM t");
        if (!res.ok()) {
          ++failures;
          return;
        }
        int64_t w = res->stats.queue_wait_us;
        int64_t cur = max_queue_wait.load();
        while (w > cur && !max_queue_wait.compare_exchange_weak(cur, w)) {
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_EQ(failures.load(), 0);
  server::SchedulerStats stats = mgr.scheduler().stats();
  EXPECT_EQ(stats.admitted, kThreads * 5);
  // At least one query should have queued behind the single slot; its wait
  // must be accounted both globally and in its own stats.
  if (stats.queued > 0) {
    EXPECT_GT(stats.total_queue_wait_us, 0);
    EXPECT_GT(max_queue_wait.load(), 0);
  }
}

}  // namespace
}  // namespace testing
}  // namespace dbspinner
