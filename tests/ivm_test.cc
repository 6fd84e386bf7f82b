// Incremental materialized views (src/ivm/, DESIGN.md §14): delta-driven
// maintenance must be observationally equivalent to recomputing the view's
// defining query, for every plan shape the incrementalizer supports and for
// every shape it falls back on. The ExecStats counters double as the test's
// proof that the *intended* path ran — an aggregate view that silently full-
// refreshes on every delta would still pass an equality check.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "server/session.h"
#include "test_util.h"

namespace dbspinner {
namespace {

using testing::ExpectSameRows;
using testing::MustExecute;
using testing::MustQuery;
using testing::Unwrap;

/// Sum of the four ivm_* counters carried by one statement's stats.
struct IvmTally {
  int64_t deltas = 0;
  int64_t rows = 0;
  int64_t fulls = 0;
  int64_t fallbacks = 0;

  void Add(const ExecStats& s) {
    deltas += s.ivm_deltas_applied;
    rows += s.ivm_rows_maintained;
    fulls += s.ivm_full_refreshes;
    fallbacks += s.ivm_fallbacks;
  }
};

class IvmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(&db_,
                "CREATE TABLE edges (src BIGINT, dst BIGINT, weight DOUBLE)");
    MustExecute(&db_,
                "INSERT INTO edges VALUES (1, 2, 0.5), (1, 3, 0.5), "
                "(2, 3, 1.0), (3, 1, 1.0), (3, 2, 2.0)");
    MustExecute(&db_, "CREATE TABLE vertexstatus (node BIGINT, status BIGINT)");
    MustExecute(&db_,
                "INSERT INTO vertexstatus VALUES (1, 1), (2, 0), (3, 1)");
  }

  /// Executes and folds the statement's ivm counters into `tally`.
  void Run(const std::string& sql, IvmTally* tally = nullptr) {
    Result<QueryResult> r = db_.Execute(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString() << "\nSQL: " << sql;
    if (tally != nullptr) tally->Add(r->stats);
  }

  /// The maintained view must equal its defining query re-executed.
  void ExpectViewMatches(const std::string& name, const std::string& body,
                         IvmTally* tally = nullptr) {
    Result<QueryResult> view = db_.Execute("SELECT * FROM " + name);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    if (tally != nullptr) tally->Add(view->stats);
    ExpectSameRows(view->table, MustQuery(&db_, body));
  }

  Database db_;
};

constexpr const char* kFilterBody =
    "SELECT src, dst, weight FROM edges WHERE MOD(src, 2) = 1";
constexpr const char* kJoinBody =
    "SELECT e.src, e.dst, vs.status FROM edges AS e "
    "JOIN vertexstatus AS vs ON vs.node = e.dst";
constexpr const char* kAggBody =
    "SELECT src, COUNT(*) AS c, SUM(weight) AS s FROM edges GROUP BY src";

TEST_F(IvmTest, LinearFilterViewMaintainsIncrementally) {
  Run(std::string("CREATE MATERIALIZED VIEW v AS ") + kFilterBody);
  IvmTally tally;
  Run("INSERT INTO edges VALUES (5, 1, 4.0), (6, 1, 4.0)", &tally);
  ExpectViewMatches("v", kFilterBody);
  Run("UPDATE edges SET weight = weight * 2.0 WHERE src = 1", &tally);
  ExpectViewMatches("v", kFilterBody);
  Run("DELETE FROM edges WHERE src = 3", &tally);
  ExpectViewMatches("v", kFilterBody);
  // All three deltas must have folded incrementally, not via recompute.
  EXPECT_GE(tally.deltas, 3);
  EXPECT_GT(tally.rows, 0);
  EXPECT_EQ(tally.fulls, 0);
  EXPECT_EQ(tally.fallbacks, 0);
}

TEST_F(IvmTest, JoinViewMaintainsFromEitherInput) {
  Run(std::string("CREATE MATERIALIZED VIEW vj AS ") + kJoinBody);
  IvmTally tally;
  Run("INSERT INTO edges VALUES (2, 1, 9.0)", &tally);
  ExpectViewMatches("vj", kJoinBody);
  // Delta arriving from the *other* join input: the linear plan substitutes
  // the delta on vertexstatus while edges stays whole.
  Run("UPDATE vertexstatus SET status = 1 - status WHERE node = 2", &tally);
  ExpectViewMatches("vj", kJoinBody);
  Run("DELETE FROM vertexstatus WHERE node = 3", &tally);
  ExpectViewMatches("vj", kJoinBody);
  EXPECT_GE(tally.deltas, 3);
  EXPECT_EQ(tally.fulls, 0);
}

TEST_F(IvmTest, AggregateRetractionsFoldIncrementally) {
  Run(std::string("CREATE MATERIALIZED VIEW va AS ") + kAggBody);
  IvmTally tally;
  Run("INSERT INTO edges VALUES (1, 4, 2.0)", &tally);
  ExpectViewMatches("va", kAggBody);
  // Retraction: COUNT and SUM walk backwards; group 3 loses one of its two
  // rows.
  Run("DELETE FROM edges WHERE dst = 1", &tally);
  ExpectViewMatches("va", kAggBody);
  Run("UPDATE edges SET weight = weight + 0.25 WHERE src = 1", &tally);
  ExpectViewMatches("va", kAggBody);
  EXPECT_GE(tally.deltas, 3);
  EXPECT_EQ(tally.fulls, 0);
}

// NaN keys form one group in the maintained view, as in GROUP BY.
TEST_F(IvmTest, NanKeysFoldIntoOneGroup) {
  MustExecute(&db_, "CREATE TABLE t (x DOUBLE, y BIGINT)");
  Run("CREATE MATERIALIZED VIEW vn AS "
      "SELECT x, COUNT(*) AS c, SUM(y) AS s FROM t GROUP BY x");
  IvmTally tally;
  Run("INSERT INTO t VALUES (sqrt(-1.0), 1), (2.0, 5)", &tally);
  Run("INSERT INTO t VALUES (sqrt(-4.0), 2)", &tally);
  Run("DELETE FROM t WHERE y = 1", &tally);
  Run("INSERT INTO t VALUES (sqrt(-9.0), 4)", &tally);
  EXPECT_GE(tally.deltas, 4);
  EXPECT_EQ(tally.fulls, 0);
  TablePtr view = MustQuery(&db_, "SELECT c, s FROM vn ORDER BY x");
  ASSERT_EQ(view->num_rows(), 2u);
  EXPECT_EQ(view->GetValue(1, 0).int64_value(), 2);  // NaN sorts last
  EXPECT_EQ(view->GetValue(1, 1).int64_value(), 6);
  ExpectSameRows(view, MustQuery(&db_,
                                 "SELECT COUNT(*) AS c, SUM(y) AS s FROM t "
                                 "GROUP BY x ORDER BY x"));
}

TEST_F(IvmTest, MinRetractionEscalatesToFullRefresh) {
  const std::string body =
      "SELECT src, MIN(weight) AS mn FROM edges GROUP BY src";
  Run("CREATE MATERIALIZED VIEW vm AS " + body);
  IvmTally tally;
  // Inserting a new minimum folds incrementally (MIN under insert is a fold).
  Run("INSERT INTO edges VALUES (1, 9, 0.125)", &tally);
  ExpectViewMatches("vm", body);
  EXPECT_EQ(tally.fulls, 0);
  // Deleting the row that holds group 1's minimum cannot be folded — the
  // registry must escalate that view to a full refresh, and still serve the
  // right answer.
  Run("DELETE FROM edges WHERE weight < 0.2", &tally);
  ExpectViewMatches("vm", body);
  EXPECT_GE(tally.fulls, 1);
}

TEST_F(IvmTest, FallbackShapesRecomputeOnRead) {
  const std::string body = "SELECT DISTINCT dst FROM edges";
  Run("CREATE MATERIALIZED VIEW vd AS " + body);
  IvmTally tally;
  Run("INSERT INTO edges VALUES (7, 7, 1.0)", &tally);
  ExpectViewMatches("vd", body, &tally);
  Run("DELETE FROM edges WHERE dst = 7", &tally);
  ExpectViewMatches("vd", body, &tally);
  // DISTINCT has no incremental plan: every sync is a fallback recompute.
  EXPECT_GT(tally.fallbacks, 0);
  EXPECT_EQ(tally.deltas, 0);
}

TEST_F(IvmTest, ViewReadsComposeWithMppWidths) {
  Run(std::string("CREATE MATERIALIZED VIEW v AS ") + kAggBody);
  Run("INSERT INTO edges VALUES (4, 1, 1.0), (4, 2, 2.0)");
  TablePtr expected = MustQuery(&db_, kAggBody);
  for (int workers : {2, 8}) {
    SCOPED_TRACE(workers);
    EngineOptions eo = db_.options();
    eo.num_workers = workers;
    eo.mpp_min_rows_per_task = 1;
    SessionState reader(eo);
    reader.temp_scope = "w" + std::to_string(workers) + ":";
    Result<QueryResult> r = db_.ExecuteForSession(&reader, "SELECT * FROM v");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectSameRows(r->table, expected);
  }
}

TEST_F(IvmTest, RollbackLeavesViewsConsistent) {
  Run(std::string("CREATE MATERIALIZED VIEW v AS ") + kAggBody);
  TablePtr before = MustQuery(&db_, "SELECT * FROM v");
  Run("BEGIN");
  Run("INSERT INTO edges VALUES (8, 8, 8.0)");
  Run("UPDATE edges SET weight = 0.0 WHERE src = 1");
  Run("ROLLBACK");
  // The rolled-back deltas must not leak into the view in any form.
  ExpectViewMatches("v", kAggBody);
  ExpectSameRows(MustQuery(&db_, "SELECT * FROM v"), before);
}

TEST_F(IvmTest, InterruptedMaintenanceServesPriorVersionThenResumes) {
  Run(std::string("CREATE MATERIALIZED VIEW v AS ") + kAggBody);
  ExpectViewMatches("v", kAggBody);

  // Injected faults with recovery off make every maintenance query fail
  // mid-flight. The mutating statement itself (a VALUES insert, no executor
  // program) still commits; the view must keep its prior consistent version
  // with the delta queued, not publish a torn state.
  db_.options().fault_injection.enabled = true;
  db_.options().fault_injection.rate = 1.0;
  db_.options().fault_injection.seed = 3;
  Run("INSERT INTO edges VALUES (9, 9, 9.0)");
  bool pending_seen = false;
  for (const auto& info : db_.ListViews()) {
    if (info.name == "v") pending_seen = info.pending > 0;
  }
  EXPECT_TRUE(pending_seen);

  // With faults gone the next read drains the queued delta and converges.
  db_.options().fault_injection.enabled = false;
  IvmTally tally;
  ExpectViewMatches("v", kAggBody, &tally);
  EXPECT_GE(tally.deltas, 1);
  for (const auto& info : db_.ListViews()) {
    if (info.name == "v") {
      EXPECT_EQ(info.pending, 0u);
    }
  }
}

TEST_F(IvmTest, SessionCountersReportedOnlyByTheirStatement) {
  Run(std::string("CREATE MATERIALIZED VIEW v AS ") + kAggBody);
  // Fail the post-commit maintenance so the delta stays queued: the next
  // read syncs it through CollectViewBindings.
  db_.options().fault_injection.enabled = true;
  db_.options().fault_injection.rate = 1.0;
  db_.options().fault_injection.seed = 3;
  Run("INSERT INTO edges VALUES (9, 9, 9.0)");
  db_.options().fault_injection.enabled = false;

  SessionState ss(db_.options());
  // What the server's Session records for a statement that had to queue.
  ss.pending.queue_wait_us = 7;
  ss.pending.admission_waits = 1;
  Result<QueryResult> admitted =
      db_.ExecuteForSession(&ss, "SELECT src FROM edges");
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_EQ(admitted->stats.queue_wait_us, 7);
  EXPECT_EQ(admitted->stats.admission_waits, 1);

  Result<QueryResult> synced = db_.ExecuteForSession(&ss, "SELECT * FROM v");
  ASSERT_TRUE(synced.ok()) << synced.status().ToString();
  EXPECT_GE(synced->stats.ivm_deltas_applied, 1);
  EXPECT_GT(synced->stats.ivm_rows_maintained, 0);
  EXPECT_EQ(synced->stats.admission_waits, 0);

  // The next statement of the session reports none of it again.
  Result<QueryResult> next =
      db_.ExecuteForSession(&ss, "SELECT dst FROM edges");
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->stats.ivm_deltas_applied, 0);
  EXPECT_EQ(next->stats.ivm_rows_maintained, 0);
  EXPECT_EQ(next->stats.ivm_full_refreshes, 0);
  EXPECT_EQ(next->stats.ivm_fallbacks, 0);
  EXPECT_EQ(next->stats.queue_wait_us, 0);
  EXPECT_EQ(next->stats.admission_waits, 0);
}

// The maintenance queries a read runs to sync a stale view must not take
// the statement's own admission counters: the statement reports them.
TEST_F(IvmTest, ViewSyncKeepsTheStatementsAdmissionCounters) {
  Run(std::string("CREATE MATERIALIZED VIEW v AS ") + kAggBody);
  // Fail the post-commit maintenance so the delta stays queued.
  db_.options().fault_injection.enabled = true;
  db_.options().fault_injection.rate = 1.0;
  db_.options().fault_injection.seed = 3;
  Run("INSERT INTO edges VALUES (9, 9, 9.0)");
  db_.options().fault_injection.enabled = false;

  SessionState ss(db_.options());
  ss.pending.queue_wait_us = 7;
  ss.pending.admission_waits = 1;
  Result<QueryResult> synced = db_.ExecuteForSession(&ss, "SELECT * FROM v");
  ASSERT_TRUE(synced.ok()) << synced.status().ToString();
  EXPECT_GE(synced->stats.ivm_deltas_applied, 1);
  EXPECT_EQ(synced->stats.queue_wait_us, 7);
  EXPECT_EQ(synced->stats.admission_waits, 1);
}

TEST_F(IvmTest, KnobsGateIncrementalMaintenance) {
  Run(std::string("CREATE MATERIALIZED VIEW v AS ") + kAggBody);

  // A delta wider than ivm_max_delta_rows must force the full-refresh path
  // (and still serve the right rows).
  IvmTally capped;
  db_.options().ivm_max_delta_rows = 1;
  Run("INSERT INTO edges VALUES (10, 1, 1.0), (10, 2, 1.0)", &capped);
  ExpectViewMatches("v", kAggBody);
  EXPECT_GE(capped.fulls, 1);
  EXPECT_EQ(capped.deltas, 0);
  db_.options().ivm_max_delta_rows = 1 << 20;

  // ivm_enabled=false as a per-session override: that session's writes
  // refresh in full, and other sessions' writes stay incremental.
  server::SessionManager mgr(&db_);
  auto off = mgr.CreateSession();
  off->options().ivm_enabled = false;
  Result<QueryResult> r = off->Execute("INSERT INTO edges VALUES (11, 1, 1.0)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->stats.ivm_full_refreshes, 1);
  EXPECT_EQ(r->stats.ivm_deltas_applied, 0);
  ExpectViewMatches("v", kAggBody);

  IvmTally incremental;
  Run("INSERT INTO edges VALUES (12, 1, 1.0)", &incremental);
  ExpectViewMatches("v", kAggBody);
  EXPECT_GE(incremental.deltas, 1);
  EXPECT_EQ(incremental.fulls, 0);
}

TEST_F(IvmTest, InvalidKnobRejectedPerStatement) {
  server::SessionManager mgr(&db_);
  auto s = mgr.CreateSession();
  s->options().ivm_max_delta_rows = 0;
  auto r = s->Execute("SELECT COUNT(*) FROM edges");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
  s->options().ivm_max_delta_rows = 1 << 20;
  auto ok = s->Execute("SELECT COUNT(*) FROM edges");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(IvmTest, DdlRules) {
  Run(std::string("CREATE MATERIALIZED VIEW v AS ") + kFilterBody);

  // Name collisions, both directions.
  EXPECT_FALSE(db_.Execute("CREATE TABLE v (x BIGINT)").ok());
  EXPECT_FALSE(
      db_.Execute("CREATE MATERIALIZED VIEW edges AS SELECT src FROM edges")
          .ok());
  // IF NOT EXISTS tolerates the existing view.
  Run(std::string("CREATE MATERIALIZED VIEW IF NOT EXISTS v AS ") +
      kFilterBody);
  // Views on views are rejected (one maintenance hop only).
  EXPECT_FALSE(
      db_.Execute("CREATE MATERIALIZED VIEW vv AS SELECT * FROM v").ok());
  // Reserved name space.
  EXPECT_FALSE(
      db_.Execute("CREATE MATERIALIZED VIEW __ivm_x AS SELECT * FROM edges")
          .ok());
  // A base table with a dependent view cannot be dropped.
  EXPECT_FALSE(db_.Execute("DROP TABLE edges").ok());
  // DROP TABLE on a view is redirected to the right statement.
  EXPECT_FALSE(db_.Execute("DROP TABLE v").ok());
  // Views are transaction-inert: no CREATE/DROP/REFRESH inside BEGIN.
  Run("BEGIN");
  EXPECT_FALSE(
      db_.Execute("CREATE MATERIALIZED VIEW t2 AS SELECT * FROM edges").ok());
  EXPECT_FALSE(db_.Execute("DROP MATERIALIZED VIEW v").ok());
  EXPECT_FALSE(db_.Execute("REFRESH MATERIALIZED VIEW v").ok());
  Run("ROLLBACK");

  EXPECT_FALSE(db_.Execute("DROP MATERIALIZED VIEW missing").ok());
  Run("DROP MATERIALIZED VIEW IF EXISTS missing");
  Run("DROP MATERIALIZED VIEW v");
  EXPECT_FALSE(db_.Execute("SELECT * FROM v").ok());
  // With the last view gone, its base table is droppable again.
  Run("DROP TABLE edges");
}

TEST_F(IvmTest, ListViewsReportsPlanShapes) {
  Run(std::string("CREATE MATERIALIZED VIEW a_lin AS ") + kFilterBody);
  Run(std::string("CREATE MATERIALIZED VIEW b_agg AS ") + kAggBody);
  Run("CREATE MATERIALIZED VIEW c_fall AS SELECT DISTINCT src FROM edges");
  auto views = db_.ListViews();
  ASSERT_EQ(views.size(), 3u);
  EXPECT_EQ(views[0].name, "a_lin");
  EXPECT_EQ(views[0].plan, "linear");
  EXPECT_EQ(views[1].name, "b_agg");
  EXPECT_EQ(views[1].plan, "aggregate");
  EXPECT_EQ(views[2].name, "c_fall");
  EXPECT_EQ(views[2].plan, "fallback");
  for (const auto& v : views) EXPECT_FALSE(v.definition.empty());
}

TEST_F(IvmTest, RefreshRebuildsFromScratch) {
  Run(std::string("CREATE MATERIALIZED VIEW v AS ") + kAggBody);
  IvmTally tally;
  Run("REFRESH MATERIALIZED VIEW v", &tally);
  EXPECT_GE(tally.fulls, 1);
  ExpectViewMatches("v", kAggBody);
}

// UPDATE ... FROM reads a view like any other FROM item; a view that is a
// join input of the write must be bound, not looked up in the catalog.
TEST_F(IvmTest, UpdateFromReadsMaterializedView) {
  Run("CREATE MATERIALIZED VIEW mv AS "
      "SELECT node, status + 10 AS ns FROM vertexstatus");
  Result<QueryResult> r = db_.Execute(
      "UPDATE edges SET weight = mv.ns FROM mv WHERE edges.dst = mv.node");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows_affected, 5);
  ExpectSameRows(MustQuery(&db_, "SELECT src, dst, weight FROM edges"),
                 MustQuery(&db_,
                           "SELECT e.src, e.dst, vs.status + 10 "
                           "FROM edges AS e JOIN vertexstatus AS vs "
                           "ON vs.node = e.dst"));
}

// --- durability --------------------------------------------------------------

class IvmDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::error_code ec;
    dir_ = (std::filesystem::temp_directory_path() /
            ("dbsp_ivm_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_, ec);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  EngineOptions Options() {
    EngineOptions eo;
    eo.persistence.enabled = true;
    eo.persistence.path = dir_;
    eo.persistence.sync = false;  // format round-trip, not kill testing
    return eo;
  }

  std::string dir_;
};

TEST_F(IvmDurabilityTest, ViewsSurviveReopenAndResumeMaintenance) {
  {
    Database db(Options());
    MustExecute(&db,
                "CREATE TABLE edges (src BIGINT, dst BIGINT, weight DOUBLE)");
    MustExecute(&db,
                "INSERT INTO edges VALUES (1, 2, 0.5), (2, 3, 1.0), "
                "(3, 1, 2.0)");
    MustExecute(&db, std::string("CREATE MATERIALIZED VIEW v AS ") + kAggBody);
    MustExecute(&db, "CREATE MATERIALIZED VIEW dropped AS "
                     "SELECT src FROM edges WHERE src = 1");
    MustExecute(&db, "DROP MATERIALIZED VIEW dropped");
  }
  {
    // Recovery replays the persisted view catalog: the surviving view is
    // re-registered from its definition SQL and serves correct contents;
    // the dropped one must not resurrect. Storage opens lazily on the
    // first statement, so read before inspecting the registry.
    Database db(Options());
    TablePtr view = Unwrap(db.Execute("SELECT * FROM v")).table;
    ExpectSameRows(view, MustQuery(&db, kAggBody));
    auto views = db.ListViews();
    ASSERT_EQ(views.size(), 1u);
    EXPECT_EQ(views[0].name, "v");
    EXPECT_EQ(views[0].plan, "aggregate");

    // Maintenance resumes incrementally on the recovered registry.
    Result<QueryResult> w =
        db.Execute("INSERT INTO edges VALUES (1, 9, 4.0)");
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    EXPECT_GE(w->stats.ivm_deltas_applied, 1);
    ExpectSameRows(Unwrap(db.Execute("SELECT * FROM v")).table,
                   MustQuery(&db, kAggBody));
  }
}

}  // namespace
}  // namespace dbspinner
