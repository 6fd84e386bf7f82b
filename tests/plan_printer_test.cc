// EXPLAIN / plan rendering tests: the Table I view and plan trees.

#include <gtest/gtest.h>

#include "engine/workloads.h"
#include "exec/physical_planner.h"
#include "plan/plan_printer.h"
#include "test_util.h"

namespace dbspinner {
namespace {

using testing::MustExecute;

class PlanPrinterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(&db_,
                "CREATE TABLE edges (src BIGINT, dst BIGINT, weight DOUBLE)");
    MustExecute(&db_,
                "CREATE TABLE vertexstatus (node BIGINT, status BIGINT)");
  }

  std::string Explain(const std::string& sql, bool verbose = true) {
    auto program = db_.Plan(sql);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    if (!program.ok()) return "";
    return ExplainProgram(*program, verbose);
  }

  Database db_;
};

TEST_F(PlanPrinterTest, StepsAreNumberedSequentially) {
  // Table I's six steps plus the ComputeDelta / affected-keys pair the
  // delta-iteration rewrite inserts at the loop-body start.
  std::string text = Explain(workloads::PRQuery(10), /*verbose=*/false);
  for (int i = 1; i <= 8; ++i) {
    EXPECT_NE(text.find("Step " + std::to_string(i) + ":"),
              std::string::npos)
        << text;
  }
  EXPECT_EQ(text.find("Step 9:"), std::string::npos);
  EXPECT_NE(text.find("ComputeDelta"), std::string::npos) << text;
}

TEST_F(PlanPrinterTest, LoopCheckResolvesJumpTarget) {
  // The PR program's loop check jumps back to the Ri materialization
  // (step 3 of the six-step Table I program).
  std::string text = Explain(workloads::PRQuery(10), /*verbose=*/false);
  EXPECT_NE(text.find("go to step 3 if continue"), std::string::npos) << text;
}

TEST_F(PlanPrinterTest, JumpTargetShiftsWithCommonResult) {
  // With a hoisted __common#1 step inserted before the loop, the body
  // start moves from step 3 to step 4 — jump targets resolve by step id,
  // not position.
  std::string text = Explain(workloads::PRVSQuery(10), /*verbose=*/false);
  EXPECT_NE(text.find("go to step 4 if continue"), std::string::npos) << text;
}

TEST_F(PlanPrinterTest, VerboseIncludesPlanTrees) {
  std::string verbose = Explain(workloads::PRQuery(5), true);
  std::string terse = Explain(workloads::PRQuery(5), false);
  EXPECT_NE(verbose.find("Join"), std::string::npos);
  EXPECT_NE(verbose.find("Aggregate"), std::string::npos);
  EXPECT_EQ(terse.find("Aggregate"), std::string::npos);
  EXPECT_GT(verbose.size(), terse.size());
}

TEST_F(PlanPrinterTest, LoopSpecRendersAllTypes) {
  std::string metadata = Explain(
      "WITH ITERATIVE c (n) AS (SELECT 0 ITERATE SELECT n + 1 FROM c "
      "UNTIL 3 ITERATIONS) SELECT n FROM c",
      false);
  EXPECT_NE(metadata.find("<<Type:metadata, N:3 iterations, Expr:NONE>>"),
            std::string::npos)
      << metadata;

  std::string data = Explain(
      "WITH ITERATIVE c (n) AS (SELECT 0 ITERATE SELECT n + 1 FROM c "
      "UNTIL ANY(n > 5)) SELECT n FROM c",
      false);
  EXPECT_NE(data.find("<<Type:data, N:ANY"), std::string::npos) << data;

  std::string delta = Explain(
      "WITH ITERATIVE c (n) AS (SELECT 0 ITERATE SELECT LEAST(n + 1, 3) "
      "FROM c UNTIL DELTA < 1) SELECT n FROM c",
      false);
  EXPECT_NE(delta.find("<<Type:delta, N:delta < 1"), std::string::npos)
      << delta;
}

TEST_F(PlanPrinterTest, LogicalPlanTreeIndentsChildren) {
  auto program = db_.Plan("SELECT e.src FROM edges e JOIN vertexstatus v "
                          "ON e.dst = v.node WHERE v.status = 1");
  ASSERT_TRUE(program.ok());
  std::string tree = program->steps.back().plan->ToString();
  // Scans are deeper than the join.
  size_t join = tree.find("Join");
  size_t scan = tree.find("Scan table:edges");
  ASSERT_NE(join, std::string::npos);
  ASSERT_NE(scan, std::string::npos);
  EXPECT_LT(join, scan);
}

TEST_F(PlanPrinterTest, ExplainAnalyzeReportsExecutions) {
  MustExecute(&db_, "INSERT INTO edges VALUES (1, 2, 0.5), (2, 1, 0.5)");
  auto result = db_.Execute("EXPLAIN ANALYZE " + workloads::PRQuery(7));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string& text = result->explain;
  // The loop-body Ri materialization ran once per iteration.
  EXPECT_NE(text.find("(actual: 7x"), std::string::npos) << text;
  // R0 ran exactly once.
  EXPECT_NE(text.find("(actual: 1x"), std::string::npos) << text;
  EXPECT_NE(text.find("ms total"), std::string::npos) << text;
  EXPECT_NE(text.find("rows last"), std::string::npos) << text;
  EXPECT_EQ(result->stats.loop_iterations, 7);
}

TEST_F(PlanPrinterTest, ExplainAnalyzeRendersExecutionStats) {
  MustExecute(&db_, "INSERT INTO edges VALUES (1, 2, 0.5), (2, 1, 0.5)");
  auto result = db_.Execute("EXPLAIN ANALYZE " + workloads::PRQuery(3));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string& text = result->explain;
  // The counter block renders below the profiled plan, including the
  // fault-tolerance counters (zero on a clean run, but always present).
  EXPECT_NE(text.find("\nStats: ExecStats{"), std::string::npos) << text;
  // The counter line comes last and ends with a newline, as every line of
  // the plan does.
  EXPECT_TRUE(text.ends_with("}\n")) << text;
  EXPECT_NE(text.find("checkpoints_taken=0"), std::string::npos) << text;
  EXPECT_NE(text.find("restores=0"), std::string::npos) << text;
  EXPECT_NE(text.find("step_retries=0"), std::string::npos) << text;
  EXPECT_NE(text.find("faults_seen=0"), std::string::npos) << text;
  // The parallel-pipeline counters are always present too (zero on this
  // serial run for the stealing/merge counters).
  EXPECT_NE(text.find("morsels_stolen=0"), std::string::npos) << text;
  EXPECT_NE(text.find("agg_partials_merged="), std::string::npos) << text;
  EXPECT_NE(text.find("agg_rows_preaggregated="), std::string::npos) << text;
  // StepProfile splicing still renders alongside the stats block.
  EXPECT_NE(text.find("(actual: "), std::string::npos) << text;
}

TEST_F(PlanPrinterTest, ExplainAnalyzeShowsRecoveryCounters) {
  MustExecute(&db_, "INSERT INTO edges VALUES (1, 2, 0.5), (2, 1, 0.5)");
  db_.options().fault_injection.enabled = true;
  db_.options().fault_injection.seed = 11;
  db_.options().fault_injection.rate = 0.3;
  db_.options().fault_injection.site_filter = "exec.materialize";
  db_.options().fault_tolerance.enable_recovery = true;
  auto result = db_.Execute("EXPLAIN ANALYZE " + workloads::PRQuery(7));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Recovery mode checkpoints every loop entry, so the counter is nonzero
  // and EXPLAIN ANALYZE must surface it.
  EXPECT_GT(result->stats.checkpoints_taken, 0);
  EXPECT_EQ(result->explain.find("checkpoints_taken=0"), std::string::npos)
      << result->explain;
  EXPECT_NE(result->explain.find("checkpoints_taken="), std::string::npos)
      << result->explain;
}

TEST_F(PlanPrinterTest, ExplainAnalyzeDisabledByDefault) {
  MustExecute(&db_, "INSERT INTO edges VALUES (1, 2, 0.5)");
  auto result = db_.Execute("EXPLAIN " + workloads::PRQuery(2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->explain.find("actual:"), std::string::npos);
}

TEST_F(PlanPrinterTest, PhysicalPlanRenders) {
  auto program = db_.Plan("SELECT src, COUNT(*) FROM edges GROUP BY src");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(PlanProgram(&*program).ok());
  std::string text = program->steps.back().physical->ToString();
  EXPECT_NE(text.find("HashAggregate"), std::string::npos) << text;
  EXPECT_NE(text.find("Scan"), std::string::npos) << text;
}

}  // namespace
}  // namespace dbspinner
