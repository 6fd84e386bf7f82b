// Tests for the static plan & program verifier (src/verify/, DESIGN.md §9).
//
// Coverage contract: every defect code in AllDefectCodes() has a
// deliberately broken plan or program here that makes exactly that code
// fire (BrokenReport), and the clean-corpus test proves the verifier stays
// silent — in enforcing mode — across every workload under every optimizer
// toggle combination.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <cmath>

#include "engine/database.h"
#include "engine/workloads.h"
#include "exec/physical_plan.h"
#include "exec/physical_planner.h"
#include "expr/expr.h"
#include "graph/generator.h"
#include "plan/logical_plan.h"
#include "plan/program.h"
#include "test_util.h"
#include "verify/verify.h"

namespace dbspinner {
namespace {

using testing::MustExecute;
using verify::AllDefectCodes;
using verify::DefectCode;
using verify::DefectCodeName;
using verify::EnforceOrCount;
using verify::VerifyContext;
using verify::VerifyPhysicalPlan;
using verify::VerifyPlan;
using verify::VerifyProgram;
using verify::VerifyReport;

Schema OneInt() { return Schema({{"x", TypeId::kInt64}}); }
Schema OneString() { return Schema({{"s", TypeId::kString}}); }

LogicalOpPtr Values(Schema schema) {
  auto op = std::make_unique<LogicalOp>();
  op->kind = LogicalOpKind::kValues;
  op->output_schema = std::move(schema);
  return op;
}

LogicalOpPtr ScanResult(const std::string& name, Schema schema) {
  return MakeScan(ScanSource::kResult, name, std::move(schema));
}

Step MakeStep(Step::Kind kind, int id) {
  Step s;
  s.kind = kind;
  s.id = id;
  return s;
}

Step Mat(int id, const std::string& target, LogicalOpPtr plan) {
  Step s = MakeStep(Step::Kind::kMaterialize, id);
  s.target = target;
  s.plan = std::move(plan);
  return s;
}

Step Final(int id, LogicalOpPtr plan) {
  Step s = MakeStep(Step::Kind::kFinal, id);
  s.plan = std::move(plan);
  return s;
}

Step InitLoop(int id, int loop_id, LoopSpec spec) {
  Step s = MakeStep(Step::Kind::kInitLoop, id);
  s.loop_id = loop_id;
  s.loop = std::move(spec);
  return s;
}

Step LoopCheck(int id, int loop_id, LoopSpec spec, int jump_to_id) {
  Step s = MakeStep(Step::Kind::kLoopCheck, id);
  s.loop_id = loop_id;
  s.loop = std::move(spec);
  s.jump_to_id = jump_to_id;
  return s;
}

Step Rename(int id, const std::string& source, const std::string& target,
            int loop_id = 0) {
  Step s = MakeStep(Step::Kind::kRename, id);
  s.source = source;
  s.target = target;
  s.loop_id = loop_id;
  return s;
}

LoopSpec Iterations(int64_t n) {
  LoopSpec spec;
  spec.kind = LoopSpec::Kind::kIterations;
  spec.n = n;
  return spec;
}

Program MakeProgram(std::vector<Step> steps,
                    std::vector<IterativeCteInfo> ctes = {}) {
  Program p;
  p.steps = std::move(steps);
  p.iterative_ctes = std::move(ctes);
  int max_id = 0;
  for (const Step& s : p.steps) max_id = std::max(max_id, s.id);
  p.next_id = max_id + 1;
  return p;
}

PhysicalOpPtr PhysValues(Schema schema) {
  return std::make_unique<PhysicalValues>(std::move(schema),
                                          std::vector<std::vector<Value>>{});
}

/// A custom operator claiming the source role without being a leaf
/// materializer — the V203 pipeline-shape artifact.
class FakeSourceOp final : public PhysicalOp {
 public:
  explicit FakeSourceOp(Schema s) : PhysicalOp(std::move(s)) {}
  Result<TablePtr> Execute(ExecContext&) const override {
    return Status::Internal("verifier artifact, never executed");
  }
  const char* Name() const override { return "FakeSource"; }
  PipelineRole pipeline_role() const override { return PipelineRole::kSource; }
};

/// A custom operator claiming a fused streaming role the chunk kernels
/// would static_cast to PhysicalFilter — the V207 morsel-safety artifact.
class RogueStreamingOp final : public PhysicalOp {
 public:
  explicit RogueStreamingOp(Schema s) : PhysicalOp(std::move(s)) {}
  Result<TablePtr> Execute(ExecContext&) const override {
    return Status::Internal("verifier artifact, never executed");
  }
  const char* Name() const override { return "RogueStage"; }
  PipelineRole pipeline_role() const override { return PipelineRole::kFilter; }
};

bool HasCode(const VerifyReport& report, DefectCode code) {
  for (const auto& d : report.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

/// Builds a minimal artifact whose only intended defect is `code` and
/// returns its verification report. Some cases emit extra collateral
/// diagnostics (e.g. a dead body store next to a non-terminating loop);
/// callers assert the target code is present, not that it is alone.
VerifyReport BrokenReport(DefectCode code) {
  switch (code) {
    case DefectCode::kV001: {  // filter with no child
      LogicalOp op;
      op.kind = LogicalOpKind::kFilter;
      op.output_schema = OneInt();
      op.predicate = MakeBoundConstant(Value::Bool(true));
      return VerifyPlan(op);
    }
    case DefectCode::kV002: {  // filter output schema != child schema
      LogicalOp op;
      op.kind = LogicalOpKind::kFilter;
      op.output_schema = Schema({{"x", TypeId::kInt64}, {"y", TypeId::kInt64}});
      op.predicate = MakeBoundConstant(Value::Bool(true));
      op.children.push_back(Values(OneInt()));
      return VerifyPlan(op);
    }
    case DefectCode::kV003: {  // predicate refs column 5 of a 1-col input
      LogicalOp op;
      op.kind = LogicalOpKind::kFilter;
      op.output_schema = OneInt();
      op.predicate = MakeBoundColumnRef(5, TypeId::kBool, "ghost");
      op.children.push_back(Values(OneInt()));
      return VerifyPlan(op);
    }
    case DefectCode::kV004: {  // non-boolean filter predicate
      LogicalOp op;
      op.kind = LogicalOpKind::kFilter;
      op.output_schema = OneInt();
      op.predicate = MakeBoundConstant(Value::Int64(7));
      op.children.push_back(Values(OneInt()));
      return VerifyPlan(op);
    }
    case DefectCode::kV005: {  // join comparing BIGINT with VARCHAR
      LogicalOp op;
      op.kind = LogicalOpKind::kJoin;
      op.output_schema = Schema({{"x", TypeId::kInt64}, {"s", TypeId::kString}});
      op.children.push_back(Values(OneInt()));
      op.children.push_back(Values(OneString()));
      op.join_condition = MakeBoundBinary(
          BinaryOp::kEq, MakeBoundColumnRef(0, TypeId::kInt64, "x"),
          MakeBoundColumnRef(1, TypeId::kString, "s"), TypeId::kBool);
      return VerifyPlan(op);
    }
    case DefectCode::kV006: {  // SUM with no argument
      LogicalOp op;
      op.kind = LogicalOpKind::kAggregate;
      op.output_schema = Schema({{"total", TypeId::kInt64}});
      op.children.push_back(Values(OneInt()));
      AggregateSpec agg;
      agg.kind = AggKind::kSum;
      agg.arg = nullptr;  // only COUNT(*) may omit the argument
      agg.result_type = TypeId::kInt64;
      op.aggregates.push_back(std::move(agg));
      return VerifyPlan(op);
    }
    case DefectCode::kV007: {  // EXCEPT over incompatible children
      LogicalOp op;
      op.kind = LogicalOpKind::kExcept;
      op.output_schema = OneInt();
      op.children.push_back(Values(OneInt()));
      op.children.push_back(Values(OneString()));
      return VerifyPlan(op);
    }
    case DefectCode::kV008: {  // scan of a table the catalog does not have
      Database db;
      VerifyContext ctx;
      ctx.catalog = &db.catalog();
      LogicalOpPtr scan =
          MakeScan(ScanSource::kCatalog, "no_such_table", OneInt());
      return VerifyPlan(*scan, ctx);
    }
    case DefectCode::kV009: {  // VALUES row wider than the declared schema
      LogicalOp op;
      op.kind = LogicalOpKind::kValues;
      op.output_schema = OneInt();
      op.rows.push_back({Value::Int64(1), Value::Int64(2)});
      return VerifyPlan(op);
    }
    case DefectCode::kV010: {  // negative LIMIT (only -1 means "none")
      LogicalOp op;
      op.kind = LogicalOpKind::kLimit;
      op.output_schema = OneInt();
      op.children.push_back(Values(OneInt()));
      op.limit = -5;
      return VerifyPlan(op);
    }
    case DefectCode::kV011: {  // delta-restrict with no source result
      LogicalOp op;
      op.kind = LogicalOpKind::kDeltaRestrict;
      op.output_schema = OneInt();
      op.children.push_back(Values(OneInt()));
      op.delta_source = "";
      return VerifyPlan(op);
    }
    case DefectCode::kV101: {  // rename of a name nothing ever bound
      std::vector<Step> steps;
      steps.push_back(Rename(1, "ghost", "g"));
      steps.push_back(Final(2, ScanResult("g", OneInt())));
      return VerifyProgram(MakeProgram(std::move(steps)));
    }
    case DefectCode::kV102: {  // read after a rename consumed the name
      std::vector<Step> steps;
      steps.push_back(Mat(1, "a", Values(OneInt())));
      steps.push_back(Rename(2, "a", "b"));
      steps.push_back(Mat(3, "c", ScanResult("a", OneInt())));
      steps.push_back(Final(4, ScanResult("b", OneInt())));
      return VerifyProgram(MakeProgram(std::move(steps)));
    }
    case DefectCode::kV103: {  // rebind with the first value never read
      std::vector<Step> steps;
      steps.push_back(Mat(1, "a", Values(OneInt())));
      steps.push_back(Mat(2, "a", Values(OneInt())));
      steps.push_back(Final(3, ScanResult("a", OneInt())));
      return VerifyProgram(MakeProgram(std::move(steps)));
    }
    case DefectCode::kV104: {  // loop-body materialization nobody consumes
      std::vector<Step> steps;
      steps.push_back(Mat(1, "cte", Values(OneInt())));
      steps.push_back(InitLoop(2, 1, Iterations(2)));
      steps.push_back(Mat(3, "junk", Values(OneInt())));
      steps.push_back(LoopCheck(4, 1, Iterations(2), /*jump_to_id=*/3));
      steps.push_back(Final(5, ScanResult("cte", OneInt())));
      return VerifyProgram(MakeProgram(std::move(steps)));
    }
    case DefectCode::kV105: {  // loop check jumping to a missing step id
      std::vector<Step> steps;
      steps.push_back(Mat(1, "cte", Values(OneInt())));
      steps.push_back(InitLoop(2, 1, Iterations(2)));
      steps.push_back(LoopCheck(3, 1, Iterations(2), /*jump_to_id=*/99));
      steps.push_back(Final(4, ScanResult("cte", OneInt())));
      return VerifyProgram(MakeProgram(std::move(steps)));
    }
    case DefectCode::kV106: {  // UNTIL DELTA < 0 can never hold
      LoopSpec spec;
      spec.kind = LoopSpec::Kind::kDeltaLess;
      spec.n = 0;
      spec.cte_name = "cte";
      std::vector<Step> steps;
      steps.push_back(Mat(1, "cte", Values(OneInt())));
      steps.push_back(InitLoop(2, 1, spec.Clone()));
      steps.push_back(Mat(3, "cte", Values(OneInt())));
      steps.push_back(LoopCheck(4, 1, spec.Clone(), /*jump_to_id=*/3));
      steps.push_back(Final(5, ScanResult("cte", OneInt())));
      return VerifyProgram(MakeProgram(std::move(steps)));
    }
    case DefectCode::kV107: {  // "hoisted" step reads a name the body rebinds
      std::vector<Step> steps;
      steps.push_back(Mat(1, "x", Values(OneInt())));
      steps.push_back(Mat(2, "h", ScanResult("x", OneInt())));
      steps.push_back(InitLoop(3, 1, Iterations(2)));
      steps.push_back(Mat(4, "x", Values(OneInt())));
      steps.push_back(LoopCheck(5, 1, Iterations(2), /*jump_to_id=*/4));
      steps.push_back(Final(6, ScanResult("h", OneInt())));
      return VerifyProgram(MakeProgram(std::move(steps)));
    }
    case DefectCode::kV108: {  // pushdown_legal fact vs an Ri with aggregation
      auto ri_plan = std::make_unique<LogicalOp>();
      ri_plan->kind = LogicalOpKind::kAggregate;
      ri_plan->output_schema = OneInt();
      ri_plan->children.push_back(ScanResult("cte", OneInt()));
      ri_plan->group_exprs.push_back(
          MakeBoundColumnRef(0, TypeId::kInt64, "x"));
      std::vector<Step> steps;
      steps.push_back(Mat(1, "cte", Values(OneInt())));
      steps.push_back(InitLoop(2, 1, Iterations(2)));
      steps.push_back(Mat(3, "working", std::move(ri_plan)));
      steps.push_back(Rename(4, "working", "cte", /*loop_id=*/1));
      steps.push_back(LoopCheck(5, 1, Iterations(2), /*jump_to_id=*/3));
      steps.push_back(Final(6, ScanResult("cte", OneInt())));
      IterativeCteInfo info;
      info.cte_name = "cte";
      info.working_name = "working";
      info.cte_schema = OneInt();
      info.r0_step_id = 1;
      info.init_step_id = 2;
      info.ri_step_id = 3;
      info.check_step_id = 5;
      info.pushdown_legal = true;  // contradicted by the aggregate in Ri
      info.pass_through = {false};
      return VerifyProgram(MakeProgram(std::move(steps), {std::move(info)}));
    }
    case DefectCode::kV109: {  // rename onto itself
      std::vector<Step> steps;
      steps.push_back(Mat(1, "a", Values(OneInt())));
      steps.push_back(Rename(2, "a", "a"));
      steps.push_back(Final(3, ScanResult("a", OneInt())));
      return VerifyProgram(MakeProgram(std::move(steps)));
    }
    case DefectCode::kV110: {  // materialize without a plan
      std::vector<Step> steps;
      Step bad = MakeStep(Step::Kind::kMaterialize, 1);
      bad.target = "x";
      steps.push_back(std::move(bad));
      return VerifyProgram(MakeProgram(std::move(steps)));
    }
    case DefectCode::kV111: {  // final step that is not last
      std::vector<Step> steps;
      steps.push_back(Final(1, Values(OneInt())));
      steps.push_back(Mat(2, "x", Values(OneInt())));
      return VerifyProgram(MakeProgram(std::move(steps)));
    }
    case DefectCode::kV201: {  // physical filter with no child
      PhysicalFilter op(OneInt(), MakeBoundConstant(Value::Bool(true)));
      return VerifyPhysicalPlan(op);
    }
    case DefectCode::kV202: {  // physical schema disagrees with logical node
      LogicalOpPtr logical = Values(OneInt());
      PhysicalOpPtr phys = PhysValues(OneString());
      return VerifyPhysicalPlan(*phys, logical.get());
    }
    case DefectCode::kV203: {  // source-role operator that is not a leaf
      FakeSourceOp op(OneInt());
      op.AddChild(PhysValues(OneInt()));
      return VerifyPhysicalPlan(op);
    }
    case DefectCode::kV204: {  // filter kernel reads column 5 of a 1-col chunk
      PhysicalFilter op(OneInt(), MakeBoundColumnRef(5, TypeId::kBool, "ghost"));
      op.AddChild(PhysValues(OneInt()));
      return VerifyPhysicalPlan(op);
    }
    case DefectCode::kV206: {  // COUNT(DISTINCT *): no deferral path
      AggregateSpec spec;
      spec.kind = AggKind::kCountStar;
      spec.distinct = true;
      std::vector<AggregateSpec> specs;
      specs.push_back(std::move(spec));
      PhysicalHashAggregate op(Schema({{"n", TypeId::kInt64}}), {},
                               std::move(specs));
      op.AddChild(PhysValues(OneInt()));
      return VerifyPhysicalPlan(op);
    }
    case DefectCode::kV207: {  // streaming role on a type the kernels can't cast
      RogueStreamingOp op(OneInt());
      op.AddChild(PhysValues(OneInt()));
      return VerifyPhysicalPlan(op);
    }
    case DefectCode::kV208: {  // physical scan of a table the catalog lacks
      Database db;
      VerifyContext ctx;
      ctx.catalog = &db.catalog();
      PhysicalScan op(OneInt(), /*from_catalog=*/true, "no_such_table");
      return VerifyPhysicalPlan(op, nullptr, ctx);
    }
  }
  return VerifyReport();
}

// ---------------------------------------------------------------------------
// Per-code firing cases
// ---------------------------------------------------------------------------

TEST(VerifierDefects, EveryDefectCodeHasAFailingCase) {
  for (DefectCode code : AllDefectCodes()) {
    VerifyReport report = BrokenReport(code);
    EXPECT_FALSE(report.ok()) << DefectCodeName(code);
    EXPECT_TRUE(HasCode(report, code))
        << DefectCodeName(code) << " expected in:\n"
        << report.ToString();
  }
}

TEST(VerifierDefects, DefectTableIsWellFormed) {
  const std::vector<DefectCode>& codes = AllDefectCodes();
  EXPECT_EQ(codes.size(), 29u);
  std::vector<std::string> names;
  for (DefectCode code : codes) {
    names.push_back(DefectCodeName(code));
    EXPECT_FALSE(std::string(verify::DefectCodeDescription(code)).empty());
  }
  std::sort(names.begin(), names.end());
  EXPECT_TRUE(std::adjacent_find(names.begin(), names.end()) == names.end())
      << "duplicate defect code names";
}

TEST(VerifierDefects, DiagnosticRenderingCarriesCodeStepAndExcerpt) {
  VerifyReport report = BrokenReport(DefectCode::kV103);
  ASSERT_FALSE(report.ok());
  const auto& d = report.diagnostics[0];
  EXPECT_EQ(std::string(DefectCodeName(d.code)), "V103");
  EXPECT_EQ(d.step_id, 2);
  std::string line = d.ToString();
  EXPECT_NE(line.find("V103"), std::string::npos);
  EXPECT_NE(line.find("[step 2]"), std::string::npos);
  report.phase = "after-binding";
  EXPECT_NE(report.ToString().find("after-binding"), std::string::npos);
}

TEST(VerifierDefects, CleanPlanAndProgramProduceEmptyReports) {
  LogicalOpPtr plan = Values(OneInt());
  EXPECT_TRUE(VerifyPlan(*plan).ok());

  std::vector<Step> steps;
  steps.push_back(Mat(1, "a", Values(OneInt())));
  steps.push_back(Final(2, ScanResult("a", OneInt())));
  VerifyReport report = VerifyProgram(MakeProgram(std::move(steps)));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// The physical checker must stay silent on trees the planner actually
// produces: compile a filter-over-values plan and verify it against its own
// logical source, with the MPP options that arm every option-dependent
// V2xx check.
TEST(VerifierDefects, CleanCompiledPhysicalPlanProducesEmptyReport) {
  LogicalOpPtr child = Values(OneInt());
  LogicalOpPtr plan =
      MakeFilter(MakeBoundBinary(BinaryOp::kEq,
                                 MakeBoundColumnRef(0, TypeId::kInt64, "x"),
                                 MakeBoundConstant(Value::Int64(1)),
                                 TypeId::kBool),
                 std::move(child));
  Result<PhysicalOpPtr> phys = CreatePhysicalPlan(*plan);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  EngineOptions eo;
  eo.num_workers = 8;
  VerifyContext ctx;
  ctx.options = &eo;
  VerifyReport report = VerifyPhysicalPlan(**phys, plan.get(), ctx);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// V204 on hash-join keys: the row index joins INT64 with DOUBLE by numeric
// value, so that pair is legal; a number against a STRING or BOOL key is
// still a chunk-type defect.
TEST(VerifierDefects, JoinKeyTypesV204) {
  struct Case {
    TypeId left, right;
    bool legal;
  };
  const Case cases[] = {
      {TypeId::kInt64, TypeId::kDouble, true},
      {TypeId::kDouble, TypeId::kInt64, true},
      {TypeId::kInt64, TypeId::kString, false},
      {TypeId::kDouble, TypeId::kBool, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(TypeName(c.left)) + " = " + TypeName(c.right));
    PhysicalHashJoin op(Schema({{"x", c.left}, {"y", c.right}}),
                        JoinType::kInner, {0}, {0}, nullptr);
    op.AddChild(PhysValues(Schema({{"x", c.left}})));
    op.AddChild(PhysValues(Schema({{"y", c.right}})));
    VerifyReport report = VerifyPhysicalPlan(op);
    EXPECT_EQ(HasCode(report, DefectCode::kV204), !c.legal)
        << report.ToString();
  }
}

// A step that reads its own target before rebinding it (a recursive CTE's
// `acc := acc UNION ALL delta`, or a merge) must NOT be flagged as a dead
// store of the previous binding — the regression behind the verifier's own
// first field bug.
TEST(VerifierDefects, AppendToOwnTargetIsNotADeadStore) {
  std::vector<Step> steps;
  steps.push_back(Mat(1, "acc", Values(OneInt())));
  steps.push_back(Mat(2, "delta", Values(OneInt())));
  auto append = std::make_unique<LogicalOp>();
  append->kind = LogicalOpKind::kUnionAll;
  append->output_schema = OneInt();
  append->children.push_back(ScanResult("acc", OneInt()));
  append->children.push_back(ScanResult("delta", OneInt()));
  steps.push_back(Mat(3, "acc", std::move(append)));
  steps.push_back(Final(4, ScanResult("acc", OneInt())));
  VerifyReport report = VerifyProgram(MakeProgram(std::move(steps)));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// ---------------------------------------------------------------------------
// Escape-hatch policy
// ---------------------------------------------------------------------------

TEST(VerifierPolicy, EnforceOrCountContract) {
  int64_t counter = 0;
  VerifyReport clean;
  EXPECT_TRUE(EnforceOrCount(clean, /*enforce=*/true, &counter).ok());
  EXPECT_EQ(counter, 0);

  VerifyReport broken = BrokenReport(DefectCode::kV103);
  Status enforced = EnforceOrCount(broken, /*enforce=*/true, &counter);
  EXPECT_EQ(enforced.code(), StatusCode::kInternal);
  EXPECT_NE(enforced.message().find("V103"), std::string::npos);
  EXPECT_EQ(counter, static_cast<int64_t>(broken.diagnostics.size()));

  // Release posture: log-and-continue, but the counter still advances so
  // ExecStats::verify_violations surfaces the event.
  int64_t release_counter = 0;
  EXPECT_TRUE(EnforceOrCount(broken, /*enforce=*/false, &release_counter).ok());
  EXPECT_EQ(release_counter, static_cast<int64_t>(broken.diagnostics.size()));
}

TEST(VerifierPolicy, ExecStatsRendersViolationCounter) {
  ExecStats stats;
  stats.verify_violations = 3;
  EXPECT_NE(stats.ToString().find("verify_violations=3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Pipeline integration (Database hooks, EXPLAIN surfaces)
// ---------------------------------------------------------------------------

TEST(VerifierPipeline, ExplainVerifyAppendsReport) {
  Database db;
  MustExecute(&db, "CREATE TABLE t (x BIGINT)");
  MustExecute(&db, "INSERT INTO t VALUES (1), (2)");
  Result<QueryResult> r = db.Execute("EXPLAIN (VERIFY) SELECT * FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->explain.find("verify (final program): ok"), std::string::npos)
      << r->explain;
  // Plain EXPLAIN (VERIFY) also compiles the program (without running it)
  // so the post-physical-compilation V2xx stage renders alongside the
  // logical report.
  EXPECT_NE(r->explain.find("verify (after-compile): ok"), std::string::npos)
      << r->explain;
}

TEST(VerifierPipeline, ExplainAnalyzeVerifyCombination) {
  Database db;
  MustExecute(&db, "CREATE TABLE t (x BIGINT)");
  MustExecute(&db, "INSERT INTO t VALUES (1), (2)");
  Result<QueryResult> r =
      db.Execute("EXPLAIN (ANALYZE, VERIFY) SELECT * FROM t WHERE x > 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->explain.find("verify (final program): ok"), std::string::npos)
      << r->explain;
  // The golden stats line: a clean run reports zero counted violations.
  EXPECT_NE(r->explain.find("verify_violations=0"), std::string::npos)
      << r->explain;
}

TEST(VerifierPipeline, StatsCounterIsZeroOnCleanQueries) {
  Database db;
  db.options().verify.enforce = true;
  MustExecute(&db, "CREATE TABLE t (x BIGINT)");
  MustExecute(&db, "INSERT INTO t VALUES (1), (2), (3)");
  Result<QueryResult> r =
      db.Execute("SELECT x FROM t WHERE x > 1 ORDER BY x");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.verify_violations, 0);
}

TEST(VerifierPipeline, VerifyCanBeDisabled) {
  Database db;
  db.options().verify.verify_plans = false;
  MustExecute(&db, "CREATE TABLE t (x BIGINT)");
  Result<QueryResult> r = db.Execute("SELECT * FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.verify_violations, 0);
}

// ---------------------------------------------------------------------------
// Clean corpus: every workload under every optimizer toggle combination,
// verifier enforcing. A diagnostic anywhere fails the query with kInternal.
// ---------------------------------------------------------------------------

class VerifierCleanCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph::GraphSpec spec;
    spec.kind = graph::GraphKind::kPreferentialAttachment;
    spec.num_nodes = 40;
    spec.num_edges = 120;
    spec.seed = 7;
    graph_ = graph::Generate(spec);
  }

  graph::EdgeList graph_;
};

TEST_F(VerifierCleanCorpusTest, AllWorkloadsAllToggleCombinations) {
  const std::vector<std::string> queries = {
      workloads::PRQuery(2),
      workloads::PRVSQuery(2),
      workloads::SSSPQuery(3, 1, 2),
      workloads::SSSPVSQuery(3, 1, 2),
      workloads::FFQuery(2, 2, 1000000),
      workloads::FFDeltaQuery(1, 2),
      workloads::SSSPDataConditionQuery(1, 2),
      // Recursive CTE and plain pipelines round out the program shapes.
      "WITH RECURSIVE reach (node) AS (SELECT src FROM edges WHERE src = 1 "
      "UNION SELECT e.dst FROM edges e JOIN reach r ON e.src = r.node) "
      "SELECT COUNT(*) FROM reach",
      "SELECT src, COUNT(*) AS deg FROM edges GROUP BY src "
      "ORDER BY deg DESC LIMIT 5",
  };

  // The five structural rules reshape the Program itself; sweep their full
  // cross product. The remaining plan-local toggles ride along pinned to
  // the bit pattern so both settings of each are exercised many times.
  for (int mask = 0; mask < 32; ++mask) {
    EngineOptions eo;
    eo.verify.verify_plans = true;
    eo.verify.enforce = true;
    eo.optimizer.enable_cte_predicate_pushdown = (mask & 1) != 0;
    eo.optimizer.enable_common_result = (mask & 2) != 0;
    eo.optimizer.enable_rename_optimization = (mask & 4) != 0;
    eo.optimizer.enable_delta_iteration = (mask & 8) != 0;
    eo.optimizer.enable_predicate_pushdown = (mask & 16) != 0;
    eo.optimizer.enable_constant_folding = (mask & 1) != 0;
    eo.optimizer.enable_join_simplification = (mask & 2) != 0;
    eo.optimizer.enable_join_build_cache = (mask & 4) != 0;

    Database db(eo);
    ASSERT_TRUE(graph::LoadIntoDatabase(&db, graph_, 0.8, 99).ok());
    for (const std::string& sql : queries) {
      Result<QueryResult> r = db.Execute(sql);
      ASSERT_TRUE(r.ok()) << "toggles=" << mask << "\n"
                          << r.status().ToString() << "\nSQL: " << sql;
      EXPECT_EQ(r->stats.verify_violations, 0)
          << "toggles=" << mask << "\nSQL: " << sql;
    }
  }
}

// The V2xx clean corpus: the same workloads swept across MPP widths
// 1/2/8, verifier enforcing, with the thresholds lowered so parallel fused
// pipelines (broadcast probes, fused pre-aggregation, morsel stealing)
// actually engage on the small test graph. The "after-compile" stage runs
// the pipeline checker on every step's physical plan, so any V2xx
// diagnostic fails the query with kInternal.
TEST_F(VerifierCleanCorpusTest, VectorizedAndWidthSweepIsV2xxClean) {
  const std::vector<std::string> queries = {
      workloads::PRQuery(2),
      workloads::PRVSQuery(2),
      workloads::SSSPQuery(3, 1, 2),
      workloads::SSSPVSQuery(3, 1, 2),
      workloads::FFQuery(2, 2, 1000000),
      workloads::FFDeltaQuery(1, 2),
      workloads::SSSPDataConditionQuery(1, 2),
      "WITH RECURSIVE reach (node) AS (SELECT src FROM edges WHERE src = 1 "
      "UNION SELECT e.dst FROM edges e JOIN reach r ON e.src = r.node) "
      "SELECT COUNT(*) FROM reach",
      "SELECT src, COUNT(*) AS deg FROM edges GROUP BY src "
      "ORDER BY deg DESC LIMIT 5",
  };

  for (int width : {1, 2, 8}) {
    EngineOptions eo;
    eo.verify.verify_plans = true;
    eo.verify.enforce = true;
    eo.num_workers = width;
    eo.mpp_min_rows_per_task = 1;
    eo.morsel_size = 16;

    Database db(eo);
    ASSERT_TRUE(graph::LoadIntoDatabase(&db, graph_, 0.8, 99).ok());
    for (const std::string& sql : queries) {
      Result<QueryResult> r = db.Execute(sql);
      ASSERT_TRUE(r.ok()) << "width=" << width << "\n"
                          << r.status().ToString() << "\nSQL: " << sql;
      EXPECT_EQ(r->stats.verify_violations, 0)
          << "width=" << width << "\nSQL: " << sql;
    }
  }
}

}  // namespace
}  // namespace dbspinner
