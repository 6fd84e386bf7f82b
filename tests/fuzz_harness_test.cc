// Unit tests for the differential fuzzing harness itself: generator
// determinism, the oracle matrix catching an injected engine fault, the
// minimizer shrinking a failing case, row-set diffing, and the
// OptimizerToggles registry the whole matrix is built from.

#include <gtest/gtest.h>

#include <cmath>

#include "engine/options.h"
#include "testing/differential.h"
#include "testing/minimizer.h"
#include "testing/query_generator.h"

namespace dbspinner {
namespace {

// A hand-built rename-path case: pass-through chain body with a counted
// UNTIL, small deterministic grid. Small enough to differential-run in
// milliseconds, big enough that dropping a row is visible.
fuzz::FuzzCase RenamePathCase() {
  fuzz::FuzzCase c;
  c.case_seed = 999;
  c.graph.kind = graph::GraphKind::kGrid;
  c.graph.num_nodes = 16;
  c.graph.num_edges = 0;  // grid ignores the edge count
  c.query.family = fuzz::QueryFamily::kIterativeChain;
  c.query.expr_seed = 1;
  c.query.iterations = 2;
  c.query.until = fuzz::UntilKind::kIterations;
  return c;
}

TEST(QueryGeneratorTest, SameSeedSameStream) {
  fuzz::QueryGenerator a(42);
  fuzz::QueryGenerator b(42);
  for (int i = 0; i < 25; ++i) {
    fuzz::FuzzCase ca = a.NextCase();
    fuzz::FuzzCase cb = b.NextCase();
    EXPECT_EQ(ca.Label(), cb.Label()) << "case " << i;
    EXPECT_EQ(fuzz::RenderQuery(ca.query), fuzz::RenderQuery(cb.query))
        << "case " << i;
  }
}

TEST(QueryGeneratorTest, DifferentSeedsDiverge) {
  fuzz::QueryGenerator a(1);
  fuzz::QueryGenerator b(2);
  bool diverged = false;
  for (int i = 0; i < 10 && !diverged; ++i) {
    diverged = fuzz::RenderQuery(a.NextCase().query) !=
               fuzz::RenderQuery(b.NextCase().query);
  }
  EXPECT_TRUE(diverged);
}

TEST(QueryGeneratorTest, RenderedSqlParsesAndRuns) {
  // Every generated case must at least not crash the engine; run a short
  // prefix of the stream through the baseline database only (the full
  // matrix is the fuzz_sql smoke test's job).
  fuzz::QueryGenerator gen(7);
  for (int i = 0; i < 5; ++i) {
    fuzz::FuzzCase c = gen.NextCase();
    Database db;
    ASSERT_TRUE(fuzz::LoadCaseData(&db, c).ok()) << c.Label();
    auto result = db.Query(fuzz::RenderQuery(c.query));
    if (!result.ok()) {
      EXPECT_NE(result.status().code(), StatusCode::kInternal)
          << c.Label() << "\n" << result.status().ToString();
    }
  }
}

TEST(DifferentialTest, CleanEngineAgreesOnRenamePathCase) {
  fuzz::DifferentialOptions opts;
  opts.morsel_sizes = {1, 16};
  opts.morsel_workers = {1, 2};
  fuzz::DiffReport report = fuzz::RunDifferential(RenamePathCase(), opts);
  EXPECT_TRUE(report.ok) << report.Describe(RenamePathCase());
  // Rename-path + counted UNTIL means the procedure oracle participated.
  bool saw_procedure = false;
  int row_at_a_time = 0, morsel_oracles = 0;
  for (const auto& o : report.outcomes) {
    if (o.name == "procedure") saw_procedure = true;
    if (o.name == "morsel-1") ++row_at_a_time;
    if (o.name.rfind("morsel-", 0) == 0) ++morsel_oracles;
  }
  EXPECT_TRUE(saw_procedure);
  // The serial one-row-morsel oracle runs once, although the sweep lists
  // size 1 too: {1, 16} x {1, 2} is four morsel oracles in all.
  EXPECT_EQ(row_at_a_time, 1);
  EXPECT_EQ(morsel_oracles, 4);
}

TEST(DifferentialTest, InjectedRenameFaultIsCaught) {
  fuzz::DifferentialOptions opts;
  opts.break_rename = true;
  fuzz::DiffReport report = fuzz::RunDifferential(RenamePathCase(), opts);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.failure.empty());
}

TEST(MinimizerTest, ShrinksInjectedFaultAndEmitsRepro) {
  fuzz::DifferentialOptions opts;
  opts.break_rename = true;
  fuzz::FuzzCase big = RenamePathCase();
  big.graph.num_nodes = 64;  // give the minimizer something to shrink
  fuzz::MinimizeResult min = fuzz::Minimize(big, opts);
  EXPECT_FALSE(min.report.ok);  // still failing after shrinking
  EXPECT_LE(min.minimized.graph.num_nodes, big.graph.num_nodes);
  EXPECT_GT(min.candidates_tried, 0);

  std::string repro = fuzz::EmitGtestRepro(min.minimized, min.report);
  EXPECT_NE(repro.find("TEST(FuzzRegression"), std::string::npos) << repro;
  EXPECT_NE(repro.find("RunDifferential"), std::string::npos) << repro;
}

TEST(DiffRowSetsTest, OrderInsensitiveMultisetCompare) {
  std::vector<std::vector<Value>> a = {{Value::Int64(1), Value::Double(2.0)},
                                       {Value::Int64(3), Value::Double(4.0)}};
  std::vector<std::vector<Value>> b = {{Value::Int64(3), Value::Double(4.0)},
                                       {Value::Int64(1), Value::Double(2.0)}};
  EXPECT_EQ(fuzz::DiffRowSets(a, b, 1e-6), "");
}

TEST(DiffRowSetsTest, EpsToleratesFloatNoiseButNotRealDrift) {
  std::vector<std::vector<Value>> a = {{Value::Double(1.0)}};
  std::vector<std::vector<Value>> near = {{Value::Double(1.0 + 1e-9)}};
  std::vector<std::vector<Value>> far = {{Value::Double(1.5)}};
  EXPECT_EQ(fuzz::DiffRowSets(a, near, 1e-6), "");
  EXPECT_NE(fuzz::DiffRowSets(a, far, 1e-6), "");
}

TEST(DiffRowSetsTest, ReportsCardinalityAndNullMismatches) {
  std::vector<std::vector<Value>> two = {{Value::Int64(1)}, {Value::Int64(2)}};
  std::vector<std::vector<Value>> one = {{Value::Int64(1)}};
  std::vector<std::vector<Value>> null_row = {{Value::Null()},
                                              {Value::Int64(2)}};
  EXPECT_NE(fuzz::DiffRowSets(two, one, 1e-6), "");
  EXPECT_NE(fuzz::DiffRowSets(two, null_row, 1e-6), "");
}

TEST(CheckOrderTest, FlagsRowsOutOfOrderPerDirection) {
  Schema schema;
  schema.AddColumn("a", TypeId::kInt64);
  schema.AddColumn("b", TypeId::kDouble);
  auto t = Table::Make(schema);
  t->AppendRow({Value::Null(TypeId::kInt64), Value::Double(1)});
  t->AppendRow({Value::Int64(1), Value::Double(std::nan(""))});
  t->AppendRow({Value::Int64(1), Value::Double(2)});
  t->AppendRow({Value::Int64(3), Value::Double(0)});
  EXPECT_EQ(fuzz::CheckOrder(*t, {{0, false}, {1, true}}), "");
  EXPECT_EQ(fuzz::CheckOrder(*t, {}), "");
  EXPECT_NE(fuzz::CheckOrder(*t, {{0, false}, {1, false}}), "");
  EXPECT_NE(fuzz::CheckOrder(*t, {{0, true}}), "");
}

TEST(QueryGeneratorTest, OrderByKeysFollowTheSpec) {
  fuzz::QuerySpec spec;
  spec.use_order_limit = true;
  spec.order_desc = 5;  // keys 1 and 3 DESC
  std::vector<fuzz::OrderKey> keys = fuzz::TopLevelOrder(spec, 3);
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_TRUE(keys[0].descending);
  EXPECT_FALSE(keys[1].descending);
  EXPECT_TRUE(keys[2].descending);
  spec.use_order_limit = false;
  EXPECT_TRUE(fuzz::TopLevelOrder(spec, 3).empty());
  spec.family = fuzz::QueryFamily::kCanonicalFF;
  ASSERT_EQ(fuzz::TopLevelOrder(spec, 2).size(), 1u);
  EXPECT_TRUE(fuzz::TopLevelOrder(spec, 2)[0].descending);
}

TEST(QueryGeneratorTest, LeftJoinSometimesCarriesAResidual) {
  // The scalar family's LEFT JOIN may add a non-equi ON conjunct, so the
  // oracles see a column that only the join residual reads.
  fuzz::QuerySpec spec;
  spec.family = fuzz::QueryFamily::kScalarSelect;
  spec.left_join = true;
  int with_residual = 0;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    spec.expr_seed = seed;
    const std::string sql = fuzz::RenderQuery(spec);
    ASSERT_NE(sql.find("LEFT JOIN edges AS e2 ON e.dst = e2.src"),
              std::string::npos)
        << sql;
    if (sql.find("ON e.dst = e2.src AND e2.weight < 0.") != std::string::npos) {
      ++with_residual;
    }
  }
  EXPECT_GT(with_residual, 0);
  EXPECT_LT(with_residual, 64);
}

TEST(OptimizerTogglesTest, RegistryCoversEveryRule) {
  const auto& all = OptimizerToggles::All();
  EXPECT_EQ(all.size(), 8u);

  // Every toggle flips exactly the field it names.
  for (const auto& t : all) {
    OptimizerOptions opts = OptimizerToggles::AllSetTo(true);
    ASSERT_TRUE(OptimizerToggles::Set(&opts, t.name, false));
    EXPECT_FALSE(opts.*(t.member)) << t.name;
    // All other toggles stayed on.
    for (const auto& other : all) {
      if (other.name != std::string(t.name)) {
        EXPECT_TRUE(opts.*(other.member)) << other.name;
      }
    }
  }
}

TEST(OptimizerTogglesTest, UnknownNameIsRejected) {
  OptimizerOptions opts;
  EXPECT_FALSE(OptimizerToggles::Set(&opts, "no-such-rule", false));
}

}  // namespace
}  // namespace dbspinner
