// Regression tests for table-aliasing and delta-count bugs: registry
// TablePtrs are shared (snapshots, renames, cached build sides), so every
// mutation path must copy-on-write, and the UNTIL DELTA count (DiffVersions)
// must stay correct when duplicate keys make the matched-row count exceed
// the prev row count.

#include <gtest/gtest.h>

#include "engine/options.h"
#include "exec/merge_update.h"
#include "exec/physical_planner.h"
#include "exec/program_executor.h"
#include "plan/program.h"
#include "storage/catalog.h"
#include "storage/result_registry.h"
#include "test_util.h"

namespace dbspinner {
namespace {

Schema KV() {
  Schema s;
  s.AddColumn("k", TypeId::kInt64);
  s.AddColumn("v", TypeId::kDouble);
  return s;
}

TablePtr MakeKV(std::vector<std::pair<int64_t, double>> rows) {
  auto t = Table::Make(KV());
  for (auto& [k, v] : rows) {
    t->AppendRow({Value::Int64(k), Value::Double(v)});
  }
  return t;
}

// `left UNION ALL right` over two results of schema KV().
LogicalOpPtr UnionAllOf(const std::string& left, const std::string& right) {
  auto u = std::make_unique<LogicalOp>();
  u->kind = LogicalOpKind::kUnionAll;
  u->output_schema = KV();
  u->children.push_back(MakeScan(ScanSource::kResult, left, KV()));
  u->children.push_back(MakeScan(ScanSource::kResult, right, KV()));
  return u;
}

struct Env {
  Catalog catalog;
  ResultRegistry registry;
  EngineOptions options;
  ExecContext ctx;

  Env() {
    ctx.catalog = &catalog;
    ctx.registry = &registry;
    ctx.options = &options;
  }
};

// Appending to a result (`acc := acc UNION ALL extra`, the accumulator
// step of a recursive CTE) must not mutate the table in place: any snapshot
// alias of the target (Delta snapshots, pre-rename names, cached build
// sides) would silently grow with it.
TEST(AppendResultCowTest, SnapshotAliasSurvivesAppend) {
  Env env;
  env.registry.Put("acc", MakeKV({{1, 1.0}}));
  env.registry.Put("extra", MakeKV({{2, 2.0}}));
  TablePtr snapshot = *env.registry.Get("acc");
  ASSERT_EQ(snapshot->num_rows(), 1u);

  Program program;
  Step append;
  append.kind = Step::Kind::kMaterialize;
  append.id = program.NewId();
  append.target = "acc";
  append.plan = UnionAllOf("acc", "extra");
  program.steps.push_back(std::move(append));

  Step final_step;
  final_step.kind = Step::Kind::kFinal;
  final_step.id = program.NewId();
  final_step.plan = MakeScan(ScanSource::kResult, "acc", KV());
  program.steps.push_back(std::move(final_step));

  ASSERT_TRUE(PlanProgram(&program).ok());
  auto result = RunProgram(program, &env.ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)->num_rows(), 2u);

  // The registry now holds a fresh table; the snapshot kept the old rows.
  TablePtr current = *env.registry.Get("acc");
  EXPECT_NE(current.get(), snapshot.get());
  EXPECT_EQ(current->num_rows(), 2u);
  EXPECT_EQ(snapshot->num_rows(), 1u);
}

// Duplicate keys in `current` match the same prev row repeatedly; a naive
// matched-row counter exceeds prev.num_rows() and makes the
// disappeared-keys subtraction wrap around (unsigned), producing a huge
// bogus change count that keeps DELTA loops spinning.
TEST(CountChangedRowsTest, DuplicateCurrentKeysDoNotWrap) {
  auto prev = MakeKV({{1, 10.0}, {2, 20.0}});
  auto cur = MakeKV({{1, 10.0}, {1, 10.0}, {2, 25.0}});
  // Key 1 rows are byte-identical to prev (twice); only key 2's value
  // changed. Every prev row was matched, so nothing disappeared.
  EXPECT_EQ(DiffVersions(*prev, *cur, 0).count, 1);

  // All-duplicates, no value change: zero changes, not a wrapped count.
  auto dup_only = MakeKV({{1, 10.0}, {1, 10.0}, {2, 20.0}, {2, 20.0}});
  EXPECT_EQ(DiffVersions(*prev, *dup_only, 0).count, 0);
}

// A key held by several rows: each current row is compared with every
// previous row of its key, not only the first, so a table diffed against
// itself has no changes.
TEST(CountChangedRowsTest, DuplicatePreviousKeysMatchAnyRowOfTheKey) {
  auto t = MakeKV({{1, 1.0}, {1, 2.0}, {2, 5.0}});
  EXPECT_EQ(DiffVersions(*t, *t, 0).count, 0);
  // One row of key 1 changed; the other still matches. Key 2 is gone.
  auto cur = MakeKV({{1, 1.0}, {1, 3.0}});
  EXPECT_EQ(DiffVersions(*t, *cur, 0).count, 2);
}

// A DELTA-terminated loop whose body appends into the watched CTE: if the
// append grew the table in place, the loop state's `previous` snapshot
// would alias the CTE table, so the DELTA count would compare the table
// against itself and terminate after one iteration.
TEST(DeltaLessAliasingTest, AppendBodyIteratesUntilQuiescent) {
  Env env;
  env.registry.Put("grow", MakeKV({{1, 1.0}}));
  env.registry.Put("dup", MakeKV({{2, 2.0}}));

  LoopSpec spec;
  spec.kind = LoopSpec::Kind::kDeltaLess;
  spec.n = 1;  // UNTIL DELTA < 1
  spec.cte_name = "grow";

  Program program;
  Step init;
  init.kind = Step::Kind::kInitLoop;
  init.id = program.NewId();
  init.loop_id = 1;
  init.loop = spec.Clone();
  program.steps.push_back(std::move(init));

  Step body;
  body.kind = Step::Kind::kMaterialize;
  body.id = program.NewId();
  body.target = "grow";
  body.plan = UnionAllOf("grow", "dup");
  int body_id = body.id;
  program.steps.push_back(std::move(body));

  Step check;
  check.kind = Step::Kind::kLoopCheck;
  check.id = program.NewId();
  check.loop_id = 1;
  check.loop = spec.Clone();
  check.jump_to_id = body_id;
  program.steps.push_back(std::move(check));

  Step final_step;
  final_step.kind = Step::Kind::kFinal;
  final_step.id = program.NewId();
  final_step.plan = MakeScan(ScanSource::kResult, "grow", KV());
  program.steps.push_back(std::move(final_step));

  ASSERT_TRUE(PlanProgram(&program).ok());
  auto result = RunProgram(program, &env.ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Iteration 1 appends key 2 (one new key => delta 1 => continue);
  // iteration 2 appends a second identical key-2 row (duplicate of a
  // matched key-group => delta 0 => stop). The aliasing bug stopped after
  // iteration 1 with only 2 rows.
  EXPECT_EQ(env.ctx.stats.loop_iterations, 2);
  EXPECT_EQ((*result)->num_rows(), 3u);
}

}  // namespace
}  // namespace dbspinner
