// Physical operator and program-executor unit tests (below the SQL layer).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>

#include "exec/data_chunk.h"
#include "exec/hash_aggregate.h"
#include "exec/merge_update.h"
#include "exec/physical_plan.h"
#include "exec/physical_planner.h"
#include "exec/pipeline.h"
#include "exec/program_executor.h"
#include "test_util.h"
#include "testing/reference_eval.h"

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

TEST(MergeUpdateTest, MatchedRowsTakeWorkingValues) {
  auto cte = MakeKV({{1, 1.0}, {2, 2.0}, {3, 3.0}});
  auto working = MakeKV({{2, 20.0}, {3, 3.0}});
  auto result = MergeUpdateTables(cte, *working, 0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->merged->num_rows(), 3u);
  // Only key 2 actually changed (key 3 got identical values).
  EXPECT_EQ(result->updated_rows, 1);
  auto expected = MakeKV({{1, 1.0}, {2, 20.0}, {3, 3.0}});
  EXPECT_TRUE(Table::SameRows(*result->merged, *expected));
}

TEST(MergeUpdateTest, WorkingKeysNotInCteAreIgnored) {
  auto cte = MakeKV({{1, 1.0}});
  auto working = MakeKV({{9, 9.0}});
  auto result = MergeUpdateTables(cte, *working, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->merged->num_rows(), 1u);
  EXPECT_EQ(result->updated_rows, 0);
}

TEST(MergeUpdateTest, DuplicateKeyFails) {
  auto cte = MakeKV({{1, 1.0}});
  auto working = MakeKV({{1, 2.0}, {1, 3.0}});
  auto result = MergeUpdateTables(cte, *working, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
}

TEST(MergeUpdateTest, CountChangedRows) {
  auto prev = MakeKV({{1, 1.0}, {2, 2.0}, {3, 3.0}});
  auto cur = MakeKV({{1, 1.0}, {2, 9.0}, {4, 4.0}});
  // key 2 changed, key 4 new, key 3 disappeared => 3 changes.
  EXPECT_EQ(DiffVersions(*prev, *cur, 0).count, 3);
  EXPECT_EQ(DiffVersions(*prev, *prev, 0).count, 0);
}

TEST(ProgramExecutorTest, JumpLoopRunsBodyNTimes) {
  // Hand-built program: materialize 1-row table, loop 5 iterations over a
  // body that replaces it with v + 1 (via plan Scan -> Project).
  Env env;
  env.registry.Put("acc", MakeKV({{1, 0.0}}));

  Program program;
  Schema kv = KV();

  auto scan = MakeScan(ScanSource::kResult, "acc", kv);
  std::vector<BoundExprPtr> projections;
  projections.push_back(MakeBoundColumnRef(0, TypeId::kInt64, "k"));
  projections.push_back(MakeBoundBinary(
      BinaryOp::kAdd, MakeBoundColumnRef(1, TypeId::kDouble, "v"),
      MakeBoundConstant(Value::Double(1)), TypeId::kDouble));
  auto body_plan =
      MakeProject(std::move(projections), {"k", "v"}, std::move(scan));

  LoopSpec spec;
  spec.kind = LoopSpec::Kind::kIterations;
  spec.n = 5;
  spec.cte_name = "acc";

  Step init;
  init.kind = Step::Kind::kInitLoop;
  init.id = program.NewId();
  init.loop_id = 1;
  init.loop = spec.Clone();
  program.steps.push_back(std::move(init));

  Step body;
  body.kind = Step::Kind::kMaterialize;
  body.id = program.NewId();
  body.target = "working";
  body.plan = std::move(body_plan);
  int body_id = body.id;
  program.steps.push_back(std::move(body));

  Step rename;
  rename.kind = Step::Kind::kRename;
  rename.id = program.NewId();
  rename.source = "working";
  rename.target = "acc";
  rename.loop_id = 1;
  program.steps.push_back(std::move(rename));

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
  final_step.plan = MakeScan(ScanSource::kResult, "acc", kv);
  program.steps.push_back(std::move(final_step));

  ASSERT_TRUE(PlanProgram(&program).ok());
  auto result = RunProgram(program, &env.ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ((*result)->GetValue(0, 1).double_value(), 5.0);
  EXPECT_EQ(env.ctx.stats.loop_iterations, 5);
  EXPECT_EQ(env.ctx.stats.renames, 5);
}

TEST(HashJoinExecTest, InnerAndLeftViaSql) {
  Database db;
  testing::MustExecute(&db, "CREATE TABLE l (k BIGINT, v DOUBLE)");
  testing::MustExecute(&db, "CREATE TABLE r (k BIGINT, w DOUBLE)");
  testing::MustExecute(&db, "INSERT INTO l VALUES (1, 1.0), (2, 2.0), "
                            "(NULL, 0.0)");
  testing::MustExecute(&db, "INSERT INTO r VALUES (1, 10.0), (1, 11.0), "
                            "(NULL, 99.0)");

  // NULL keys never match (SQL semantics), duplicates multiply.
  auto inner = testing::MustQuery(
      &db, "SELECT l.k, r.w FROM l JOIN r ON l.k = r.k ORDER BY r.w");
  ASSERT_EQ(inner->num_rows(), 2u);

  auto left = testing::MustQuery(
      &db, "SELECT l.v, r.w FROM l LEFT JOIN r ON l.k = r.k ORDER BY l.v");
  ASSERT_EQ(left->num_rows(), 4u);  // 2 matches for k=1, pads for k=2 & NULL
  EXPECT_TRUE(left->GetValue(0, 1).is_null());  // v=0.0 row (NULL key)
}

TEST(DistinctExecTest, CrossTypeDuplicates) {
  Database db;
  testing::MustExecute(&db, "CREATE TABLE t (v DOUBLE)");
  testing::MustExecute(&db, "INSERT INTO t VALUES (1.0), (1.0), (2.0)");
  auto result =
      testing::MustQuery(&db, "SELECT DISTINCT v FROM t");
  EXPECT_EQ(result->num_rows(), 2u);
}

TEST(SortExecTest, StableMultiKey) {
  Database db;
  testing::MustExecute(&db, "CREATE TABLE t (a BIGINT, b BIGINT)");
  testing::MustExecute(&db,
                       "INSERT INTO t VALUES (1, 3), (2, 1), (1, 1), (2, 2)");
  auto result = testing::MustQuery(
      &db, "SELECT a, b FROM t ORDER BY a ASC, b DESC");
  ASSERT_EQ(result->num_rows(), 4u);
  EXPECT_EQ(result->GetValue(0, 0).int64_value(), 1);
  EXPECT_EQ(result->GetValue(0, 1).int64_value(), 3);
  EXPECT_EQ(result->GetValue(3, 1).int64_value(), 1);
}

// --- typed sort kernel against the row-wise reference ----------------------

// `n` rows: id (the input row), then INT64, DOUBLE, STRING and BOOL keys
// with NULLs and many ties (the DOUBLE one with NaNs of both signs, signed
// zeros and infinities), and an INT64 key without NULLs.
TablePtr MakeSortInput(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  Schema schema;
  schema.AddColumn("id", TypeId::kInt64);
  schema.AddColumn("i", TypeId::kInt64);
  schema.AddColumn("d", TypeId::kDouble);
  schema.AddColumn("s", TypeId::kString);
  schema.AddColumn("b", TypeId::kBool);
  schema.AddColumn("nn", TypeId::kInt64);
  const double kDoubles[] = {-0.0,
                             0.0,
                             0.5,
                             -1.5,
                             2.0,
                             1e300,
                             -std::numeric_limits<double>::infinity(),
                             std::nan(""),
                             -std::nan("")};
  const char* kStrings[] = {"", "a", "ab", "b", "B"};
  auto t = Table::Make(schema);
  for (size_t r = 0; r < n; ++r) {
    auto null = [&](int one_in) { return rng() % one_in == 0; };
    t->AppendRow(
        {Value::Int64(static_cast<int64_t>(r)),
         null(8) ? Value::Null(TypeId::kInt64)
                 : Value::Int64(static_cast<int64_t>(rng() % 7) - 3),
         null(8) ? Value::Null(TypeId::kDouble)
                 : Value::Double(kDoubles[rng() % 9]),
         null(8) ? Value::Null(TypeId::kString)
                 : Value::String(kStrings[rng() % 5]),
         null(5) ? Value::Null(TypeId::kBool) : Value::Bool(rng() % 2),
         Value::Int64(static_cast<int64_t>(rng() % 5))});
  }
  return t;
}

struct SortCase {
  std::vector<std::pair<size_t, bool>> keys;  // (column, descending)
  int64_t limit = -1;
  int64_t offset = 0;
};

// The ids of `t` ordered by a std::stable_sort on Value::Compare, sliced.
std::vector<int64_t> ReferenceSort(const Table& t, const SortCase& c) {
  std::vector<uint32_t> order(t.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (const auto& [col, desc] : c.keys) {
      int cmp = t.GetValue(a, col).Compare(t.GetValue(b, col));
      if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
    }
    return false;
  });
  size_t begin = std::min<size_t>(c.offset, order.size());
  size_t end = c.limit < 0
                   ? order.size()
                   : std::min<size_t>(order.size(), begin + c.limit);
  std::vector<int64_t> ids;
  for (size_t i = begin; i < end; ++i) {
    ids.push_back(t.GetValue(order[i], 0).int64_value());
  }
  return ids;
}

// The ids PhysicalSort (under a top-N PhysicalLimit when c.limit >= 0)
// emits for `t`, planned as the physical planner plans ORDER BY ... LIMIT.
std::vector<int64_t> EngineSort(const TablePtr& t, const SortCase& c) {
  Env env;
  env.registry.Put("t", t);
  const Schema& schema = t->schema();
  std::vector<PhysicalSort::Key> keys;
  for (const auto& [col, desc] : c.keys) {
    keys.push_back(PhysicalSort::Key{
        MakeBoundColumnRef(col, schema.column(col).type,
                           schema.column(col).name),
        desc});
  }
  auto sort = std::make_unique<PhysicalSort>(schema, std::move(keys));
  sort->AddChild(std::make_unique<PhysicalScan>(schema, false, "t"));
  PhysicalOpPtr top = std::move(sort);
  if (c.limit >= 0) {
    static_cast<PhysicalSort*>(top.get())->set_top_n(c.offset + c.limit);
    auto limit = std::make_unique<PhysicalLimit>(schema, c.limit, c.offset);
    limit->AddChild(std::move(top));
    top = std::move(limit);
  }
  Result<TablePtr> out = ExecuteOp(*top, env.ctx);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  std::vector<int64_t> ids;
  if (!out.ok()) return ids;
  for (size_t r = 0; r < (*out)->num_rows(); ++r) {
    ids.push_back((*out)->GetValue(r, 0).int64_value());
  }
  return ids;
}

TEST(SortExecTest, MatchesRowWiseReference) {
  enum { kId, kI, kD, kS, kB, kNn };
  const std::vector<SortCase> cases = {
      {{{kI, false}}},
      {{{kI, true}}},
      {{{kD, false}}},
      {{{kD, true}}},
      {{{kS, false}}},
      {{{kS, true}}},
      {{{kB, false}}},
      {{{kB, true}}},
      {{{kNn, false}}},
      {{{kNn, true}}},
      {{{kD, true}, {kI, false}}},
      {{{kS, false}, {kD, true}}},
      {{{kB, true}, {kS, true}}},
      {{{kI, false}, {kB, false}}},
      {{{kNn, true}, {kD, false}, {kS, true}}},
      {{{kD, false}}, 10},
      {{{kD, true}}, 25, 290},
      {{{kI, true}, {kS, false}}, 7, 5},
      {{{kS, true}}, 0},
      {{{kB, false}, {kD, true}}, 1000, 3},
      {{{kNn, false}, {kI, true}}, 40, 17},
      {{{kId, true}}, 5},
  };
  for (uint32_t seed : {1u, 2u, 3u}) {
    TablePtr t = MakeSortInput(320, seed);
    for (size_t i = 0; i < cases.size(); ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " case " +
                   std::to_string(i));
      EXPECT_EQ(EngineSort(t, cases[i]), ReferenceSort(*t, cases[i]));
    }
  }
}

// --- typed aggregate kernel against the row-wise AggState fold --------------

// `n` rows of (key, xi, xd, xs): a few INT64 group keys and NULL, and
// INT64, DOUBLE (with NaN) and STRING arguments with NULLs and repeats.
TablePtr MakeAggInput(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  Schema schema;
  schema.AddColumn("key", TypeId::kInt64);
  schema.AddColumn("xi", TypeId::kInt64);
  schema.AddColumn("xd", TypeId::kDouble);
  schema.AddColumn("xs", TypeId::kString);
  const char* kStrings[] = {"", "x", "xy", "y", "Y", "zz"};
  auto t = Table::Make(schema);
  for (size_t r = 0; r < n; ++r) {
    auto null = [&](int one_in) { return rng() % one_in == 0; };
    double d = static_cast<double>(static_cast<int>(rng() % 2001) - 1000) /
               static_cast<double>(1 + rng() % 7);
    t->AppendRow(
        {null(9) ? Value::Null(TypeId::kInt64)
                 : Value::Int64(static_cast<int64_t>(rng() % 6)),
         null(6) ? Value::Null(TypeId::kInt64)
                 : Value::Int64(static_cast<int64_t>(rng() % 101) - 50),
         null(6)    ? Value::Null(TypeId::kDouble)
         : null(40) ? Value::Double(std::nan(""))
                    : Value::Double(d),
         null(6) ? Value::Null(TypeId::kString)
                 : Value::String(kStrings[rng() % 6])});
  }
  return t;
}

// Identical values: same NULL-ness, bit-identical doubles (NaN equals
// NaN), or within `rel` of each other when `rel` > 0.
bool SameResult(const Value& a, const Value& b, double rel) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() == TypeId::kDouble && b.type() == TypeId::kDouble) {
    double x = a.double_value(), y = b.double_value();
    if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
    if (rel > 0) return std::fabs(x - y) <= rel * (1 + std::fabs(y));
    return std::memcmp(&x, &y, sizeof x) == 0;
  }
  return a.type() == b.type() && a.Compare(b) == 0;
}

TEST(GroupedAggregatorTest, MatchesRowWiseAggStateFold) {
  const AggKind kKinds[] = {AggKind::kCount,  AggKind::kSum,
                            AggKind::kMin,    AggKind::kMax,
                            AggKind::kAvg,    AggKind::kStdDev,
                            AggKind::kVariance};
  std::vector<AggregateSpec> aggs;
  auto add = [&](AggKind kind, bool distinct, BoundExprPtr arg) {
    AggregateSpec spec;
    spec.kind = kind;
    spec.distinct = distinct;
    TypeId in = arg ? arg->type : TypeId::kInt64;
    spec.result_type = *AggResultType(kind, in);
    spec.arg = std::move(arg);
    aggs.push_back(std::move(spec));
  };
  add(AggKind::kCountStar, false, nullptr);
  for (bool distinct : {false, true}) {
    for (size_t col : {1, 2, 3}) {
      for (AggKind kind : kKinds) {
        TypeId type = col == 1   ? TypeId::kInt64
                      : col == 2 ? TypeId::kDouble
                                 : TypeId::kString;
        if (type == TypeId::kString && kind != AggKind::kCount &&
            kind != AggKind::kMin && kind != AggKind::kMax) {
          continue;
        }
        add(kind, distinct, MakeBoundColumnRef(col, type, "x"));
      }
    }
  }
  // A computed argument, evaluated over the chunk rather than read in place.
  add(AggKind::kSum, false,
      MakeBoundBinary(BinaryOp::kAdd,
                      MakeBoundColumnRef(1, TypeId::kInt64, "xi"),
                      MakeBoundConstant(Value::Int64(1)), TypeId::kInt64));

  // Group by nothing, by the key column, or by a computed key.
  for (int grouping : {0, 1, 2}) {
    std::vector<BoundExprPtr> groups;
    if (grouping == 1) {
      groups.push_back(MakeBoundColumnRef(0, TypeId::kInt64, "key"));
    } else if (grouping == 2) {
      groups.push_back(MakeBoundBinary(
          BinaryOp::kMul, MakeBoundColumnRef(0, TypeId::kInt64, "key"),
          MakeBoundConstant(Value::Int64(1)), TypeId::kInt64));
    }
    Schema out_schema;
    if (grouping != 0) out_schema.AddColumn("key", TypeId::kInt64);
    for (size_t a = 0; a < aggs.size(); ++a) {
      out_schema.AddColumn("a" + std::to_string(a), aggs[a].result_type);
    }
    for (uint32_t seed : {1u, 2u, 3u}) {
      for (size_t width : {1, 2, 4}) {
        SCOPED_TRACE("grouping " + std::to_string(grouping) + " seed " +
                     std::to_string(seed) + " width " +
                     std::to_string(width));
        TablePtr input = MakeAggInput(600, seed);
        std::mt19937 rng(seed * 7 + width);
        std::vector<GroupedAggregator> partials;
        for (size_t p = 0; p < width; ++p) {
          partials.emplace_back(&groups, &aggs, &out_schema);
        }
        // Reference: per partial and group, one AggState per aggregate fed
        // row by row (DISTINCT ones keep their distinct inputs instead).
        using GroupStates = std::map<std::string, std::vector<AggState>>;
        using GroupSeen =
            std::map<std::string, std::vector<std::vector<Value>>>;
        std::vector<GroupStates> ref(width);
        GroupSeen seen;
        auto group_of = [&](size_t row) {
          return grouping == 0 ? std::string()
                               : input->GetValue(row, 0).ToString();
        };
        auto fold_row = [&](size_t p, size_t row) {
          std::string g = group_of(row);
          auto [it, fresh] = ref[p].try_emplace(g);
          if (fresh) {
            for (const AggregateSpec& spec : aggs) {
              it->second.emplace_back(spec.kind);
            }
          }
          std::vector<std::vector<Value>>& distinct = seen[g];
          distinct.resize(aggs.size());
          for (size_t a = 0; a < aggs.size(); ++a) {
            Value v;
            if (a == aggs.size() - 1) {
              Value xi = input->GetValue(row, 1);
              v = xi.is_null() ? xi : Value::Int64(xi.int64_value() + 1);
            } else if (aggs[a].arg) {
              v = input->GetValue(row, aggs[a].arg->column_index);
            }
            if (!aggs[a].distinct) {
              it->second[a].Update(v);
              continue;
            }
            if (v.is_null()) continue;
            bool dup = false;
            for (const Value& s : distinct[a]) {
              dup |= s.Compare(v) == 0;
            }
            if (!dup) distinct[a].push_back(v);
          }
        };
        // Random morsels, each a contiguous window or a random selection
        // within one, consumed by a random partial.
        for (size_t begin = 0; begin < input->num_rows();) {
          size_t count = std::min<size_t>(1 + rng() % 60,
                                          input->num_rows() - begin);
          size_t p = rng() % width;
          DataChunk chunk(input, begin, count);
          if (rng() % 3 == 0) {
            std::vector<uint32_t> sel;
            for (size_t r = begin; r < begin + count; ++r) {
              if (rng() % 2) sel.push_back(static_cast<uint32_t>(r));
            }
            chunk.SetSelection(sel);
          }
          for (size_t i = 0; i < chunk.size(); ++i) {
            fold_row(p, chunk.RowAt(i));
          }
          ASSERT_TRUE(partials[p].Consume(chunk).ok());
          begin += count;
        }
        GroupedAggregator merged(&groups, &aggs, &out_schema);
        GroupStates expected;
        for (size_t p = 0; p < width; ++p) {
          merged.MergeFrom(partials[p]);
          for (auto& [g, states] : ref[p]) {
            auto [it, fresh] = expected.try_emplace(g);
            if (fresh) {
              for (const AggregateSpec& spec : aggs) {
                it->second.emplace_back(spec.kind);
              }
            }
            for (size_t a = 0; a < aggs.size(); ++a) {
              it->second[a].MergeFrom(states[a]);
            }
          }
        }
        Result<TablePtr> out = merged.Finalize();
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        const Table& t = **out;
        const size_t first_agg = grouping == 0 ? 0 : 1;
        ASSERT_EQ(t.num_rows(), grouping == 0 ? 1 : expected.size());
        for (size_t r = 0; r < t.num_rows(); ++r) {
          std::string g = grouping == 0 ? "" : t.GetValue(r, 0).ToString();
          ASSERT_TRUE(expected.count(g)) << g;
          for (size_t a = 0; a < aggs.size(); ++a) {
            Value want;
            double rel = 0;
            if (aggs[a].distinct) {
              // The distinct set folds in its own order: sums may round
              // differently.
              AggState s(aggs[a].kind);
              for (const Value& v : seen[g][a]) s.Update(v);
              want = *s.Finalize(aggs[a].result_type);
              rel = 1e-9;
            } else {
              want = *expected[g][a].Finalize(aggs[a].result_type);
            }
            Value got = t.GetValue(r, first_agg + a);
            EXPECT_TRUE(SameResult(got, want, rel))
                << "group " << g << " agg " << a << " ("
                << AggKindName(aggs[a].kind)
                << (aggs[a].distinct ? " distinct" : "") << "): got "
                << got.ToString() << ", want " << want.ToString();
          }
        }
      }
    }
  }
}

// Integer SUM partials are exact in 128 bits: a partial and a merge may
// pass INT64_MAX, and the range is checked once, at Finalize.
TEST(GroupedAggregatorTest, IntegerSumOverflowsAtFinalize) {
  Schema in_schema;
  in_schema.AddColumn("x", TypeId::kInt64);
  std::vector<BoundExprPtr> groups;
  std::vector<AggregateSpec> aggs(1);
  aggs[0].kind = AggKind::kSum;
  aggs[0].arg = MakeBoundColumnRef(0, TypeId::kInt64, "x");
  Schema out_schema;
  out_schema.AddColumn("sum", TypeId::kInt64);
  auto one_row = [&](int64_t v) {
    auto t = Table::Make(in_schema);
    t->AppendRow({Value::Int64(v)});
    return t;
  };
  GroupedAggregator a(&groups, &aggs, &out_schema);
  GroupedAggregator b(&groups, &aggs, &out_schema);
  ASSERT_TRUE(a.Consume(DataChunk(one_row(INT64_MAX), 0, 1)).ok());
  ASSERT_TRUE(b.Consume(DataChunk(one_row(1), 0, 1)).ok());
  GroupedAggregator merged(&groups, &aggs, &out_schema);
  merged.MergeFrom(a);
  merged.MergeFrom(b);
  Result<TablePtr> out = merged.Finalize();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kExecutionError);
  EXPECT_EQ(out.status().message(), "integer overflow");
  // Within one partial, Consume passes INT64_MAX and a later input brings
  // the sum back into range.
  ASSERT_TRUE(a.Consume(DataChunk(one_row(1), 0, 1)).ok());
  ASSERT_TRUE(a.Consume(DataChunk(one_row(-1), 0, 1)).ok());
  Result<TablePtr> fits = a.Finalize();
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ((*fits)->GetValue(0, 0).int64_value(), INT64_MAX);
}

// Random insert and retract sequences: typed Retract against the boxed
// AggState, row by row, the way incremental aggregate views maintained
// their groups (a group erased at zero rows; a retraction from a missing or
// empty group, or an inexact one, fails the whole delta). Both must report
// the same success flag and, after a success, the same finalized values. A
// failure rebuilds both from the live rows, as a view recomputes.
TEST(GroupedAggregatorTest, RetractMatchesRowWiseAggState) {
  const AggKind kKinds[] = {AggKind::kCount,  AggKind::kSum,
                            AggKind::kMin,    AggKind::kMax,
                            AggKind::kAvg,    AggKind::kStdDev,
                            AggKind::kVariance};
  // Without MIN/MAX every group can be retracted to zero rows and refilled;
  // with them, retracting a group's extreme escalates.
  for (bool extremes : {false, true}) {
    std::vector<AggregateSpec> aggs;
    auto add = [&](AggKind kind, BoundExprPtr arg) {
      AggregateSpec spec;
      spec.kind = kind;
      spec.result_type =
          *AggResultType(kind, arg ? arg->type : TypeId::kInt64);
      spec.arg = std::move(arg);
      aggs.push_back(std::move(spec));
    };
    for (size_t col : {1, 2, 3}) {
      const TypeId type = col == 1   ? TypeId::kInt64
                          : col == 2 ? TypeId::kDouble
                                     : TypeId::kString;
      for (AggKind kind : kKinds) {
        const bool extreme = kind == AggKind::kMin || kind == AggKind::kMax;
        if (extreme != extremes && !(extremes && kind == AggKind::kCount)) {
          continue;
        }
        if (type == TypeId::kString && kind != AggKind::kCount && !extreme) {
          continue;
        }
        add(kind, MakeBoundColumnRef(col, type, "x"));
      }
    }
    add(AggKind::kCountStar, nullptr);  // the group's row count, last
    std::vector<BoundExprPtr> groups;
    groups.push_back(MakeBoundColumnRef(0, TypeId::kInt64, "key"));
    Schema out_schema;
    out_schema.AddColumn("key", TypeId::kInt64);
    for (size_t a = 0; a < aggs.size(); ++a) {
      out_schema.AddColumn("a" + std::to_string(a), aggs[a].result_type);
    }

    for (uint32_t seed : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE(std::string(extremes ? "with" : "without") +
                   " MIN/MAX, seed " + std::to_string(seed));
      TablePtr pool = MakeAggInput(200, seed);
      // A row whose group (key 77) was never inserted.
      TablePtr stranger = Table::Make(pool->schema());
      stranger->AppendRow({Value::Int64(77), Value::Int64(1),
                           Value::Double(1), Value::String("x")});
      std::mt19937 rng(seed);

      struct RefGroup {
        int64_t rows = 0;
        std::vector<AggState> states;
      };
      std::map<std::string, RefGroup> ref;
      std::unique_ptr<GroupedAggregator> typed;
      std::vector<uint32_t> live;  // pool rows currently folded, sorted
      auto arg_of = [&](const Table& t, size_t row, size_t a) {
        return aggs[a].arg ? t.GetValue(row, aggs[a].arg->column_index)
                           : Value();
      };
      auto ref_insert = [&](const Table& t, size_t row) {
        RefGroup& g = ref[t.GetValue(row, 0).ToString()];
        if (g.states.empty()) {
          for (const AggregateSpec& spec : aggs) {
            g.states.emplace_back(spec.kind);
          }
        }
        ++g.rows;
        for (size_t a = 0; a < aggs.size(); ++a) {
          g.states[a].Update(arg_of(t, row, a));
        }
      };
      auto ref_retract = [&](const Table& t, size_t row) {
        auto it = ref.find(t.GetValue(row, 0).ToString());
        if (it == ref.end() || it->second.rows == 0) return false;
        for (size_t a = 0; a < aggs.size(); ++a) {
          if (!it->second.states[a].Retract(arg_of(t, row, a))) return false;
        }
        if (--it->second.rows == 0) ref.erase(it);
        return true;
      };
      auto chunk_of = [](const TablePtr& t, std::vector<uint32_t> rows) {
        DataChunk chunk(t, 0, t->num_rows());
        chunk.SetSelection(std::move(rows));
        return chunk;
      };
      auto rebuild = [&]() {
        ref.clear();
        typed = std::make_unique<GroupedAggregator>(&groups, &aggs,
                                                    &out_schema);
        for (uint32_t r : live) ref_insert(*pool, r);
        ASSERT_TRUE(typed->Consume(chunk_of(pool, live)).ok());
      };
      rebuild();

      int escalations = 0;
      int emptied = 0;
      for (int step = 0; step < 150; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const uint32_t op = rng() % 8;
        if (op < 3 || live.empty()) {
          // Insert 1-20 random pool rows (repeats allowed).
          std::vector<uint32_t> rows(1 + rng() % 20);
          for (uint32_t& r : rows) r = rng() % pool->num_rows();
          std::sort(rows.begin(), rows.end());
          for (uint32_t r : rows) ref_insert(*pool, r);
          ASSERT_TRUE(typed->Consume(chunk_of(pool, rows)).ok());
          live.insert(live.end(), rows.begin(), rows.end());
          std::sort(live.begin(), live.end());
          continue;
        }
        TablePtr from = pool;
        std::vector<uint32_t> rows;
        if (op == 7 && rng() % 4 == 0) {
          from = stranger;
          rows = {0};
        } else if (op >= 5) {
          // Every live row of one group: the group retracts to zero rows.
          const Value key = pool->GetValue(live[rng() % live.size()], 0);
          for (uint32_t r : live) {
            if (pool->GetValue(r, 0).Compare(key) == 0) rows.push_back(r);
          }
        } else {
          for (uint32_t r : live) {
            if (rng() % 4 == 0) rows.push_back(r);
          }
        }
        bool want = true;
        for (uint32_t r : rows) want = want && ref_retract(*from, r);
        Result<bool> got = typed->Retract(chunk_of(from, rows));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(*got, want);
        if (from == pool) {
          for (uint32_t r : rows) {
            live.erase(std::find(live.begin(), live.end(), r));
          }
        }
        if (!want) {
          ++escalations;
          rebuild();
          continue;
        }
        if (op >= 5) ++emptied;
        // The typed groups with rows are exactly the reference's groups.
        Result<TablePtr> out = typed->Finalize();
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        const Table& t = **out;
        size_t nonempty = 0;
        for (size_t r = 0; r < t.num_rows(); ++r) {
          if (t.GetValue(r, aggs.size()).int64_value() == 0) continue;
          ++nonempty;
          const std::string g = t.GetValue(r, 0).ToString();
          ASSERT_TRUE(ref.count(g)) << g;
          for (size_t a = 0; a < aggs.size(); ++a) {
            Value want_v = *ref[g].states[a].Finalize(aggs[a].result_type);
            Value got_v = t.GetValue(r, 1 + a);
            EXPECT_TRUE(SameResult(got_v, want_v, 0))
                << "group " << g << " agg " << a << " ("
                << AggKindName(aggs[a].kind) << "): got " << got_v.ToString()
                << ", want " << want_v.ToString();
          }
        }
        EXPECT_EQ(nonempty, ref.size());
      }
      // Both paths ran: exact deltas (groups emptied and refilled among
      // them) and escalations.
      EXPECT_GT(escalations, 0);
      if (!extremes) EXPECT_GT(emptied, 0);
    }
  }
}

TEST(StatsTest, MaterializedRowsTracked) {
  Database db;
  testing::MustExecute(&db, "CREATE TABLE t (a BIGINT)");
  testing::MustExecute(&db, "INSERT INTO t VALUES (1), (2), (3)");
  auto result = db.Execute("SELECT a + 1 FROM t WHERE a > 1");
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.rows_materialized, 0);
  EXPECT_GT(result->stats.steps_executed, 0);
}


// Every ExecStats field with its name, written out by hand rather than
// taken from the counter table, so the tests below check the table.
std::vector<std::pair<std::string, int64_t*>> AllCounters(ExecStats* s) {
  return {{"steps_executed", &s->steps_executed},
          {"loop_iterations", &s->loop_iterations},
          {"rows_materialized", &s->rows_materialized},
          {"rows_shuffled", &s->rows_shuffled},
          {"renames", &s->renames},
          {"merge_updates", &s->merge_updates},
          {"delta_rows", &s->delta_rows},
          {"delta_probe_rows", &s->delta_probe_rows},
          {"build_cache_hits", &s->build_cache_hits},
          {"faults_seen", &s->faults_seen},
          {"step_retries", &s->step_retries},
          {"checkpoints_taken", &s->checkpoints_taken},
          {"restores", &s->restores},
          {"durable_checkpoints", &s->durable_checkpoints},
          {"verify_violations", &s->verify_violations},
          {"queue_wait_us", &s->queue_wait_us},
          {"admission_waits", &s->admission_waits},
          {"cancel_checks", &s->cancel_checks},
          {"pipelines_run", &s->pipelines_run},
          {"morsels_dispatched", &s->morsels_dispatched},
          {"pipeline_rows_in", &s->pipeline_rows_in},
          {"pipeline_rows_out", &s->pipeline_rows_out},
          {"kernel_rows_filter", &s->kernel_rows_filter},
          {"kernel_rows_project", &s->kernel_rows_project},
          {"kernel_rows_probe", &s->kernel_rows_probe},
          {"pipeline_ns", &s->pipeline_ns},
          {"morsels_stolen", &s->morsels_stolen},
          {"agg_partials_merged", &s->agg_partials_merged},
          {"agg_rows_preaggregated", &s->agg_rows_preaggregated},
          {"ivm_deltas_applied", &s->ivm_deltas_applied},
          {"ivm_rows_maintained", &s->ivm_rows_maintained},
          {"ivm_full_refreshes", &s->ivm_full_refreshes},
          {"ivm_fallbacks", &s->ivm_fallbacks}};
}

// The work-proportional counters: the ones a retry or restore rolls back.
const std::set<std::string> kWorkCounters = {
    "steps_executed", "loop_iterations", "rows_materialized",
    "rows_shuffled", "renames", "merge_updates", "delta_rows",
    "delta_probe_rows", "build_cache_hits", "pipelines_run",
    "morsels_dispatched", "pipeline_rows_in", "pipeline_rows_out",
    "kernel_rows_filter", "kernel_rows_project", "kernel_rows_probe",
    "pipeline_ns", "morsels_stolen", "agg_partials_merged",
    "agg_rows_preaggregated"};

// Sets counter i of `s` to `first` + i * `step`.
void FillCounters(ExecStats* s, int64_t first, int64_t step) {
  int64_t v = first;
  for (auto& [name, field] : AllCounters(s)) {
    *field = v;
    v += step;
  }
}

TEST(ExecStatsTest, HandListCoversEveryField) {
  ExecStats s;
  EXPECT_EQ(AllCounters(&s).size(), 33u);
  EXPECT_EQ(sizeof(ExecStats), 33 * sizeof(int64_t));
  EXPECT_EQ(kWorkCounters.size(), 20u);
}

TEST(ExecStatsTest, RewindRestoresWorkAndKeepsBookkeeping) {
  ExecStats stats;
  FillCounters(&stats, 1000, 1);
  ExecStats base;
  FillCounters(&base, 1, 1);
  stats.RewindWorkCountersTo(base);
  int64_t i = 0;
  for (auto& [name, field] : AllCounters(&stats)) {
    SCOPED_TRACE(name);
    EXPECT_EQ(*field, kWorkCounters.count(name) > 0 ? 1 + i : 1000 + i);
    ++i;
  }
}

TEST(ExecStatsTest, AddSumsEveryField) {
  ExecStats a;
  FillCounters(&a, 1, 1);
  ExecStats b;
  FillCounters(&b, 100, 100);
  a.Add(b);
  int64_t i = 0;
  for (auto& [name, field] : AllCounters(&a)) {
    SCOPED_TRACE(name);
    EXPECT_EQ(*field, 101 * (i + 1));
    ++i;
  }
}

TEST(ExecStatsTest, ToStringPrintsEveryFieldUnderItsName) {
  ExecStats stats;
  FillCounters(&stats, 1000, 1);
  const std::string text = stats.ToString();
  EXPECT_EQ(text.rfind("ExecStats{", 0), 0u) << text;
  EXPECT_EQ(text.back(), '}') << text;
  for (auto& [name, field] : AllCounters(&stats)) {
    const std::string entry = name + "=" + std::to_string(*field);
    const size_t at = text.find(entry);
    ASSERT_NE(at, std::string::npos) << entry << " in " << text;
    // A whole entry, not the tail of a longer name.
    EXPECT_TRUE(text[at - 1] == '{' || text[at - 1] == ' ') << entry;
    const char after = text[at + entry.size()];
    EXPECT_TRUE(after == ',' || after == '}') << entry;
  }
}

}  // namespace
}  // namespace dbspinner
