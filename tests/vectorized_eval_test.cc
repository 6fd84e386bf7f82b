// Property tests: the vectorized evaluator (CompiledExpr) must agree with
// the row-wise evaluator for every operator, type mix, and NULL placement
// (TEST_P sweep), over whole tables and over chunk views, and on random
// expression trees (the expression oracle).

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <thread>

#include "exec/data_chunk.h"
#include "expr/expr.h"
#include "expr/scalar_functions.h"
#include "expr/vector_eval.h"
#include "testing/expr_oracle.h"
#include "testing/reference_eval.h"

namespace dbspinner {
namespace {

struct Case {
  BinaryOp op;
  bool left_int;
  bool right_int;
  bool right_const;
  const char* name;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  return info.param.name;
}

class VectorizedEvalTest : public ::testing::TestWithParam<Case> {
 protected:
  // Builds a two-column numeric table with NULLs sprinkled in.
  TablePtr MakeInput(uint64_t seed, bool left_int, bool right_int) {
    Schema s;
    s.AddColumn("a", left_int ? TypeId::kInt64 : TypeId::kDouble);
    s.AddColumn("b", right_int ? TypeId::kInt64 : TypeId::kDouble);
    auto t = Table::Make(s);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> small(-5, 5);
    for (int i = 0; i < 500; ++i) {
      Value a = small(rng) == 0
                    ? Value::Null()
                    : (left_int ? Value::Int64(small(rng))
                                : Value::Double(small(rng) * 0.5));
      Value b = small(rng) == 0
                    ? Value::Null()
                    : (right_int ? Value::Int64(small(rng))
                                 : Value::Double(small(rng) * 0.5));
      t->AppendRow({a, b});
    }
    return t;
  }

  // Builds the expression `a <op> (b | const)`.
  BoundExprPtr MakeExpr(const Case& c) {
    TypeId lt = c.left_int ? TypeId::kInt64 : TypeId::kDouble;
    TypeId rt = c.right_int ? TypeId::kInt64 : TypeId::kDouble;
    BoundExprPtr left = MakeBoundColumnRef(0, lt, "a");
    BoundExprPtr right =
        c.right_const
            ? MakeBoundConstant(c.right_int ? Value::Int64(2)
                                            : Value::Double(1.5))
            : MakeBoundColumnRef(1, rt, "b");
    TypeId out = IsCmp(c.op) ? TypeId::kBool
                             : ((c.left_int && c.right_int) ? TypeId::kInt64
                                                            : TypeId::kDouble);
    return MakeBoundBinary(c.op, std::move(left), std::move(right), out);
  }

  static Result<ColumnVectorPtr> Evaluate(const BoundExpr& e, const Table& t,
                                          RowSet rows,
                                          int64_t* unboxed = nullptr) {
    return CompiledExpr(e).Evaluate(EvalInput(t, rows), unboxed);
  }
  static Result<std::vector<uint32_t>> Filter(const BoundExpr& e,
                                              const Table& t, RowSet rows,
                                              int64_t* unboxed = nullptr) {
    std::vector<uint32_t> out;
    DBSP_RETURN_NOT_OK(
        CompiledExpr(e).Filter(EvalInput(t, rows), &out, unboxed));
    return out;
  }

  static bool IsCmp(BinaryOp op) {
    return op == BinaryOp::kEq || op == BinaryOp::kNe || op == BinaryOp::kLt ||
           op == BinaryOp::kLe || op == BinaryOp::kGt || op == BinaryOp::kGe;
  }
};

TEST_P(VectorizedEvalTest, BatchMatchesRowWise) {
  const Case& c = GetParam();
  TablePtr input = MakeInput(7 + static_cast<uint64_t>(c.op), c.left_int,
                             c.right_int);
  BoundExprPtr expr = MakeExpr(c);

  auto batch = Evaluate(*expr, *input, RowSet::Window(0, input->num_rows()));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ((*batch)->size(), input->num_rows());

  for (size_t i = 0; i < input->num_rows(); ++i) {
    auto row = EvaluateExpr(*expr, *input, i);
    ASSERT_TRUE(row.ok());
    Value batch_v = (*batch)->GetValue(i);
    ASSERT_EQ(batch_v.is_null(), row->is_null()) << "row " << i;
    if (!row->is_null()) {
      EXPECT_TRUE(batch_v.Equals(*row))
          << "row " << i << ": " << batch_v.ToString() << " vs "
          << row->ToString();
    }
  }
}

TEST_P(VectorizedEvalTest, PredicateMatchesRowWise) {
  const Case& c = GetParam();
  if (!IsCmp(c.op)) GTEST_SKIP() << "predicates are comparisons";
  TablePtr input = MakeInput(99, c.left_int, c.right_int);
  BoundExprPtr expr = MakeExpr(c);

  auto sel = Filter(*expr, *input, RowSet::Window(0, input->num_rows()));
  ASSERT_TRUE(sel.ok());
  std::vector<uint32_t> expected;
  for (size_t i = 0; i < input->num_rows(); ++i) {
    auto v = EvaluateExpr(*expr, *input, i);
    ASSERT_TRUE(v.ok());
    if (!v->is_null() && v->bool_value()) {
      expected.push_back(static_cast<uint32_t>(i));
    }
  }
  EXPECT_EQ(*sel, expected);
}

// The evaluator runs over a chunk's view of its base table: a contiguous
// window, or a list of row ids; a filter returns chunk positions. Chunks
// are short (7 rows), so some hold no NULL and others do.
TEST_P(VectorizedEvalTest, ChunkKernelsMatchRowWise) {
  const Case& c = GetParam();
  TablePtr input = MakeInput(13 + static_cast<uint64_t>(c.op), c.left_int,
                             c.right_int);
  BoundExprPtr owned = MakeExpr(c);
  const BoundExpr& expr = *owned;
  const CompiledExpr compiled(expr);

  size_t null_free_chunks = 0;
  for (size_t begin = 0; begin + 14 <= input->num_rows(); begin += 14) {
    DataChunk selected(input, begin, 14);
    std::vector<uint32_t> odd;
    for (uint32_t r = 1; r < 14; r += 2) odd.push_back(r);
    selected.Restrict(odd);
    for (const DataChunk& chunk : {DataChunk(input, begin, 7), selected}) {
      const EvalInput in = chunk.Input();
      bool has_null = false;
      std::vector<uint32_t> want_rows;
      int64_t unboxed = 0;
      auto projected = compiled.Evaluate(in, &unboxed);
      ASSERT_TRUE(projected.ok()) << projected.status().ToString();
      ASSERT_EQ((*projected)->size(), chunk.size());
      EXPECT_EQ(unboxed, static_cast<int64_t>(chunk.size()));
      for (size_t i = 0; i < chunk.size(); ++i) {
        uint32_t row = chunk.rows(0).RowAt(i);
        has_null = has_null || input->column(0).IsNull(row) ||
                   input->column(1).IsNull(row);
        auto want = EvaluateExpr(expr, *input, row);
        ASSERT_TRUE(want.ok());
        Value got = (*projected)->GetValue(i);
        ASSERT_EQ(got.is_null(), want->is_null()) << "row " << row;
        if (!want->is_null()) {
          EXPECT_TRUE(got.Equals(*want))
              << "row " << row << ": " << got.ToString() << " vs "
              << want->ToString();
          if (IsCmp(c.op) && want->bool_value()) {
            want_rows.push_back(static_cast<uint32_t>(i));
          }
        }
      }
      if (!has_null) ++null_free_chunks;
      if (!IsCmp(c.op)) continue;
      std::vector<uint32_t> got_rows;
      ASSERT_TRUE(compiled.Filter(in, &got_rows).ok());
      EXPECT_EQ(got_rows, want_rows)
          << "chunk at row " << chunk.rows(0).RowAt(0);
    }
  }
  EXPECT_GT(null_free_chunks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, VectorizedEvalTest,
    ::testing::Values(
        Case{BinaryOp::kAdd, true, true, false, "add_ii"},
        Case{BinaryOp::kAdd, true, false, false, "add_id"},
        Case{BinaryOp::kAdd, false, false, false, "add_dd"},
        Case{BinaryOp::kSub, true, true, true, "sub_ic"},
        Case{BinaryOp::kSub, false, true, false, "sub_di"},
        Case{BinaryOp::kMul, true, true, false, "mul_ii"},
        Case{BinaryOp::kMul, false, false, true, "mul_dc"},
        Case{BinaryOp::kEq, true, true, false, "eq_ii"},
        Case{BinaryOp::kEq, true, false, false, "eq_id"},
        Case{BinaryOp::kNe, true, true, true, "ne_ic"},
        Case{BinaryOp::kLt, false, false, false, "lt_dd"},
        Case{BinaryOp::kLe, true, true, false, "le_ii"},
        Case{BinaryOp::kGt, true, false, true, "gt_ic"},
        Case{BinaryOp::kGe, false, true, false, "ge_di"},
        // Filled out so every operator runs on integer, double, mixed and
        // constant operands (division only by a nonzero constant).
        Case{BinaryOp::kAdd, true, true, true, "add_ic"},
        Case{BinaryOp::kSub, true, true, false, "sub_ii"},
        Case{BinaryOp::kSub, false, false, false, "sub_dd"},
        Case{BinaryOp::kMul, true, false, false, "mul_id"},
        Case{BinaryOp::kMul, false, false, false, "mul_dd"},
        Case{BinaryOp::kDiv, true, true, true, "div_ic"},
        Case{BinaryOp::kDiv, false, false, true, "div_dc"},
        Case{BinaryOp::kMod, true, true, true, "mod_ic"},
        Case{BinaryOp::kMod, false, false, true, "mod_dc"},
        Case{BinaryOp::kEq, false, false, false, "eq_dd"},
        Case{BinaryOp::kEq, false, false, true, "eq_dc"},
        Case{BinaryOp::kNe, true, true, false, "ne_ii"},
        Case{BinaryOp::kNe, false, true, false, "ne_di"},
        Case{BinaryOp::kNe, false, false, false, "ne_dd"},
        Case{BinaryOp::kLt, true, true, false, "lt_ii"},
        Case{BinaryOp::kLt, true, false, false, "lt_id"},
        Case{BinaryOp::kLt, true, true, true, "lt_ic"},
        Case{BinaryOp::kLe, false, true, false, "le_di"},
        Case{BinaryOp::kLe, false, false, false, "le_dd"},
        Case{BinaryOp::kLe, false, false, true, "le_dc"},
        Case{BinaryOp::kGt, true, true, false, "gt_ii"},
        Case{BinaryOp::kGt, true, false, false, "gt_id"},
        Case{BinaryOp::kGt, false, false, false, "gt_dd"},
        Case{BinaryOp::kGe, true, true, false, "ge_ii"},
        Case{BinaryOp::kGe, false, false, false, "ge_dd"},
        Case{BinaryOp::kGe, true, true, true, "ge_ic"}),
    CaseName);

TEST(VectorizedEvalEdge, NullConstantShortCircuits) {
  Schema s;
  s.AddColumn("a", TypeId::kInt64);
  auto t = Table::Make(s);
  t->AppendRow({Value::Int64(1)});
  t->AppendRow({Value::Int64(2)});
  auto expr = MakeBoundBinary(BinaryOp::kAdd,
                              MakeBoundColumnRef(0, TypeId::kInt64, "a"),
                              MakeBoundConstant(Value::Null()),
                              TypeId::kInt64);
  auto batch = CompiledExpr(*expr).Evaluate(
      EvalInput(*t, RowSet::Window(0, t->num_rows())));
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE((*batch)->IsNull(0));
  EXPECT_TRUE((*batch)->IsNull(1));
}

TEST(VectorizedEvalEdge, DivisionStaysOnSlowPathAndErrors) {
  Schema s;
  s.AddColumn("a", TypeId::kInt64);
  auto t = Table::Make(s);
  t->AppendRow({Value::Int64(1)});
  auto expr = MakeBoundBinary(BinaryOp::kDiv,
                              MakeBoundColumnRef(0, TypeId::kInt64, "a"),
                              MakeBoundConstant(Value::Int64(0)),
                              TypeId::kInt64);
  auto batch = CompiledExpr(*expr).Evaluate(
      EvalInput(*t, RowSet::Window(0, t->num_rows())));
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kExecutionError);
}

// The kernel-free expression oracle: random trees over every kind and
// function, on random tables full of NULL, NaN, +-0.0, INT64 extremes and
// strings, as whole tables, windows and selections.
TEST(VectorizedEvalOracle, RandomExpressionsMatchRowWise) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    fuzz::FuzzRng rng(seed);
    TablePtr t = fuzz::RandomExprTable(&rng, static_cast<size_t>(
                                                 rng.Range(0, 2500)));
    std::string diff = fuzz::CheckExprOracle(*t, rng.Fork(), 25);
    ASSERT_EQ(diff, "") << "seed " << seed;
  }
}

// Each node sees the rows row-wise evaluation hands it: THEN runs only
// where its WHEN holds, AND's right side only where the left is not
// FALSE, an IN item only on rows not yet matched.
TEST(VectorizedEvalEdge, DivisorsCheckedOnlyWhereRowWiseChecksThem) {
  Schema s;
  s.AddColumn("x", TypeId::kInt64);
  auto t = Table::Make(s);
  for (int64_t x : {5, 0, -2, 0, 10}) t->AppendRow({Value::Int64(x)});
  t->AppendRow({Value::Null()});
  auto x = [] { return MakeBoundColumnRef(0, TypeId::kInt64, "x"); };
  auto k = [](int64_t v) { return MakeBoundConstant(Value::Int64(v)); };
  auto ten_div_x = [&] {
    return MakeBoundBinary(BinaryOp::kDiv, k(10), x(), TypeId::kInt64);
  };
  const RowSet all = RowSet::Window(0, t->num_rows());

  // CASE WHEN x <> 0 THEN 10 / x ELSE 0 END
  auto c = std::make_unique<BoundExpr>();
  c->kind = BoundExprKind::kCase;
  c->type = TypeId::kInt64;
  c->case_has_else = true;
  c->children.push_back(
      MakeBoundBinary(BinaryOp::kNe, x(), k(0), TypeId::kBool));
  c->children.push_back(ten_div_x());
  c->children.push_back(k(0));
  auto col = CompiledExpr(*c).Evaluate(EvalInput(*t, all));
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  std::vector<Value> want = {Value::Int64(2), Value::Int64(0),
                             Value::Int64(-5), Value::Int64(0),
                             Value::Int64(1), Value::Int64(0)};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE((*col)->GetValue(i).Equals(want[i])) << "row " << i;
  }

  // x <> 0 AND 10 / x >= 1 filters without dividing by zero; the same
  // conjuncts in the other order fail, as row-wise evaluation does.
  auto guarded = MakeBoundBinary(
      BinaryOp::kAnd, MakeBoundBinary(BinaryOp::kNe, x(), k(0), TypeId::kBool),
      MakeBoundBinary(BinaryOp::kGe, ten_div_x(), k(1), TypeId::kBool),
      TypeId::kBool);
  std::vector<uint32_t> rows;
  ASSERT_TRUE(
      CompiledExpr(*guarded).Filter(EvalInput(*t, all), &rows).ok());
  EXPECT_EQ(rows, (std::vector<uint32_t>{0, 4}));
  auto unguarded = MakeBoundBinary(
      BinaryOp::kAnd,
      MakeBoundBinary(BinaryOp::kGt, ten_div_x(), k(1), TypeId::kBool),
      MakeBoundBinary(BinaryOp::kNe, x(), k(0), TypeId::kBool), TypeId::kBool);
  rows.clear();
  EXPECT_FALSE(
      CompiledExpr(*unguarded).Filter(EvalInput(*t, all), &rows).ok());
  EXPECT_FALSE(EvaluateExpr(*unguarded, *t, 1).ok());

  // x IN (0, 10 / x): the division runs only where x is not 0 or NULL.
  auto in = std::make_unique<BoundExpr>();
  in->kind = BoundExprKind::kIn;
  in->type = TypeId::kBool;
  in->children.push_back(x());
  in->children.push_back(k(0));
  in->children.push_back(ten_div_x());
  col = CompiledExpr(*in).Evaluate(EvalInput(*t, all));
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  for (size_t i = 0; i < t->num_rows(); ++i) {
    auto row = EvaluateExpr(*in, *t, i);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*col)->IsNull(i), row->is_null()) << "row " << i;
    if (!row->is_null()) {
      EXPECT_EQ((*col)->BoolAt(i), row->bool_value());
    }
  }
}

// Integer arithmetic fails on overflow instead of wrapping, in both
// evaluators, on columns as on constants.
TEST(VectorizedEvalEdge, IntegerOverflowFails) {
  Schema s;
  s.AddColumn("i", TypeId::kInt64);
  auto t = Table::Make(s);
  t->AppendRow({Value::Int64(1)});
  t->AppendRow({Value::Int64(std::numeric_limits<int64_t>::max())});
  t->AppendRow({Value::Int64(std::numeric_limits<int64_t>::min())});
  auto i = [] { return MakeBoundColumnRef(0, TypeId::kInt64, "i"); };
  auto k = [](int64_t v) { return MakeBoundConstant(Value::Int64(v)); };
  std::vector<BoundExprPtr> overflowing;
  overflowing.push_back(MakeBoundBinary(BinaryOp::kAdd, i(), k(1),
                                        TypeId::kInt64));
  overflowing.push_back(MakeBoundBinary(BinaryOp::kSub, i(), k(2),
                                        TypeId::kInt64));
  overflowing.push_back(MakeBoundBinary(
      BinaryOp::kMul, i(), k(4611686018427387904LL), TypeId::kInt64));
  auto neg = std::make_unique<BoundExpr>();
  neg->kind = BoundExprKind::kUnaryOp;
  neg->unary_op = UnaryOp::kNeg;
  neg->type = TypeId::kInt64;
  neg->children.push_back(i());
  overflowing.push_back(std::move(neg));
  auto abs = std::make_unique<BoundExpr>();
  abs->kind = BoundExprKind::kFunctionCall;
  abs->function = GetScalarFunction("abs");
  abs->function_name = "abs";
  abs->type = TypeId::kInt64;
  abs->children.push_back(i());
  overflowing.push_back(std::move(abs));
  for (const auto& e : overflowing) {
    auto col = CompiledExpr(*e).Evaluate(
        EvalInput(*t, RowSet::Window(0, t->num_rows())));
    ASSERT_FALSE(col.ok()) << e->ToString();
    EXPECT_EQ(col.status().code(), StatusCode::kExecutionError);
    EXPECT_EQ(col.status().message(), "integer overflow");
    bool row_wise_failed = false;
    for (size_t r = 0; r < t->num_rows(); ++r) {
      row_wise_failed |= !EvaluateExpr(*e, *t, r).ok();
    }
    EXPECT_TRUE(row_wise_failed) << e->ToString();
    // Row 0 alone (i = 1) does not overflow.
    EXPECT_TRUE(CompiledExpr(*e)
                    .Evaluate(EvalInput(*t, RowSet::Window(0, 1)))
                    .ok())
        << e->ToString();
  }
}

// One compiled expression is shared read-only by every morsel worker; each
// thread evaluates in its own scratch memory (run under TSan in CI).
TEST(VectorizedEvalEdge, SharedAcrossThreads) {
  fuzz::FuzzRng rng(17);
  TablePtr t = fuzz::RandomExprTable(&rng, 4096);
  for (int k = 0; k < 8; ++k) {
    BoundExprPtr e = fuzz::RandomExpr(&rng, t->schema(), TypeId::kBool, 4);
    const CompiledExpr compiled(*e);
    std::vector<uint32_t> serial;
    const Status serial_status = compiled.Filter(
        EvalInput(*t, RowSet::Window(0, t->num_rows())), &serial);
    std::vector<std::vector<uint32_t>> parts(4);
    std::vector<Status> statuses(4);
    std::vector<std::thread> workers;
    const size_t quarter = t->num_rows() / 4;
    for (size_t w = 0; w < 4; ++w) {
      workers.emplace_back([&, w] {
        statuses[w] = compiled.Filter(
            EvalInput(*t, RowSet::Window(w * quarter, quarter)), &parts[w]);
      });
    }
    for (std::thread& th : workers) th.join();
    bool all_ok = true;
    std::vector<uint32_t> joined;
    for (size_t w = 0; w < 4; ++w) {
      all_ok &= statuses[w].ok();
      // Each worker's positions count from its window's first row.
      for (uint32_t p : parts[w]) {
        joined.push_back(static_cast<uint32_t>(w * quarter) + p);
      }
    }
    EXPECT_EQ(all_ok, serial_status.ok()) << e->ToString();
    if (all_ok && serial_status.ok()) {
      EXPECT_EQ(joined, serial) << e->ToString();
    }
  }
}

}  // namespace
}  // namespace dbspinner
