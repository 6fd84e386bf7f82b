// Property tests: the vectorized numeric kernels in EvaluateExprBatch /
// EvaluatePredicate and the pipeline's chunk kernels (ChunkFilter /
// ChunkProjector) must agree with the row-wise evaluator for every
// operator, type mix, and NULL placement (TEST_P sweep).

#include <gtest/gtest.h>

#include <random>

#include "exec/pipeline_kernels.h"
#include "expr/expr.h"

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

  auto batch = EvaluateExprBatch(*expr, *input);
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

  auto sel = EvaluatePredicate(*expr, *input);
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

// The chunk kernels run over a chunk's view of its base table: a
// contiguous window, or an absolute selection vector. Chunks are short
// (7 rows), so some hold no NULL and run the filter kernels to completion
// while the rest take the row-wise fallback.
TEST_P(VectorizedEvalTest, ChunkKernelsMatchRowWise) {
  const Case& c = GetParam();
  TablePtr input = MakeInput(13 + static_cast<uint64_t>(c.op), c.left_int,
                             c.right_int);
  std::vector<BoundExprPtr> exprs;
  exprs.push_back(MakeExpr(c));
  const BoundExpr& expr = *exprs[0];
  Schema out_schema;
  out_schema.AddColumn("x", expr.type);
  ChunkProjector projector(&exprs, &out_schema);
  ChunkFilter filter(&expr);
  KernelCounters counters;

  size_t null_free_chunks = 0;
  for (size_t begin = 0; begin + 14 <= input->num_rows(); begin += 14) {
    DataChunk selected(input, begin, 14);
    std::vector<uint32_t> odd;
    for (uint32_t r = 1; r < 14; r += 2) {
      odd.push_back(static_cast<uint32_t>(begin) + r);
    }
    selected.SetSelection(odd);
    for (const DataChunk& chunk : {DataChunk(input, begin, 7), selected}) {
      bool has_null = false;
      std::vector<uint32_t> want_rows;
      auto projected = projector.Apply(chunk, &counters);
      ASSERT_TRUE(projected.ok()) << projected.status().ToString();
      ASSERT_EQ(projected->size(), chunk.size());
      for (size_t i = 0; i < chunk.size(); ++i) {
        uint32_t row = chunk.RowAt(i);
        has_null = has_null || input->column(0).IsNull(row) ||
                   input->column(1).IsNull(row);
        auto want = EvaluateExpr(expr, *input, row);
        ASSERT_TRUE(want.ok());
        Value got = projected->table().GetValue(projected->RowAt(i), 0);
        ASSERT_EQ(got.is_null(), want->is_null()) << "row " << row;
        if (!want->is_null()) {
          EXPECT_TRUE(got.Equals(*want))
              << "row " << row << ": " << got.ToString() << " vs "
              << want->ToString();
          if (IsCmp(c.op) && want->bool_value()) want_rows.push_back(row);
        }
      }
      if (!has_null) ++null_free_chunks;
      if (!IsCmp(c.op)) continue;
      DataChunk filtered = chunk;
      ASSERT_TRUE(filter.Apply(&filtered, &counters).ok());
      std::vector<uint32_t> got_rows;
      for (size_t i = 0; i < filtered.size(); ++i) {
        got_rows.push_back(filtered.RowAt(i));
      }
      EXPECT_EQ(got_rows, want_rows) << "chunk at row " << chunk.RowAt(0);
    }
  }
  EXPECT_GT(null_free_chunks, 0u);
  if (IsCmp(c.op)) {
    EXPECT_TRUE(filter.has_kernels());
  }
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
  auto batch = EvaluateExprBatch(*expr, *t);
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
  auto batch = EvaluateExprBatch(*expr, *t);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kExecutionError);
}

}  // namespace
}  // namespace dbspinner
