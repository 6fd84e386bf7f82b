// Unit tests for the bound-expression evaluator, SQL NULL semantics, the
// scalar/aggregate function registries, and null-rejection analysis.

#include <cmath>

#include <gtest/gtest.h>

#include "expr/aggregate_functions.h"
#include "expr/expr.h"
#include "expr/scalar_functions.h"
#include "expr/vector_eval.h"
#include "testing/reference_eval.h"

namespace dbspinner {
namespace {

TablePtr OneRowTable() {
  Schema s;
  s.AddColumn("a", TypeId::kInt64);
  s.AddColumn("b", TypeId::kDouble);
  s.AddColumn("n", TypeId::kInt64);  // null
  auto t = Table::Make(s);
  t->AppendRow({Value::Int64(4), Value::Double(2.5), Value::Null()});
  return t;
}

Value Eval(const BoundExpr& e) {
  auto t = OneRowTable();
  Result<Value> v = EvaluateExpr(e, *t, 0);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return v.ok() ? *v : Value();
}

BoundExprPtr Col(size_t i, TypeId t) { return MakeBoundColumnRef(i, t, "c"); }
BoundExprPtr Lit(Value v) { return MakeBoundConstant(std::move(v)); }

TEST(ExprEvalTest, Arithmetic) {
  auto e = MakeBoundBinary(BinaryOp::kAdd, Col(0, TypeId::kInt64),
                           Lit(Value::Int64(3)), TypeId::kInt64);
  EXPECT_EQ(Eval(*e).int64_value(), 7);

  e = MakeBoundBinary(BinaryOp::kMul, Col(0, TypeId::kInt64),
                      Col(1, TypeId::kDouble), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(Eval(*e).double_value(), 10.0);
}

TEST(ExprEvalTest, NullPropagatesThroughArithmetic) {
  auto e = MakeBoundBinary(BinaryOp::kAdd, Col(0, TypeId::kInt64),
                           Col(2, TypeId::kInt64), TypeId::kInt64);
  EXPECT_TRUE(Eval(*e).is_null());
}

TEST(ExprEvalTest, ThreeValuedAnd) {
  // FALSE AND NULL = FALSE; TRUE AND NULL = NULL.
  auto null_cmp = MakeBoundBinary(BinaryOp::kEq, Col(2, TypeId::kInt64),
                                  Lit(Value::Int64(1)), TypeId::kBool);
  auto e = MakeBoundBinary(BinaryOp::kAnd, Lit(Value::Bool(false)),
                           null_cmp->Clone(), TypeId::kBool);
  EXPECT_FALSE(Eval(*e).is_null());
  EXPECT_FALSE(Eval(*e).bool_value());
  e = MakeBoundBinary(BinaryOp::kAnd, Lit(Value::Bool(true)),
                      null_cmp->Clone(), TypeId::kBool);
  EXPECT_TRUE(Eval(*e).is_null());
}

TEST(ExprEvalTest, ThreeValuedOr) {
  auto null_cmp = MakeBoundBinary(BinaryOp::kEq, Col(2, TypeId::kInt64),
                                  Lit(Value::Int64(1)), TypeId::kBool);
  auto e = MakeBoundBinary(BinaryOp::kOr, Lit(Value::Bool(true)),
                           null_cmp->Clone(), TypeId::kBool);
  EXPECT_TRUE(Eval(*e).bool_value());
  e = MakeBoundBinary(BinaryOp::kOr, Lit(Value::Bool(false)),
                      null_cmp->Clone(), TypeId::kBool);
  EXPECT_TRUE(Eval(*e).is_null());
}

TEST(ExprEvalTest, ComparisonWithNullIsNull) {
  auto e = MakeBoundBinary(BinaryOp::kLt, Col(2, TypeId::kInt64),
                           Lit(Value::Int64(100)), TypeId::kBool);
  EXPECT_TRUE(Eval(*e).is_null());
}

TEST(ExprEvalTest, PredicateTreatsNullAsFalse) {
  auto t = OneRowTable();
  auto e = MakeBoundBinary(BinaryOp::kLt, Col(2, TypeId::kInt64),
                           Lit(Value::Int64(100)), TypeId::kBool);
  std::vector<uint32_t> sel;
  ASSERT_TRUE(CompiledExpr(*e)
                  .Filter(EvalInput(*t, RowSet::Window(0, t->num_rows())), &sel)
                  .ok());
  EXPECT_TRUE(sel.empty());
}

TEST(ExprEvalTest, BatchFastPathSharesColumn) {
  auto t = OneRowTable();
  auto e = Col(0, TypeId::kInt64);
  auto col = CompiledExpr(*e).Evaluate(
      EvalInput(*t, RowSet::Window(0, t->num_rows())));
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->get(), &t->column(0));
}

TEST(ScalarFunctionTest, LeastGreatestIgnoreNulls) {
  const ScalarFunction* least = GetScalarFunction("least");
  ASSERT_NE(least, nullptr);
  Value v = *least->eval({Value::Int64(5), Value::Null(), Value::Int64(2)});
  EXPECT_EQ(v.int64_value(), 2);
  const ScalarFunction* greatest = GetScalarFunction("greatest");
  v = *greatest->eval({Value::Null(), Value::Null()});
  EXPECT_TRUE(v.is_null());
}

TEST(ScalarFunctionTest, Coalesce) {
  const ScalarFunction* fn = GetScalarFunction("coalesce");
  EXPECT_EQ(fn->eval({Value::Null(), Value::Int64(7)})->int64_value(), 7);
  EXPECT_TRUE(fn->eval({Value::Null(), Value::Null()})->is_null());
}

TEST(ScalarFunctionTest, RoundWithDigits) {
  const ScalarFunction* fn = GetScalarFunction("round");
  EXPECT_DOUBLE_EQ(fn->eval({Value::Double(1.23456), Value::Int64(2)})
                       ->double_value(),
                   1.23);
  EXPECT_DOUBLE_EQ(fn->eval({Value::Double(2.5)})->double_value(), 3.0);
}

TEST(ScalarFunctionTest, ModByZeroFails) {
  const ScalarFunction* fn = GetScalarFunction("mod");
  EXPECT_FALSE(fn->eval({Value::Int64(3), Value::Int64(0)}).ok());
}

TEST(ScalarFunctionTest, UnknownFunctionIsNull) {
  EXPECT_EQ(GetScalarFunction("no_such_fn"), nullptr);
}

TEST(ScalarFunctionTest, StringFunctions) {
  EXPECT_EQ(GetScalarFunction("upper")->eval({Value::String("ab")})
                ->string_value(),
            "AB");
  EXPECT_EQ(GetScalarFunction("substr")
                ->eval({Value::String("hello"), Value::Int64(2),
                        Value::Int64(3)})
                ->string_value(),
            "ell");
  EXPECT_EQ(GetScalarFunction("length")->eval({Value::String("abc")})
                ->int64_value(),
            3);
}

TEST(AggregateTest, SumSkipsNullsAndKeepsIntType) {
  AggState s(AggKind::kSum);
  s.Update(Value::Int64(1));
  s.Update(Value::Null());
  s.Update(Value::Int64(2));
  EXPECT_EQ(s.Finalize(TypeId::kInt64)->int64_value(), 3);
}

TEST(AggregateTest, SumOfNothingIsNull) {
  AggState s(AggKind::kSum);
  s.Update(Value::Null());
  EXPECT_TRUE(s.Finalize(TypeId::kInt64)->is_null());
}

TEST(AggregateTest, CountStarCountsNulls) {
  AggState star(AggKind::kCountStar);
  AggState count(AggKind::kCount);
  star.Update(Value::Null());
  count.Update(Value::Null());
  EXPECT_EQ(star.Finalize(TypeId::kInt64)->int64_value(), 1);
  EXPECT_EQ(count.Finalize(TypeId::kInt64)->int64_value(), 0);
}

TEST(AggregateTest, MinMax) {
  AggState mn(AggKind::kMin);
  AggState mx(AggKind::kMax);
  for (int v : {3, 1, 2}) {
    mn.Update(Value::Int64(v));
    mx.Update(Value::Int64(v));
  }
  EXPECT_EQ(mn.Finalize(TypeId::kInt64)->int64_value(), 1);
  EXPECT_EQ(mx.Finalize(TypeId::kInt64)->int64_value(), 3);
}

TEST(AggregateTest, Avg) {
  AggState s(AggKind::kAvg);
  s.Update(Value::Int64(1));
  s.Update(Value::Int64(2));
  EXPECT_DOUBLE_EQ(s.Finalize(TypeId::kDouble)->double_value(), 1.5);
}

TEST(AggregateTest, DistinctFilter) {
  DistinctFilter<int64_t> f;
  EXPECT_TRUE(f.Insert(1));
  EXPECT_FALSE(f.Insert(1));
  EXPECT_TRUE(f.Insert(2));
  // Every NaN is one value, and -0.0 equals 0.0.
  DistinctFilter<double> d;
  EXPECT_TRUE(d.Insert(std::nan("")));
  EXPECT_FALSE(d.Insert(-std::nan("")));
  EXPECT_TRUE(d.Insert(0.0));
  EXPECT_FALSE(d.Insert(-0.0));
  EXPECT_EQ(d.size(), 2u);
}

TEST(AggregateTest, ResolveKinds) {
  EXPECT_EQ(*ResolveAggKind("count", true), AggKind::kCountStar);
  EXPECT_EQ(*ResolveAggKind("SUM", false), AggKind::kSum);
  EXPECT_FALSE(ResolveAggKind("median", false).ok());
  EXPECT_FALSE(ResolveAggKind("sum", true).ok());  // SUM(*) invalid
}

// --- null-rejection analysis (drives outer-join simplification) -------------

TEST(NullRejectionTest, ComparisonRejectsBothSides) {
  auto e = MakeBoundBinary(BinaryOp::kEq, Col(0, TypeId::kInt64),
                           Col(1, TypeId::kDouble), TypeId::kBool);
  std::vector<size_t> nr = NullRejectedColumns(*e);
  EXPECT_EQ(nr, (std::vector<size_t>{0, 1}));
}

TEST(NullRejectionTest, AndUnionsOrIntersects) {
  auto cmp0 = MakeBoundBinary(BinaryOp::kGt, Col(0, TypeId::kInt64),
                              Lit(Value::Int64(0)), TypeId::kBool);
  auto cmp1 = MakeBoundBinary(BinaryOp::kGt, Col(1, TypeId::kDouble),
                              Lit(Value::Int64(0)), TypeId::kBool);
  auto both = MakeBoundBinary(BinaryOp::kAnd, cmp0->Clone(), cmp1->Clone(),
                              TypeId::kBool);
  EXPECT_EQ(NullRejectedColumns(*both), (std::vector<size_t>{0, 1}));
  auto either = MakeBoundBinary(BinaryOp::kOr, cmp0->Clone(), cmp1->Clone(),
                                TypeId::kBool);
  EXPECT_TRUE(NullRejectedColumns(*either).empty());
  auto same = MakeBoundBinary(BinaryOp::kOr, cmp0->Clone(), cmp0->Clone(),
                              TypeId::kBool);
  EXPECT_EQ(NullRejectedColumns(*same), (std::vector<size_t>{0}));
}

TEST(NullRejectionTest, IsNullAndCoalesceRejectNothing) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundExprKind::kIsNull;
  e->type = TypeId::kBool;
  e->children.push_back(Col(0, TypeId::kInt64));
  EXPECT_TRUE(NullRejectedColumns(*e).empty());
}

TEST(ConjunctTest, SplitAndCombine) {
  auto a = MakeBoundBinary(BinaryOp::kGt, Col(0, TypeId::kInt64),
                           Lit(Value::Int64(0)), TypeId::kBool);
  auto b = MakeBoundBinary(BinaryOp::kLt, Col(1, TypeId::kDouble),
                           Lit(Value::Int64(9)), TypeId::kBool);
  auto both = MakeBoundBinary(BinaryOp::kAnd, a->Clone(), b->Clone(),
                              TypeId::kBool);
  std::vector<BoundExprPtr> conjs;
  SplitConjuncts(*both, &conjs);
  ASSERT_EQ(conjs.size(), 2u);
  EXPECT_TRUE(BoundExprEquals(*conjs[0], *a));
  auto recombined = CombineConjuncts(std::move(conjs));
  EXPECT_TRUE(BoundExprEquals(*recombined, *both));
}

TEST(BoundExprTest, RemapAndShift) {
  auto e = MakeBoundBinary(BinaryOp::kAdd, Col(0, TypeId::kInt64),
                           Col(2, TypeId::kInt64), TypeId::kInt64);
  e->RemapColumns({5, 6, 7});
  std::vector<size_t> refs;
  e->CollectColumnRefs(&refs);
  EXPECT_EQ(refs, (std::vector<size_t>{5, 7}));
  e->ShiftColumns(-5);
  refs.clear();
  e->CollectColumnRefs(&refs);
  EXPECT_EQ(refs, (std::vector<size_t>{0, 2}));
  EXPECT_TRUE(e->RefsWithin(0, 3));
  EXPECT_FALSE(e->RefsWithin(1, 3));
}

}  // namespace
}  // namespace dbspinner
