// Constant folding and boolean simplification.

#include "expr/vector_eval.h"
#include "optimizer/optimizer.h"

namespace dbspinner {

namespace {

bool IsConstTrue(const BoundExpr& e) {
  return e.kind == BoundExprKind::kConstant && !e.constant.is_null() &&
         e.constant.type() == TypeId::kBool && e.constant.bool_value();
}
bool IsConstFalseOrNull(const BoundExpr& e) {
  if (e.kind != BoundExprKind::kConstant) return false;
  if (e.constant.is_null()) return true;
  return e.constant.type() == TypeId::kBool && !e.constant.bool_value();
}

// Folds one expression tree bottom-up. Returns the (possibly replaced) node.
BoundExprPtr FoldExpr(BoundExprPtr expr) {
  for (auto& c : expr->children) c = FoldExpr(std::move(c));

  // Boolean shortcuts keep partially-constant predicates cheap.
  if (expr->kind == BoundExprKind::kBinaryOp) {
    if (expr->binary_op == BinaryOp::kAnd) {
      if (IsConstTrue(*expr->children[0])) return std::move(expr->children[1]);
      if (IsConstTrue(*expr->children[1])) return std::move(expr->children[0]);
      if (IsConstFalseOrNull(*expr->children[0]) &&
          !expr->children[0]->constant.is_null()) {
        return MakeBoundConstant(Value::Bool(false));
      }
      if (IsConstFalseOrNull(*expr->children[1]) &&
          !expr->children[1]->constant.is_null()) {
        return MakeBoundConstant(Value::Bool(false));
      }
    } else if (expr->binary_op == BinaryOp::kOr) {
      if (IsConstTrue(*expr->children[0]) || IsConstTrue(*expr->children[1])) {
        return MakeBoundConstant(Value::Bool(true));
      }
      if (expr->children[0]->kind == BoundExprKind::kConstant &&
          !expr->children[0]->constant.is_null() &&
          !expr->children[0]->constant.bool_value()) {
        return std::move(expr->children[1]);
      }
      if (expr->children[1]->kind == BoundExprKind::kConstant &&
          !expr->children[1]->constant.is_null() &&
          !expr->children[1]->constant.bool_value()) {
        return std::move(expr->children[0]);
      }
    }
  }

  if (expr->kind == BoundExprKind::kConstant ||
      expr->kind == BoundExprKind::kColumnRef || expr->HasColumnRef()) {
    return expr;
  }
  // Pure-constant subtree: evaluate once. Evaluation errors (e.g. division
  // by zero) are deferred to runtime by leaving the node unfolded.
  Result<Value> v = EvaluateConstant(*expr);
  if (!v.ok()) return expr;
  Result<Value> cast = v->CastTo(expr->type);
  if (!cast.ok()) return expr;
  return MakeBoundConstant(std::move(cast).value());
}

void FoldAllExprs(LogicalOp* op) {
  if (op->predicate) op->predicate = FoldExpr(std::move(op->predicate));
  for (auto& p : op->projections) p = FoldExpr(std::move(p));
  if (op->join_condition) {
    op->join_condition = FoldExpr(std::move(op->join_condition));
  }
  for (auto& g : op->group_exprs) g = FoldExpr(std::move(g));
  for (auto& a : op->aggregates) {
    if (a.arg) a.arg = FoldExpr(std::move(a.arg));
  }
  for (auto& k : op->sort_keys) k.expr = FoldExpr(std::move(k.expr));
}

void FoldPlan(LogicalOpPtr* plan) {
  for (auto& c : (*plan)->children) FoldPlan(&c);
  FoldAllExprs(plan->get());

  LogicalOp* op = plan->get();
  if (op->kind == LogicalOpKind::kFilter) {
    if (IsConstTrue(*op->predicate)) {
      *plan = std::move(op->children[0]);
      return;
    }
    if (IsConstFalseOrNull(*op->predicate)) {
      // Replace with an empty relation of the same schema.
      auto empty = std::make_unique<LogicalOp>();
      empty->kind = LogicalOpKind::kValues;
      empty->output_schema = op->output_schema;
      *plan = std::move(empty);
      return;
    }
  }
}

}  // namespace

Status ConstantFold(LogicalOpPtr* plan) {
  FoldPlan(plan);
  return Status::OK();
}

}  // namespace dbspinner
