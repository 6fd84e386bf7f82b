#include "testing/reference_eval.h"

#include <cmath>
#include <limits>

#include "expr/scalar_functions.h"

namespace dbspinner {

namespace {

Result<Value> EvalBinary(const BoundExpr& e, const Value& l, const Value& r) {
  BinaryOp op = e.binary_op;
  // Three-valued logic for AND/OR.
  if (op == BinaryOp::kAnd) {
    if (!l.is_null() && !l.bool_value()) return Value::Bool(false);
    if (!r.is_null() && !r.bool_value()) return Value::Bool(false);
    if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
    return Value::Bool(true);
  }
  if (op == BinaryOp::kOr) {
    if (!l.is_null() && l.bool_value()) return Value::Bool(true);
    if (!r.is_null() && r.bool_value()) return Value::Bool(true);
    if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
    return Value::Bool(false);
  }
  if (l.is_null() || r.is_null()) return Value::Null(e.type);
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul: {
      if (l.type() == TypeId::kInt64 && r.type() == TypeId::kInt64) {
        int64_t a = l.int64_value();
        int64_t b = r.int64_value();
        int64_t v = 0;
        const bool overflow =
            op == BinaryOp::kAdd   ? __builtin_add_overflow(a, b, &v)
            : op == BinaryOp::kSub ? __builtin_sub_overflow(a, b, &v)
                                   : __builtin_mul_overflow(a, b, &v);
        if (overflow) return Status::ExecutionError("integer overflow");
        return Value::Int64(v);
      }
      double a = l.AsDouble();
      double b = r.AsDouble();
      switch (op) {
        case BinaryOp::kAdd:
          return Value::Double(a + b);
        case BinaryOp::kSub:
          return Value::Double(a - b);
        default:
          return Value::Double(a * b);
      }
    }
    case BinaryOp::kDiv:
      if (l.type() == TypeId::kInt64 && r.type() == TypeId::kInt64) {
        if (r.int64_value() == 0) {
          return Status::ExecutionError("division by zero");
        }
        // INT64_MIN / -1 is the one quotient that does not fit (and traps).
        if (r.int64_value() == -1 &&
            l.int64_value() == std::numeric_limits<int64_t>::min()) {
          return Status::ExecutionError("integer overflow");
        }
        return Value::Int64(l.int64_value() / r.int64_value());
      }
      if (r.AsDouble() == 0) {
        return Status::ExecutionError("division by zero");
      }
      return Value::Double(l.AsDouble() / r.AsDouble());
    case BinaryOp::kMod:
      if (l.type() == TypeId::kInt64 && r.type() == TypeId::kInt64) {
        if (r.int64_value() == 0) {
          return Status::ExecutionError("modulo by zero");
        }
        // x % -1 is 0 for every x, as in PostgreSQL; computing it for
        // INT64_MIN traps like the overflowing quotient.
        if (r.int64_value() == -1) return Value::Int64(0);
        return Value::Int64(l.int64_value() % r.int64_value());
      }
      if (r.AsDouble() == 0) {
        return Status::ExecutionError("modulo by zero");
      }
      return Value::Double(std::fmod(l.AsDouble(), r.AsDouble()));
    case BinaryOp::kEq:
      return Value::Bool(l.Equals(r));
    case BinaryOp::kNe:
      return Value::Bool(!l.Equals(r));
    case BinaryOp::kLt:
      return Value::Bool(l.Compare(r) < 0);
    case BinaryOp::kLe:
      return Value::Bool(l.Compare(r) <= 0);
    case BinaryOp::kGt:
      return Value::Bool(l.Compare(r) > 0);
    case BinaryOp::kGe:
      return Value::Bool(l.Compare(r) >= 0);
    case BinaryOp::kConcat:
      return Value::String(l.ToString() + r.ToString());
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      break;
  }
  return Status::Internal("unhandled binary operator");
}

}  // namespace

Result<Value> EvaluateExpr(const BoundExpr& expr, const Table& input,
                           size_t row) {
  switch (expr.kind) {
    case BoundExprKind::kConstant:
      return expr.constant;
    case BoundExprKind::kColumnRef: {
      Value v = input.column(expr.column_index).GetValue(row);
      if (v.is_null() || v.type() == expr.type) return v;
      return v.CastTo(expr.type);
    }
    case BoundExprKind::kBinaryOp: {
      // Short-circuit AND/OR where a definite answer exists.
      if (expr.binary_op == BinaryOp::kAnd || expr.binary_op == BinaryOp::kOr) {
        DBSP_ASSIGN_OR_RETURN(Value l,
                              EvaluateExpr(*expr.children[0], input, row));
        if (expr.binary_op == BinaryOp::kAnd && !l.is_null() &&
            !l.bool_value()) {
          return Value::Bool(false);
        }
        if (expr.binary_op == BinaryOp::kOr && !l.is_null() && l.bool_value()) {
          return Value::Bool(true);
        }
        DBSP_ASSIGN_OR_RETURN(Value r,
                              EvaluateExpr(*expr.children[1], input, row));
        return EvalBinary(expr, l, r);
      }
      DBSP_ASSIGN_OR_RETURN(Value l,
                            EvaluateExpr(*expr.children[0], input, row));
      DBSP_ASSIGN_OR_RETURN(Value r,
                            EvaluateExpr(*expr.children[1], input, row));
      return EvalBinary(expr, l, r);
    }
    case BoundExprKind::kUnaryOp: {
      DBSP_ASSIGN_OR_RETURN(Value v,
                            EvaluateExpr(*expr.children[0], input, row));
      if (v.is_null()) return Value::Null(expr.type);
      if (expr.unary_op == UnaryOp::kNeg) {
        if (v.type() == TypeId::kInt64) {
          if (v.int64_value() == std::numeric_limits<int64_t>::min()) {
            return Status::ExecutionError("integer overflow");
          }
          return Value::Int64(-v.int64_value());
        }
        return Value::Double(-v.AsDouble());
      }
      return Value::Bool(!v.bool_value());
    }
    case BoundExprKind::kFunctionCall: {
      std::vector<Value> args;
      args.reserve(expr.children.size());
      for (const auto& c : expr.children) {
        DBSP_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*c, input, row));
        args.push_back(std::move(v));
      }
      DBSP_ASSIGN_OR_RETURN(Value v, expr.function->eval(args));
      if (v.is_null() || v.type() == expr.type || expr.type == TypeId::kNull) {
        return v;
      }
      return v.CastTo(expr.type);
    }
    case BoundExprKind::kCase: {
      size_t pairs = expr.children.size() / 2;
      for (size_t i = 0; i < pairs; ++i) {
        DBSP_ASSIGN_OR_RETURN(Value cond,
                              EvaluateExpr(*expr.children[2 * i], input, row));
        if (!cond.is_null() && cond.bool_value()) {
          DBSP_ASSIGN_OR_RETURN(
              Value v, EvaluateExpr(*expr.children[2 * i + 1], input, row));
          return v.CastTo(expr.type);
        }
      }
      if (expr.case_has_else) {
        DBSP_ASSIGN_OR_RETURN(Value v,
                              EvaluateExpr(*expr.children.back(), input, row));
        return v.CastTo(expr.type);
      }
      return Value::Null(expr.type);
    }
    case BoundExprKind::kCast: {
      DBSP_ASSIGN_OR_RETURN(Value v,
                            EvaluateExpr(*expr.children[0], input, row));
      return v.CastTo(expr.cast_type);
    }
    case BoundExprKind::kIsNull: {
      DBSP_ASSIGN_OR_RETURN(Value v,
                            EvaluateExpr(*expr.children[0], input, row));
      return Value::Bool(expr.negated ? !v.is_null() : v.is_null());
    }
    case BoundExprKind::kIn: {
      DBSP_ASSIGN_OR_RETURN(Value v,
                            EvaluateExpr(*expr.children[0], input, row));
      if (v.is_null()) return Value::Null(TypeId::kBool);
      bool any_null = false;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        DBSP_ASSIGN_OR_RETURN(Value item,
                              EvaluateExpr(*expr.children[i], input, row));
        if (item.is_null()) {
          any_null = true;
          continue;
        }
        if (v.Equals(item)) return Value::Bool(!expr.negated);
      }
      if (any_null) return Value::Null(TypeId::kBool);
      return Value::Bool(expr.negated);
    }
    case BoundExprKind::kBetween: {
      DBSP_ASSIGN_OR_RETURN(Value v,
                            EvaluateExpr(*expr.children[0], input, row));
      DBSP_ASSIGN_OR_RETURN(Value lo,
                            EvaluateExpr(*expr.children[1], input, row));
      DBSP_ASSIGN_OR_RETURN(Value hi,
                            EvaluateExpr(*expr.children[2], input, row));
      if (v.is_null() || lo.is_null() || hi.is_null()) {
        return Value::Null(TypeId::kBool);
      }
      return Value::Bool(v.Compare(lo) >= 0 && v.Compare(hi) <= 0);
    }
    case BoundExprKind::kLike: {
      DBSP_ASSIGN_OR_RETURN(Value v,
                            EvaluateExpr(*expr.children[0], input, row));
      DBSP_ASSIGN_OR_RETURN(Value p,
                            EvaluateExpr(*expr.children[1], input, row));
      if (v.is_null() || p.is_null()) return Value::Null(TypeId::kBool);
      bool match = LikeMatch(v.ToString(), p.ToString());
      return Value::Bool(expr.negated ? !match : match);
    }
  }
  return Status::Internal("unhandled expression kind");
}

void AggState::Update(const Value& v) {
  switch (kind_) {
    case AggKind::kCountStar:
      ++count_;
      return;
    case AggKind::kCount:
      if (!v.is_null()) ++count_;
      return;
    case AggKind::kSum:
    case AggKind::kAvg:
    case AggKind::kStdDev:
    case AggKind::kVariance:
      if (v.is_null()) return;
      has_value_ = true;
      ++count_;
      if (v.type() != TypeId::kInt64) {
        all_int_ = false;
      } else if (kind_ == AggKind::kSum) {
        AddToIntSum(&isum_, v.int64_value());
      }
      AddToSum(&sum_, v.AsDouble());
      AddToSumOfSquares(&sum_squares_, v.AsDouble());
      return;
    case AggKind::kMin:
    case AggKind::kMax:
      if (v.is_null()) return;
      if (!has_value_ || ReplacesExtreme(kind_, v, extreme_)) {
        extreme_ = v;
        has_value_ = true;
      }
      return;
  }
}

Result<Value> AggState::Finalize(TypeId result_type) const {
  switch (kind_) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return Value::Int64(count_);
    case AggKind::kSum:
      if (!has_value_) return Value::Null(result_type);
      if (result_type == TypeId::kInt64 && all_int_) {
        DBSP_ASSIGN_OR_RETURN(int64_t sum, IntSumResult(isum_));
        return Value::Int64(sum);
      }
      return Value::Double(sum_);
    case AggKind::kAvg:
      if (!has_value_) return Value::Null(TypeId::kDouble);
      return Value::Double(sum_ / static_cast<double>(count_));
    case AggKind::kStdDev:
    case AggKind::kVariance: {
      // Sample statistics (n - 1); NULL for fewer than two inputs.
      if (count_ < 2) return Value::Null(TypeId::kDouble);
      double variance = SampleVariance(count_, sum_, sum_squares_);
      return Value::Double(kind_ == AggKind::kVariance
                               ? variance
                               : std::sqrt(variance));
    }
    case AggKind::kMin:
    case AggKind::kMax:
      if (!has_value_) return Value::Null(result_type);
      return extreme_;
  }
  return Value::Null();
}

bool AggState::Retract(const Value& v) {
  switch (kind_) {
    case AggKind::kCountStar:
      if (count_ == 0) return false;
      --count_;
      return true;
    case AggKind::kCount:
      if (v.is_null()) return true;
      if (count_ == 0) return false;
      --count_;
      return true;
    case AggKind::kSum:
    case AggKind::kAvg:
    case AggKind::kStdDev:
    case AggKind::kVariance:
      if (v.is_null()) return true;
      if (count_ == 0) return false;
      if (v.type() == TypeId::kInt64 && kind_ == AggKind::kSum) {
        isum_ -= v.int64_value();
      }
      --count_;
      sum_ -= v.AsDouble();
      sum_squares_ -= v.AsDouble() * v.AsDouble();
      if (count_ == 0) {
        // Reset exactly so integer SUMs stay drift-free across full
        // retraction cycles (and NULL is reported again).
        has_value_ = false;
        sum_ = 0;
        sum_squares_ = 0;
        isum_ = 0;
        all_int_ = true;
      }
      return true;
    case AggKind::kMin:
    case AggKind::kMax: {
      if (v.is_null()) return true;
      if (!has_value_) return false;
      // Retracting a value that ties or beats the running extreme may expose
      // a different survivor we never kept; only strictly-dominated values
      // can leave without a recompute.
      int c = CompareScalars(v, extreme_);
      return kind_ == AggKind::kMin ? c > 0 : c < 0;
    }
  }
  return false;
}

void AggState::MergeFrom(const AggState& other) {
  switch (kind_) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      count_ += other.count_;
      return;
    case AggKind::kSum:
    case AggKind::kAvg:
    case AggKind::kStdDev:
    case AggKind::kVariance:
      isum_ += other.isum_;
      count_ += other.count_;
      sum_ += other.sum_;
      sum_squares_ += other.sum_squares_;
      all_int_ = all_int_ && other.all_int_;
      has_value_ = has_value_ || other.has_value_;
      return;
    case AggKind::kMin:
    case AggKind::kMax:
      if (other.has_value_) Update(other.extreme_);
      return;
  }
}

}  // namespace dbspinner
