#include "expr/expr.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "expr/scalar_functions.h"

namespace dbspinner {

BoundExprPtr MakeBoundConstant(Value v) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundExprKind::kConstant;
  e->type = v.type();
  e->constant = std::move(v);
  return e;
}

BoundExprPtr MakeBoundColumnRef(size_t index, TypeId type, std::string name) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundExprKind::kColumnRef;
  e->type = type;
  e->column_index = index;
  e->column_name = std::move(name);
  return e;
}

BoundExprPtr MakeBoundBinary(BinaryOp op, BoundExprPtr l, BoundExprPtr r,
                             TypeId type) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundExprKind::kBinaryOp;
  e->binary_op = op;
  e->type = type;
  e->children.push_back(std::move(l));
  e->children.push_back(std::move(r));
  return e;
}

BoundExprPtr BoundExpr::Clone() const {
  auto e = std::make_unique<BoundExpr>();
  e->kind = kind;
  e->type = type;
  e->constant = constant;
  e->column_index = column_index;
  e->column_name = column_name;
  e->binary_op = binary_op;
  e->unary_op = unary_op;
  e->function = function;
  e->function_name = function_name;
  e->cast_type = cast_type;
  e->negated = negated;
  e->case_has_else = case_has_else;
  e->children.reserve(children.size());
  for (const auto& c : children) e->children.push_back(c->Clone());
  return e;
}

std::string BoundExpr::ToString() const {
  switch (kind) {
    case BoundExprKind::kConstant:
      return constant.type() == TypeId::kString
                 ? "'" + constant.ToString() + "'"
                 : constant.ToString();
    case BoundExprKind::kColumnRef:
      return (column_name.empty() ? "col" : column_name) + "#" +
             std::to_string(column_index);
    case BoundExprKind::kBinaryOp:
      return "(" + children[0]->ToString() + " " + BinaryOpName(binary_op) +
             " " + children[1]->ToString() + ")";
    case BoundExprKind::kUnaryOp:
      return std::string(unary_op == UnaryOp::kNeg ? "-" : "NOT ") +
             children[0]->ToString();
    case BoundExprKind::kFunctionCall: {
      std::string out = function_name + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case BoundExprKind::kCase: {
      std::string out = "CASE";
      size_t pairs = children.size() / 2;
      for (size_t i = 0; i < pairs; ++i) {
        out += " WHEN " + children[2 * i]->ToString() + " THEN " +
               children[2 * i + 1]->ToString();
      }
      if (case_has_else) out += " ELSE " + children.back()->ToString();
      return out + " END";
    }
    case BoundExprKind::kCast:
      return "CAST(" + children[0]->ToString() + " AS " +
             TypeName(cast_type) + ")";
    case BoundExprKind::kIsNull:
      return children[0]->ToString() + (negated ? " IS NOT NULL" : " IS NULL");
    case BoundExprKind::kIn: {
      std::string out = children[0]->ToString();
      out += negated ? " NOT IN (" : " IN (";
      for (size_t i = 1; i < children.size(); ++i) {
        if (i > 1) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case BoundExprKind::kBetween:
      return children[0]->ToString() + " BETWEEN " + children[1]->ToString() +
             " AND " + children[2]->ToString();
    case BoundExprKind::kLike:
      return children[0]->ToString() + (negated ? " NOT LIKE " : " LIKE ") +
             children[1]->ToString();
  }
  return "?";
}

bool BoundExpr::HasColumnRef() const {
  if (kind == BoundExprKind::kColumnRef) return true;
  for (const auto& c : children) {
    if (c->HasColumnRef()) return true;
  }
  return false;
}

void BoundExpr::CollectColumnRefs(std::vector<size_t>* out) const {
  if (kind == BoundExprKind::kColumnRef) out->push_back(column_index);
  for (const auto& c : children) c->CollectColumnRefs(out);
}

bool BoundExpr::RefsWithin(size_t lo, size_t hi) const {
  if (kind == BoundExprKind::kColumnRef) {
    return column_index >= lo && column_index < hi;
  }
  for (const auto& c : children) {
    if (!c->RefsWithin(lo, hi)) return false;
  }
  return true;
}

void BoundExpr::RemapColumns(const std::vector<size_t>& mapping) {
  if (kind == BoundExprKind::kColumnRef) {
    column_index = mapping[column_index];
  }
  for (auto& c : children) c->RemapColumns(mapping);
}

void BoundExpr::ShiftColumns(int64_t delta) {
  if (kind == BoundExprKind::kColumnRef) {
    column_index = static_cast<size_t>(
        static_cast<int64_t>(column_index) + delta);
  }
  for (auto& c : children) c->ShiftColumns(delta);
}

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

// Matches left to right; on a mismatch, backtracks to the last % and lets
// it absorb one more character.
bool LikeMatch(const std::string& s, const std::string& p) {
  size_t si = 0, pi = 0;
  size_t star_p = std::string::npos, star_s = 0;
  while (si < s.size()) {
    if (pi < p.size() && (p[pi] == '_' || p[pi] == s[si])) {
      ++si;
      ++pi;
    } else if (pi < p.size() && p[pi] == '%') {
      star_p = pi++;
      star_s = si;
    } else if (star_p != std::string::npos) {
      pi = star_p + 1;
      si = ++star_s;
    } else {
      return false;
    }
  }
  while (pi < p.size() && p[pi] == '%') ++pi;
  return pi == p.size();
}

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

bool BoundExprEquals(const BoundExpr& a, const BoundExpr& b) {
  if (a.kind != b.kind || a.type != b.type) return false;
  if (a.children.size() != b.children.size()) return false;
  switch (a.kind) {
    case BoundExprKind::kConstant:
      if (!(a.constant.is_null() && b.constant.is_null()) &&
          !a.constant.Equals(b.constant)) {
        return false;
      }
      break;
    case BoundExprKind::kColumnRef:
      if (a.column_index != b.column_index) return false;
      break;
    case BoundExprKind::kBinaryOp:
      if (a.binary_op != b.binary_op) return false;
      break;
    case BoundExprKind::kUnaryOp:
      if (a.unary_op != b.unary_op) return false;
      break;
    case BoundExprKind::kFunctionCall:
      if (a.function_name != b.function_name) return false;
      break;
    case BoundExprKind::kCast:
      if (a.cast_type != b.cast_type) return false;
      break;
    case BoundExprKind::kIsNull:
    case BoundExprKind::kIn:
    case BoundExprKind::kLike:
      if (a.negated != b.negated) return false;
      break;
    case BoundExprKind::kCase:
      if (a.case_has_else != b.case_has_else) return false;
      break;
    case BoundExprKind::kBetween:
      break;
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!BoundExprEquals(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

namespace {

// Collects the strict column set: columns where a NULL input forces the
// expression to NULL.
void StrictColumns(const BoundExpr& e, std::vector<size_t>* out) {
  switch (e.kind) {
    case BoundExprKind::kColumnRef:
      out->push_back(e.column_index);
      return;
    case BoundExprKind::kConstant:
      return;
    case BoundExprKind::kBinaryOp:
      switch (e.binary_op) {
        case BinaryOp::kAnd: {
          // A NULL that nulls either side makes AND at-most-NULL (not TRUE):
          // union is valid for null-rejection purposes.
          StrictColumns(*e.children[0], out);
          StrictColumns(*e.children[1], out);
          return;
        }
        case BinaryOp::kOr: {
          std::vector<size_t> l, r;
          StrictColumns(*e.children[0], &l);
          StrictColumns(*e.children[1], &r);
          std::sort(l.begin(), l.end());
          std::sort(r.begin(), r.end());
          std::vector<size_t> both;
          std::set_intersection(l.begin(), l.end(), r.begin(), r.end(),
                                std::back_inserter(both));
          out->insert(out->end(), both.begin(), both.end());
          return;
        }
        default:
          // Arithmetic and comparisons are strict in both operands.
          StrictColumns(*e.children[0], out);
          StrictColumns(*e.children[1], out);
          return;
      }
    case BoundExprKind::kUnaryOp:
      StrictColumns(*e.children[0], out);
      return;
    case BoundExprKind::kCast:
      StrictColumns(*e.children[0], out);
      return;
    case BoundExprKind::kBetween:
    case BoundExprKind::kLike:
      for (const auto& c : e.children) StrictColumns(*c, out);
      return;
    case BoundExprKind::kFunctionCall:
    case BoundExprKind::kCase:
    case BoundExprKind::kIsNull:
    case BoundExprKind::kIn:
      // COALESCE/CASE/IS NULL and general functions may map NULL to non-NULL:
      // conservatively contribute nothing.
      return;
  }
}

}  // namespace

std::vector<size_t> NullRejectedColumns(const BoundExpr& expr) {
  std::vector<size_t> out;
  StrictColumns(expr, &out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void SplitConjuncts(const BoundExpr& expr, std::vector<BoundExprPtr>* out) {
  if (expr.kind == BoundExprKind::kBinaryOp &&
      expr.binary_op == BinaryOp::kAnd) {
    SplitConjuncts(*expr.children[0], out);
    SplitConjuncts(*expr.children[1], out);
    return;
  }
  out->push_back(expr.Clone());
}

BoundExprPtr CombineConjuncts(std::vector<BoundExprPtr> conjuncts) {
  if (conjuncts.empty()) return MakeBoundConstant(Value::Bool(true));
  BoundExprPtr out = std::move(conjuncts[0]);
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    out = MakeBoundBinary(BinaryOp::kAnd, std::move(out),
                          std::move(conjuncts[i]), TypeId::kBool);
  }
  return out;
}

}  // namespace dbspinner
