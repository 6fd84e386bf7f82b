#include "expr/expr.h"

#include <algorithm>

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
