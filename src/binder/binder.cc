#include "binder/binder.h"

#include "common/string_util.h"
#include "expr/scalar_functions.h"

namespace dbspinner {

namespace {

// Derives an output column name for a select item without an alias.
std::string DeriveItemName(const ParseExpr& expr, size_t ordinal) {
  switch (expr.kind) {
    case ParseExprKind::kColumnRef:
      return expr.column_name;
    case ParseExprKind::kFunctionCall:
      return expr.function_name;
    default:
      return "col" + std::to_string(ordinal);
  }
}

Result<TypeId> InferBinaryType(BinaryOp op, TypeId l, TypeId r) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
      return CommonNumericType(l, r);
    case BinaryOp::kDiv:
    case BinaryOp::kMod: {
      DBSP_ASSIGN_OR_RETURN(TypeId common, CommonNumericType(l, r));
      return common;
    }
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      if ((IsNumeric(l) && IsNumeric(r)) || l == r || l == TypeId::kNull ||
          r == TypeId::kNull) {
        return TypeId::kBool;
      }
      return Status::TypeError(std::string("cannot compare ") + TypeName(l) +
                               " with " + TypeName(r));
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      if ((l == TypeId::kBool || l == TypeId::kNull) &&
          (r == TypeId::kBool || r == TypeId::kNull)) {
        return TypeId::kBool;
      }
      return Status::TypeError("AND/OR expect boolean operands");
    case BinaryOp::kConcat:
      return TypeId::kString;
  }
  return Status::Internal("unhandled binary op");
}

// Removes table qualifiers from every column reference in the tree.
void StripQualifiers(ParseExpr* expr) {
  if (expr->kind == ParseExprKind::kColumnRef) expr->qualifier.clear();
  for (auto& c : expr->children) StripQualifiers(c.get());
}

}  // namespace

bool ContainsAggregate(const ParseExpr& expr) {
  if (expr.kind == ParseExprKind::kFunctionCall &&
      IsAggregateFunctionName(expr.function_name)) {
    return true;
  }
  for (const auto& c : expr.children) {
    if (ContainsAggregate(*c)) return true;
  }
  return false;
}

bool ParseExprEquals(const ParseExpr& a, const ParseExpr& b) {
  if (a.kind != b.kind) return false;
  if (a.children.size() != b.children.size()) return false;
  switch (a.kind) {
    case ParseExprKind::kLiteral:
      if (!(a.literal.is_null() && b.literal.is_null()) &&
          !a.literal.Equals(b.literal)) {
        return false;
      }
      break;
    case ParseExprKind::kColumnRef:
      // A qualified and an unqualified reference to the same column are
      // treated as distinct here; binding decides actual identity. GROUP BY
      // matching therefore requires consistent spelling, like most engines.
      if (a.qualifier != b.qualifier || a.column_name != b.column_name) {
        return false;
      }
      break;
    case ParseExprKind::kBinaryOp:
      if (a.binary_op != b.binary_op) return false;
      break;
    case ParseExprKind::kUnaryOp:
      if (a.unary_op != b.unary_op) return false;
      break;
    case ParseExprKind::kFunctionCall:
      if (a.function_name != b.function_name || a.distinct != b.distinct) {
        return false;
      }
      break;
    case ParseExprKind::kCast:
      if (a.cast_type != b.cast_type) return false;
      break;
    case ParseExprKind::kIsNull:
    case ParseExprKind::kIn:
    case ParseExprKind::kLike:
      if (a.negated != b.negated) return false;
      break;
    case ParseExprKind::kCase:
      if (a.case_has_else != b.case_has_else) return false;
      break;
    case ParseExprKind::kStar:
      if (a.qualifier != b.qualifier) return false;
      break;
    case ParseExprKind::kBetween:
      break;
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!ParseExprEquals(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

LogicalOpPtr MakeCastProject(LogicalOpPtr plan, const Schema& target) {
  bool same = plan->output_schema.num_columns() == target.num_columns();
  if (same) {
    for (size_t i = 0; i < target.num_columns(); ++i) {
      if (plan->output_schema.column(i).type != target.column(i).type ||
          plan->output_schema.column(i).name != target.column(i).name) {
        same = false;
        break;
      }
    }
  }
  if (same) return plan;
  std::vector<BoundExprPtr> projections;
  std::vector<std::string> names;
  for (size_t i = 0; i < target.num_columns(); ++i) {
    TypeId from = plan->output_schema.column(i).type;
    TypeId to = target.column(i).type;
    BoundExprPtr ref =
        MakeBoundColumnRef(i, from, plan->output_schema.column(i).name);
    if (from != to) {
      auto cast = std::make_unique<BoundExpr>();
      cast->kind = BoundExprKind::kCast;
      cast->type = to;
      cast->cast_type = to;
      cast->children.push_back(std::move(ref));
      ref = std::move(cast);
    }
    projections.push_back(std::move(ref));
    names.push_back(target.column(i).name);
  }
  return MakeProject(std::move(projections), std::move(names),
                     std::move(plan));
}

void Binder::AddCte(const std::string& name, CteBinding binding) {
  ctes_[ToLower(name)] = std::move(binding);
}

void Binder::RemoveCte(const std::string& name) { ctes_.erase(ToLower(name)); }

bool Binder::HasCte(const std::string& name) const {
  return ctes_.count(ToLower(name)) > 0;
}

Result<BoundExprPtr> Binder::ResolveColumn(const std::string& qualifier,
                                           const std::string& name,
                                           const BindContext& ctx) {
  std::string q = ToLower(qualifier);
  std::string col = ToLower(name);
  const ScopeEntry* found_entry = nullptr;
  size_t found_index = 0;
  for (const auto& entry : ctx.entries) {
    if (!q.empty()) {
      // An alias shadows the table name.
      const std::string& label =
          entry.alias.empty() ? entry.table_name : entry.alias;
      if (label != q) continue;
    }
    for (size_t i = entry.start; i < entry.start + entry.count; ++i) {
      if (ctx.schema.column(i).name == col) {
        if (found_entry != nullptr) {
          return Status::BindError("column reference '" +
                                   (q.empty() ? col : q + "." + col) +
                                   "' is ambiguous");
        }
        found_entry = &entry;
        found_index = i;
        // Within one scope the first match wins (duplicated names inside a
        // derived table are positional artifacts).
        break;
      }
    }
  }
  if (found_entry == nullptr) {
    return Status::BindError("column '" + (q.empty() ? col : q + "." + col) +
                             "' does not exist");
  }
  return MakeBoundColumnRef(found_index, ctx.schema.column(found_index).type,
                            col);
}

Result<BoundExprPtr> Binder::BindScalarExpr(const ParseExpr& expr,
                                            const BindContext& ctx) {
  switch (expr.kind) {
    case ParseExprKind::kLiteral:
      return MakeBoundConstant(expr.literal);
    case ParseExprKind::kColumnRef:
      return ResolveColumn(expr.qualifier, expr.column_name, ctx);
    case ParseExprKind::kStar:
      return Status::BindError("'*' is not valid in this context");
    case ParseExprKind::kBinaryOp: {
      DBSP_ASSIGN_OR_RETURN(BoundExprPtr l,
                            BindScalarExpr(*expr.children[0], ctx));
      DBSP_ASSIGN_OR_RETURN(BoundExprPtr r,
                            BindScalarExpr(*expr.children[1], ctx));
      DBSP_ASSIGN_OR_RETURN(TypeId type,
                            InferBinaryType(expr.binary_op, l->type, r->type));
      return MakeBoundBinary(expr.binary_op, std::move(l), std::move(r), type);
    }
    case ParseExprKind::kUnaryOp: {
      DBSP_ASSIGN_OR_RETURN(BoundExprPtr operand,
                            BindScalarExpr(*expr.children[0], ctx));
      auto out = std::make_unique<BoundExpr>();
      out->kind = BoundExprKind::kUnaryOp;
      out->unary_op = expr.unary_op;
      if (expr.unary_op == UnaryOp::kNeg) {
        if (!IsNumeric(operand->type)) {
          return Status::TypeError("unary '-' expects a numeric operand");
        }
        out->type = operand->type;
      } else {
        if (operand->type != TypeId::kBool &&
            operand->type != TypeId::kNull) {
          return Status::TypeError("NOT expects a boolean operand");
        }
        out->type = TypeId::kBool;
      }
      out->children.push_back(std::move(operand));
      return out;
    }
    case ParseExprKind::kFunctionCall: {
      if (IsAggregateFunctionName(expr.function_name)) {
        return Status::BindError("aggregate function " + expr.function_name +
                                 "() is not allowed here");
      }
      const ScalarFunction* fn = GetScalarFunction(expr.function_name);
      if (fn == nullptr) {
        return Status::BindError("unknown function: " + expr.function_name);
      }
      auto out = std::make_unique<BoundExpr>();
      out->kind = BoundExprKind::kFunctionCall;
      out->function = fn;
      out->function_name = expr.function_name;
      std::vector<TypeId> arg_types;
      for (const auto& c : expr.children) {
        DBSP_ASSIGN_OR_RETURN(BoundExprPtr arg, BindScalarExpr(*c, ctx));
        arg_types.push_back(arg->type);
        out->children.push_back(std::move(arg));
      }
      DBSP_ASSIGN_OR_RETURN(out->type, fn->infer(arg_types));
      return out;
    }
    case ParseExprKind::kCase: {
      auto out = std::make_unique<BoundExpr>();
      out->kind = BoundExprKind::kCase;
      out->case_has_else = expr.case_has_else;
      size_t pairs = expr.children.size() / 2;
      TypeId result = TypeId::kNull;
      for (size_t i = 0; i < pairs; ++i) {
        DBSP_ASSIGN_OR_RETURN(BoundExprPtr when,
                              BindScalarExpr(*expr.children[2 * i], ctx));
        if (when->type != TypeId::kBool && when->type != TypeId::kNull) {
          return Status::TypeError("CASE WHEN condition must be boolean");
        }
        DBSP_ASSIGN_OR_RETURN(BoundExprPtr then,
                              BindScalarExpr(*expr.children[2 * i + 1], ctx));
        DBSP_ASSIGN_OR_RETURN(result, CommonType(result, then->type));
        out->children.push_back(std::move(when));
        out->children.push_back(std::move(then));
      }
      if (expr.case_has_else) {
        DBSP_ASSIGN_OR_RETURN(BoundExprPtr els,
                              BindScalarExpr(*expr.children.back(), ctx));
        DBSP_ASSIGN_OR_RETURN(result, CommonType(result, els->type));
        out->children.push_back(std::move(els));
      }
      out->type = result;
      return out;
    }
    case ParseExprKind::kCast: {
      DBSP_ASSIGN_OR_RETURN(BoundExprPtr operand,
                            BindScalarExpr(*expr.children[0], ctx));
      auto out = std::make_unique<BoundExpr>();
      out->kind = BoundExprKind::kCast;
      out->cast_type = expr.cast_type;
      out->type = expr.cast_type;
      out->children.push_back(std::move(operand));
      return out;
    }
    case ParseExprKind::kIsNull: {
      DBSP_ASSIGN_OR_RETURN(BoundExprPtr operand,
                            BindScalarExpr(*expr.children[0], ctx));
      auto out = std::make_unique<BoundExpr>();
      out->kind = BoundExprKind::kIsNull;
      out->negated = expr.negated;
      out->type = TypeId::kBool;
      out->children.push_back(std::move(operand));
      return out;
    }
    case ParseExprKind::kIn: {
      auto out = std::make_unique<BoundExpr>();
      out->kind = BoundExprKind::kIn;
      out->negated = expr.negated;
      out->type = TypeId::kBool;
      for (const auto& c : expr.children) {
        DBSP_ASSIGN_OR_RETURN(BoundExprPtr child, BindScalarExpr(*c, ctx));
        out->children.push_back(std::move(child));
      }
      return out;
    }
    case ParseExprKind::kBetween: {
      auto out = std::make_unique<BoundExpr>();
      out->kind = BoundExprKind::kBetween;
      out->type = TypeId::kBool;
      for (const auto& c : expr.children) {
        DBSP_ASSIGN_OR_RETURN(BoundExprPtr child, BindScalarExpr(*c, ctx));
        out->children.push_back(std::move(child));
      }
      return out;
    }
    case ParseExprKind::kLike: {
      auto out = std::make_unique<BoundExpr>();
      out->kind = BoundExprKind::kLike;
      out->negated = expr.negated;
      out->type = TypeId::kBool;
      for (const auto& c : expr.children) {
        DBSP_ASSIGN_OR_RETURN(BoundExprPtr child, BindScalarExpr(*c, ctx));
        if (child->type != TypeId::kString && child->type != TypeId::kNull) {
          return Status::TypeError("LIKE expects string operands");
        }
        out->children.push_back(std::move(child));
      }
      return out;
    }
  }
  return Status::Internal("unhandled parse expression kind");
}

Result<LogicalOpPtr> Binder::BindTableRef(const TableRef& ref,
                                          BindContext* ctx_out) {
  switch (ref.kind) {
    case TableRefKind::kBase: {
      Schema schema;
      LogicalOpPtr scan;
      auto cte_it = ctes_.find(ref.table_name);
      if (cte_it != ctes_.end()) {
        schema = cte_it->second.schema;
        scan = MakeScan(ScanSource::kResult, cte_it->second.result_name,
                        schema);
      } else {
        DBSP_ASSIGN_OR_RETURN(CatalogEntry * entry,
                              catalog_->Get(ref.table_name));
        schema = entry->table->schema();
        scan = MakeScan(ScanSource::kCatalog, ref.table_name, schema);
      }
      ctx_out->schema = schema;
      ctx_out->entries = {
          ScopeEntry{ref.alias, ref.table_name, 0, schema.num_columns()}};
      return scan;
    }
    case TableRefKind::kSubquery: {
      DBSP_ASSIGN_OR_RETURN(LogicalOpPtr plan, BindQuery(*ref.subquery));
      ctx_out->schema = plan->output_schema;
      ctx_out->entries = {ScopeEntry{ref.alias, "", 0,
                                     plan->output_schema.num_columns()}};
      return plan;
    }
    case TableRefKind::kJoin: {
      BindContext lctx, rctx;
      DBSP_ASSIGN_OR_RETURN(LogicalOpPtr left, BindTableRef(*ref.left, &lctx));
      DBSP_ASSIGN_OR_RETURN(LogicalOpPtr right,
                            BindTableRef(*ref.right, &rctx));
      BindContext combined;
      combined.schema = lctx.schema;
      for (const auto& col : rctx.schema.columns()) {
        combined.schema.AddColumn(col.name, col.type);
      }
      combined.entries = lctx.entries;
      size_t offset = lctx.schema.num_columns();
      for (ScopeEntry e : rctx.entries) {
        e.start += offset;
        combined.entries.push_back(std::move(e));
      }
      auto join = std::make_unique<LogicalOp>();
      join->kind = LogicalOpKind::kJoin;
      join->join_type = ref.join_type;
      join->output_schema = combined.schema;
      if (ref.join_condition) {
        DBSP_ASSIGN_OR_RETURN(join->join_condition,
                              BindScalarExpr(*ref.join_condition, combined));
        if (join->join_condition->type != TypeId::kBool &&
            join->join_condition->type != TypeId::kNull) {
          return Status::TypeError("join condition must be boolean");
        }
      } else if (ref.join_type == JoinType::kLeft) {
        return Status::BindError("LEFT JOIN requires an ON condition");
      }
      join->children.push_back(std::move(left));
      join->children.push_back(std::move(right));
      *ctx_out = std::move(combined);
      return join;
    }
  }
  return Status::Internal("unhandled table ref kind");
}

Result<AggregateSpec> Binder::BindAggregateCall(const ParseExpr& call,
                                                const BindContext& input_ctx) {
  AggregateSpec spec;
  spec.distinct = call.distinct;
  spec.display_name = call.function_name;
  bool is_star = call.children.size() == 1 &&
                 call.children[0]->kind == ParseExprKind::kStar;
  DBSP_ASSIGN_OR_RETURN(spec.kind,
                        ResolveAggKind(call.function_name, is_star));
  if (spec.kind == AggKind::kCountStar) {
    if (spec.distinct) {
      return Status::BindError("COUNT(DISTINCT *) is not supported");
    }
    spec.result_type = TypeId::kInt64;
    return spec;
  }
  if (call.children.size() != 1) {
    return Status::BindError(call.function_name +
                             "() expects exactly one argument");
  }
  DBSP_ASSIGN_OR_RETURN(spec.arg,
                        BindScalarExpr(*call.children[0], input_ctx));
  DBSP_ASSIGN_OR_RETURN(spec.result_type,
                        AggResultType(spec.kind, spec.arg->type));
  return spec;
}

Result<BoundExprPtr> Binder::BindAggContextExpr(
    const ParseExpr& expr, const BindContext& input_ctx,
    const std::vector<const ParseExpr*>& group_parse_exprs,
    const std::vector<BoundExprPtr>& group_bound,
    std::vector<AggregateSpec>* specs, const Schema& agg_schema) {
  // A GROUP BY expression match becomes a reference to the group column.
  for (size_t i = 0; i < group_parse_exprs.size(); ++i) {
    if (ParseExprEquals(expr, *group_parse_exprs[i])) {
      return MakeBoundColumnRef(i, group_bound[i]->type,
                                agg_schema.column(i).name);
    }
  }
  if (expr.kind == ParseExprKind::kFunctionCall &&
      IsAggregateFunctionName(expr.function_name)) {
    DBSP_ASSIGN_OR_RETURN(AggregateSpec spec,
                          BindAggregateCall(expr, input_ctx));
    // Reuse identical specs.
    size_t index = specs->size();
    for (size_t i = 0; i < specs->size(); ++i) {
      const AggregateSpec& other = (*specs)[i];
      bool same_arg =
          (!other.arg && !spec.arg) ||
          (other.arg && spec.arg && BoundExprEquals(*other.arg, *spec.arg));
      if (other.kind == spec.kind && other.distinct == spec.distinct &&
          same_arg) {
        index = i;
        break;
      }
    }
    TypeId type = spec.result_type;
    if (index == specs->size()) specs->push_back(std::move(spec));
    return MakeBoundColumnRef(group_bound.size() + index, type,
                              expr.function_name);
  }
  switch (expr.kind) {
    case ParseExprKind::kLiteral:
      return MakeBoundConstant(expr.literal);
    case ParseExprKind::kColumnRef:
      return Status::BindError(
          "column '" + expr.column_name +
          "' must appear in the GROUP BY clause or be used in an aggregate");
    default: {
      // Rebuild the node, binding children in the aggregate context.
      ParseExpr shallow;
      shallow.kind = expr.kind;
      shallow.literal = expr.literal;
      shallow.qualifier = expr.qualifier;
      shallow.column_name = expr.column_name;
      shallow.binary_op = expr.binary_op;
      shallow.unary_op = expr.unary_op;
      shallow.function_name = expr.function_name;
      shallow.distinct = expr.distinct;
      shallow.cast_type = expr.cast_type;
      shallow.negated = expr.negated;
      shallow.case_has_else = expr.case_has_else;
      // Bind children first, then type the parent by re-binding the shallow
      // node over a fake context where children are pre-bound. Implemented
      // by recursive reconstruction below.
      std::vector<BoundExprPtr> bound_children;
      for (const auto& c : expr.children) {
        DBSP_ASSIGN_OR_RETURN(
            BoundExprPtr bc,
            BindAggContextExpr(*c, input_ctx, group_parse_exprs, group_bound,
                               specs, agg_schema));
        bound_children.push_back(std::move(bc));
      }
      auto out = std::make_unique<BoundExpr>();
      out->children = std::move(bound_children);
      switch (expr.kind) {
        case ParseExprKind::kBinaryOp: {
          out->kind = BoundExprKind::kBinaryOp;
          out->binary_op = expr.binary_op;
          DBSP_ASSIGN_OR_RETURN(
              out->type,
              InferBinaryType(expr.binary_op, out->children[0]->type,
                              out->children[1]->type));
          break;
        }
        case ParseExprKind::kUnaryOp:
          out->kind = BoundExprKind::kUnaryOp;
          out->unary_op = expr.unary_op;
          out->type = expr.unary_op == UnaryOp::kNot ? TypeId::kBool
                                                     : out->children[0]->type;
          break;
        case ParseExprKind::kFunctionCall: {
          const ScalarFunction* fn = GetScalarFunction(expr.function_name);
          if (fn == nullptr) {
            return Status::BindError("unknown function: " +
                                     expr.function_name);
          }
          out->kind = BoundExprKind::kFunctionCall;
          out->function = fn;
          out->function_name = expr.function_name;
          std::vector<TypeId> arg_types;
          for (const auto& c : out->children) arg_types.push_back(c->type);
          DBSP_ASSIGN_OR_RETURN(out->type, fn->infer(arg_types));
          break;
        }
        case ParseExprKind::kCase: {
          out->kind = BoundExprKind::kCase;
          out->case_has_else = expr.case_has_else;
          TypeId result = TypeId::kNull;
          size_t pairs = out->children.size() / 2;
          for (size_t i = 0; i < pairs; ++i) {
            DBSP_ASSIGN_OR_RETURN(
                result, CommonType(result, out->children[2 * i + 1]->type));
          }
          if (expr.case_has_else) {
            DBSP_ASSIGN_OR_RETURN(
                result, CommonType(result, out->children.back()->type));
          }
          out->type = result;
          break;
        }
        case ParseExprKind::kCast:
          out->kind = BoundExprKind::kCast;
          out->cast_type = expr.cast_type;
          out->type = expr.cast_type;
          break;
        case ParseExprKind::kIsNull:
          out->kind = BoundExprKind::kIsNull;
          out->negated = expr.negated;
          out->type = TypeId::kBool;
          break;
        case ParseExprKind::kIn:
          out->kind = BoundExprKind::kIn;
          out->negated = expr.negated;
          out->type = TypeId::kBool;
          break;
        case ParseExprKind::kBetween:
          out->kind = BoundExprKind::kBetween;
          out->type = TypeId::kBool;
          break;
        case ParseExprKind::kLike:
          out->kind = BoundExprKind::kLike;
          out->negated = expr.negated;
          out->type = TypeId::kBool;
          break;
        default:
          return Status::Internal("unexpected kind in aggregate binding");
      }
      return out;
    }
  }
}

Result<LogicalOpPtr> Binder::BindSelectCore(const QueryNode& q) {
  LogicalOpPtr plan;
  BindContext ctx;
  if (q.from) {
    DBSP_ASSIGN_OR_RETURN(plan, BindTableRef(*q.from, &ctx));
  } else {
    // SELECT of constants: a single empty row.
    auto values = std::make_unique<LogicalOp>();
    values->kind = LogicalOpKind::kValues;
    values->rows.push_back({});
    plan = std::move(values);
  }

  if (q.where) {
    DBSP_ASSIGN_OR_RETURN(BoundExprPtr pred, BindScalarExpr(*q.where, ctx));
    if (pred->type != TypeId::kBool && pred->type != TypeId::kNull) {
      return Status::TypeError("WHERE clause must be boolean");
    }
    plan = MakeFilter(std::move(pred), std::move(plan));
  }

  // Expand stars in the select list.
  std::vector<SelectItem> items;
  for (const auto& item : q.select_list) {
    if (item.expr->kind == ParseExprKind::kStar) {
      if (!q.from) {
        return Status::BindError("SELECT * requires a FROM clause");
      }
      for (const auto& entry : ctx.entries) {
        if (!item.expr->qualifier.empty()) {
          const std::string& label =
              entry.alias.empty() ? entry.table_name : entry.alias;
          if (label != item.expr->qualifier) continue;
        }
        for (size_t i = entry.start; i < entry.start + entry.count; ++i) {
          SelectItem expanded;
          // Qualified refs keep resolution unambiguous across scopes.
          const std::string& label =
              entry.alias.empty() ? entry.table_name : entry.alias;
          expanded.expr = MakeColumnRef(label, ctx.schema.column(i).name);
          expanded.alias = ctx.schema.column(i).name;
          items.push_back(std::move(expanded));
        }
      }
      continue;
    }
    items.push_back(item.Clone());
  }
  if (items.empty()) {
    return Status::BindError("empty select list");
  }

  bool has_agg = !q.group_by.empty();
  for (const auto& item : items) {
    if (ContainsAggregate(*item.expr)) has_agg = true;
  }
  if (q.having && ContainsAggregate(*q.having)) has_agg = true;

  std::vector<BoundExprPtr> projections;
  std::vector<std::string> names;

  // Aggregate-context artifacts kept alive for ORDER BY resolution below.
  std::vector<const ParseExpr*> group_parse;
  std::vector<BoundExprPtr> group_bound_keep;
  LogicalOp* agg_op = nullptr;

  if (has_agg) {
    std::vector<BoundExprPtr> group_bound;
    for (const auto& g : q.group_by) {
      DBSP_ASSIGN_OR_RETURN(BoundExprPtr bg, BindScalarExpr(*g, ctx));
      group_parse.push_back(g.get());
      group_bound.push_back(std::move(bg));
    }
    Schema agg_schema;
    for (size_t i = 0; i < group_bound.size(); ++i) {
      std::string name =
          group_parse[i]->kind == ParseExprKind::kColumnRef
              ? group_parse[i]->column_name
              : "group" + std::to_string(i);
      agg_schema.AddColumn(name, group_bound[i]->type);
    }
    std::vector<AggregateSpec> specs;
    for (auto& item : items) {
      DBSP_ASSIGN_OR_RETURN(
          BoundExprPtr bound,
          BindAggContextExpr(*item.expr, ctx, group_parse, group_bound, &specs,
                             agg_schema));
      projections.push_back(std::move(bound));
    }
    BoundExprPtr having_bound;
    if (q.having) {
      DBSP_ASSIGN_OR_RETURN(
          having_bound,
          BindAggContextExpr(*q.having, ctx, group_parse, group_bound, &specs,
                             agg_schema));
      if (having_bound->type != TypeId::kBool &&
          having_bound->type != TypeId::kNull) {
        return Status::TypeError("HAVING clause must be boolean");
      }
    }
    for (const auto& spec : specs) {
      agg_schema.AddColumn(spec.display_name, spec.result_type);
    }
    for (const auto& g : group_bound) group_bound_keep.push_back(g->Clone());
    auto agg = std::make_unique<LogicalOp>();
    agg->kind = LogicalOpKind::kAggregate;
    agg->output_schema = agg_schema;
    agg->group_exprs = std::move(group_bound);
    agg->aggregates = std::move(specs);
    agg->children.push_back(std::move(plan));
    agg_op = agg.get();
    plan = std::move(agg);
    if (having_bound) {
      plan = MakeFilter(std::move(having_bound), std::move(plan));
    }
  } else {
    if (q.having) {
      return Status::BindError("HAVING requires GROUP BY or aggregates");
    }
    for (auto& item : items) {
      DBSP_ASSIGN_OR_RETURN(BoundExprPtr bound,
                            BindScalarExpr(*item.expr, ctx));
      projections.push_back(std::move(bound));
    }
  }

  for (size_t i = 0; i < items.size(); ++i) {
    names.push_back(items[i].alias.empty()
                        ? DeriveItemName(*items[i].expr, i)
                        : items[i].alias);
  }
  size_t visible = items.size();

  // Resolve ORDER BY against the select list; expressions not in it become
  // hidden projection columns dropped after the sort.
  struct PendingKey {
    size_t ordinal;
    bool descending;
  };
  std::vector<PendingKey> pending_keys;
  for (const auto& item : q.order_by) {
    PendingKey key{0, item.descending};
    // ORDER BY k (1-based position).
    if (item.expr->kind == ParseExprKind::kLiteral &&
        item.expr->literal.type() == TypeId::kInt64) {
      int64_t pos = item.expr->literal.int64_value();
      if (pos < 1 || pos > static_cast<int64_t>(visible)) {
        return Status::BindError("ORDER BY position out of range");
      }
      key.ordinal = static_cast<size_t>(pos - 1);
      pending_keys.push_back(key);
      continue;
    }
    // A (possibly qualified) name matching an output column or alias.
    if (item.expr->kind == ParseExprKind::kColumnRef) {
      size_t found = visible;
      for (size_t i = 0; i < visible; ++i) {
        if (names[i] == item.expr->column_name) {
          found = i;
          break;
        }
      }
      if (found < visible) {
        key.ordinal = found;
        pending_keys.push_back(key);
        continue;
      }
    }
    // A general expression: bind in the same context as the select list.
    BoundExprPtr bound;
    if (agg_op != nullptr) {
      DBSP_ASSIGN_OR_RETURN(
          bound, BindAggContextExpr(*item.expr, ctx, group_parse,
                                    group_bound_keep, &agg_op->aggregates,
                                    agg_op->output_schema));
      // New aggregate specs discovered here extend the aggregate's output.
      while (agg_op->output_schema.num_columns() <
             group_parse.size() + agg_op->aggregates.size()) {
        const AggregateSpec& s =
            agg_op->aggregates[agg_op->output_schema.num_columns() -
                               group_parse.size()];
        agg_op->output_schema.AddColumn(s.display_name, s.result_type);
      }
    } else {
      DBSP_ASSIGN_OR_RETURN(bound, BindScalarExpr(*item.expr, ctx));
    }
    size_t ordinal = projections.size();
    for (size_t i = 0; i < projections.size(); ++i) {
      if (BoundExprEquals(*projections[i], *bound)) {
        ordinal = i;
        break;
      }
    }
    if (ordinal == projections.size()) {
      if (q.distinct) {
        return Status::BindError(
            "ORDER BY expression of a DISTINCT query must appear in the "
            "select list");
      }
      names.push_back("__sort" + std::to_string(pending_keys.size()));
      projections.push_back(std::move(bound));
    }
    key.ordinal = ordinal;
    pending_keys.push_back(key);
  }

  size_t total_cols = projections.size();
  plan = MakeProject(std::move(projections), std::move(names),
                     std::move(plan));

  if (q.distinct) {
    auto distinct = std::make_unique<LogicalOp>();
    distinct->kind = LogicalOpKind::kDistinct;
    distinct->output_schema = plan->output_schema;
    distinct->children.push_back(std::move(plan));
    plan = std::move(distinct);
  }

  if (!pending_keys.empty()) {
    auto sort = std::make_unique<LogicalOp>();
    sort->kind = LogicalOpKind::kSort;
    sort->output_schema = plan->output_schema;
    for (const PendingKey& pk : pending_keys) {
      SortKey sk;
      sk.descending = pk.descending;
      sk.expr = MakeBoundColumnRef(
          pk.ordinal, plan->output_schema.column(pk.ordinal).type,
          plan->output_schema.column(pk.ordinal).name);
      sort->sort_keys.push_back(std::move(sk));
    }
    sort->children.push_back(std::move(plan));
    plan = std::move(sort);
    if (total_cols > visible) {
      // Drop the hidden sort columns.
      std::vector<BoundExprPtr> keep;
      std::vector<std::string> keep_names;
      for (size_t i = 0; i < visible; ++i) {
        keep.push_back(MakeBoundColumnRef(
            i, plan->output_schema.column(i).type,
            plan->output_schema.column(i).name));
        keep_names.push_back(plan->output_schema.column(i).name);
      }
      plan = MakeProject(std::move(keep), std::move(keep_names),
                         std::move(plan));
    }
  }

  if (q.limit.has_value() || q.offset > 0) {
    auto limit = std::make_unique<LogicalOp>();
    limit->kind = LogicalOpKind::kLimit;
    limit->output_schema = plan->output_schema;
    limit->limit = q.limit.value_or(-1);
    limit->offset = q.offset;
    limit->children.push_back(std::move(plan));
    plan = std::move(limit);
  }
  return plan;
}

Result<LogicalOpPtr> Binder::BindSetOp(const QueryNode& q) {
  DBSP_ASSIGN_OR_RETURN(LogicalOpPtr left, BindQuery(*q.left));
  DBSP_ASSIGN_OR_RETURN(LogicalOpPtr right, BindQuery(*q.right));
  if (!left->output_schema.TypesCompatible(right->output_schema)) {
    return Status::BindError(
        "UNION branches have incompatible schemas: " +
        left->output_schema.ToString() + " vs " +
        right->output_schema.ToString());
  }
  // Widen the output schema across both branches and coerce each side.
  Schema widened;
  for (size_t i = 0; i < left->output_schema.num_columns(); ++i) {
    DBSP_ASSIGN_OR_RETURN(
        TypeId out, CommonType(left->output_schema.column(i).type,
                               right->output_schema.column(i).type));
    widened.AddColumn(left->output_schema.column(i).name, out);
  }
  left = MakeCastProject(std::move(left), widened);
  // Right side: widen types but keep the left's column names.
  right = MakeCastProject(std::move(right), widened);

  auto u = std::make_unique<LogicalOp>();
  switch (q.set_op) {
    case SetOpKind::kUnion:
    case SetOpKind::kUnionAll:
      u->kind = LogicalOpKind::kUnionAll;
      break;
    case SetOpKind::kExcept:
      u->kind = LogicalOpKind::kExcept;
      break;
    case SetOpKind::kIntersect:
      u->kind = LogicalOpKind::kIntersect;
      break;
  }
  u->output_schema = widened;
  u->children.push_back(std::move(left));
  u->children.push_back(std::move(right));
  LogicalOpPtr plan = std::move(u);
  if (q.set_op == SetOpKind::kUnion) {
    auto distinct = std::make_unique<LogicalOp>();
    distinct->kind = LogicalOpKind::kDistinct;
    distinct->output_schema = plan->output_schema;
    distinct->children.push_back(std::move(plan));
    plan = std::move(distinct);
  }
  return plan;
}

Result<LogicalOpPtr> Binder::BindQuery(const QueryNode& query) {
  LogicalOpPtr plan;
  if (query.kind == QueryNodeKind::kSelect) {
    // BindSelectCore handles ORDER BY / LIMIT itself (it can extend the
    // projection with hidden sort columns).
    return BindSelectCore(query);
  }
  DBSP_ASSIGN_OR_RETURN(plan, BindSetOp(query));
  if (!query.order_by.empty()) {
    auto sort = std::make_unique<LogicalOp>();
    sort->kind = LogicalOpKind::kSort;
    sort->output_schema = plan->output_schema;
    for (const auto& item : query.order_by) {
      SortKey key;
      key.descending = item.descending;
      // ORDER BY k (1-based position).
      if (item.expr->kind == ParseExprKind::kLiteral &&
          item.expr->literal.type() == TypeId::kInt64) {
        int64_t pos = item.expr->literal.int64_value();
        if (pos < 1 ||
            pos > static_cast<int64_t>(plan->output_schema.num_columns())) {
          return Status::BindError("ORDER BY position out of range");
        }
        key.expr = MakeBoundColumnRef(
            static_cast<size_t>(pos - 1),
            plan->output_schema.column(static_cast<size_t>(pos - 1)).type,
            plan->output_schema.column(static_cast<size_t>(pos - 1)).name);
      } else {
        // Resolve over the output schema (select aliases included). A
        // qualified reference (ORDER BY t.a) falls back to its bare column
        // name, since qualifiers are not part of the output schema.
        Result<BoundExprPtr> bound =
            BindExprOverSchema(*item.expr, plan->output_schema, "");
        if (!bound.ok()) {
          ParseExprPtr stripped = item.expr->Clone();
          StripQualifiers(stripped.get());
          bound = BindExprOverSchema(*stripped, plan->output_schema, "");
        }
        if (!bound.ok()) return bound.status();
        key.expr = std::move(bound).value();
      }
      sort->sort_keys.push_back(std::move(key));
    }
    sort->children.push_back(std::move(plan));
    plan = std::move(sort);
  }
  if (query.limit.has_value() || query.offset > 0) {
    auto limit = std::make_unique<LogicalOp>();
    limit->kind = LogicalOpKind::kLimit;
    limit->output_schema = plan->output_schema;
    limit->limit = query.limit.value_or(-1);
    limit->offset = query.offset;
    limit->children.push_back(std::move(plan));
    plan = std::move(limit);
  }
  return plan;
}

Result<BoundExprPtr> Binder::BindExprOverSchema(const ParseExpr& expr,
                                                const Schema& schema,
                                                const std::string& rel_name) {
  BindContext ctx;
  ctx.schema = schema;
  ctx.entries = {ScopeEntry{"", ToLower(rel_name), 0, schema.num_columns()}};
  return BindScalarExpr(expr, ctx);
}

}  // namespace dbspinner
