#include "exec/physical_planner.h"

namespace dbspinner {

namespace {

// Examines a join condition over [left ++ right] and splits it into equi-key
// pairs (left ordinal, right ordinal) plus a residual conjunct list.
void ExtractEquiKeys(const BoundExpr& condition, size_t num_left_cols,
                     size_t num_total_cols, std::vector<size_t>* left_keys,
                     std::vector<size_t>* right_keys,
                     std::vector<BoundExprPtr>* residual) {
  std::vector<BoundExprPtr> conjuncts;
  SplitConjuncts(condition, &conjuncts);
  for (auto& c : conjuncts) {
    bool is_equi = false;
    if (c->kind == BoundExprKind::kBinaryOp &&
        c->binary_op == BinaryOp::kEq &&
        c->children[0]->kind == BoundExprKind::kColumnRef &&
        c->children[1]->kind == BoundExprKind::kColumnRef) {
      size_t a = c->children[0]->column_index;
      size_t b = c->children[1]->column_index;
      if (a < num_left_cols && b >= num_left_cols && b < num_total_cols) {
        left_keys->push_back(a);
        right_keys->push_back(b - num_left_cols);
        is_equi = true;
      } else if (b < num_left_cols && a >= num_left_cols &&
                 a < num_total_cols) {
        left_keys->push_back(b);
        right_keys->push_back(a - num_left_cols);
        is_equi = true;
      }
    }
    if (!is_equi) residual->push_back(std::move(c));
  }
}

}  // namespace

Result<PhysicalOpPtr> CreatePhysicalPlan(const LogicalOp& logical) {
  std::vector<PhysicalOpPtr> children;
  children.reserve(logical.children.size());
  for (const auto& c : logical.children) {
    DBSP_ASSIGN_OR_RETURN(PhysicalOpPtr child, CreatePhysicalPlan(*c));
    children.push_back(std::move(child));
  }

  PhysicalOpPtr op;
  switch (logical.kind) {
    case LogicalOpKind::kScan:
      op = std::make_unique<PhysicalScan>(
          logical.output_schema,
          logical.scan_source == ScanSource::kCatalog, logical.scan_name);
      break;
    case LogicalOpKind::kValues:
      op = std::make_unique<PhysicalValues>(logical.output_schema,
                                            logical.rows);
      break;
    case LogicalOpKind::kFilter:
      op = std::make_unique<PhysicalFilter>(logical.output_schema,
                                            logical.predicate->Clone());
      break;
    case LogicalOpKind::kProject: {
      std::vector<BoundExprPtr> exprs;
      exprs.reserve(logical.projections.size());
      for (const auto& p : logical.projections) exprs.push_back(p->Clone());
      op = std::make_unique<PhysicalProject>(logical.output_schema,
                                             std::move(exprs));
      break;
    }
    case LogicalOpKind::kJoin: {
      size_t num_left = logical.children[0]->output_schema.num_columns();
      size_t num_total = logical.output_schema.num_columns();
      std::vector<size_t> lkeys, rkeys;
      std::vector<BoundExprPtr> residual;
      if (logical.join_condition) {
        ExtractEquiKeys(*logical.join_condition, num_left, num_total, &lkeys,
                        &rkeys, &residual);
      }
      if (!lkeys.empty()) {
        BoundExprPtr res =
            residual.empty() ? nullptr : CombineConjuncts(std::move(residual));
        op = std::make_unique<PhysicalHashJoin>(
            logical.output_schema, logical.join_type, std::move(lkeys),
            std::move(rkeys), std::move(res));
      } else {
        BoundExprPtr cond = logical.join_condition
                                ? logical.join_condition->Clone()
                                : nullptr;
        op = std::make_unique<PhysicalNestedLoopJoin>(
            logical.output_schema, logical.join_type, std::move(cond));
      }
      break;
    }
    case LogicalOpKind::kAggregate: {
      std::vector<BoundExprPtr> groups;
      for (const auto& g : logical.group_exprs) groups.push_back(g->Clone());
      std::vector<AggregateSpec> specs;
      for (const auto& a : logical.aggregates) specs.push_back(a.Clone());
      op = std::make_unique<PhysicalHashAggregate>(
          logical.output_schema, std::move(groups), std::move(specs));
      break;
    }
    case LogicalOpKind::kUnionAll:
      op = std::make_unique<PhysicalUnionAll>(logical.output_schema);
      break;
    case LogicalOpKind::kExcept:
      op = std::make_unique<PhysicalSetDifference>(logical.output_schema,
                                                   /*intersect=*/false);
      break;
    case LogicalOpKind::kIntersect:
      op = std::make_unique<PhysicalSetDifference>(logical.output_schema,
                                                   /*intersect=*/true);
      break;
    case LogicalOpKind::kDistinct:
      op = std::make_unique<PhysicalDistinct>(logical.output_schema);
      break;
    case LogicalOpKind::kSort: {
      std::vector<PhysicalSort::Key> keys;
      for (const auto& k : logical.sort_keys) {
        keys.push_back(PhysicalSort::Key{k.expr->Clone(), k.descending});
      }
      op = std::make_unique<PhysicalSort>(logical.output_schema,
                                          std::move(keys));
      break;
    }
    case LogicalOpKind::kLimit:
      // ORDER BY ... LIMIT: the sort only needs the first offset + limit
      // rows of its order; the limit still slices them.
      if (auto* sort = dynamic_cast<PhysicalSort*>(children[0].get());
          sort != nullptr && logical.limit >= 0) {
        int64_t rows = 0;
        if (__builtin_add_overflow(logical.offset, logical.limit, &rows)) {
          rows = INT64_MAX;
        }
        sort->set_top_n(rows);
      }
      op = std::make_unique<PhysicalLimit>(logical.output_schema,
                                           logical.limit, logical.offset);
      break;
    case LogicalOpKind::kDeltaRestrict:
      op = std::make_unique<PhysicalDeltaRestrict>(
          logical.output_schema, logical.delta_source, logical.delta_key_col,
          logical.delta_keep_matching);
      break;
  }
  if (!op) return Status::Internal("unhandled logical operator");
  for (auto& c : children) op->AddChild(std::move(c));
  return op;
}

Status PlanProgram(Program* program, Catalog* /*catalog*/) {
  for (Step& step : program->steps) {
    if (step.plan && !step.physical) {
      DBSP_ASSIGN_OR_RETURN(step.physical, CreatePhysicalPlan(*step.plan));
    }
  }
  return Status::OK();
}

}  // namespace dbspinner
