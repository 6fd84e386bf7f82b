#include "optimizer/cost_model.h"

#include <cmath>
#include <map>

#include "common/string_util.h"

namespace dbspinner {

namespace {

// Selectivity heuristic for one predicate (conjuncts multiply).
double PredicateSelectivity(const BoundExpr& pred) {
  switch (pred.kind) {
    case BoundExprKind::kBinaryOp:
      switch (pred.binary_op) {
        case BinaryOp::kAnd:
          return PredicateSelectivity(*pred.children[0]) *
                 PredicateSelectivity(*pred.children[1]);
        case BinaryOp::kOr: {
          double a = PredicateSelectivity(*pred.children[0]);
          double b = PredicateSelectivity(*pred.children[1]);
          return std::min(1.0, a + b - a * b);
        }
        case BinaryOp::kEq:
          return 0.1;
        case BinaryOp::kNe:
          return 0.9;
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return 1.0 / 3.0;
        default:
          return 0.5;
      }
    case BoundExprKind::kIsNull:
      return pred.negated ? 0.9 : 0.1;
    case BoundExprKind::kIn:
      return std::min(1.0, 0.1 * static_cast<double>(
                                     pred.children.size() - 1));
    case BoundExprKind::kBetween:
      return 0.25;
    case BoundExprKind::kLike:
      return pred.negated ? 0.75 : 0.25;
    case BoundExprKind::kConstant:
      if (!pred.constant.is_null() &&
          pred.constant.type() == TypeId::kBool) {
        return pred.constant.bool_value() ? 1.0 : 0.0;
      }
      return 0.0;
    default:
      return 0.5;
  }
}

}  // namespace

double CostModel::ScanRows(const LogicalOp& scan) const {
  if (scan.scan_source == ScanSource::kCatalog && catalog_ != nullptr) {
    auto entry = const_cast<Catalog*>(catalog_)->Get(scan.scan_name);
    if (entry.ok()) {
      return static_cast<double>((*entry)->table->num_rows());
    }
  }
  // Intermediate results are unknown at plan time; assume moderate size.
  return 1000.0;
}

double CostModel::EstimateCardinality(const LogicalOp& plan) const {
  switch (plan.kind) {
    case LogicalOpKind::kScan:
      return ScanRows(plan);
    case LogicalOpKind::kValues:
      return static_cast<double>(plan.rows.size());
    case LogicalOpKind::kFilter:
      return EstimateCardinality(*plan.children[0]) *
             PredicateSelectivity(*plan.predicate);
    case LogicalOpKind::kProject:
    case LogicalOpKind::kSort:
      return EstimateCardinality(*plan.children[0]);
    case LogicalOpKind::kJoin: {
      double l = EstimateCardinality(*plan.children[0]);
      double r = EstimateCardinality(*plan.children[1]);
      double out;
      if (plan.join_condition == nullptr) {
        out = l * r;  // cross join
      } else {
        out = std::max(std::max(l, r), l * r * 0.01);
      }
      if (plan.join_type == JoinType::kLeft) out = std::max(out, l);
      return out;
    }
    case LogicalOpKind::kAggregate: {
      double in = EstimateCardinality(*plan.children[0]);
      if (plan.group_exprs.empty()) return 1.0;
      return std::max(1.0, std::pow(in, 0.75));
    }
    case LogicalOpKind::kUnionAll: {
      double total = 0;
      for (const auto& c : plan.children) total += EstimateCardinality(*c);
      return total;
    }
    case LogicalOpKind::kExcept:
      return EstimateCardinality(*plan.children[0]) * 0.5;
    case LogicalOpKind::kIntersect:
      return std::min(EstimateCardinality(*plan.children[0]),
                      EstimateCardinality(*plan.children[1])) *
             0.5;
    case LogicalOpKind::kDistinct:
      return EstimateCardinality(*plan.children[0]) * 0.5;
    case LogicalOpKind::kLimit: {
      double in = EstimateCardinality(*plan.children[0]);
      double after_offset = std::max(0.0, in - static_cast<double>(plan.offset));
      if (plan.limit < 0) return after_offset;
      return std::min(after_offset, static_cast<double>(plan.limit));
    }
    case LogicalOpKind::kDeltaRestrict:
      // The whole point of the restriction: a converging loop's frontier is
      // a small fraction of the CTE.
      return EstimateCardinality(*plan.children[0]) * 0.2;
  }
  return 1.0;
}

double CostModel::EstimatePlanCost(const LogicalOp& plan) const {
  double cost = EstimateCardinality(plan);
  for (const auto& c : plan.children) cost += EstimatePlanCost(*c);
  return cost;
}

double CostModel::EstimateIterations(const LoopSpec& spec, double cte_rows,
                                     double default_iterations) const {
  switch (spec.kind) {
    case LoopSpec::Kind::kIterations:
      return static_cast<double>(spec.n);
    case LoopSpec::Kind::kUpdates:
      // Each iteration updates roughly the whole CTE (full replacement) or
      // some fraction of it; assume the whole table as an upper-rate guess.
      if (cte_rows <= 0) return default_iterations;
      return std::max(1.0, std::ceil(static_cast<double>(spec.n) / cte_rows));
    case LoopSpec::Kind::kAny:
    case LoopSpec::Kind::kAll:
    case LoopSpec::Kind::kDeltaLess:
    case LoopSpec::Kind::kWhileResultNonEmpty:
      // Convergence-style conditions: unknowable without data; use the
      // configured default (the paper leaves this as future work).
      return default_iterations;
  }
  return default_iterations;
}

double CostModel::EstimateProgramCost(const Program& program) const {
  // Map loop_id -> iteration estimate (from the InitLoop step) and find the
  // step index ranges [init+1, check] forming each loop body.
  std::map<int, double> loop_iterations;
  std::map<int, std::pair<size_t, size_t>> loop_ranges;
  std::map<std::string, double> result_rows;  // cte name -> estimated rows
  for (size_t i = 0; i < program.steps.size(); ++i) {
    const Step& s = program.steps[i];
    if (s.kind == Step::Kind::kMaterialize && s.plan) {
      result_rows[s.target] = EstimateCardinality(*s.plan);
    }
    if (s.kind == Step::Kind::kInitLoop) {
      double cte_rows = result_rows.count(s.loop.cte_name)
                            ? result_rows[s.loop.cte_name]
                            : 0.0;
      loop_iterations[s.loop_id] = EstimateIterations(s.loop, cte_rows);
      loop_ranges[s.loop_id] = {i + 1, program.steps.size()};
    }
    if (s.kind == Step::Kind::kLoopCheck &&
        loop_ranges.count(s.loop_id)) {
      loop_ranges[s.loop_id].second = i;
    }
  }
  auto weight_of = [&](size_t index) {
    double w = 1.0;
    for (const auto& [id, range] : loop_ranges) {
      if (index >= range.first && index <= range.second) {
        w *= loop_iterations[id];
      }
    }
    return w;
  };

  double total = 0;
  for (size_t i = 0; i < program.steps.size(); ++i) {
    const Step& s = program.steps[i];
    double step_cost = 0;
    switch (s.kind) {
      case Step::Kind::kMaterialize:
      case Step::Kind::kFinal:
        step_cost = s.plan ? EstimatePlanCost(*s.plan) : 0;
        break;
      case Step::Kind::kMergeUpdate:
        step_cost = result_rows.count(s.target) ? result_rows[s.target] : 1000;
        break;
      case Step::Kind::kComputeDelta:
        step_cost = result_rows.count(s.source) ? result_rows[s.source] : 1000;
        break;
      case Step::Kind::kRename:
      case Step::Kind::kRemoveResult:
      case Step::Kind::kInitLoop:
      case Step::Kind::kLoopCheck:
        step_cost = 1;  // O(1) bookkeeping
        break;
    }
    total += step_cost * weight_of(i);
  }
  return total;
}

std::string CostModel::ExplainCost(const Program& program) const {
  std::string out;
  double total = EstimateProgramCost(program);
  for (size_t i = 0; i < program.steps.size(); ++i) {
    const Step& s = program.steps[i];
    double rows = s.plan ? EstimateCardinality(*s.plan) : 0;
    double cost = s.plan ? EstimatePlanCost(*s.plan) : 1;
    out += StringPrintf("Step %zu (%s): est_rows=%.0f est_cost=%.0f\n", i + 1,
                        s.KindName(), rows, cost);
  }
  out += StringPrintf("Total program cost (loop-weighted): %.0f\n", total);
  return out;
}

}  // namespace dbspinner
