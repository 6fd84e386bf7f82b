#include "optimizer/optimizer.h"

#include "optimizer/cost_model.h"

namespace dbspinner {

namespace {

// Loops predicted to run at most once cannot amortize the per-iteration
// delta/affected bookkeeping (same gate as the common-result rewrite).
bool LoopWorthRewriting(const Program& program, const IterativeCteInfo& info,
                        const CostModel& cost) {
  int init_idx = program.FindStep(info.init_step_id);
  if (init_idx < 0) return false;
  const Step& init = program.steps[static_cast<size_t>(init_idx)];
  int r0_idx = program.FindStep(info.r0_step_id);
  double cte_rows =
      r0_idx >= 0 && program.steps[static_cast<size_t>(r0_idx)].plan
          ? cost.EstimateCardinality(
                *program.steps[static_cast<size_t>(r0_idx)].plan)
          : 0.0;
  return cost.EstimateIterations(init.loop, cte_rows) > 1.0;
}

}  // namespace

Status Optimizer::OptimizePlan(LogicalOpPtr* plan) {
  if (options_.enable_constant_folding) {
    DBSP_RETURN_NOT_OK(ConstantFold(plan));
  }
  if (options_.enable_join_simplification) {
    DBSP_RETURN_NOT_OK(SimplifyJoins(plan));
  }
  if (options_.enable_predicate_pushdown) {
    DBSP_RETURN_NOT_OK(PushDownPredicates(plan));
  }
  return Status::OK();
}

Status Optimizer::ApplyLocalRule(
    Program* program, const std::function<Status(LogicalOpPtr*)>& rule) {
  for (Step& step : program->steps) {
    if (step.plan) {
      DBSP_RETURN_NOT_OK(rule(&step.plan));
    }
  }
  return Status::OK();
}

Status Optimizer::FireHook(const char* rule, const Program& program) {
  if (!rule_hook_) return Status::OK();
  return rule_hook_(rule, program);
}

Status Optimizer::OptimizeProgram(Program* program) {
  // 1. Cross-block pushdown first, so pushed predicates can sink further
  //    inside R0 during the local passes below.
  if (options_.enable_cte_predicate_pushdown) {
    for (const IterativeCteInfo& info : program->iterative_ctes) {
      if (info.pushdown_legal) {
        DBSP_RETURN_NOT_OK(ApplyCtePredicatePushdown(program, info));
      }
    }
    DBSP_RETURN_NOT_OK(FireHook("cte_predicate_pushdown", *program));
  }
  // 2. Local rules, each as a named program-wide pass over every step plan.
  if (options_.enable_constant_folding) {
    DBSP_RETURN_NOT_OK(ApplyLocalRule(program, ConstantFold));
    DBSP_RETURN_NOT_OK(FireHook("constant_folding", *program));
  }
  if (options_.enable_join_simplification) {
    DBSP_RETURN_NOT_OK(ApplyLocalRule(program, SimplifyJoins));
    DBSP_RETURN_NOT_OK(FireHook("join_simplification", *program));
  }
  if (options_.enable_predicate_pushdown) {
    DBSP_RETURN_NOT_OK(ApplyLocalRule(program, PushDownPredicates));
    DBSP_RETURN_NOT_OK(FireHook("predicate_pushdown", *program));
  }
  // 3. Common-result extraction (wants simplified/pushed-down Ri plans).
  //    Cost guard: a loop predicted to run at most once cannot amortize the
  //    hoisted materialization, so skip it (paper §IX future work).
  if (options_.enable_common_result) {
    CostModel cost(catalog_);
    int counter = 0;
    for (const IterativeCteInfo& info : program->iterative_ctes) {
      if (!LoopWorthRewriting(*program, info, cost)) continue;
      DBSP_RETURN_NOT_OK(
          ApplyCommonResultRewrite(program, info, &counter, this));
    }
    DBSP_RETURN_NOT_OK(FireHook("common_result", *program));
  }
  // 4. Delta-driven (semi-naive) iteration, after common results so hoisted
  //    __common#k scans count as loop-invariant inputs of the region.
  if (options_.enable_delta_iteration) {
    CostModel cost(catalog_);
    for (const IterativeCteInfo& info : program->iterative_ctes) {
      if (!LoopWorthRewriting(*program, info, cost)) continue;
      DBSP_RETURN_NOT_OK(ApplyDeltaIterationRewrite(program, info, this));
    }
    DBSP_RETURN_NOT_OK(FireHook("delta_iteration", *program));
  }
  return Status::OK();
}

}  // namespace dbspinner
