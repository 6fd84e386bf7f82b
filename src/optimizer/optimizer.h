// Rule-based optimizer.
//
// The cost-based parts of a production optimizer (join ordering, statistics)
// are untouched by the paper's proposal — it explicitly reuses them. Our
// engine correspondingly keeps physical planning trivial and implements the
// rewrites the paper discusses:
//   - constant folding (stock rule)
//   - outer->inner join conversion ("outer to inner join conversions", §V)
//   - predicate pushdown within a block (stock rule)
//   - predicate pushdown from Qf into R0 of an iterative CTE (§V-B, Fig 10)
//   - common-result extraction out of Ri (§V-A, Fig 9)
//   - delta-driven (semi-naive) iteration (not in the paper)

#pragma once

#include <functional>

#include "common/status.h"
#include "engine/options.h"
#include "plan/program.h"
#include "storage/catalog.h"

namespace dbspinner {

class Optimizer {
 public:
  /// Observer invoked after each enabled rewrite rule finishes transforming
  /// the program, with the rule's stable name (matching OptimizerToggles).
  /// A non-OK return aborts optimization with that status. The static
  /// verifier hooks in here to check every intermediate program.
  using RuleHook = std::function<Status(const char* rule, const Program&)>;

  /// `catalog` (optional) enables cardinality-based decisions: with it, the
  /// common-result rewrite is skipped for loops estimated to run <= 1
  /// iteration, where materialization cannot pay off (the paper's §IX
  /// future-work costing).
  explicit Optimizer(const OptimizerOptions& options,
                     Catalog* catalog = nullptr)
      : options_(options), catalog_(catalog) {}

  void set_rule_hook(RuleHook hook) { rule_hook_ = std::move(hook); }

  /// Applies all enabled rewrites to every plan in the program, plus the
  /// cross-step iterative-CTE rewrites. Rules run as named program-wide
  /// passes; the rule hook (if any) fires after each one.
  Status OptimizeProgram(Program* program);

  /// Applies the enabled local (single-plan) rules. Used for standalone
  /// plans (UPDATE ... FROM) and by rewrites on freshly built subplans; does
  /// not fire the rule hook.
  Status OptimizePlan(LogicalOpPtr* plan);

 private:
  /// Applies one local rule to every step plan of the program.
  Status ApplyLocalRule(Program* program,
                        const std::function<Status(LogicalOpPtr*)>& rule);
  Status FireHook(const char* rule, const Program& program);

  OptimizerOptions options_;
  Catalog* catalog_;
  RuleHook rule_hook_;
};

// --- individual rules (exposed for tests) -----------------------------------

/// Folds constant subexpressions in every expression of the plan, removes
/// always-true filters, and replaces always-false filters with empty inputs.
Status ConstantFold(LogicalOpPtr* plan);

/// Converts LEFT joins to INNER where a null-rejecting predicate above the
/// join discards NULL-extended rows.
Status SimplifyJoins(LogicalOpPtr* plan);

/// Pushes filter conjuncts below projects, into join inputs / conditions,
/// through unions and distinct, and below aggregates (group columns only).
Status PushDownPredicates(LogicalOpPtr* plan);

/// Fig 10: pushes conjuncts of the main query's filter over the iterative
/// CTE into the CTE's non-iterative part R0, when `info.pushdown_legal` and
/// the predicate only touches pass-through columns.
Status ApplyCtePredicatePushdown(Program* program,
                                 const IterativeCteInfo& info);

/// Fig 9: hoists loop-invariant join components out of the Ri plan,
/// materializing them once before the loop as __common#k results.
/// `local_rules` is applied to each hoisted plan and the rewritten Ri plan.
Status ApplyCommonResultRewrite(Program* program, const IterativeCteInfo& info,
                                int* common_counter, Optimizer* optimizer);

/// Delta-driven (semi-naive) iteration (delta_analysis.cc). When the Ri plan
/// of `info` has the supported merge-update shape, restricts its driving
/// self-scan to the keys whose recomputation could differ this iteration,
/// and the loop body becomes
///
///   3a computeDelta cteTable -> cte__delta      (changed rows, old + new)
///   3b materialize affected keys -> cte__affected
///   3  materialize restricted Ri into workingTable
///   4  rename / merge as before (a rename also unions in the unaffected rows)
///   5  update loop, jump to 3a while continue
///
/// so each iteration joins only the rows whose inputs changed. No-op when
/// the shape is unsupported (the program then runs naively).
Status ApplyDeltaIterationRewrite(Program* program,
                                  const IterativeCteInfo& info,
                                  Optimizer* optimizer);

}  // namespace dbspinner
