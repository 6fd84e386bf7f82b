// Maintenance-plan derivation for materialized views.
//
// Mirrors the loop-body delta analysis (optimizer/delta_analysis.cc): a view
// body Q is incrementally maintainable when it is *linear* in each base
// table it references — then for a delta (ins, del) against one table T,
// ΔQ = Q[T→ins] − Q[T→del] with every other relation unchanged, because any
// single DML statement mutates exactly one base table. Two incremental
// shapes are derived here; everything else falls back to recompute-on-read:
//
//  kLinear     SELECT/PROJECT/JOIN (inner/cross) with each base table
//              referenced once: apply ΔQ to the view as a row multiset.
//  kAggregate  GROUP BY over a linear input with COUNT/SUM/MIN/MAX/AVG/
//              STDDEV/VARIANCE select items: fold ΔQin into the view's
//              GroupedAggregator via Consume (inserts) and Retract
//              (deletes).
//  kFallback   DISTINCT, set ops, LEFT JOIN, subqueries, HAVING, global
//              aggregates, ORDER BY/LIMIT, self-joins.

#pragma once

#include <string>
#include <vector>

#include "expr/aggregate_functions.h"
#include "parser/ast.h"

namespace dbspinner {
namespace ivm {

enum class PlanKind { kLinear, kAggregate, kFallback };

const char* PlanKindName(PlanKind k);

/// One aggregate select item of a kAggregate plan.
struct PlanAgg {
  AggKind kind = AggKind::kCountStar;
  /// Column of the maintenance input query holding the argument, or -1 for
  /// COUNT(*).
  int input_col = -1;
};

/// One output column of a kAggregate view: either a group expression
/// (is_agg == false, `index` into the group key) or an aggregate
/// (is_agg == true, `index` into `aggs`).
struct PlanOutput {
  bool is_agg = false;
  int index = 0;
};

struct MaintenancePlan {
  PlanKind kind = PlanKind::kFallback;
  /// Base tables the body reads (deduplicated, lower-case). Filled for every
  /// plan kind, including fallback (dependency tracking).
  std::vector<std::string> base_tables;
  /// Why the plan fell back (diagnostics; empty for incremental plans).
  std::string fallback_reason;

  // --- kAggregate only ---
  /// The linear maintenance input: body with grouping stripped, projecting
  /// the group expressions followed by the aggregate arguments.
  QueryNodePtr input_query;
  int num_group_cols = 0;
  std::vector<PlanAgg> aggs;
  std::vector<PlanOutput> outputs;  ///< one per view column

  MaintenancePlan Clone() const;
};

/// Derives the maintenance plan for a view body.
MaintenancePlan DerivePlan(const QueryNode& body);

/// Collects the base-table names a query reads (FROM trees, subqueries, set
/// operations), lower-case and deduplicated, appended to `out`.
void CollectBaseTables(const QueryNode& q, std::vector<std::string>* out);

/// Rewrites every FROM reference of base table `from` to read `to` instead.
/// References without an alias keep resolving under the original name (the
/// alias is pinned to `from` first), so column qualifiers stay valid.
void RewriteTableRefs(QueryNode* q, const std::string& from,
                      const std::string& to);

}  // namespace ivm
}  // namespace dbspinner
