// Functional rewrite of CTEs (paper §IV, Algorithm 1).
//
// ProgramBuilder turns a parsed statement into a Program: regular CTEs
// become single Materialize steps, recursive CTEs expand into an
// accumulate-until-empty loop of Materialize and Rename steps
// (recursive_rewrite.cc), and iterative CTEs
// expand exactly as Algorithm 1 prescribes:
//
//   1  materialize R0 into cteTable
//   2  initialize loop operator
//   3  materialize Ri into workingTable          <- loop body start
//   4  rename workingTable to cteTable           (Ri has no WHERE clause)
//      -- or --
//   4' merge workingTable into cteTable by key   (Ri has a WHERE clause,
//                                                 or rename opt. disabled)
//   5  update loop, jump to 3 while continue
//   6  run Qf

#pragma once

#include "binder/binder.h"
#include "common/status.h"
#include "engine/options.h"
#include "parser/ast.h"
#include "plan/program.h"
#include "storage/catalog.h"

namespace dbspinner {

/// Builds executable Programs from parsed statements. One per statement.
class ProgramBuilder {
 public:
  ProgramBuilder(Catalog* catalog, const OptimizerOptions& options)
      : binder_(catalog), options_(options) {}

  /// Builds the program for a SELECT statement (CTE list + final query).
  Result<Program> BuildSelect(const Statement& stmt);

  /// Builds a program computing `query` under `ctes` (used by
  /// INSERT ... SELECT). The final step yields the rows.
  Result<Program> BuildQuery(const std::vector<CteDef>& ctes,
                             const QueryNode& query);

  Binder& binder() { return binder_; }

 private:
  Status AddCte(Program* program, const CteDef& def);
  Status AddRegularCte(Program* program, const CteDef& def);
  Status AddIterativeCte(Program* program, const CteDef& def);
  Status AddRecursiveCte(Program* program, const CteDef& def);

  /// Binds a looping CTE's two parts — R0 and Ri of an iterative CTE, the
  /// base and recursive part of a recursive one — with numeric type
  /// widening between them until the CTE schema reaches a fixpoint. `step`
  /// sees the CTE's name as result `self_result`. Outputs the final schema
  /// and cast-wrapped plans.
  Status BindLoopParts(const CteDef& def, const QueryNode& base,
                       const QueryNode& step, const std::string& self_result,
                       Schema* schema, LogicalOpPtr* r0_plan,
                       LogicalOpPtr* ri_plan);

  Binder binder_;
  OptimizerOptions options_;
  int loop_counter_ = 0;
};

/// True if `query` references table/CTE `name` anywhere in its FROM trees.
bool QueryReferences(const QueryNode& query, const std::string& name);

/// Number of FROM-clause references to `name` in `query` (including nested
/// subqueries and both set-op branches).
int CountTableRefs(const QueryNode& query, const std::string& name);

}  // namespace dbspinner
