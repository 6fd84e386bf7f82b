// Physical planner: logical plans -> physical operator trees.

#pragma once

#include "common/status.h"
#include "exec/physical_plan.h"
#include "plan/logical_plan.h"
#include "plan/program.h"

namespace dbspinner {

/// Converts one logical plan to a physical operator tree. Join conditions are
/// analyzed for equi-key conjuncts: hash join when at least one exists,
/// nested-loop otherwise.
Result<PhysicalOpPtr> CreatePhysicalPlan(const LogicalOp& logical);

/// Plans every step of a Program in place (fills Step::physical). The
/// catalog is not consulted; the parameter stays for existing callers.
Status PlanProgram(Program* program, Catalog* catalog = nullptr);

}  // namespace dbspinner
