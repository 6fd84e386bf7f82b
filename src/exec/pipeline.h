// Morsel-driven vectorized pipeline executor (DESIGN.md §11).
//
// ExecuteOp is the only way a physical operator runs. Maximal streaming
// chains (scan→filter→project→probe→delta-restrict) are fused into one
// pipeline that pulls fixed-size morsels from the source table through
// compiled chunk kernels and materializes once, at the sink. A hash
// aggregate is a pipeline sink: its input chain folds straight into
// per-worker partial hash tables. Pipeline breakers (sort, set ops, limit,
// nested-loop joins) run their own Execute and route their children back
// through ExecuteOp, so every breaker input is itself pipelined. Streaming
// operators have no Execute of their own: they exist only as stages.

#pragma once

#include "exec/physical_plan.h"

namespace dbspinner {

Result<TablePtr> ExecuteOp(const PhysicalOp& op, ExecContext& ctx);

}  // namespace dbspinner
