// Morsel-driven vectorized pipeline executor (DESIGN.md §11).
//
// ExecuteOp is the only way a physical operator runs. Maximal streaming
// chains (scan→filter→project→probe→delta-restrict) are fused into one
// pipeline that pulls fixed-size morsels from the source table through
// compiled chunk kernels into a sink. One morsel driver runs every
// pipeline — compilation, the morsel split, the serial or parallel loop
// with cancellation, and the stats — and the sinks differ only in what
// they do with a finished chunk: the materialize sink builds the output
// table, and a hash aggregate's sink folds the chunk into its worker
// slot's partial hash table. Pipeline breakers (sort, set ops, limit,
// nested-loop joins) run their own Execute and route their children back
// through ExecuteOp, so every breaker input is itself pipelined. Streaming
// operators have no Execute of their own: they exist only as stages.

#pragma once

#include "exec/physical_plan.h"

namespace dbspinner {

Result<TablePtr> ExecuteOp(const PhysicalOp& op, ExecContext& ctx);

}  // namespace dbspinner
