// UnionAll and Distinct.

#include <algorithm>

#include "exec/physical_plan.h"
#include "exec/pipeline.h"
#include "exec/row_index.h"

namespace dbspinner {

Result<TablePtr> PhysicalUnionAll::Execute(ExecContext& ctx) const {
  auto out = Table::Make(output_schema_);
  for (const auto& child : children_) {
    DBSP_ASSIGN_OR_RETURN(TablePtr t, ExecuteOp(*child, ctx));
    out->AppendAll(*t);
  }
  ctx.stats.rows_materialized += static_cast<int64_t>(out->num_rows());
  return out;
}

Result<TablePtr> PhysicalSetDifference::Execute(ExecContext& ctx) const {
  DBSP_ASSIGN_OR_RETURN(TablePtr left, ExecuteOp(*children_[0], ctx));
  DBSP_ASSIGN_OR_RETURN(TablePtr right, ExecuteOp(*children_[1], ctx));

  // The distinct left rows that pass the membership test.
  TablePtr out = left->Gather(DistinctRowIds(*left, right.get(), intersect_));
  ctx.stats.rows_materialized += static_cast<int64_t>(out->num_rows());
  return out;
}

namespace {

// Reorders the row `ids` of `t` stably by HashKeys(row) % parts: the order
// the MPP design's DISTINCT produces, each simulated node's rows in turn.
std::vector<uint32_t> BucketByPartition(const Table& t,
                                        const std::vector<uint32_t>& ids,
                                        size_t parts) {
  const KeyColumns keys = AllColumnsOf(t);
  std::vector<uint32_t> part(ids.size());
  std::vector<size_t> start(parts + 1, 0);
  for (size_t i = 0; i < ids.size(); ++i) {
    part[i] = static_cast<uint32_t>(HashKeys(keys, ids[i]) % parts);
    ++start[part[i] + 1];
  }
  for (size_t p = 0; p < parts; ++p) start[p + 1] += start[p];
  std::vector<uint32_t> out(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) out[start[part[i]]++] = ids[i];
  return out;
}

}  // namespace

Result<TablePtr> PhysicalDistinct::Execute(ExecContext& ctx) const {
  DBSP_ASSIGN_OR_RETURN(TablePtr input, ExecuteOp(*children_[0], ctx));
  const size_t n = input->num_rows();
  const bool parallel = ctx.UseParallel(n);
  if (parallel) {
    // A logical shuffle on all columns: fallible (injection point) before
    // any work, and counted as every input row moved.
    DBSP_RETURN_NOT_OK(MaybeInjectFault(ctx.faults, "exec.distinct.shuffle"));
    ctx.stats.rows_shuffled += static_cast<int64_t>(n);
  }
  std::vector<uint32_t> ids =
      DistinctRowIds(*input, /*right=*/nullptr, /*in_right=*/false);
  if (parallel) {
    // Equal rows hash alike, so each bucket holds exactly the first
    // occurrences a per-node dedupe of the hash-partitioned input keeps,
    // in the same order. That order is kept on purpose: first-occurrence
    // order left every work counter unchanged but slowed the Pokec PR-VS
    // Project∘HashJoin pipeline that reads the result from 629 to 832 us
    // per call at 4 workers (31,816 rows, 4-vCPU Xeon VM), and the whole
    // query from 89-96 to 124-134 ms.
    ids = BucketByPartition(*input, ids, ctx.NumPartitions());
  }
  // Nothing removed or moved: pass the input through without a copy.
  TablePtr out = ids.size() == n && std::is_sorted(ids.begin(), ids.end())
                     ? input
                     : input->Gather(ids);
  ctx.stats.rows_materialized += static_cast<int64_t>(out->num_rows());
  return out;
}

}  // namespace dbspinner
