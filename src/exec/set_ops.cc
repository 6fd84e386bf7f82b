// UnionAll and Distinct.

#include "exec/physical_plan.h"
#include "exec/pipeline.h"
#include "exec/row_index.h"
#include "mpp/partition.h"

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

namespace {

// Keeps the first occurrence of each distinct row of `input`.
TablePtr DedupeTable(const Table& input) {
  std::vector<uint32_t> sel =
      DistinctRowIds(input, /*right=*/nullptr, /*in_right=*/false);
  if (sel.size() == input.num_rows()) {
    // Nothing removed; avoid the copy.
    return nullptr;
  }
  return input.Gather(sel);
}

}  // namespace

Result<TablePtr> PhysicalSetDifference::Execute(ExecContext& ctx) const {
  DBSP_ASSIGN_OR_RETURN(TablePtr left, ExecuteOp(*children_[0], ctx));
  DBSP_ASSIGN_OR_RETURN(TablePtr right, ExecuteOp(*children_[1], ctx));

  // The distinct left rows that pass the membership test.
  TablePtr out = left->Gather(DistinctRowIds(*left, right.get(), intersect_));
  ctx.stats.rows_materialized += static_cast<int64_t>(out->num_rows());
  return out;
}

Result<TablePtr> PhysicalDistinct::Execute(ExecContext& ctx) const {
  DBSP_ASSIGN_OR_RETURN(TablePtr input, ExecuteOp(*children_[0], ctx));

  if (ctx.UseParallel(input->num_rows())) {
    // Shuffle on all columns: duplicates land on the same simulated node.
    // Fallible (injection point) before any state is touched.
    DBSP_RETURN_NOT_OK(MaybeInjectFault(ctx.faults, "exec.distinct.shuffle"));
    std::vector<size_t> all_cols;
    for (size_t c = 0; c < input->num_columns(); ++c) all_cols.push_back(c);
    size_t parts = ctx.NumPartitions();
    std::vector<TablePtr> partitions = HashPartition(*input, all_cols, parts);
    ctx.stats.rows_shuffled += static_cast<int64_t>(input->num_rows());
    std::vector<TablePtr> results(partitions.size());
    ctx.pool->ParallelFor(partitions.size(), [&](size_t p) {
      TablePtr deduped = DedupeTable(*partitions[p]);
      results[p] = deduped ? deduped : partitions[p];
    });
    TablePtr out = Gather(results);
    ctx.stats.rows_materialized += static_cast<int64_t>(out->num_rows());
    return out;
  }

  TablePtr deduped = DedupeTable(*input);
  TablePtr out = deduped ? deduped : input;
  ctx.stats.rows_materialized += static_cast<int64_t>(out->num_rows());
  return out;
}

}  // namespace dbspinner
