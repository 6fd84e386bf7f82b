// DeltaRestrict: the semi-naive frontier filter.
//
// Restricts its child to the rows whose key appears (or does not appear) in
// the affected-key set materialized by the delta-iteration rewrite. This is
// what makes each loop-body iteration proportional to the previous
// iteration's changes instead of the full CTE.

#include "exec/physical_plan.h"
#include "exec/pipeline.h"
#include "exec/row_index.h"

namespace dbspinner {

Result<TablePtr> PhysicalDeltaRestrict::Execute(ExecContext& ctx) const {
  DBSP_ASSIGN_OR_RETURN(TablePtr input, ExecuteOp(*children_[0], ctx));
  DBSP_ASSIGN_OR_RETURN(TablePtr keys, ctx.registry->Get(delta_source_));
  if (keys->num_columns() == 0) {
    return Status::Internal("DeltaRestrict key set '" + delta_source_ +
                            "' has no columns");
  }

  const RowIndex set_index = RowIndex::Build(
      {&keys->column(0)}, {input->column(key_col_).type()},
      RowIndex::Nulls::kMatch);
  DataChunk chunk(input, 0, input->num_rows());
  size_t kept = Restrict(&chunk, set_index);
  if (keep_matching_) ctx.stats.delta_probe_rows += static_cast<int64_t>(kept);
  if (kept == input->num_rows()) return input;
  return chunk.Materialize();
}

size_t PhysicalDeltaRestrict::Restrict(DataChunk* chunk,
                                       const RowIndex& keys) const {
  const KeyColumns in_keys{&chunk->table().column(key_col_)};
  RowIndex scratch;
  const RowIndex& set_index = keys.Fit(in_keys, &scratch);
  size_t n = chunk->size();
  std::vector<uint32_t> keep;
  keep.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    bool in_set = set_index.Find(in_keys, chunk->RowAt(i)) != kNoMatch;
    if (in_set == keep_matching_) keep.push_back(static_cast<uint32_t>(i));
  }
  if (keep.size() != n) chunk->Restrict(keep);
  return keep.size();
}

}  // namespace dbspinner
