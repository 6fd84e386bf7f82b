// DeltaRestrict: the semi-naive frontier filter.
//
// Restricts its child to the rows whose key appears (or does not appear) in
// the affected-key set materialized by the delta-iteration rewrite. This is
// what makes each loop-body iteration proportional to the previous
// iteration's changes instead of the full CTE.

#include "exec/physical_plan.h"
#include "exec/row_index.h"

namespace dbspinner {

size_t PhysicalDeltaRestrict::Restrict(DataChunk* chunk, size_t chunk_key,
                                       const RowIndex& keys) const {
  // The key read in place, or, when NULL padding may read through it,
  // gathered densely: the set matches a NULL key only if it holds NULL.
  const size_t n = chunk->size();
  RowSet rows = chunk->rows(chunk_key);
  ColumnVectorPtr dense;
  const ColumnVector* key = &chunk->column(chunk_key);
  if (rows.padded) {
    dense = chunk->Dense(chunk_key);
    key = dense.get();
    rows = RowSet::Window(0, n);
  }
  thread_local std::vector<uint32_t> heads;
  heads.resize(n);
  keys.FindAll(KeyColumns{key}, rows, heads.data());
  std::vector<uint32_t> keep;
  keep.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    bool in_set = heads[i] != kNoMatch;
    if (in_set == keep_matching_) keep.push_back(static_cast<uint32_t>(i));
  }
  if (keep.size() != n) chunk->Restrict(keep);
  return keep.size();
}

}  // namespace dbspinner
