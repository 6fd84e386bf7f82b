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
  const KeyColumns in_keys{&chunk->table().column(chunk_key)};
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
