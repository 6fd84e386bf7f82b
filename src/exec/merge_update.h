// MergeUpdate: the update half of Algorithm 1 (lines 8-10).
//
// Merges the working table produced by one iteration of R_i into the main
// CTE table, matching rows on a key column: matched rows take the working
// table's values; unmatched CTE rows are preserved. This same routine is the
// copy-back baseline of Fig 8 (update identification + full data movement)
// when the rename optimization is disabled.

#pragma once

#include "common/status.h"
#include "storage/table.h"

namespace dbspinner {

struct MergeResult {
  TablePtr merged;
  int64_t updated_rows = 0;  ///< rows whose values actually changed
};

/// Merges `working` into `cte` by equality on `key_col` (same ordinal in
/// both tables; schemas must be type-compatible).
///
/// Fails with ExecutionError if `working` contains two rows with the same
/// key — the paper's mandated runtime error for ambiguous updates (§II).
/// Working rows whose key does not exist in `cte` are ignored (iterative
/// CTEs update rows; they do not grow the main table).
Result<MergeResult> MergeUpdateTables(const Table& cte, const Table& working,
                                      size_t key_col);

/// Counts rows that differ between two versions of a table keyed by
/// `key_col`: current rows equal to no previous row of their key, plus
/// previous rows whose key is gone. Used by the Delta termination
/// condition.
int64_t CountChangedRows(const Table& prev, const Table& current,
                         size_t key_col);

/// Builds the delta between two versions of a table keyed by `key_col`: all
/// rows (from BOTH versions) of every key whose row multiset changed —
/// including keys that appeared or disappeared. Old versions are included
/// because a filter in the loop body may accept the old row but not the new
/// one (or vice versa); dependency detection must see both. Used by the
/// semi-naive ComputeDelta step.
TablePtr BuildChangedRowsTable(const Table& prev, const Table& current,
                               size_t key_col);

}  // namespace dbspinner
