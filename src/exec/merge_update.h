// MergeUpdate: the update half of Algorithm 1 (lines 8-10), and the change
// sets that a loop's writes of its CTE produce (DESIGN.md §4c).
//
// Merges the working table produced by one iteration of R_i into the main
// CTE table, matching rows on a key column: matched rows take the working
// table's values; unmatched CTE rows are preserved. This same routine is the
// copy-back baseline of Fig 8 (update identification + full data movement)
// when the rename optimization is disabled.
//
// A change set says what one write did to a table keyed by one column. The
// merge builds it from the row comparisons it makes anyway; a rename with a
// carry leaves it to DiffVersions over the only keys that can differ. Both
// the semi-naive ComputeDelta step and the UNTIL DELTA condition read it.

#pragma once


#include "common/status.h"
#include "exec/row_index.h"
#include "storage/table.h"

namespace dbspinner {

/// What changed between two versions of a table keyed by one column. A key
/// changed when its multiset of rows differs between the versions, which
/// includes keys that appeared or vanished. Rows compare as DISTINCT
/// compares them: ColumnVector::EqualsAt on every column, NaN equal to NaN.
struct ChangeSet {
  /// Both versions of every changed key's rows: the previous version's
  /// rows first, then the current version's, in the current schema. Old
  /// rows are included because a filter in the loop body may accept the
  /// old row but not the new one (or vice versa); dependency detection must
  /// see both.
  TablePtr rows;
  /// The UNTIL DELTA count: for each changed key, the larger of its current
  /// rows equal to no previous row of the key and its previous rows equal
  /// to no current row of the key. So a vanished key counts its previous
  /// rows, and a new key its current rows.
  int64_t count = 0;
};

/// A set of keys and the index over it, kept together because the index
/// points into the table's column. A delta loop's affected-key set is
/// indexed once per iteration as one of these (LoopState::affected).
struct KeySet {
  /// Indexes column 0 of `keys` for probes of type `probe_type`, NULL
  /// matching NULL.
  KeySet(TablePtr keys, TypeId probe_type);

  TablePtr table;
  RowIndex index;
};

struct MergeResult {
  TablePtr merged;  ///< `cte` itself when no row changed
  int64_t updated_rows = 0;  ///< rows whose values actually changed
};

/// Merges `working` into `cte` by equality on `key_col` (same ordinal in
/// both tables; schemas must be type-compatible). With `changes`, also
/// fills in the change set from `cte` to the merged table; its count equals
/// `updated_rows`, since every row of a key takes the same working row.
///
/// Fails with ExecutionError if `working` contains two rows with the same
/// key — the paper's mandated runtime error for ambiguous updates (§II).
/// Working rows whose key does not exist in `cte` are ignored (iterative
/// CTEs update rows; they do not grow the main table).
Result<MergeResult> MergeUpdateTables(const TablePtr& cte,
                                      const Table& working, size_t key_col,
                                      ChangeSet* changes = nullptr);

/// The change set from `prev` to `current`, keyed by `key_col`. With
/// `keys`, only the keys in that set are compared: the caller knows that
/// every other key kept its rows, as the carry of a delta loop's rename
/// path guarantees. Without it, every key is.
ChangeSet DiffVersions(const Table& prev, const Table& current,
                       size_t key_col, const KeySet* keys = nullptr);

}  // namespace dbspinner
