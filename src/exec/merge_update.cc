#include "exec/merge_update.h"

#include "exec/row_index.h"

namespace dbspinner {

namespace {

bool RowsEqual(const Table& a, size_t ar, const Table& b, size_t br) {
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (!a.column(c).EqualsAt(ar, b.column(c), br)) return false;
  }
  return true;
}

}  // namespace

Result<MergeResult> MergeUpdateTables(const Table& cte, const Table& working,
                                      size_t key_col) {
  const KeyColumns cte_keys{&cte.column(key_col)};
  const KeyColumns working_keys{&working.column(key_col)};
  RowIndex index(working_keys, KeyTypes(cte_keys), RowIndex::Nulls::kMatch,
                 working.num_rows(), working.num_rows());
  for (uint32_t i = 0; i < working.num_rows(); ++i) {
    if (index.FindOrInsert(working_keys, i, i) != i) {
      return Status::ExecutionError(
          "iterative CTE produced duplicate updates for key " +
          working.GetValue(i, key_col).ToString() +
          "; resolve duplicates in the iterative part (e.g. with GROUP BY)");
    }
  }

  // Resolve every match first, then assemble each column in one pass: the
  // CTE column whole, with the matched rows overwritten from `working`.
  MergeResult result;
  std::vector<uint32_t> rows, from;
  for (uint32_t i = 0; i < cte.num_rows(); ++i) {
    uint32_t match = index.Find(cte_keys, i);
    if (match == kNoMatch) continue;
    if (!RowsEqual(cte, i, working, match)) ++result.updated_rows;
    rows.push_back(i);
    from.push_back(match);
  }
  std::vector<ColumnVectorPtr> cols;
  cols.reserve(cte.num_columns());
  for (size_t c = 0; c < cte.num_columns(); ++c) {
    auto col = std::make_shared<ColumnVector>(cte.schema().column(c).type);
    col->AppendAll(cte.column(c));
    col->OverwriteRows(rows, working.column(c), from);
    cols.push_back(std::move(col));
  }
  result.merged = Table::FromColumns(cte.schema(), std::move(cols));
  return result;
}

int64_t CountChangedRows(const Table& prev, const Table& current,
                         size_t key_col) {
  const KeyColumns cur_keys{&current.column(key_col)};
  const RowIndex index = RowIndex::Build(
      {&prev.column(key_col)}, KeyTypes(cur_keys), RowIndex::Nulls::kMatch);
  int64_t changed = 0;
  // A current row counts unless some previous row of its key equals it (a
  // key may hold several rows). A previous row counts only when its whole
  // key is gone, so the count never exceeds the rows of both versions.
  std::vector<char> key_kept(prev.num_rows(), 0);
  for (size_t i = 0; i < current.num_rows(); ++i) {
    bool same = false;
    for (uint32_t r = index.Find(cur_keys, i); r != kNoMatch;
         r = index.Next(r)) {
      key_kept[r] = 1;
      same = same || RowsEqual(prev, r, current, i);
    }
    if (!same) ++changed;
  }
  for (size_t i = 0; i < prev.num_rows(); ++i) {
    if (!key_kept[i]) ++changed;
  }
  return changed;
}

TablePtr BuildChangedRowsTable(const Table& prev, const Table& current,
                               size_t key_col) {
  auto delta = Table::Make(current.schema());
  const KeyColumns cur_keys{&current.column(key_col)};
  const std::vector<TypeId> types = KeyTypes(cur_keys);
  const RowIndex prev_idx = RowIndex::Build({&prev.column(key_col)}, types,
                                            RowIndex::Nulls::kMatch);
  const RowIndex cur_idx =
      RowIndex::Build(cur_keys, types, RowIndex::Nulls::kMatch);

  std::vector<char> prev_visited(prev.num_rows(), 0);
  std::vector<char> cur_visited(current.num_rows(), 0);
  std::vector<uint32_t> prev_rows, cur_rows;
  std::vector<char> used;
  for (size_t i = 0; i < current.num_rows(); ++i) {
    if (cur_visited[i]) continue;
    // Gather every row of this key from both versions.
    prev_rows.clear();
    cur_rows.clear();
    for (uint32_t r = cur_idx.Find(cur_keys, i); r != kNoMatch;
         r = cur_idx.Next(r)) {
      cur_visited[r] = 1;
      cur_rows.push_back(r);
    }
    for (uint32_t r = prev_idx.Find(cur_keys, i); r != kNoMatch;
         r = prev_idx.Next(r)) {
      prev_visited[r] = 1;
      prev_rows.push_back(r);
    }
    // Multiset comparison (duplicate keys are rare; per-key sets are tiny).
    bool same = prev_rows.size() == cur_rows.size();
    if (same) {
      used.assign(prev_rows.size(), 0);
      for (uint32_t cr : cur_rows) {
        bool found = false;
        for (size_t p = 0; p < prev_rows.size(); ++p) {
          if (!used[p] && RowsEqual(prev, prev_rows[p], current, cr)) {
            used[p] = 1;
            found = true;
            break;
          }
        }
        if (!found) {
          same = false;
          break;
        }
      }
    }
    if (!same) {
      for (uint32_t pr : prev_rows) delta->AppendRowFrom(prev, pr);
      for (uint32_t cr : cur_rows) delta->AppendRowFrom(current, cr);
    }
  }
  // Keys that disappeared entirely.
  for (size_t i = 0; i < prev.num_rows(); ++i) {
    if (!prev_visited[i]) delta->AppendRowFrom(prev, i);
  }
  return delta;
}

}  // namespace dbspinner
