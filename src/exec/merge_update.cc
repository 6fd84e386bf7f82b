#include "exec/merge_update.h"

#include <algorithm>
#include <cmath>

namespace dbspinner {

namespace {

// Row equality as DISTINCT compares rows: ColumnVector::EqualsAt, except
// that NaN equals NaN. A row that keeps a NaN has not changed; were it
// otherwise, it would count as a change on every iteration, and a change
// set built from the rows a write touched could not agree with a diff of
// whole versions.
bool RowsEqual(const Table& a, size_t ar, const Table& b, size_t br) {
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const ColumnVector& x = a.column(c);
    const ColumnVector& y = b.column(c);
    if (x.EqualsAt(ar, y, br)) continue;
    if (x.type() != TypeId::kDouble || y.type() != TypeId::kDouble ||
        x.IsNull(ar) || y.IsNull(br) || !std::isnan(x.DoubleAt(ar)) ||
        !std::isnan(y.DoubleAt(br))) {
      return false;
    }
  }
  return true;
}

// Rows `prev_ids` of `prev`, then rows `cur_ids` of `current`, in the
// schema of `current`.
TablePtr GatherBoth(const Table& prev, const std::vector<uint32_t>& prev_ids,
                    const Table& current,
                    const std::vector<uint32_t>& cur_ids) {
  std::vector<ColumnVectorPtr> cols;
  cols.reserve(current.num_columns());
  for (size_t c = 0; c < current.num_columns(); ++c) {
    auto col = std::make_shared<ColumnVector>(current.schema().column(c).type);
    col->Reserve(prev_ids.size() + cur_ids.size());
    col->AppendGathered(prev.column(c), prev_ids);
    col->AppendGathered(current.column(c), cur_ids);
    cols.push_back(std::move(col));
  }
  return Table::FromColumns(current.schema(), std::move(cols));
}

// The rows of one version chained by key: head[g] is the first row of
// group g, next[r] the row after r in its group, kNoMatch ends a chain.
struct Chains {
  std::vector<uint32_t> head;
  std::vector<uint32_t> next;
};

// Chains each row of `t` under the group that `index` finds for its key
// (the group's lowest build row, below `num_groups`). A row whose key the
// index lacks goes to `*missing` when that is given, ascending.
Chains ChainByKey(const Table& t, size_t key_col, const RowIndex& index,
                  size_t num_groups, std::vector<uint32_t>* missing) {
  const KeyColumns keys{&t.column(key_col)};
  RowIndex scratch;
  const RowIndex& fit = index.Fit(keys, &scratch);
  Chains chains{std::vector<uint32_t>(num_groups, kNoMatch),
                std::vector<uint32_t>(t.num_rows(), kNoMatch)};
  // Descending rows, each prepended to its chain: chains end up ascending.
  for (size_t r = t.num_rows(); r-- > 0;) {
    const uint32_t g = fit.Find(keys, r);
    if (g == kNoMatch) {
      if (missing != nullptr) missing->push_back(static_cast<uint32_t>(r));
      continue;
    }
    chains.next[r] = chains.head[g];
    chains.head[g] = static_cast<uint32_t>(r);
  }
  if (missing != nullptr) std::reverse(missing->begin(), missing->end());
  return chains;
}

void WalkChain(const Chains& chains, uint32_t g, std::vector<uint32_t>* out) {
  out->clear();
  for (uint32_t r = chains.head[g]; r != kNoMatch; r = chains.next[r]) {
    out->push_back(r);
  }
}

// Compares one key's rows `p` of `prev` with its rows `c` of `current`.
// When the key's row multiset changed, appends both lists to the change
// set's ids. Returns the key's UNTIL DELTA count (0 when unchanged).
int64_t DiffKey(const Table& prev, const std::vector<uint32_t>& p,
                const Table& current, const std::vector<uint32_t>& c,
                std::vector<uint32_t>* prev_ids,
                std::vector<uint32_t>* cur_ids) {
  int64_t count = 0;
  bool same;
  if (p.size() == 1 && c.size() == 1) {
    same = RowsEqual(prev, p[0], current, c[0]);
    count = same ? 0 : 1;
  } else {
    auto unmatched = [](const Table& a, const std::vector<uint32_t>& as,
                        const Table& b, const std::vector<uint32_t>& bs) {
      int64_t n = 0;
      for (uint32_t ar : as) {
        bool found = false;
        for (uint32_t br : bs) {
          if (RowsEqual(a, ar, b, br)) {
            found = true;
            break;
          }
        }
        if (!found) ++n;
      }
      return n;
    };
    const int64_t cur_unmatched = unmatched(current, c, prev, p);
    const int64_t prev_unmatched = unmatched(prev, p, current, c);
    count = std::max(cur_unmatched, prev_unmatched);
    // Equal multisets: pair every current row with its own previous row.
    same = p.size() == c.size() && count == 0;
    std::vector<char> used(p.size(), 0);
    for (size_t i = 0; same && i < c.size(); ++i) {
      same = false;
      for (size_t k = 0; k < p.size(); ++k) {
        if (!used[k] && RowsEqual(prev, p[k], current, c[i])) {
          used[k] = 1;
          same = true;
          break;
        }
      }
    }
  }
  if (!same) {
    prev_ids->insert(prev_ids->end(), p.begin(), p.end());
    cur_ids->insert(cur_ids->end(), c.begin(), c.end());
  }
  return count;
}

}  // namespace

KeySet::KeySet(TablePtr keys, TypeId probe_type)
    : table(std::move(keys)),
      index(RowIndex::Build({&table->column(0)}, {probe_type},
                            RowIndex::Nulls::kMatch)) {}

Result<MergeResult> MergeUpdateTables(const TablePtr& cte_ptr,
                                      const Table& working, size_t key_col,
                                      ChangeSet* changes) {
  const Table& cte = *cte_ptr;
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
  // Every CTE row of a key takes the same working row: a key changed when
  // any of its rows did.
  std::vector<char> key_changed(changes != nullptr ? working.num_rows() : 0);
  for (uint32_t i = 0; i < cte.num_rows(); ++i) {
    uint32_t match = index.Find(cte_keys, i);
    if (match == kNoMatch) continue;
    if (!RowsEqual(cte, i, working, match)) {
      ++result.updated_rows;
      if (changes != nullptr) key_changed[match] = 1;
    }
    rows.push_back(i);
    from.push_back(match);
  }
  if (result.updated_rows == 0) {
    result.merged = cte_ptr;
    if (changes != nullptr) *changes = ChangeSet{Table::Make(cte.schema()), 0};
    return result;
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
  if (changes != nullptr) {
    // All rows of a changed key enter the change set. Per key, the previous
    // rows equal to no current row are the ones that differ, and the
    // current rows (copies of one working row) equal no previous row only
    // when all of them differ: the key counts its differing rows, and the
    // change set `updated_rows`.
    std::vector<uint32_t> ids;
    for (size_t k = 0; k < rows.size(); ++k) {
      if (key_changed[from[k]]) ids.push_back(rows[k]);
    }
    *changes = ChangeSet{GatherBoth(cte, ids, *result.merged, ids),
                         result.updated_rows};
  }
  return result;
}

ChangeSet DiffVersions(const Table& prev, const Table& current,
                       size_t key_col, const KeySet* keys) {
  // Group ids come from one index: the key set's, or one over the current
  // version's keys, where a previous row whose key is missing belongs to
  // a vanished key.
  RowIndex own;
  if (keys == nullptr) {
    const KeyColumns cur_keys{&current.column(key_col)};
    own = RowIndex::Build(cur_keys, KeyTypes(cur_keys),
                          RowIndex::Nulls::kMatch);
  }
  const RowIndex& index = keys != nullptr ? keys->index : own;
  const size_t num_groups =
      keys != nullptr ? keys->table->num_rows() : current.num_rows();
  std::vector<uint32_t> vanished;
  const Chains before = ChainByKey(prev, key_col, index, num_groups,
                                   keys == nullptr ? &vanished : nullptr);
  const Chains after = ChainByKey(current, key_col, index, num_groups, nullptr);

  std::vector<uint32_t> prev_ids, cur_ids, p, c;
  int64_t count = 0;
  for (uint32_t g = 0; g < num_groups; ++g) {
    if (before.head[g] == kNoMatch && after.head[g] == kNoMatch) continue;
    WalkChain(before, g, &p);
    WalkChain(after, g, &c);
    count += DiffKey(prev, p, current, c, &prev_ids, &cur_ids);
  }
  // A vanished key counts each of its previous rows.
  prev_ids.insert(prev_ids.end(), vanished.begin(), vanished.end());
  count += static_cast<int64_t>(vanished.size());
  return ChangeSet{GatherBoth(prev, prev_ids, current, cur_ids), count};
}

}  // namespace dbspinner
