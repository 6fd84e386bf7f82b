// Change sets of a loop's writes (exec/merge_update.h): the merge's own, and
// DiffVersions over the whole versions or over a key set, checked against a
// naive quadratic reference built only on ColumnVector::EqualsAt (NaN
// equal to NaN, as DISTINCT compares rows).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "exec/merge_update.h"

namespace dbspinner {
namespace {

Schema KeyedSchema(TypeId key_type) {
  Schema s;
  s.AddColumn("k", key_type);
  s.AddColumn("v", TypeId::kDouble);
  s.AddColumn("w", TypeId::kInt64);
  return s;
}

// --- the reference ----------------------------------------------------------

bool IsNaN(const ColumnVector& col, size_t r) {
  return col.type() == TypeId::kDouble && !col.IsNull(r) &&
         std::isnan(col.DoubleAt(r));
}

// EqualsAt on every column, NaN equal to NaN (as DISTINCT compares rows).
bool RowsEq(const Table& a, size_t i, const Table& b, size_t j) {
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const bool nan = IsNaN(a.column(c), i) && IsNaN(b.column(c), j);
    if (!nan && !a.column(c).EqualsAt(i, b.column(c), j)) return false;
  }
  return true;
}

// Row `r` of `t` spelled out exactly: a double by its bits, so NaN equals
// NaN and -0.0 differs from 0.0.
std::string RowString(const Table& t, size_t r) {
  std::string s;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const ColumnVector& col = t.column(c);
    if (col.IsNull(r)) {
      s += "N|";
    } else if (col.type() == TypeId::kDouble) {
      uint64_t bits;
      double d = col.DoubleAt(r);
      std::memcpy(&bits, &d, sizeof bits);
      s += "D" + std::to_string(bits) + "|";
    } else {
      s += "I" + std::to_string(col.Int64At(r)) + "|";
    }
  }
  return s;
}

std::vector<std::string> SortedRows(const Table& t) {
  std::vector<std::string> rows;
  for (size_t r = 0; r < t.num_rows(); ++r) rows.push_back(RowString(t, r));
  std::sort(rows.begin(), rows.end());
  return rows;
}

struct NaiveChanges {
  std::vector<std::string> rows;
  int64_t count = 0;
};

// For every distinct key (EqualsAt on column 0): when its rows in `prev`
// and `current` differ as multisets, emit both and count the larger of
// the current rows equal to no previous row and the previous rows equal to
// no current row.
NaiveChanges NaiveDiff(const Table& prev, const Table& current) {
  auto out = Table::Make(current.schema());
  std::vector<std::pair<const Table*, size_t>> reps;
  for (const Table* t : {&prev, &current}) {
    for (size_t r = 0; r < t->num_rows(); ++r) {
      bool seen = false;
      for (const auto& [rt, rr] : reps) {
        seen = seen || rt->column(0).EqualsAt(rr, t->column(0), r);
      }
      if (!seen) reps.emplace_back(t, r);
    }
  }
  int64_t count = 0;
  for (const auto& [rt, rr] : reps) {
    auto rows_of = [&](const Table& t) {
      std::vector<size_t> rows;
      for (size_t r = 0; r < t.num_rows(); ++r) {
        if (rt->column(0).EqualsAt(rr, t.column(0), r)) rows.push_back(r);
      }
      return rows;
    };
    const std::vector<size_t> p = rows_of(prev);
    const std::vector<size_t> c = rows_of(current);
    int64_t cur_unmatched = 0, prev_unmatched = 0;
    for (size_t i : c) {
      bool found = false;
      for (size_t j : p) found = found || RowsEq(current, i, prev, j);
      if (!found) ++cur_unmatched;
    }
    for (size_t j : p) {
      bool found = false;
      for (size_t i : c) found = found || RowsEq(prev, j, current, i);
      if (!found) ++prev_unmatched;
    }
    bool same = p.size() == c.size();
    std::vector<bool> used(p.size(), false);
    for (size_t i = 0; same && i < c.size(); ++i) {
      same = false;
      for (size_t k = 0; k < p.size() && !same; ++k) {
        if (!used[k] && RowsEq(current, c[i], prev, p[k])) {
          used[k] = true;
          same = true;
        }
      }
    }
    if (!same) {
      for (size_t j : p) out->AppendRowFrom(prev, j);
      for (size_t i : c) out->AppendRowFrom(current, i);
      count += std::max(cur_unmatched, prev_unmatched);
    }
  }
  return NaiveChanges{SortedRows(*out), count};
}

// --- random versions --------------------------------------------------------

// A key in {NULL, 0, ..., max}, as a value of `type`.
Value KeyValue(TypeId type, std::optional<int> key) {
  if (!key) return Value::Null(type);
  return type == TypeId::kInt64 ? Value::Int64(*key) : Value::Double(*key);
}

class Gen {
 public:
  explicit Gen(uint64_t seed) : rng_(seed) {}

  int Below(int n) { return static_cast<int>(rng_() % n); }
  bool OneIn(int n) { return Below(n) == 0; }
  TypeId KeyType() { return OneIn(2) ? TypeId::kInt64 : TypeId::kDouble; }

  std::optional<int> Key(int max) {
    if (OneIn(6)) return std::nullopt;
    return Below(max + 1);
  }

  // A row of `t`'s schema with key `key` and random values: v among NULL,
  // NaN, -0.0, 0.0, 1.0, 2.0; w among NULL, 0, 1, 2.
  void AppendRow(Table* t, std::optional<int> key) {
    static const double kValues[] = {
        std::numeric_limits<double>::quiet_NaN(), -0.0, 0.0, 1.0, 2.0};
    const int v = Below(6);
    const int w = Below(4);
    t->AppendRow({KeyValue(t->schema().column(0).type, key),
                  v == 5 ? Value::Null(TypeId::kDouble)
                         : Value::Double(kValues[v]),
                  w == 3 ? Value::Null(TypeId::kInt64) : Value::Int64(w)});
  }

  TablePtr RandomTable(TypeId key_type, int max_rows, int max_key) {
    auto t = Table::Make(KeyedSchema(key_type));
    const int n = Below(max_rows + 1);
    for (int i = 0; i < n; ++i) AppendRow(t.get(), Key(max_key));
    return t;
  }

 private:
  std::mt19937_64 rng_;
};

// Rows of `t` whose key equals row `at` of `key` (EqualsAt; NULL equals
// NULL).
std::vector<size_t> RowsWithKey(const Table& t, const ColumnVector& key,
                                size_t at) {
  std::vector<size_t> rows;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (key.EqualsAt(at, t.column(0), r)) rows.push_back(r);
  }
  return rows;
}

TablePtr KeyColumnTable(TypeId type,
                        const std::vector<std::optional<int>>& keys) {
  Schema s;
  s.AddColumn("k", type);
  auto t = Table::Make(s);
  for (const auto& k : keys) t->AppendRow({KeyValue(type, k)});
  return t;
}

// --- tests ------------------------------------------------------------------

// Previous {(1,1),(1,2)} against current {(1,1),(1,1)}: every current row
// equals a previous row, but (1,2) equals no current row, so the key
// counts 1, and both versions of key 1 are in the change set.
TEST(ChangeSetTest, DroppedRowOfDuplicatedKeyCountsOne) {
  Schema s;
  s.AddColumn("k", TypeId::kInt64);
  s.AddColumn("v", TypeId::kInt64);
  auto prev = Table::Make(s);
  prev->AppendRow({Value::Int64(1), Value::Int64(1)});
  prev->AppendRow({Value::Int64(1), Value::Int64(2)});
  auto cur = Table::Make(s);
  cur->AppendRow({Value::Int64(1), Value::Int64(1)});
  cur->AppendRow({Value::Int64(1), Value::Int64(1)});
  ChangeSet changes = DiffVersions(*prev, *cur, 0);
  EXPECT_EQ(changes.count, 1);
  EXPECT_EQ(changes.rows->num_rows(), 4u);
  // Over a key set holding key 1, the same.
  KeySet keys(KeyColumnTable(TypeId::kInt64, {1}), TypeId::kInt64);
  ChangeSet restricted = DiffVersions(*prev, *cur, 0, &keys);
  EXPECT_EQ(restricted.count, 1);
  EXPECT_EQ(restricted.rows->num_rows(), 4u);
}

TEST(ChangeSetTest, MergeWithoutChangesRepublishesTheCte) {
  Schema s = KeyedSchema(TypeId::kInt64);
  auto cte = Table::Make(s);
  cte->AppendRow({Value::Int64(1), Value::Double(1.0), Value::Int64(1)});
  cte->AppendRow({Value::Int64(2), Value::Double(0.0), Value::Int64(2)});
  auto working = Table::Make(s);
  working->AppendRow({Value::Int64(2), Value::Double(-0.0), Value::Int64(2)});
  ChangeSet changes;
  auto merged = MergeUpdateTables(cte, *working, 0, &changes);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->updated_rows, 0);
  EXPECT_EQ(merged->merged, cte);
  EXPECT_EQ(changes.count, 0);
  EXPECT_EQ(changes.rows->num_rows(), 0u);
}

// The merge's change set against the reference over the CTE and the merged
// table: duplicate and NULL CTE keys, working keys absent from the CTE,
// INT64 against DOUBLE keys, NaN and -0.0 values.
TEST(ChangeSetTest, MergeChangeSetMatchesNaiveDiff) {
  Gen gen(24);
  for (int round = 0; round < 400; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    TablePtr cte = gen.RandomTable(gen.KeyType(), 12, 5);
    // Working: distinct keys of {NULL, 0..7}; a key of the CTE now and
    // then keeps one of its CTE rows, so some merges change nothing.
    auto working = Table::Make(KeyedSchema(gen.KeyType()));
    std::vector<std::optional<int>> keys = {std::nullopt};
    for (int k = 0; k <= 7; ++k) keys.push_back(k);
    const TypeId working_key = working->schema().column(0).type;
    for (const auto& key : keys) {
      if (!gen.OneIn(2)) continue;
      auto probe = KeyColumnTable(working_key, {key});
      std::vector<size_t> same = RowsWithKey(*cte, probe->column(0), 0);
      if (!same.empty() && !gen.OneIn(3)) {
        const size_t r = same[gen.Below(static_cast<int>(same.size()))];
        working->AppendRow({KeyValue(working_key, key), cte->GetValue(r, 1),
                            cte->GetValue(r, 2)});
      } else {
        gen.AppendRow(working.get(), key);
      }
    }
    ChangeSet changes;
    auto merged = MergeUpdateTables(cte, *working, 0, &changes);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    NaiveChanges want = NaiveDiff(*cte, *merged->merged);
    EXPECT_EQ(SortedRows(*changes.rows), want.rows);
    EXPECT_EQ(changes.count, want.count);
    EXPECT_EQ(changes.count, merged->updated_rows);
    if (merged->updated_rows == 0) {
      EXPECT_EQ(merged->merged, cte);
    }
  }
}

// A rename with a carry: the new version is some rows for the keys of an
// affected set (any number per key, some equal to old rows) followed by
// every old row of the other keys. DiffVersions over the key set and over
// the whole versions both match the reference.
TEST(ChangeSetTest, RenameWithCarryChangeSetMatchesNaiveDiff) {
  Gen gen(42);
  for (int round = 0; round < 400; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const TypeId key_type = gen.KeyType();
    TablePtr prev = gen.RandomTable(key_type, 12, 5);
    std::vector<std::optional<int>> affected;
    if (gen.OneIn(3)) affected.push_back(std::nullopt);
    for (int k = 0; k <= 7; ++k) {
      if (gen.OneIn(2)) affected.push_back(k);
    }
    TablePtr key_table = KeyColumnTable(key_type, affected);

    auto cur = Table::Make(KeyedSchema(gen.KeyType()));
    for (size_t a = 0; a < affected.size(); ++a) {
      std::vector<size_t> old = RowsWithKey(*prev, key_table->column(0), a);
      const int n = gen.Below(4);
      for (int i = 0; i < n; ++i) {
        if (!old.empty() && gen.OneIn(2)) {
          const int pick = gen.Below(static_cast<int>(old.size()));
          cur->AppendRowFrom(*prev, old[pick]);
        } else {
          gen.AppendRow(cur.get(), affected[a]);
        }
      }
    }
    for (size_t r = 0; r < prev->num_rows(); ++r) {
      bool in_set = false;
      for (size_t a = 0; a < affected.size(); ++a) {
        in_set = in_set ||
                 key_table->column(0).EqualsAt(a, prev->column(0), r);
      }
      if (!in_set) cur->AppendRowFrom(*prev, r);
    }

    NaiveChanges want = NaiveDiff(*prev, *cur);
    KeySet keys(key_table, key_type);
    ChangeSet restricted = DiffVersions(*prev, *cur, 0, &keys);
    EXPECT_EQ(SortedRows(*restricted.rows), want.rows);
    EXPECT_EQ(restricted.count, want.count);
    ChangeSet whole = DiffVersions(*prev, *cur, 0);
    EXPECT_EQ(SortedRows(*whole.rows), want.rows);
    EXPECT_EQ(whole.count, want.count);
  }
}

}  // namespace
}  // namespace dbspinner
