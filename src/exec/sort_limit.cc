#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "exec/physical_plan.h"
#include "exec/pipeline.h"
#include "expr/vector_eval.h"

namespace dbspinner {

namespace {

/// One ORDER BY key over its evaluated column, resolved once per sort.
struct SortKey {
  TypeId type;
  bool nullable;  ///< the column holds a NULL
  bool descending;
  const int64_t* ints;  ///< INT64 and BOOL
  const double* doubles;
  const std::string* strings;
  const uint8_t* nulls;

  /// Three-way compare of rows a and b on this key, typed T: NULLs first,
  /// then the CompareScalars order, flipped for DESC (so NULLs come last
  /// under DESC). kNullable false skips the NULL check.
  template <typename T, bool kNullable>
  int Compare(uint32_t a, uint32_t b) const {
    int c;
    if (kNullable && (nulls[a] | nulls[b])) {
      c = int{nulls[b]} - int{nulls[a]};
    } else if constexpr (std::is_same_v<T, int64_t>) {
      c = CompareScalars(ints[a], ints[b]);
    } else if constexpr (std::is_same_v<T, double>) {
      c = CompareScalars(doubles[a], doubles[b]);
    } else {
      c = CompareScalars(strings[a], strings[b]);
    }
    return descending ? -c : c;
  }

  /// The same compare, dispatched on the key's type at run time.
  int Compare(uint32_t a, uint32_t b) const;
};

/// Calls fn.template operator()<T, kNullable>() with the typed-compare
/// parameters of `key`: T is int64_t (INT64, BOOL), double or std::string.
template <typename Fn>
auto WithKeyType(const SortKey& key, Fn&& fn) {
  switch (key.type) {
    case TypeId::kDouble:
      return key.nullable ? fn.template operator()<double, true>()
                          : fn.template operator()<double, false>();
    case TypeId::kString:
      return key.nullable ? fn.template operator()<std::string, true>()
                          : fn.template operator()<std::string, false>();
    default:
      return key.nullable ? fn.template operator()<int64_t, true>()
                          : fn.template operator()<int64_t, false>();
  }
}

int SortKey::Compare(uint32_t a, uint32_t b) const {
  return WithKeyType(*this, [&]<typename T, bool kNullable>() {
    return Compare<T, kNullable>(a, b);
  });
}

SortKey MakeSortKey(const ColumnVector& col, bool descending) {
  const std::vector<uint8_t>& nulls = col.nulls();
  return SortKey{col.type(),
                 std::find(nulls.begin(), nulls.end(), 1) != nulls.end(),
                 descending,
                 col.ints().data(),
                 col.doubles().data(),
                 col.strings().data(),
                 nulls.data()};
}

/// Top-N: keeps the first `limit` rows of the order of `keys` in
/// `order`, ties on every key in input order. The first key's compare is
/// inlined.
template <typename T, bool kNullable>
void SelectTopRows(const std::vector<SortKey>& keys, size_t limit,
                   std::vector<uint32_t>* order) {
  const SortKey& first = keys[0];
  auto less = [&](uint32_t a, uint32_t b) {
    int c = first.Compare<T, kNullable>(a, b);
    for (size_t k = 1; c == 0 && k < keys.size(); ++k) {
      c = keys[k].Compare(a, b);
    }
    return c != 0 ? c < 0 : a < b;
  };
  std::partial_sort(order->begin(), order->begin() + limit, order->end(),
                    less);
  order->resize(limit);
}

void SortRange(const std::vector<SortKey>& keys, size_t k, uint32_t* begin,
               uint32_t* end);

/// One level of SortRange on key k with its compare inlined: a stable
/// sort of the range by key k, then of each run of rows equal on it by the
/// next keys. Rows equal on every key keep their input order.
template <typename T, bool kNullable>
void SortLevel(const std::vector<SortKey>& keys, size_t k, uint32_t* begin,
               uint32_t* end) {
  const SortKey& key = keys[k];
  auto compare = [&key](uint32_t a, uint32_t b) {
    return key.Compare<T, kNullable>(a, b);
  };
  std::stable_sort(begin, end,
                   [&](uint32_t a, uint32_t b) { return compare(a, b) < 0; });
  if (k + 1 == keys.size()) return;
  for (uint32_t* run = begin; run != end;) {
    uint32_t* run_end = run + 1;
    while (run_end != end && compare(*run, *run_end) == 0) ++run_end;
    SortRange(keys, k + 1, run, run_end);
    run = run_end;
  }
}

/// Sorts order[begin, end) by keys k, k + 1, ... one key at a time, most
/// significant first. Every level is a sort with one typed compare
/// inlined, which also makes keys with many ties cheap.
void SortRange(const std::vector<SortKey>& keys, size_t k, uint32_t* begin,
               uint32_t* end) {
  if (end - begin < 2) return;
  WithKeyType(keys[k], [&]<typename T, bool kNullable>() {
    SortLevel<T, kNullable>(keys, k, begin, end);
  });
}

}  // namespace

std::string PhysicalSort::Describe() const {
  return top_n_ < 0 ? "" : "top " + std::to_string(top_n_);
}

Result<TablePtr> PhysicalSort::Execute(ExecContext& ctx) const {
  DBSP_ASSIGN_OR_RETURN(TablePtr input, ExecuteOp(*children_[0], ctx));
  size_t n = input->num_rows();

  // Evaluate key expressions once and resolve each to a typed compare. An
  // all-NULL (NULL-typed) key orders nothing and is dropped.
  std::vector<ColumnVectorPtr> key_cols;
  std::vector<SortKey> keys;
  key_cols.reserve(keys_.size());
  for (const auto& k : keys_) {
    DBSP_ASSIGN_OR_RETURN(ColumnVectorPtr col,
                          CompiledExpr(*k.expr).Evaluate(
                              EvalInput(*input, RowSet::Window(0, n))));
    if (col->type() == TypeId::kNull) continue;
    keys.push_back(MakeSortKey(*col, k.descending));
    key_cols.push_back(std::move(col));
  }

  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  const size_t limit = top_n_ < 0 ? n : static_cast<size_t>(top_n_);
  if (keys.empty()) {
    order.resize(std::min(n, limit));
  } else if (limit < n) {
    WithKeyType(keys[0], [&]<typename T, bool kNullable>() {
      SelectTopRows<T, kNullable>(keys, limit, &order);
    });
  } else {
    SortRange(keys, 0, order.data(), order.data() + n);
  }
  TablePtr out = input->Gather(order);
  ctx.stats.rows_materialized += static_cast<int64_t>(out->num_rows());
  return out;
}

Result<TablePtr> PhysicalLimit::Execute(ExecContext& ctx) const {
  DBSP_ASSIGN_OR_RETURN(TablePtr input, ExecuteOp(*children_[0], ctx));
  int64_t n = static_cast<int64_t>(input->num_rows());
  int64_t begin = std::min(offset_, n);
  int64_t end = limit_ < 0 ? n : std::min(n, begin + limit_);
  if (begin == 0 && end == n) return input;
  std::vector<uint32_t> sel;
  sel.reserve(static_cast<size_t>(end - begin));
  for (int64_t i = begin; i < end; ++i) {
    sel.push_back(static_cast<uint32_t>(i));
  }
  return input->Gather(sel);
}

}  // namespace dbspinner
