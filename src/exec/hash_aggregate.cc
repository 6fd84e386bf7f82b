#include "exec/hash_aggregate.h"

#include <cmath>
#include <type_traits>

namespace dbspinner {

namespace {

using AggColumn = GroupedAggregator::AggColumn;

/// One input column of a chunk: chunk position i is row sel[i] of `col`,
/// or row begin + i when there is no selection.
struct Input {
  const ColumnVector* col = nullptr;
  const uint32_t* sel = nullptr;
  uint32_t begin = 0;
};

/// Position i of `chunk` in one of its base columns.
Input BaseInput(const DataChunk& chunk, size_t column) {
  return Input{&chunk.table().column(column),
               chunk.contiguous() ? nullptr : chunk.selection().data(),
               chunk.contiguous() ? chunk.begin() : 0};
}

/// A plain reference to a base column of the expression's own type: read
/// in place.
bool IsBaseColumn(const BoundExpr& expr, const DataChunk& chunk) {
  return expr.kind == BoundExprKind::kColumnRef &&
         chunk.table().column(expr.column_index).type() == expr.type;
}

/// Calls fn(i, row) for every chunk position i with its row in `in`.
template <typename Fn>
void ForEachRow(const Input& in, size_t n, Fn&& fn) {
  if (in.sel != nullptr) {
    for (size_t i = 0; i < n; ++i) fn(i, in.sel[i]);
  } else {
    for (uint32_t i = 0; i < n; ++i) fn(i, in.begin + i);
  }
}

/// Calls fn(group, row) for every chunk row whose value in `in` is not
/// NULL.
template <typename Fn>
void ForEachValue(const Input& in, const std::vector<uint32_t>& gids,
                  Fn&& fn) {
  const uint8_t* nulls = in.col->nulls().data();
  ForEachRow(in, gids.size(), [&](size_t i, uint32_t r) {
    if (!nulls[r]) fn(gids[i], r);
  });
}

// The MIN/MAX extremes of `s` for inputs of type T.
template <typename T>
auto& Extremes(AggColumn* s) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return s->iext;
  } else if constexpr (std::is_same_v<T, double>) {
    return s->dext;
  } else {
    return s->sext;
  }
}
// The DISTINCT seen-sets of `s` for inputs of type T.
template <typename T>
auto& Seen(AggColumn* s) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return s->iseen;
  } else if constexpr (std::is_same_v<T, double>) {
    return s->dseen;
  } else {
    return s->sseen;
  }
}

/// Folds non-NULL input `v` into group `g` of `s` with the kind's fold
/// step (expr/aggregate_functions.h).
template <AggKind K, typename T>
void FoldInto(AggColumn* s, uint32_t g, const T& v) {
  if constexpr (K == AggKind::kCount) {
    ++s->count[g];
  } else if constexpr (K == AggKind::kMin || K == AggKind::kMax) {
    std::vector<T>& ext = Extremes<T>(s);
    if (!s->has[g] || ReplacesExtreme(K, v, ext[g])) {
      ext[g] = v;
      s->has[g] = 1;
    }
  } else if constexpr (K == AggKind::kSum && std::is_same_v<T, int64_t>) {
    ++s->count[g];
    AddToIntSum(&s->isum[g], v);
  } else {
    ++s->count[g];
    AddToSum(&s->sum[g], static_cast<double>(v));
    if constexpr (K == AggKind::kStdDev || K == AggKind::kVariance) {
      AddToSumOfSquares(&s->sumsq[g], static_cast<double>(v));
    }
  }
}

/// Unfolds non-NULL input `v` from group `g` of `s`, the inverse of
/// FoldInto. Returns false when that cannot be done exactly: nothing left
/// to retract, or a MIN/MAX input that ties or beats the running extreme
/// (it may hide a survivor the state never kept).
template <AggKind K, typename T>
bool RetractFrom(AggColumn* s, uint32_t g, const T& v) {
  if constexpr (K == AggKind::kMin || K == AggKind::kMax) {
    if (!s->has[g]) return false;
    const int c = CompareScalars(v, Extremes<T>(s)[g]);
    return K == AggKind::kMin ? c > 0 : c < 0;
  } else {
    if (s->count[g] == 0) return false;
    if (--s->count[g] == 0) {
      // Reset exactly, so sums stay drift-free across full retraction
      // cycles.
      if (!s->isum.empty()) s->isum[g] = 0;
      if (!s->sum.empty()) s->sum[g] = 0;
      if (!s->sumsq.empty()) s->sumsq[g] = 0;
    } else if constexpr (K == AggKind::kSum && std::is_same_v<T, int64_t>) {
      s->isum[g] -= v;
    } else if constexpr (K != AggKind::kCount) {
      s->sum[g] -= static_cast<double>(v);
      if constexpr (K == AggKind::kStdDev || K == AggKind::kVariance) {
        s->sumsq[g] -= static_cast<double>(v) * static_cast<double>(v);
      }
    }
    return true;
  }
}

/// Calls fn.template operator()<K>() for `kind` (not kCountStar). STRING
/// inputs fold only into COUNT, MIN and MAX; the binder rejects the rest.
template <typename T, typename Fn>
Status WithKind(AggKind kind, Fn&& fn) {
  switch (kind) {
    case AggKind::kCount:
      return fn.template operator()<AggKind::kCount>();
    case AggKind::kMin:
      return fn.template operator()<AggKind::kMin>();
    case AggKind::kMax:
      return fn.template operator()<AggKind::kMax>();
    default:
      break;
  }
  if constexpr (std::is_arithmetic_v<T>) {
    switch (kind) {
      case AggKind::kSum:
        return fn.template operator()<AggKind::kSum>();
      case AggKind::kAvg:
        return fn.template operator()<AggKind::kAvg>();
      case AggKind::kStdDev:
        return fn.template operator()<AggKind::kStdDev>();
      case AggKind::kVariance:
        return fn.template operator()<AggKind::kVariance>();
      default:
        break;
    }
  }
  return Status::Internal(std::string("no typed fold for ") +
                          AggKindName(kind));
}

/// Calls fn(data) with the typed values of `col`: ints() for INT64 and
/// BOOL, doubles(), or strings(). A NULL-typed column has no values.
template <typename Fn>
Status WithData(const ColumnVector& col, Fn&& fn) {
  switch (col.type()) {
    case TypeId::kBool:
    case TypeId::kInt64:
      return fn(col.ints().data());
    case TypeId::kDouble:
      return fn(col.doubles().data());
    case TypeId::kString:
      return fn(col.strings().data());
    case TypeId::kNull:
      break;
  }
  return Status::OK();
}

/// The typed update loop of one non-DISTINCT aggregate over a chunk: folds
/// every input, or with kRetract unfolds it and returns false from the
/// first inexact retraction on.
template <bool kRetract>
Result<bool> FoldColumn(AggColumn* s, const Input& in,
                        const std::vector<uint32_t>& gids) {
  bool exact = true;
  DBSP_RETURN_NOT_OK(WithData(*in.col, [&](const auto* data) {
    using T = std::remove_cv_t<std::remove_pointer_t<decltype(data)>>;
    return WithKind<T>(s->kind, [&]<AggKind K>() {
      ForEachValue(in, gids, [&](uint32_t g, uint32_t r) {
        if constexpr (kRetract) {
          exact = exact && RetractFrom<K>(s, g, data[r]);
        } else {
          FoldInto<K>(s, g, data[r]);
        }
      });
      return Status::OK();
    });
  }));
  return exact;
}

/// DISTINCT: adds a chunk's non-NULL inputs to the groups' seen sets.
Status InsertDistinct(AggColumn* s, const Input& in,
                      const std::vector<uint32_t>& gids) {
  return WithData(*in.col, [&](const auto* data) {
    using T = std::remove_cv_t<std::remove_pointer_t<decltype(data)>>;
    std::vector<DistinctFilter<T>>& seen = Seen<T>(s);
    ForEachValue(in, gids, [&](uint32_t g, uint32_t r) {
      seen[g].Insert(data[r]);
    });
    return Status::OK();
  });
}

/// DISTINCT: folds every group's merged seen set into its state, once.
template <typename T>
Status FoldDistinct(AggColumn* s) {
  std::vector<DistinctFilter<T>>& seen = Seen<T>(s);
  return WithKind<T>(s->kind, [&]<AggKind K>() {
    for (uint32_t g = 0; g < seen.size(); ++g) {
      seen[g].ForEach([&](const T& v) { FoldInto<K>(s, g, v); });
    }
    return Status::OK();
  });
}

/// Folds every group o of `from` into group gmap[o] of `into`.
void MergeColumn(AggColumn* into, const AggColumn& from,
                 const std::vector<uint32_t>& gmap) {
  const size_t n = gmap.size();
  if (into->distinct) {
    auto merge_seen = [&](auto& seen, const auto& other) {
      if (other.empty()) return;
      for (uint32_t o = 0; o < n; ++o) seen[gmap[o]].MergeFrom(other[o]);
    };
    merge_seen(into->iseen, from.iseen);
    merge_seen(into->dseen, from.dseen);
    merge_seen(into->sseen, from.sseen);
    return;
  }
  if (into->kind == AggKind::kMin || into->kind == AggKind::kMax) {
    auto merge_extremes = [&](const auto& other) {
      for (uint32_t o = 0; o < other.size(); ++o) {
        if (!from.has[o]) continue;
        if (into->kind == AggKind::kMin) {
          FoldInto<AggKind::kMin>(into, gmap[o], other[o]);
        } else {
          FoldInto<AggKind::kMax>(into, gmap[o], other[o]);
        }
      }
    };
    merge_extremes(from.iext);
    merge_extremes(from.dext);
    merge_extremes(from.sext);
    return;
  }
  for (uint32_t o = 0; o < n; ++o) {
    const uint32_t g = gmap[o];
    if (!from.count.empty()) into->count[g] += from.count[o];
    if (!from.isum.empty()) into->isum[g] += from.isum[o];
    if (!from.sum.empty()) into->sum[g] += from.sum[o];
    if (!from.sumsq.empty()) into->sumsq[g] += from.sumsq[o];
  }
}

/// The finalized values of one aggregate, one per group, typed
/// `result_type`. Fails when an integer SUM leaves the INT64 range.
Result<ColumnVectorPtr> EmitColumn(const AggColumn& s, size_t groups,
                                   TypeId result_type) {
  auto col = std::make_shared<ColumnVector>(result_type);
  col->Reserve(groups);
  for (size_t g = 0; g < groups; ++g) {
    switch (s.kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        col->AppendInt64(s.count[g]);
        break;
      case AggKind::kSum:
        if (s.count[g] == 0) {
          col->AppendNull();
        } else if (!s.isum.empty()) {
          DBSP_ASSIGN_OR_RETURN(int64_t sum, IntSumResult(s.isum[g]));
          col->AppendInt64(sum);
        } else {
          col->AppendDouble(s.sum[g]);
        }
        break;
      case AggKind::kAvg:
        if (s.count[g] == 0) {
          col->AppendNull();
        } else {
          col->AppendDouble(s.sum[g] / static_cast<double>(s.count[g]));
        }
        break;
      case AggKind::kStdDev:
      case AggKind::kVariance: {
        // Sample statistics (n - 1); NULL for fewer than two inputs.
        if (s.count[g] < 2) {
          col->AppendNull();
          break;
        }
        double variance = SampleVariance(s.count[g], s.sum[g], s.sumsq[g]);
        col->AppendDouble(s.kind == AggKind::kVariance ? variance
                                                       : std::sqrt(variance));
        break;
      }
      case AggKind::kMin:
      case AggKind::kMax:
        if (!s.has[g]) {
          col->AppendNull();
        } else if (!s.iext.empty()) {
          col->AppendInt64(s.iext[g]);
        } else if (!s.dext.empty()) {
          col->AppendDouble(s.dext[g]);
        } else {
          col->AppendString(s.sext[g]);
        }
        break;
    }
  }
  return col;
}

/// `col` as a column of `type` (itself when it already is).
ColumnVectorPtr CastColumn(ColumnVectorPtr col, TypeId type) {
  if (col->type() == type) return col;
  auto cast = std::make_shared<ColumnVector>(type);
  cast->AppendAll(*col);
  return cast;
}

}  // namespace

void GroupedAggregator::AggColumn::Grow(size_t groups) {
  const bool sums = kind == AggKind::kSum || kind == AggKind::kAvg ||
                    kind == AggKind::kStdDev || kind == AggKind::kVariance;
  const bool extremes = kind == AggKind::kMin || kind == AggKind::kMax;
  const bool ints = arg_type == TypeId::kInt64 || arg_type == TypeId::kBool;
  auto grow = [groups](auto& v, bool used) {
    if (used) v.resize(groups);
  };
  grow(count, kind == AggKind::kCountStar || kind == AggKind::kCount || sums);
  grow(isum, kind == AggKind::kSum && ints);
  grow(sum, sums && !(kind == AggKind::kSum && ints));
  grow(sumsq, kind == AggKind::kStdDev || kind == AggKind::kVariance);
  grow(has, extremes);
  grow(iext, extremes && ints);
  grow(dext, extremes && arg_type == TypeId::kDouble);
  grow(sext, extremes && arg_type == TypeId::kString);
  grow(iseen, distinct && ints);
  grow(dseen, distinct && arg_type == TypeId::kDouble);
  grow(sseen, distinct && arg_type == TypeId::kString);
}

GroupedAggregator::GroupedAggregator(
    const std::vector<BoundExprPtr>* group_exprs,
    const std::vector<AggregateSpec>* aggregates, const Schema* output_schema)
    : group_exprs_(group_exprs),
      aggregates_(aggregates),
      output_schema_(output_schema) {
  for (const auto& g : *group_exprs_) group_evals_.emplace_back(*g);
  states_.reserve(aggregates_->size());
  for (const AggregateSpec& spec : *aggregates_) {
    AggColumn s;
    s.kind = spec.kind;
    s.arg_type = spec.arg ? spec.arg->type : TypeId::kNull;
    s.distinct = spec.distinct;
    states_.push_back(std::move(s));
    arg_evals_.push_back(spec.arg ? std::make_unique<CompiledExpr>(*spec.arg)
                                  : nullptr);
  }
}

void GroupedAggregator::GrowStates() {
  for (AggColumn& s : states_) s.Grow(num_groups_);
}

void GroupedAggregator::EnsureKeyStore(const KeyColumns& keys) {
  if (keys.empty()) return;
  if (key_store_.empty()) {
    key_store_.reserve(keys.size());
    for (const ColumnVector* col : keys) {
      key_store_.push_back(std::make_shared<ColumnVector>(col->type()));
    }
  }
  std::vector<TypeId> types = KeyTypes(keys);
  if (!index_.Accepts(types)) {
    KeyColumns store;
    for (const auto& col : key_store_) store.push_back(col.get());
    index_ = RowIndex::Build(std::move(store), types, RowIndex::Nulls::kMatch);
  }
}

uint32_t GroupedAggregator::FindOrCreateGroup(const KeyColumns& keys,
                                              size_t row) {
  const uint32_t fresh = static_cast<uint32_t>(num_groups_);
  const uint32_t gid = index_.FindOrInsert(keys, row, fresh);
  if (gid == fresh) {
    ++num_groups_;
    for (size_t k = 0; k < key_store_.size(); ++k) {
      key_store_[k]->AppendFrom(*keys[k], row);
    }
  }
  return gid;
}

Status GroupedAggregator::Consume(const DataChunk& chunk) {
  rows_consumed_ += static_cast<int64_t>(chunk.size());
  if (group_exprs_->empty() && num_groups_ == 0) {
    num_groups_ = 1;  // global aggregate: exactly one group
    GrowStates();
  }
  return Fold(chunk, /*retract=*/false).status();
}

Result<bool> GroupedAggregator::Retract(const DataChunk& chunk) {
  if (num_groups_ == 0) return chunk.size() == 0;
  return Fold(chunk, /*retract=*/true);
}

Result<bool> GroupedAggregator::Fold(const DataChunk& chunk, bool retract) {
  const size_t n = chunk.size();
  const size_t ng = group_exprs_->size();
  if (n == 0) return true;

  // Computed keys and arguments are evaluated over the chunk's rows into
  // dense columns, which `evaluated` keeps alive.
  const EvalInput in(chunk.table(), chunk.rows());
  std::vector<ColumnVectorPtr> evaluated;
  auto evaluate = [&](const CompiledExpr& expr) -> Result<Input> {
    DBSP_ASSIGN_OR_RETURN(ColumnVectorPtr col, expr.Evaluate(in));
    evaluated.push_back(col);
    return Input{col.get(), nullptr, 0};
  };
  auto resolve = [&](const BoundExpr& expr,
                     const CompiledExpr& compiled) -> Result<Input> {
    if (IsBaseColumn(expr, chunk)) return BaseInput(chunk, expr.column_index);
    return evaluate(compiled);
  };

  gids_.assign(n, 0);
  if (ng > 0) {
    // The keys share one row mapping: all base columns, or all evaluated.
    bool all_base = true;
    for (const auto& g : *group_exprs_) all_base &= IsBaseColumn(*g, chunk);
    KeyColumns keys;
    Input rows;
    for (size_t k = 0; k < ng; ++k) {
      const CompiledExpr& g = group_evals_[k];
      DBSP_ASSIGN_OR_RETURN(
          rows, all_base ? resolve(*(*group_exprs_)[k], g) : evaluate(g));
      keys.push_back(rows.col);
    }
    EnsureKeyStore(keys);
    if (retract) {
      bool found = true;
      ForEachRow(rows, n, [&](size_t i, uint32_t r) {
        gids_[i] = index_.Find(keys, r);
        found &= gids_[i] != kNoMatch;
      });
      if (!found) return false;
    } else {
      ForEachRow(rows, n, [&](size_t i, uint32_t r) {
        gids_[i] = FindOrCreateGroup(keys, r);
      });
      GrowStates();
    }
  }

  for (size_t a = 0; a < states_.size(); ++a) {
    AggColumn* s = &states_[a];
    if (retract && s->distinct) return false;
    if (s->kind == AggKind::kCountStar && !retract) {
      for (uint32_t g : gids_) ++s->count[g];
      continue;
    }
    if (s->kind == AggKind::kCountStar) {
      for (uint32_t g : gids_) {
        if (s->count[g] == 0) return false;
        --s->count[g];
      }
      continue;
    }
    DBSP_ASSIGN_OR_RETURN(Input in,
                          resolve(*(*aggregates_)[a].arg, *arg_evals_[a]));
    if (retract) {
      DBSP_ASSIGN_OR_RETURN(bool exact, FoldColumn<true>(s, in, gids_));
      if (!exact) return false;
      continue;
    }
    // Distinct aggregates fold at Finalize, after partials merge: only the
    // seen-sets grow here. NULLs are dropped outright, as no kind that
    // can carry DISTINCT folds a NULL.
    if (s->distinct) {
      DBSP_RETURN_NOT_OK(InsertDistinct(s, in, gids_));
    } else {
      DBSP_RETURN_NOT_OK(FoldColumn<false>(s, in, gids_).status());
    }
  }
  return true;
}

void GroupedAggregator::MergeFrom(const GroupedAggregator& other) {
  rows_consumed_ += other.rows_consumed_;
  if (other.num_groups_ == 0) return;

  // gmap[o]: this aggregator's group for the other's group o.
  std::vector<uint32_t> gmap(other.num_groups_, 0);
  if (group_exprs_->empty()) {
    num_groups_ = 1;
  } else {
    KeyColumns keys;
    for (const auto& col : other.key_store_) keys.push_back(col.get());
    EnsureKeyStore(keys);
    for (uint32_t o = 0; o < other.num_groups_; ++o) {
      gmap[o] = FindOrCreateGroup(keys, o);
    }
  }
  GrowStates();
  for (size_t a = 0; a < states_.size(); ++a) {
    MergeColumn(&states_[a], other.states_[a], gmap);
  }
}

Result<TablePtr> GroupedAggregator::Finalize() {
  const size_t ng = group_exprs_->size();
  const std::vector<AggregateSpec>& aggs = *aggregates_;

  // A zero-input global aggregate still emits its single row.
  if (ng == 0 && num_groups_ == 0) {
    num_groups_ = 1;
    GrowStates();
  }

  std::vector<ColumnVectorPtr> out_cols;
  out_cols.reserve(ng + aggs.size());
  for (size_t k = 0; k < ng; ++k) {
    // A grouped aggregate that never consumed a row has no key store;
    // it emits zero groups through empty columns of the output types.
    const TypeId type = output_schema_->column(k).type;
    out_cols.push_back(k < key_store_.size()
                           ? CastColumn(key_store_[k], type)
                           : std::make_shared<ColumnVector>(type));
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    AggColumn* s = &states_[a];
    if (s->distinct) {
      // Fold the merged distinct sets exactly once, now that every partial
      // has contributed its values.
      if (!s->iseen.empty()) DBSP_RETURN_NOT_OK(FoldDistinct<int64_t>(s));
      if (!s->dseen.empty()) DBSP_RETURN_NOT_OK(FoldDistinct<double>(s));
      if (!s->sseen.empty()) {
        DBSP_RETURN_NOT_OK(FoldDistinct<std::string>(s));
      }
    }
    DBSP_ASSIGN_OR_RETURN(ColumnVectorPtr col,
                          EmitColumn(*s, num_groups_, aggs[a].result_type));
    out_cols.push_back(
        CastColumn(std::move(col), output_schema_->column(ng + a).type));
  }
  return Table::FromColumns(*output_schema_, std::move(out_cols));
}

}  // namespace dbspinner
