#include "exec/hash_aggregate.h"

namespace dbspinner {

namespace {

KeyColumns Raw(const std::vector<ColumnVectorPtr>& cols) {
  KeyColumns out;
  out.reserve(cols.size());
  for (const auto& col : cols) out.push_back(col.get());
  return out;
}

}  // namespace

GroupedAggregator::Group GroupedAggregator::MakeGroup() const {
  Group g;
  g.states.reserve(aggregates_->size());
  for (const AggregateSpec& spec : *aggregates_) {
    g.states.emplace_back(spec.kind);
  }
  g.distincts.resize(aggregates_->size());
  return g;
}

void GroupedAggregator::UpdateGroup(
    Group* g, const std::vector<ColumnVectorPtr>& arg_cols, size_t row) {
  const std::vector<AggregateSpec>& aggs = *aggregates_;
  for (size_t a = 0; a < aggs.size(); ++a) {
    Value v = aggs[a].arg ? arg_cols[a]->GetValue(row) : Value();
    if (aggs[a].distinct) {
      // Distinct aggregates fold at Finalize, after partials merge: the
      // state update is deferred and only the seen-set grows here. NULLs
      // are dropped outright — Update(NULL) is a no-op for every kind that
      // can carry DISTINCT, so this matches the legacy row loop.
      if (!v.is_null()) g->distincts[a].Insert(v);
      continue;
    }
    g->states[a].Update(v);
  }
}

void GroupedAggregator::EnsureKeyStore(
    const std::vector<ColumnVectorPtr>& key_cols) {
  if (key_cols.empty()) return;
  if (key_store_.empty()) {
    key_store_.reserve(key_cols.size());
    for (const auto& col : key_cols) {
      key_store_.push_back(std::make_shared<ColumnVector>(col->type()));
    }
  }
  std::vector<TypeId> types = KeyTypes(Raw(key_cols));
  if (!index_.Accepts(types)) {
    index_ = RowIndex::Build(Raw(key_store_), types, RowIndex::Nulls::kMatch);
  }
}

size_t GroupedAggregator::FindOrCreateGroup(const KeyColumns& keys,
                                            size_t row) {
  const uint32_t fresh = static_cast<uint32_t>(groups_.size());
  const uint32_t gid = index_.FindOrInsert(keys, row, fresh);
  if (gid == fresh) {
    groups_.push_back(MakeGroup());
    for (size_t k = 0; k < key_store_.size(); ++k) {
      key_store_[k]->AppendFrom(*keys[k], row);
    }
  }
  return gid;
}

Status GroupedAggregator::Consume(const Table& input) {
  size_t n = input.num_rows();
  size_t ng = group_exprs_->size();
  size_t na = aggregates_->size();
  rows_consumed_ += static_cast<int64_t>(n);

  if (ng == 0 && groups_.empty()) {
    groups_.push_back(MakeGroup());  // global aggregate: exactly one group
  }
  if (n == 0) return Status::OK();

  std::vector<ColumnVectorPtr> key_cols;
  key_cols.reserve(ng);
  for (const auto& g : *group_exprs_) {
    DBSP_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvaluateExprBatch(*g, input));
    key_cols.push_back(std::move(col));
  }
  std::vector<ColumnVectorPtr> arg_cols(na);
  for (size_t a = 0; a < na; ++a) {
    if ((*aggregates_)[a].arg) {
      DBSP_ASSIGN_OR_RETURN(
          arg_cols[a], EvaluateExprBatch(*(*aggregates_)[a].arg, input));
    }
  }

  if (ng == 0) {
    for (size_t i = 0; i < n; ++i) UpdateGroup(&groups_[0], arg_cols, i);
    return Status::OK();
  }

  EnsureKeyStore(key_cols);
  const KeyColumns keys = Raw(key_cols);
  for (size_t i = 0; i < n; ++i) {
    UpdateGroup(&groups_[FindOrCreateGroup(keys, i)], arg_cols, i);
  }
  return Status::OK();
}

Status GroupedAggregator::MergeFrom(const GroupedAggregator& other) {
  size_t na = aggregates_->size();
  rows_consumed_ += other.rows_consumed_;

  auto merge_group = [na](Group* into, const Group& from) {
    for (size_t a = 0; a < na; ++a) {
      into->states[a].MergeFrom(from.states[a]);
      into->distincts[a].MergeFrom(from.distincts[a]);
    }
  };

  if (group_exprs_->empty()) {
    if (other.groups_.empty()) return Status::OK();
    if (groups_.empty()) groups_.push_back(MakeGroup());
    merge_group(&groups_[0], other.groups_[0]);
    return Status::OK();
  }

  EnsureKeyStore(other.key_store_);
  const KeyColumns keys = Raw(other.key_store_);
  for (size_t o = 0; o < other.groups_.size(); ++o) {
    merge_group(&groups_[FindOrCreateGroup(keys, o)], other.groups_[o]);
  }
  return Status::OK();
}

Result<TablePtr> GroupedAggregator::Finalize() {
  size_t ng = group_exprs_->size();
  size_t na = aggregates_->size();
  const std::vector<AggregateSpec>& aggs = *aggregates_;

  // A zero-input global aggregate still emits its single row.
  if (ng == 0 && groups_.empty()) groups_.push_back(MakeGroup());

  auto finalize_agg = [&](const Group& g, size_t a) {
    if (aggs[a].distinct) {
      // Fold the merged distinct set exactly once, now that every partial
      // has contributed its values.
      AggState s(aggs[a].kind);
      g.distincts[a].ForEach([&s](const Value& v) { s.Update(v); });
      return s.Finalize(aggs[a].result_type);
    }
    return g.states[a].Finalize(aggs[a].result_type);
  };

  std::vector<ColumnVectorPtr> out_cols;
  out_cols.reserve(ng + na);
  for (size_t k = 0; k < ng; ++k) {
    // A grouped aggregate that never consumed a row has no key store;
    // it emits zero groups through empty columns of the output types.
    ColumnVectorPtr col =
        k < key_store_.size()
            ? key_store_[k]
            : std::make_shared<ColumnVector>(output_schema_->column(k).type);
    if (col->type() != output_schema_->column(k).type) {
      auto cast =
          std::make_shared<ColumnVector>(output_schema_->column(k).type);
      cast->AppendAll(*col);
      col = std::move(cast);
    }
    out_cols.push_back(std::move(col));
  }
  for (size_t a = 0; a < na; ++a) {
    auto col =
        std::make_shared<ColumnVector>(output_schema_->column(ng + a).type);
    col->Reserve(groups_.size());
    for (const Group& g : groups_) col->Append(finalize_agg(g, a));
    out_cols.push_back(std::move(col));
  }
  return Table::FromColumns(*output_schema_, std::move(out_cols));
}

}  // namespace dbspinner
