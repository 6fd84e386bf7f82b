// Streaming grouped aggregation with mergeable partials.
//
// GroupedAggregator is the hash-aggregation kernel behind the pipeline
// executor's aggregate sink (DESIGN.md §11): each pipeline worker folds its
// morsels into a private partial table, and the partials are merged once at
// the breaker. Merging is exact: every AggState is a commutative
// monoid, and DISTINCT aggregates defer state updates until Finalize so
// unioned distinct sets count each value exactly once.

#pragma once

#include <vector>

#include "common/status.h"
#include "exec/row_index.h"
#include "expr/aggregate_functions.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace dbspinner {

class GroupedAggregator {
 public:
  /// The referenced expression/spec/schema vectors must outlive the
  /// aggregator (they belong to the PhysicalHashAggregate driving it).
  GroupedAggregator(const std::vector<BoundExprPtr>* group_exprs,
                    const std::vector<AggregateSpec>* aggregates,
                    const Schema* output_schema)
      : group_exprs_(group_exprs),
        aggregates_(aggregates),
        output_schema_(output_schema) {}

  /// Evaluates the group-key and aggregate-argument expressions over
  /// `input` and folds every row into the hash table.
  Status Consume(const Table& input);

  /// Folds another partial (built over the same operator) into this one.
  Status MergeFrom(const GroupedAggregator& other);

  /// Emits the output table: group keys (first-occurrence values, cast to
  /// the output schema) then finalized aggregates. A global aggregate (no
  /// GROUP BY) emits exactly one row even when nothing was consumed.
  Result<TablePtr> Finalize();

  size_t num_groups() const { return groups_.size(); }
  int64_t rows_consumed() const { return rows_consumed_; }

 private:
  struct Group {
    std::vector<AggState> states;
    std::vector<DistinctFilter> distincts;
  };

  Group MakeGroup() const;
  void UpdateGroup(Group* g, const std::vector<ColumnVectorPtr>& arg_cols,
                   size_t row);
  /// Lazily creates the per-group key storage with the evaluated key
  /// column types (stable across chunks for a fixed expression), and
  /// makes sure the group index takes probes of those types.
  void EnsureKeyStore(const std::vector<ColumnVectorPtr>& key_cols);
  /// Finds the group whose stored key equals row `row` of `keys`, or
  /// creates it (appending the key values to the store).
  size_t FindOrCreateGroup(const KeyColumns& keys, size_t row);

  const std::vector<BoundExprPtr>* group_exprs_;
  const std::vector<AggregateSpec>* aggregates_;
  const Schema* output_schema_;

  /// One column per group expression, one entry per group (in group order):
  /// the first-occurrence key values, also the equality side of the probe.
  std::vector<ColumnVectorPtr> key_store_;
  std::vector<Group> groups_;
  /// Over key_store_: a group's id is its key's row in the store.
  RowIndex index_;
  int64_t rows_consumed_ = 0;
};

}  // namespace dbspinner
