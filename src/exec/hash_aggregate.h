// Streaming grouped aggregation with mergeable partials.
//
// GroupedAggregator is the hash-aggregation kernel behind the pipeline
// executor's aggregate sink (DESIGN.md §11, "Typed breakers"): each pipeline
// worker folds its morsels into a private partial, and the partials are
// merged once at the breaker. It also holds the group state of incremental
// aggregate views (DESIGN.md §14), which fold inserted rows with Consume and
// deleted ones with Retract. State is flat: per aggregate, one array per
// running quantity, indexed by group id, updated by one typed loop per
// (kind, argument type). Merging is exact: every state is a commutative
// monoid, and DISTINCT aggregates defer their folds until Finalize so
// unioned distinct sets count each value exactly once.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/data_chunk.h"
#include "exec/row_index.h"
#include "expr/aggregate_functions.h"
#include "expr/expr.h"
#include "expr/vector_eval.h"
#include "storage/table.h"

namespace dbspinner {

class GroupedAggregator {
 public:
  /// The referenced expression/spec/schema vectors must outlive the
  /// aggregator (they belong to the PhysicalHashAggregate driving it).
  GroupedAggregator(const std::vector<BoundExprPtr>* group_exprs,
                    const std::vector<AggregateSpec>* aggregates,
                    const Schema* output_schema);

  /// Folds every row of `chunk` into the groups. Plain column references
  /// read the chunk's base columns in place; other expressions are
  /// evaluated over the chunk's rows. Fails when an expression fails.
  Status Consume(const DataChunk& chunk);

  /// Unfolds every row of `chunk` from the groups, the inverse of Consume
  /// for incremental view maintenance, under the exactness rules of the
  /// boxed reference (testing/reference_eval.h): counts and sums subtract,
  /// and an aggregate's sums reset exactly when its count reaches 0;
  /// MIN/MAX retract only a value strictly inside the group's running
  /// extreme. So a group whose every row is retracted is back in its empty
  /// state. Returns false when a row's group does not exist, a retraction
  /// is inexact or an aggregate is DISTINCT: the state is then unusable and
  /// the caller rebuilds it. Fails when an expression fails.
  Result<bool> Retract(const DataChunk& chunk);

  /// Folds another partial (built over the same operator) into this one.
  void MergeFrom(const GroupedAggregator& other);

  /// Emits the output table: group keys (first-occurrence values, cast to
  /// the output schema) then finalized aggregates. A global aggregate (no
  /// GROUP BY) emits exactly one row even when nothing was consumed. With a
  /// DISTINCT aggregate, call once: it folds the DISTINCT sets into the
  /// state. Fails when an integer SUM leaves the INT64 range.
  Result<TablePtr> Finalize();

  size_t num_groups() const { return num_groups_; }
  int64_t rows_consumed() const { return rows_consumed_; }

  /// One aggregate's running state over every group: flat arrays indexed by
  /// group id. Only the arrays its kind and argument type use are sized.
  struct AggColumn {
    AggKind kind = AggKind::kCountStar;
    TypeId arg_type = TypeId::kNull;
    bool distinct = false;
    std::vector<int64_t> count;  ///< COUNT; non-NULL inputs of SUM..VARIANCE
    std::vector<IntSum> isum;    ///< SUM over INT64
    std::vector<double> sum;     ///< SUM over DOUBLE, AVG, STDDEV, VARIANCE
    std::vector<double> sumsq;   ///< STDDEV, VARIANCE
    std::vector<uint8_t> has;    ///< MIN/MAX: the group saw a value
    std::vector<int64_t> iext;   ///< MIN/MAX extreme over INT64/BOOL
    std::vector<double> dext;    ///< MIN/MAX extreme over DOUBLE
    std::vector<std::string> sext;  ///< MIN/MAX extreme over STRING
    /// DISTINCT only: each group's distinct inputs, by argument type.
    std::vector<DistinctFilter<int64_t>> iseen;
    std::vector<DistinctFilter<double>> dseen;
    std::vector<DistinctFilter<std::string>> sseen;

    /// Sizes the used arrays for `groups` groups (new groups start empty).
    void Grow(size_t groups);
  };

 private:
  /// Lazily creates the per-group key storage with the key column types
  /// (stable across chunks for a fixed expression), and makes sure the
  /// group index takes probes of those types.
  void EnsureKeyStore(const KeyColumns& keys);
  /// Finds the group whose stored key equals row `row` of `keys`, or
  /// creates it (appending the key values to the store).
  uint32_t FindOrCreateGroup(const KeyColumns& keys, size_t row);
  /// Sizes every aggregate's arrays for num_groups_.
  void GrowStates();
  /// The body of Consume (`retract` false, never returns false) and of
  /// Retract.
  Result<bool> Fold(const DataChunk& chunk, bool retract);

  const std::vector<BoundExprPtr>* group_exprs_;
  const std::vector<AggregateSpec>* aggregates_;
  const Schema* output_schema_;
  std::vector<CompiledExpr> group_evals_;
  /// One per aggregate; null for COUNT(*).
  std::vector<std::unique_ptr<CompiledExpr>> arg_evals_;

  /// One column per group expression, one entry per group (in group order):
  /// the first-occurrence key values, also the equality side of the probe.
  std::vector<ColumnVectorPtr> key_store_;
  std::vector<AggColumn> states_;  ///< one per aggregate
  size_t num_groups_ = 0;
  /// Over key_store_: a group's id is its key's row in the store.
  RowIndex index_;
  /// Consume scratch: the group id of each chunk row.
  std::vector<uint32_t> gids_;
  int64_t rows_consumed_ = 0;
};

}  // namespace dbspinner
