// Row-at-a-time reference semantics, kept for tests and oracles only.
//
// The engine evaluates expressions with CompiledExpr (expr/vector_eval.h)
// and aggregates with GroupedAggregator (exec/hash_aggregate.h). The two
// references here define what those must compute, one boxed Value at a
// time, written independently of the typed kernels they check:
//   - EvaluateExpr, the expression oracle's reference (testing/expr_oracle.h,
//     VectorizedEvalTest);
//   - AggState, the typed-aggregate differential's reference for folding,
//     merging and retracting (executor_test).

#pragma once

#include <cstdint>

#include "common/status.h"
#include "common/value.h"
#include "expr/aggregate_functions.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace dbspinner {

/// Evaluates `expr` on row `row` of `input`: the row-wise reference
/// semantics. CompiledExpr returns the same values and fails on the same
/// rows. A column reference and a function call yield values of the node's
/// static type (converted as Value::CastTo converts), and INT64 `+`, `-`,
/// `*`, unary `-` and abs() fail with "integer overflow" instead of
/// wrapping.
Result<Value> EvaluateExpr(const BoundExpr& expr, const Table& input,
                           size_t row);

/// Running state of one aggregate within one group, boxed: the reference
/// for GroupedAggregator's typed state. It folds with the same fold steps
/// (expr/aggregate_functions.h), so the two agree bit for bit on the same
/// inputs in the same order.
class AggState {
 public:
  explicit AggState(AggKind kind) : kind_(kind) {}

  /// Folds one input value (already NULL-filtered for kCountStar).
  void Update(const Value& v);

  /// Folds another partial state of the same kind into this one, as if every
  /// value `other` saw had been fed to Update() here. Every kind's state is
  /// a commutative monoid (counts and sums add, extremes compare, variance
  /// merges via sum-of-squares), which is what makes per-worker partial
  /// aggregation with a single merge at the breaker exact.
  void MergeFrom(const AggState& other);

  /// Produces the aggregate result. SUM/MIN/MAX/AVG of zero non-NULL inputs
  /// is NULL; COUNT is 0. Fails when an integer SUM leaves the INT64 range.
  Result<Value> Finalize(TypeId result_type) const;

  /// Unfolds one previously-Update()ed value (incremental view maintenance
  /// retraction). Counts and sums subtract exactly; MIN/MAX can only drop a
  /// value strictly inside the current extreme. Returns false when the state
  /// cannot retract exactly (the value ties or beats the running extreme, or
  /// nothing was accumulated) — the caller must fall back to a full
  /// recompute of the group.
  bool Retract(const Value& v);

 private:
  AggKind kind_;
  int64_t count_ = 0;
  double sum_ = 0;
  double sum_squares_ = 0;  ///< STDDEV/VARIANCE
  IntSum isum_ = 0;         ///< SUM over INT64
  bool all_int_ = true;
  bool has_value_ = false;
  Value extreme_;  ///< MIN/MAX running value
};

}  // namespace dbspinner
