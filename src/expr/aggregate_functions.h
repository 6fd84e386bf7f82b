// Aggregate functions and the AggregateSpec carried by LogicalAggregate.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace dbspinner {

struct BoundExpr;
using BoundExprPtr = std::unique_ptr<BoundExpr>;

enum class AggKind {
  kCountStar,
  kCount,
  kSum,
  kMin,
  kMax,
  kAvg,
  kStdDev,    ///< sample standard deviation (n - 1 denominator)
  kVariance,  ///< sample variance
};

const char* AggKindName(AggKind k);

/// Resolves an aggregate function name + input type to a kind and result
/// type. `is_star` marks COUNT(*).
Result<AggKind> ResolveAggKind(const std::string& name, bool is_star);
Result<TypeId> AggResultType(AggKind kind, TypeId input);

/// One aggregate computed by a LogicalAggregate: kind, optional DISTINCT,
/// and the argument expression bound over the aggregate's input.
struct AggregateSpec {
  AggKind kind = AggKind::kCountStar;
  bool distinct = false;
  BoundExprPtr arg;  ///< null for COUNT(*)
  TypeId result_type = TypeId::kInt64;
  std::string display_name;

  AggregateSpec Clone() const;
};

// --- fold steps ------------------------------------------------------------
//
// How one input folds into an aggregate's running state, defined once per
// kind. GroupedAggregator's typed column loops (exec/hash_aggregate.cc) and
// the boxed row-at-a-time reference (testing/reference_eval.h) both call
// these, so the two produce bit-identical results for the same inputs in
// the same order.

/// MIN/MAX: whether input `v` replaces the running extreme `cur`, in the
/// ORDER BY order (CompareScalars: NaN is the largest double). Of equal
/// inputs the first one seen is kept.
template <typename T>
inline bool ReplacesExtreme(AggKind kind, const T& v, const T& cur) {
  int c = CompareScalars(v, cur);
  return kind == AggKind::kMin ? c < 0 : c > 0;
}

/// The running sum of an integer SUM. 128 bits hold any sum of fewer than
/// 2^64 INT64 inputs, so partials and their merges never overflow, and the
/// result does not depend on how rows were split into morsels. Whether the
/// total fits INT64 is checked once, by IntSumResult.
using IntSum = __int128;

/// SUM over INT64: adds `v` to the exact running sum.
inline void AddToIntSum(IntSum* isum, int64_t v) { *isum += v; }

/// A finalized integer SUM: `isum` as INT64, or IntegerOverflow() when it
/// leaves the INT64 range.
Result<int64_t> IntSumResult(IntSum isum);

/// SUM over DOUBLE, AVG, STDDEV, VARIANCE: the running sum of the inputs.
inline void AddToSum(double* sum, double v) { *sum += v; }

/// STDDEV, VARIANCE: the running sum of squares.
inline void AddToSumOfSquares(double* sumsq, double v) { *sumsq += v * v; }

/// Sample variance (n - 1 denominator) of `count` >= 2 inputs with the
/// given sum and sum of squares; never negative.
inline double SampleVariance(int64_t count, double sum, double sumsq) {
  double n = static_cast<double>(count);
  return std::max(0.0, (sumsq - sum * sum / n) / (n - 1));
}

/// The status an integer SUM fails with when it leaves the INT64 range.
Status IntegerOverflow();

/// The distinct non-NULL inputs of one group of a DISTINCT aggregate,
/// unboxed: T is int64_t (INT64 and BOOL inputs), double or std::string.
/// One aggregate's inputs all have one type. NaN is one value. Partial
/// DISTINCT aggregation defers every fold until the partials are merged,
/// then folds the merged set exactly once.
template <typename T>
class DistinctFilter {
 public:
  /// Returns true the first time a value is seen.
  bool Insert(const T& v) { return seen_.insert(v).second; }

  /// Unions another filter's seen set into this one (partial-aggregate
  /// merge). Values already present are dropped, so folding this filter's
  /// contents after the merge still counts each distinct value once.
  void MergeFrom(const DistinctFilter& other) {
    seen_.insert(other.seen_.begin(), other.seen_.end());
  }

  size_t size() const { return seen_.size(); }

  /// Iterates the distinct values seen so far.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const T& v : seen_) fn(v);
  }

 private:
  // ColumnVector::HashAt's hashes: an INT64 hashes by its double image.
  struct Hash {
    size_t operator()(int64_t v) const {
      return std::hash<double>()(static_cast<double>(v));
    }
    size_t operator()(double v) const { return HashDouble(v); }
    size_t operator()(const std::string& v) const {
      return std::hash<std::string>()(v);
    }
  };
  struct Eq {
    bool operator()(double a, double b) const {
      return CompareScalars(a, b) == 0;
    }
    bool operator()(int64_t a, int64_t b) const { return a == b; }
    bool operator()(const std::string& a, const std::string& b) const {
      return a == b;
    }
  };
  std::unordered_set<T, Hash, Eq> seen_;
};

}  // namespace dbspinner
