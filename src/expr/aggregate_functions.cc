#include "expr/aggregate_functions.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "expr/expr.h"

namespace dbspinner {

const char* AggKindName(AggKind k) {
  switch (k) {
    case AggKind::kCountStar:
      return "count(*)";
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kStdDev:
      return "stddev";
    case AggKind::kVariance:
      return "variance";
  }
  return "?";
}

Result<AggKind> ResolveAggKind(const std::string& name, bool is_star) {
  std::string n = ToLower(name);
  if (n == "count") return is_star ? AggKind::kCountStar : AggKind::kCount;
  if (is_star) {
    return Status::BindError("'*' is only valid as an argument of COUNT");
  }
  if (n == "sum") return AggKind::kSum;
  if (n == "min") return AggKind::kMin;
  if (n == "max") return AggKind::kMax;
  if (n == "avg") return AggKind::kAvg;
  if (n == "stddev" || n == "stddev_samp") return AggKind::kStdDev;
  if (n == "variance" || n == "var_samp") return AggKind::kVariance;
  return Status::BindError("unknown aggregate function: " + name);
}

Result<TypeId> AggResultType(AggKind kind, TypeId input) {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return TypeId::kInt64;
    case AggKind::kSum:
      if (!IsNumeric(input)) {
        return Status::TypeError("SUM expects a numeric argument");
      }
      return input == TypeId::kDouble ? TypeId::kDouble : TypeId::kInt64;
    case AggKind::kAvg:
    case AggKind::kStdDev:
    case AggKind::kVariance:
      if (!IsNumeric(input)) {
        return Status::TypeError(std::string(AggKindName(kind)) +
                                 " expects a numeric argument");
      }
      return TypeId::kDouble;
    case AggKind::kMin:
    case AggKind::kMax:
      return input;
  }
  return Status::Internal("unhandled aggregate kind");
}

AggregateSpec AggregateSpec::Clone() const {
  AggregateSpec s;
  s.kind = kind;
  s.distinct = distinct;
  if (arg) s.arg = arg->Clone();
  s.result_type = result_type;
  s.display_name = display_name;
  return s;
}

Status IntegerOverflow() { return Status::ExecutionError("integer overflow"); }

Result<int64_t> IntSumResult(IntSum isum) {
  if (isum < std::numeric_limits<int64_t>::min() ||
      isum > std::numeric_limits<int64_t>::max()) {
    return IntegerOverflow();
  }
  return static_cast<int64_t>(isum);
}

void AggState::Update(const Value& v) {
  switch (kind_) {
    case AggKind::kCountStar:
      ++count_;
      return;
    case AggKind::kCount:
      if (!v.is_null()) ++count_;
      return;
    case AggKind::kSum:
    case AggKind::kAvg:
    case AggKind::kStdDev:
    case AggKind::kVariance:
      if (v.is_null()) return;
      has_value_ = true;
      ++count_;
      if (v.type() != TypeId::kInt64) {
        all_int_ = false;
      } else if (kind_ == AggKind::kSum) {
        AddToIntSum(&isum_, v.int64_value());
      }
      AddToSum(&sum_, v.AsDouble());
      AddToSumOfSquares(&sum_squares_, v.AsDouble());
      return;
    case AggKind::kMin:
    case AggKind::kMax:
      if (v.is_null()) return;
      if (!has_value_ || ReplacesExtreme(kind_, v, extreme_)) {
        extreme_ = v;
        has_value_ = true;
      }
      return;
  }
}

Result<Value> AggState::Finalize(TypeId result_type) const {
  switch (kind_) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return Value::Int64(count_);
    case AggKind::kSum:
      if (!has_value_) return Value::Null(result_type);
      if (result_type == TypeId::kInt64 && all_int_) {
        DBSP_ASSIGN_OR_RETURN(int64_t sum, IntSumResult(isum_));
        return Value::Int64(sum);
      }
      return Value::Double(sum_);
    case AggKind::kAvg:
      if (!has_value_) return Value::Null(TypeId::kDouble);
      return Value::Double(sum_ / static_cast<double>(count_));
    case AggKind::kStdDev:
    case AggKind::kVariance: {
      // Sample statistics (n - 1); NULL for fewer than two inputs.
      if (count_ < 2) return Value::Null(TypeId::kDouble);
      double variance = SampleVariance(count_, sum_, sum_squares_);
      return Value::Double(kind_ == AggKind::kVariance
                               ? variance
                               : std::sqrt(variance));
    }
    case AggKind::kMin:
    case AggKind::kMax:
      if (!has_value_) return Value::Null(result_type);
      return extreme_;
  }
  return Value::Null();
}

bool AggState::Retract(const Value& v) {
  switch (kind_) {
    case AggKind::kCountStar:
      if (count_ == 0) return false;
      --count_;
      return true;
    case AggKind::kCount:
      if (v.is_null()) return true;
      if (count_ == 0) return false;
      --count_;
      return true;
    case AggKind::kSum:
    case AggKind::kAvg:
    case AggKind::kStdDev:
    case AggKind::kVariance:
      if (v.is_null()) return true;
      if (count_ == 0) return false;
      if (v.type() == TypeId::kInt64 && kind_ == AggKind::kSum) {
        isum_ -= v.int64_value();
      }
      --count_;
      sum_ -= v.AsDouble();
      sum_squares_ -= v.AsDouble() * v.AsDouble();
      if (count_ == 0) {
        // Reset exactly so integer SUMs stay drift-free across full
        // retraction cycles (and NULL is reported again).
        has_value_ = false;
        sum_ = 0;
        sum_squares_ = 0;
        isum_ = 0;
        all_int_ = true;
      }
      return true;
    case AggKind::kMin:
    case AggKind::kMax: {
      if (v.is_null()) return true;
      if (!has_value_) return false;
      // Retracting a value that ties or beats the running extreme may expose
      // a different survivor we never kept; only strictly-dominated values
      // can leave without a recompute.
      int c = CompareScalars(v, extreme_);
      return kind_ == AggKind::kMin ? c > 0 : c < 0;
    }
  }
  return false;
}

void AggState::MergeFrom(const AggState& other) {
  switch (kind_) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      count_ += other.count_;
      return;
    case AggKind::kSum:
    case AggKind::kAvg:
    case AggKind::kStdDev:
    case AggKind::kVariance:
      isum_ += other.isum_;
      count_ += other.count_;
      sum_ += other.sum_;
      sum_squares_ += other.sum_squares_;
      all_int_ = all_int_ && other.all_int_;
      has_value_ = has_value_ || other.has_value_;
      return;
    case AggKind::kMin:
    case AggKind::kMax:
      if (other.has_value_) Update(other.extreme_);
      return;
  }
}

}  // namespace dbspinner
