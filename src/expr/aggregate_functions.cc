#include "expr/aggregate_functions.h"

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

}  // namespace dbspinner
