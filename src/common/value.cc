#include "common/value.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <functional>

#include "common/string_util.h"

namespace dbspinner {

bool ParseInt64(const std::string& s, int64_t* out) {
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool ParseBool(const std::string& s, bool* out) {
  if (EqualsIgnoreCase(s, "true")) {
    *out = true;
    return true;
  }
  if (EqualsIgnoreCase(s, "false")) {
    *out = false;
    return true;
  }
  return false;
}

Result<Value> Value::CastTo(TypeId target) const {
  if (is_null_) return Value::Null(target);
  if (type_ == target) return *this;
  switch (target) {
    case TypeId::kInt64:
      switch (type_) {
        case TypeId::kDouble:
          return Value::Int64(static_cast<int64_t>(std::llround(double_)));
        case TypeId::kBool:
          return Value::Int64(int_);
        case TypeId::kString: {
          int64_t v = 0;
          if (!ParseInt64(string_, &v)) {
            return Status::TypeError("cannot cast '" + string_ + "' to BIGINT");
          }
          return Value::Int64(v);
        }
        default:
          break;
      }
      break;
    case TypeId::kDouble:
      switch (type_) {
        case TypeId::kInt64:
          return Value::Double(static_cast<double>(int_));
        case TypeId::kBool:
          return Value::Double(static_cast<double>(int_));
        case TypeId::kString: {
          double v = 0;
          if (!ParseDouble(string_, &v)) {
            return Status::TypeError("cannot cast '" + string_ + "' to DOUBLE");
          }
          return Value::Double(v);
        }
        default:
          break;
      }
      break;
    case TypeId::kString:
      return Value::String(ToString());
    case TypeId::kBool:
      switch (type_) {
        case TypeId::kInt64:
          return Value::Bool(int_ != 0);
        case TypeId::kDouble:
          return Value::Bool(double_ != 0);
        case TypeId::kString: {
          bool v = false;
          if (!ParseBool(string_, &v)) {
            return Status::TypeError("cannot cast '" + string_ +
                                     "' to BOOLEAN");
          }
          return Value::Bool(v);
        }
        default:
          break;
      }
      break;
    case TypeId::kNull:
      break;
  }
  return Status::TypeError(std::string("unsupported cast from ") +
                           TypeName(type_) + " to " + TypeName(target));
}

bool Value::Equals(const Value& other) const {
  if (is_null_ || other.is_null_) return is_null_ && other.is_null_;
  if (IsNumeric(type_) && IsNumeric(other.type_)) {
    if (type_ == TypeId::kInt64 && other.type_ == TypeId::kInt64) {
      return int_ == other.int_;
    }
    return AsDouble() == other.AsDouble();
  }
  if (type_ != other.type_) return false;
  switch (type_) {
    case TypeId::kBool:
      return int_ == other.int_;
    case TypeId::kString:
      return string_ == other.string_;
    default:
      return false;
  }
}

int Value::Compare(const Value& other) const {
  // NULLs sort first.
  if (is_null_ && other.is_null_) return 0;
  if (is_null_) return -1;
  if (other.is_null_) return 1;
  if (IsNumeric(type_) && IsNumeric(other.type_)) {
    if (type_ == TypeId::kInt64 && other.type_ == TypeId::kInt64) {
      return CompareScalars(int_, other.int_);
    }
    return CompareScalars(AsDouble(), other.AsDouble());
  }
  if (type_ == TypeId::kString && other.type_ == TypeId::kString) {
    return CompareScalars(string_, other.string_);
  }
  if (type_ == TypeId::kBool && other.type_ == TypeId::kBool) {
    return CompareScalars(int_, other.int_);
  }
  // Heterogeneous non-numeric: order by type id for determinism.
  return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
}

std::string Value::ToString() const {
  if (is_null_) return "NULL";
  switch (type_) {
    case TypeId::kBool:
      return int_ ? "true" : "false";
    case TypeId::kInt64:
      return std::to_string(int_);
    case TypeId::kDouble:
      return FormatDouble(double_);
    case TypeId::kString:
      return string_;
    case TypeId::kNull:
      break;
  }
  return "NULL";
}

}  // namespace dbspinner
