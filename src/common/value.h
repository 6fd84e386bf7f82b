// Value: a single dynamically-typed SQL scalar (with NULL).
//
// Row-level glue type used by the expression evaluator and in tests. Bulk data
// lives in typed ColumnVectors (storage/column_vector.h); Value is the
// boundary representation.

#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "common/types.h"

namespace dbspinner {

/// Three-way order of two non-NULL scalars of one type, as Value::Compare,
/// ORDER BY, MIN/MAX and grouping use it. Returns <0, 0, >0.
inline int CompareScalars(int64_t a, int64_t b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}
/// Doubles: IEEE order, except that NaN equals itself and sorts above every
/// number (as in PostgreSQL), which makes the order total. -0.0 equals 0.0.
inline int CompareScalars(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  if (a == b) return 0;
  return static_cast<int>(std::isnan(a)) - static_cast<int>(std::isnan(b));
}
inline int CompareScalars(const std::string& a, const std::string& b) {
  int c = a.compare(b);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

/// Hash of a double under which every NaN hashes alike, so grouping can
/// put all NaNs in one group.
inline size_t HashDouble(double d) {
  return std::isnan(d) ? size_t{0x7ff8000000000000ULL}
                       : std::hash<double>()(d);
}

/// The string conversions of CAST: the whole string must parse, integers
/// in base 10 and in range, booleans as `true`/`false` in any case.
bool ParseInt64(const std::string& s, int64_t* out);
bool ParseDouble(const std::string& s, double* out);
bool ParseBool(const std::string& s, bool* out);

/// A nullable scalar of one of the supported TypeIds.
class Value {
 public:
  /// NULL of unknown type.
  Value() : type_(TypeId::kNull), is_null_(true) {}

  static Value Null(TypeId type = TypeId::kNull) {
    Value v;
    v.type_ = type;
    v.is_null_ = true;
    return v;
  }
  static Value Bool(bool b) {
    Value v;
    v.type_ = TypeId::kBool;
    v.is_null_ = false;
    v.int_ = b ? 1 : 0;
    return v;
  }
  static Value Int64(int64_t i) {
    Value v;
    v.type_ = TypeId::kInt64;
    v.is_null_ = false;
    v.int_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.type_ = TypeId::kDouble;
    v.is_null_ = false;
    v.double_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.type_ = TypeId::kString;
    v.is_null_ = false;
    v.string_ = std::move(s);
    return v;
  }

  TypeId type() const { return type_; }
  bool is_null() const { return is_null_; }

  bool bool_value() const { return int_ != 0; }
  int64_t int64_value() const { return int_; }
  double double_value() const { return double_; }
  const std::string& string_value() const { return string_; }

  /// Numeric accessor with implicit INT64->DOUBLE widening.
  /// Precondition: !is_null() and IsNumeric(type()) (or BOOL).
  double AsDouble() const {
    if (type_ == TypeId::kDouble) return double_;
    return static_cast<double>(int_);
  }
  /// Integer accessor; truncates doubles toward zero.
  int64_t AsInt64() const {
    if (type_ == TypeId::kDouble) return static_cast<int64_t>(double_);
    return int_;
  }

  /// Explicit cast (CAST(x AS t)). NULL casts to NULL of the target type.
  Result<Value> CastTo(TypeId target) const;

  /// SQL equality (NULL-unaware; caller handles NULL three-valued logic).
  /// Numerics compare cross-type (1 == 1.0).
  bool Equals(const Value& other) const;

  /// Total ordering for ORDER BY / joins; NULLs sort first, NaN sorts
  /// above every number and equals itself. Returns <0,0,>0.
  int Compare(const Value& other) const;


  /// Display form ("NULL", "42", "3.14", "abc", "true").
  std::string ToString() const;

 private:
  TypeId type_;
  bool is_null_;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
};

inline int CompareScalars(const Value& a, const Value& b) {
  return a.Compare(b);
}

}  // namespace dbspinner
