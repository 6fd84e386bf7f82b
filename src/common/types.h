// Logical type system of dbspinner.
//
// The engine supports the types needed by the paper's workloads (graph ids,
// ranks/distances, labels) plus BOOL for predicates.

#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"

namespace dbspinner {

/// Logical column / value type.
enum class TypeId : uint8_t {
  kNull = 0,   ///< The type of an untyped NULL literal.
  kBool,
  kInt64,
  kDouble,
  kString,
};

/// SQL-facing name of a type ("BIGINT", "DOUBLE", ...).
const char* TypeName(TypeId t);

/// Parses a SQL type name (case-insensitive; accepts common aliases:
/// INT/INTEGER/BIGINT, FLOAT/DOUBLE/REAL/NUMERIC/DECIMAL, TEXT/VARCHAR/STRING,
/// BOOL/BOOLEAN).
Result<TypeId> ParseTypeName(const std::string& name);

/// True if values of `from` may be implicitly used where `to` is expected.
/// NULL coerces to anything; INT64 widens to DOUBLE.
bool IsImplicitlyCoercible(TypeId from, TypeId to);

/// Result type of combining two inputs arithmetically / for comparison:
/// the "wider" of the two numeric types. Errors on non-numeric mixes.
Result<TypeId> CommonNumericType(TypeId a, TypeId b);

/// The one type two inputs unify to (UNION branches, CASE results, a
/// looping CTE's parts): equal types give `a`, NULL gives the other type,
/// anything else goes to CommonNumericType.
Result<TypeId> CommonType(TypeId a, TypeId b);

/// True for INT64 / DOUBLE (and NULL, which acts as a numeric wildcard).
bool IsNumeric(TypeId t);

}  // namespace dbspinner
