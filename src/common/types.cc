#include "common/types.h"

#include "common/string_util.h"

namespace dbspinner {

const char* TypeName(TypeId t) {
  switch (t) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kBool:
      return "BOOLEAN";
    case TypeId::kInt64:
      return "BIGINT";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kString:
      return "VARCHAR";
  }
  return "UNKNOWN";
}

Result<TypeId> ParseTypeName(const std::string& name) {
  std::string up = ToUpper(name);
  if (up == "INT" || up == "INTEGER" || up == "BIGINT" || up == "SMALLINT") {
    return TypeId::kInt64;
  }
  if (up == "FLOAT" || up == "DOUBLE" || up == "REAL" || up == "NUMERIC" ||
      up == "DECIMAL" || up == "DOUBLE PRECISION") {
    return TypeId::kDouble;
  }
  if (up == "TEXT" || up == "VARCHAR" || up == "STRING" || up == "CHAR") {
    return TypeId::kString;
  }
  if (up == "BOOL" || up == "BOOLEAN") {
    return TypeId::kBool;
  }
  return Status::TypeError("unknown type name: " + name);
}

bool IsImplicitlyCoercible(TypeId from, TypeId to) {
  if (from == to) return true;
  if (from == TypeId::kNull) return true;
  if (from == TypeId::kInt64 && to == TypeId::kDouble) return true;
  return false;
}

bool IsNumeric(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble || t == TypeId::kNull;
}

Result<TypeId> CommonNumericType(TypeId a, TypeId b) {
  if (!IsNumeric(a) || !IsNumeric(b)) {
    return Status::TypeError(std::string("expected numeric types, got ") +
                             TypeName(a) + " and " + TypeName(b));
  }
  if (a == TypeId::kDouble || b == TypeId::kDouble) return TypeId::kDouble;
  if (a == TypeId::kInt64 || b == TypeId::kInt64) return TypeId::kInt64;
  return TypeId::kNull;
}

Result<TypeId> CommonType(TypeId a, TypeId b) {
  if (a == b || b == TypeId::kNull) return a;
  if (a == TypeId::kNull) return b;
  return CommonNumericType(a, b);
}

}  // namespace dbspinner
