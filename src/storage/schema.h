// Schema: ordered, typed column list of a table or intermediate result.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace dbspinner {

/// One column: normalized (lower-case) name and logical type.
struct Column {
  std::string name;
  TypeId type;

  bool operator==(const Column& other) const {
    return name == other.name && type == other.type;
  }
};

/// Ordered column list. Column names within a schema need not be unique
/// (e.g. join outputs); positional access is authoritative.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  void AddColumn(std::string name, TypeId type);

  /// The columns `cols` of this schema, in that order.
  Schema Select(const std::vector<size_t>& cols) const;

  /// First index whose name matches (case-insensitive), or nullopt.
  std::optional<size_t> FindColumn(const std::string& name) const;

  /// All indices whose name matches (case-insensitive).
  std::vector<size_t> FindAllColumns(const std::string& name) const;

  /// Structural equality (names + types, ordered).
  bool Equals(const Schema& other) const { return columns_ == other.columns_; }

  /// Same column count and pairwise-coercible types (names ignored) — the
  /// compatibility required by UNION and by iterative-CTE working tables.
  bool TypesCompatible(const Schema& other) const;

  /// "(name TYPE, name TYPE, ...)".
  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

}  // namespace dbspinner
