#include "storage/schema.h"

#include "common/string_util.h"

namespace dbspinner {

void Schema::AddColumn(std::string name, TypeId type) {
  columns_.push_back(Column{ToLower(name), type});
}

Schema Schema::Select(const std::vector<size_t>& cols) const {
  std::vector<Column> out;
  out.reserve(cols.size());
  for (size_t c : cols) out.push_back(columns_[c]);
  return Schema(std::move(out));
}

std::optional<size_t> Schema::FindColumn(const std::string& name) const {
  std::string lower = ToLower(name);
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == lower) return i;
  }
  return std::nullopt;
}

std::vector<size_t> Schema::FindAllColumns(const std::string& name) const {
  std::vector<size_t> out;
  std::string lower = ToLower(name);
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == lower) out.push_back(i);
  }
  return out;
}

bool Schema::TypesCompatible(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    TypeId a = columns_[i].type;
    TypeId b = other.columns_[i].type;
    if (!IsImplicitlyCoercible(b, a) && !IsImplicitlyCoercible(a, b)) {
      return false;
    }
  }
  return true;
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += " ";
    out += TypeName(columns_[i].type);
  }
  out += ")";
  return out;
}

}  // namespace dbspinner
