#include "storage/column_vector.h"

#include <cassert>

namespace dbspinner {

void ColumnVector::Reserve(size_t n) {
  nulls_.reserve(n);
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
      ints_.reserve(n);
      break;
    case TypeId::kDouble:
      doubles_.reserve(n);
      break;
    case TypeId::kString:
      strings_.reserve(n);
      break;
    case TypeId::kNull:
      break;
  }
}

void ColumnVector::AppendInt64Raw(int64_t v) {
  ints_.push_back(v);
  nulls_.push_back(0);
  ++size_;
}

void ColumnVector::AppendDouble(double v) {
  doubles_.push_back(v);
  nulls_.push_back(0);
  ++size_;
}

void ColumnVector::AppendString(std::string v) {
  strings_.push_back(std::move(v));
  nulls_.push_back(0);
  ++size_;
}

void ColumnVector::AppendNull() {
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
      ints_.push_back(0);
      break;
    case TypeId::kDouble:
      doubles_.push_back(0);
      break;
    case TypeId::kString:
      strings_.emplace_back();
      break;
    case TypeId::kNull:
      break;
  }
  nulls_.push_back(1);
  ++size_;
}

void ColumnVector::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case TypeId::kBool:
      AppendBool(v.bool_value());
      return;
    case TypeId::kInt64:
      AppendInt64(v.AsInt64());
      return;
    case TypeId::kDouble:
      AppendDouble(v.AsDouble());
      return;
    case TypeId::kString:
      if (v.type() == TypeId::kString) {
        AppendString(v.string_value());
      } else {
        AppendString(v.ToString());
      }
      return;
    case TypeId::kNull:
      AppendNull();
      return;
  }
}

Value ColumnVector::GetValue(size_t i) const {
  assert(i < size_);
  if (nulls_[i]) return Value::Null(type_);
  switch (type_) {
    case TypeId::kBool:
      return Value::Bool(ints_[i] != 0);
    case TypeId::kInt64:
      return Value::Int64(ints_[i]);
    case TypeId::kDouble:
      return Value::Double(doubles_[i]);
    case TypeId::kString:
      return Value::String(strings_[i]);
    case TypeId::kNull:
      break;
  }
  return Value::Null();
}

void ColumnVector::AppendFrom(const ColumnVector& src, size_t i) {
  if (src.nulls_[i]) {
    AppendNull();
    return;
  }
  if (src.type_ == type_) {
    switch (type_) {
      case TypeId::kBool:
      case TypeId::kInt64:
        AppendInt64Raw(src.ints_[i]);
        return;
      case TypeId::kDouble:
        AppendDouble(src.doubles_[i]);
        return;
      case TypeId::kString:
        AppendString(src.strings_[i]);
        return;
      case TypeId::kNull:
        AppendNull();
        return;
    }
  }
  // Coercing path (e.g. INT64 source into DOUBLE column).
  Append(src.GetValue(i));
}

ColumnVectorPtr ColumnVector::Gather(const std::vector<uint32_t>& sel) const {
  auto out = std::make_shared<ColumnVector>(type_);
  out->AppendGathered(*this, sel);
  return out;
}

void ColumnVector::AppendGathered(const ColumnVector& src, const uint32_t* sel,
                                  size_t n) {
  if (src.type_ != type_) {
    // Coercing path (e.g. INT64 source into DOUBLE column).
    Reserve(size_ + n);
    for (size_t k = 0; k < n; ++k) {
      sel[k] == kNoMatch ? AppendNull() : AppendFrom(src, sel[k]);
    }
    return;
  }
  size_t base = size_;
  nulls_.resize(base + n);
  for (size_t i = 0; i < n; ++i) {
    nulls_[base + i] = sel[i] == kNoMatch ? 1 : src.nulls_[sel[i]];
  }
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64: {
      size_t ibase = ints_.size();
      ints_.resize(ibase + n);
      const int64_t* in = src.ints_.data();
      int64_t* out = ints_.data() + ibase;
      for (size_t i = 0; i < n; ++i) {
        out[i] = sel[i] == kNoMatch ? 0 : in[sel[i]];
      }
      break;
    }
    case TypeId::kDouble: {
      size_t dbase = doubles_.size();
      doubles_.resize(dbase + n);
      const double* in = src.doubles_.data();
      double* out = doubles_.data() + dbase;
      for (size_t i = 0; i < n; ++i) {
        out[i] = sel[i] == kNoMatch ? 0 : in[sel[i]];
      }
      break;
    }
    case TypeId::kString: {
      strings_.reserve(strings_.size() + n);
      for (size_t i = 0; i < n; ++i) {
        strings_.push_back(sel[i] == kNoMatch ? "" : src.strings_[sel[i]]);
      }
      break;
    }
    case TypeId::kNull:
      break;
  }
  size_ = base + n;
}

void ColumnVector::AppendRaw(const int64_t* ints, const double* doubles,
                             const std::string* strings, const uint8_t* nulls,
                             size_t n) {
  size_t base = size_;
  nulls_.resize(base + n);
  for (size_t i = 0; i < n; ++i) nulls_[base + i] = nulls[i] != 0;
  // NULL slots hold 0 / "" as AppendNull leaves them.
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
      ints_.resize(base + n);
      for (size_t i = 0; i < n; ++i) ints_[base + i] = nulls[i] ? 0 : ints[i];
      break;
    case TypeId::kDouble:
      doubles_.resize(base + n);
      for (size_t i = 0; i < n; ++i) {
        doubles_[base + i] = nulls[i] ? 0 : doubles[i];
      }
      break;
    case TypeId::kString:
      for (size_t i = 0; i < n; ++i) {
        strings_.push_back(nulls[i] ? std::string() : strings[i]);
      }
      break;
    case TypeId::kNull:
      break;
  }
  size_ = base + n;
}

void ColumnVector::OverwriteRows(const std::vector<uint32_t>& rows,
                                 const ColumnVector& src,
                                 const std::vector<uint32_t>& src_rows) {
  if (src.type_ != type_) {
    ColumnVector coerced(type_);
    coerced.AppendAll(src);
    OverwriteRows(rows, coerced, src_rows);
    return;
  }
  size_t n = rows.size();
  for (size_t k = 0; k < n; ++k) nulls_[rows[k]] = src.nulls_[src_rows[k]];
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
      for (size_t k = 0; k < n; ++k) ints_[rows[k]] = src.ints_[src_rows[k]];
      break;
    case TypeId::kDouble:
      for (size_t k = 0; k < n; ++k) {
        doubles_[rows[k]] = src.doubles_[src_rows[k]];
      }
      break;
    case TypeId::kString:
      for (size_t k = 0; k < n; ++k) {
        strings_[rows[k]] = src.strings_[src_rows[k]];
      }
      break;
    case TypeId::kNull:
      break;
  }
}

void ColumnVector::AppendRange(const ColumnVector& src, size_t begin,
                               size_t count) {
  if (count == 0) return;
  if (src.type_ != type_) {
    Reserve(size_ + count);
    for (size_t i = 0; i < count; ++i) AppendFrom(src, begin + i);
    return;
  }
  nulls_.insert(nulls_.end(), src.nulls_.begin() + begin,
                src.nulls_.begin() + begin + count);
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
      ints_.insert(ints_.end(), src.ints_.begin() + begin,
                   src.ints_.begin() + begin + count);
      break;
    case TypeId::kDouble:
      doubles_.insert(doubles_.end(), src.doubles_.begin() + begin,
                      src.doubles_.begin() + begin + count);
      break;
    case TypeId::kString:
      strings_.insert(strings_.end(), src.strings_.begin() + begin,
                      src.strings_.begin() + begin + count);
      break;
    case TypeId::kNull:
      break;
  }
  size_ += count;
}

void ColumnVector::AppendAll(const ColumnVector& src) {
  AppendRange(src, 0, src.size_);
}

size_t ColumnVector::HashAt(size_t i) const {
  if (nulls_[i]) return 0x9e3779b97f4a7c15ULL;
  switch (type_) {
    case TypeId::kBool:
      return std::hash<int64_t>()(ints_[i] + 2);
    case TypeId::kInt64:
      // The double image: EqualsAt compares INT64 with DOUBLE as doubles.
      return std::hash<double>()(static_cast<double>(ints_[i]));
    case TypeId::kDouble:
      return HashDouble(doubles_[i]);
    case TypeId::kString:
      return std::hash<std::string>()(strings_[i]);
    case TypeId::kNull:
      break;
  }
  return 0;
}

bool ColumnVector::EqualsAt(size_t i, const ColumnVector& other,
                            size_t j) const {
  bool an = nulls_[i] != 0;
  bool bn = other.nulls_[j] != 0;
  if (an || bn) return an && bn;
  if (type_ == other.type_) {
    switch (type_) {
      case TypeId::kBool:
      case TypeId::kInt64:
        return ints_[i] == other.ints_[j];
      case TypeId::kDouble:
        return doubles_[i] == other.doubles_[j];
      case TypeId::kString:
        return strings_[i] == other.strings_[j];
      case TypeId::kNull:
        return true;
    }
  }
  if (IsNumeric(type_) && IsNumeric(other.type_)) {
    return NumericAt(i) == other.NumericAt(j);
  }
  return false;
}

}  // namespace dbspinner
