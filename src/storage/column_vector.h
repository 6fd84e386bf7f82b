// ColumnVector: typed, nullable columnar storage.
//
// One ColumnVector holds all values of one column of a Table. Data is stored
// in a typed std::vector (plus a null bytemap), which keeps the executor's
// hot loops monomorphic; Value is only used at the per-row boundary.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "common/value.h"

namespace dbspinner {

class ColumnVector;
using ColumnVectorPtr = std::shared_ptr<ColumnVector>;

/// A selection index naming no source row: gathering it emits NULL (the
/// padding of an outer join's unmatched side), and a RowIndex lookup that
/// finds nothing returns it.
inline constexpr uint32_t kNoMatch = 0xffffffffu;

/// A single column of nullable values of a fixed TypeId.
class ColumnVector {
 public:
  explicit ColumnVector(TypeId type) : type_(type) {}

  TypeId type() const { return type_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Reserve(size_t n);

  /// Appends a value, implicitly coercing NULL and INT64->DOUBLE.
  /// Precondition: value type is coercible to this column's type.
  void Append(const Value& v);

  void AppendNull();
  void AppendBool(bool b) { AppendInt64Raw(b ? 1 : 0); }
  void AppendInt64(int64_t v) { AppendInt64Raw(v); }
  void AppendDouble(double v);
  void AppendString(std::string v);

  bool IsNull(size_t i) const { return nulls_[i] != 0; }
  bool BoolAt(size_t i) const { return ints_[i] != 0; }
  int64_t Int64At(size_t i) const { return ints_[i]; }
  double DoubleAt(size_t i) const { return doubles_[i]; }
  const std::string& StringAt(size_t i) const { return strings_[i]; }

  /// Numeric accessor with implicit widening (valid for BOOL/INT64/DOUBLE).
  double NumericAt(size_t i) const {
    return type_ == TypeId::kDouble ? doubles_[i]
                                    : static_cast<double>(ints_[i]);
  }

  /// Boxes row `i` into a Value.
  Value GetValue(size_t i) const;

  /// Appends row `i` of `src` (must have an identical or coercible type).
  void AppendFrom(const ColumnVector& src, size_t i);

  /// New vector containing rows selected by `sel` in order; an index of
  /// kNoMatch yields NULL. Same-type copies run as type-specialized batch
  /// loops (no per-row type dispatch); an empty selection yields an empty
  /// vector of this vector's type.
  ColumnVectorPtr Gather(const std::vector<uint32_t>& sel) const;

  /// Appends every row of `src`.
  void AppendAll(const ColumnVector& src);

  /// Appends the contiguous rows [begin, begin + count) of `src`. Same-type
  /// appends are bulk range inserts; type-mismatched appends fall back to
  /// the coercing per-row path.
  void AppendRange(const ColumnVector& src, size_t begin, size_t count);

  /// Appends rows of `src` selected by `sel` in order (batch-specialized
  /// like Gather, but into an existing vector, coercing like AppendFrom
  /// when the types differ).
  void AppendGathered(const ColumnVector& src,
                      const std::vector<uint32_t>& sel) {
    AppendGathered(src, sel.data(), sel.size());
  }
  void AppendGathered(const ColumnVector& src, const uint32_t* sel, size_t n);

  /// Appends n rows from raw arrays of this vector's type: `ints` for
  /// BOOL/INT64, `doubles` for DOUBLE, `strings` for STRING (the others
  /// are not read). Row i is NULL when nulls[i] != 0, whatever its value
  /// slot holds.
  void AppendRaw(const int64_t* ints, const double* doubles,
                 const std::string* strings, const uint8_t* nulls, size_t n);

  /// Overwrites row rows[k] with row src_rows[k] of `src`, for every k
  /// (coercing like AppendFrom when the types differ).
  void OverwriteRows(const std::vector<uint32_t>& rows,
                     const ColumnVector& src,
                     const std::vector<uint32_t>& src_rows);

  /// Direct access for monomorphic executor loops.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }
  const std::vector<uint8_t>& nulls() const { return nulls_; }

  /// Hash of row i compatible with EqualsAt: numeric
  /// values hash by their double image, so equal INT64 and DOUBLE values
  /// hash alike, and every NaN hashes alike.
  size_t HashAt(size_t i) const;

  /// Value equality between row i of this and row j of other.
  bool EqualsAt(size_t i, const ColumnVector& other, size_t j) const;

 private:
  void AppendInt64Raw(int64_t v);

  TypeId type_;
  size_t size_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<uint8_t> nulls_;
};

}  // namespace dbspinner
