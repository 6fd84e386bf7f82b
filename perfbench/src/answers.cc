#include "answers.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "storage/column_vector.h"

namespace perfbench {

using dbspinner::ColumnVector;
using dbspinner::Table;
using dbspinner::TypeId;

namespace {

uint64_t Mix(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t DoubleBits(double v) {
  if (v == 0.0) v = 0.0;  // -0.0 and 0.0 compare equal; hash them alike
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

bool Close(double a, double b, double rel_tol) {
  if (a == b) return true;
  if (std::isnan(a) || std::isnan(b)) return false;
  return std::fabs(a - b) <= rel_tol * std::max(1.0, std::fabs(b));
}

}  // namespace

void Rows::AddRow(const std::vector<double>& values) {
  ncols = values.size();
  cells.insert(cells.end(), values.begin(), values.end());
  nulls.insert(nulls.end(), values.size(), 0);
}

void Rows::Sort() {
  const size_t n = size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  auto less = [this](size_t a, size_t b) {
    for (size_t c = 0; c < ncols; ++c) {
      const size_t ia = a * ncols + c;
      const size_t ib = b * ncols + c;
      if (nulls[ia] != nulls[ib]) return nulls[ia] > nulls[ib];
      if (nulls[ia] == 0 && cells[ia] != cells[ib]) {
        return cells[ia] < cells[ib];
      }
    }
    return false;
  };
  std::stable_sort(order.begin(), order.end(), less);
  Rows sorted;
  sorted.ncols = ncols;
  sorted.cells.reserve(cells.size());
  sorted.nulls.reserve(nulls.size());
  for (size_t r : order) {
    sorted.cells.insert(sorted.cells.end(), cells.begin() + r * ncols,
                        cells.begin() + (r + 1) * ncols);
    sorted.nulls.insert(sorted.nulls.end(), nulls.begin() + r * ncols,
                        nulls.begin() + (r + 1) * ncols);
  }
  *this = std::move(sorted);
}

bool ToRows(const Table& table, Rows* out) {
  const size_t ncols = table.num_columns();
  const size_t nrows = table.num_rows();
  out->ncols = ncols;
  out->cells.assign(ncols * nrows, 0.0);
  out->nulls.assign(ncols * nrows, 0);
  for (size_t c = 0; c < ncols; ++c) {
    const ColumnVector& col = table.column(c);
    if (col.type() == TypeId::kString) return false;
    for (size_t r = 0; r < nrows; ++r) {
      const size_t i = r * ncols + c;
      if (col.type() == TypeId::kNull || col.IsNull(r)) {
        out->nulls[i] = 1;
      } else {
        out->cells[i] = col.NumericAt(r);
      }
    }
  }
  return true;
}

bool NearlyEqual(const Rows& a, const Rows& b, double rel_tol,
                 std::string* why) {
  if (a.size() != b.size() || (a.size() > 0 && a.ncols != b.ncols)) {
    *why = "shape " + std::to_string(a.size()) + "x" +
           std::to_string(a.ncols) + " vs expected " +
           std::to_string(b.size()) + "x" + std::to_string(b.ncols);
    return false;
  }
  for (size_t i = 0; i < a.cells.size(); ++i) {
    const bool same = a.nulls[i] == b.nulls[i] &&
                      (a.nulls[i] != 0 || Close(a.cells[i], b.cells[i],
                                                rel_tol));
    if (!same) {
      *why = "row " + std::to_string(i / a.ncols) + " col " +
             std::to_string(i % a.ncols) + ": " +
             (a.nulls[i] ? std::string("NULL")
                         : std::to_string(a.cells[i])) +
             " vs expected " +
             (b.nulls[i] ? std::string("NULL")
                         : std::to_string(b.cells[i]));
      return false;
    }
  }
  return true;
}

uint64_t RowHash(const double* cells, const uint8_t* nulls, size_t ncols) {
  uint64_t h = 0x6a09e667f3bcc908ull ^ ncols;
  for (size_t c = 0; c < ncols; ++c) {
    h = Mix(h ^ (nulls[c] ? 0x5bd1e9955bd1e995ull : DoubleBits(cells[c])));
  }
  return h;
}

Fingerprint MultisetFingerprint(const Rows& rows) {
  Fingerprint fp;
  fp.rows = rows.size();
  for (size_t r = 0; r < fp.rows; ++r) {
    fp.hash += RowHash(&rows.cells[r * rows.ncols], &rows.nulls[r * rows.ncols],
                       rows.ncols);
  }
  return fp;
}

Fingerprint SequenceFingerprint(const Rows& rows) {
  Fingerprint fp;
  fp.rows = rows.size();
  for (size_t r = 0; r < fp.rows; ++r) {
    fp.hash = Mix(fp.hash ^ RowHash(&rows.cells[r * rows.ncols],
                                    &rows.nulls[r * rows.ncols], rows.ncols));
  }
  return fp;
}

Checker RowsChecker(Rows expected, bool ordered, double rel_tol) {
  if (!ordered) expected.Sort();
  return [expected = std::move(expected), ordered, rel_tol](
             const Table& table, std::string* why) {
    Rows got;
    if (!ToRows(table, &got)) {
      *why = "unexpected string column";
      return false;
    }
    if (!ordered) got.Sort();
    return NearlyEqual(got, expected, rel_tol, why);
  };
}

namespace {

Checker FingerprintChecker(Fingerprint expected,
                           Fingerprint (*fingerprint)(const Rows&)) {
  return [expected, fingerprint](const Table& table, std::string* why) {
    Rows got;
    if (!ToRows(table, &got)) {
      *why = "unexpected string column";
      return false;
    }
    const Fingerprint fp = fingerprint(got);
    if (fp == expected) return true;
    *why = "fingerprint mismatch: " + std::to_string(fp.rows) +
           " rows vs expected " + std::to_string(expected.rows);
    return false;
  };
}

}  // namespace

Checker MultisetChecker(Fingerprint expected) {
  return FingerprintChecker(expected, MultisetFingerprint);
}

Checker SequenceChecker(Fingerprint expected) {
  return FingerprintChecker(expected, SequenceFingerprint);
}

bool SameResult(const Table& a, const Table& b, double rel_tol,
                std::string* why) {
  Rows ra;
  Rows rb;
  if (!ToRows(a, &ra) || !ToRows(b, &rb)) {
    *why = "unexpected string column";
    return false;
  }
  ra.Sort();
  rb.Sort();
  return NearlyEqual(ra, rb, rel_tol, why);
}

}  // namespace perfbench
