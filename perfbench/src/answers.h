// Answer checking for the benchmark: results reduced to numeric rows, an
// order-independent and an order-dependent fingerprint, and a tolerant
// row-set comparison for floating-point aggregates.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "storage/table.h"

namespace perfbench {

/// A result with every cell widened to double (integers below 2^53 convert
/// exactly) plus a null flag, stored row-major.
struct Rows {
  size_t ncols = 0;
  std::vector<double> cells;
  std::vector<uint8_t> nulls;

  size_t size() const { return ncols == 0 ? 0 : cells.size() / ncols; }
  void AddRow(const std::vector<double>& values);
  /// Sorts rows lexicographically (nulls first) so two results with the same
  /// rows in any order line up.
  void Sort();
};

/// Converts a result table; fails (returns false) on string columns, which
/// no benchmark statement produces.
bool ToRows(const dbspinner::Table& table, Rows* out);

/// True when `a` and `b` hold the same rows in the same order, doubles equal
/// within `rel_tol` relative (absolute below 1). `why` names the first
/// difference.
bool NearlyEqual(const Rows& a, const Rows& b, double rel_tol,
                 std::string* why);

/// Hash of one row of numeric cells (null cells hash as a fixed marker).
uint64_t RowHash(const double* cells, const uint8_t* nulls, size_t ncols);

/// Exact fingerprints of a result: row count plus the wrapping sum of row
/// hashes (any order) or a chained hash (row order matters).
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Fingerprint&) const = default;
};
Fingerprint MultisetFingerprint(const Rows& rows);
Fingerprint SequenceFingerprint(const Rows& rows);

/// An answer gate: returns true when `table` is the expected answer,
/// otherwise false with a reason.
using Checker =
    std::function<bool(const dbspinner::Table& table, std::string* why)>;

/// Gate comparing against fixed rows, tolerant on doubles; rows are sorted
/// first unless `ordered`.
Checker RowsChecker(Rows expected, bool ordered, double rel_tol);

/// Gates comparing exact fingerprints (large results of pass-through
/// columns, where a full sort per check would dominate the run).
Checker MultisetChecker(Fingerprint expected);
Checker SequenceChecker(Fingerprint expected);

/// True when two results of the same operation agree: same rows in any
/// order, doubles within `rel_tol`.
bool SameResult(const dbspinner::Table& a, const dbspinner::Table& b,
                double rel_tol, std::string* why);

}  // namespace perfbench
