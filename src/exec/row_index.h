// RowIndex: the one hash index behind every join, aggregate, dedupe and
// merge (DESIGN.md §11, "Row index"). A flat open-addressing slot table
// holds one group head per distinct key; a `next` array chains the rest of
// each group in ascending build-row order. The hash mode is fixed at
// construction from the key types: a single INT64 key probed by INT64
// hashes and compares the raw int, every other shape goes through
// ColumnVector::HashAt and EqualsAt, except that an INT64 build column
// probed by DOUBLE keys groups its rows by their double image.

#pragma once

#include <cstdint>
#include <vector>

#include "storage/column_vector.h"
#include "storage/table.h"

namespace dbspinner {

/// The key columns of one side of an index, in key order.
using KeyColumns = std::vector<const ColumnVector*>;

/// Columns `cols` of `t`.
KeyColumns KeyColumnsOf(const Table& t, const std::vector<size_t>& cols);
/// Every column of `t`.
KeyColumns AllColumnsOf(const Table& t);
/// The types of `cols`.
std::vector<TypeId> KeyTypes(const KeyColumns& cols);
/// Combined ColumnVector::HashAt of row `row` over `keys`: the generic
/// index hash, and the hash MPP partitions rows by.
uint64_t HashKeys(const KeyColumns& keys, size_t row);

class RowIndex {
 public:
  /// How NULL keys behave. An equi-join never matches a NULL key, so
  /// kSkip leaves NULL-keyed build rows out and makes NULL probes miss.
  /// Grouping, DISTINCT, set operations and merges treat NULL as a value
  /// equal to itself (kMatch), as ColumnVector::EqualsAt does, and all
  /// NaNs as one value.
  enum class Nulls { kSkip, kMatch };

  /// An index with no build columns; assign a real one before use.
  RowIndex() = default;

  /// An empty index over the `build` key columns, sized for
  /// `expected_keys` distinct keys and build rows [0, `expected_rows`)
  /// (it grows past both). `probe_types` are the key types it will be
  /// probed with; with the build types they fix the hash mode.
  RowIndex(KeyColumns build, const std::vector<TypeId>& probe_types,
           Nulls nulls, size_t expected_keys, size_t expected_rows);

  /// An index over every row of `build`.
  static RowIndex Build(KeyColumns build,
                        const std::vector<TypeId>& probe_types, Nulls nulls);

  /// True when keys of these types may probe this index: the probe types
  /// it was built for.
  bool Accepts(const std::vector<TypeId>& probe_types) const;

  /// For an index made by Build(): itself when it accepts `probe`'s key
  /// types, else the same build re-indexed for them into `*scratch`.
  const RowIndex& Fit(const KeyColumns& probe, RowIndex* scratch) const;

  /// The lowest build row whose key equals row `row` of `probe`, or
  /// kNoMatch. Walk the rest of its group with Next().
  uint32_t Find(const KeyColumns& probe, size_t row) const {
    if (!int_mode_) return FindGeneric(probe, row);
    const ColumnVector& key = *probe[0];
    if (key.IsNull(row)) return nulls_ == Nulls::kSkip ? kNoMatch : null_head_;
    // In this mode the stored hash is the key itself.
    const uint64_t h = static_cast<uint64_t>(key.Int64At(row));
    for (size_t s = Slot(h);; s = (s + 1) & mask_) {
      const uint32_t e = slots_[s];
      if (e == kNoMatch || hashes_[e] == h) return e;
    }
  }

  /// The next build row after `r` with the same key, or kNoMatch.
  uint32_t Next(uint32_t r) const { return next_[r]; }

  /// Find(), and when nothing matches, indexes build row `id` under the
  /// probe row's key. Returns the match, or `id` when it was inserted; the
  /// caller makes build row `id` hold that key before the next lookup.
  /// Under kSkip a NULL-keyed probe returns kNoMatch and inserts nothing.
  uint32_t FindOrInsert(const KeyColumns& probe, size_t row, uint32_t id);

 private:
  static constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;

  size_t Slot(uint64_t h) const { return (h * kMul) >> shift_; }
  /// Whether row `row` of `keys` has the key of build row `e`, as this
  /// index groups keys.
  bool KeysEqual(const KeyColumns& keys, size_t row, uint32_t e) const;
  uint32_t FindGeneric(const KeyColumns& probe, size_t row) const;
  /// Hash of row `row` of `keys` in this index's mode; false (and no hash)
  /// when the row has a NULL key that kSkip leaves out.
  bool HashKey(const KeyColumns& keys, size_t row, uint64_t* h) const;
  /// Slot of the group whose key equals `keys`[row] (hash `h`), or the
  /// empty slot where that group would go.
  size_t Locate(const KeyColumns& keys, size_t row, uint64_t h) const;
  /// Makes build row `r` the head of its key's group. Prepending keeps
  /// groups ascending when rows arrive in descending order.
  void Prepend(uint32_t r);
  void EnsureRow(uint32_t id);
  void Resize(size_t capacity);

  KeyColumns build_;
  std::vector<TypeId> probe_types_;
  Nulls nulls_ = Nulls::kMatch;
  bool int_mode_ = false;
  bool widened_ = false;  ///< some INT64 build column has DOUBLE probes
  int shift_ = 64;
  size_t mask_ = 0;
  size_t num_keys_ = 0;
  std::vector<uint32_t> slots_;    ///< group head row per slot, or kNoMatch
  std::vector<uint64_t> hashes_;   ///< per build row
  std::vector<uint32_t> next_;     ///< per build row: next row of its group
  uint32_t null_head_ = kNoMatch;  ///< INT64 mode under kMatch: NULL group
};

/// Set semantics over whole rows, NULL equal to NULL (Nulls::kMatch): the
/// ascending ids of the first occurrence of each distinct row of `left`.
/// With a `right` table, only rows that appear in it (`in_right`, for
/// INTERSECT) or that do not (EXCEPT) are kept; without one (DISTINCT),
/// every distinct row is.
std::vector<uint32_t> DistinctRowIds(const Table& left, const Table* right,
                                     bool in_right);

}  // namespace dbspinner
