#include "exec/row_index.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace dbspinner {

namespace {

bool RowHasNullKey(const KeyColumns& keys, size_t row) {
  for (const ColumnVector* k : keys) {
    if (k->IsNull(row)) return true;
  }
  return false;
}

// Whether row i of `a` and row j of `b` are both NaN: one group under
// kMatch, though NaN = NaN is false for a join.
bool BothNaN(const ColumnVector& a, size_t i, const ColumnVector& b,
             size_t j) {
  return a.type() == TypeId::kDouble && b.type() == TypeId::kDouble &&
         !a.IsNull(i) && !b.IsNull(j) && std::isnan(a.DoubleAt(i)) &&
         std::isnan(b.DoubleAt(j));
}

}  // namespace

KeyColumns KeyColumnsOf(const Table& t, const std::vector<size_t>& cols) {
  KeyColumns out;
  for (size_t c : cols) out.push_back(&t.column(c));
  return out;
}

KeyColumns AllColumnsOf(const Table& t) {
  KeyColumns out;
  for (size_t c = 0; c < t.num_columns(); ++c) out.push_back(&t.column(c));
  return out;
}

std::vector<TypeId> KeyTypes(const KeyColumns& cols) {
  std::vector<TypeId> out;
  for (const ColumnVector* c : cols) out.push_back(c->type());
  return out;
}

uint64_t HashKeys(const KeyColumns& keys, size_t row) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const ColumnVector* k : keys) {
    h ^= k->HashAt(row) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

RowIndex::RowIndex(KeyColumns build, const std::vector<TypeId>& probe_types,
                   Nulls nulls, size_t expected_keys, size_t expected_rows)
    : build_(std::move(build)),
      probe_types_(probe_types),
      nulls_(nulls),
      int_mode_(build_.size() == 1 && build_[0]->type() == TypeId::kInt64 &&
                probe_types.size() == 1 && probe_types[0] == TypeId::kInt64) {
  for (size_t i = 0; i < build_.size() && i < probe_types.size(); ++i) {
    widened_ |= build_[i]->type() == TypeId::kInt64 &&
                probe_types[i] == TypeId::kDouble;
  }
  size_t capacity = 16;
  while (capacity < 2 * expected_keys) capacity *= 2;
  Resize(capacity);
  hashes_.reserve(expected_rows);
  next_.reserve(expected_rows);
}

RowIndex RowIndex::Build(KeyColumns build,
                         const std::vector<TypeId>& probe_types, Nulls nulls) {
  const size_t n = build.empty() ? 0 : build[0]->size();
  RowIndex index(std::move(build), probe_types, nulls, n, n);
  index.hashes_.resize(n);
  index.next_.resize(n);
  // Descending rows, each prepended to its group: groups end up ascending.
  for (size_t r = n; r-- > 0;) index.Prepend(static_cast<uint32_t>(r));
  return index;
}

bool RowIndex::Accepts(const std::vector<TypeId>& probe_types) const {
  return probe_types == probe_types_;
}

const RowIndex& RowIndex::Fit(const KeyColumns& probe,
                              RowIndex* scratch) const {
  std::vector<TypeId> types = KeyTypes(probe);
  if (Accepts(types)) return *this;
  *scratch = Build(build_, types, nulls_);
  return *scratch;
}

bool RowIndex::KeysEqual(const KeyColumns& keys, size_t row,
                         uint32_t e) const {
  for (size_t i = 0; i < keys.size(); ++i) {
    const ColumnVector& a = *keys[i];
    const ColumnVector& b = *build_[i];
    if (widened_ && b.type() == TypeId::kInt64 &&
        probe_types_[i] == TypeId::kDouble && !a.IsNull(row) &&
        !b.IsNull(e)) {
      if (a.NumericAt(row) != b.NumericAt(e)) return false;
    } else if (!a.EqualsAt(row, b, e) &&
               !(nulls_ == Nulls::kMatch && BothNaN(a, row, b, e))) {
      return false;
    }
  }
  return true;
}

bool RowIndex::HashGeneric(const KeyColumns& keys, size_t row,
                           uint64_t* h) const {
  if (nulls_ == Nulls::kSkip && RowHasNullKey(keys, row)) return false;
  *h = HashKeys(keys, row);
  return true;
}

size_t RowIndex::Locate(const KeyColumns& keys, size_t row,
                        uint64_t h) const {
  for (size_t s = Slot(h);; s = (s + 1) & mask_) {
    const uint32_t e = slots_[s];
    if (e == kNoMatch) return s;
    if (hashes_[e] == h && (int_mode_ || KeysEqual(keys, row, e))) {
      return s;
    }
  }
}

uint32_t RowIndex::FindGeneric(const KeyColumns& probe, size_t row) const {
  uint64_t h;
  if (!HashKey(probe, row, &h)) return kNoMatch;
  return slots_[Locate(probe, row, h)];
}

void RowIndex::FindAll(const KeyColumns& probe, RowSet rows,
                       uint32_t* heads) const {
  if (int_mode_) {
    if (rows.sel != nullptr) {
      FindAllInt<true>(*probe[0], rows, heads);
    } else {
      FindAllInt<false>(*probe[0], rows, heads);
    }
    return;
  }
  for (size_t i = 0; i < rows.size; ++i) {
    const uint32_t row = rows.RowAt(i);
    heads[i] = row == kNoMatch ? kNoMatch : FindGeneric(probe, row);
  }
}

template <bool kListed>
void RowIndex::FindAllInt(const ColumnVector& key, RowSet rows,
                          uint32_t* heads) const {
  constexpr size_t kBatch = 256;
  constexpr size_t kMiss = static_cast<size_t>(-1);
  const int64_t* values = key.ints().data();
  const uint8_t* nulls = key.nulls().data();
  const uint32_t* slots = slots_.data();
  const uint64_t* hashes = hashes_.data();
  const uint32_t null_head = nulls_ == Nulls::kSkip ? kNoMatch : null_head_;
  auto row_at = [&](size_t i) -> uint32_t {
    return kListed ? rows.sel[i] : rows.begin + static_cast<uint32_t>(i);
  };
  size_t slot[kBatch];
  for (size_t off = 0; off < rows.size; off += kBatch) {
    const size_t m = std::min(kBatch, rows.size - off);
    uint32_t* out = heads + off;
    // The slot of every key, its line prefetched; NULL keys resolve here.
    for (size_t k = 0; k < m; ++k) {
      const uint32_t row = row_at(off + k);
      if ((kListed && row == kNoMatch) || nulls[row]) {
        out[k] = null_head;
        slot[k] = kMiss;
        continue;
      }
      // In this mode the stored hash is the key itself.
      slot[k] = Slot(static_cast<uint64_t>(values[row]));
      __builtin_prefetch(&slots[slot[k]]);
    }
    // Each slot's head, its hash line prefetched.
    for (size_t k = 0; k < m; ++k) {
      if (slot[k] == kMiss) continue;
      out[k] = slots[slot[k]];
      if (out[k] != kNoMatch) __builtin_prefetch(&hashes[out[k]]);
    }
    // The compares, probing on past other keys' groups.
    for (size_t k = 0; k < m; ++k) {
      if (slot[k] == kMiss) continue;
      const uint64_t h = static_cast<uint64_t>(values[row_at(off + k)]);
      uint32_t e = out[k];
      for (size_t s = slot[k]; e != kNoMatch && hashes[e] != h;) {
        s = (s + 1) & mask_;
        e = slots[s];
      }
      out[k] = e;
    }
  }
}

void RowIndex::Prepend(uint32_t r) {
  if (int_mode_ && build_[0]->IsNull(r)) {
    if (nulls_ == Nulls::kSkip) return;
    next_[r] = null_head_;
    null_head_ = r;
    return;
  }
  uint64_t h;
  if (!HashKey(build_, r, &h)) return;
  const size_t s = Locate(build_, r, h);
  if (slots_[s] == kNoMatch) ++num_keys_;
  hashes_[r] = h;
  next_[r] = slots_[s];
  slots_[s] = r;
}

uint32_t RowIndex::FindOrInsert(const KeyColumns& probe, size_t row,
                                uint32_t id) {
  if (int_mode_ && probe[0]->IsNull(row)) {
    if (nulls_ == Nulls::kSkip || null_head_ != kNoMatch) return null_head_;
    EnsureRow(id);
    next_[id] = kNoMatch;
    null_head_ = id;
    return id;
  }
  uint64_t h;
  if (!HashKey(probe, row, &h)) return kNoMatch;
  size_t s = Locate(probe, row, h);
  if (slots_[s] != kNoMatch) return slots_[s];
  if (2 * (num_keys_ + 1) > slots_.size()) {
    Resize(2 * slots_.size());
    s = Locate(probe, row, h);
  }
  EnsureRow(id);
  hashes_[id] = h;
  next_[id] = kNoMatch;
  slots_[s] = id;
  ++num_keys_;
  return id;
}

void RowIndex::EnsureRow(uint32_t id) {
  if (id < next_.size()) return;
  hashes_.resize(id + 1);
  next_.resize(id + 1);
}

void RowIndex::Resize(size_t capacity) {
  std::vector<uint32_t> old = std::move(slots_);
  slots_.assign(capacity, kNoMatch);
  mask_ = capacity - 1;
  shift_ = 64 - std::countr_zero(capacity);
  for (uint32_t head : old) {
    if (head == kNoMatch) continue;
    size_t s = Slot(hashes_[head]);
    while (slots_[s] != kNoMatch) s = (s + 1) & mask_;
    slots_[s] = head;
  }
}

std::vector<uint32_t> DistinctRowIds(const Table& left, const Table* right,
                                     bool in_right) {
  const size_t n = left.num_rows();
  const KeyColumns cols = AllColumnsOf(left);
  const std::vector<TypeId> types = KeyTypes(cols);
  RowIndex right_rows;
  if (right != nullptr) {
    right_rows = RowIndex::Build(AllColumnsOf(*right), types,
                                 RowIndex::Nulls::kMatch);
  }
  // The slot table grows with the distinct keys, often far fewer than n.
  // It starts sized for n / 8 keys (under 2n bytes, against 12n for the
  // per-row arrays): growing from 16 slots raised sql_ops peak RSS by 1.5%
  // through its many small doublings.
  RowIndex seen(cols, types, RowIndex::Nulls::kMatch, n / 8, n);
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < n; ++i) {
    if (right != nullptr &&
        (right_rows.Find(cols, i) != kNoMatch) != in_right) {
      continue;
    }
    if (seen.FindOrInsert(cols, i, i) == i) ids.push_back(i);
  }
  return ids;
}

}  // namespace dbspinner
