// DataChunk: a morsel-sized view over a materialized table.
//
// The vectorized pipeline executor (exec/pipeline.cc, DESIGN.md §11) never
// copies rows between streaming operators. A chunk is a shared TablePtr plus
// either a contiguous row window or an absolute selection vector; filters
// and semi-joins refine the selection in place, projections and probes swap
// in a new dense base. Rows are copied exactly once, at the pipeline sink
// (or at a pipeline breaker), via the batch Append* paths of ColumnVector.
//
// A projection or probe emits only its live columns: the ones a later
// stage or the sink reads. Its base is a table of just those columns, and
// the stages above it read them through ordinals remapped when the
// pipeline is compiled, so a chunk's column c is not necessarily column c
// of the operator's output schema.

#pragma once

#include <cstdint>
#include <vector>

#include "expr/vector_eval.h"
#include "storage/table.h"

namespace dbspinner {

/// A view of `size()` rows of a backing table. Cheap to copy when
/// contiguous; the selection vector moves with the chunk otherwise.
class DataChunk {
 public:
  DataChunk() = default;

  /// Contiguous window [begin, begin + count) over `base`.
  DataChunk(TablePtr base, size_t begin, size_t count)
      : base_(std::move(base)),
        begin_(static_cast<uint32_t>(begin)),
        count_(static_cast<uint32_t>(count)) {}

  const TablePtr& base() const { return base_; }
  const Table& table() const { return *base_; }

  size_t size() const { return has_sel_ ? sel_.size() : count_; }
  bool empty() const { return size() == 0; }
  bool contiguous() const { return !has_sel_; }
  uint32_t begin() const { return begin_; }

  /// Absolute base-table row id at chunk position `i`.
  uint32_t RowAt(size_t i) const {
    return has_sel_ ? sel_[i] : begin_ + static_cast<uint32_t>(i);
  }

  /// The absolute selection (valid only when !contiguous()).
  const std::vector<uint32_t>& selection() const { return sel_; }

  /// The chunk's rows of base(), for the expression evaluator (valid
  /// until the selection changes).
  RowSet rows() const {
    return has_sel_ ? RowSet::Of(sel_) : RowSet::Window(begin_, count_);
  }

  /// Replaces the view with an absolute selection into base().
  void SetSelection(std::vector<uint32_t> sel) {
    sel_ = std::move(sel);
    has_sel_ = true;
  }

  /// Keeps only the given positions (indices into the *current* view, in
  /// increasing order), refining the selection in place.
  void Restrict(const std::vector<uint32_t>& positions);

  /// Dense copy of the chunk's rows (base schema), using the batch
  /// range/gather column paths.
  TablePtr Materialize() const;

  /// Appends the chunk's rows to `out` — one accumulator per base column,
  /// types already matching. This is the pipeline sink's copy.
  void AppendTo(std::vector<ColumnVectorPtr>* out) const;

 private:
  TablePtr base_;
  uint32_t begin_ = 0;
  uint32_t count_ = 0;
  bool has_sel_ = false;
  std::vector<uint32_t> sel_;
};

/// Splits `table` into contiguous chunks of at most `morsel_size` rows
/// (at least one chunk only when the table is non-empty).
std::vector<DataChunk> SplitIntoMorsels(const TablePtr& table,
                                        size_t morsel_size);

}  // namespace dbspinner
