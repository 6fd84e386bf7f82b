// DataChunk: a morsel-sized set of column views.
//
// The vectorized pipeline executor (exec/pipeline.cc, DESIGN.md §11) never
// copies rows between streaming operators. A chunk column is a base
// ColumnVector read through the row set of its *source*: a contiguous
// window or a list of row ids. Columns that come from one source share its
// row set, as in DuckDB's dictionary vectors. A row id of kNoMatch, which
// only a LEFT probe's padding emits, reads as NULL.
//
// Filters and delta restricts refine every source's rows by position. A
// hash probe composes each left source's rows with its pair list (one
// uint32 gather per source, not one per column) and adds the build table,
// read through the pair list's build rows, as a new source. A project
// passes a plain column reference through as the same view and evaluates
// every other output into a dense column. Rows are copied only where they
// are kept: at the materialize sink, via the batch Append* paths of
// ColumnVector.
//
// A chunk holds only its live columns: the ones a later stage or the sink
// reads (DESIGN.md §11, "Live columns"). The stages above a probe or
// project read them through ordinals remapped when the pipeline is
// compiled, so a chunk's column c is not necessarily column c of the
// operator's output schema. The chunk carries its own row count, so it may
// hold no column at all (a COUNT(*) above a probe).

#pragma once

#include <cstdint>
#include <vector>

#include "expr/vector_eval.h"
#include "storage/table.h"

namespace dbspinner {

class DataChunk {
 public:
  DataChunk() = default;

  /// Every column of `base`, over the rows [begin, begin + count).
  DataChunk(TablePtr base, size_t begin, size_t count);

  /// A chunk of `size` rows with no source and no column yet.
  explicit DataChunk(size_t size) : size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Column c's base column; position i reads its row rows(c).RowAt(i).
  const ColumnVector& column(size_t c) const { return *columns_[c].data; }
  const ColumnVectorPtr& column_ptr(size_t c) const {
    return columns_[c].data;
  }
  /// The source column c reads through.
  size_t source(size_t c) const { return columns_[c].source; }
  RowSet rows(size_t c) const { return source_rows(columns_[c].source); }

  size_t num_sources() const { return sources_.size(); }
  RowSet source_rows(size_t s) const;

  /// Every column through its own rows, for the expression evaluator
  /// (valid until the chunk changes).
  EvalInput Input() const;

  /// Adds a source reading the window [begin, begin + size()); returns its
  /// index.
  size_t AddWindow(uint32_t begin);
  /// Adds a source reading the row ids `ids` (size() of them; `padded`
  /// when some may be kNoMatch); returns its index.
  size_t AddList(std::vector<uint32_t> ids, bool padded);
  /// Moves source `s` of `from`, a chunk of the same size, into this one
  /// and returns its index here. `from` must not read it afterwards.
  size_t TakeSource(DataChunk* from, size_t s);
  /// Adds a column reading `data` through source `source`.
  void AddColumn(ColumnVectorPtr data, size_t source);

  /// Keeps only the given positions (indices into the *current* rows, in
  /// increasing order), refining every source's rows in place.
  void Restrict(const std::vector<uint32_t>& positions);

  /// Appends the chunk's rows to `out`, one accumulator per column (the
  /// pipeline sink's copy; a kNoMatch row appends NULL).
  void AppendTo(std::vector<ColumnVectorPtr>* out) const;

  /// Column c's rows copied into a new dense column of its type.
  ColumnVectorPtr Dense(size_t c) const;

  /// The chunk's rows as a table of `schema` (one column per chunk
  /// column): the viewed table itself when WholeBase() is set, a table
  /// sharing the base columns when every column reads all of its base in
  /// order, else a dense copy.
  TablePtr Materialize(const Schema& schema) const;

 private:
  /// The table a chunk made from one (first constructor) views, while the
  /// view is still that whole table, unchanged: every column, in order,
  /// over every row. Null otherwise.
  TablePtr WholeBase() const;
  /// Appends column c's rows to `out`.
  void AppendColumn(size_t c, ColumnVector* out) const;

  struct Source {
    uint32_t begin = 0;  ///< window start, when not listed
    bool listed = false;
    bool padded = false;        ///< ids may hold kNoMatch
    std::vector<uint32_t> ids;  ///< when listed
  };
  struct Column {
    ColumnVectorPtr data;
    uint32_t source = 0;
  };

  TablePtr base_;  ///< the table a chunk made from one views
  size_t size_ = 0;
  std::vector<Source> sources_;
  std::vector<Column> columns_;
};

/// Splits `table` into contiguous chunks of at most `morsel_size` rows
/// (at least one chunk only when the table is non-empty).
std::vector<DataChunk> SplitIntoMorsels(const TablePtr& table,
                                        size_t morsel_size);

}  // namespace dbspinner
