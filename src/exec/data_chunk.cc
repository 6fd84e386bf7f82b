#include "exec/data_chunk.h"

#include <algorithm>

namespace dbspinner {

DataChunk::DataChunk(TablePtr base, size_t begin, size_t count)
    : base_(std::move(base)), size_(count) {
  AddWindow(static_cast<uint32_t>(begin));
  columns_.reserve(base_->num_columns());
  for (size_t c = 0; c < base_->num_columns(); ++c) {
    AddColumn(base_->column_ptr(c), 0);
  }
}

RowSet DataChunk::source_rows(size_t s) const {
  const Source& src = sources_[s];
  if (!src.listed) return RowSet::Window(src.begin, size_);
  return RowSet{src.ids.data(), 0, size_, src.padded};
}

EvalInput DataChunk::Input() const {
  std::vector<ColumnRead> cols;
  cols.reserve(columns_.size());
  for (const Column& c : columns_) {
    cols.push_back(ColumnRead{c.data, source_rows(c.source)});
  }
  return EvalInput(std::move(cols), size_);
}

size_t DataChunk::AddWindow(uint32_t begin) {
  Source src;
  src.begin = begin;
  sources_.push_back(std::move(src));
  return sources_.size() - 1;
}

size_t DataChunk::AddList(std::vector<uint32_t> ids, bool padded) {
  Source src;
  src.listed = true;
  src.padded = padded;
  src.ids = std::move(ids);
  sources_.push_back(std::move(src));
  return sources_.size() - 1;
}

size_t DataChunk::TakeSource(DataChunk* from, size_t s) {
  sources_.push_back(std::move(from->sources_[s]));
  return sources_.size() - 1;
}

void DataChunk::AddColumn(ColumnVectorPtr data, size_t source) {
  columns_.push_back(Column{std::move(data), static_cast<uint32_t>(source)});
}

TablePtr DataChunk::WholeBase() const {
  if (base_ == nullptr || sources_[0].listed || sources_[0].begin != 0 ||
      size_ != base_->num_rows()) {
    return nullptr;
  }
  return base_;
}

void DataChunk::Restrict(const std::vector<uint32_t>& positions) {
  const size_t n = positions.size();
  for (Source& src : sources_) {
    if (src.listed) {
      // Positions ascend, so each id moves to a slot at or before its own.
      for (size_t k = 0; k < n; ++k) src.ids[k] = src.ids[positions[k]];
      src.ids.resize(n);
    } else {
      src.ids.resize(n);
      for (size_t k = 0; k < n; ++k) src.ids[k] = src.begin + positions[k];
      src.listed = true;
    }
  }
  size_ = n;
}

void DataChunk::AppendTo(std::vector<ColumnVectorPtr>* out) const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    AppendColumn(c, (*out)[c].get());
  }
}

ColumnVectorPtr DataChunk::Dense(size_t c) const {
  auto out = std::make_shared<ColumnVector>(column(c).type());
  AppendColumn(c, out.get());
  return out;
}

void DataChunk::AppendColumn(size_t c, ColumnVector* out) const {
  const RowSet rows = this->rows(c);
  if (rows.sel != nullptr) {
    out->AppendGathered(column(c), rows.sel, size_);
  } else {
    out->AppendRange(column(c), rows.begin, size_);
  }
}

TablePtr DataChunk::Materialize(const Schema& schema) const {
  if (TablePtr whole = WholeBase()) return whole;
  bool shared = true;
  for (size_t c = 0; c < columns_.size() && shared; ++c) {
    const RowSet rows = this->rows(c);
    shared = rows.sel == nullptr && rows.begin == 0 &&
             column(c).size() == size_ &&
             column(c).type() == schema.column(c).type;
  }
  std::vector<ColumnVectorPtr> cols;
  cols.reserve(columns_.size());
  if (shared) {
    for (const Column& c : columns_) cols.push_back(c.data);
  } else {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      cols.push_back(std::make_shared<ColumnVector>(schema.column(c).type));
    }
    AppendTo(&cols);
  }
  return Table::FromColumns(schema, std::move(cols));
}

std::vector<DataChunk> SplitIntoMorsels(const TablePtr& table,
                                        size_t morsel_size) {
  if (morsel_size == 0) morsel_size = 1;
  std::vector<DataChunk> chunks;
  size_t n = table->num_rows();
  chunks.reserve((n + morsel_size - 1) / morsel_size);
  for (size_t begin = 0; begin < n; begin += morsel_size) {
    chunks.emplace_back(table, begin, std::min(morsel_size, n - begin));
  }
  return chunks;
}

}  // namespace dbspinner
