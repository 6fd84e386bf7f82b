#include "mpp/partition.h"

#include "exec/row_index.h"

namespace dbspinner {

std::vector<TablePtr> HashPartition(const Table& input,
                                    const std::vector<size_t>& key_cols,
                                    size_t num_partitions) {
  std::vector<std::vector<uint32_t>> selections(num_partitions);
  size_t n = input.num_rows();
  for (auto& s : selections) s.reserve(n / num_partitions + 1);
  const KeyColumns keys = KeyColumnsOf(input, key_cols);
  for (size_t i = 0; i < n; ++i) {
    size_t p = HashKeys(keys, i) % num_partitions;
    selections[p].push_back(static_cast<uint32_t>(i));
  }
  std::vector<TablePtr> out;
  out.reserve(num_partitions);
  for (const auto& sel : selections) out.push_back(input.Gather(sel));
  return out;
}

TablePtr Gather(const std::vector<TablePtr>& partitions) {
  TablePtr out = Table::Make(partitions.at(0)->schema());
  size_t total = 0;
  for (const auto& p : partitions) total += p->num_rows();
  out->Reserve(total);
  for (const auto& p : partitions) out->AppendAll(*p);
  return out;
}

}  // namespace dbspinner
