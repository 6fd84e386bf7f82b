// Hash partitioning: the data-distribution primitive of the shared-nothing
// simulation. A partitioned table models a relation distributed across the
// nodes of an MPP cluster.

#pragma once

#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace dbspinner {

/// Splits `input` into `num_partitions` tables by hashing the given key
/// columns (rows with equal keys land in the same partition). NULL keys hash
/// to partition 0's bucket deterministically.
std::vector<TablePtr> HashPartition(const Table& input,
                                    const std::vector<size_t>& key_cols,
                                    size_t num_partitions);

/// Concatenates partitions back into one table (the "gather" step).
/// All partitions must share the first partition's schema.
TablePtr Gather(const std::vector<TablePtr>& partitions);

}  // namespace dbspinner
