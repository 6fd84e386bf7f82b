#include "mpp/parallel_ops.h"

#include "exec/row_index.h"

namespace dbspinner {

Result<DistributedTable> DistributedFilter(const DistributedTable& input,
                                           const BoundExpr& predicate,
                                           ThreadPool* pool) {
  size_t nodes = input.num_nodes();
  std::vector<TablePtr> out(nodes);
  Status first_error = Status::OK();
  std::mutex mu;
  auto task = [&](size_t node) {
    const Table& local = *input.partition(node);
    Result<std::vector<uint32_t>> sel = EvaluatePredicate(predicate, local);
    if (!sel.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      if (first_error.ok()) first_error = sel.status();
      out[node] = Table::Make(local.schema());
      return;
    }
    out[node] = local.Gather(*sel);
  };
  if (pool != nullptr) {
    pool->ParallelFor(nodes, task);
  } else {
    for (size_t i = 0; i < nodes; ++i) task(i);
  }
  DBSP_RETURN_NOT_OK(first_error);
  return DistributedTable::FromPartitions(std::move(out), input.key_cols());
}

Result<DistributedTable> DistributedHashJoin(const DistributedTable& left,
                                             size_t left_key,
                                             const DistributedTable& right,
                                             size_t right_key,
                                             ThreadPool* pool,
                                             int64_t* rows_shuffled,
                                             FaultInjector* faults) {
  if (left.num_nodes() != right.num_nodes()) {
    return Status::InvalidArgument(
        "DistributedHashJoin requires equal node counts");
  }
  // Shuffle both sides onto their join keys (skipped in a real engine when
  // already co-partitioned; we re-shuffle unconditionally for simplicity,
  // which only over-counts movement).
  DBSP_ASSIGN_OR_RETURN(
      DistributedTable l,
      Exchange::Shuffle(left, {left_key}, pool, rows_shuffled, faults));
  DBSP_ASSIGN_OR_RETURN(
      DistributedTable r,
      Exchange::Shuffle(right, {right_key}, pool, rows_shuffled, faults));

  Schema out_schema = l.partition(0)->schema();
  for (const auto& col : r.partition(0)->schema().columns()) {
    out_schema.AddColumn(col.name, col.type);
  }

  size_t nodes = l.num_nodes();
  std::vector<TablePtr> out(nodes);
  auto task = [&](size_t node) {
    const Table& lt = *l.partition(node);
    const Table& rt = *r.partition(node);
    const KeyColumns lkeys{&lt.column(left_key)};
    const RowIndex build = RowIndex::Build(
        {&rt.column(right_key)}, KeyTypes(lkeys), RowIndex::Nulls::kSkip);
    std::vector<uint32_t> lrows, rrows;
    for (size_t i = 0; i < lt.num_rows(); ++i) {
      for (uint32_t r = build.Find(lkeys, i); r != kNoMatch;
           r = build.Next(r)) {
        lrows.push_back(static_cast<uint32_t>(i));
        rrows.push_back(r);
      }
    }
    out[node] = BuildJoinOutput(out_schema, lt, rt, lrows, rrows);
  };
  if (pool != nullptr) {
    pool->ParallelFor(nodes, task);
  } else {
    for (size_t i = 0; i < nodes; ++i) task(i);
  }
  return DistributedTable::FromPartitions(std::move(out), {left_key});
}

Result<DistributedTable> DistributedSumAggregate(const DistributedTable& input,
                                                 size_t key_col,
                                                 size_t value_col,
                                                 ThreadPool* pool,
                                                 int64_t* rows_shuffled,
                                                 FaultInjector* faults) {
  DBSP_ASSIGN_OR_RETURN(
      DistributedTable shuffled,
      Exchange::Shuffle(input, {key_col}, pool, rows_shuffled, faults));

  const Schema& in_schema = shuffled.partition(0)->schema();
  Schema out_schema;
  out_schema.AddColumn(in_schema.column(key_col).name,
                       in_schema.column(key_col).type);
  out_schema.AddColumn("sum", TypeId::kDouble);

  size_t nodes = shuffled.num_nodes();
  std::vector<TablePtr> out(nodes);
  auto task = [&](size_t node) {
    const Table& local = *shuffled.partition(node);
    const KeyColumns keys{&local.column(key_col)};
    RowIndex index(keys, KeyTypes(keys), RowIndex::Nulls::kMatch,
                   local.num_rows());
    // A group is named by its first row, which also holds its sum.
    std::vector<uint32_t> first_rows;
    std::vector<double> sums(local.num_rows(), 0.0);
    for (uint32_t i = 0; i < local.num_rows(); ++i) {
      uint32_t g = index.FindOrInsert(keys, i, i);
      if (g == i) first_rows.push_back(i);
      if (!local.column(value_col).IsNull(i)) {
        sums[g] += local.column(value_col).NumericAt(i);
      }
    }
    auto result = Table::Make(out_schema);
    for (uint32_t g : first_rows) {
      result->AppendRow({local.GetValue(g, key_col), Value::Double(sums[g])});
    }
    out[node] = std::move(result);
  };
  if (pool != nullptr) {
    pool->ParallelFor(nodes, task);
  } else {
    for (size_t i = 0; i < nodes; ++i) task(i);
  }
  return DistributedTable::FromPartitions(std::move(out), {0});
}

}  // namespace dbspinner
