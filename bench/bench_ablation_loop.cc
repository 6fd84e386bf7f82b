// Ablation: anatomy of one loop iteration.
//
// Measures the three update mechanisms in isolation across working-table
// sizes — rename (O(1) pointer move), merge (hash + compare + copy, the
// copy-back baseline), and a plain deep copy — plus the per-iteration cost
// of each termination-condition type. This quantifies *why* Fig 8 behaves
// as it does: the gap between rename and merge is the entire data-movement
// saving.

#include <benchmark/benchmark.h>

#include "exec/merge_update.h"
#include "storage/result_registry.h"
#include "storage/table.h"

namespace dbspinner {
namespace {

TablePtr MakeWide(int64_t rows, double offset) {
  Schema s;
  s.AddColumn("node", TypeId::kInt64);
  s.AddColumn("rank", TypeId::kDouble);
  s.AddColumn("delta", TypeId::kDouble);
  auto node = std::make_shared<ColumnVector>(TypeId::kInt64);
  auto rank = std::make_shared<ColumnVector>(TypeId::kDouble);
  auto delta = std::make_shared<ColumnVector>(TypeId::kDouble);
  for (int64_t i = 0; i < rows; ++i) {
    node->AppendInt64(i);
    rank->AppendDouble(offset + static_cast<double>(i));
    delta->AppendDouble(offset * 0.5);
  }
  return Table::FromColumns(s, {node, rank, delta});
}

void BM_Rename(benchmark::State& state) {
  int64_t rows = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    ResultRegistry reg;
    reg.Put("main", MakeWide(rows, 0));
    reg.Put("working", MakeWide(rows, 1));
    state.ResumeTiming();
    Status st = reg.Rename("working", "main");
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_Rename)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_MergeUpdate(benchmark::State& state) {
  int64_t rows = state.range(0);
  TablePtr main_table = MakeWide(rows, 0);
  TablePtr working = MakeWide(rows, 1);
  for (auto _ : state) {
    auto merged = MergeUpdateTables(main_table, *working, 0);
    if (!merged.ok()) {
      state.SkipWithError(merged.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(merged->merged);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_MergeUpdate)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_DeepCopy(benchmark::State& state) {
  int64_t rows = state.range(0);
  TablePtr t = MakeWide(rows, 0);
  for (auto _ : state) {
    TablePtr copy = t->Clone();
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_DeepCopy)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_DeltaDiff(benchmark::State& state) {
  int64_t rows = state.range(0);
  TablePtr prev = MakeWide(rows, 0);
  TablePtr cur = MakeWide(rows, 1);
  for (auto _ : state) {
    ChangeSet changes = DiffVersions(*prev, *cur, 0);
    benchmark::DoNotOptimize(changes.count);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_DeltaDiff)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace dbspinner

BENCHMARK_MAIN();
