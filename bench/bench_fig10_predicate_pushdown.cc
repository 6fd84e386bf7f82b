// Figure 10: pushing down predicates.
//
// FF runs 25 iterations; the main query samples with MOD(node, X) = 0
// (selectivity 1/X). The baseline evaluates the whole CTE and filters at
// the end: its runtime is flat in X. With pushdown, the predicate moves
// into R0 (and below R0's aggregation, onto the edges scan), so every
// iteration processes ~1/X of the data — more than an order of magnitude
// faster at X = 100, exactly the shape of the paper's Fig 10.
//
// Series: X in {10, 25, 50, 100} x {baseline, pushdown} on the DBLP shape.

#include "bench_util.h"

namespace dbspinner {
namespace bench {
namespace {

constexpr int kIterations = 25;

void Fig10(benchmark::State& state, int64_t mod_x, bool pushdown_enabled) {
  Database* db = GetDatabase(Dataset::kDblp);
  db->options().optimizer = OptimizerOptions{};
  db->options().optimizer.enable_cte_predicate_pushdown = pushdown_enabled;
  RunQuery(state, db, workloads::FFQuery(kIterations, mod_x, 10));
}

// Pipeline series (DESIGN.md §11): Fig 10's pushed-down sampling shape is a
// scan→filter→project pipeline over edges, so this measures exactly that
// chain on the same DBLP dataset. rows_per_sec uses the edges-scanned
// denominator.
void Fig10ScanFilterProject(benchmark::State& state) {
  Database* db = GetDatabase(Dataset::kDblp);
  db->options().optimizer = OptimizerOptions{};
  int64_t edge_rows = 0;
  if (auto r = db->Query("SELECT COUNT(*) FROM edges"); r.ok()) {
    edge_rows = (*r)->column(0).Int64At(0);
  }
  const char* sql =
      "SELECT src * 2, src + dst, weight * 0.85 FROM edges "
      "WHERE weight > 0.001 AND src > 10";
  int64_t runs = 0;
  for (auto _ : state) {
    Result<QueryResult> result = db->Execute(sql);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->table);
    ++runs;
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(runs * edge_rows), benchmark::Counter::kIsRate);
}

}  // namespace
}  // namespace bench
}  // namespace dbspinner

using dbspinner::bench::Fig10;
using dbspinner::bench::Fig10ScanFilterProject;

BENCHMARK_CAPTURE(Fig10, x10_baseline, 10, false)
    ->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK_CAPTURE(Fig10, x10_pushdown, 10, true)
    ->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK_CAPTURE(Fig10, x25_baseline, 25, false)
    ->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK_CAPTURE(Fig10, x25_pushdown, 25, true)
    ->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK_CAPTURE(Fig10, x50_baseline, 50, false)
    ->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK_CAPTURE(Fig10, x50_pushdown, 50, true)
    ->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK_CAPTURE(Fig10, x100_baseline, 100, false)
    ->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK_CAPTURE(Fig10, x100_pushdown, 100, true)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

BENCHMARK(Fig10ScanFilterProject)
    ->Unit(benchmark::kMillisecond)->Iterations(20);

BENCHMARK_MAIN();
