// Ablation: shared-nothing worker scaling.
//
// Runs the PR-VS query with 1/2/4/8 simulated nodes, plus a shuffle join
// and a GROUP BY in SQL at the same widths. Not a paper figure — it
// validates that the MPP substrate behaves like a shared-nothing engine
// (join work scales down per node, shuffle volume appears as soon as
// width > 1, pre-aggregation shuffles nothing).

#include "bench_util.h"

namespace dbspinner {
namespace bench {
namespace {

void MppPrVs(benchmark::State& state) {
  Database* db = GetDatabase(Dataset::kDblp);
  db->options().optimizer = OptimizerOptions{};
  db->options().num_workers = static_cast<int>(state.range(0));
  db->options().mpp_min_rows_per_task = 1024;
  RunQuery(state, db, workloads::PRVSQuery(10));
  db->options().num_workers = 1;
}
BENCHMARK(MppPrVs)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(2);

// Runs `sql` on the DBLP graph at the width in state.range(0), with the
// partitioned-shuffle join forced (broadcast_build_rows = 0), and reports
// the rows the shuffles moved and the morsels workers stole per query.
void RunMppSql(benchmark::State& state, const char* sql) {
  Database* db = GetDatabase(Dataset::kDblp);
  db->options().optimizer = OptimizerOptions{};
  db->options().num_workers = static_cast<int>(state.range(0));
  db->options().mpp_min_rows_per_task = 1024;
  db->options().broadcast_build_rows = 0;
  ExecStats last;
  for (auto _ : state) {
    Result<QueryResult> result = db->Execute(sql);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    last = result->stats;
    benchmark::DoNotOptimize(result->table);
  }
  db->options() = EngineOptions();
  state.counters["rows_shuffled"] = static_cast<double>(last.rows_shuffled);
  state.counters["morsels_stolen"] = static_cast<double>(last.morsels_stolen);
}

// Co-partitioned join: both inputs are hash-partitioned on the join key as
// soon as width > 1.
void MppShuffleJoin(benchmark::State& state) {
  RunMppSql(state,
            "SELECT e.src, v.status FROM edges e "
            "JOIN vertexstatus v ON e.dst = v.node");
}
BENCHMARK(MppShuffleJoin)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// GROUP BY: per-worker partial aggregates merged at the breaker, so nothing
// is shuffled at any width; the morsel dispatcher balances the scan.
void MppGroupBy(benchmark::State& state) {
  RunMppSql(state, "SELECT src, COUNT(*), SUM(weight) FROM edges GROUP BY src");
}
BENCHMARK(MppGroupBy)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace dbspinner

BENCHMARK_MAIN();
