// Ablation: shared-nothing worker scaling.
//
// Runs the PR-VS query with 1/2/4/8 simulated nodes, plus a join and a
// GROUP BY in SQL at the same widths. Not a paper figure — it validates
// that the MPP substrate scales (every worker probes one shared build, and
// pre-aggregation merges per-worker partials; neither shuffles).

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

// Runs `sql` on the DBLP graph at the width in state.range(0), and reports
// the rows shuffled and the morsels workers stole per query.
void RunMppSql(benchmark::State& state, const char* sql) {
  Database* db = GetDatabase(Dataset::kDblp);
  db->options().optimizer = OptimizerOptions{};
  db->options().num_workers = static_cast<int>(state.range(0));
  db->options().mpp_min_rows_per_task = 1024;
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

// Join: the build side is hashed once and every worker probes it with its
// own morsels of the probe side.
void MppJoin(benchmark::State& state) {
  RunMppSql(state,
            "SELECT e.src, v.status FROM edges e "
            "JOIN vertexstatus v ON e.dst = v.node");
}
BENCHMARK(MppJoin)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
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
