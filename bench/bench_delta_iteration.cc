// Delta-driven (semi-naive) iteration vs naive full recompute.
//
// Runs a converging SSSP (the frontier settles long before the trip count
// is exhausted) with the delta rewrite on and off, serial and at MPP width
// 8. Counters expose the mechanism behind the speedup: `delta_probe_rows`
// (the semi-naive recompute frontier summed over all iterations) stays far
// below `iterations * |cte|`, `build_cache_hits` counts loop-invariant
// hash-join build sides reused across iterations, and at width 8
// `rows_shuffled` counts the input rows of every parallel DISTINCT, the
// delta rewrite's affected-key set among them. Run with
// --benchmark_format=json for machine-readable output.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace dbspinner {
namespace {

void BM_SsspDeltaVsNaive(benchmark::State& state) {
  bool delta_on = state.range(0) != 0;
  int workers = static_cast<int>(state.range(1));
  Database* db = bench::GetDatabase(bench::Dataset::kDblp);
  db->options().optimizer.enable_delta_iteration = delta_on;
  db->options().optimizer.enable_join_build_cache = delta_on;
  db->options().num_workers = workers;
  db->options().mpp_min_rows_per_task = 1;

  std::string sql = workloads::SSSPQuery(/*iterations=*/25, /*source_node=*/1,
                                         /*target_node=*/2);
  ExecStats last;
  for (auto _ : state) {
    Result<QueryResult> result = db->Execute(sql);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    last = result->stats;
    benchmark::DoNotOptimize(result->table);
  }
  state.counters["loop_iterations"] =
      static_cast<double>(last.loop_iterations);
  state.counters["delta_rows"] = static_cast<double>(last.delta_rows);
  state.counters["delta_probe_rows"] =
      static_cast<double>(last.delta_probe_rows);
  state.counters["build_cache_hits"] =
      static_cast<double>(last.build_cache_hits);
  state.counters["rows_shuffled"] = static_cast<double>(last.rows_shuffled);
  // Fused pre-aggregation: rows consumed directly by partial aggregates
  // never hit the materializer, so rows_materialized drops by exactly
  // agg_rows_preaggregated versus the pre-fusion executor.
  state.counters["rows_materialized"] =
      static_cast<double>(last.rows_materialized);
  state.counters["agg_rows_preaggregated"] =
      static_cast<double>(last.agg_rows_preaggregated);
  state.counters["agg_partials_merged"] =
      static_cast<double>(last.agg_partials_merged);
  // Restore defaults for other process-shared benchmarks.
  db->options() = EngineOptions();
}
BENCHMARK(BM_SsspDeltaVsNaive)
    ->ArgNames({"delta", "workers"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 8})
    ->Args({1, 8})
    ->Unit(benchmark::kMillisecond);

void BM_PageRankDeltaVsNaive(benchmark::State& state) {
  // PageRank never converges to a fixed point at double precision, so its
  // delta stays full-width: the interesting number here is the
  // build-cache reuse of the invariant edges side, not the probe count.
  bool delta_on = state.range(0) != 0;
  Database* db = bench::GetDatabase(bench::Dataset::kDblp);
  db->options().optimizer.enable_delta_iteration = delta_on;
  db->options().optimizer.enable_join_build_cache = delta_on;

  std::string sql = workloads::PRQuery(/*iterations=*/10);
  ExecStats last;
  for (auto _ : state) {
    Result<QueryResult> result = db->Execute(sql);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    last = result->stats;
    benchmark::DoNotOptimize(result->table);
  }
  state.counters["delta_probe_rows"] =
      static_cast<double>(last.delta_probe_rows);
  state.counters["build_cache_hits"] =
      static_cast<double>(last.build_cache_hits);
  db->options() = EngineOptions();
}
BENCHMARK(BM_PageRankDeltaVsNaive)
    ->ArgNames({"delta"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Parallel fusion's materialization/movement accounting: the SSSP loop at
// width 8. Every probe fuses against one shared build (no join
// repartitioning) and aggregates consume chunks straight into per-worker
// partials, so rows_shuffled counts only DISTINCT's logical shuffle, while
// agg_rows_preaggregated accounts the (post-filter) aggregate input that
// skipped the materializer entirely.
void BM_SsspAggregateMaterialization(benchmark::State& state) {
  Database* db = bench::GetDatabase(bench::Dataset::kDblp);
  db->options().num_workers = 8;
  db->options().mpp_min_rows_per_task = 1;

  std::string sql = workloads::SSSPQuery(/*iterations=*/25, /*source_node=*/1,
                                         /*target_node=*/2);
  ExecStats last;
  for (auto _ : state) {
    Result<QueryResult> result = db->Execute(sql);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    last = result->stats;
    benchmark::DoNotOptimize(result->table);
  }
  state.counters["rows_materialized"] =
      static_cast<double>(last.rows_materialized);
  state.counters["rows_shuffled"] = static_cast<double>(last.rows_shuffled);
  state.counters["agg_rows_preaggregated"] =
      static_cast<double>(last.agg_rows_preaggregated);
  state.counters["agg_partials_merged"] =
      static_cast<double>(last.agg_partials_merged);
  db->options() = EngineOptions();
}
BENCHMARK(BM_SsspAggregateMaterialization)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dbspinner

BENCHMARK_MAIN();
