// Fault-tolerance overhead: what checkpointing costs when nothing fails,
// and what recovery costs when faults actually fire.
//
// Three modes over a converging SSSP:
//   mode 0 — recovery off (baseline)
//   mode 1 — recovery on, checkpoint every K=4 iterations, zero faults:
//            the pure checkpoint overhead. Snapshots are COW TablePtr map
//            copies, so this must stay well under 15% of baseline.
//   mode 2 — recovery on plus a 10% per-step fault rate (mixed transient /
//            worker-loss): retries and checkpoint restores engaged.
// Counters expose the machinery: checkpoints_taken, step_retries, restores,
// faults_seen. Run with --benchmark_format=json for machine-readable output.
//
// BM_SsspDurableCheckpoint prices the DESIGN.md §12 storage layer on top:
// the same K=4 checkpoint cadence, but every checkpoint is additionally
// serialized to compressed extents and committed through the WAL (wal=1) or
// left to manifest folds (wal=0). The delta over mode 1 is the cost of
// durability itself: extent encoding + the commit-point append.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "bench_util.h"

namespace dbspinner {
namespace {

void BM_SsspFaultTolerance(benchmark::State& state) {
  int mode = static_cast<int>(state.range(0));
  int workers = static_cast<int>(state.range(1));
  Database* db = bench::GetDatabase(bench::Dataset::kDblp);
  db->options().num_workers = workers;
  if (workers > 1) db->options().mpp_min_rows_per_task = 1;
  if (mode >= 1) {
    db->options().fault_tolerance.enable_recovery = true;
    db->options().fault_tolerance.checkpoint_interval = 4;
    db->options().fault_tolerance.max_restores = 100000;
  }
  if (mode == 2) {
    db->options().fault_injection.enabled = true;
    db->options().fault_injection.seed = 17;
    db->options().fault_injection.rate = 0.1;
    db->options().fault_injection.site_filter = "exec.";
    db->options().fault_injection.worker_lost_fraction = 0.3;
  }

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
  state.counters["checkpoints_taken"] =
      static_cast<double>(last.checkpoints_taken);
  state.counters["step_retries"] = static_cast<double>(last.step_retries);
  state.counters["restores"] = static_cast<double>(last.restores);
  state.counters["faults_seen"] = static_cast<double>(last.faults_seen);
  // Restore defaults for other process-shared benchmarks.
  db->options() = EngineOptions();
}
BENCHMARK(BM_SsspFaultTolerance)
    ->ArgNames({"mode", "workers"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({0, 8})
    ->Args({1, 8})
    ->Args({2, 8})
    ->Unit(benchmark::kMillisecond);

void BM_SsspDurableCheckpoint(benchmark::State& state) {
  bool wal = state.range(0) != 0;
  int workers = static_cast<int>(state.range(1));

  // Persistence is fixed at construction, so the durable modes build their
  // own database instead of sharing the process-cached one.
  std::string dir =
      (std::filesystem::temp_directory_path() /
       ("dbsp_bench_durable_" + std::to_string(::getpid()) + "_" +
        std::to_string(state.range(0)) + "_" + std::to_string(workers)))
          .string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  EngineOptions eo;
  eo.num_workers = workers;
  if (workers > 1) eo.mpp_min_rows_per_task = 1;
  eo.fault_tolerance.enable_recovery = true;
  eo.fault_tolerance.checkpoint_interval = 4;
  eo.persistence.enabled = true;
  eo.persistence.path = dir;
  eo.persistence.wal = wal;
  eo.persistence.sync = false;  // isolate encode+append cost from fsync
  Database db(std::move(eo));
  {
    graph::EdgeList g = graph::Generate(bench::SpecFor(bench::Dataset::kDblp));
    Status st = graph::LoadIntoDatabase(&db, g, /*available_fraction=*/0.8,
                                        /*status_seed=*/7);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }

  std::string sql = workloads::SSSPQuery(/*iterations=*/25, /*source_node=*/1,
                                         /*target_node=*/2);
  ExecStats last;
  for (auto _ : state) {
    Result<QueryResult> result = db.Execute(sql);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    last = result->stats;
    benchmark::DoNotOptimize(result->table);
  }
  state.counters["checkpoints_taken"] =
      static_cast<double>(last.checkpoints_taken);
  state.counters["durable_checkpoints"] =
      static_cast<double>(last.durable_checkpoints);
  if (db.storage_manager() != nullptr) {
    StorageManager::Counters c = db.storage_manager()->counters();
    state.counters["wal_appends"] = static_cast<double>(c.wal_appends);
    state.counters["extents_written"] =
        static_cast<double>(c.extents_written);
    state.counters["storage_mb_written"] =
        static_cast<double>(c.bytes_written) / (1024.0 * 1024.0);
  }
  std::filesystem::remove_all(dir, ec);
}
BENCHMARK(BM_SsspDurableCheckpoint)
    ->ArgNames({"wal", "workers"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 8})
    ->Args({1, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dbspinner

BENCHMARK_MAIN();
