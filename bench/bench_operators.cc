// Micro-benchmarks of the core physical operators (filter, hash join, hash
// aggregate, distinct, sort) — baseline numbers for interpreting the
// figure-level benches.

#include <benchmark/benchmark.h>

#include "engine/database.h"
#include "graph/generator.h"
#include "storage/column_vector.h"

namespace dbspinner {
namespace {

constexpr int64_t kEdgeRows = 100000;

Database* SetupDb(int64_t nodes, int64_t edges) {
  static Database* db = [&] {
    auto* d = new Database();
    graph::GraphSpec spec;
    spec.num_nodes = nodes;
    spec.num_edges = edges;
    spec.seed = 21;
    graph::EdgeList g = graph::Generate(spec);
    Status st = graph::LoadIntoDatabase(d, g, 0.8, 7);
    if (!st.ok()) std::abort();
    return d;
  }();
  return db;
}

void RunSql(benchmark::State& state, const char* sql) {
  Database* db = SetupDb(20000, kEdgeRows);
  for (auto _ : state) {
    auto result = db->Query(sql);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*result);
  }
}

// Runs `sql` and reports source rows/sec plus the per-kernel row counters
// from ExecStats (--benchmark_format=json carries them). The rows
// denominator is the edges scan size.
void RunSqlExec(benchmark::State& state, const char* sql) {
  Database* db = SetupDb(20000, kEdgeRows);
  int64_t runs = 0;
  int64_t kernel_filter = 0, kernel_project = 0, pipelines = 0;
  for (auto _ : state) {
    auto result = db->Execute(sql);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->table);
    ++runs;
    kernel_filter += result->stats.kernel_rows_filter;
    kernel_project += result->stats.kernel_rows_project;
    pipelines += result->stats.pipelines_run;
  }
  state.counters["rows_per_sec"] =
      benchmark::Counter(static_cast<double>(runs * kEdgeRows),
                         benchmark::Counter::kIsRate);
  state.counters["kernel_rows_filter"] =
      benchmark::Counter(static_cast<double>(kernel_filter));
  state.counters["kernel_rows_project"] =
      benchmark::Counter(static_cast<double>(kernel_project));
  state.counters["pipelines_run"] =
      benchmark::Counter(static_cast<double>(pipelines));
}

void BM_Scan(benchmark::State& state) {
  RunSql(state, "SELECT * FROM edges");
}
BENCHMARK(BM_Scan)->Unit(benchmark::kMillisecond);

void BM_Filter(benchmark::State& state) {
  RunSql(state, "SELECT src FROM edges WHERE weight > 0.2 AND src % 3 = 0");
}
BENCHMARK(BM_Filter)->Unit(benchmark::kMillisecond);

void BM_Project(benchmark::State& state) {
  RunSql(state, "SELECT src * 2, weight * 0.85, src + dst FROM edges");
}
BENCHMARK(BM_Project)->Unit(benchmark::kMillisecond);

void BM_HashJoin(benchmark::State& state) {
  RunSql(state,
         "SELECT COUNT(*) FROM edges e JOIN vertexstatus v "
         "ON e.dst = v.node");
}
BENCHMARK(BM_HashJoin)->Unit(benchmark::kMillisecond);

void BM_LeftJoin(benchmark::State& state) {
  RunSql(state,
         "SELECT COUNT(*) FROM vertexstatus v LEFT JOIN edges e "
         "ON v.node = e.dst");
}
BENCHMARK(BM_LeftJoin)->Unit(benchmark::kMillisecond);

void BM_HashAggregate(benchmark::State& state) {
  RunSql(state, "SELECT src, COUNT(*), SUM(weight) FROM edges GROUP BY src");
}
BENCHMARK(BM_HashAggregate)->Unit(benchmark::kMillisecond);

void BM_Distinct(benchmark::State& state) {
  RunSql(state, "SELECT DISTINCT dst FROM edges");
}
BENCHMARK(BM_Distinct)->Unit(benchmark::kMillisecond);

void BM_UnionDistinct(benchmark::State& state) {
  RunSql(state, "SELECT src FROM edges UNION SELECT dst FROM edges");
}
BENCHMARK(BM_UnionDistinct)->Unit(benchmark::kMillisecond);

void BM_Sort(benchmark::State& state) {
  RunSql(state, "SELECT src, weight FROM edges ORDER BY weight DESC, src");
}
BENCHMARK(BM_Sort)->Unit(benchmark::kMillisecond);

void BM_TriangleJoin(benchmark::State& state) {
  RunSql(state,
         "SELECT COUNT(*) FROM edges e1 JOIN edges e2 ON e1.dst = e2.src "
         "WHERE e1.src != e2.dst");
}
BENCHMARK(BM_TriangleJoin)->Unit(benchmark::kMillisecond);

// --- fused pipelines (DESIGN.md §11) ---------------------------------------
//
// A fused scan→filter→project chain, kernelizable predicates only.

void BM_ScanFilterProject(benchmark::State& state) {
  RunSqlExec(state,
             "SELECT src * 2, src + dst, weight * 0.85 FROM edges "
             "WHERE weight > 0.05 AND src > 2500");
}
BENCHMARK(BM_ScanFilterProject)->Unit(benchmark::kMillisecond);

// Mixed predicate: the modulus conjunct is not kernelizable, so the
// pipeline runs its prefix kernel and falls back row-wise on survivors.
void BM_MixedFilter(benchmark::State& state) {
  RunSqlExec(state,
             "SELECT src FROM edges WHERE weight > 0.01 AND src % 3 = 0");
}
BENCHMARK(BM_MixedFilter)->Unit(benchmark::kMillisecond);

// --- fused scan→filter→probe at MPP width 8 (DESIGN.md §11) ---------------
//
// A small (20k-row) build side at 8 workers: one shared hash table, probes
// run inside the stealing morsel dispatcher.

constexpr const char* kScanFilterProbeSql =
    "SELECT e.src, e.dst, v.status FROM edges e "
    "JOIN vertexstatus v ON e.dst = v.node WHERE e.weight > 0.05";

void BM_ScanFilterProbeMpp8(benchmark::State& state) {
  Database* db = SetupDb(20000, kEdgeRows);
  db->options().num_workers = 8;
  db->options().mpp_min_rows_per_task = 1;
  int64_t runs = 0, probe_rows = 0, stolen = 0;
  for (auto _ : state) {
    auto result = db->Execute(kScanFilterProbeSql);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result->table);
    ++runs;
    probe_rows += result->stats.kernel_rows_probe;
    stolen += result->stats.morsels_stolen;
  }
  db->options().num_workers = 1;
  db->options().mpp_min_rows_per_task = 8192;
  state.counters["rows_per_sec"] =
      benchmark::Counter(static_cast<double>(runs * kEdgeRows),
                         benchmark::Counter::kIsRate);
  state.counters["kernel_rows_probe"] =
      benchmark::Counter(static_cast<double>(probe_rows));
  state.counters["morsels_stolen"] =
      benchmark::Counter(static_cast<double>(stolen));
}
BENCHMARK(BM_ScanFilterProbeMpp8)->Unit(benchmark::kMillisecond);

// --- the PR-VS Ri shape: a scan probing two builds into GROUP BY ----------
//
// ranks(node, rank, delta) probes the 5-column loop-invariant common result
// (edges JOIN vertexstatus), then LEFT-probes ranks again: the second probe
// emits 3 + 5 + 3 = 11 columns, of which the aggregate reads two.

void BM_ProbeChainAggregate(benchmark::State& state) {
  Database* db = SetupDb(20000, kEdgeRows);
  static const bool loaded = [db] {
    for (const char* sql : {
             "CREATE TABLE bm_ranks (node BIGINT, rank DOUBLE, delta DOUBLE)",
             "INSERT INTO bm_ranks SELECT node, 0.0, 0.15 FROM vertexstatus",
             "CREATE TABLE bm_common (src BIGINT, dst BIGINT, weight DOUBLE, "
             "node BIGINT, status BIGINT)",
             "INSERT INTO bm_common SELECT e.src, e.dst, e.weight, v.node, "
             "v.status FROM edges e JOIN vertexstatus v ON v.node = e.dst "
             "WHERE v.status != 0"}) {
      if (!db->Execute(sql).ok()) std::abort();
    }
    return true;
  }();
  (void)loaded;
  RunSql(state,
         "SELECT p.node, SUM(r.delta) FROM bm_ranks p "
         "JOIN bm_common c ON p.node = c.dst "
         "LEFT JOIN bm_ranks r ON r.node = c.src GROUP BY p.node");
}
BENCHMARK(BM_ProbeChainAggregate)->Unit(benchmark::kMillisecond);

// --- ColumnVector batch gather microbench -----------------------------------
//
// The type-specialized AppendGathered path must beat (and exactly match)
// the per-row AppendFrom loop it replaced; the equivalence is asserted
// here once at setup so a perf run doubles as a regression check.

void BM_GatherBatch(benchmark::State& state) {
  ColumnVector src(TypeId::kInt64);
  std::vector<uint32_t> sel;
  for (int64_t i = 0; i < 100000; ++i) {
    if (i % 17 == 0) {
      src.AppendNull();
    } else {
      src.AppendInt64(i * 3);
    }
    if (i % 2 == 0) sel.push_back(static_cast<uint32_t>(i));
  }
  ColumnVectorPtr batch = src.Gather(sel);
  ColumnVector loop(TypeId::kInt64);
  for (uint32_t i : sel) loop.AppendFrom(src, i);
  if (batch->size() != loop.size()) std::abort();
  for (size_t i = 0; i < loop.size(); ++i) {
    if (batch->IsNull(i) != loop.IsNull(i)) std::abort();
    if (!batch->IsNull(i) && batch->Int64At(i) != loop.Int64At(i))
      std::abort();
  }
  for (auto _ : state) {
    ColumnVectorPtr out = src.Gather(sel);
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(sel.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GatherBatch);

void BM_GatherPerRow(benchmark::State& state) {
  ColumnVector src(TypeId::kInt64);
  std::vector<uint32_t> sel;
  for (int64_t i = 0; i < 100000; ++i) {
    if (i % 17 == 0) {
      src.AppendNull();
    } else {
      src.AppendInt64(i * 3);
    }
    if (i % 2 == 0) sel.push_back(static_cast<uint32_t>(i));
  }
  for (auto _ : state) {
    auto out = std::make_shared<ColumnVector>(src.type());
    out->Reserve(sel.size());
    for (uint32_t i : sel) out->AppendFrom(src, i);
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(sel.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GatherPerRow);

}  // namespace
}  // namespace dbspinner

BENCHMARK_MAIN();
