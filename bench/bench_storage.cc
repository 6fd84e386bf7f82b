// Persistent storage read throughput (DESIGN.md §12): rows/sec decoding a
// compressed on-disk table back into memory with StorageManager::ReadTable,
// the path recovery and checkpoint resume take. Every iteration reads each
// block, checks its checksum and decodes it into the output columns; the
// counters add the on-disk compression ratio (raw bytes / bytes on disk).
// JSON output via --benchmark_format=json per the bench_util.h conventions.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "bench_util.h"
#include "storage/persistent_store.h"

namespace dbspinner {
namespace {

constexpr int64_t kRows = 200'000;
constexpr size_t kBlockRows = 1024;

// Writes the scan corpus once per process: a 4-column table (int id, int
// low-cardinality group, double score, dictionary-friendly string label)
// whose distributions give every codec something to do.
const std::string& CorpusDir() {
  static const std::string dir = [] {
    std::string d = (std::filesystem::temp_directory_path() /
                     ("dbsp_bench_storage_" + std::to_string(::getpid())))
                        .string();
    std::error_code ec;
    std::filesystem::remove_all(d, ec);

    PersistenceOptions p;
    p.enabled = true;
    p.path = d;
    p.sync = false;
    p.block_rows = kBlockRows;
    auto store = StorageManager::Open(p, /*faults=*/nullptr);
    if (!store.ok()) {
      std::fprintf(stderr, "bench_storage setup failed: %s\n",
                   store.status().ToString().c_str());
      std::abort();
    }

    Schema schema;
    schema.AddColumn("id", TypeId::kInt64);
    schema.AddColumn("grp", TypeId::kInt64);
    schema.AddColumn("score", TypeId::kDouble);
    schema.AddColumn("label", TypeId::kString);
    TablePtr t = Table::Make(std::move(schema));
    t->Reserve(kRows);
    uint64_t rng = 0x9e3779b97f4a7c15ull;
    for (int64_t i = 0; i < kRows; ++i) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      t->AppendRow({Value::Int64(i), Value::Int64(static_cast<int64_t>(
                                         (rng >> 33) % 16)),
                    Value::Double(static_cast<double>((rng >> 17) % 1000) / 7.0),
                    Value::String("label-" + std::to_string((rng >> 40) % 8))});
    }
    Status st = store.value()->LogUpsertTable("scan_corpus", 0, *t);
    if (!st.ok()) {
      std::fprintf(stderr, "bench_storage load failed: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
    return d;
  }();
  return dir;
}

void BM_ReadTable(benchmark::State& state) {
  PersistenceOptions p;
  p.enabled = true;
  p.path = CorpusDir();
  p.sync = false;
  p.block_rows = kBlockRows;
  auto open = StorageManager::Open(p, /*faults=*/nullptr);
  if (!open.ok()) {
    state.SkipWithError(open.status().ToString().c_str());
    return;
  }
  std::unique_ptr<StorageManager> store = std::move(open).value();
  auto tables = store->tables();
  auto it = tables.find("scan_corpus");
  if (it == tables.end()) {
    state.SkipWithError("scan corpus missing");
    return;
  }

  int64_t rows_read = 0;
  for (auto _ : state) {
    Result<TablePtr> table = store->ReadTable(it->second);
    if (!table.ok()) {
      state.SkipWithError(table.status().ToString().c_str());
      return;
    }
    // Touch one numeric column so decode isn't dead code.
    const ColumnVector& ids = table.value()->column(0);
    int64_t sum = 0;
    for (size_t i = 0; i < ids.size(); ++i) sum += ids.Int64At(i);
    benchmark::DoNotOptimize(sum);
    rows_read += static_cast<int64_t>(table.value()->num_rows());
  }

  state.SetItemsProcessed(rows_read);  // items/sec == rows/sec
  // Write-side counters belong to the process that wrote the corpus; report
  // the ratio from the extent directory instead: raw size / on-disk size.
  uint64_t disk_bytes = 0;
  for (auto& e : std::filesystem::directory_iterator(CorpusDir() + "/data")) {
    disk_bytes += e.file_size();
  }
  // Raw: 2 int64 + 1 double + ~8-byte string + null byte per row, per row.
  double raw_bytes = static_cast<double>(kRows) * (8 + 8 + 8 + 12 + 4);
  state.counters["disk_mb"] = static_cast<double>(disk_bytes) / (1 << 20);
  state.counters["compression_ratio"] =
      disk_bytes > 0 ? raw_bytes / static_cast<double>(disk_bytes) : 0.0;
}
BENCHMARK(BM_ReadTable)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dbspinner

BENCHMARK_MAIN();
