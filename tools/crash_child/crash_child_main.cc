// crash_child: out-of-process worker for the durability harness
// (tests/durability_test.cc). The parent never crashes itself — this binary
// does, via the deterministic abort sites of the storage layer, so SIGKILL
// lands mid-operation exactly where the fault schedule says.
//
//   crash_child init <dir>
//       Creates the persistent database and durably loads the graph
//       (edges + vertexstatus). Exit 0.
//
//   crash_child run <dir> <abort_site|none> <abort_after_hits> <workers>
//       Opens the database (recovery) and runs an iterative SSSP with
//       durable checkpoints every K=2 iterations. With an abort site armed
//       the process SIGKILLs itself entering arrival N+1 of that site; the
//       parent observes death-by-signal. Without one (or when the site is
//       not reached often enough) it prints every node's distance plus a
//       stats line and exits 0:
//
//         row: 7 3
//         ...
//         stats: checkpoints=5 durable=5 restores=1
//
// The query result is the *entire* distance table, so the parent's golden
// comparison is sensitive to any node resumed from a stale or torn
// checkpoint, not just one probe vertex.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "engine/database.h"
#include "graph/generator.h"

namespace {

using dbspinner::Database;
using dbspinner::EngineOptions;
using dbspinner::QueryResult;
using dbspinner::Result;
using dbspinner::Status;
using dbspinner::StringPrintf;

constexpr int kIterations = 12;
constexpr int64_t kSourceNode = 1;

// Same SSSP shape as workloads::SSSPQuery, but the final SELECT returns
// every node so convergence is checked across the whole frontier.
std::string SsspAllQuery() {
  return StringPrintf(
      "WITH ITERATIVE sssp (node, distance, delta)\n"
      "AS (\n"
      "  SELECT src, 9999999, CASE WHEN src = %lld\n"
      "         THEN 0 ELSE 9999999 END\n"
      "  FROM (SELECT src FROM edges\n"
      "        UNION SELECT dst FROM edges)\n"
      "ITERATE\n"
      "  SELECT sssp.node,\n"
      "         LEAST(sssp.distance, sssp.delta),\n"
      "         COALESCE(MIN(incomingdistance.delta\n"
      "                      + incomingedges.weight), 9999999)\n"
      "  FROM sssp\n"
      "    LEFT JOIN edges AS incomingedges\n"
      "      ON sssp.node = incomingedges.dst\n"
      "    LEFT JOIN sssp AS incomingdistance\n"
      "      ON incomingdistance.node = incomingedges.src\n"
      "  WHERE incomingdistance.delta != 9999999\n"
      "  GROUP BY sssp.node,\n"
      "           LEAST(sssp.distance, sssp.delta)\n"
      "UNTIL %d ITERATIONS )\n"
      "SELECT node, distance FROM sssp",
      static_cast<long long>(kSourceNode), kIterations);
}

EngineOptions MakeOptions(const std::string& dir) {
  EngineOptions eo;
  eo.persistence.enabled = true;
  eo.persistence.path = dir;
  eo.persistence.sync = true;
  eo.persistence.block_rows = 32;     // several blocks per extent
  eo.persistence.manifest_every = 4;  // manifest swaps mid-program
  eo.fault_tolerance.enable_recovery = true;
  eo.fault_tolerance.checkpoint_interval = 2;  // K=2: frequent kill targets
  return eo;
}

int RunInit(const std::string& dir) {
  Database db(MakeOptions(dir));
  // Scale 512 ≈ 620 nodes / 2050 edges: big enough for multi-block extents
  // at block_rows=32, small enough that the sanitizer sweeps of 20+ kill
  // points stay fast.
  dbspinner::graph::EdgeList g =
      dbspinner::graph::Generate(dbspinner::graph::DblpShaped(/*scale=*/512));
  Status st = dbspinner::graph::LoadIntoDatabase(
      &db, g, /*available_fraction=*/0.8, /*status_seed=*/7);
  if (!st.ok()) {
    std::fprintf(stderr, "init failed: %s\n", st.ToString().c_str());
    return 3;
  }
  return 0;
}

int RunQueryMode(const std::string& dir, const std::string& site,
                 int64_t after_hits, int workers) {
  EngineOptions eo = MakeOptions(dir);
  eo.num_workers = workers;
  if (workers > 1) eo.mpp_min_rows_per_task = 1;
  if (site != "none") {
    eo.fault_injection.enabled = true;
    eo.fault_injection.rate = 0.0;  // abort site only, no transient faults
    eo.fault_injection.abort_site = site;
    eo.fault_injection.abort_after_hits = after_hits;
  }
  Database db(std::move(eo));
  Result<QueryResult> r = db.Execute(SsspAllQuery());
  if (!r.ok()) {
    std::fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
    return 3;
  }
  std::vector<std::string> rows;
  const dbspinner::Table& t = *r->table;
  rows.reserve(t.num_rows());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    std::string line;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      if (c > 0) line += ' ';
      line += t.GetValue(i, c).ToString();
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  for (const std::string& row : rows) std::printf("row: %s\n", row.c_str());
  std::printf("stats: checkpoints=%lld durable=%lld restores=%lld\n",
              static_cast<long long>(r->stats.checkpoints_taken),
              static_cast<long long>(r->stats.durable_checkpoints),
              static_cast<long long>(r->stats.restores));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "init") == 0) {
    return RunInit(argv[2]);
  }
  if (argc >= 6 && std::strcmp(argv[1], "run") == 0) {
    return RunQueryMode(argv[2], argv[3], std::strtoll(argv[4], nullptr, 10),
                        static_cast<int>(std::strtol(argv[5], nullptr, 10)));
  }
  std::fprintf(stderr,
               "usage: %s init <dir>\n"
               "       %s run <dir> <abort_site|none> <after_hits> <workers>\n",
               argv[0], argv[0]);
  return 2;
}
