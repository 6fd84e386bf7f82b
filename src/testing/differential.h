// Differential executor: runs one fuzz case under a matrix of oracles and
// diffs the results.
//
// Oracles (every one must agree with the baseline):
//   - per-rule:    all optimizations on vs. each OptimizerToggles rule
//                  individually disabled vs. all rules off;
//   - parallelism: MPP thread pool with 2 and 8 workers (task threshold
//                  forced to 1 row so small inputs really partition) vs.
//                  the serial baseline;
//   - row-at-a-time: the serial pipeline with one-row morsels ("morsel-1");
//   - lowering:    the iterative-CTE plan vs. the statement-at-a-time
//                  Procedure rendering of the same spec (Fig 11 baseline);
//   - ground truth: canonical workload queries vs. the C++ reference
//                  implementations in graph/reference_algorithms;
//   - row order:   when the query ends in an ORDER BY, every oracle's rows
//                  must be non-decreasing under its keys and directions,
//                  judged with Value::Compare (the diff compares multisets,
//                  and every oracle runs the same sort kernel); any other
//                  query also runs with an ORDER BY on every output column
//                  appended ("ordered"), whose rows must keep it.
//
// Status classification: a query may legitimately fail (user-level rejection
// such as BindError), but then every oracle must reject it too, and no oracle
// may ever return StatusCode::kInternal — an Internal status is an engine
// bug by definition and fails the case on its own.

#pragma once

#include <string>
#include <vector>

#include "exec/physical_plan.h"
#include "testing/query_generator.h"

namespace dbspinner {
namespace fuzz {

/// Result of one oracle run.
struct OracleOutcome {
  std::string name;
  Status status;   ///< ok() implies `table` is the query result
  TablePtr table;
  ExecStats stats;  ///< execution counters (valid when status.ok())
};

struct DifferentialOptions {
  /// Fault injection: sets EngineOptions::dev_break_rename_for_testing on
  /// every rename-enabled oracle. Used to prove the harness catches bugs.
  bool break_rename = false;

  /// Runs the static plan/program verifier (src/verify/) in *enforcing*
  /// mode on every oracle. A diagnostic then surfaces as kInternal, which
  /// the status classifier treats as an engine bug — making the verifier a
  /// fuzzing oracle in its own right.
  bool verify = true;

  /// Small guard so a non-converging generated loop fails fast (and
  /// consistently across oracles) instead of spinning.
  int64_t max_iterations_guard = 4000;

  /// Absolute tolerance for DOUBLE cells (MPP aggregation reorders sums).
  double eps = 1e-6;

  /// Fault-schedule oracle dimension: when fault_rate > 0 two extra oracles
  /// ("faults-serial", "faults-mpp-8") run the query under a deterministic
  /// injected-fault schedule with executor recovery enabled. Recovery must
  /// reproduce the fault-free baseline exactly — any divergence (row diff,
  /// or a fault leaking out as a failure status) fails the case.
  double fault_rate = 0.0;
  uint64_t fault_seed = 1;

  /// Fraction of injected faults that simulate node death (kWorkerLost,
  /// checkpoint-restore path) instead of a transient retryable loss.
  double worker_lost_fraction = 0.0;

  /// Chunk-level oracle dimension: one extra oracle ("morsel-N") per entry
  /// runs the query with EngineOptions::morsel_size = N, so every chunk
  /// boundary placement must agree with the baseline. The serial
  /// "morsel-1" oracle runs on every case, whether or not 1 is listed.
  std::vector<size_t> morsel_sizes;

  /// Worker widths crossed with `morsel_sizes` (oracle "morsel-N-wW" for
  /// W > 1; plain "morsel-N" for W == 1). Widths above 1 run each morsel
  /// sweep through the stealing dispatcher with mpp_min_rows_per_task
  /// forced to 1, so morsel-boundary placement is exercised under every
  /// fused-parallel code path, not just serially.
  std::vector<int> morsel_workers = {1};

  /// Disk-backed oracle dimension (fuzz_sql --persistence): when non-empty,
  /// one oracle per width in `persistence_workers` loads the case into a
  /// persistent database under this directory, closes it, reopens it —
  /// recovery replays the manifest + WAL and decompresses every extent —
  /// and runs the query against the recovered tables. Small block and
  /// buffer-pool settings force multi-block extents and clock eviction, so
  /// the whole codec/buffer-manager/recovery stack must reproduce the
  /// in-memory baseline exactly. sync is off: no crash is simulated here
  /// (the durability harness owns kill testing), only format round-trips.
  std::string persistence_dir;
  std::vector<int> persistence_workers = {1, 2, 8};
};

/// Outcome of the whole oracle matrix for one case.
struct DiffReport {
  bool ok = true;
  std::string sql;      ///< rendered query under test
  std::string failure;  ///< first mismatch, human-readable; empty when ok
  std::vector<OracleOutcome> outcomes;

  /// Multi-line description (case label, SQL, per-oracle status).
  std::string Describe(const FuzzCase& c) const;
};

/// Runs `c` under the full oracle matrix.
DiffReport RunDifferential(const FuzzCase& c,
                           const DifferentialOptions& opts = {});

/// Concurrent-session differential mode (fuzz_sql --sessions=N): loads the
/// case once into a shared Database, replays the query serially on the
/// default session (the oracle), then runs it on `sessions` concurrent
/// server sessions, a few repetitions each. Every concurrent run must agree
/// with the serial replay — same accept/reject classification, identical
/// row multisets on success, and no kInternal anywhere. Catches snapshot /
/// registry-scoping / scheduler bugs that single-session sweeps cannot.
DiffReport RunConcurrentSessions(const FuzzCase& c, int sessions,
                                 const DifferentialOptions& opts = {});

/// Incremental-view differential mode (fuzz_sql --ivm): loads the case data
/// into one Database, registers a fixed panel of materialized views covering
/// every maintenance-plan shape (linear filter, linear join, GROUP BY
/// aggregate with a MIN that forces full-refresh escalation on retraction,
/// and a DISTINCT fallback), then replays a deterministic mutation sequence
/// derived from the case seed (INSERT / UPDATE / DELETE / REFRESH /
/// BEGIN-ROLLBACK, occasionally with ivm_max_delta_rows pinned to 1 so the
/// forced-full-refresh path runs too). After every mutation, each view's
/// maintained contents — read at MPP widths 1, 2 and 8 — must equal its
/// defining query re-executed from scratch, and no statement may return
/// kInternal. When opts.fault_rate > 0 the whole schedule runs under
/// injected faults with executor recovery enabled, so maintenance queries
/// must recover without leaking a failure or serving a stale view.
DiffReport RunIvmDifferential(const FuzzCase& c,
                              const DifferentialOptions& opts = {});

/// Compares two row multisets with numeric tolerance. Returns "" when
/// equivalent, else a description of the first difference.
std::string DiffRowSets(const std::vector<std::vector<Value>>& a,
                        const std::vector<std::vector<Value>>& b, double eps);

/// "" when the rows of `t` are non-decreasing under `keys` (each key's
/// Value::Compare in its direction), else the first pair out of order. It
/// judges an ORDER BY independently of PhysicalSort, which every oracle
/// runs, and which DiffRowSets cannot see.
std::string CheckOrder(const Table& t, const std::vector<OrderKey>& keys);

/// All rows of `t` as Values (helper shared with tests).
std::vector<std::vector<Value>> TableRows(const Table& t);

}  // namespace fuzz
}  // namespace dbspinner
