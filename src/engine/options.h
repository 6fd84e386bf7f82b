// Engine and optimizer configuration.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/status.h"
#include "storage/storage_options.h"

namespace dbspinner {

/// Toggles for the rule-based rewrites. Each corresponds to a paper
/// optimization (§V, §VII) and can be disabled to reproduce the baselines.
struct OptimizerOptions {
  /// Fold constant subexpressions.
  bool enable_constant_folding = true;

  /// Convert LEFT joins to INNER when a null-rejecting predicate above
  /// filters the right side (enables common-result extraction on the -VS
  /// queries).
  bool enable_join_simplification = true;

  /// Classic within-block predicate pushdown (below projects, into join
  /// sides, through unions).
  bool enable_predicate_pushdown = true;

  /// Cross-block pushdown from Qf into the non-iterative part R0 of an
  /// iterative CTE, when legal (§V-B, Fig 10).
  bool enable_cte_predicate_pushdown = true;

  /// Hoist loop-invariant join subtrees out of Ri and materialize them once
  /// before the loop (§V-A, Fig 9).
  bool enable_common_result = true;

  /// Use the O(1) `rename` step when Ri replaces the whole dataset; when
  /// disabled, fall back to the copy-back-with-update-identification
  /// baseline (§VII-B, Fig 8).
  bool enable_rename_optimization = true;

  /// Delta-driven (semi-naive) iteration: when the loop body has a
  /// merge-update shape (a key-preserving self-reference joined against
  /// loop-invariant inputs), recompute only the keys affected by the rows
  /// that changed in the previous iteration instead of the whole CTE.
  bool enable_delta_iteration = true;

  /// Reuse a hash join's build side across loop iterations while the build
  /// input is the identical table version (pointer identity, sound under
  /// the engine's copy-on-write result discipline).
  bool enable_join_build_cache = true;
};

/// Programmatic access to every per-rule optimizer toggle. The differential
/// fuzzer, benchmarks and tests iterate this list instead of hard-coding the
/// field names, so a new rewrite only has to register itself here to be
/// swept by the whole correctness tooling.
struct OptimizerToggles {
  struct Toggle {
    const char* name;                    ///< stable identifier ("rename", ...)
    bool OptimizerOptions::*member;      ///< the flag it controls
  };

  /// All rule toggles, in a stable order.
  static const std::vector<Toggle>& All();

  /// Sets the toggle called `name`; returns false if no such toggle.
  static bool Set(OptimizerOptions* options, const std::string& name,
                  bool value);

  /// Options with every rule toggle forced to `value`.
  static OptimizerOptions AllSetTo(bool value);
};

/// Recovery policy for the fault-tolerant executor (see
/// exec/program_executor.cc and DESIGN.md §8). Recovery is opt-in: with
/// `enable_recovery` off, any injected fault surfaces to the caller
/// unchanged, which is what the framework tests assert against.
struct FaultToleranceOptions {
  /// Master switch for retry + checkpoint/restore in RunProgram.
  bool enable_recovery = false;

  /// In-place re-executions of an idempotent step after a retryable
  /// (kUnavailable) failure, before falling back to checkpoint restore.
  int max_step_retries = 3;

  /// Checkpoint cadence K: snapshot loop state + registry every K loop
  /// iterations (plus one checkpoint at every loop entry). <= 0 disables
  /// periodic checkpoints, leaving only loop-entry and program-start ones.
  int64_t checkpoint_interval = 4;

  /// Livelock guard: after this many checkpoint restores the executor gives
  /// up and surfaces the original typed failure status.
  int64_t max_restores = 64;
};

/// Static plan & program verification (src/verify/, DESIGN.md §9).
struct VerifyOptions {
  /// Run the verifier after binding, after each optimizer rule, and after
  /// program compilation. Cheap (linear in plan size), so on by default.
  bool verify_plans = true;

  /// Escalate any verifier diagnostic to a kInternal error. Off by default:
  /// release builds log the report to stderr, count it in
  /// ExecStats::verify_violations, and keep executing (a verifier bug must
  /// never take down a working query). Tests and the fuzzer turn this on so
  /// an illegal rewrite is a crash-class finding.
  bool enforce = false;
};

/// Top-level engine options.
struct EngineOptions {
  OptimizerOptions optimizer;

  /// Static verification of plans and compiled programs.
  VerifyOptions verify;

  /// Deterministic fault injection (off by default; see
  /// common/fault_injection.h). The Database materializes a FaultInjector
  /// from this config whenever `fault_injection.enabled` is set.
  FaultInjectionConfig fault_injection;

  /// Recovery policy applied by RunProgram when steps fail with a
  /// retryable/recoverable status.
  FaultToleranceOptions fault_tolerance;

  /// Durable storage: WAL + compressed columnar extents + buffer-managed
  /// scans. Off by default (pure in-memory engine).
  PersistenceOptions persistence;

  /// Simulated shared-nothing width: number of worker "nodes" that drain a
  /// parallel pipeline's morsels. 1 = serial.
  int num_workers = 1;

  /// Safety guard: a loop exceeding this many iterations fails the query.
  int64_t max_iterations_guard = 1000000;

  /// Inputs smaller than this bypass parallel execution.
  size_t mpp_min_rows_per_task = 8192;

  /// Rows per morsel for the vectorized pipeline executor. Small enough to
  /// keep a chunk's working set cache-resident, large enough to amortize
  /// per-chunk dispatch. Tests sweep 1/7/16/1024 to shake out boundary bugs.
  size_t morsel_size = 1024;

  /// Incremental view maintenance: when off, registered materialized views
  /// stay correct but every captured delta downgrades to a full-refresh
  /// marker (the knobs never affect answers, only how they are produced).
  bool ivm_enabled = true;

  /// A single statement's captured delta larger than this many rows (the
  /// insert and delete sets combined) triggers a full refresh instead of
  /// incremental folding — past that point re-running the view body is
  /// cheaper than per-row maintenance.
  int64_t ivm_max_delta_rows = 1 << 20;

  /// Fault injection for the fuzzing harness only: makes the rename step
  /// silently drop the last row of the renamed result, so a differential
  /// run must flag the rename-enabled plan against the merge baseline.
  /// Never enable outside tests.
  bool dev_break_rename_for_testing = false;

  /// Rejects configurations the executor cannot run (zero-sized morsels,
  /// non-positive worker counts or task thresholds) with kInvalidArgument.
  /// Called at statement entry so a bad session override fails the
  /// statement instead of reaching the morsel split loop.
  Status Validate() const;

  std::string ToString() const;
};

}  // namespace dbspinner
