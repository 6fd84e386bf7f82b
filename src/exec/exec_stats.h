// ExecStats: the execution counters of one statement, generated from one
// list (DBSP_EXEC_STATS) so the struct, RewindWorkCountersTo, Add and
// ToString can never disagree about which counters exist or what kind each
// one is. A leaf header: the view registry counts into it without the
// physical plan.

#pragma once

#include <cstdint>
#include <string>

namespace dbspinner {

/// How RewindWorkCountersTo treats a counter.
enum class CounterKind {
  /// Work-proportional: rolled back when the fault-tolerant executor
  /// re-runs a step or rolls back to a checkpoint, so replayed work is not
  /// double-counted.
  kWork,
  /// Monotonic bookkeeping (faults, recovery, admission, verification,
  /// view maintenance): kept across retries and rollbacks.
  kBookkeeping,
};

/// Every ExecStats counter, in print order: X(name, kind, doc). Each entry
/// declares an `int64_t name = 0` field.
// clang-format off
#define DBSP_EXEC_STATS(X)                                                    \
  X(steps_executed, kWork,                                                    \
    "program steps run, loop-body steps once per iteration")                  \
  X(loop_iterations, kWork, "loop iterations run (one per kLoopCheck)")       \
  X(rows_materialized, kWork,                                                 \
    "rows written into tables by pipeline sinks, breakers and copies")        \
  X(rows_shuffled, kWork,                                                     \
    "input rows of parallel DISTINCTs, counted as a logical shuffle")         \
  X(renames, kWork, "intermediate results renamed instead of copied")         \
  X(merge_updates, kWork, "updated rows identified by MergeUpdate")           \
  X(delta_rows, kWork,                                                        \
    "rows emitted by ComputeDelta (old + new versions of changed rows, "      \
    "all iterations)")                                                        \
  X(delta_probe_rows, kWork,                                                  \
    "driving rows kept by DeltaRestrict (the semi-naive recompute frontier)") \
  X(build_cache_hits, kWork,                                                  \
    "hash-join build sides reused across iterations")                         \
  /* Fault tolerance (exec/program_executor.cc). */                           \
  X(faults_seen, kBookkeeping,                                                \
    "step executions felled by an injected fault (retryable or worker-lost)") \
  X(step_retries, kBookkeeping,                                               \
    "idempotent step re-executions after a retryable fault")                  \
  X(checkpoints_taken, kBookkeeping,                                          \
    "loop-state snapshots (every K iterations + one per kInitLoop)")          \
  X(restores, kBookkeeping,                                                   \
    "rollbacks to the last checkpoint (or to program start when none "        \
    "exists yet); also counts a cross-process resume from a durable "         \
    "checkpoint (DESIGN.md §12)")                                             \
  X(durable_checkpoints, kBookkeeping,                                        \
    "checkpoints additionally serialized to the storage layer (WAL + "        \
    "extents)")                                                               \
  X(verify_violations, kBookkeeping,                                          \
    "verifier diagnostics observed while planning this statement with "       \
    "EngineOptions::verify.enforce off (the release-build escape hatch; "     \
    "see src/verify/verify.h); always 0 on a healthy engine")                 \
  /* Concurrent serving (src/server/, DESIGN.md §10). */                      \
  X(queue_wait_us, kBookkeeping,                                              \
    "time this statement spent in the scheduler's admission queue")           \
  X(admission_waits, kBookkeeping,                                            \
    "1 if the statement had to queue before being admitted, else 0")          \
  X(cancel_checks, kBookkeeping,                                              \
    "cancellation-token checks at executor step boundaries and pipeline "     \
    "morsel boundaries (live tokens only)")                                   \
  /* Vectorized pipelines (exec/pipeline.cc, DESIGN.md §11). */               \
  X(pipelines_run, kWork, "fused pipelines driven to completion")             \
  X(morsels_dispatched, kWork, "morsels pulled through pipelines")            \
  X(pipeline_rows_in, kWork, "source rows entering fused pipelines")          \
  X(pipeline_rows_out, kWork, "rows surviving to the pipeline sink")          \
  X(kernel_rows_filter, kWork, "rows scanned by filter kernels")              \
  X(kernel_rows_project, kWork, "rows produced by projection kernels")        \
  X(kernel_rows_probe, kWork, "probe-side rows through fused joins")          \
  X(pipeline_ns, kWork,                                                       \
    "wall time inside pipeline drivers; with the kernel_rows_* counters "     \
    "this yields per-kernel rows/sec")                                        \
  X(morsels_stolen, kWork,                                                    \
    "morsels executed by a worker other than the owner of their queue "       \
    "range; steals follow thread timing, so unlike the other work counters "  \
    "this one is not a function of the input and seed: leave it out of "      \
    "count comparisons between runs")                                         \
  X(agg_partials_merged, kWork,                                               \
    "per-worker partial aggregate hash tables merged at pipeline breakers")   \
  X(agg_rows_preaggregated, kWork,                                            \
    "rows consumed directly by fused pre-aggregation sinks (rows the "        \
    "breaker never materialized)")                                            \
  /* Incremental view maintenance (src/ivm/, DESIGN.md §14). */               \
  X(ivm_deltas_applied, kBookkeeping, "base-table deltas folded into views")  \
  X(ivm_rows_maintained, kBookkeeping, "delta rows processed while folding")  \
  X(ivm_full_refreshes, kBookkeeping, "incremental views recomputed in full") \
  X(ivm_fallbacks, kBookkeeping, "fallback-plan recomputes-on-read")
// clang-format on

/// Counters accumulated during one statement's execution.
struct ExecStats {
  /// Rolls the kWork counters back to their values in `base`, keeping the
  /// kBookkeeping ones. The fault-tolerant executor calls this before
  /// re-running a step and on checkpoint restore, so a recovered run
  /// reports exactly the counters of a fault-free one (DESIGN.md §8, §11).
  void RewindWorkCountersTo(const ExecStats& base);

  /// Adds every counter of `other` into this one.
  void Add(const ExecStats& other);

  /// `ExecStats{name=value, ...}` over every counter, in list order.
  std::string ToString() const;

#define DBSP_EXEC_STATS_FIELD(name, kind, doc) int64_t name = 0;
  DBSP_EXEC_STATS(DBSP_EXEC_STATS_FIELD)
#undef DBSP_EXEC_STATS_FIELD
};

}  // namespace dbspinner
