#include "exec/program_executor.h"

#include "exec/pipeline.h"

#include <chrono>
#include <unordered_map>

#include "exec/merge_update.h"
#include "expr/vector_eval.h"

namespace dbspinner {

namespace {

// The change set from `from` to `to` of the loop's CTE: the one the loop's
// last write recorded when it made exactly that change, else a diff of
// the whole versions, kept for the next reader of the same pair.
const ChangeSet& ChangesOf(LoopState* state, const TablePtr& from,
                           const TablePtr& to, size_t key_col) {
  LoopWrite& write = state->write;
  if (write.from != from || write.to != to) {
    write = LoopWrite{from, to, nullptr, std::nullopt};
  }
  if (!write.changes) {
    write.changes = from == to
                        ? ChangeSet{Table::Make(to->schema()), 0}
                        : DiffVersions(*from, *to, key_col, write.keys.get());
  }
  return *write.changes;
}

// Decides whether the loop should run another iteration, updating state.
Result<bool> EvaluateContinue(const LoopSpec& spec, LoopState* state,
                              ExecContext* ctx) {
  switch (spec.kind) {
    case LoopSpec::Kind::kIterations:
      return state->iteration < spec.n;
    case LoopSpec::Kind::kUpdates:
      state->cumulative_updates += state->last_update_count;
      return state->cumulative_updates < spec.n;
    case LoopSpec::Kind::kAny:
    case LoopSpec::Kind::kAll: {
      DBSP_ASSIGN_OR_RETURN(TablePtr cte, ctx->registry->Get(spec.cte_name));
      std::vector<uint32_t> satisfied;
      DBSP_RETURN_NOT_OK(CompiledExpr(*spec.expr).Filter(
          EvalInput(*cte, RowSet::Window(0, cte->num_rows())), &satisfied));
      if (spec.kind == LoopSpec::Kind::kAny) {
        return satisfied.empty();  // continue until at least one row satisfies
      }
      return satisfied.size() < cte->num_rows();
    }
    case LoopSpec::Kind::kDeltaLess: {
      DBSP_ASSIGN_OR_RETURN(TablePtr cte, ctx->registry->Get(spec.cte_name));
      const int64_t changed =
          state->previous
              ? ChangesOf(state, state->previous, cte, spec.key_col).count
              : static_cast<int64_t>(cte->num_rows());
      state->previous = cte;
      return changed >= spec.n;
    }
    case LoopSpec::Kind::kWhileResultNonEmpty: {
      DBSP_ASSIGN_OR_RETURN(TablePtr watched,
                            ctx->registry->Get(spec.watch_name));
      return watched->num_rows() > 0;
    }
  }
  return Status::Internal("unhandled loop condition");
}

// Decides whether the loop body should run at all, evaluated at kInitLoop
// over the freshly materialized R0 (the Fig 4 loop operator's 0-iteration
// case). Delta conditions need two versions to compare, so they always run
// the first iteration; conditions on the current rows alone decide as they
// do after every iteration.
Result<bool> EvaluateStart(const LoopSpec& spec, LoopState* state,
                           ExecContext* ctx) {
  switch (spec.kind) {
    case LoopSpec::Kind::kIterations:
    case LoopSpec::Kind::kUpdates:
      return spec.n > 0;
    case LoopSpec::Kind::kDeltaLess:
      return true;
    case LoopSpec::Kind::kAny:
    case LoopSpec::Kind::kAll:
    case LoopSpec::Kind::kWhileResultNonEmpty:
      return EvaluateContinue(spec, state, ctx);
  }
  return Status::Internal("unhandled loop condition");
}

}  // namespace

// Steps whose failed execution may be re-run in place. These steps either
// execute a pure operator tree (kMaterialize, kFinal) or mutate the registry
// and loop state only *after* every fallible sub-operation has succeeded
// (kMergeUpdate, kComputeDelta) — every injection point, exchange, and
// operator failure fires before the step's first side effect, so the step
// observes identical inputs on retry. kRename is deliberately absent: it
// moves a binding, so a re-run would fail on the now-unbound source; a
// failure there falls through to checkpoint restore instead.
bool StepIsIdempotent(Step::Kind kind) {
  switch (kind) {
    case Step::Kind::kMaterialize:
    case Step::Kind::kFinal:
    case Step::Kind::kMergeUpdate:
    case Step::Kind::kComputeDelta:
      return true;
    default:
      return false;
  }
}

// Executor-level injection site for a step kind, or null for kinds that are
// not fault targets (control flow and registry bookkeeping).
const char* StepFaultSite(Step::Kind kind) {
  switch (kind) {
    case Step::Kind::kMaterialize:
      return "exec.materialize";
    case Step::Kind::kFinal:
      return "exec.final";
    case Step::Kind::kMergeUpdate:
      return "exec.merge_update";
    case Step::Kind::kComputeDelta:
      return "exec.compute_delta";
    default:
      return nullptr;
  }
}

namespace {

// A consistent point to roll back to. The registry snapshot is a shallow
// name -> TablePtr map copy and the loop states hold TablePtrs, so a
// checkpoint is O(#names + #loops) regardless of data size — the engine's
// copy-on-write discipline guarantees the snapshotted tables can never be
// mutated in place by later steps.
struct ExecutorCheckpoint {
  size_t pc = 0;  ///< step index to resume from (the step is re-run)
  std::map<int, LoopState> loops;
  std::unordered_map<std::string, TablePtr> registry;
  /// Stats at checkpoint time. Restore rewinds the work-proportional
  /// counters to these values so the replayed steps re-accumulate them
  /// exactly once — a recovered run reports the same work as a fault-free
  /// one, with only the bookkeeping counters (faults_seen, restores, ...)
  /// recording that recovery happened.
  ExecStats stats;
};

}  // namespace

Result<TablePtr> RunProgram(const Program& program, ExecContext* ctx) {
  return RunProgram(program, ctx, nullptr);
}

Result<TablePtr> RunProgram(const Program& program, ExecContext* ctx,
                            const ProgramResume* resume) {
  TablePtr final_result;

  static const FaultToleranceOptions kNoRecovery;
  const FaultToleranceOptions& ft = ctx->options != nullptr
                                        ? ctx->options->fault_tolerance
                                        : kNoRecovery;
  const bool recovery = ft.enable_recovery;

  // Implicit program-start checkpoint: restarting a SELECT program from
  // step 0 is always sound because the catalog is only mutated after
  // RunProgram returns (CTAS / INSERT ... SELECT consume the result). This
  // makes even pre-loop failures recoverable.
  ExecutorCheckpoint checkpoint;
  if (recovery) {
    checkpoint.registry = ctx->registry->Snapshot();
    checkpoint.stats = ctx->stats;
  }
  int64_t restores_used = 0;

  size_t start_pc = 0;
  if (resume != nullptr) {
    // Cross-process resume from a durable checkpoint: seed the executor
    // exactly as the in-process restore path does, then continue from the
    // checkpointed step. The restored step indices were validated against
    // this program's fingerprint by the caller.
    if (resume->pc >= program.steps.size()) {
      return Status::Internal("resume pc out of range");
    }
    ctx->registry->Restore(resume->registry);
    ctx->loops = resume->loops;
    ++ctx->stats.restores;
    start_pc = resume->pc;
    if (recovery) {
      checkpoint.pc = resume->pc;
      checkpoint.loops = ctx->loops;
      checkpoint.registry = ctx->registry->Snapshot();
      checkpoint.stats = ctx->stats;
    }
  }

  // Runs one step. On success *next_pc holds the step index to continue
  // from. All mutation of executor state (registry, loop states, stats)
  // happens in here; the outer loop only sequences retries and restores.
  auto run_step = [&](const Step& step, size_t pc,
                      size_t* next_pc) -> Status {
    ++ctx->stats.steps_executed;
    *next_pc = pc + 1;
    // Executor-level injection points fire before the step touches any
    // state, keeping the idempotency contract above.
    if (ctx->faults != nullptr) {
      const char* site = StepFaultSite(step.kind);
      if (site != nullptr) {
        DBSP_RETURN_NOT_OK(ctx->faults->MaybeInject(site));
      }
    }
    std::chrono::steady_clock::time_point step_begin;
    if (ctx->profiling) step_begin = std::chrono::steady_clock::now();
    int64_t profile_rows = -1;
    auto record_profile = [&]() {
      if (!ctx->profiling) return;
      StepProfile& p = ctx->profile[step.id];
      ++p.executions;
      p.total_ms += std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - step_begin)
                        .count();
      p.last_rows = profile_rows;
    };
    switch (step.kind) {
      case Step::Kind::kMaterialize: {
        DBSP_ASSIGN_OR_RETURN(TablePtr table, ExecuteOp(*step.physical, *ctx));
        profile_rows = static_cast<int64_t>(table->num_rows());
        if (step.loop_id != 0 && table->num_columns() > 0) {
          // A loop's affected-key set: indexed here, once per iteration.
          ctx->loops[step.loop_id].affected = std::make_shared<const KeySet>(
              table, table->schema().column(0).type);
        }
        ctx->registry->Put(step.target, table);
        break;
      }
      case Step::Kind::kRename: {
        // O(1): the paper's rename operator (§VI-A). The working table's
        // row count is recorded as this iteration's update count (a full
        // replacement updates every row). Rename goes first so that an
        // unbound source surfaces as the registry's Internal error.
        TablePtr replaced;
        if (step.loop_id != 0 && ctx->registry->Exists(step.target)) {
          DBSP_ASSIGN_OR_RETURN(replaced, ctx->registry->Get(step.target));
        }
        DBSP_RETURN_NOT_OK(ctx->registry->Rename(step.source, step.target));
        DBSP_ASSIGN_OR_RETURN(TablePtr moved,
                              ctx->registry->Get(step.target));
        if (ctx->options != nullptr &&
            ctx->options->dev_break_rename_for_testing &&
            moved->num_rows() > 0) {
          // Fault injection for the fuzzing harness: silently drop the last
          // row of the renamed result so the rename-enabled plan diverges
          // from the merge baseline.
          std::vector<uint32_t> sel;
          for (uint32_t r = 0; r + 1 < moved->num_rows(); ++r) {
            sel.push_back(r);
          }
          moved = moved->Gather(sel);
          ctx->registry->Put(step.target, moved);
        }
        ++ctx->stats.renames;
        if (step.loop_id != 0) {
          LoopState& state = ctx->loops[step.loop_id];
          state.last_update_count = static_cast<int64_t>(moved->num_rows());
          // In a semi-naive body the working table is the restricted Ri
          // plus the carry of every key outside the affected set, so only
          // those keys can differ; a reader diffs just them.
          state.write = replaced ? LoopWrite{replaced, moved, state.affected,
                                             std::nullopt}
                                 : LoopWrite{};
        }
        break;
      }
      case Step::Kind::kMergeUpdate: {
        DBSP_ASSIGN_OR_RETURN(TablePtr cte, ctx->registry->Get(step.target));
        DBSP_ASSIGN_OR_RETURN(TablePtr working,
                              ctx->registry->Get(step.source));
        LoopState* loop =
            step.loop_id != 0 ? &ctx->loops[step.loop_id] : nullptr;
        // The write is diffed when its loop keeps a snapshot: a semi-naive
        // body past its first ComputeDelta, or an UNTIL DELTA condition.
        const bool diffed =
            loop != nullptr && (loop->delta_snapshot || loop->previous);
        ChangeSet changes;
        DBSP_ASSIGN_OR_RETURN(
            MergeResult merged,
            MergeUpdateTables(cte, *working, step.key_col,
                              diffed ? &changes : nullptr));
        profile_rows = static_cast<int64_t>(merged.merged->num_rows());
        ctx->registry->Put(step.target, merged.merged);
        ctx->registry->Remove(step.source);
        ctx->stats.merge_updates += merged.updated_rows;
        if (merged.merged != cte) {
          ctx->stats.rows_materialized +=
              static_cast<int64_t>(merged.merged->num_rows());
        }
        if (loop != nullptr) {
          loop->last_update_count = merged.updated_rows;
          loop->write = diffed ? LoopWrite{cte, merged.merged, nullptr,
                                           std::move(changes)}
                               : LoopWrite{};
        }
        break;
      }
      case Step::Kind::kRemoveResult:
        ctx->registry->Remove(step.target);
        break;
      case Step::Kind::kInitLoop: {
        LoopState& state = ctx->loops[step.loop_id];
        state = LoopState{};
        if (step.loop.kind == LoopSpec::Kind::kDeltaLess) {
          // Snapshot the post-R0 version for the first diff.
          DBSP_ASSIGN_OR_RETURN(state.previous,
                                ctx->registry->Get(step.loop.cte_name));
        }
        if (step.jump_to_id != 0) {
          // 0-iteration loops: when the termination condition already holds
          // over R0, skip the body entirely (jump past the loop check).
          DBSP_ASSIGN_OR_RETURN(bool run_body,
                                EvaluateStart(step.loop, &state, ctx));
          if (!run_body) {
            int target = program.FindStep(step.jump_to_id);
            if (target < 0) {
              return Status::Internal("loop skip target not found");
            }
            record_profile();
            *next_pc = static_cast<size_t>(target) + 1;
            return Status::OK();
          }
        }
        break;
      }
      case Step::Kind::kLoopCheck: {
        LoopState& state = ctx->loops[step.loop_id];
        ++state.iteration;
        ++ctx->stats.loop_iterations;
        if (ctx->options != nullptr &&
            state.iteration > ctx->options->max_iterations_guard) {
          return Status::ExecutionError(
              "loop exceeded max_iterations_guard (" +
              std::to_string(ctx->options->max_iterations_guard) + ")");
        }
        DBSP_ASSIGN_OR_RETURN(bool cont,
                              EvaluateContinue(step.loop, &state, ctx));
        if (cont) {
          int target = program.FindStep(step.jump_to_id);
          if (target < 0) {
            return Status::Internal("loop jump target not found");
          }
          record_profile();
          *next_pc = static_cast<size_t>(target);
          return Status::OK();
        }
        break;
      }
      case Step::Kind::kComputeDelta: {
        DBSP_ASSIGN_OR_RETURN(TablePtr cur, ctx->registry->Get(step.source));
        LoopState& state = ctx->loops[step.loop_id];
        // On the first body execution everything is new, so the whole CTE
        // is the delta (the first semi-naive iteration is always full).
        // Copy-on-write makes an unchanged version the same pointer, whose
        // change set is empty.
        TablePtr delta =
            state.delta_snapshot
                ? ChangesOf(&state, state.delta_snapshot, cur, step.key_col)
                      .rows
                : cur;
        state.delta_snapshot = cur;
        // The snapshot moved past the write's `from`: no reader can use
        // the record again.
        state.write = LoopWrite{};
        profile_rows = static_cast<int64_t>(delta->num_rows());
        ctx->stats.delta_rows += static_cast<int64_t>(delta->num_rows());
        ctx->registry->Put(step.target, std::move(delta));
        break;
      }
      case Step::Kind::kFinal: {
        DBSP_ASSIGN_OR_RETURN(final_result, ExecuteOp(*step.physical, *ctx));
        profile_rows = static_cast<int64_t>(final_result->num_rows());
        break;
      }
    }
    record_profile();
    return Status::OK();
  };

  size_t pc = start_pc;
  while (pc < program.steps.size()) {
    const Step& step = program.steps[pc];

    // Cancellation point: one check per step boundary. Loop bodies contain
    // several steps, so a cancel or expired deadline stops a runaway
    // iterative query within (at most) one loop iteration. kCancelled is
    // neither retryable nor recoverable — it bypasses the fault-tolerance
    // machinery below by design.
    if (ctx->cancel.live()) {
      ++ctx->stats.cancel_checks;
      DBSP_RETURN_NOT_OK(ctx->cancel.Check());
    }

    // Checkpoints are taken *before* the step runs, so a later restore
    // re-executes the checkpointed step against exactly the state it saw
    // the first time: one at every loop entry (kInitLoop), one every K
    // iterations (at the kLoopCheck about to finish iteration i with
    // (i + 1) % K == 0).
    if (recovery) {
      bool take = step.kind == Step::Kind::kInitLoop;
      if (step.kind == Step::Kind::kLoopCheck && ft.checkpoint_interval > 0) {
        const LoopState& state = ctx->loops[step.loop_id];
        take = (state.iteration + 1) % ft.checkpoint_interval == 0;
      }
      if (take) {
        checkpoint.pc = pc;
        checkpoint.loops = ctx->loops;
        checkpoint.registry = ctx->registry->Snapshot();
        checkpoint.stats = ctx->stats;
        ++ctx->stats.checkpoints_taken;
        if (ctx->durable != nullptr) {
          // Make the checkpoint crash-durable. A persist failure is a hard
          // error: continuing would let a later crash resume from a stale
          // durable checkpoint even though this run had moved past it.
          DBSP_RETURN_NOT_OK(ctx->durable->Persist(pc, checkpoint.loops,
                                                   checkpoint.registry));
          ++ctx->stats.durable_checkpoints;
        }
      }
    }

    // Snapshot before the attempt: a failed step's partial work (rows it
    // pushed through pipelines before the fault fired) is rewound so only
    // the attempt that completes contributes to the work counters.
    ExecStats attempt_base;
    if (recovery) attempt_base = ctx->stats;

    size_t next_pc = pc + 1;
    Status st = run_step(step, pc, &next_pc);
    if (!st.ok()) {
      if (!recovery || !st.IsRecoverable()) return st;
      ctx->stats.RewindWorkCountersTo(attempt_base);
      ++ctx->stats.faults_seen;

      // Transient faults on idempotent steps: bounded in-place retry.
      if (st.IsRetryable() && StepIsIdempotent(step.kind)) {
        for (int attempt = 0;
             !st.ok() && st.IsRetryable() && attempt < ft.max_step_retries;
             ++attempt) {
          ++ctx->stats.step_retries;
          st = run_step(step, pc, &next_pc);
          if (!st.ok()) {
            ctx->stats.RewindWorkCountersTo(attempt_base);
            if (st.IsRecoverable()) ++ctx->stats.faults_seen;
          }
        }
      }

      if (!st.ok()) {
        if (!st.IsRecoverable()) return st;
        // Worker loss, a non-idempotent step, or retry exhaustion: roll
        // back to the last checkpoint and resume from there. The restore
        // cap guards against livelock under a saturating fault schedule —
        // when it trips, the original typed status surfaces to the caller.
        if (restores_used >= ft.max_restores) return st;
        ++restores_used;
        ++ctx->stats.restores;
        ctx->registry->Restore(checkpoint.registry);
        ctx->loops = checkpoint.loops;
        ctx->stats.RewindWorkCountersTo(checkpoint.stats);
        pc = checkpoint.pc;
        continue;
      }
    }
    pc = next_pc;
  }
  if (!final_result) final_result = Table::Make(Schema());
  return final_result;
}

}  // namespace dbspinner
