#include "replay.h"

#include <chrono>
#include <ctime>
#include <utility>

#include "exec/physical_planner.h"
#include "exec/program_executor.h"
#include "optimizer/optimizer.h"
#include "parser/parser.h"
#include "rewrite/iterative_rewrite.h"
#include "storage/result_registry.h"
#include "verify/verify.h"

namespace perfbench {

using dbspinner::Catalog;
using dbspinner::Database;
using dbspinner::ExecContext;
using dbspinner::ExecStats;
using dbspinner::Optimizer;
using dbspinner::Program;
using dbspinner::ProgramBuilder;
using dbspinner::Result;
using dbspinner::ResultRegistry;
using dbspinner::Statement;
using dbspinner::StatementKind;
using dbspinner::StatementPtr;
using dbspinner::Status;
using dbspinner::Step;
using dbspinner::StepProfile;
using dbspinner::TablePtr;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

std::string Span::FullName() const {
  return detail == nullptr ? std::string(name)
                           : std::string(name) + "." + detail;
}

int Tracer::Begin(const char* name, int parent, const char* detail) {
  const int64_t now = NowNs();
  return Add(name, detail, now, now, parent);
}

void Tracer::End(int span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

int Tracer::Add(const char* name, const char* detail, int64_t start_ns,
                int64_t end_ns, int parent) {
  spans_.push_back(
      Span{name, detail, start_ns, end_ns, parent, op_, round_});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::Coverage(int root) const {
  // Spans nest, so the union of all descendants is the union of the direct
  // children, which never overlap one another.
  int64_t covered = 0;
  for (size_t i = static_cast<size_t>(root) + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == root) {
      covered += spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  const Span& r = span(root);
  const int64_t wall = r.end_ns - r.start_ns;
  return wall > 0 ? static_cast<double>(covered) / static_cast<double>(wall)
                  : 1.0;
}

namespace {

constexpr double kUs = 1e3;
constexpr double kMs = 1e6;

/// Runs `fn` inside span `name`.
template <typename Fn>
auto Timed(Tracer* tracer, const char* name, int parent, Fn&& fn) {
  const int span = tracer->Begin(name, parent);
  auto result = fn();
  tracer->End(span);
  return result;
}

/// Which `exec.step.*` bucket a step's profiled time goes to. Materialize
/// steps other than R0 and Ri are hoisted common results when outside a
/// loop body, and the affected-key sets of delta iteration inside one.
/// Loop control and registry bookkeeping share `loop_check`.
const char* StepBucket(const Program& program, size_t index) {
  const Step& step = program.steps[index];
  switch (step.kind) {
    case Step::Kind::kMaterialize: {
      for (const auto& info : program.iterative_ctes) {
        if (step.id == info.r0_step_id) return "r0";
        if (step.id == info.ri_step_id) return "ri";
      }
      for (size_t i = index + 1; i < program.steps.size(); ++i) {
        const Step& later = program.steps[i];
        if (later.kind == Step::Kind::kLoopCheck &&
            program.FindStep(later.jump_to_id) <= static_cast<int>(index)) {
          return "compute_delta";
        }
      }
      return "hoisted";
    }
    case Step::Kind::kFinal:
      return "final";
    case Step::Kind::kRename:
      return "rename";
    case Step::Kind::kMergeUpdate:
      return "merge_update";
    case Step::Kind::kComputeDelta:
      return "compute_delta";
    default:
      return "loop_check";
  }
}

/// Everything one replayed SELECT leaves for the counters, folded in after
/// the op ends so no bookkeeping runs between its spans.
struct RunRecord {
  /// The replayed program, kept until the op ends so that releasing it
  /// (microseconds) falls outside the op's spans, like its statement's AST.
  Program program;
  size_t steps_built = 0;  ///< steps before optimization
  ExecStats stats;
  std::map<int, StepProfile> profile;
  double cpu_ms = 0;     ///< process CPU time during RunProgram
  double worker_ms = 0;  ///< RunProgram wall time x workers
};

void AddRunCounters(const RunRecord& r, Counters* c) {
  const ExecStats& s = r.stats;
  const double pipeline_ms = static_cast<double>(s.pipeline_ns) / kMs;
  (*c)["rewrite.steps"] += static_cast<double>(r.steps_built);
  (*c)["_run_cpu_ms"] += r.cpu_ms;
  (*c)["_run_worker_ms"] += r.worker_ms;
  (*c)["exec.pipeline_ms"] += pipeline_ms;
  (*c)["exec.loop_iterations"] += static_cast<double>(s.loop_iterations);
  (*c)["exec.rows_materialized"] += static_cast<double>(s.rows_materialized);
  (*c)["exec.merge_updates"] += static_cast<double>(s.merge_updates);
  (*c)["exec.delta_rows"] += static_cast<double>(s.delta_rows);
  (*c)["exec.delta_probe_rows"] += static_cast<double>(s.delta_probe_rows);
  (*c)["exec.build_cache_hits"] += static_cast<double>(s.build_cache_hits);
  (*c)["exec.pipeline_rows_in"] += static_cast<double>(s.pipeline_rows_in);
  (*c)["exec.pipeline_rows_out"] += static_cast<double>(s.pipeline_rows_out);
  (*c)["exec.morsels_dispatched"] +=
      static_cast<double>(s.morsels_dispatched);
  (*c)["exec.agg_rows_preaggregated"] +=
      static_cast<double>(s.agg_rows_preaggregated);
  (*c)["expr.kernel_rows_filter"] += static_cast<double>(s.kernel_rows_filter);
  (*c)["expr.kernel_rows_project"] +=
      static_cast<double>(s.kernel_rows_project);
  (*c)["expr.kernel_rows_probe"] += static_cast<double>(s.kernel_rows_probe);
  (*c)["mpp.rows_shuffled"] += static_cast<double>(s.rows_shuffled);
  (*c)["mpp.morsels_stolen"] += static_cast<double>(s.morsels_stolen);
  (*c)["mpp.agg_partials_merged"] +=
      static_cast<double>(s.agg_partials_merged);

  double breaker_ms = -pipeline_ms;
  double cte_rows = 0;
  bool has_delta = false;  // delta iteration rewrote a loop
  const Program& program = r.program;
  for (size_t i = 0; i < program.steps.size(); ++i) {
    const Step& step = program.steps[i];
    has_delta |= step.kind == Step::Kind::kComputeDelta;
    auto it = r.profile.find(step.id);
    if (it == r.profile.end()) continue;
    (*c)[std::string("exec.step.") + StepBucket(program, i) + "_ms"] +=
        it->second.total_ms;
    if (step.kind == Step::Kind::kMaterialize ||
        step.kind == Step::Kind::kFinal) {
      breaker_ms += it->second.total_ms;
    }
    for (const auto& cte : program.iterative_ctes) {
      if (step.id == cte.r0_step_id && it->second.last_rows > 0) {
        cte_rows += static_cast<double>(it->second.last_rows);
      }
    }
  }
  (*c)["exec.breaker_ms"] += breaker_ms;
  if (has_delta) {
    // Inputs of exec.delta_frontier_frac: probe rows over iterations x CTE
    // rows.
    (*c)["_frontier_probe_rows"] += static_cast<double>(s.delta_probe_rows);
    (*c)["_frontier_rows"] +=
        static_cast<double>(s.loop_iterations) * cte_rows;
  }
}

/// Adds the time of each of the op's spans under `root` to its layer metric.
void AddSpanCounters(const Tracer& tracer, int root, Counters* c) {
  const auto& spans = tracer.spans();
  for (size_t i = static_cast<size_t>(root) + 1; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.FullName();
    if (name == "parser") {
      (*c)["parser.parse_us"] += s.Us();
    } else if (name == "rewrite") {
      (*c)["rewrite.build_us"] += s.Us();
    } else if (name == "verify") {
      (*c)["verify.us"] += s.Us();
      (*c)["verify.calls"] += 1;
    } else if (name == "exec.compile") {
      (*c)["exec.compile_us"] += s.Us();
    } else if (name == "exec.run") {
      (*c)["exec.run_ms"] += s.Us() / kUs;
    } else if (s.detail != nullptr) {
      // optimizer.<rule> and engine.dml.<kind>
      (*c)[name + "_us"] += s.Us();
    }
  }
}

/// Replays Database::ExecuteSelect for a parsed SELECT: build, verify after
/// binding, optimize with a verify after each rule, verify, compile, verify
/// the compiled program, run. Verification follows options.verify exactly
/// as Database::VerifyStage does.
Result<TablePtr> TracedSelect(Database* db, const Statement& stmt,
                              const ReplayConfig& config, Tracer* tracer,
                              int parent, RunRecord* record) {
  const dbspinner::EngineOptions& opts = config.options;
  Catalog snapshot;
  Result<Program> built = Timed(tracer, "rewrite", parent, [&] {
    snapshot = db->catalog().PinSnapshot();
    ProgramBuilder builder(&snapshot, opts.optimizer);
    return builder.BuildSelect(stmt);
  });
  if (!built.ok()) return built.status();
  Program& program = record->program;
  program = std::move(built).value();
  record->steps_built = program.steps.size();

  int64_t violations = 0;
  auto verify = [&](const Program& p, bool require_physical, int under) {
    if (!opts.verify.verify_plans) return Status::OK();
    return Timed(tracer, "verify", under, [&] {
      dbspinner::verify::VerifyContext vctx;
      vctx.catalog = &snapshot;
      vctx.require_physical = require_physical;
      vctx.options = &opts;
      return dbspinner::verify::EnforceOrCount(
          dbspinner::verify::VerifyProgram(p, vctx), opts.verify.enforce,
          &violations);
    });
  };
  DBSP_RETURN_NOT_OK(verify(program, false, parent));

  // Each rule's span runs from the end of the previous hook (or the start
  // of optimization) to the hook that marks the rule's end. Rule names are
  // string literals in the optimizer, so the span can keep the pointer.
  const int opt_span = tracer->Begin("optimizer", parent);
  Optimizer optimizer(opts.optimizer, &snapshot);
  int64_t mark = NowNs();
  optimizer.set_rule_hook([&](const char* rule, const Program& p) {
    tracer->Add("optimizer", rule, mark, NowNs(), opt_span);
    Status st = verify(p, false, opt_span);
    mark = NowNs();
    return st;
  });
  Status st = optimizer.OptimizeProgram(&program);
  tracer->End(opt_span);
  DBSP_RETURN_NOT_OK(st);
  DBSP_RETURN_NOT_OK(verify(program, false, parent));

  DBSP_RETURN_NOT_OK(Timed(tracer, "exec.compile", parent, [&] {
    return dbspinner::PlanProgram(&program, &snapshot);
  }));
  DBSP_RETURN_NOT_OK(verify(program, true, parent));

  // The run span also covers releasing the run's registry and join builds,
  // which Database::Execute pays for as well.
  return Timed(tracer, "exec.run", parent, [&] {
    const double cpu_before = CpuMs();
    const int64_t run_start = NowNs();
    Result<TablePtr> table = [&] {
      ResultRegistry registry;
      ExecContext ctx;
      ctx.catalog = &snapshot;
      ctx.registry = &registry;
      ctx.options = &opts;
      ctx.pool = config.pool;
      ctx.profiling = true;
      ctx.stats.verify_violations = violations;
      Result<TablePtr> out = dbspinner::RunProgram(program, &ctx);
      record->stats = ctx.stats;
      record->profile = std::move(ctx.profile);
      return out;
    }();
    record->worker_ms = static_cast<double>(NowNs() - run_start) / kMs *
                        opts.num_workers;
    record->cpu_ms = CpuMs() - cpu_before;
    return table;
  });
}

const char* DmlName(StatementKind kind) {
  switch (kind) {
    case StatementKind::kCreateTable:
      return "create";
    case StatementKind::kDropTable:
      return "drop";
    case StatementKind::kInsert:
      return "insert";
    case StatementKind::kDelete:
      return "delete";
    case StatementKind::kUpdate:
      return "update";
    case StatementKind::kSelect:
      return "select";
    default:
      return "other";
  }
}

}  // namespace

Result<TracedOp> RunTraced(Database* db, const Op& op,
                           const ReplayConfig& config, Tracer* tracer,
                           Counters* counters) {
  TracedOp out;
  // Statements and replayed programs are released after the op ends.
  std::vector<StatementPtr> parsed_statements;
  std::vector<RunRecord> runs;
  parsed_statements.reserve(op.statements.size());
  runs.reserve(op.statements.size());
  out.root_span = tracer->Begin("op", -1);
  for (const std::string& sql : op.statements) {
    Result<StatementPtr> parsed = Timed(tracer, "parser", out.root_span, [&] {
      return dbspinner::ParseStatement(sql);
    });
    if (!parsed.ok()) return parsed.status();
    parsed_statements.push_back(std::move(parsed).value());
    const Statement& stmt = *parsed_statements.back();
    if (!op.procedure) {
      // An ad-hoc or iterative SELECT: its phases hang off the op itself.
      DBSP_ASSIGN_OR_RETURN(out.table,
                            TracedSelect(db, stmt, config, tracer,
                                         out.root_span, &runs.emplace_back()));
      continue;
    }
    const int span =
        tracer->Begin("engine.dml", out.root_span, DmlName(stmt.kind));
    if (stmt.kind == StatementKind::kSelect) {
      Result<TablePtr> table =
          TracedSelect(db, stmt, config, tracer, span, &runs.emplace_back());
      tracer->End(span);
      if (!table.ok()) return table.status();
      out.table = std::move(table).value();
      continue;
    }
    // DML and DDL run through the engine's own path; only their total time
    // is visible from outside.
    Result<dbspinner::QueryResult> result = db->Execute(sql);
    tracer->End(span);
    if (!result.ok()) return result.status();
  }
  tracer->End(out.root_span);
  const Span& root = tracer->span(out.root_span);
  out.ms = static_cast<double>(root.end_ns - root.start_ns) / kMs;
  AddSpanCounters(*tracer, out.root_span, counters);
  for (const RunRecord& run : runs) AddRunCounters(run, counters);
  return out;
}

Result<UntracedOp> RunUntraced(Database* db, const Op& op) {
  UntracedOp out;
  out.statement_ms.reserve(op.statements.size());
  out.statement_cpu_ms.reserve(op.statements.size());
  const int64_t start = NowNs();
  for (const std::string& sql : op.statements) {
    const double cpu_before = CpuMs();
    const int64_t statement_start = NowNs();
    Result<dbspinner::QueryResult> result = db->Execute(sql);
    out.statement_ms.push_back(
        static_cast<double>(NowNs() - statement_start) / kMs);
    out.statement_cpu_ms.push_back(CpuMs() - cpu_before);
    if (!result.ok()) return result.status();
    if (!op.procedure || sql.rfind("SELECT", 0) == 0) {
      out.table = std::move(result->table);
    }
  }
  out.ms = static_cast<double>(NowNs() - start) / kMs;
  return out;
}

}  // namespace perfbench
