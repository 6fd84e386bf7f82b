// Program dataflow verifier: V101..V111 (plus result-scan V008 checks that
// need binding state).
//
// The Program is a linear step list with two kinds of control transfer:
// kLoopCheck jumps *to* the step with id `jump_to_id` when the loop
// continues, and kInitLoop jumps *past* the step with id `jump_to_id` when
// the loop runs zero iterations. Over that CFG the checker runs
//
//   1. a forward "must" abstract interpretation of registry-name states
//      ({unbound, bound, moved} plus a definitely-unread bit and the bound
//      schema) to a fixpoint, diagnosing V101/V102/V103/V008 only on
//      converged, definite states — a state that differs between paths is
//      demoted to "maybe" and never diagnosed, so the analysis cannot false-
//      positive on the loop back edges;
//   2. a backward liveness fixpoint for V104 (loop-body materializations
//      that no path ever consumes);
//   3. structural passes: step payloads and ids (V110), final-step placement
//      (V111), jump-target validity (V105), static non-termination (V106),
//      hoist soundness (V107), re-derivation of the Fig 10 pushdown-legality
//      fact against the actual Ri plan (V108), and the aliasing /
//      retry-idempotency model cross-check (V109).

#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "exec/program_executor.h"
#include "plan/logical_plan.h"
#include "plan/program.h"
#include "verify/verify_internal.h"

namespace dbspinner {
namespace verify {
namespace internal {

namespace {

/// Appends every result name the plan reads: kResult scans plus the
/// delta-restrict side input.
void CollectPlanReads(const LogicalOp& op, std::vector<std::string>* out) {
  if (op.kind == LogicalOpKind::kScan &&
      op.scan_source == ScanSource::kResult) {
    out->push_back(ToLower(op.scan_name));
  }
  if (op.kind == LogicalOpKind::kDeltaRestrict && !op.delta_source.empty()) {
    out->push_back(ToLower(op.delta_source));
  }
  for (const LogicalOpPtr& child : op.children) {
    if (child != nullptr) CollectPlanReads(*child, out);
  }
}

/// Result-scan schemas the plan asserts, for V008 against the bound state.
void CollectResultScans(const LogicalOp& op,
                        std::vector<const LogicalOp*>* out) {
  if (op.kind == LogicalOpKind::kScan &&
      op.scan_source == ScanSource::kResult) {
    out->push_back(&op);
  }
  for (const LogicalOpPtr& child : op.children) {
    if (child != nullptr) CollectResultScans(*child, out);
  }
}

/// Registry-name effects of one step, mirroring the executor's semantics.
struct StepIO {
  std::vector<std::string> reads;
  std::vector<std::string> binds;    ///< names (re)bound to a fresh value
  std::vector<std::string> moves;    ///< names consumed (rename/merge source)
  std::vector<std::string> removes;  ///< names explicitly unbound
};

StepIO ComputeStepIO(const Step& step) {
  StepIO io;
  std::string target = ToLower(step.target);
  std::string source = ToLower(step.source);
  switch (step.kind) {
    case Step::Kind::kMaterialize:
      if (step.plan != nullptr) CollectPlanReads(*step.plan, &io.reads);
      io.binds.push_back(target);
      break;
    case Step::Kind::kFinal:
      if (step.plan != nullptr) CollectPlanReads(*step.plan, &io.reads);
      break;
    case Step::Kind::kRename:
      io.reads.push_back(source);
      io.moves.push_back(source);
      io.binds.push_back(target);
      break;
    case Step::Kind::kMergeUpdate:
      io.reads.push_back(target);
      io.reads.push_back(source);
      io.moves.push_back(source);
      io.binds.push_back(target);
      break;
    case Step::Kind::kRemoveResult:
      io.removes.push_back(target);
      break;
    case Step::Kind::kInitLoop:
      // The executor snapshots the CTE for delta conditions at init and
      // evaluates the 0-iteration condition when a skip target is set.
      if (step.loop.kind == LoopSpec::Kind::kDeltaLess) {
        io.reads.push_back(ToLower(step.loop.cte_name));
      } else if (step.jump_to_id != 0) {
        if (step.loop.kind == LoopSpec::Kind::kAny ||
            step.loop.kind == LoopSpec::Kind::kAll) {
          io.reads.push_back(ToLower(step.loop.cte_name));
        } else if (step.loop.kind == LoopSpec::Kind::kWhileResultNonEmpty) {
          io.reads.push_back(ToLower(step.loop.watch_name));
        }
      }
      break;
    case Step::Kind::kLoopCheck:
      if (step.loop.kind == LoopSpec::Kind::kAny ||
          step.loop.kind == LoopSpec::Kind::kAll ||
          step.loop.kind == LoopSpec::Kind::kDeltaLess) {
        io.reads.push_back(ToLower(step.loop.cte_name));
      } else if (step.loop.kind == LoopSpec::Kind::kWhileResultNonEmpty) {
        io.reads.push_back(ToLower(step.loop.watch_name));
      }
      break;
    case Step::Kind::kComputeDelta:
      // The write record and the previous iteration's affected keys it
      // may diff by live in the loop state, not in the registry.
      io.reads.push_back(source);
      io.binds.push_back(target);
      break;
  }
  return io;
}

/// Abstract state of one registry name on the paths reaching a step.
struct NameInfo {
  enum class S { kUnbound, kBound, kMoved };
  S state = S::kUnbound;
  bool definite = true;  ///< false: paths disagree; never diagnosed
  bool unread = false;   ///< kBound and not read since the binding
  int event_step = -1;   ///< step id of the last bind / move / remove
  bool has_schema = false;
  Schema schema;

  /// Fixpoint equality; event_step and schema names are diagnostic-only.
  bool SameAs(const NameInfo& other) const {
    if (state != other.state || definite != other.definite ||
        unread != other.unread || has_schema != other.has_schema) {
      return false;
    }
    return !has_schema || SameTypes(schema, other.schema);
  }
};

using AbstractState = std::map<std::string, NameInfo>;

NameInfo GetOrDefault(const AbstractState& state, const std::string& name) {
  auto it = state.find(name);
  return it == state.end() ? NameInfo{} : it->second;
}

NameInfo MeetInfo(const NameInfo& a, const NameInfo& b) {
  NameInfo m;
  if (a.state != b.state) {
    m.state = a.state;
    m.definite = false;
    return m;
  }
  m = a;
  m.definite = a.definite && b.definite;
  m.unread = a.unread && b.unread;
  if (a.has_schema && b.has_schema && SameTypes(a.schema, b.schema)) {
    // keep a's schema
  } else {
    m.has_schema = false;
    m.schema = Schema();
  }
  return m;
}

AbstractState MeetStates(const AbstractState& a, const AbstractState& b) {
  AbstractState out = a;
  for (const auto& [name, info] : b) {
    out[name] = MeetInfo(GetOrDefault(a, name), info);
  }
  for (auto& [name, info] : out) {
    if (b.find(name) == b.end()) {
      info = MeetInfo(info, NameInfo{});
    }
  }
  return out;
}

bool StatesEqual(const AbstractState& a, const AbstractState& b) {
  std::set<std::string> names;
  for (const auto& [name, info] : a) names.insert(name);
  for (const auto& [name, info] : b) names.insert(name);
  for (const std::string& name : names) {
    if (!GetOrDefault(a, name).SameAs(GetOrDefault(b, name))) return false;
  }
  return true;
}

/// The step kinds the verifier's effect model classifies as safely
/// re-runnable after a mid-step failure: their only inputs are registry
/// bindings they do not consume, and their side effects (re)bind a target
/// from scratch rather than accumulating into it. kRename consumes its
/// source (a re-run finds it unbound), so it is excluded. Cross-checked
/// against the executor's retry whitelist (V109).
bool ModelStepIsIdempotent(Step::Kind kind) {
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

constexpr Step::Kind kAllStepKinds[] = {
    Step::Kind::kMaterialize,  Step::Kind::kRename,
    Step::Kind::kMergeUpdate,  Step::Kind::kRemoveResult,
    Step::Kind::kInitLoop,     Step::Kind::kLoopCheck,
    Step::Kind::kComputeDelta, Step::Kind::kFinal,
};

/// True when output column `col` of `op` is a verbatim copy of column `col`
/// of the iterative CTE `cte` on every path through the plan — the property
/// the pass_through[] legality fact asserts (Fig 10). Conservative: any
/// operator this walk does not understand fails the column.
bool ColumnPassesThrough(const LogicalOp& op, size_t col,
                         const std::string& cte) {
  switch (op.kind) {
    case LogicalOpKind::kScan:
      return op.scan_source == ScanSource::kResult &&
             EqualsIgnoreCase(op.scan_name, cte);
    case LogicalOpKind::kValues:
      return op.rows.empty();  // vacuously true: contributes no rows
    case LogicalOpKind::kFilter:
    case LogicalOpKind::kDistinct:
    case LogicalOpKind::kSort:
    case LogicalOpKind::kDeltaRestrict:
      return !op.children.empty() && op.children[0] != nullptr &&
             ColumnPassesThrough(*op.children[0], col, cte);
    case LogicalOpKind::kProject: {
      if (op.children.empty() || op.children[0] == nullptr) return false;
      if (col >= op.projections.size()) return false;
      const BoundExpr* e = op.projections[col].get();
      if (e == nullptr || e->kind != BoundExprKind::kColumnRef) return false;
      return ColumnPassesThrough(*op.children[0], e->column_index, cte);
    }
    case LogicalOpKind::kUnionAll:
      return op.children.size() == 2 && op.children[0] != nullptr &&
             op.children[1] != nullptr &&
             ColumnPassesThrough(*op.children[0], col, cte) &&
             ColumnPassesThrough(*op.children[1], col, cte);
    default:
      return false;
  }
}

/// True if any node of `kind` appears in the plan.
bool PlanContainsKind(const LogicalOp& op, LogicalOpKind kind) {
  if (op.kind == kind) return true;
  for (const LogicalOpPtr& child : op.children) {
    if (child != nullptr && PlanContainsKind(*child, kind)) return true;
  }
  return false;
}

/// First catalog scan, or result scan of a name other than `allowed`, in the
/// plan; nullptr if none.
const LogicalOp* FindForeignScan(const LogicalOp& op,
                                 const std::string& allowed) {
  if (op.kind == LogicalOpKind::kScan) {
    if (op.scan_source == ScanSource::kCatalog) return &op;
    if (!EqualsIgnoreCase(op.scan_name, allowed)) return &op;
  }
  for (const LogicalOpPtr& child : op.children) {
    if (child == nullptr) continue;
    const LogicalOp* found = FindForeignScan(*child, allowed);
    if (found != nullptr) return found;
  }
  return nullptr;
}

class ProgramChecker {
 public:
  ProgramChecker(const Program& program, const VerifyContext& ctx,
                 VerifyReport* report)
      : program_(program), ctx_(ctx), report_(report) {}

  void Check() {
    CheckPayloads();        // V110, V111, V109 aliasing
    CheckIdempotencyModel();  // V109 whitelist cross-check
    CheckLoops();           // V105, V106, V107
    CheckIterativeCteFacts();  // V108 + metadata V110
    if (structurally_broken_) {
      // The CFG is not trustworthy (dangling jump targets / duplicate
      // ids); the dataflow analyses would chase bogus edges.
      return;
    }
    RunDataflow();  // V101, V102, V103, V008
    RunLiveness();  // V104
  }

 private:
  void Add(DefectCode code, const Step& step, std::string detail) {
    report_->Add(code, step.id, std::move(detail), StepExcerpt(step));
  }

  // ---- CFG -------------------------------------------------------------

  /// Successor indices of step `i`, honoring the two jump kinds.
  std::vector<size_t> Successors(size_t i) const {
    const Step& step = program_.steps[i];
    std::vector<size_t> out;
    size_t n = program_.steps.size();
    if (i + 1 < n) out.push_back(i + 1);
    if (step.kind == Step::Kind::kLoopCheck) {
      int t = program_.FindStep(step.jump_to_id);
      if (t >= 0) out.push_back(static_cast<size_t>(t));
    } else if (step.kind == Step::Kind::kInitLoop && step.jump_to_id != 0) {
      int t = program_.FindStep(step.jump_to_id);
      if (t >= 0 && static_cast<size_t>(t) + 1 < n) {
        out.push_back(static_cast<size_t>(t) + 1);  // jump *past* the check
      }
    }
    return out;
  }

  // ---- V110 / V111 / V109 (aliasing) -----------------------------------

  void CheckPayloads() {
    std::set<int> ids;
    int final_count = 0;
    for (size_t i = 0; i < program_.steps.size(); ++i) {
      const Step& step = program_.steps[i];
      if (!ids.insert(step.id).second) {
        Add(DefectCode::kV110, step,
            StringPrintf("duplicate step id %d", step.id));
        structurally_broken_ = true;
      }
      bool wants_plan = step.kind == Step::Kind::kMaterialize ||
                        step.kind == Step::Kind::kFinal;
      if (wants_plan && step.plan == nullptr) {
        Add(DefectCode::kV110, step,
            StringPrintf("%s step has no plan", step.KindName()));
        structurally_broken_ = true;
      }
      if (!wants_plan && step.plan != nullptr) {
        Add(DefectCode::kV110, step,
            StringPrintf("%s step carries an unexpected plan",
                         step.KindName()));
      }
      if (wants_plan && ctx_.require_physical && step.physical == nullptr) {
        Add(DefectCode::kV110, step,
            StringPrintf("%s step has no physical plan after compilation",
                         step.KindName()));
      }
      bool wants_target = step.kind != Step::Kind::kFinal &&
                          step.kind != Step::Kind::kInitLoop &&
                          step.kind != Step::Kind::kLoopCheck;
      if (wants_target && step.target.empty()) {
        Add(DefectCode::kV110, step,
            StringPrintf("%s step has an empty target name",
                         step.KindName()));
        structurally_broken_ = true;
      }
      bool wants_source = step.kind == Step::Kind::kRename ||
                          step.kind == Step::Kind::kMergeUpdate ||
                          step.kind == Step::Kind::kComputeDelta;
      if (wants_source && step.source.empty()) {
        Add(DefectCode::kV110, step,
            StringPrintf("%s step has an empty source name",
                         step.KindName()));
        structurally_broken_ = true;
      }
      if (wants_source && !step.source.empty() && !step.target.empty() &&
          EqualsIgnoreCase(step.source, step.target)) {
        Add(DefectCode::kV109, step,
            StringPrintf("%s step aliases source and target '%s'",
                         step.KindName(), step.target.c_str()));
      }
      if (step.kind == Step::Kind::kInitLoop ||
          step.kind == Step::Kind::kLoopCheck) {
        CheckLoopSpecPayload(step);
      }
      if (step.kind == Step::Kind::kFinal) {
        ++final_count;
        if (i + 1 != program_.steps.size()) {
          Add(DefectCode::kV111, step,
              StringPrintf("final step at index %zu of %zu is not last", i,
                           program_.steps.size()));
        }
        if (final_count > 1) {
          Add(DefectCode::kV111, step, "program has multiple final steps");
        }
      }
    }
  }

  void CheckLoopSpecPayload(const Step& step) {
    const LoopSpec& spec = step.loop;
    switch (spec.kind) {
      case LoopSpec::Kind::kAny:
      case LoopSpec::Kind::kAll:
        if (spec.expr == nullptr) {
          Add(DefectCode::kV110, step,
              StringPrintf("%s loop condition has no expression",
                           spec.TypeName()));
        }
        if (spec.cte_name.empty()) {
          Add(DefectCode::kV110, step,
              "data-driven loop condition has no CTE name");
        }
        break;
      case LoopSpec::Kind::kDeltaLess:
        if (spec.cte_name.empty()) {
          Add(DefectCode::kV110, step,
              "delta loop condition has no CTE name");
        }
        break;
      case LoopSpec::Kind::kWhileResultNonEmpty:
        if (spec.watch_name.empty()) {
          Add(DefectCode::kV110, step,
              "while-non-empty loop condition has no watch name");
        }
        break;
      case LoopSpec::Kind::kIterations:
      case LoopSpec::Kind::kUpdates:
        break;
    }
  }

  // ---- V109 whitelist cross-check --------------------------------------

  void CheckIdempotencyModel() {
    for (Step::Kind kind : kAllStepKinds) {
      if (StepIsIdempotent(kind) != ModelStepIsIdempotent(kind)) {
        Step probe;  // synthetic: diagnostic only, not tied to a step
        probe.kind = kind;
        probe.id = -1;
        report_->Add(
            DefectCode::kV109, -1,
            StringPrintf("executor retry whitelist classifies %s as %s but "
                         "the verifier's effect model says %s",
                         probe.KindName(),
                         StepIsIdempotent(kind) ? "idempotent"
                                                : "non-idempotent",
                         ModelStepIsIdempotent(kind) ? "idempotent"
                                                     : "non-idempotent"));
      }
    }
  }

  // ---- V105 / V106 / V107 ----------------------------------------------

  void CheckLoops() {
    size_t n = program_.steps.size();
    for (size_t ci = 0; ci < n; ++ci) {
      const Step& check = program_.steps[ci];
      if (check.kind != Step::Kind::kLoopCheck) continue;
      int body = program_.FindStep(check.jump_to_id);
      if (body < 0) {
        Add(DefectCode::kV105, check,
            StringPrintf("loop-check jump target id %d does not exist",
                         check.jump_to_id));
        structurally_broken_ = true;
        continue;
      }
      if (static_cast<size_t>(body) > ci) {
        Add(DefectCode::kV105, check,
            StringPrintf("loop-check jump target (index %d) is after the "
                         "check (index %zu): a loop must jump backward",
                         body, ci));
        structurally_broken_ = true;
        continue;
      }
      // Find the matching init: the kInitLoop with this loop_id before the
      // body start.
      int init_idx = -1;
      for (int i = body - 1; i >= 0; --i) {
        const Step& s = program_.steps[i];
        if (s.kind == Step::Kind::kInitLoop && s.loop_id == check.loop_id) {
          init_idx = i;
          break;
        }
      }
      if (init_idx < 0) {
        Add(DefectCode::kV105, check,
            StringPrintf("no kInitLoop for loop %d precedes the body start",
                         check.loop_id));
        continue;
      }
      const Step& init = program_.steps[init_idx];
      if (init.jump_to_id != 0) {
        int skip = program_.FindStep(init.jump_to_id);
        if (skip < 0) {
          Add(DefectCode::kV105, init,
              StringPrintf("init-loop skip target id %d does not exist",
                           init.jump_to_id));
          structurally_broken_ = true;
        } else if (static_cast<size_t>(skip) != ci ||
                   program_.steps[skip].kind != Step::Kind::kLoopCheck) {
          Add(DefectCode::kV105, init,
              StringPrintf("init-loop skip target (step id %d) is not this "
                           "loop's kLoopCheck",
                           init.jump_to_id));
        }
      }
      CheckTermination(init, check, static_cast<size_t>(init_idx), ci);
      CheckHoistSoundness(static_cast<size_t>(init_idx), ci);
    }
  }

  /// Names (re)bound by the steps strictly between `lo` and `hi`.
  std::set<std::string> BodyBinds(size_t lo, size_t hi) const {
    std::set<std::string> out;
    for (size_t i = lo + 1; i < hi; ++i) {
      for (const std::string& b : ComputeStepIO(program_.steps[i]).binds) {
        out.insert(b);
      }
    }
    return out;
  }

  void CheckTermination(const Step& init, const Step& check, size_t init_idx,
                        size_t check_idx) {
    const LoopSpec& spec = check.loop;
    std::set<std::string> binds = BodyBinds(init_idx, check_idx);
    switch (spec.kind) {
      case LoopSpec::Kind::kIterations:
        break;  // counter-driven; always terminates
      case LoopSpec::Kind::kUpdates: {
        // Progress is recorded only by rename/merge steps tagged with this
        // loop's id; without one the cumulative count never moves.
        bool has_counter = false;
        for (size_t i = init_idx + 1; i < check_idx; ++i) {
          const Step& s = program_.steps[i];
          if ((s.kind == Step::Kind::kRename ||
               s.kind == Step::Kind::kMergeUpdate) &&
              s.loop_id == check.loop_id) {
            has_counter = true;
            break;
          }
        }
        if (!has_counter) {
          Add(DefectCode::kV106, check,
              StringPrintf("UPDATES loop %d has no body rename/merge step "
                           "recording update counts",
                           check.loop_id));
        }
        break;
      }
      case LoopSpec::Kind::kAny:
      case LoopSpec::Kind::kAll:
        if (!spec.cte_name.empty() &&
            binds.find(ToLower(spec.cte_name)) == binds.end()) {
          Add(DefectCode::kV106, check,
              StringPrintf("%s condition watches '%s' but no body step "
                           "rebinds it; the condition can never change",
                           spec.TypeName(), spec.cte_name.c_str()));
        }
        break;
      case LoopSpec::Kind::kDeltaLess:
        if (spec.n <= 0) {
          Add(DefectCode::kV106, check,
              StringPrintf("DELTA LESS THAN %lld can never hold (changed "
                           "row counts are non-negative)",
                           (long long)spec.n));
        }
        break;
      case LoopSpec::Kind::kWhileResultNonEmpty:
        if (!spec.watch_name.empty() &&
            binds.find(ToLower(spec.watch_name)) == binds.end()) {
          Add(DefectCode::kV106, check,
              StringPrintf("while-non-empty condition watches '%s' but no "
                           "body step rebinds it",
                           spec.watch_name.c_str()));
        }
        break;
    }
    // `init` currently needs no extra termination checks beyond payload
    // validation; keep the parameter for symmetry with future conditions.
    (void)init;
  }

  /// V107: a step hoisted before the loop (common-result, pushed-down R0
  /// filter) must not read a name the loop body rebinds — its value would be
  /// stale from iteration 2 on, contradicting loop-invariance.
  void CheckHoistSoundness(size_t init_idx, size_t check_idx) {
    std::set<std::string> body_binds = BodyBinds(init_idx, check_idx);
    if (body_binds.empty()) return;
    for (size_t i = 0; i < init_idx; ++i) {
      const Step& s = program_.steps[i];
      for (const std::string& r : ComputeStepIO(s).reads) {
        if (body_binds.find(r) != body_binds.end()) {
          Add(DefectCode::kV107, s,
              StringPrintf("pre-loop %s step reads '%s', which the loop "
                           "body (steps %d..%d) rebinds",
                           s.KindName(), r.c_str(),
                           program_.steps[init_idx].id,
                           program_.steps[check_idx].id));
        }
      }
    }
  }

  // ---- V108 + iterative-CTE metadata -----------------------------------

  void CheckIterativeCteFacts() {
    for (const IterativeCteInfo& info : program_.iterative_ctes) {
      int r0 = program_.FindStep(info.r0_step_id);
      int ri = program_.FindStep(info.ri_step_id);
      int init = program_.FindStep(info.init_step_id);
      int check = program_.FindStep(info.check_step_id);
      if (r0 < 0 || ri < 0 || init < 0 || check < 0) {
        report_->Add(DefectCode::kV110, -1,
                     StringPrintf("iterative CTE '%s' metadata references a "
                                  "missing step (r0=%d ri=%d init=%d "
                                  "check=%d)",
                                  info.cte_name.c_str(), info.r0_step_id,
                                  info.ri_step_id, info.init_step_id,
                                  info.check_step_id));
        continue;
      }
      if (!(r0 < init && init < ri && ri < check)) {
        report_->Add(DefectCode::kV110, -1,
                     StringPrintf("iterative CTE '%s' steps are out of "
                                  "order (r0@%d init@%d ri@%d check@%d)",
                                  info.cte_name.c_str(), r0, init, ri,
                                  check));
        continue;
      }
      if (!info.pushdown_legal) continue;
      CheckPushdownFact(info, program_.steps[ri], program_.steps[init]);
    }
  }

  /// Re-derives the Fig 10 pushdown-legality fact from the actual Ri plan.
  /// The fact licenses ApplyCtePredicatePushdown to move a Qf conjunct into
  /// R0; it is sound only if (a) termination is row-insensitive (a fixed
  /// iteration count), (b) Ri contains no row-sensitive or row-mixing
  /// operator (aggregate, join, set difference, limit) and reads no
  /// relation other than the CTE itself, and (c) every column the fact
  /// marks pass-through really is a verbatim copy of the same CTE column.
  void CheckPushdownFact(const IterativeCteInfo& info, const Step& ri,
                         const Step& init) {
    if (init.loop.kind != LoopSpec::Kind::kIterations) {
      Add(DefectCode::kV108, init,
          StringPrintf("pushdown_legal CTE '%s' has a %s-driven loop; only "
                       "fixed iteration counts are row-insensitive",
                       info.cte_name.c_str(), init.loop.TypeName()));
    }
    if (ri.plan == nullptr) return;  // V110 already fired
    const LogicalOp& plan = *ri.plan;
    for (LogicalOpKind kind :
         {LogicalOpKind::kJoin, LogicalOpKind::kAggregate,
          LogicalOpKind::kExcept, LogicalOpKind::kIntersect,
          LogicalOpKind::kLimit}) {
      if (PlanContainsKind(plan, kind)) {
        Add(DefectCode::kV108, ri,
            StringPrintf("pushdown_legal CTE '%s' has a %s in its Ri plan",
                         info.cte_name.c_str(), LogicalOpKindName(kind)));
      }
    }
    const LogicalOp* foreign = FindForeignScan(plan, info.cte_name);
    if (foreign != nullptr) {
      Add(DefectCode::kV108, ri,
          StringPrintf("pushdown_legal CTE '%s' reads relation '%s' in Ri; "
                       "legality requires a single self-scan",
                       info.cte_name.c_str(), foreign->scan_name.c_str()));
    }
    for (size_t i = 0; i < info.pass_through.size(); ++i) {
      if (!info.pass_through[i]) continue;
      if (!ColumnPassesThrough(plan, i, info.cte_name)) {
        Add(DefectCode::kV108, ri,
            StringPrintf("pushdown fact marks column %zu of CTE '%s' as "
                         "pass-through but the Ri plan does not copy it "
                         "verbatim",
                         i, info.cte_name.c_str()));
      }
    }
  }

  // ---- forward dataflow: V101 / V102 / V103 / V008 ---------------------

  /// Applies `step` to `state`; diagnoses into `report` when non-null.
  AbstractState Transfer(const AbstractState& in, const Step& step,
                         VerifyReport* report) {
    AbstractState out = in;
    StepIO io = ComputeStepIO(step);
    for (const std::string& name : io.reads) {
      NameInfo info = GetOrDefault(out, name);
      if (report != nullptr && info.definite) {
        if (info.state == NameInfo::S::kUnbound) {
          std::string why =
              info.event_step >= 0
                  ? StringPrintf("removed at step %d", info.event_step)
                  : "never bound";
          Add(DefectCode::kV101, step,
              StringPrintf("%s reads result '%s', which is unbound on every "
                           "path (%s)",
                           step.KindName(), name.c_str(), why.c_str()));
        } else if (info.state == NameInfo::S::kMoved) {
          Add(DefectCode::kV102, step,
              StringPrintf("%s reads result '%s' after step %d consumed it",
                           step.KindName(), name.c_str(), info.event_step));
        }
      }
      info.unread = false;
      out[name] = info;
    }
    if (report != nullptr && step.plan != nullptr) {
      CheckResultScanSchemas(in, step, report);
    }
    if (report != nullptr) {
      CheckKeyColumns(in, step);
    }
    for (const std::string& name : io.moves) {
      NameInfo info = GetOrDefault(out, name);
      info.state = NameInfo::S::kMoved;
      info.definite = true;
      info.unread = false;
      info.event_step = step.id;
      info.has_schema = false;
      info.schema = Schema();
      out[name] = info;
    }
    for (const std::string& name : io.removes) {
      NameInfo info;
      info.state = NameInfo::S::kUnbound;
      info.definite = true;
      info.event_step = step.id;
      out[name] = info;
    }
    for (const std::string& name : io.binds) {
      // Look up `out`, not `in`: a step that reads its own target before
      // rebinding it (a merge, or a plan that scans it) is itself the
      // reader of the prior binding, so that binding is not a dead store.
      NameInfo prev = GetOrDefault(out, name);
      if (report != nullptr && prev.definite &&
          prev.state == NameInfo::S::kBound && prev.unread &&
          IsDeadStoreRelevant(step)) {
        Add(DefectCode::kV103, step,
            StringPrintf("%s rebinds result '%s' but the value bound at "
                         "step %d was never read",
                         step.KindName(), name.c_str(), prev.event_step));
      }
      NameInfo info;
      info.state = NameInfo::S::kBound;
      info.definite = true;
      info.unread = true;
      info.event_step = step.id;
      ResolveBoundSchema(in, step, name, &info);
      out[name] = info;
    }
    return out;
  }

  /// A loop-tagged rename is the loop-carried update of its CTE: on the
  /// 0-iteration path the previous binding *is* read downstream, so
  /// overwriting it inside the body is not a dead store even when the body
  /// itself never reads the CTE (a legal, if degenerate, query shape).
  static bool IsDeadStoreRelevant(const Step& step) {
    return !(step.kind == Step::Kind::kRename && step.loop_id != 0);
  }

  /// Schema the binding produced by `step` carries, when statically known.
  void ResolveBoundSchema(const AbstractState& in, const Step& step,
                          const std::string& name, NameInfo* info) {
    (void)name;
    switch (step.kind) {
      case Step::Kind::kMaterialize:
        if (step.plan != nullptr) {
          info->has_schema = true;
          info->schema = step.plan->output_schema;
        }
        break;
      case Step::Kind::kRename:
      case Step::Kind::kComputeDelta: {
        NameInfo src = GetOrDefault(in, ToLower(step.source));
        if (src.definite && src.state == NameInfo::S::kBound &&
            src.has_schema) {
          info->has_schema = true;
          info->schema = src.schema;
        }
        break;
      }
      case Step::Kind::kMergeUpdate: {
        NameInfo prev = GetOrDefault(in, ToLower(step.target));
        if (prev.definite && prev.state == NameInfo::S::kBound &&
            prev.has_schema) {
          info->has_schema = true;
          info->schema = prev.schema;
        }
        break;
      }
      default:
        break;
    }
  }

  /// V008: a plan's result-scan schema must agree with what the dataflow
  /// knows is bound under that name at this point.
  void CheckResultScanSchemas(const AbstractState& in, const Step& step,
                              VerifyReport* report) {
    std::vector<const LogicalOp*> scans;
    CollectResultScans(*step.plan, &scans);
    for (const LogicalOp* scan : scans) {
      NameInfo info = GetOrDefault(in, ToLower(scan->scan_name));
      if (!info.definite || info.state != NameInfo::S::kBound ||
          !info.has_schema) {
        continue;
      }
      if (!info.schema.TypesCompatible(scan->output_schema)) {
        report->Add(DefectCode::kV008, step.id,
                    StringPrintf("result scan of '%s' declares schema %s "
                                 "but the binding from step %d has %s",
                                 scan->scan_name.c_str(),
                                 scan->output_schema.ToString().c_str(),
                                 info.event_step,
                                 info.schema.ToString().c_str()),
                    PlanExcerpt(*scan));
      }
    }
  }

  /// V003/V008 for the key-addressed registry steps: the key ordinal must
  /// exist in the addressed binding, and a merge's pair must be
  /// type-compatible.
  void CheckKeyColumns(const AbstractState& in, const Step& step) {
    if (step.kind != Step::Kind::kMergeUpdate &&
        step.kind != Step::Kind::kComputeDelta) {
      return;
    }
    std::string key_holder = step.kind == Step::Kind::kComputeDelta
                                 ? ToLower(step.source)
                                 : ToLower(step.target);
    NameInfo holder = GetOrDefault(in, key_holder);
    if (holder.definite && holder.state == NameInfo::S::kBound &&
        holder.has_schema &&
        step.key_col >= holder.schema.num_columns()) {
      Add(DefectCode::kV003, step,
          StringPrintf("%s key column #%zu out of bounds for '%s' %s",
                       step.KindName(), step.key_col, key_holder.c_str(),
                       holder.schema.ToString().c_str()));
    }
    if (step.kind == Step::Kind::kMergeUpdate) {
      NameInfo src = GetOrDefault(in, ToLower(step.source));
      NameInfo dst = GetOrDefault(in, ToLower(step.target));
      if (src.definite && dst.definite &&
          src.state == NameInfo::S::kBound &&
          dst.state == NameInfo::S::kBound && src.has_schema &&
          dst.has_schema && !dst.schema.TypesCompatible(src.schema)) {
        Add(DefectCode::kV008, step,
            StringPrintf("%s source '%s' %s is incompatible with target "
                         "'%s' %s",
                         step.KindName(), step.source.c_str(),
                         src.schema.ToString().c_str(), step.target.c_str(),
                         dst.schema.ToString().c_str()));
      }
    }
  }

  void RunDataflow() {
    size_t n = program_.steps.size();
    if (n == 0) return;
    std::vector<AbstractState> in(n);
    // Results the caller binds before execution (materialized-view CTE
    // overlays) are live at entry: bound, with their known schema.
    for (const auto& [name, schema] : program_.seeded_results) {
      NameInfo info;
      info.state = NameInfo::S::kBound;
      info.has_schema = true;
      info.schema = schema;
      in[0][ToLower(name)] = info;
    }
    std::vector<bool> reached(n, false);
    reached[0] = true;
    std::deque<size_t> work{0};
    size_t budget = n * 200 + 64;  // lattice is finite; this never binds
    while (!work.empty() && budget-- > 0) {
      size_t i = work.front();
      work.pop_front();
      AbstractState out = Transfer(in[i], program_.steps[i], nullptr);
      for (size_t s : Successors(i)) {
        if (!reached[s]) {
          reached[s] = true;
          in[s] = out;
          work.push_back(s);
        } else {
          AbstractState merged = MeetStates(in[s], out);
          if (!StatesEqual(merged, in[s])) {
            in[s] = std::move(merged);
            work.push_back(s);
          }
        }
      }
    }
    // Diagnose on the converged states only.
    for (size_t i = 0; i < n; ++i) {
      if (reached[i]) Transfer(in[i], program_.steps[i], report_);
    }
  }

  // ---- backward liveness: V104 -----------------------------------------

  void RunLiveness() {
    size_t n = program_.steps.size();
    if (n == 0) return;
    std::vector<StepIO> io(n);
    std::vector<std::set<std::string>> live_in(n);
    for (size_t i = 0; i < n; ++i) io[i] = ComputeStepIO(program_.steps[i]);
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = n; i-- > 0;) {
        std::set<std::string> out;
        for (size_t s : Successors(i)) {
          out.insert(live_in[s].begin(), live_in[s].end());
        }
        std::set<std::string> li = out;
        for (const std::string& d : io[i].binds) li.erase(d);
        for (const std::string& d : io[i].moves) li.erase(d);
        for (const std::string& d : io[i].removes) li.erase(d);
        for (const std::string& u : io[i].reads) li.insert(u);
        if (li != live_in[i]) {
          live_in[i] = std::move(li);
          changed = true;
        }
      }
    }
    // A loop-body materialization whose output is dead right after the step
    // is work thrown away every iteration.
    for (size_t ci = 0; ci < n; ++ci) {
      const Step& check = program_.steps[ci];
      if (check.kind != Step::Kind::kLoopCheck) continue;
      int body = program_.FindStep(check.jump_to_id);
      if (body < 0) continue;
      for (size_t i = static_cast<size_t>(body); i < ci; ++i) {
        const Step& s = program_.steps[i];
        if (s.kind != Step::Kind::kMaterialize &&
            s.kind != Step::Kind::kComputeDelta) {
          continue;
        }
        std::set<std::string> live_out;
        for (size_t succ : Successors(i)) {
          live_out.insert(live_in[succ].begin(), live_in[succ].end());
        }
        for (const std::string& b : io[i].binds) {
          if (live_out.find(b) == live_out.end()) {
            Add(DefectCode::kV104, s,
                StringPrintf("loop-body %s binds '%s' but no path reads it "
                             "before the value is overwritten or the "
                             "program ends",
                             s.KindName(), b.c_str()));
          }
        }
      }
    }
  }

  const Program& program_;
  const VerifyContext& ctx_;
  VerifyReport* report_;
  bool structurally_broken_ = false;
};

}  // namespace

std::string StepExcerpt(const Step& step) {
  std::string out = StringPrintf("step %d %s", step.id, step.KindName());
  if (!step.source.empty()) out += " source='" + step.source + "'";
  if (!step.target.empty()) out += " target='" + step.target + "'";
  if (step.kind == Step::Kind::kInitLoop ||
      step.kind == Step::Kind::kLoopCheck) {
    out += " " + step.loop.ToString();
  }
  if (!step.comment.empty()) out += "  -- " + step.comment;
  return out;
}

void CheckProgram(const Program& program, const VerifyContext& ctx,
                  VerifyReport* report) {
  ProgramChecker(program, ctx, report).Check();
}

}  // namespace internal
}  // namespace verify
}  // namespace dbspinner
