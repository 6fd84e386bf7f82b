// Static plan & program verifier (DESIGN.md §9).
//
// Compiler-style IR validation for the two intermediate representations the
// engine rewrites: the LogicalPlan trees inside each step and the linear
// Program produced by the functional rewrite. The optimizer applies a chain
// of semantically delicate transformations (Algorithm 1 expansion, Fig 9
// common-result hoisting, Fig 10 predicate pushdown, delta iteration); the
// verifier re-checks the invariants those rewrites must preserve after every
// pass, so an illegal rewrite fails at plan time with a stable defect code
// instead of diverging (or silently corrupting a fixpoint) at run time.
//
// Three analyses:
//   1. Plan checker  (plan_checker.cc): structural + type/schema validation
//      of every LogicalOp node — arity, output-schema consistency with
//      children, column-ordinal bounds, predicate typing, join key type
//      compatibility, aggregate/set-op/values well-formedness.
//   2. Program checker (program_checker.cc): an abstract interpretation of
//      the step list over registry-name states (unbound/bound/moved) with
//      the loop back-edges in the control-flow graph — definite binding
//      before use, use-after-rename, dead stores, dead loop-body
//      materializations (backward liveness), jump-target validity,
//      statically non-terminating loops, loop-invariant hoist soundness,
//      re-derivation of the Fig 10 pushdown legality fact, and the
//      fault-tolerance idempotency classification cross-check.
//   3. Pipeline checker (pipeline_checker.cc): physical-plan and fused-
//      pipeline validation of every compiled Step::physical tree (V2xx),
//      run once physical plans exist ("after-compile", EXPLAIN (VERIFY),
//      and the fuzz verify-oracle) — operator arity, physical↔logical
//      schema agreement per operator, pipeline well-formedness (leaf
//      sources, streaming-role interior, breaker-or-sink terminal), chunk
//      schema/type consistency across fused kernel chains, fused
//      pre-aggregation soundness (commutative partial merge per
//      GroupedAggregator::MergeFrom, deferred DISTINCT only where legal),
//      and morsel-safety (pipeline-role / operator-type agreement, so fused
//      stages hold no cross-morsel mutable state outside each worker
//      slot's own ExecStats).
//
// A fourth, compile-time analysis lives outside this directory: the clang
// thread-safety annotations (common/thread_annotations.h, DESIGN.md §13)
// that turn the engine's lock-ordering discipline into -Werror=thread-safety
// build failures.
//
// Diagnostics never throw and never mutate the plan; callers decide whether
// a non-empty report is fatal (EngineOptions::verify.enforce) or is logged
// and counted in ExecStats::verify_violations.

#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "engine/options.h"
#include "plan/program.h"
#include "storage/catalog.h"

namespace dbspinner {

class PhysicalOp;

namespace verify {

/// Stable defect codes. V0xx: logical-plan defects; V1xx: program-dataflow
/// defects; V2xx: physical-plan / fused-pipeline defects. Codes are
/// append-only: tests and suppression comments reference them by name.
enum class DefectCode {
  kV001,  ///< operator arity: wrong child count for the node kind
  kV002,  ///< output schema inconsistent with children / expressions
  kV003,  ///< column ordinal out of bounds for the input relation
  kV004,  ///< predicate / condition is not boolean-typed
  kV005,  ///< comparison between incompatible types in a join condition
  kV006,  ///< malformed aggregate spec (argument arity / result type)
  kV007,  ///< set-operation children incompatible with the output schema
  kV008,  ///< scan schema disagrees with the catalog table / bound result
  kV009,  ///< VALUES row shape or cell type mismatch
  kV010,  ///< invalid LIMIT / OFFSET constant
  kV011,  ///< malformed delta-restrict (empty source result name)
  kV101,  ///< read of a result name that is unbound on every path
  kV102,  ///< read of a result after a rename / merge consumed it
  kV103,  ///< rebinding a result that was never read since its last bind
  kV104,  ///< loop-body materialization never consumed before loop exit
  kV105,  ///< loop jump target missing or outside the legal range
  kV106,  ///< statically non-terminating loop (body cannot change the
          ///< termination state)
  kV107,  ///< pre-loop (hoisted) step reads a result rebound in the body
  kV108,  ///< pushdown-legality fact contradicted by the actual Ri plan
  kV109,  ///< step aliasing / retry-idempotency model violation
  kV110,  ///< malformed step payload (plan/physical/name fields, ids)
  kV111,  ///< final step misplaced (not unique or not last)
  kV201,  ///< physical operator arity: wrong child count for the node kind
  kV202,  ///< physical plan disagrees with the step's logical plan
          ///< (operator mapping or per-node output schema)
  kV203,  ///< pipeline shape violation (source is not a leaf, or a
          ///< streaming stage has no upstream input to stream from)
  kV204,  ///< chunk schema/type inconsistency across a fused kernel chain
  kV206,  ///< unsound fused pre-aggregation (unknown merge kind, illegal
          ///< DISTINCT deferral, or malformed aggregate inputs)
  kV207,  ///< morsel-safety violation: pipeline role disagrees with the
          ///< operator type the chunk kernels compile against
  kV208,  ///< physical scan disagrees with the catalog table
};

/// "V001", "V108", ...
const char* DefectCodeName(DefectCode code);

/// One-line invariant description, e.g. "column ordinal out of bounds".
const char* DefectCodeDescription(DefectCode code);

/// All defect codes in order (the DESIGN.md §9 defect table; tests iterate
/// this to assert one firing case per code exists).
const std::vector<DefectCode>& AllDefectCodes();

/// One verifier finding.
struct VerifyDiagnostic {
  DefectCode code;
  int step_id = -1;     ///< offending step id; -1 when not tied to a step
  std::string detail;   ///< human-readable specifics
  std::string excerpt;  ///< plan-printer excerpt of the offending node/step

  /// "V003 [step 4] column ordinal 7 out of bounds (input has 3 columns)".
  std::string ToString() const;
};

/// Outcome of one verification pass.
struct VerifyReport {
  /// Which pipeline stage produced this report ("after-binding",
  /// "after-constant_folding", "after-compile", ...).
  std::string phase;
  std::vector<VerifyDiagnostic> diagnostics;

  bool ok() const { return diagnostics.empty(); }
  void Add(DefectCode code, int step_id, std::string detail,
           std::string excerpt = "");

  /// Multi-line rendering (phase header + one line per diagnostic), used by
  /// EXPLAIN (VERIFY) and error messages.
  std::string ToString() const;
};

/// Verification inputs beyond the IR itself.
struct VerifyContext {
  /// Enables catalog-scan schema checks (V008, V208) when set.
  const Catalog* catalog = nullptr;
  /// Post-compilation mode: every Materialize/Final step must carry a
  /// physical plan (V110).
  bool require_physical = false;
  /// Engine options the plan runs under. No check reads them: every V2xx
  /// check is structural and runs on each step that carries a physical
  /// plan.
  const EngineOptions* options = nullptr;
};

/// Checks one logical plan tree, appending diagnostics to `report`.
/// `step_id` labels the diagnostics (-1 for standalone plans).
void VerifyPlanInto(const LogicalOp& plan, const VerifyContext& ctx,
                    int step_id, VerifyReport* report);

/// Convenience wrapper for standalone plans (the UPDATE ... FROM path and
/// unit tests).
VerifyReport VerifyPlan(const LogicalOp& plan, const VerifyContext& ctx = {});

/// Checks one compiled physical tree (V2xx) outside a program (unit tests,
/// standalone artifacts). `logical` (optional) additionally runs the
/// physical↔logical agreement walk (V202) against the tree it was compiled
/// from.
VerifyReport VerifyPhysicalPlan(const PhysicalOp& plan,
                                const LogicalOp* logical = nullptr,
                                const VerifyContext& ctx = {});

/// Checks a whole program: step payloads, every step plan, every compiled
/// step physical plan, and the dataflow abstract interpretation.
VerifyReport VerifyProgram(const Program& program,
                           const VerifyContext& ctx = {});

/// Escape-hatch policy shared by the Database pipeline hooks: an empty
/// report returns OK; otherwise the diagnostic count is added to `*counter`
/// and, when `enforce` is set, the report becomes a kInternal status (a
/// verifier finding is an engine bug by definition). With `enforce` off the
/// report is written to stderr and execution continues.
Status EnforceOrCount(const VerifyReport& report, bool enforce,
                      int64_t* counter);

}  // namespace verify
}  // namespace dbspinner
