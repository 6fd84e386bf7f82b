// Internal interface between the verifier's entry points (verify.cc) and
// the three analyses (plan_checker.cc, program_checker.cc,
// pipeline_checker.cc), plus the type-agreement rules the analyses share.

#pragma once

#include "common/types.h"
#include "storage/schema.h"
#include "verify/verify.h"

namespace dbspinner {

class PhysicalOp;

namespace verify {
namespace internal {

/// Lenient per-column type agreement: exact match, or either side is the
/// kNull wildcard (NULL literals / folded NULL expressions).
inline bool TypeAgrees(TypeId have, TypeId want) {
  return have == want || have == TypeId::kNull || want == TypeId::kNull;
}

/// Exact positional type equality between two schemas (names ignored;
/// rewrites relabel freely).
inline bool SameTypes(const Schema& a, const Schema& b) {
  if (a.num_columns() != b.num_columns()) return false;
  for (size_t i = 0; i < a.num_columns(); ++i) {
    if (a.column(i).type != b.column(i).type) return false;
  }
  return true;
}

/// Structural + type/schema validation of one logical plan tree (V0xx).
void CheckPlan(const LogicalOp& plan, const VerifyContext& ctx, int step_id,
               VerifyReport* report);

/// Step-payload validation and the dataflow abstract interpretation over the
/// whole program (V1xx, plus result-scan V008 checks that need binding
/// state).
void CheckProgram(const Program& program, const VerifyContext& ctx,
                  VerifyReport* report);

/// Physical-plan & fused-pipeline validation (V2xx) of one compiled step.
/// Requires step.physical != nullptr; step.plan (when present) drives the
/// physical↔logical agreement walk.
void CheckPhysicalStep(const Step& step, const VerifyContext& ctx,
                       VerifyReport* report);

/// Physical-plan variant of CheckPhysicalStep for standalone trees (unit
/// tests build broken physical artifacts without a surrounding Step).
void CheckPhysicalPlan(const PhysicalOp& plan, const LogicalOp* logical,
                       const VerifyContext& ctx, int step_id,
                       VerifyReport* report);

/// Truncated single-node physical-plan excerpt for diagnostics.
std::string PhysicalExcerpt(const PhysicalOp& op);

/// Truncated single-node plan excerpt for diagnostics.
std::string PlanExcerpt(const LogicalOp& op);

/// One-line step excerpt ("step 4 kRename 'x' -> 'y'").
std::string StepExcerpt(const Step& step);

}  // namespace internal
}  // namespace verify
}  // namespace dbspinner
