#include "verify/verify.h"

#include <cstdio>

#include "common/string_util.h"
#include "verify/verify_internal.h"

namespace dbspinner {
namespace verify {

namespace {

struct DefectInfo {
  DefectCode code;
  const char* name;
  const char* description;
};

constexpr DefectInfo kDefects[] = {
    {DefectCode::kV001, "V001", "operator has the wrong number of children"},
    {DefectCode::kV002, "V002",
     "output schema inconsistent with children or expressions"},
    {DefectCode::kV003, "V003", "column ordinal out of bounds"},
    {DefectCode::kV004, "V004", "predicate or condition is not boolean"},
    {DefectCode::kV005, "V005",
     "join condition compares incompatible types"},
    {DefectCode::kV006, "V006", "malformed aggregate specification"},
    {DefectCode::kV007, "V007",
     "set-operation child incompatible with output schema"},
    {DefectCode::kV008, "V008",
     "scan schema disagrees with catalog table or bound result"},
    {DefectCode::kV009, "V009", "VALUES row shape or cell type mismatch"},
    {DefectCode::kV010, "V010", "invalid LIMIT or OFFSET constant"},
    {DefectCode::kV011, "V011", "malformed delta-restrict operator"},
    {DefectCode::kV101, "V101",
     "read of a result that is unbound on every path"},
    {DefectCode::kV102, "V102",
     "read of a result after a rename or merge consumed it"},
    {DefectCode::kV103, "V103",
     "result rebound without an intervening read (dead store)"},
    {DefectCode::kV104, "V104",
     "loop-body materialization never consumed before loop exit"},
    {DefectCode::kV105, "V105",
     "loop jump target missing or outside the legal range"},
    {DefectCode::kV106, "V106",
     "statically non-terminating loop: body cannot change the termination "
     "state"},
    {DefectCode::kV107, "V107",
     "pre-loop (hoisted) step reads a result rebound inside the loop body"},
    {DefectCode::kV108, "V108",
     "pushdown-legality fact contradicted by the Ri plan"},
    {DefectCode::kV109, "V109",
     "step aliasing or retry-idempotency model violation"},
    {DefectCode::kV110, "V110", "malformed step payload"},
    {DefectCode::kV111, "V111", "final step misplaced"},
    {DefectCode::kV201, "V201",
     "physical operator has the wrong number of children"},
    {DefectCode::kV202, "V202",
     "physical plan disagrees with the step's logical plan"},
    {DefectCode::kV203, "V203", "pipeline shape violation"},
    {DefectCode::kV204, "V204",
     "chunk schema inconsistency across a fused kernel chain"},
    {DefectCode::kV206, "V206", "unsound fused pre-aggregation"},
    {DefectCode::kV207, "V207",
     "morsel-safety violation: pipeline role disagrees with operator type"},
    {DefectCode::kV208, "V208",
     "physical scan disagrees with the catalog table"},
};

const DefectInfo& InfoFor(DefectCode code) {
  for (const DefectInfo& info : kDefects) {
    if (info.code == code) return info;
  }
  return kDefects[0];  // unreachable for valid codes
}

}  // namespace

const char* DefectCodeName(DefectCode code) { return InfoFor(code).name; }

const char* DefectCodeDescription(DefectCode code) {
  return InfoFor(code).description;
}

const std::vector<DefectCode>& AllDefectCodes() {
  static const std::vector<DefectCode>* codes = [] {
    auto* v = new std::vector<DefectCode>();
    for (const DefectInfo& info : kDefects) v->push_back(info.code);
    return v;
  }();
  return *codes;
}

std::string VerifyDiagnostic::ToString() const {
  std::string out = DefectCodeName(code);
  if (step_id >= 0) {
    out += StringPrintf(" [step %d]", step_id);
  }
  out += " ";
  out += detail;
  if (!excerpt.empty()) {
    out += "\n    | ";
    for (char c : excerpt) {
      out += c;
      if (c == '\n') out += "    | ";
    }
  }
  return out;
}

void VerifyReport::Add(DefectCode code, int step_id, std::string detail,
                       std::string excerpt) {
  VerifyDiagnostic d;
  d.code = code;
  d.step_id = step_id;
  d.detail = std::move(detail);
  d.excerpt = std::move(excerpt);
  // Drop trailing newlines from plan excerpts so rendering stays compact.
  while (!d.excerpt.empty() && d.excerpt.back() == '\n') d.excerpt.pop_back();
  diagnostics.push_back(std::move(d));
}

std::string VerifyReport::ToString() const {
  std::string out = "verify";
  if (!phase.empty()) out += " (" + phase + ")";
  if (diagnostics.empty()) {
    out += ": ok\n";
    return out;
  }
  out += StringPrintf(": %zu diagnostic%s\n", diagnostics.size(),
                      diagnostics.size() == 1 ? "" : "s");
  for (const VerifyDiagnostic& d : diagnostics) {
    out += "  " + d.ToString() + "\n";
  }
  return out;
}

void VerifyPlanInto(const LogicalOp& plan, const VerifyContext& ctx,
                    int step_id, VerifyReport* report) {
  internal::CheckPlan(plan, ctx, step_id, report);
}

VerifyReport VerifyPlan(const LogicalOp& plan, const VerifyContext& ctx) {
  VerifyReport report;
  internal::CheckPlan(plan, ctx, -1, &report);
  return report;
}

VerifyReport VerifyPhysicalPlan(const PhysicalOp& plan,
                                const LogicalOp* logical,
                                const VerifyContext& ctx) {
  VerifyReport report;
  internal::CheckPhysicalPlan(plan, logical, ctx, -1, &report);
  return report;
}

VerifyReport VerifyProgram(const Program& program, const VerifyContext& ctx) {
  VerifyReport report;
  for (const Step& step : program.steps) {
    if (step.plan != nullptr) {
      internal::CheckPlan(*step.plan, ctx, step.id, &report);
    }
    // The physical/pipeline analysis (V2xx) runs on every step that already
    // carries a compiled plan, independent of require_physical — so the
    // pre-compilation stages stay V0xx/V1xx-only and the post-compilation
    // stage (plus EXPLAIN and the fuzz oracle) covers all three IRs.
    if (step.physical != nullptr) {
      internal::CheckPhysicalStep(step, ctx, &report);
    }
  }
  internal::CheckProgram(program, ctx, &report);
  return report;
}

Status EnforceOrCount(const VerifyReport& report, bool enforce,
                      int64_t* counter) {
  if (report.ok()) return Status::OK();
  if (counter != nullptr) {
    *counter += static_cast<int64_t>(report.diagnostics.size());
  }
  if (enforce) {
    return Status::Internal("plan verifier failed: " + report.ToString());
  }
  std::fputs(("dbspinner: " + report.ToString()).c_str(), stderr);
  return Status::OK();
}

}  // namespace verify
}  // namespace dbspinner
