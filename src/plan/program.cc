#include "plan/program.h"

#include "common/string_util.h"
#include "exec/physical_plan.h"

namespace dbspinner {

LoopSpec LoopSpec::Clone() const {
  LoopSpec s;
  s.kind = kind;
  s.n = n;
  if (expr) s.expr = expr->Clone();
  s.cte_name = cte_name;
  s.watch_name = watch_name;
  s.key_col = key_col;
  return s;
}

const char* LoopSpec::TypeName() const {
  switch (kind) {
    case Kind::kIterations:
    case Kind::kUpdates:
      return "metadata";
    case Kind::kAny:
    case Kind::kAll:
      return "data";
    case Kind::kDeltaLess:
      return "delta";
    case Kind::kWhileResultNonEmpty:
      return "recursive";
  }
  return "?";
}

std::string LoopSpec::ToString() const {
  std::string out = "<<Type:";
  out += TypeName();
  switch (kind) {
    case Kind::kIterations:
      out += ", N:" + std::to_string(n) + " iterations, Expr:NONE";
      break;
    case Kind::kUpdates:
      out += ", N:" + std::to_string(n) + " updates, Expr:NONE";
      break;
    case Kind::kAny:
      out += ", N:ANY, Expr:" + expr->ToString();
      break;
    case Kind::kAll:
      out += ", N:ALL, Expr:" + expr->ToString();
      break;
    case Kind::kDeltaLess:
      out += ", N:delta < " + std::to_string(n) + ", Expr:NONE";
      break;
    case Kind::kWhileResultNonEmpty:
      out += ", while '" + watch_name + "' non-empty";
      break;
  }
  out += ">>";
  return out;
}

// Out-of-line so PhysicalOpPtr's deleter sees the complete type.
Step::Step() = default;
Step::~Step() = default;
Step::Step(Step&&) noexcept = default;
Step& Step::operator=(Step&&) noexcept = default;

const char* Step::KindName() const {
  switch (kind) {
    case Kind::kMaterialize: return "Materialize";
    case Kind::kRename: return "Rename";
    case Kind::kMergeUpdate: return "MergeUpdate";
    case Kind::kRemoveResult: return "RemoveResult";
    case Kind::kInitLoop: return "InitLoop";
    case Kind::kLoopCheck: return "LoopCheck";
    case Kind::kComputeDelta: return "ComputeDelta";
    case Kind::kFinal: return "Final";
  }
  return "?";
}

int Program::FindStep(int id) const {
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].id == id) return static_cast<int>(i);
  }
  return -1;
}

void Program::InsertBefore(int before_id, Step step) {
  int idx = FindStep(before_id);
  if (idx < 0) {
    steps.push_back(std::move(step));
    return;
  }
  steps.insert(steps.begin() + idx, std::move(step));
}

}  // namespace dbspinner
