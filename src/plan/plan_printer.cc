#include "plan/plan_printer.h"

#include <map>

#include "common/string_util.h"

namespace dbspinner {

std::string ExplainProgramWithProfile(
    const Program& program, const std::map<int, StepProfile>& profile,
    bool verbose) {
  // Render the plain program, then splice per-step annotations onto the
  // "Step N:" lines. Simpler: render line-by-line ourselves.
  std::string base = ExplainProgram(program, verbose);
  std::string out;
  size_t step_index = 0;
  size_t start = 0;
  while (start <= base.size()) {
    size_t end = base.find('\n', start);
    if (end == std::string::npos) end = base.size();
    std::string line = base.substr(start, end - start);
    if (line.rfind("Step ", 0) == 0 && step_index < program.steps.size()) {
      const Step& s = program.steps[step_index++];
      auto it = profile.find(s.id);
      if (it != profile.end()) {
        const StepProfile& p = it->second;
        line += StringPrintf("  (actual: %lldx, %.3f ms total",
                             static_cast<long long>(p.executions),
                             p.total_ms);
        if (p.last_rows >= 0) {
          line += StringPrintf(", %lld rows last",
                               static_cast<long long>(p.last_rows));
        }
        line += ")";
      } else {
        line += "  (never executed)";
      }
    }
    out += line;
    out += "\n";
    if (end == base.size()) break;
    start = end + 1;
  }
  return out;
}

std::string ExplainProgram(const Program& program, bool verbose) {
  // Display step numbers are 1-based positions; jump targets resolve ids.
  std::map<int, size_t> id_to_pos;
  for (size_t i = 0; i < program.steps.size(); ++i) {
    id_to_pos[program.steps[i].id] = i + 1;
  }

  std::string out;
  for (size_t i = 0; i < program.steps.size(); ++i) {
    const Step& s = program.steps[i];
    out += "Step " + std::to_string(i + 1) + ": ";
    switch (s.kind) {
      case Step::Kind::kMaterialize:
        out += "Materialize '" + s.target + "'";
        break;
      case Step::Kind::kRename:
        out += "Rename '" + s.source + "' to '" + s.target + "'";
        break;
      case Step::Kind::kMergeUpdate:
        out += "Merge '" + s.source + "' into '" + s.target + "' by key #" +
               std::to_string(s.key_col);
        break;
      case Step::Kind::kRemoveResult:
        out += "Remove '" + s.target + "'";
        break;
      case Step::Kind::kInitLoop:
        out += "Initialize loop " + s.loop.ToString();
        break;
      case Step::Kind::kLoopCheck: {
        size_t target = id_to_pos.count(s.jump_to_id)
                            ? id_to_pos[s.jump_to_id]
                            : 0;
        out += "Update loop; go to step " + std::to_string(target) +
               " if continue";
        break;
      }
      case Step::Kind::kComputeDelta:
        out += "ComputeDelta '" + s.target + "' from '" + s.source +
               "' by key #" + std::to_string(s.key_col);
        break;
      case Step::Kind::kFinal:
        out += "Final query";
        break;
    }
    if (!s.comment.empty()) out += "  -- " + s.comment;
    out += "\n";
    if (verbose && s.plan) out += s.plan->ToString(1);
  }
  return out;
}

}  // namespace dbspinner
