#include "exec/exec_stats.h"

namespace dbspinner {

void ExecStats::RewindWorkCountersTo(const ExecStats& base) {
#define DBSP_REWIND(name, kind, doc)                       \
  if constexpr (CounterKind::kind == CounterKind::kWork) { \
    this->name = base.name;                                \
  }
  DBSP_EXEC_STATS(DBSP_REWIND)
#undef DBSP_REWIND
}

void ExecStats::Add(const ExecStats& other) {
#define DBSP_ADD(name, kind, doc) name += other.name;
  DBSP_EXEC_STATS(DBSP_ADD)
#undef DBSP_ADD
}

std::string ExecStats::ToString() const {
  std::string out = "ExecStats{";
  const char* sep = "";
#define DBSP_PRINT(name, kind, doc)                                \
  out.append(sep).append(#name "=").append(std::to_string(name)); \
  sep = ", ";
  DBSP_EXEC_STATS(DBSP_PRINT)
#undef DBSP_PRINT
  return out + "}";
}

}  // namespace dbspinner
