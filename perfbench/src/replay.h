// Outside-in tracing. A traced op replays the path Database::Execute takes
// for a SELECT through the engine's public calls (parse, build, verify,
// optimize rule by rule, compile, run with profiling) and records a span
// around each call. Procedure statements other than SELECT are timed around
// Database::Execute. No engine code is instrumented.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "mpp/thread_pool.h"
#include "workloads.h"

namespace perfbench {

/// Monotonic wall clock, in nanoseconds.
int64_t NowNs();
/// Process user + system CPU time, all threads, in milliseconds.
double CpuMs();

/// One traced interval. `name` is the layer ("parser", "optimizer", ...)
/// and `detail` an optional qualifier (the optimizer rule, the DML kind);
/// both point at string literals, so recording a span never allocates.
/// Spans of one op share `op`; `parent` is the index of the enclosing span,
/// -1 for the op's root span.
struct Span {
  const char* name = "";
  const char* detail = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int op = 0;
  int round = 0;

  /// "optimizer.common_result", "parser", ...
  std::string FullName() const;
  double Us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// In-memory span store, written out once the run ends.
class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }

  /// Sets the op and round stamped on the spans that follow.
  void SetContext(int op, int round) {
    op_ = op;
    round_ = round;
  }
  /// Opens a span starting now; close it with End.
  int Begin(const char* name, int parent, const char* detail = nullptr);
  void End(int span);
  /// Records an already finished span.
  int Add(const char* name, const char* detail, int64_t start_ns,
          int64_t end_ns, int parent);

  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(int i) const { return spans_[static_cast<size_t>(i)]; }

  /// Share of the root span `root` covered by the self time of its
  /// descendants (their union, as spans nest).
  double Coverage(int root) const;

 private:
  std::vector<Span> spans_;
  int op_ = 0;
  int round_ = 0;
};

/// Per-layer values of one traced round, keyed by metric name. Names that
/// start with '_' are inputs to derived metrics.
using Counters = std::map<std::string, double>;

/// How a traced op executes: the options and worker pool the replay hands
/// to the executor.
struct ReplayConfig {
  dbspinner::EngineOptions options;
  dbspinner::ThreadPool* pool = nullptr;  ///< null when serial
};

/// Result of one traced op.
struct TracedOp {
  dbspinner::TablePtr table;  ///< the op's output (its last SELECT's)
  int root_span = -1;
  double ms = 0;  ///< wall time of the root span
};

/// Runs `op` once with tracing and adds its per-layer values to `counters`
/// once the op has ended. Fails on the first statement that errors.
dbspinner::Result<TracedOp> RunTraced(dbspinner::Database* db, const Op& op,
                                      const ReplayConfig& config,
                                      Tracer* tracer, Counters* counters);

/// Result of one op run through Database::Execute, untraced.
struct UntracedOp {
  dbspinner::TablePtr table;
  double ms = 0;
  /// Wall and process CPU time of each statement, in order.
  std::vector<double> statement_ms;
  std::vector<double> statement_cpu_ms;
};

dbspinner::Result<UntracedOp> RunUntraced(dbspinner::Database* db,
                                          const Op& op);

}  // namespace perfbench
