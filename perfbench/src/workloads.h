// The benchmark's workloads: which graph each loads, with which engine
// options, and which ops one round runs, each with its answer gate.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "answers.h"
#include "common/status.h"
#include "engine/database.h"
#include "graph/generator.h"

namespace perfbench {

/// Iterations of every iterative CTE and procedure loop.
constexpr int kIterations = 25;

/// One op: a single SELECT (ad hoc or an iterative CTE), or a stored
/// procedure run one statement at a time through Database::Execute, exactly
/// as Procedure::Run does. The procedure's statements are listed here
/// because Procedure does not expose them and returns the result of its
/// last statement (a DROP), which leaves its final SELECT unchecked.
struct Op {
  std::string name;  ///< unique within the workload, e.g. "pr_vs"
  bool procedure = false;
  /// The statements in execution order, loops expanded; one for a SELECT.
  std::vector<std::string> statements;

  Checker check;  ///< answer gate against the reference
};

struct Workload {
  std::string name;
  std::string op_prefix;    ///< prefix of per-op metric names ("cte", ...)
  std::string graph_label;  ///< "dblp/64", "pokec/768", "ops-20k-100k"
  dbspinner::graph::GraphSpec spec;
  uint64_t status_seed = 7;
  dbspinner::EngineOptions options;  ///< default apart from the width
};

/// The workload `name` with graph and vertexstatus seeds derived from the
/// workload seed (seed 0 gives DBLP 42, Pokec 43, operators 21, status 7).
dbspinner::Result<Workload> MakeWorkload(const std::string& name,
                                         int64_t seed);

/// A freshly generated graph loaded into a fresh Database.
struct Loaded {
  dbspinner::graph::EdgeList graph;
  std::unique_ptr<dbspinner::Database> db;
};

/// The set-up that `setup_s` times: generate the graph and load it.
dbspinner::Status Load(const Workload& workload, Loaded* out);

/// The ops of one round, with answer gates computed from the generated
/// graph (reference algorithms, or direct evaluation of the ad-hoc
/// statements over the edge list).
dbspinner::Result<std::vector<Op>> MakeOps(const Workload& workload,
                                           const Loaded& loaded);

}  // namespace perfbench
