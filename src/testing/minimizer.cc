#include "testing/minimizer.h"

#include <functional>
#include <vector>

#include "common/string_util.h"

namespace dbspinner {
namespace fuzz {

namespace {

using Mutation = std::function<bool(FuzzCase*)>;  // false = not applicable

// The shrink moves, roughly ordered most-aggressive first so the minimizer
// converges in few differential runs. Each returns false when it would not
// change the case (already minimal in that dimension).
std::vector<Mutation> ShrinkMoves() {
  std::vector<Mutation> moves;
  auto add = [&moves](Mutation m) { moves.push_back(std::move(m)); };

  // Graph shrinks dominate runtime, so try them first.
  add([](FuzzCase* c) {
    if (c->graph.num_nodes <= 2) return false;
    c->graph.num_nodes /= 2;
    if (c->graph.num_nodes < 2) c->graph.num_nodes = 2;
    if (c->graph.kind == graph::GraphKind::kGrid) {
      // Grid graphs want a perfect square.
      int64_t side = 1;
      while ((side + 1) * (side + 1) <= c->graph.num_nodes) ++side;
      c->graph.num_nodes = side * side;
    }
    return true;
  });
  add([](FuzzCase* c) {
    if (c->graph.num_edges <= c->graph.num_nodes) return false;
    c->graph.num_edges /= 2;
    if (c->graph.num_edges < c->graph.num_nodes) {
      c->graph.num_edges = c->graph.num_nodes;
    }
    return true;
  });
  add([](FuzzCase* c) {
    if (c->query.iterations <= 0) return false;
    c->query.iterations /= 2;
    return true;
  });
  add([](FuzzCase* c) {
    if (c->query.iterations <= 0) return false;
    --c->query.iterations;
    return true;
  });
  add([](FuzzCase* c) {
    if (c->query.until == UntilKind::kIterations) return false;
    c->query.until = UntilKind::kIterations;
    if (c->query.iterations > 6) c->query.iterations = 3;
    return true;
  });

  auto clear_flag = [&add](bool QuerySpec::*flag) {
    add([flag](FuzzCase* c) {
      if (!(c->query.*flag)) return false;
      c->query.*flag = false;
      return true;
    });
  };
  clear_flag(&QuerySpec::use_union);
  clear_flag(&QuerySpec::use_having);
  clear_flag(&QuerySpec::use_group_by);
  clear_flag(&QuerySpec::use_order_limit);
  clear_flag(&QuerySpec::use_case);
  clear_flag(&QuerySpec::use_where);
  clear_flag(&QuerySpec::left_join);
  clear_flag(&QuerySpec::join_vertexstatus);
  clear_flag(&QuerySpec::qf_filter);
  clear_flag(&QuerySpec::qf_aggregate);
  clear_flag(&QuerySpec::vs_join);

  add([](FuzzCase* c) {
    if (c->query.depth_bound <= 1) return false;
    c->query.depth_bound /= 2;
    if (c->query.depth_bound < 1) c->query.depth_bound = 1;
    return true;
  });
  add([](FuzzCase* c) {
    if (c->query.order_desc == 0) return false;
    c->query.order_desc = 0;
    return true;
  });
  add([](FuzzCase* c) {
    if (c->query.limit <= 1) return false;
    c->query.limit = 1;
    return true;
  });
  add([](FuzzCase* c) {
    if (c->query.filter_mod <= 2) return false;
    c->query.filter_mod = 2;
    return true;
  });
  add([](FuzzCase* c) {
    if (c->query.start_node <= 1 && c->query.source_node <= 1 &&
        c->query.target_node <= 1) {
      return false;
    }
    c->query.start_node = 1;
    c->query.source_node = 1;
    c->query.target_node = 1;
    return true;
  });
  // Try the trivial expression stream last: it rewrites every generated
  // expression, which often changes the bug but sometimes simplifies it.
  add([](FuzzCase* c) {
    if (c->query.expr_seed == 1) return false;
    c->query.expr_seed = 1;
    return true;
  });
  return moves;
}

}  // namespace

MinimizeResult Minimize(const FuzzCase& failing,
                        const DifferentialOptions& opts) {
  MinimizeResult result;
  result.minimized = failing;
  result.report = RunDifferential(failing, opts);

  const std::vector<Mutation> moves = ShrinkMoves();
  bool progressed = true;
  // Fixpoint: retry the whole move list until no move shrinks further.
  while (progressed && result.candidates_tried < 400) {
    progressed = false;
    for (const Mutation& move : moves) {
      FuzzCase candidate = result.minimized;
      if (!move(&candidate)) continue;
      ++result.candidates_tried;
      DiffReport r = RunDifferential(candidate, opts);
      if (!r.ok) {
        result.minimized = candidate;
        result.report = std::move(r);
        ++result.shrinks_applied;
        progressed = true;
      }
    }
  }
  return result;
}

namespace {

const char* GraphKindName(graph::GraphKind kind) {
  switch (kind) {
    case graph::GraphKind::kPreferentialAttachment:
      return "kPreferentialAttachment";
    case graph::GraphKind::kUniform:
      return "kUniform";
    case graph::GraphKind::kGrid:
      return "kGrid";
  }
  return "kUniform";
}

const char* FamilyEnumName(QueryFamily family) {
  switch (family) {
    case QueryFamily::kScalarSelect:    return "kScalarSelect";
    case QueryFamily::kIterativeChain:  return "kIterativeChain";
    case QueryFamily::kIterativeJoin:   return "kIterativeJoin";
    case QueryFamily::kIterativeMerge:  return "kIterativeMerge";
    case QueryFamily::kRecursive:       return "kRecursive";
    case QueryFamily::kCanonicalPR:     return "kCanonicalPR";
    case QueryFamily::kCanonicalSSSP:   return "kCanonicalSSSP";
    case QueryFamily::kCanonicalFF:     return "kCanonicalFF";
  }
  return "kScalarSelect";
}

const char* UntilEnumName(UntilKind until) {
  switch (until) {
    case UntilKind::kIterations: return "kIterations";
    case UntilKind::kUpdates:    return "kUpdates";
    case UntilKind::kDeltaLess:  return "kDeltaLess";
  }
  return "kIterations";
}

void EmitBool(std::string* out, const char* field, bool value) {
  if (value) {
    *out += StringPrintf("  c.query.%s = true;\n", field);
  }
}

}  // namespace

std::string EmitGtestRepro(const FuzzCase& c, const DiffReport& report) {
  std::string out;
  out += "// Minimized repro generated by fuzz_sql.\n";
  out += "// Failure: " + report.failure + "\n";
  out += "// SQL under test:\n";
  for (const std::string& line : Split(report.sql, '\n')) {
    out += "//   " + line + "\n";
  }
  out += StringPrintf(
      "TEST(FuzzRegression, Case%llu) {\n"
      "  using namespace dbspinner;\n"
      "  fuzz::FuzzCase c;\n",
      static_cast<unsigned long long>(c.case_seed));
  out += StringPrintf("  c.graph.kind = graph::GraphKind::%s;\n",
                      GraphKindName(c.graph.kind));
  out += StringPrintf("  c.graph.num_nodes = %lld;\n",
                      static_cast<long long>(c.graph.num_nodes));
  out += StringPrintf("  c.graph.num_edges = %lld;\n",
                      static_cast<long long>(c.graph.num_edges));
  out += StringPrintf("  c.graph.seed = %lluULL;\n",
                      static_cast<unsigned long long>(c.graph.seed));
  out += StringPrintf("  c.status_fraction = %.2f;\n", c.status_fraction);
  out += StringPrintf("  c.status_seed = %lluULL;\n",
                      static_cast<unsigned long long>(c.status_seed));
  out += StringPrintf("  c.query.family = fuzz::QueryFamily::%s;\n",
                      FamilyEnumName(c.query.family));
  out += StringPrintf("  c.query.expr_seed = %lluULL;\n",
                      static_cast<unsigned long long>(c.query.expr_seed));
  out += StringPrintf("  c.query.iterations = %d;\n", c.query.iterations);
  out += StringPrintf("  c.query.until = fuzz::UntilKind::%s;\n",
                      UntilEnumName(c.query.until));
  EmitBool(&out, "join_vertexstatus", c.query.join_vertexstatus);
  EmitBool(&out, "left_join", c.query.left_join);
  EmitBool(&out, "use_where", c.query.use_where);
  EmitBool(&out, "use_group_by", c.query.use_group_by);
  EmitBool(&out, "use_having", c.query.use_having);
  EmitBool(&out, "use_union", c.query.use_union);
  EmitBool(&out, "union_all", c.query.union_all);
  EmitBool(&out, "use_case", c.query.use_case);
  EmitBool(&out, "use_order_limit", c.query.use_order_limit);
  EmitBool(&out, "vs_join", c.query.vs_join);
  EmitBool(&out, "qf_filter", c.query.qf_filter);
  EmitBool(&out, "qf_aggregate", c.query.qf_aggregate);
  out += StringPrintf("  c.query.order_desc = %uu;\n", c.query.order_desc);
  out += StringPrintf("  c.query.limit = %d;\n", c.query.limit);
  out += StringPrintf("  c.query.filter_mod = %lld;\n",
                      static_cast<long long>(c.query.filter_mod));
  if (!c.query.union_distinct) out += "  c.query.union_distinct = false;\n";
  out += StringPrintf("  c.query.depth_bound = %lld;\n",
                      static_cast<long long>(c.query.depth_bound));
  out += StringPrintf("  c.query.start_node = %lld;\n",
                      static_cast<long long>(c.query.start_node));
  out += StringPrintf("  c.query.source_node = %lld;\n",
                      static_cast<long long>(c.query.source_node));
  out += StringPrintf("  c.query.target_node = %lld;\n",
                      static_cast<long long>(c.query.target_node));
  out +=
      "  fuzz::DiffReport report = fuzz::RunDifferential(c);\n"
      "  EXPECT_TRUE(report.ok) << report.Describe(c);\n"
      "}\n";
  return out;
}

}  // namespace fuzz
}  // namespace dbspinner
