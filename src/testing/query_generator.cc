#include "testing/query_generator.h"

#include <cmath>

#include "common/string_util.h"
#include "engine/workloads.h"
#include "graph/reference_algorithms.h"
#include "parser/parser.h"
#include "testing/fuzz_rng.h"

namespace dbspinner {
namespace fuzz {

namespace {

// ---------------------------------------------------------------------------
// Random scalar expressions. Everything here is chosen to keep the
// differential oracles sound:
//   - no division (divide-by-zero produces engine errors that would drown
//     the signal) and no unbounded products (int64 overflow is UB);
//   - when `integer_only`, no DOUBLE column/constant appears, so ORDER BY +
//     LIMIT cuts are tie-exact across plans (double sums may reorder under
//     MPP and flip ties at the cut).
// ---------------------------------------------------------------------------

struct ExprGen {
  FuzzRng* rng;
  std::vector<std::string> int_cols;   ///< BIGINT column references
  std::vector<std::string> num_cols;   ///< DOUBLE column references
  bool integer_only = false;
  bool allow_case = false;

  std::string IntConst() {
    return std::to_string(rng->Range(-9, 9));
  }

  std::string NumConst() {
    // Two-decimal constants render identically everywhere.
    return StringPrintf("%.2f", 0.05 * static_cast<double>(rng->Range(1, 60)));
  }

  std::string Cmp() {
    static const std::vector<std::string> kOps = {"<", "<=", ">", ">=",
                                                  "=",  "!="};
    return rng->Pick(kOps);
  }

  std::string Predicate(int depth) {
    if (depth > 0 && rng->Chance(35)) {
      const char* conj = rng->Chance(50) ? " AND " : " OR ";
      return "(" + Predicate(depth - 1) + conj + Predicate(depth - 1) + ")";
    }
    return Expr(0) + " " + Cmp() + " " + Expr(0);
  }

  std::string Expr(int depth) {
    int roll = static_cast<int>(rng->Range(0, 99));
    if (depth > 0 && roll < 30) {
      static const std::vector<std::string> kOps = {" + ", " - ", " * "};
      return "(" + Expr(depth - 1) + rng->Pick(kOps) + Expr(depth - 1) + ")";
    }
    if (depth > 0 && roll < 40) {
      return "ABS(" + Expr(depth - 1) + ")";
    }
    if (depth > 0 && roll < 48) {
      const char* fn = rng->Chance(50) ? "LEAST" : "GREATEST";
      return std::string(fn) + "(" + Expr(depth - 1) + ", " + Expr(depth - 1) +
             ")";
    }
    if (depth > 0 && roll < 55) {
      return "MOD(ABS(" + Expr(depth - 1) + "), " +
             std::to_string(rng->Range(2, 7)) + ")";
    }
    if (depth > 0 && allow_case && roll < 65) {
      return "CASE WHEN " + Predicate(0) + " THEN " + Expr(depth - 1) +
             " ELSE " + Expr(depth - 1) + " END";
    }
    if (roll < 80 || (int_cols.empty() && num_cols.empty())) {
      if (!integer_only && rng->Chance(25)) return NumConst();
      return IntConst();
    }
    if (!integer_only && !num_cols.empty() && rng->Chance(30)) {
      return rng->Pick(num_cols);
    }
    return int_cols.empty() ? IntConst() : rng->Pick(int_cols);
  }
};

// Picks an alias the parser will accept as a bare identifier.
std::string SafeAlias(FuzzRng* rng, int ordinal) {
  static const std::vector<std::string> kNames = {
      "c", "col", "x", "val", "out", "result"};
  std::string name = rng->Pick(kNames) + std::to_string(ordinal);
  // The generator never invents reserved words, but guard anyway: the
  // parser hook is the source of truth for what is legal.
  if (IsReservedKeyword(name)) name = "q_" + name;
  return name;
}

// ---------------------------------------------------------------------------
// Family renderers
// ---------------------------------------------------------------------------

std::string RenderScalarSelect(const QuerySpec& spec) {
  FuzzRng rng(spec.expr_seed);
  ExprGen gen;
  gen.rng = &rng;
  gen.integer_only = spec.use_order_limit;
  gen.allow_case = spec.use_case;
  gen.int_cols = {"e.src", "e.dst"};
  gen.num_cols = {"e.weight"};
  if (spec.join_vertexstatus) {
    gen.int_cols.push_back("vs.status");
  }
  if (spec.left_join) {
    gen.int_cols.push_back("e2.dst");
  }

  std::string from = "FROM edges AS e";
  if (spec.join_vertexstatus) {
    from += "\n  JOIN vertexstatus AS vs ON vs.node = e.dst";
  }
  if (spec.left_join) {
    from += "\n  LEFT JOIN edges AS e2 ON e.dst = e2.src";
  }

  std::string select;
  size_t num_cols;
  if (spec.use_group_by) {
    // Group by plain column refs; project the keys plus aggregates.
    std::vector<std::string> keys = {"e.src"};
    if (rng.Chance(40)) keys.push_back("e.dst");
    std::vector<std::string> items;
    for (size_t i = 0; i < keys.size(); ++i) {
      items.push_back(keys[i] + " AS " + SafeAlias(&rng, static_cast<int>(i)));
    }
    items.push_back("COUNT(*) AS cnt");
    if (!spec.use_order_limit && rng.Chance(60)) {
      static const std::vector<std::string> kAggs = {"SUM", "MIN", "MAX",
                                                     "AVG"};
      items.push_back(rng.Pick(kAggs) + "(" + gen.Expr(1) + ") AS agg0");
    }
    select = "SELECT ";
    for (size_t i = 0; i < items.size(); ++i) {
      if (i) select += ", ";
      select += items[i];
    }
    select += "\n" + from;
    if (spec.use_where) select += "\nWHERE " + gen.Predicate(1);
    select += "\nGROUP BY ";
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i) select += ", ";
      select += keys[i];
    }
    if (spec.use_having) {
      select += "\nHAVING COUNT(*) " + gen.Cmp() + " " +
                std::to_string(rng.Range(0, 4));
    }
    num_cols = items.size();
  } else {
    size_t width = static_cast<size_t>(rng.Range(1, 3));
    select = "SELECT ";
    for (size_t i = 0; i < width; ++i) {
      if (i) select += ", ";
      select += gen.Expr(2) + " AS " + SafeAlias(&rng, static_cast<int>(i));
    }
    select += "\n" + from;
    if (spec.use_where) select += "\nWHERE " + gen.Predicate(1);
    num_cols = width;
  }

  std::string sql = select;
  if (spec.use_union) {
    // Second arm over bare edges with a matching column count.
    ExprGen arm_gen;
    arm_gen.rng = &rng;
    arm_gen.integer_only = gen.integer_only;
    arm_gen.allow_case = gen.allow_case;
    arm_gen.int_cols = {"src", "dst"};
    arm_gen.num_cols = {"weight"};
    std::string arm = "SELECT ";
    for (size_t i = 0; i < num_cols; ++i) {
      if (i) arm += ", ";
      arm += arm_gen.Expr(1);
    }
    arm += " FROM edges";
    sql += spec.union_all ? "\nUNION ALL\n" : "\nUNION\n";
    sql += arm;
  }
  if (spec.use_order_limit) {
    sql += RenderOrderBy(TopLevelOrder(spec, num_cols));
    sql += "\nLIMIT " + std::to_string(spec.limit);
  }
  if (spec.left_join && rng.Chance(50)) {
    // A non-equi ON conjunct: a residual that alone reads e2.weight. Drawn
    // last, so the rest of a seed's query renders as it did without it.
    const std::string on = "ON e.dst = e2.src";
    sql.insert(sql.find(on) + on.size(),
               " AND e2.weight < 0." + std::to_string(rng.Range(1, 9)));
  }
  return sql;
}

// Constants derived deterministically from the expr seed for the iterative
// families. Shared between RenderQuery and RenderProcedure so the two
// lowerings execute the same arithmetic.
struct ChainParams {
  double factor;     ///< per-iteration growth
  double cap;        ///< LEAST cap (delta termination must converge)
  int val_agg;       ///< 0: COUNT(dst), 1: MAX(dst), 2: COUNT(*)
  int aux_agg;       ///< 0: MIN(dst), 1: MAX(dst)
};

ChainParams MakeChainParams(const QuerySpec& spec) {
  FuzzRng rng(spec.expr_seed);
  ChainParams p;
  p.factor = 1.0 + 0.01 * static_cast<double>(rng.Range(5, 45));
  p.cap = static_cast<double>(rng.Range(20, 80));
  p.val_agg = static_cast<int>(rng.Range(0, 2));
  p.aux_agg = static_cast<int>(rng.Range(0, 1));
  return p;
}

std::string ChainR0(const ChainParams& p) {
  const char* val = p.val_agg == 0 ? "COUNT(dst)"
                    : p.val_agg == 1 ? "MAX(dst)"
                                     : "COUNT(*)";
  const char* aux = p.aux_agg == 0 ? "MIN(dst)" : "MAX(dst)";
  return StringPrintf(
      "  SELECT src AS node, CAST(%s AS DOUBLE) AS val,\n"
      "         CAST(%s AS DOUBLE) AS aux\n"
      "  FROM edges GROUP BY src\n",
      val, aux);
}

std::string ChainRi(const QuerySpec& spec, const ChainParams& p,
                    const std::string& self) {
  if (spec.until == UntilKind::kDeltaLess) {
    return StringPrintf(
        "  SELECT node, LEAST(ROUND(CAST(val * %.2f AS NUMERIC), 5), %.1f),\n"
        "         aux\n"
        "  FROM %s\n",
        p.factor, p.cap, self.c_str());
  }
  return StringPrintf(
      "  SELECT node, ROUND(CAST(val * %.2f AS NUMERIC), 5), aux\n"
      "  FROM %s\n",
      p.factor, self.c_str());
}

std::string ChainQf(const QuerySpec& spec, const std::string& self) {
  std::string where;
  if (spec.qf_filter) {
    where = StringPrintf("\nWHERE MOD(node, %lld) = 0",
                         static_cast<long long>(spec.filter_mod));
  }
  if (spec.qf_aggregate) {
    return "SELECT COUNT(*), MIN(val), MAX(aux) FROM " + self + where;
  }
  return "SELECT node, val, aux FROM " + self + where;
}

std::string RenderUntil(const QuerySpec& spec) {
  switch (spec.until) {
    case UntilKind::kIterations:
      return StringPrintf("UNTIL %d ITERATIONS", spec.iterations);
    case UntilKind::kUpdates:
      return StringPrintf("UNTIL %d UPDATES", spec.iterations);
    case UntilKind::kDeltaLess:
      return "UNTIL DELTA < 1";
  }
  return "UNTIL 1 ITERATIONS";
}

std::string RenderIterativeChain(const QuerySpec& spec) {
  ChainParams p = MakeChainParams(spec);
  return "WITH ITERATIVE chain (node, val, aux)\nAS (\n" + ChainR0(p) +
         "ITERATE\n" + ChainRi(spec, p, "chain") + RenderUntil(spec) +
         " )\n" + ChainQf(spec, "chain");
}

struct JoinParams {
  double damping;
  double init_delta;
};

JoinParams MakeJoinParams(const QuerySpec& spec) {
  FuzzRng rng(spec.expr_seed);
  JoinParams p;
  p.damping = 0.05 * static_cast<double>(rng.Range(10, 19));  // 0.50..0.95
  p.init_delta = 0.05 * static_cast<double>(rng.Range(2, 6));
  return p;
}

std::string JoinR0(const JoinParams& p) {
  return StringPrintf(
      "  SELECT src, 0.0, %.2f\n"
      "  FROM (SELECT src FROM edges\n"
      "        UNION SELECT dst FROM edges)\n",
      p.init_delta);
}

std::string JoinRi(const QuerySpec& spec, const JoinParams& p,
                   const std::string& self) {
  std::string sql = StringPrintf(
      "  SELECT %s.node,\n"
      "         %s.rank + %s.delta,\n"
      "         %.2f * SUM(inrank.delta * inedges.weight)\n"
      "  FROM %s\n"
      "    LEFT JOIN edges AS inedges\n"
      "      ON %s.node = inedges.dst\n",
      self.c_str(), self.c_str(), self.c_str(), p.damping, self.c_str(),
      self.c_str());
  if (spec.vs_join) {
    sql +=
        "    JOIN vertexstatus AS avail\n"
        "      ON avail.node = inedges.dst\n";
  }
  sql += StringPrintf(
      "    LEFT JOIN %s AS inrank\n"
      "      ON inrank.node = inedges.src\n",
      self.c_str());
  if (spec.vs_join) {
    sql += "  WHERE avail.status != 0\n";
  }
  sql += StringPrintf("  GROUP BY %s.node, %s.rank + %s.delta\n",
                      self.c_str(), self.c_str(), self.c_str());
  return sql;
}

std::string JoinQf(const QuerySpec& spec, const std::string& self) {
  std::string where;
  if (spec.qf_filter) {
    where = StringPrintf("\nWHERE MOD(node, %lld) = 0",
                         static_cast<long long>(spec.filter_mod));
  }
  if (spec.qf_aggregate) {
    return "SELECT COUNT(*), MAX(delta) FROM " + self + where;
  }
  return "SELECT node, rank FROM " + self + where;
}

std::string RenderIterativeJoin(const QuerySpec& spec) {
  JoinParams p = MakeJoinParams(spec);
  return "WITH ITERATIVE pages (node, rank, delta)\nAS (\n" + JoinR0(p) +
         "ITERATE\n" + JoinRi(spec, p, "pages") + RenderUntil(spec) + " )\n" +
         JoinQf(spec, "pages");
}

std::string MergeR0(const QuerySpec& spec) {
  return StringPrintf(
      "  SELECT src, 9999999.0, CASE WHEN src = %lld\n"
      "         THEN 0.0 ELSE 9999999.0 END\n"
      "  FROM (SELECT src FROM edges\n"
      "        UNION SELECT dst FROM edges)\n",
      static_cast<long long>(spec.source_node));
}

std::string MergeRi(const QuerySpec& spec, const std::string& self) {
  std::string sql = StringPrintf(
      "  SELECT %s.node,\n"
      "         LEAST(%s.distance, %s.delta),\n"
      "         COALESCE(MIN(indist.delta\n"
      "                      + inedges.weight), 9999999.0)\n"
      "  FROM %s\n"
      "    LEFT JOIN edges AS inedges\n"
      "      ON %s.node = inedges.dst\n",
      self.c_str(), self.c_str(), self.c_str(), self.c_str(), self.c_str());
  if (spec.vs_join) {
    sql +=
        "    JOIN vertexstatus AS avail\n"
        "      ON avail.node = inedges.dst\n";
  }
  sql += StringPrintf(
      "    LEFT JOIN %s AS indist\n"
      "      ON indist.node = inedges.src\n"
      "  WHERE indist.delta != 9999999\n",
      self.c_str());
  if (spec.vs_join) {
    sql += "    AND avail.status != 0\n";
  }
  sql += StringPrintf("  GROUP BY %s.node, LEAST(%s.distance, %s.delta)\n",
                      self.c_str(), self.c_str(), self.c_str());
  return sql;
}

std::string MergeQf(const QuerySpec& spec, const std::string& self) {
  if (spec.qf_aggregate) {
    return "SELECT COUNT(*), MIN(distance) FROM " + self;
  }
  if (spec.qf_filter) {
    return StringPrintf("SELECT distance FROM %s WHERE node = %lld",
                        self.c_str(),
                        static_cast<long long>(spec.target_node));
  }
  return "SELECT node, distance FROM " + self;
}

std::string RenderIterativeMerge(const QuerySpec& spec) {
  return "WITH ITERATIVE dist (node, distance, delta)\nAS (\n" +
         MergeR0(spec) + "ITERATE\n" + MergeRi(spec, "dist") +
         RenderUntil(spec) + " )\n" + MergeQf(spec, "dist");
}

std::string RenderRecursive(const QuerySpec& spec) {
  const char* setop = spec.union_distinct ? "UNION" : "UNION ALL";
  std::string sql = StringPrintf(
      "WITH RECURSIVE reach (n, d) AS (\n"
      "  SELECT %lld, 0\n"
      "%s\n"
      "  SELECT edges.dst, reach.d + 1\n"
      "  FROM reach JOIN edges ON reach.n = edges.src\n"
      "  WHERE reach.d < %lld)\n",
      static_cast<long long>(spec.start_node), setop,
      static_cast<long long>(spec.depth_bound));
  if (spec.qf_aggregate) {
    sql += "SELECT COUNT(*), MAX(d) FROM reach";
  } else {
    sql += "SELECT n, COUNT(*) FROM reach GROUP BY n";
  }
  return sql;
}

}  // namespace

const char* FamilyName(QueryFamily family) {
  switch (family) {
    case QueryFamily::kScalarSelect:    return "scalar-select";
    case QueryFamily::kIterativeChain:  return "iterative-chain";
    case QueryFamily::kIterativeJoin:   return "iterative-join";
    case QueryFamily::kIterativeMerge:  return "iterative-merge";
    case QueryFamily::kRecursive:       return "recursive";
    case QueryFamily::kCanonicalPR:     return "canonical-pr";
    case QueryFamily::kCanonicalSSSP:   return "canonical-sssp";
    case QueryFamily::kCanonicalFF:     return "canonical-ff";
  }
  return "unknown";
}

std::string FuzzCase::Label() const {
  const char* kind = graph.kind == graph::GraphKind::kPreferentialAttachment
                         ? "pa"
                         : (graph.kind == graph::GraphKind::kUniform ? "uni"
                                                                     : "grid");
  return StringPrintf("%s %s n=%lld e=%lld gseed=%llu iters=%d eseed=%llu",
                      FamilyName(query.family), kind,
                      static_cast<long long>(graph.num_nodes),
                      static_cast<long long>(graph.num_edges),
                      static_cast<unsigned long long>(graph.seed),
                      query.iterations,
                      static_cast<unsigned long long>(query.expr_seed));
}

std::string RenderQuery(const QuerySpec& spec) {
  switch (spec.family) {
    case QueryFamily::kScalarSelect:
      return RenderScalarSelect(spec);
    case QueryFamily::kIterativeChain:
      return RenderIterativeChain(spec);
    case QueryFamily::kIterativeJoin:
      return RenderIterativeJoin(spec);
    case QueryFamily::kIterativeMerge:
      return RenderIterativeMerge(spec);
    case QueryFamily::kRecursive:
      return RenderRecursive(spec);
    case QueryFamily::kCanonicalPR:
      return spec.vs_join ? workloads::PRVSQuery(spec.iterations)
                          : workloads::PRQuery(spec.iterations);
    case QueryFamily::kCanonicalSSSP:
      return spec.vs_join
                 ? workloads::SSSPVSQuery(spec.iterations, spec.source_node,
                                          spec.target_node)
                 : workloads::SSSPQuery(spec.iterations, spec.source_node,
                                        spec.target_node);
    case QueryFamily::kCanonicalFF:
      // A huge LIMIT keeps the ORDER BY ... LIMIT cut away from double ties.
      return workloads::FFQuery(spec.iterations, spec.filter_mod, 1000000);
  }
  return "";
}

std::vector<OrderKey> TopLevelOrder(const QuerySpec& spec,
                                    size_t num_columns) {
  if (spec.family == QueryFamily::kScalarSelect && spec.use_order_limit) {
    return OrderByAllColumns(spec, num_columns);
  }
  if (spec.family == QueryFamily::kCanonicalFF && num_columns == 2) {
    return {{1, true}};  // FFQuery: ORDER BY friends DESC
  }
  return {};
}

std::vector<OrderKey> OrderByAllColumns(const QuerySpec& spec,
                                        size_t num_columns) {
  std::vector<OrderKey> keys;
  for (size_t i = 0; i < num_columns; ++i) {
    keys.push_back({i, i < 32 && ((spec.order_desc >> i) & 1) != 0});
  }
  return keys;
}

std::string RenderOrderBy(const std::vector<OrderKey>& keys) {
  std::string sql = "\nORDER BY ";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i) sql += ", ";
    sql += std::to_string(keys[i].column + 1);
    if (keys[i].descending) sql += " DESC";
  }
  return sql;
}

bool HasProcedureLowering(const QuerySpec& spec) {
  switch (spec.family) {
    case QueryFamily::kIterativeChain:
    case QueryFamily::kIterativeJoin:
    case QueryFamily::kIterativeMerge:
      // Data/delta termination has no fixed-trip procedural equivalent.
      // (The canonical families are excluded because the workloads'
      // procedures end with DROP statements, so Procedure::Run does not
      // return the Qf result; the generated families cover both the rename
      // and merge lowering paths anyway.)
      return spec.until == UntilKind::kIterations;
    default:
      return false;
  }
}

Procedure RenderProcedure(const QuerySpec& spec) {
  // Generic lowering of the generated iterative families: temp tables, one
  // statement at a time. The self-reference in Ri resolves to the main temp
  // table; merge-path bodies (Ri has WHERE) become UPDATE ... FROM, which
  // matches MergeUpdate semantics exactly (update matching keys, keep the
  // rest); rename-path bodies become a full DELETE + INSERT replacement.
  std::string r0, ri, qf;
  std::vector<std::string> cols;
  bool merge_path = false;
  switch (spec.family) {
    case QueryFamily::kIterativeChain: {
      ChainParams p = MakeChainParams(spec);
      r0 = ChainR0(p);
      ri = ChainRi(spec, p, "fz_main");
      qf = ChainQf(spec, "fz_main");
      cols = {"node", "val", "aux"};
      break;
    }
    case QueryFamily::kIterativeJoin: {
      JoinParams p = MakeJoinParams(spec);
      r0 = JoinR0(p);
      ri = JoinRi(spec, p, "fz_main");
      qf = JoinQf(spec, "fz_main");
      cols = {"node", "rank", "delta"};
      merge_path = spec.vs_join;  // the vertexstatus variant filters Ri
      break;
    }
    case QueryFamily::kIterativeMerge: {
      r0 = MergeR0(spec);
      ri = MergeRi(spec, "fz_main");
      qf = MergeQf(spec, "fz_main");
      cols = {"node", "distance", "delta"};
      merge_path = true;
      break;
    }
    default:
      return Procedure();  // HasProcedureLowering() was false
  }

  Procedure p;
  std::string decl = "(" + cols[0] + " BIGINT, " + cols[1] + " DOUBLE, " +
                     cols[2] + " DOUBLE)";
  p.Add("DROP TABLE IF EXISTS fz_main")
      .Add("DROP TABLE IF EXISTS fz_work")
      .Add("CREATE TABLE fz_main " + decl)
      .Add("CREATE TABLE fz_work " + decl)
      .Add("INSERT INTO fz_main\n" + r0)
      .BeginLoop(spec.iterations)
      .Add("DELETE FROM fz_work")
      .Add("INSERT INTO fz_work\n" + ri);
  if (merge_path) {
    p.Add("UPDATE fz_main\n  SET " + cols[1] + " = fz_work." + cols[1] +
          ", " + cols[2] + " = fz_work." + cols[2] +
          "\n  FROM fz_work\n  WHERE fz_main." + cols[0] + " = fz_work." +
          cols[0]);
  } else {
    p.Add("DELETE FROM fz_main")
        .Add("INSERT INTO fz_main SELECT " + cols[0] + ", " + cols[1] + ", " +
             cols[2] + " FROM fz_work");
  }
  // Qf last: Procedure::Run returns the final statement's result. The temp
  // tables stay behind, but each differential oracle gets a throwaway db.
  p.EndLoop().Add(qf);
  return p;
}

Status LoadCaseData(Database* db, const FuzzCase& c) {
  graph::EdgeList graph = graph::Generate(c.graph);
  return graph::LoadIntoDatabase(db, graph, c.status_fraction, c.status_seed);
}

QuerySpec QueryGenerator::NextSpec(QueryFamily family, uint64_t expr_seed,
                                   int64_t num_nodes) {
  FuzzRng rng(expr_seed);
  QuerySpec spec;
  spec.family = family;
  spec.expr_seed = rng.Fork();
  switch (family) {
    case QueryFamily::kScalarSelect:
      spec.join_vertexstatus = rng.Chance(40);
      spec.left_join = rng.Chance(30);
      spec.use_where = rng.Chance(60);
      spec.use_group_by = rng.Chance(45);
      spec.use_having = spec.use_group_by && rng.Chance(50);
      spec.use_union = rng.Chance(30);
      spec.union_all = rng.Chance(50);
      spec.use_case = rng.Chance(40);
      spec.use_order_limit = rng.Chance(30);
      spec.limit = static_cast<int>(rng.Range(1, 25));
      break;
    case QueryFamily::kIterativeChain: {
      int roll = static_cast<int>(rng.Range(0, 99));
      spec.until = roll < 60   ? UntilKind::kIterations
                   : roll < 80 ? UntilKind::kUpdates
                               : UntilKind::kDeltaLess;
      spec.iterations = static_cast<int>(rng.Range(0, 6));
      if (spec.until == UntilKind::kUpdates) {
        spec.iterations = static_cast<int>(rng.Range(1, 200));
      }
      spec.qf_filter = rng.Chance(50);
      spec.qf_aggregate = rng.Chance(30);
      spec.filter_mod = rng.Range(2, 7);
      break;
    }
    case QueryFamily::kIterativeJoin:
      spec.until = UntilKind::kIterations;
      spec.iterations = static_cast<int>(rng.Range(0, 5));
      spec.vs_join = rng.Chance(50);
      spec.qf_filter = rng.Chance(40);
      spec.qf_aggregate = rng.Chance(30);
      spec.filter_mod = rng.Range(2, 7);
      break;
    case QueryFamily::kIterativeMerge:
      spec.until = rng.Chance(75) ? UntilKind::kIterations
                                  : UntilKind::kUpdates;
      spec.iterations = static_cast<int>(
          spec.until == UntilKind::kUpdates ? rng.Range(1, 100)
                                            : rng.Range(0, 6));
      spec.vs_join = rng.Chance(40);
      spec.qf_filter = rng.Chance(40);
      spec.qf_aggregate = rng.Chance(30);
      spec.source_node = rng.Range(1, num_nodes);
      spec.target_node = rng.Range(1, num_nodes);
      break;
    case QueryFamily::kRecursive:
      spec.union_distinct = rng.Chance(65);
      spec.depth_bound = spec.union_distinct ? rng.Range(1, 8)
                                             : rng.Range(1, 3);
      spec.start_node = rng.Range(1, num_nodes);
      spec.qf_aggregate = rng.Chance(40);
      break;
    case QueryFamily::kCanonicalPR:
      spec.iterations = static_cast<int>(rng.Range(1, 5));
      spec.vs_join = rng.Chance(50);
      break;
    case QueryFamily::kCanonicalSSSP:
      spec.iterations = static_cast<int>(rng.Range(1, 6));
      spec.vs_join = rng.Chance(50);
      spec.source_node = rng.Range(1, num_nodes);
      spec.target_node = rng.Range(1, num_nodes);
      break;
    case QueryFamily::kCanonicalFF:
      spec.iterations = static_cast<int>(rng.Range(1, 5));
      spec.filter_mod = rng.Range(2, 10);
      break;
  }
  spec.order_desc = static_cast<uint32_t>(rng.Range(0, 7));
  return spec;
}

FuzzCase QueryGenerator::NextCase() {
  FuzzCase c;
  c.case_seed = rng_.Fork();
  FuzzRng rng(c.case_seed);
  ++counter_;

  // Graph: small enough that the full oracle matrix stays fast, varied
  // enough to hit empty deltas, hubs, unreachable components and grids.
  int shape = static_cast<int>(rng.Range(0, 9));
  if (shape < 4) {
    c.graph.kind = graph::GraphKind::kPreferentialAttachment;
    c.graph.num_nodes = rng.Range(8, 120);
    c.graph.num_edges = c.graph.num_nodes * rng.Range(1, 5);
  } else if (shape < 8) {
    c.graph.kind = graph::GraphKind::kUniform;
    c.graph.num_nodes = rng.Range(4, 120);
    c.graph.num_edges = c.graph.num_nodes * rng.Range(1, 6);
  } else {
    c.graph.kind = graph::GraphKind::kGrid;
    static const std::vector<int64_t> kSides = {4, 16, 36, 64, 100};
    c.graph.num_nodes = rng.Pick(kSides);
    c.graph.num_edges = 0;
  }
  c.graph.seed = rng.Fork();
  c.status_fraction = 0.5 + 0.05 * static_cast<double>(rng.Range(0, 8));
  c.status_seed = rng.Fork();

  static const std::vector<QueryFamily> kFamilies = {
      QueryFamily::kScalarSelect,   QueryFamily::kScalarSelect,
      QueryFamily::kIterativeChain, QueryFamily::kIterativeChain,
      QueryFamily::kIterativeJoin,  QueryFamily::kIterativeJoin,
      QueryFamily::kIterativeMerge, QueryFamily::kIterativeMerge,
      QueryFamily::kRecursive,      QueryFamily::kCanonicalPR,
      QueryFamily::kCanonicalSSSP,  QueryFamily::kCanonicalFF,
  };
  QueryFamily family = rng.Pick(kFamilies);
  c.query = NextSpec(family, rng.Fork(), c.graph.num_nodes);
  return c;
}

}  // namespace fuzz
}  // namespace dbspinner
