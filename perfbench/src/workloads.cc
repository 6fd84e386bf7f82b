#include "workloads.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "engine/workloads.h"
#include "graph/reference_algorithms.h"

namespace perfbench {

using dbspinner::Database;
using dbspinner::EngineOptions;
using dbspinner::Result;
using dbspinner::Status;
using dbspinner::StringPrintf;
namespace graph = dbspinner::graph;
namespace wl = dbspinner::workloads;

namespace {

constexpr int64_t kSsspSource = 1;
constexpr int64_t kSsspTarget = 10;
constexpr int64_t kFfModX = 2;  // FF at 50% selectivity
constexpr int kFfLimit = 10;
constexpr double kAvailableFraction = 0.8;

// Graph seeds of the existing figure and operator benches; the workload
// seed is added to each.
constexpr uint64_t kDblpSeed = 42;
constexpr uint64_t kPokecSeed = 43;
constexpr uint64_t kOpsSeed = 21;
constexpr uint64_t kStatusSeed = 7;

using StatusMap = std::unordered_map<int64_t, int64_t>;

// --- reference answers ------------------------------------------------------

Checker PageRankChecker(const graph::EdgeList& g, const StatusMap* status) {
  Rows expected;
  expected.ncols = 2;
  for (const graph::PageRankRow& row :
       graph::ReferencePageRank(g, kIterations, status)) {
    expected.cells.push_back(static_cast<double>(row.node));
    expected.nulls.push_back(0);
    expected.cells.push_back(row.rank.value_or(0.0));
    expected.nulls.push_back(row.rank.has_value() ? 0 : 1);
  }
  return RowsChecker(std::move(expected), /*ordered=*/false, 1e-9);
}

// The SSSP queries return the target's distance only.
Checker SsspChecker(const graph::EdgeList& g, const StatusMap* status) {
  Rows expected;
  expected.ncols = 1;
  for (const graph::SsspRow& row :
       graph::ReferenceSssp(g, kIterations, kSsspSource, status)) {
    if (row.node == kSsspTarget) expected.AddRow({row.distance});
  }
  return RowsChecker(std::move(expected), /*ordered=*/true, 1e-9);
}

// FF returns the top kFfLimit forecasts among nodes with node % mod_x = 0.
// Ties in `friends` may pick different nodes at the cut, so the gate checks
// the friends values in order and that each returned node carries its own
// reference forecast.
Checker ForecastChecker(const graph::EdgeList& g) {
  constexpr double kTol = 1e-6;  // ROUND(x, 5) per iteration
  std::unordered_map<int64_t, double> by_node;
  std::vector<double> top;
  for (const graph::ForecastRow& row :
       graph::ReferenceForecast(g, kIterations)) {
    if (row.node % kFfModX != 0) continue;
    by_node[row.node] = row.friends;
    top.push_back(row.friends);
  }
  std::sort(top.begin(), top.end(), std::greater<double>());
  if (top.size() > static_cast<size_t>(kFfLimit)) top.resize(kFfLimit);
  return [by_node = std::move(by_node), top = std::move(top)](
             const dbspinner::Table& table, std::string* why) {
    Rows got;
    if (!ToRows(table, &got) || got.ncols != 2 || got.size() != top.size()) {
      *why = "expected " + std::to_string(top.size()) + " (node, friends) rows";
      return false;
    }
    Rows want_friends;
    Rows got_friends;
    for (size_t r = 0; r < got.size(); ++r) {
      const auto node = static_cast<int64_t>(got.cells[2 * r]);
      auto it = by_node.find(node);
      if (got.nulls[2 * r] || got.nulls[2 * r + 1] || it == by_node.end()) {
        *why = "unexpected node " + std::to_string(node);
        return false;
      }
      want_friends.AddRow({it->second});
      got_friends.AddRow({got.cells[2 * r + 1]});
    }
    if (!NearlyEqual(got_friends, want_friends, kTol, why)) return false;
    Rows top_rows;
    for (double f : top) top_rows.AddRow({f});
    return NearlyEqual(got_friends, top_rows, kTol, why);
  };
}

// --- the ad-hoc statements of `sql_ops` -------------------------------------

struct AdHoc {
  const char* name;
  const char* sql;
};

const AdHoc kAdHoc[] = {
    {"filter_gt", "SELECT src, dst FROM edges WHERE src > 10000"},
    {"filter_not", "SELECT src, dst FROM edges WHERE NOT (src > 10000)"},
    {"filter_mod", "SELECT src, dst FROM edges WHERE src % 3 = 0"},
    {"filter_in", "SELECT src, dst FROM edges WHERE src IN (1, 2, 3)"},
    {"case_project",
     "SELECT CASE WHEN dst > src THEN dst ELSE src END FROM edges"},
    {"hash_join",
     "SELECT e.src, v.status FROM edges e JOIN vertexstatus v "
     "ON e.dst = v.node"},
    {"group_by", "SELECT src, COUNT(*), SUM(weight) FROM edges GROUP BY src"},
    {"distinct", "SELECT DISTINCT dst FROM edges"},
    {"order_by", "SELECT src, weight FROM edges ORDER BY weight DESC, src"},
    {"select_1", "SELECT 1"},
};

// Expected answer of each ad-hoc statement, evaluated over the edge list.
Checker AdHocChecker(const std::string& name, const graph::EdgeList& g,
                     const StatusMap& status) {
  const size_t n = g.num_edges();
  auto edge_rows = [&](auto keep) {
    Rows rows;
    rows.ncols = 2;
    for (size_t i = 0; i < n; ++i) {
      if (keep(g.src[i])) {
        rows.AddRow({static_cast<double>(g.src[i]),
                     static_cast<double>(g.dst[i])});
      }
    }
    return MultisetChecker(MultisetFingerprint(rows));
  };
  if (name == "filter_gt") {
    return edge_rows([](int64_t s) { return s > 10000; });
  }
  if (name == "filter_not") {
    return edge_rows([](int64_t s) { return !(s > 10000); });
  }
  if (name == "filter_mod") {
    return edge_rows([](int64_t s) { return s % 3 == 0; });
  }
  if (name == "filter_in") {
    return edge_rows([](int64_t s) { return s >= 1 && s <= 3; });
  }
  Rows rows;
  if (name == "case_project") {
    for (size_t i = 0; i < n; ++i) {
      rows.AddRow({static_cast<double>(std::max(g.src[i], g.dst[i]))});
    }
    return MultisetChecker(MultisetFingerprint(rows));
  }
  if (name == "hash_join") {
    for (size_t i = 0; i < n; ++i) {
      auto it = status.find(g.dst[i]);
      if (it == status.end()) continue;
      rows.AddRow({static_cast<double>(g.src[i]),
                   static_cast<double>(it->second)});
    }
    return MultisetChecker(MultisetFingerprint(rows));
  }
  if (name == "group_by") {
    std::map<int64_t, std::pair<int64_t, double>> groups;
    for (size_t i = 0; i < n; ++i) {
      auto& [count, sum] = groups[g.src[i]];
      ++count;
      sum += g.weight[i];
    }
    for (const auto& [src, agg] : groups) {
      rows.AddRow({static_cast<double>(src),
                   static_cast<double>(agg.first), agg.second});
    }
    return RowsChecker(std::move(rows), /*ordered=*/false, 1e-9);
  }
  if (name == "distinct") {
    std::unordered_set<int64_t> seen(g.dst.begin(), g.dst.end());
    for (int64_t d : seen) rows.AddRow({static_cast<double>(d)});
    return MultisetChecker(MultisetFingerprint(rows));
  }
  if (name == "order_by") {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (g.weight[a] != g.weight[b]) return g.weight[a] > g.weight[b];
      return g.src[a] < g.src[b];
    });
    for (size_t i : order) {
      rows.AddRow({static_cast<double>(g.src[i]), g.weight[i]});
    }
    return SequenceChecker(SequenceFingerprint(rows));
  }
  rows.AddRow({1.0});  // select_1
  return RowsChecker(std::move(rows), /*ordered=*/true, 0.0);
}

// --- the Fig 11 procedures (statement lists of engine/workloads.cc) ---------

/// A procedure op: `prologue`, kIterations x `body`, `epilogue`.
Op ProcedureOp(const std::vector<std::string>& prologue,
               const std::vector<std::string>& body,
               const std::vector<std::string>& epilogue) {
  Op op;
  op.procedure = true;
  op.statements = prologue;
  for (int i = 0; i < kIterations; ++i) {
    op.statements.insert(op.statements.end(), body.begin(), body.end());
  }
  op.statements.insert(op.statements.end(), epilogue.begin(),
                       epilogue.end());
  return op;
}

Op PrVsProcedureOp() {
  return ProcedureOp({
      "DROP TABLE IF EXISTS pr_main",
      "DROP TABLE IF EXISTS pr_work",
      "CREATE TABLE pr_main (node BIGINT, rank DOUBLE, delta DOUBLE)",
      "CREATE TABLE pr_work (node BIGINT, rank DOUBLE, delta DOUBLE)",
      "INSERT INTO pr_main\n"
      "  SELECT src, 0, 0.15\n"
      "  FROM (SELECT src FROM edges UNION SELECT dst FROM edges)",
  }, {
      "DELETE FROM pr_work",
      "INSERT INTO pr_work\n"
      "  SELECT pr_main.node,\n"
      "         pr_main.rank + pr_main.delta,\n"
      "         0.85 * SUM(incomingrank.delta * incomingedges.weight)\n"
      "  FROM pr_main\n"
      "    LEFT JOIN edges AS incomingedges\n"
      "      ON pr_main.node = incomingedges.dst\n"
      "    JOIN vertexstatus AS avail_pr\n"
      "      ON avail_pr.node = incomingedges.dst\n"
      "    LEFT JOIN pr_main AS incomingrank\n"
      "      ON incomingrank.node = incomingedges.src\n"
      "  WHERE avail_pr.status != 0\n"
      "  GROUP BY pr_main.node, pr_main.rank + pr_main.delta",
      "UPDATE pr_main\n"
      "  SET rank = pr_work.rank, delta = pr_work.delta\n"
      "  FROM pr_work\n"
      "  WHERE pr_main.node = pr_work.node",
  }, {
      "SELECT node, rank FROM pr_main",
      "DROP TABLE pr_work",
      "DROP TABLE pr_main",
  });
}

Op SsspVsProcedureOp() {
  return ProcedureOp({
      "DROP TABLE IF EXISTS sssp_main",
      "DROP TABLE IF EXISTS sssp_work",
      "CREATE TABLE sssp_main (node BIGINT, distance DOUBLE, "
      "delta DOUBLE)",
      "CREATE TABLE sssp_work (node BIGINT, distance DOUBLE, "
      "delta DOUBLE)",
      StringPrintf(
          "INSERT INTO sssp_main\n"
          "  SELECT src, 9999999, CASE WHEN src = %lld THEN 0\n"
          "         ELSE 9999999 END\n"
          "  FROM (SELECT src FROM edges UNION SELECT dst FROM edges)",
          static_cast<long long>(kSsspSource)),
  }, {
      "DELETE FROM sssp_work",
      "INSERT INTO sssp_work\n"
      "  SELECT sssp_main.node,\n"
      "         LEAST(sssp_main.distance, sssp_main.delta),\n"
      "         COALESCE(MIN(incomingdistance.delta\n"
      "                      + incomingedges.weight), 9999999)\n"
      "  FROM sssp_main\n"
      "    LEFT JOIN edges AS incomingedges\n"
      "      ON sssp_main.node = incomingedges.dst\n"
      "    JOIN vertexstatus AS avail\n"
      "      ON avail.node = incomingedges.dst\n"
      "    LEFT JOIN sssp_main AS incomingdistance\n"
      "      ON incomingdistance.node = incomingedges.src\n"
      "  WHERE incomingdistance.delta != 9999999\n"
      "    AND avail.status != 0\n"
      "  GROUP BY sssp_main.node,\n"
      "           LEAST(sssp_main.distance, sssp_main.delta)",
      "UPDATE sssp_main\n"
      "  SET distance = sssp_work.distance, delta = sssp_work.delta\n"
      "  FROM sssp_work\n"
      "  WHERE sssp_main.node = sssp_work.node",
  }, {
      StringPrintf("SELECT distance FROM sssp_main WHERE node = %lld",
                   static_cast<long long>(kSsspTarget)),
      "DROP TABLE sssp_work",
      "DROP TABLE sssp_main",
  });
}

Op FfProcedureOp() {
  return ProcedureOp({
      "DROP TABLE IF EXISTS ff_main",
      "DROP TABLE IF EXISTS ff_work",
      "CREATE TABLE ff_main (node BIGINT, friends DOUBLE, "
      "friendsprev DOUBLE)",
      "CREATE TABLE ff_work (node BIGINT, friends DOUBLE, "
      "friendsprev DOUBLE)",
      "INSERT INTO ff_main\n"
      "  SELECT src AS node, COUNT(dst) AS friends,\n"
      "         CEILING(COUNT(dst) * (1.0 - (src % 10) / 100.0))\n"
      "  FROM edges GROUP BY src",
  }, {
      "DELETE FROM ff_work",
      "INSERT INTO ff_work\n"
      "  SELECT node,\n"
      "         ROUND(CAST((friends / friendsprev) * friends\n"
      "                    AS NUMERIC), 5),\n"
      "         friends\n"
      "  FROM ff_main",
      "DELETE FROM ff_main",
      "INSERT INTO ff_main SELECT node, friends, friendsprev "
      "FROM ff_work",
  }, {
      StringPrintf(
          "SELECT node, friends FROM ff_main WHERE MOD(node, %lld) = 0\n"
          "ORDER BY friends DESC LIMIT %d",
          static_cast<long long>(kFfModX), kFfLimit),
      "DROP TABLE ff_work",
      "DROP TABLE ff_main",
  });
}

/// How much work SSSP does on some inputs: whether a distance still changes
/// in the last iteration, and how many nodes it reaches. With weights
/// 1/outdegree, a cycle reachable from the source keeps improving walks
/// forever; without one the frontier dies after a few iterations.
struct SsspProfile {
  bool alive = false;
  int64_t reached = 0;

  /// Same frontier fate and reach within 10% (plus two nodes, so that the
  /// three-node seed ring of the generator matches itself).
  bool Like(const SsspProfile& base) const {
    return alive == base.alive &&
           std::llabs(reached - base.reached) <= base.reached / 10 + 2;
  }
};

SsspProfile ProfileSssp(const graph::EdgeList& g, const StatusMap* status) {
  std::unordered_map<int64_t, double> before;
  for (const graph::SsspRow& row :
       graph::ReferenceSssp(g, kIterations - 1, kSsspSource, status)) {
    before[row.node] = row.delta;
  }
  SsspProfile profile;
  for (const graph::SsspRow& row :
       graph::ReferenceSssp(g, kIterations, kSsspSource, status)) {
    profile.alive |= before[row.node] != row.delta;
    profile.reached += row.distance < 9999999 ? 1 : 0;
  }
  return profile;
}

/// Profiles of SSSP and of SSSP restricted to available nodes.
std::pair<SsspProfile, SsspProfile> ProfileInputs(const graph::GraphSpec& spec,
                                                  uint64_t status_seed) {
  const graph::EdgeList g = graph::Generate(spec);
  const StatusMap status = graph::StatusMap(*graph::BuildVertexStatusTable(
      g.num_nodes, kAvailableFraction, status_seed));
  return {ProfileSssp(g, nullptr), ProfileSssp(g, &status)};
}

/// Sets the graph and vertexstatus seeds for workload seed `seed`: base +
/// seed, moved on in steps of 1000 until both SSSP variants work like they
/// do on the seed-0 inputs. Otherwise the seeds fall into populations whose
/// SSSP costs differ severalfold. Seed 0 gives the base seeds.
Status SeedInputs(graph::GraphSpec (*shape)(int64_t, uint64_t),
                  int64_t scale, uint64_t graph_base, uint64_t seed,
                  Workload* w) {
  const auto base = ProfileInputs(shape(scale, graph_base), kStatusSeed);
  uint64_t offset = seed;
  for (int probe = 0; probe < 100; ++probe, offset += 1000) {
    w->spec = shape(scale, graph_base + offset);
    w->status_seed = kStatusSeed + offset;
    const auto p = ProfileInputs(w->spec, w->status_seed);
    if (p.first.Like(base.first) && p.second.Like(base.second)) {
      return Status::OK();
    }
  }
  return Status::Internal("no inputs like the seed-0 ones for this seed");
}

Op SelectOp(std::string name, std::string sql, Checker check) {
  Op op;
  op.name = std::move(name);
  op.statements = {std::move(sql)};
  op.check = std::move(check);
  return op;
}

}  // namespace

Result<Workload> MakeWorkload(const std::string& name, int64_t seed) {
  const auto offset = static_cast<uint64_t>(seed);
  Workload w;
  w.name = name;
  w.status_seed = kStatusSeed + offset;
  if (name == "cte_dblp" || name == "proc_dblp") {
    w.op_prefix = name == "cte_dblp" ? "cte" : "proc";
    w.graph_label = "dblp/64";
    DBSP_RETURN_NOT_OK(
        SeedInputs(graph::DblpShaped, 64, kDblpSeed, offset, &w));
  } else if (name == "sql_ops") {
    w.op_prefix = "sql";
    w.graph_label = "ops-20k-100k";
    w.spec.kind = graph::GraphKind::kPreferentialAttachment;
    w.spec.num_nodes = 20000;
    w.spec.num_edges = 100000;
    w.spec.seed = kOpsSeed + offset;
  } else if (name == "cte_pokec_w4") {
    w.op_prefix = "w4";
    w.graph_label = "pokec/768";
    DBSP_RETURN_NOT_OK(
        SeedInputs(graph::PokecShaped, 768, kPokecSeed, offset, &w));
    w.options.num_workers = 4;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return w;
}

Status Load(const Workload& workload, Loaded* out) {
  out->graph = graph::Generate(workload.spec);
  out->db = std::make_unique<Database>(workload.options);
  return graph::LoadIntoDatabase(out->db.get(), out->graph,
                                 kAvailableFraction, workload.status_seed);
}

Result<std::vector<Op>> MakeOps(const Workload& workload,
                                const Loaded& loaded) {
  const graph::EdgeList& g = loaded.graph;
  DBSP_ASSIGN_OR_RETURN(dbspinner::CatalogEntry * vs,
                        loaded.db->catalog().Get("vertexstatus"));
  const StatusMap status = graph::StatusMap(*vs->table);

  std::vector<Op> ops;
  const std::string& w = workload.name;
  if (w == "cte_dblp") {
    ops.push_back(SelectOp("pr", wl::PRQuery(kIterations),
                           PageRankChecker(g, nullptr)));
    ops.push_back(SelectOp("pr_vs", wl::PRVSQuery(kIterations),
                           PageRankChecker(g, &status)));
    ops.push_back(SelectOp(
        "sssp", wl::SSSPQuery(kIterations, kSsspSource, kSsspTarget),
        SsspChecker(g, nullptr)));
    ops.push_back(SelectOp(
        "sssp_vs", wl::SSSPVSQuery(kIterations, kSsspSource, kSsspTarget),
        SsspChecker(g, &status)));
    ops.push_back(SelectOp("ff", wl::FFQuery(kIterations, kFfModX, kFfLimit),
                           ForecastChecker(g)));
  } else if (w == "proc_dblp") {
    struct Proc {
      const char* name;
      Op op;
      int64_t engine_statements;
      Checker check;
    };
    Proc procs[] = {
        {"pr_vs", PrVsProcedureOp(),
         wl::PRVSProcedure(kIterations).TotalStatements(),
         PageRankChecker(g, &status)},
        {"sssp_vs", SsspVsProcedureOp(),
         wl::SSSPVSProcedure(kIterations, kSsspSource, kSsspTarget)
             .TotalStatements(),
         SsspChecker(g, &status)},
        {"ff", FfProcedureOp(),
         wl::FFProcedure(kIterations, kFfModX).TotalStatements(),
         ForecastChecker(g)},
    };
    for (Proc& p : procs) {
      const auto listed = static_cast<int64_t>(p.op.statements.size());
      if (listed != p.engine_statements) {
        return Status::Internal(StringPrintf(
            "procedure %s lists %lld statements, the engine's has %lld",
            p.name, static_cast<long long>(listed),
            static_cast<long long>(p.engine_statements)));
      }
      p.op.name = p.name;
      p.op.check = std::move(p.check);
      ops.push_back(std::move(p.op));
    }
  } else if (w == "sql_ops") {
    for (const AdHoc& q : kAdHoc) {
      ops.push_back(SelectOp(q.name, q.sql, AdHocChecker(q.name, g, status)));
    }
  } else if (w == "cte_pokec_w4") {
    ops.push_back(SelectOp("pr_vs", wl::PRVSQuery(kIterations),
                           PageRankChecker(g, &status)));
    ops.push_back(SelectOp(
        "sssp_vs", wl::SSSPVSQuery(kIterations, kSsspSource, kSsspTarget),
        SsspChecker(g, &status)));
  } else {
    return Status::InvalidArgument("unknown workload '" + w + "'");
  }
  return ops;
}

}  // namespace perfbench
