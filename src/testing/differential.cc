#include "testing/differential.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <thread>

#include "common/string_util.h"
#include "graph/reference_algorithms.h"
#include "server/session.h"
#include "testing/fuzz_rng.h"

namespace dbspinner {
namespace fuzz {

namespace {

EngineOptions BaseOptions(const DifferentialOptions& opts) {
  EngineOptions eo;
  eo.max_iterations_guard = opts.max_iterations_guard;
  eo.dev_break_rename_for_testing =
      opts.break_rename && eo.optimizer.enable_rename_optimization;
  eo.verify.verify_plans = opts.verify;
  eo.verify.enforce = opts.verify;
  return eo;
}

OracleOutcome RunSqlOracle(const FuzzCase& c, std::string name,
                           EngineOptions eo, const std::string& sql) {
  OracleOutcome out;
  out.name = std::move(name);
  Database db(std::move(eo));
  out.status = LoadCaseData(&db, c);
  if (!out.status.ok()) return out;
  Result<QueryResult> r = db.Execute(sql);
  out.status = r.status();
  if (r.ok()) {
    out.table = r->table;
    out.stats = r->stats;
  }
  return out;
}

// Disk round-trip oracle: load into a persistent database, close, reopen
// (recovery materializes every table from compressed extents), query.
OracleOutcome RunPersistenceOracle(const FuzzCase& c, std::string name,
                                   EngineOptions eo, const std::string& sql,
                                   const std::string& dir) {
  OracleOutcome out;
  out.name = std::move(name);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  eo.persistence.enabled = true;
  eo.persistence.path = dir;
  eo.persistence.sync = false;  // format round-trip only; no crash here
  eo.persistence.block_rows = 64;     // multi-block extents on small data
  eo.persistence.manifest_every = 4;  // folds + extent GC mid-load
  {
    Database db(eo);
    out.status = LoadCaseData(&db, c);
    if (!out.status.ok()) return out;
  }
  // Reopen: the query below runs entirely against recovered state.
  Database db(eo);
  Result<QueryResult> r = db.Execute(sql);
  out.status = r.status();
  if (r.ok()) {
    out.table = r->table;
    out.stats = r->stats;
  }
  std::filesystem::remove_all(dir, ec);
  return out;
}

OracleOutcome RunProcedureOracle(const FuzzCase& c,
                                 const DifferentialOptions& opts) {
  OracleOutcome out;
  out.name = "procedure";
  Database db(BaseOptions(opts));
  out.status = LoadCaseData(&db, c);
  if (!out.status.ok()) return out;
  Procedure p = RenderProcedure(c.query);
  Result<QueryResult> r = p.Run(&db);
  out.status = r.status();
  if (r.ok()) out.table = r->table;
  return out;
}

// Ground-truth rows for the canonical families, computed by the reference
// implementations and shaped like the canonical query's final SELECT.
OracleOutcome RunReferenceOracle(const FuzzCase& c,
                                 std::vector<std::vector<Value>>* rows) {
  OracleOutcome out;
  out.name = "reference";
  out.status = Status::OK();
  graph::EdgeList g = graph::Generate(c.graph);

  std::unordered_map<int64_t, int64_t> status_map;
  const std::unordered_map<int64_t, int64_t>* status = nullptr;
  if (c.query.vs_join) {
    TablePtr vs = graph::BuildVertexStatusTable(g.num_nodes, c.status_fraction,
                                                c.status_seed);
    status_map = graph::StatusMap(*vs);
    status = &status_map;
  }

  switch (c.query.family) {
    case QueryFamily::kCanonicalPR: {
      // PRQuery: SELECT node, rank FROM pagerank
      for (const graph::PageRankRow& r :
           graph::ReferencePageRank(g, c.query.iterations, status)) {
        rows->push_back({Value::Int64(r.node),
                         r.rank ? Value::Double(*r.rank) : Value::Null()});
      }
      break;
    }
    case QueryFamily::kCanonicalSSSP: {
      // SSSPQuery: SELECT distance FROM sssp WHERE node = target
      for (const graph::SsspRow& r :
           graph::ReferenceSssp(g, c.query.iterations, c.query.source_node,
                                status)) {
        if (r.node == c.query.target_node) {
          rows->push_back({Value::Double(r.distance)});
        }
      }
      break;
    }
    case QueryFamily::kCanonicalFF: {
      // FFQuery (huge limit): SELECT node, friends WHERE MOD(node, m) = 0
      for (const graph::ForecastRow& r :
           graph::ReferenceForecast(g, c.query.iterations)) {
        if (r.node % c.query.filter_mod == 0) {
          rows->push_back({Value::Int64(r.node), Value::Double(r.friends)});
        }
      }
      break;
    }
    default:
      out.status = Status::Internal("no reference for this family");
      break;
  }
  return out;
}

bool RowLess(const std::vector<Value>& a, const std::vector<Value>& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    int cmp = a[i].Compare(b[i]);
    if (cmp != 0) return cmp < 0;
  }
  return a.size() < b.size();
}

// The first oracle result in `outcomes` that breaks its ORDER BY,
// described; "" when all keep theirs. The "ordered" oracle keeps
// `appended`, the others the query's top-level ORDER BY. The reference
// oracle's rows come unordered from the C++ algorithms and are skipped.
std::string CheckOracleOrders(const QuerySpec& spec,
                              const std::vector<OracleOutcome>& outcomes,
                              const std::vector<OrderKey>& appended = {}) {
  for (const OracleOutcome& o : outcomes) {
    if (!o.status.ok() || o.table == nullptr || o.name == "reference") {
      continue;
    }
    std::string bad = CheckOrder(
        *o.table, o.name == "ordered"
                      ? appended
                      : TopLevelOrder(spec, o.table->num_columns()));
    if (!bad.empty()) return "[" + o.name + "] " + bad;
  }
  return "";
}

std::string RowToString(const std::vector<Value>& row) {
  std::string s = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i) s += ", ";
    s += row[i].ToString();
  }
  return s + ")";
}

bool CellsMatch(const Value& a, const Value& b, double eps) {
  if (a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  if (IsNumeric(a.type()) && IsNumeric(b.type())) {
    return std::fabs(a.AsDouble() - b.AsDouble()) <= eps;
  }
  return a.ToString() == b.ToString();
}

}  // namespace

std::string CheckOrder(const Table& t, const std::vector<OrderKey>& keys) {
  for (size_t r = 1; r < t.num_rows(); ++r) {
    for (const OrderKey& k : keys) {
      if (k.column >= t.num_columns()) break;
      Value prev = t.GetValue(r - 1, k.column);
      Value cur = t.GetValue(r, k.column);
      int cmp = prev.Compare(cur);
      if (k.descending) cmp = -cmp;
      if (cmp < 0) break;
      if (cmp > 0) {
        return StringPrintf("rows %zu and %zu break the ORDER BY on column "
                            "%zu%s: %s before %s",
                            r - 1, r, k.column + 1,
                            k.descending ? " DESC" : "",
                            prev.ToString().c_str(), cur.ToString().c_str());
      }
    }
  }
  return "";
}

std::vector<std::vector<Value>> TableRows(const Table& t) {
  std::vector<std::vector<Value>> rows;
  rows.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) rows.push_back(t.GetRow(r));
  return rows;
}

std::string DiffRowSets(const std::vector<std::vector<Value>>& a,
                        const std::vector<std::vector<Value>>& b, double eps) {
  if (a.size() != b.size()) {
    return StringPrintf("row count %zu vs %zu", a.size(), b.size());
  }
  if (a.empty()) return "";
  if (a[0].size() != b[0].size()) {
    return StringPrintf("column count %zu vs %zu", a[0].size(), b[0].size());
  }
  std::vector<std::vector<Value>> sa = a, sb = b;
  std::sort(sa.begin(), sa.end(), RowLess);
  std::sort(sb.begin(), sb.end(), RowLess);
  for (size_t r = 0; r < sa.size(); ++r) {
    for (size_t col = 0; col < sa[r].size(); ++col) {
      if (!CellsMatch(sa[r][col], sb[r][col], eps)) {
        return StringPrintf("row %zu differs: %s vs %s", r,
                            RowToString(sa[r]).c_str(),
                            RowToString(sb[r]).c_str());
      }
    }
  }
  return "";
}

std::string DiffReport::Describe(const FuzzCase& c) const {
  std::string s = "case: " + c.Label() + "\n";
  if (!ok) s += "FAILURE: " + failure + "\n";
  s += "sql:\n" + sql + "\n";
  for (const OracleOutcome& o : outcomes) {
    s += "  [" + o.name + "] " + o.status.ToString();
    if (o.status.ok() && o.table) {
      s += StringPrintf(" (%zu rows)", o.table->num_rows());
    }
    s += "\n";
  }
  return s;
}

DiffReport RunDifferential(const FuzzCase& c,
                           const DifferentialOptions& opts) {
  DiffReport report;
  report.sql = RenderQuery(c.query);

  // --- run the matrix -------------------------------------------------------
  report.outcomes.push_back(
      RunSqlOracle(c, "baseline", BaseOptions(opts), report.sql));

  for (const OptimizerToggles::Toggle& t : OptimizerToggles::All()) {
    EngineOptions eo = BaseOptions(opts);
    eo.optimizer.*t.member = false;
    eo.dev_break_rename_for_testing =
        opts.break_rename && eo.optimizer.enable_rename_optimization;
    report.outcomes.push_back(
        RunSqlOracle(c, std::string("no-") + t.name, eo, report.sql));
  }
  {
    EngineOptions eo = BaseOptions(opts);
    eo.optimizer = OptimizerToggles::AllSetTo(false);
    eo.dev_break_rename_for_testing = false;
    report.outcomes.push_back(RunSqlOracle(c, "all-off", eo, report.sql));
  }
  for (int workers : {2, 8}) {
    EngineOptions eo = BaseOptions(opts);
    eo.num_workers = workers;
    eo.mpp_min_rows_per_task = 1;
    report.outcomes.push_back(RunSqlOracle(
        c, StringPrintf("mpp-%d", workers), eo, report.sql));
  }
  {
    // Serial row-at-a-time execution: one-row morsels, so no kernel ever
    // sees a second row, a selection vector or a chunk boundary inside a
    // group or join-match run. The morsel sweep below skips this cell.
    EngineOptions eo = BaseOptions(opts);
    eo.morsel_size = 1;
    report.outcomes.push_back(RunSqlOracle(c, "morsel-1", eo, report.sql));
  }
  for (size_t morsel : opts.morsel_sizes) {
    // Chunk-boundary equivalence: the vectorized pipeline must produce the
    // same rows no matter where morsel boundaries fall (group runs, join
    // matches, and NULL runs straddling chunks are the interesting cases).
    // Crossed with worker widths, the same sweep also covers the stealing
    // dispatcher, fused probes of one shared build, and partial
    // pre-aggregation.
    for (int workers : opts.morsel_workers) {
      if (morsel == 1 && workers == 1) continue;  // the oracle above
      EngineOptions eo = BaseOptions(opts);
      eo.morsel_size = morsel;
      eo.num_workers = workers;
      if (workers > 1) eo.mpp_min_rows_per_task = 1;
      report.outcomes.push_back(RunSqlOracle(
          c,
          workers > 1 ? StringPrintf("morsel-%zu-w%d", morsel, workers)
                      : StringPrintf("morsel-%zu", morsel),
          eo, report.sql));
    }
  }
  if (!opts.persistence_dir.empty()) {
    for (int workers : opts.persistence_workers) {
      EngineOptions eo = BaseOptions(opts);
      eo.num_workers = workers;
      if (workers > 1) eo.mpp_min_rows_per_task = 1;
      report.outcomes.push_back(RunPersistenceOracle(
          c, StringPrintf("persist-w%d", workers), eo, report.sql,
          opts.persistence_dir + StringPrintf("/w%d", workers)));
    }
  }
  if (opts.fault_rate > 0.0) {
    // Crash/recovery equivalence: the same query under an injected-fault
    // schedule, with retry + checkpoint/restore recovery, must match the
    // fault-free baseline. Serial exercises the executor-level step sites;
    // MPP width 8 adds the exchange and dispatch sites.
    for (int workers : {1, 8}) {
      EngineOptions eo = BaseOptions(opts);
      eo.num_workers = workers;
      if (workers > 1) eo.mpp_min_rows_per_task = 1;
      eo.fault_injection.enabled = true;
      eo.fault_injection.seed =
          opts.fault_seed * 2 + static_cast<uint64_t>(workers);
      // Serial applies fault_rate to the executor's per-step sites only.
      // At width 8 the same rate would also hit every morsel claim of
      // every parallel pipeline (many per loop iteration), so a long
      // generated loop sees hundreds of hits per checkpoint segment
      // and P(segment completes) ~ (1-rate)^hits collapses — bounded
      // restore recovery then livelocks by construction, not because
      // recovery is wrong. Normalize the per-task rate so per-segment
      // fault mass stays comparable to the serial schedule (same caveat
      // as the width-8 sweep in tests/fault_recovery_test.cc).
      eo.fault_injection.rate =
          workers > 1 ? opts.fault_rate / 10 : opts.fault_rate;
      eo.fault_injection.worker_lost_fraction = opts.worker_lost_fraction;
      eo.fault_tolerance.enable_recovery = true;
      eo.fault_tolerance.max_restores = 100000;
      report.outcomes.push_back(RunSqlOracle(
          c, workers == 1 ? "faults-serial" : "faults-mpp-8", eo,
          report.sql));
    }
  }
  if (HasProcedureLowering(c.query)) {
    report.outcomes.push_back(RunProcedureOracle(c, opts));
  }
  // A query without a top-level ORDER BY also runs with one appended on
  // every output column ("ordered"), so every case that returns rows
  // exercises the sort kernel and the row-order check below.
  std::vector<OrderKey> appended;
  if (report.outcomes[0].status.ok()) {
    const size_t num_columns = report.outcomes[0].table->num_columns();
    if (TopLevelOrder(c.query, num_columns).empty()) {
      appended = OrderByAllColumns(c.query, num_columns);
      report.outcomes.push_back(RunSqlOracle(
          c, "ordered", BaseOptions(opts),
          report.sql + RenderOrderBy(appended)));
    }
  }
  std::vector<std::vector<Value>> reference_rows;
  bool have_reference = c.query.family == QueryFamily::kCanonicalPR ||
                        c.query.family == QueryFamily::kCanonicalSSSP ||
                        c.query.family == QueryFamily::kCanonicalFF;
  if (have_reference) {
    report.outcomes.push_back(RunReferenceOracle(c, &reference_rows));
  }

  // --- classify and diff ----------------------------------------------------
  const OracleOutcome& baseline = report.outcomes[0];
  for (const OracleOutcome& o : report.outcomes) {
    if (o.status.code() == StatusCode::kInternal) {
      report.ok = false;
      report.failure =
          "[" + o.name + "] internal error: " + o.status.message();
      return report;
    }
  }

  if (!baseline.status.ok()) {
    // User-level rejection: fine, but every oracle must reject it too.
    for (const OracleOutcome& o : report.outcomes) {
      if (o.status.ok()) {
        report.ok = false;
        report.failure = "status mismatch: baseline rejected (" +
                         baseline.status.ToString() + ") but [" + o.name +
                         "] succeeded";
        return report;
      }
    }
    return report;
  }

  std::string misordered =
      CheckOracleOrders(c.query, report.outcomes, appended);
  if (!misordered.empty()) {
    report.ok = false;
    report.failure = misordered;
    return report;
  }
  std::vector<std::vector<Value>> expected = TableRows(*baseline.table);
  for (size_t i = 1; i < report.outcomes.size(); ++i) {
    const OracleOutcome& o = report.outcomes[i];
    if (!o.status.ok()) {
      report.ok = false;
      report.failure = "status mismatch: baseline succeeded but [" + o.name +
                       "] failed: " + o.status.ToString();
      return report;
    }
    const std::vector<std::vector<Value>>& actual =
        (have_reference && o.name == "reference") ? reference_rows
                                                  : TableRows(*o.table);
    std::string diff = DiffRowSets(expected, actual, opts.eps);
    if (!diff.empty()) {
      report.ok = false;
      report.failure = "[baseline] vs [" + o.name + "]: " + diff;
      return report;
    }
  }

  // Work-accounting equivalence: oracles that run the identical program
  // serially (only chunk boundaries differ) must also agree on the
  // iteration-semantic counters — same loop trips, same delta sizes, same
  // rows surviving DeltaRestrict whatever the morsel size.
  // Parallel oracles are excluded: reordered floating-point accumulation
  // can legitimately shift convergence by an iteration.
  auto delta_counters = [](const ExecStats& s) {
    return std::array<int64_t, 5>{s.loop_iterations, s.renames,
                                  s.merge_updates, s.delta_rows,
                                  s.delta_probe_rows};
  };
  for (const OracleOutcome& o : report.outcomes) {
    bool serial_same_plan = o.name.rfind("morsel-", 0) == 0 &&
                            o.name.find("-w") == std::string::npos;
    if (!serial_same_plan || !o.status.ok()) continue;
    if (delta_counters(o.stats) != delta_counters(baseline.stats)) {
      report.ok = false;
      report.failure = StringPrintf(
          "[baseline] vs [%s]: delta-stats mismatch "
          "(iters/renames/merges/delta/probe %lld/%lld/%lld/%lld/%lld vs "
          "%lld/%lld/%lld/%lld/%lld)",
          o.name.c_str(),
          static_cast<long long>(baseline.stats.loop_iterations),
          static_cast<long long>(baseline.stats.renames),
          static_cast<long long>(baseline.stats.merge_updates),
          static_cast<long long>(baseline.stats.delta_rows),
          static_cast<long long>(baseline.stats.delta_probe_rows),
          static_cast<long long>(o.stats.loop_iterations),
          static_cast<long long>(o.stats.renames),
          static_cast<long long>(o.stats.merge_updates),
          static_cast<long long>(o.stats.delta_rows),
          static_cast<long long>(o.stats.delta_probe_rows));
      return report;
    }
  }
  return report;
}

DiffReport RunConcurrentSessions(const FuzzCase& c, int sessions,
                                 const DifferentialOptions& opts) {
  DiffReport report;
  report.sql = RenderQuery(c.query);
  sessions = std::max(1, sessions);
  constexpr int kReps = 2;

  Database db(BaseOptions(opts));
  {
    OracleOutcome load;
    load.name = "load";
    load.status = LoadCaseData(&db, c);
    if (!load.status.ok()) {
      // No data, nothing to race on; a load failure is its own outcome so
      // Describe() shows why the case was skipped.
      report.outcomes.push_back(std::move(load));
      return report;
    }
  }

  // Serial replay on the default session is the oracle.
  OracleOutcome serial;
  serial.name = "serial-replay";
  {
    Result<QueryResult> r = db.Execute(report.sql);
    serial.status = r.status();
    if (r.ok()) serial.table = r->table;
  }
  report.outcomes.push_back(serial);

  // Concurrent runs: N sessions, each repeating the query, all racing on
  // the same Database (shared catalog versions, shared scheduler, shared
  // worker pool, session-scoped temp names).
  server::SessionManager mgr(&db);
  std::vector<OracleOutcome> concurrent(
      static_cast<size_t>(sessions) * kReps);
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      std::shared_ptr<server::Session> session = mgr.CreateSession();
      for (int rep = 0; rep < kReps; ++rep) {
        OracleOutcome& out = concurrent[static_cast<size_t>(s) * kReps + rep];
        out.name = StringPrintf("session-%d-rep-%d", s, rep);
        Result<QueryResult> r = session->Execute(report.sql);
        out.status = r.status();
        if (r.ok()) out.table = r->table;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (OracleOutcome& o : concurrent) {
    report.outcomes.push_back(std::move(o));
  }

  // Classify exactly like the oracle matrix: kInternal anywhere is an
  // engine bug; rejections must be unanimous; accepted rows must match the
  // serial replay as multisets.
  for (const OracleOutcome& o : report.outcomes) {
    if (o.status.code() == StatusCode::kInternal) {
      report.ok = false;
      report.failure =
          "[" + o.name + "] internal error: " + o.status.message();
      return report;
    }
  }
  if (!serial.status.ok()) {
    for (const OracleOutcome& o : report.outcomes) {
      if (o.status.ok()) {
        report.ok = false;
        report.failure = "status mismatch: serial replay rejected (" +
                         serial.status.ToString() + ") but [" + o.name +
                         "] succeeded";
        return report;
      }
    }
    return report;
  }
  std::string misordered = CheckOracleOrders(c.query, report.outcomes);
  if (!misordered.empty()) {
    report.ok = false;
    report.failure = misordered;
    return report;
  }
  std::vector<std::vector<Value>> expected = TableRows(*serial.table);
  for (size_t i = 1; i < report.outcomes.size(); ++i) {
    const OracleOutcome& o = report.outcomes[i];
    if (!o.status.ok()) {
      report.ok = false;
      report.failure = "status mismatch: serial replay succeeded but [" +
                       o.name + "] failed: " + o.status.ToString();
      return report;
    }
    std::string diff = DiffRowSets(expected, TableRows(*o.table), opts.eps);
    if (!diff.empty()) {
      report.ok = false;
      report.failure = "[serial-replay] vs [" + o.name + "]: " + diff;
      return report;
    }
  }
  return report;
}

DiffReport RunIvmDifferential(const FuzzCase& c,
                              const DifferentialOptions& opts) {
  DiffReport report;

  // The view panel pins one view per maintenance-plan shape, so every
  // mutation exercises the linear delta path, the join delta path (deltas
  // arriving from either input), the per-group aggregate fold (whose MIN
  // escalates to a full refresh when a delete retracts the current
  // minimum), and the recompute-on-read fallback.
  struct ViewDef {
    const char* name;
    const char* body;
  };
  static const ViewDef kViews[] = {
      {"ivm_filter",
       "SELECT src, dst, weight FROM edges WHERE MOD(src, 2) = 0"},
      {"ivm_join",
       "SELECT e.src, e.dst, vs.status FROM edges AS e "
       "JOIN vertexstatus AS vs ON vs.node = e.dst"},
      {"ivm_agg",
       "SELECT src, COUNT(*) AS c, SUM(weight) AS s, MIN(weight) AS mn "
       "FROM edges GROUP BY src"},
      {"ivm_distinct", "SELECT DISTINCT dst FROM edges"},
  };

  EngineOptions eo = BaseOptions(opts);
  if (opts.fault_rate > 0.0) {
    // Same serial fault schedule as the faults oracle: maintenance queries
    // run under injected faults with recovery on, and must neither leak a
    // failure into the mutating statement nor publish a wrong view version.
    eo.fault_injection.enabled = true;
    eo.fault_injection.seed = opts.fault_seed;
    eo.fault_injection.rate = opts.fault_rate;
    eo.fault_injection.worker_lost_fraction = opts.worker_lost_fraction;
    eo.fault_tolerance.enable_recovery = true;
    eo.fault_tolerance.max_restores = 100000;
  }
  Database db(eo);

  // report.sql accumulates the statement history, so a failing case prints
  // the exact replayable script next to the seed.
  auto fail = [&](const std::string& what) {
    report.ok = false;
    report.failure = what;
    return report;
  };
  // Summed ivm_* counters across every statement, reported as a final
  // "ivm-totals" outcome: a sweep where deltas_applied stays 0 would mean
  // the incremental paths never ran and the oracle is vacuous.
  ExecStats totals;
  auto run = [&](SessionState* session,
                 const std::string& sql) -> Result<QueryResult> {
    Result<QueryResult> r = session == nullptr
                                ? db.Execute(sql)
                                : db.ExecuteForSession(session, sql);
    if (r.ok()) {
      totals.ivm_deltas_applied += r->stats.ivm_deltas_applied;
      totals.ivm_rows_maintained += r->stats.ivm_rows_maintained;
      totals.ivm_full_refreshes += r->stats.ivm_full_refreshes;
      totals.ivm_fallbacks += r->stats.ivm_fallbacks;
    }
    if (!r.ok()) {
      // Every statement in this mode is canonical and must be accepted; a
      // failure (kInternal or otherwise) fails the case, so record it as
      // an outcome for Describe().
      OracleOutcome o;
      o.name = sql.size() > 60 ? sql.substr(0, 57) + "..." : sql;
      o.status = r.status();
      report.outcomes.push_back(std::move(o));
    }
    return r;
  };

  {
    Status load = LoadCaseData(&db, c);
    if (!load.ok()) return fail("load failed: " + load.ToString());
  }
  for (const ViewDef& v : kViews) {
    std::string sql =
        std::string("CREATE MATERIALIZED VIEW ") + v.name + " AS " + v.body;
    report.sql += sql + ";\n";
    Result<QueryResult> r = run(nullptr, sql);
    if (!r.ok()) {
      return fail("view creation failed: " + r.status().ToString());
    }
  }

  // One reader session per MPP width; reads are serial, so they share the
  // engine but never race (width >1 forces real task partitioning).
  const int kWidths[] = {1, 2, 8};
  std::vector<SessionState> readers;
  readers.reserve(3);
  for (int w : kWidths) {
    EngineOptions ro = eo;
    ro.num_workers = w;
    if (w > 1) ro.mpp_min_rows_per_task = 1;
    readers.emplace_back(ro);
    readers.back().temp_scope = StringPrintf("ivmw%d:", w);
  }

  FuzzRng rng(c.case_seed * 0x9e3779b97f4a7c15ULL + 0x1d3a5f7b);
  const int64_t n = std::max<int64_t>(2, c.graph.num_nodes);
  const int kSteps = 8;
  for (int step = 0; step < kSteps; ++step) {
    // Occasionally pin the delta budget to 1 so the capped path (forced
    // full refresh instead of incremental fold) runs under the oracle too.
    const bool clamp = rng.Chance(20);
    const int64_t saved_cap = db.options().ivm_max_delta_rows;
    if (clamp) db.options().ivm_max_delta_rows = 1;

    std::vector<std::string> stmts;
    const int roll = static_cast<int>(rng.Range(0, 99));
    if (roll < 30) {
      std::string sql = "INSERT INTO edges VALUES ";
      const int64_t rows = rng.Range(1, 3);
      for (int64_t r = 0; r < rows; ++r) {
        if (r > 0) sql += ", ";
        sql += StringPrintf("(%lld, %lld, %lld.5)",
                            static_cast<long long>(rng.Range(1, n)),
                            static_cast<long long>(rng.Range(1, n)),
                            static_cast<long long>(rng.Range(1, 9)));
      }
      stmts.push_back(sql);
    } else if (roll < 50) {
      stmts.push_back(StringPrintf(
          "UPDATE edges SET weight = weight + 1.5 WHERE src = %lld",
          static_cast<long long>(rng.Range(1, n))));
    } else if (roll < 65) {
      // Deleting a whole source's edges retracts entire groups and often
      // the group MIN, driving the aggregate view's escalation path.
      stmts.push_back(
          StringPrintf("DELETE FROM edges WHERE src = %lld",
                       static_cast<long long>(rng.Range(1, n))));
    } else if (roll < 75) {
      stmts.push_back(StringPrintf(
          "UPDATE vertexstatus SET status = 1 - status WHERE MOD(node, 5) "
          "= %lld",
          static_cast<long long>(rng.Range(0, 4))));
    } else if (roll < 85) {
      stmts.push_back(std::string("REFRESH MATERIALIZED VIEW ") +
                      kViews[rng.Range(0, 3)].name);
    } else {
      // Rolled-back work must leave every view exactly where it was (the
      // registry marks views stale and recomputes on the next read).
      stmts.push_back("BEGIN");
      stmts.push_back(StringPrintf(
          "INSERT INTO edges VALUES (%lld, %lld, 2.5)",
          static_cast<long long>(rng.Range(1, n)),
          static_cast<long long>(rng.Range(1, n))));
      stmts.push_back("ROLLBACK");
    }
    for (const std::string& sql : stmts) {
      report.sql += sql + ";\n";
      Result<QueryResult> r = run(nullptr, sql);
      if (!r.ok()) {
        db.options().ivm_max_delta_rows = saved_cap;
        return fail(StringPrintf("step %d: mutation failed: %s", step,
                                 r.status().ToString().c_str()));
      }
    }
    db.options().ivm_max_delta_rows = saved_cap;

    // Oracle: every view, at every width, equals its defining query
    // re-executed from scratch on the current data.
    for (const ViewDef& v : kViews) {
      Result<QueryResult> expect = run(nullptr, v.body);
      if (!expect.ok()) {
        return fail(StringPrintf("step %d: recompute of %s failed: %s",
                                 step, v.name,
                                 expect.status().ToString().c_str()));
      }
      std::vector<std::vector<Value>> expected = TableRows(*expect->table);
      for (size_t wi = 0; wi < readers.size(); ++wi) {
        std::string read_sql = std::string("SELECT * FROM ") + v.name;
        Result<QueryResult> got = run(&readers[wi], read_sql);
        if (!got.ok()) {
          return fail(StringPrintf(
              "step %d: read of %s at width %d failed: %s", step, v.name,
              kWidths[wi], got.status().ToString().c_str()));
        }
        std::string diff =
            DiffRowSets(expected, TableRows(*got->table), opts.eps);
        if (!diff.empty()) {
          return fail(StringPrintf(
              "step %d: view %s at width %d diverged from its defining "
              "query: %s",
              step, v.name, kWidths[wi], diff.c_str()));
        }
      }
    }
  }
  OracleOutcome summary;
  summary.name = "ivm-totals";
  summary.status = Status::OK();
  summary.stats = totals;
  report.outcomes.push_back(std::move(summary));
  return report;
}

}  // namespace fuzz
}  // namespace dbspinner
