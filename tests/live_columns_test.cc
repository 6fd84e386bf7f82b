// Late materialization in fused pipelines (DESIGN.md §11, "Live columns"):
// a probe or project builds its chunk from only the columns that a later
// stage or the sink reads, and every stage above it reads through remapped
// ordinals. Each query here runs at widths 1 and 4 and morsel sizes 1 and
// 1024 and must match an answer computed directly from the inputs. Every
// chain has a column that exactly one later consumer reads: a LEFT JOIN
// residual, the next probe's key, an aggregate argument, a delta-restrict
// key.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/workloads.h"
#include "graph/generator.h"
#include "graph/reference_algorithms.h"
#include "test_util.h"

namespace dbspinner {
namespace {

using testing::ExpectSameRows;
using testing::MustExecute;
using testing::MustQuery;

// a(k, x, y, p, q) 400 rows, b(k, j, w) 120 rows, c(k, w, z) 90 rows: every
// a.k matches two b rows, b.k 50..59 match no a row, b.j 40..44 match no c
// row, and c keys repeat.
struct Rows {
  struct A { int64_t k, x, y, p, q; };
  struct B { int64_t k, j, w; };
  struct C { int64_t k, w, z; };
  std::vector<A> a;
  std::vector<B> b;
  std::vector<C> c;
};

Rows MakeRows() {
  Rows r;
  for (int64_t i = 0; i < 400; ++i) {
    r.a.push_back({i % 50, i, (i * 7) % 13, i % 3, 1000 - i});
  }
  for (int64_t i = 0; i < 120; ++i) {
    r.b.push_back({i % 60, (i * 11) % 45, i % 17});
  }
  for (int64_t i = 0; i < 90; ++i) {
    r.c.push_back({i % 40, (i * 5) % 23, 1000 + i});
  }
  return r;
}

std::string Tuple(const std::vector<int64_t>& values) {
  std::string out = "(";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(values[i]);
  }
  return out + ")";
}

void Load(Database* db, const Rows& r) {
  MustExecute(db,
              "CREATE TABLE a (k BIGINT, x BIGINT, y BIGINT, p BIGINT, "
              "q BIGINT)");
  MustExecute(db, "CREATE TABLE b (k BIGINT, j BIGINT, w BIGINT)");
  MustExecute(db, "CREATE TABLE c (k BIGINT, w BIGINT, z BIGINT)");
  std::string sql = "INSERT INTO a VALUES ";
  for (size_t i = 0; i < r.a.size(); ++i) {
    const Rows::A& t = r.a[i];
    sql += (i > 0 ? ", " : "") + Tuple({t.k, t.x, t.y, t.p, t.q});
  }
  MustExecute(db, sql);
  sql = "INSERT INTO b VALUES ";
  for (size_t i = 0; i < r.b.size(); ++i) {
    sql += (i > 0 ? ", " : "") + Tuple({r.b[i].k, r.b[i].j, r.b[i].w});
  }
  MustExecute(db, sql);
  sql = "INSERT INTO c VALUES ";
  for (size_t i = 0; i < r.c.size(); ++i) {
    sql += (i > 0 ? ", " : "") + Tuple({r.c[i].k, r.c[i].w, r.c[i].z});
  }
  MustExecute(db, sql);
}

// An all-BIGINT table of `rows`; std::nullopt is NULL.
using IntRows = std::vector<std::vector<std::optional<int64_t>>>;

TablePtr IntTable(size_t width, const IntRows& rows) {
  Schema schema;
  for (size_t c = 0; c < width; ++c) {
    schema.AddColumn("c" + std::to_string(c), TypeId::kInt64);
  }
  TablePtr t = Table::Make(schema);
  for (const auto& row : rows) {
    std::vector<Value> values;
    for (const auto& v : row) {
      values.push_back(v ? Value::Int64(*v) : Value::Null(TypeId::kInt64));
    }
    t->AppendRow(values);
  }
  return t;
}

// Runs `check` on a fresh database at every width and morsel size.
void ForEachShape(const std::function<void(Database*)>& load,
                  const std::function<void(Database*)>& check) {
  for (int workers : {1, 4}) {
    for (size_t morsel : {size_t{1}, size_t{1024}}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " morsel_size=" + std::to_string(morsel));
      Database db;
      db.options().num_workers = workers;
      db.options().mpp_min_rows_per_task = 1;
      db.options().morsel_size = morsel;
      load(&db);
      check(&db);
    }
  }
}

void ExpectQuery(const std::string& sql, const TablePtr& expected) {
  const Rows rows = MakeRows();
  ForEachShape([&](Database* db) { Load(db, rows); },
               [&](Database* db) {
                 ExpectSameRows(MustQuery(db, sql), expected);
               });
}

// b.w comes out of the first probe and only the second probe's residual
// reads it; c.w is a build column only the residual reads.
TEST(LiveColumnsTest, ColumnReadOnlyByLeftJoinResidual) {
  const Rows r = MakeRows();
  IntRows want;
  for (const auto& a : r.a) {
    for (const auto& b : r.b) {
      if (b.k != a.k) continue;
      bool matched = false;
      for (const auto& c : r.c) {
        if (c.k != b.j || !(c.w < b.w)) continue;
        want.push_back({a.k, a.x, c.z});
        matched = true;
      }
      if (!matched) want.push_back({a.k, a.x, std::nullopt});
    }
  }
  ExpectQuery(
      "SELECT a.k, a.x, c.z FROM a JOIN b ON a.k = b.k "
      "LEFT JOIN c ON b.j = c.k AND c.w < b.w",
      IntTable(3, want));
}

// b.j comes out of the first probe and only the second probe's key reads
// it.
TEST(LiveColumnsTest, ColumnReadOnlyByNextProbeKey) {
  const Rows r = MakeRows();
  IntRows want;
  for (const auto& a : r.a) {
    for (const auto& b : r.b) {
      if (b.k != a.k) continue;
      for (const auto& c : r.c) {
        if (c.k == b.j) want.push_back({a.y, c.z});
      }
    }
  }
  ExpectQuery(
      "SELECT a.y, c.z FROM a JOIN b ON a.k = b.k JOIN c ON b.j = c.k",
      IntTable(2, want));
}

// The second probe emits 5 + 3 + 3 = 11 columns; the aggregate reads a
// group key and one argument of them, and COUNT(*) reads none.
TEST(LiveColumnsTest, AggregateArgumentUnderElevenColumnProbe) {
  const Rows r = MakeRows();
  std::map<int64_t, std::pair<int64_t, int64_t>> groups;  // p -> sum, count
  for (const auto& a : r.a) {
    for (const auto& b : r.b) {
      if (b.k != a.k) continue;
      for (const auto& c : r.c) {
        if (c.k != b.j) continue;
        groups[a.p].first += c.z;
        groups[a.p].second += 1;
      }
    }
  }
  IntRows want;
  int64_t total = 0;
  for (const auto& [p, agg] : groups) {
    want.push_back({p, agg.first, agg.second});
    total += agg.second;
  }
  const std::string from =
      " FROM a JOIN b ON a.k = b.k JOIN c ON b.j = c.k";
  ExpectQuery("SELECT a.p, SUM(c.z), COUNT(*)" + from + " GROUP BY a.p",
              IntTable(3, want));
  ExpectQuery("SELECT COUNT(*)" + from, IntTable(1, {{total}}));
}

// A project's dead outputs are not evaluated, so an output that would
// overflow on every row fails nothing when no later stage reads it; a
// live one that reads a probe column still sees it.
TEST(LiveColumnsTest, ProjectEvaluatesOnlyLiveOutputs) {
  const Rows r = MakeRows();
  IntRows want;
  int64_t pairs = 0;
  for (const auto& a : r.a) {
    for (const auto& b : r.b) {
      if (b.k != a.k) continue;
      ++pairs;
      if (a.q + b.w > 900) want.push_back({a.x + b.w});
    }
  }
  ExpectQuery(
      "SELECT s FROM (SELECT a.q + b.w AS t, a.x + b.w AS s, a.y * b.j AS u "
      "FROM a JOIN b ON a.k = b.k) WHERE t > 900",
      IntTable(1, want));
  ExpectQuery(
      "SELECT COUNT(*) FROM (SELECT a.k, a.q * 9223372036854775807 AS big "
      "FROM a JOIN b ON a.k = b.k)",
      IntTable(1, {{pairs}}));
}

// --- the paper's loop bodies ------------------------------------------------

constexpr int kIters = 5;

void LoadGraph(Database* db, graph::EdgeList* graph,
               std::unordered_map<int64_t, int64_t>* status) {
  graph::GraphSpec spec;
  spec.num_nodes = 200;
  spec.num_edges = 800;
  spec.seed = 123;
  *graph = graph::Generate(spec);
  ASSERT_TRUE(graph::LoadIntoDatabase(db, *graph, 0.8, 99).ok());
  auto vs = db->catalog().Get("vertexstatus");
  ASSERT_TRUE(vs.ok());
  *status = graph::StatusMap(*(*vs)->table);
}

// PR-VS: the loop-invariant common result `edges JOIN vertexstatus` is a
// chain topped by a probe, so every column of it is live; Ri's second
// probe emits 11 columns and its aggregate reads 5 of them.
TEST(LiveColumnsTest, PageRankVsMatchesReference) {
  graph::EdgeList graph;
  std::unordered_map<int64_t, int64_t> status;
  ForEachShape(
      [&](Database* db) { LoadGraph(db, &graph, &status); },
      [&](Database* db) {
        auto plan = db->Execute("EXPLAIN " + workloads::PRVSQuery(kIters));
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        EXPECT_NE(plan->explain.find("common result '__common#1'"),
                  std::string::npos)
            << plan->explain;

        TablePtr got = MustQuery(db, workloads::PRVSQuery(kIters));
        std::map<int64_t, std::optional<double>> want;
        for (const auto& row : graph::ReferencePageRank(graph, kIters,
                                                        &status)) {
          want[row.node] = row.rank;
        }
        ASSERT_EQ(got->num_rows(), want.size());
        for (size_t i = 0; i < got->num_rows(); ++i) {
          const int64_t node = got->GetValue(i, 0).int64_value();
          ASSERT_TRUE(want.count(node)) << "node " << node;
          const Value rank = got->GetValue(i, 1);
          ASSERT_EQ(rank.is_null(), !want[node].has_value()) << node;
          if (!rank.is_null()) {
            EXPECT_NEAR(rank.AsDouble(), *want[node], 1e-9) << node;
          }
        }
      });
}

// SSSP-VS with delta iteration on: the driving scan of Ri is delta
// restricted by its node key.
TEST(LiveColumnsTest, DeltaRestrictedSsspVsMatchesReference) {
  graph::EdgeList graph;
  std::unordered_map<int64_t, int64_t> status;
  std::string sql = workloads::SSSPVSQuery(kIters, 1, 2);
  sql = sql.substr(0, sql.rfind("SELECT distance")) +
        "SELECT node, distance FROM sssp";
  ForEachShape(
      [&](Database* db) {
        db->options().optimizer.enable_delta_iteration = true;
        LoadGraph(db, &graph, &status);
      },
      [&](Database* db) {
        auto result = db->Execute(sql);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_GT(result->stats.delta_probe_rows, 0);
        std::map<int64_t, double> want;
        for (const auto& row : graph::ReferenceSssp(graph, kIters, 1,
                                                    &status)) {
          want[row.node] = row.distance;
        }
        const TablePtr& got = result->table;
        ASSERT_EQ(got->num_rows(), want.size());
        for (size_t i = 0; i < got->num_rows(); ++i) {
          const int64_t node = got->GetValue(i, 0).int64_value();
          ASSERT_TRUE(want.count(node)) << "node " << node;
          EXPECT_NEAR(got->GetValue(i, 1).AsDouble(), want[node], 1e-9)
              << "node " << node;
        }
      });
}

}  // namespace
}  // namespace dbspinner
