// Delta-driven (semi-naive) iteration: result equivalence against the
// naive full-recompute engine on the canonical workloads, execution-stat
// evidence that the rewrite actually restricts per-iteration work, and a
// differential sweep of generated queries with the delta oracle on vs off.

#include <gtest/gtest.h>

#include "engine/workloads.h"
#include "graph/generator.h"
#include "plan/plan_printer.h"
#include "test_util.h"
#include "testing/differential.h"
#include "testing/query_generator.h"

namespace dbspinner {
namespace {

using testing::ExpectSameRows;
using testing::MustQuery;

void SetDelta(Database* db, bool on) {
  db->options().optimizer.enable_delta_iteration = on;
  db->options().optimizer.enable_join_build_cache = on;
}

// Two databases over the same generated graph, one with the delta rewrite
// (and the loop-invariant build cache), one naive.
class DeltaEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph::GraphSpec spec;
    spec.kind = graph::GraphKind::kPreferentialAttachment;
    spec.num_nodes = 200;
    spec.num_edges = 900;
    spec.seed = 17;
    graph::EdgeList graph = graph::Generate(spec);
    SetDelta(&delta_db_, true);
    SetDelta(&naive_db_, false);
    ASSERT_TRUE(graph::LoadIntoDatabase(&delta_db_, graph, 0.7, 18).ok());
    ASSERT_TRUE(graph::LoadIntoDatabase(&naive_db_, graph, 0.7, 18).ok());
  }

  void ExpectEquivalent(const std::string& sql, double eps = 1e-6) {
    TablePtr with_delta = MustQuery(&delta_db_, sql);
    TablePtr naive = MustQuery(&naive_db_, sql);
    ExpectSameRows(with_delta, naive, eps);
  }

  Database delta_db_;
  Database naive_db_;
};

TEST_F(DeltaEquivalenceTest, PageRank) {
  ExpectEquivalent(workloads::PRQuery(10));
  ExpectEquivalent(workloads::PRVSQuery(10));
}

TEST_F(DeltaEquivalenceTest, Sssp) {
  ExpectEquivalent(workloads::SSSPQuery(12, 1, 2));
  ExpectEquivalent(workloads::SSSPVSQuery(12, 1, 2));
  ExpectEquivalent(workloads::SSSPDataConditionQuery(1, 2));
}

TEST_F(DeltaEquivalenceTest, ForestFire) {
  ExpectEquivalent(workloads::FFQuery(8, 1, 1000000));
  ExpectEquivalent(workloads::FFDeltaQuery(1, 1));
}

TEST_F(DeltaEquivalenceTest, SsspStatsShowRestrictedWork) {
  // SSSP converges: after the shortest-path frontier settles, the delta
  // shrinks, so the semi-naive probe side must touch fewer rows than the
  // naive engine recomputes (iterations * |cte|).
  std::string sql = workloads::SSSPQuery(12, 1, 2);
  auto with_delta = delta_db_.Execute(sql);
  auto naive = naive_db_.Execute(sql);
  ASSERT_TRUE(with_delta.ok()) << with_delta.status().ToString();
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();

  // Same loop trip count either way (the rewrite must not perturb
  // termination), and the naive engine never produces deltas.
  EXPECT_EQ(with_delta->stats.loop_iterations, naive->stats.loop_iterations);
  EXPECT_EQ(naive->stats.delta_rows, 0);
  EXPECT_EQ(naive->stats.delta_probe_rows, 0);

  EXPECT_GT(with_delta->stats.delta_rows, 0);
  EXPECT_GT(with_delta->stats.delta_probe_rows, 0);
  // The frontier across all iterations is smaller than full recompute.
  int64_t naive_driving_rows =
      naive->stats.loop_iterations * static_cast<int64_t>(200);
  EXPECT_LT(with_delta->stats.delta_probe_rows, naive_driving_rows);
  // The loop-invariant edges build side was reused across iterations.
  EXPECT_GT(with_delta->stats.build_cache_hits, 0);
  EXPECT_EQ(naive->stats.build_cache_hits, 0);
}

TEST_F(DeltaEquivalenceTest, ExplainShowsComputeDeltaOnlyWhenEnabled) {
  auto on = delta_db_.Plan(workloads::SSSPQuery(12, 1, 2));
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_NE(ExplainProgram(*on, false).find("ComputeDelta"),
            std::string::npos);

  auto off = naive_db_.Plan(workloads::SSSPQuery(12, 1, 2));
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_EQ(ExplainProgram(*off, false).find("ComputeDelta"),
            std::string::npos);
}

TEST_F(DeltaEquivalenceTest, MppDeltaAgreesAndProbesLess) {
  // Width-8 cluster: every worker probes one shared build, and the delta
  // engine drives the probes from the changed rows only, so it must probe
  // strictly fewer rows on a converging SSSP than the naive loop.
  for (Database* db : {&delta_db_, &naive_db_}) {
    db->options().num_workers = 8;
    db->options().mpp_min_rows_per_task = 1;
  }

  std::string sql = workloads::SSSPQuery(12, 1, 2);
  auto with_delta = delta_db_.Execute(sql);
  auto naive = naive_db_.Execute(sql);
  ASSERT_TRUE(with_delta.ok()) << with_delta.status().ToString();
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  ExpectSameRows(with_delta->table, naive->table, 1e-6);
  EXPECT_GT(with_delta->stats.kernel_rows_probe, 0);
  EXPECT_LT(with_delta->stats.kernel_rows_probe,
            naive->stats.kernel_rows_probe);
}

// DeltaRestrict must account delta work identically at every morsel size:
// delta_probe_rows counts driving rows kept by the restrict, however they
// were chunked. Row-at-a-time execution (one-row morsels) must not move any
// of the semi-naive bookkeeping, and the loop must converge in the same
// number of iterations.
TEST_F(DeltaEquivalenceTest, VectorizedTogglePreservesDeltaStats) {
  std::string sql = workloads::SSSPQuery(12, 1, 2);

  auto chunked = delta_db_.Execute(sql);
  ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();

  delta_db_.options().morsel_size = 1;
  auto rows = delta_db_.Execute(sql);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();

  ExpectSameRows(chunked->table, rows->table, 1e-6);
  EXPECT_EQ(chunked->stats.loop_iterations, rows->stats.loop_iterations);
  EXPECT_EQ(chunked->stats.renames, rows->stats.renames);
  EXPECT_EQ(chunked->stats.merge_updates, rows->stats.merge_updates);
  EXPECT_EQ(chunked->stats.delta_rows, rows->stats.delta_rows);
  EXPECT_EQ(chunked->stats.delta_probe_rows, rows->stats.delta_probe_rows);
  EXPECT_GT(chunked->stats.delta_probe_rows, 0);
  // The one-row run really split its pipelines into more morsels.
  EXPECT_GT(rows->stats.morsels_dispatched,
            chunked->stats.morsels_dispatched);
}

// Pairwise differential: delta-on vs delta-off over a stream of generated
// queries (all families; the iterative ones exercise both the rename and
// merge paths plus legality bail-outs). Statuses must match and, when both
// succeed, results must be row-identical up to float tolerance.
TEST(DeltaDifferentialTest, GeneratedQueriesAgreeOnDeltaToggle) {
  fuzz::QueryGenerator gen(2026);
  int compared = 0;
  int executed = 0;
  for (int i = 0; compared < 200 && i < 400; ++i) {
    fuzz::FuzzCase c = gen.NextCase();
    std::string sql = fuzz::RenderQuery(c.query);

    Database on;
    Database off;
    SetDelta(&on, true);
    SetDelta(&off, false);
    on.options().max_iterations_guard = 4000;
    off.options().max_iterations_guard = 4000;
    ASSERT_TRUE(fuzz::LoadCaseData(&on, c).ok()) << c.Label();
    ASSERT_TRUE(fuzz::LoadCaseData(&off, c).ok()) << c.Label();

    auto a = on.Query(sql);
    auto b = off.Query(sql);
    ++executed;
    ASSERT_EQ(a.ok(), b.ok())
        << c.Label() << "\n" << sql << "\ndelta-on:  "
        << a.status().ToString() << "\ndelta-off: " << b.status().ToString();
    if (!a.ok()) continue;  // both rejected identically
    ++compared;
    std::string diff = fuzz::DiffRowSets(fuzz::TableRows(**a),
                                         fuzz::TableRows(**b), 1e-6);
    ASSERT_EQ(diff, "") << c.Label() << "\n" << sql;
  }
  EXPECT_GE(compared, 200) << "only " << compared << " of " << executed
                           << " cases produced comparable results";
}

}  // namespace
}  // namespace dbspinner
