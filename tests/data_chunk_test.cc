// Unit and property tests for the morsel/chunk layer of the vectorized
// pipeline executor (exec/data_chunk.h, DESIGN.md §11): selection-vector
// refinement, null propagation through materialization, zero-length
// morsels, batch Gather/AppendRange equivalence against whole-column
// references, and bit-identical reassembly of random morsel splits.

#include "exec/data_chunk.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "storage/column_vector.h"
#include "storage/table.h"
#include "test_util.h"

namespace dbspinner {
namespace {

using testing::ExpectSameRows;
using testing::LoadTinyGraph;
using testing::MustExecute;
using testing::MustQuery;

Schema TwoColSchema() {
  Schema s;
  s.AddColumn("a", TypeId::kInt64);
  s.AddColumn("b", TypeId::kDouble);
  return s;
}

// n rows of (i, i/2.0) with every third row's b NULL.
TablePtr MakeTable(size_t n) {
  auto t = Table::Make(TwoColSchema());
  for (size_t i = 0; i < n; ++i) {
    t->AppendRow({Value::Int64(static_cast<int64_t>(i)),
                  i % 3 == 0 ? Value::Null(TypeId::kDouble)
                             : Value::Double(static_cast<double>(i) / 2.0)});
  }
  return t;
}

TEST(DataChunkTest, ContiguousWindowBasics) {
  TablePtr t = MakeTable(10);
  DataChunk c(t, 3, 4);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.rows(0).sel, nullptr);
  EXPECT_FALSE(c.empty());
  EXPECT_EQ(c.rows(0).RowAt(0), 3u);
  EXPECT_EQ(c.rows(1).RowAt(3), 6u);
}

TEST(DataChunkTest, RestrictTwiceComposesPositions) {
  TablePtr t = MakeTable(10);
  DataChunk c(t, 0, 10);
  c.Restrict({1, 4, 7, 9});
  EXPECT_NE(c.rows(0).sel, nullptr);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.rows(0).RowAt(2), 7u);
  // Restrict takes positions into the current view, not base row ids.
  c.Restrict({0, 2});
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.rows(0).RowAt(0), 1u);
  EXPECT_EQ(c.rows(1).RowAt(1), 7u);
}

TEST(DataChunkTest, RestrictOnContiguousWindowUsesPositions) {
  TablePtr t = MakeTable(10);
  DataChunk c(t, 5, 5);  // rows 5..9
  c.Restrict({1, 3});
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.rows(0).RowAt(0), 6u);
  EXPECT_EQ(c.rows(0).RowAt(1), 8u);
}

TEST(DataChunkTest, MaterializePropagatesNulls) {
  TablePtr t = MakeTable(9);
  DataChunk c(t, 0, 9);
  c.Restrict({0, 3, 4, 6});
  TablePtr m = c.Materialize(t->schema());
  ASSERT_EQ(m->num_rows(), 4u);
  // Rows 0, 3, 6 carry NULL b (i % 3 == 0); row 4 does not.
  EXPECT_TRUE(m->column(1).IsNull(0));
  EXPECT_TRUE(m->column(1).IsNull(1));
  EXPECT_FALSE(m->column(1).IsNull(2));
  EXPECT_TRUE(m->column(1).IsNull(3));
  EXPECT_EQ(m->column(0).Int64At(2), 4);
  EXPECT_DOUBLE_EQ(m->column(1).DoubleAt(2), 2.0);
}

TEST(DataChunkTest, EmptySelectionMaterializesEmptyTypedColumns) {
  TablePtr t = MakeTable(5);
  DataChunk c(t, 0, 5);
  c.Restrict({});
  EXPECT_TRUE(c.empty());
  TablePtr m = c.Materialize(t->schema());
  ASSERT_EQ(m->num_rows(), 0u);
  ASSERT_EQ(m->num_columns(), 2u);
  EXPECT_EQ(m->column(0).type(), TypeId::kInt64);
  EXPECT_EQ(m->column(1).type(), TypeId::kDouble);
}

TEST(DataChunkTest, SplitIntoMorselsCoversTableExactlyOnce) {
  TablePtr t = MakeTable(10);
  for (size_t ms : {1u, 3u, 10u, 64u}) {
    std::vector<DataChunk> morsels = SplitIntoMorsels(t, ms);
    size_t total = 0;
    uint32_t expect_next = 0;
    for (const DataChunk& m : morsels) {
      EXPECT_EQ(m.rows(0).sel, nullptr);
      EXPECT_EQ(m.rows(0).begin, expect_next);
      EXPECT_LE(m.size(), ms);
      expect_next += static_cast<uint32_t>(m.size());
      total += m.size();
    }
    EXPECT_EQ(total, 10u) << "morsel_size=" << ms;
  }
}

TEST(DataChunkTest, SplitOfEmptyTableYieldsNoWork) {
  TablePtr t = MakeTable(0);
  std::vector<DataChunk> morsels = SplitIntoMorsels(t, 4);
  size_t total = 0;
  for (const DataChunk& m : morsels) total += m.size();
  EXPECT_EQ(total, 0u);
}

TEST(DataChunkTest, MorselSizeZeroIsClampedNotInfinite) {
  // A zero morsel size must not hang or divide by zero.
  TablePtr t = MakeTable(5);
  std::vector<DataChunk> morsels = SplitIntoMorsels(t, 0);
  size_t total = 0;
  for (const DataChunk& m : morsels) total += m.size();
  EXPECT_EQ(total, 5u);
}

// ---- ColumnVector batch-path equivalence -----------------------------------

TEST(ColumnVectorBatchTest, GatherOfEmptySelectionIsEmptyAndTyped) {
  ColumnVector col(TypeId::kString);
  col.AppendString("x");
  col.AppendNull();
  ColumnVectorPtr out = col.Gather({});
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->size(), 0u);
  EXPECT_EQ(out->type(), TypeId::kString);
}

TEST(ColumnVectorBatchTest, AppendRangeMatchesPerRowAppend) {
  ColumnVector src(TypeId::kInt64);
  for (int i = 0; i < 20; ++i) {
    if (i % 5 == 0) {
      src.AppendNull();
    } else {
      src.AppendInt64(i * 11);
    }
  }
  ColumnVector batch(TypeId::kInt64);
  batch.AppendRange(src, 4, 9);
  ColumnVector loop(TypeId::kInt64);
  for (size_t i = 4; i < 13; ++i) loop.AppendFrom(src, i);
  ASSERT_EQ(batch.size(), loop.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch.IsNull(i), loop.IsNull(i)) << i;
    if (!batch.IsNull(i)) EXPECT_EQ(batch.Int64At(i), loop.Int64At(i)) << i;
  }
}

TEST(ColumnVectorBatchTest, GatherMatchesWholeColumnReference) {
  for (TypeId type : {TypeId::kInt64, TypeId::kDouble, TypeId::kString}) {
    ColumnVector src(type);
    for (int i = 0; i < 50; ++i) {
      if (i % 7 == 0) {
        src.AppendNull();
      } else if (type == TypeId::kInt64) {
        src.AppendInt64(i);
      } else if (type == TypeId::kDouble) {
        src.AppendDouble(i * 0.5);
      } else {
        src.AppendString("s" + std::to_string(i));
      }
    }
    std::vector<uint32_t> sel = {49, 0, 7, 7, 13, 21, 2};
    ColumnVectorPtr got = src.Gather(sel);
    ASSERT_EQ(got->size(), sel.size());
    for (size_t i = 0; i < sel.size(); ++i) {
      EXPECT_EQ(got->IsNull(i), src.IsNull(sel[i]));
      if (!got->IsNull(i)) {
        EXPECT_TRUE(got->EqualsAt(i, src, sel[i]))
            << "type " << static_cast<int>(type) << " pos " << i;
      }
    }
  }
}

// ---- Property: random splits reassemble bit-identically --------------------

TEST(DataChunkPropertyTest, RandomMorselSplitsReassembleIdentically) {
  std::mt19937_64 rng(20260808);
  for (int round = 0; round < 10; ++round) {
    size_t n = 1 + rng() % 2000;
    TablePtr t = MakeTable(n);
    TablePtr reference = DataChunk(t, 0, n).Materialize(t->schema());
    for (size_t ms : {size_t{1}, size_t{7}, size_t{1024}, n}) {
      std::vector<DataChunk> morsels = SplitIntoMorsels(t, ms);
      // Reassemble through the sink path (AppendTo accumulators).
      std::vector<ColumnVectorPtr> acc;
      for (size_t c = 0; c < t->num_columns(); ++c) {
        acc.push_back(
            std::make_shared<ColumnVector>(t->schema().column(c).type));
      }
      for (const DataChunk& m : morsels) m.AppendTo(&acc);
      TablePtr rebuilt = Table::FromColumns(t->schema(), std::move(acc));
      ASSERT_EQ(rebuilt->num_rows(), n);
      EXPECT_TRUE(Table::SameRows(*reference, *rebuilt))
          << "n=" << n << " morsel_size=" << ms;
      // Order must also match exactly, not just the multiset.
      for (size_t r = 0; r < n; ++r) {
        ASSERT_EQ(rebuilt->column(0).Int64At(r),
                  static_cast<int64_t>(r))
            << "n=" << n << " morsel_size=" << ms;
      }
    }
  }
}

// ---- End-to-end: groups straddling chunk boundaries ------------------------

// With morsel_size 4 a run of equal group keys straddles every chunk
// boundary; the aggregate (a pipeline breaker) must still see the full
// groups regardless of how its input was morselized.
TEST(DataChunkEndToEndTest, GroupsStraddlingChunkBoundaries) {
  // 30 rows, keys 0,0,0,1,1,1,2,... — groups of 3 vs morsels of 4.
  std::string insert = "INSERT INTO g VALUES ";
  Schema out_schema;
  out_schema.AddColumn("k", TypeId::kInt64);
  out_schema.AddColumn("sum", TypeId::kInt64);
  TablePtr want = Table::Make(out_schema);
  int64_t sum = 0;
  for (int i = 0; i < 30; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i / 3) + ", " + std::to_string(i) + ")";
    if (i >= 3) sum += i;
    if (i % 3 == 2 && sum > 0) {
      want->AppendRow({Value::Int64(i / 3), Value::Int64(sum)});
      sum = 0;
    }
  }
  for (size_t morsel : {size_t{1}, size_t{4}, size_t{1024}}) {
    Database db;
    db.options().morsel_size = morsel;
    MustExecute(&db, "CREATE TABLE g (k BIGINT, v BIGINT)");
    MustExecute(&db, insert);
    TablePtr got = MustQuery(
        &db, "SELECT k, SUM(v) FROM g WHERE v >= 3 GROUP BY k");
    ExpectSameRows(want, got);
  }
}

// A join+filter+project query over the shared tiny graph must return, at
// every morsel size including 1, the rows a nested loop over the graph's
// edge list computes.
TEST(DataChunkEndToEndTest, MorselSizeSweepMatchesLegacy) {
  for (size_t morsel : {size_t{1}, size_t{2}, size_t{1024}}) {
    Database db;
    db.options().morsel_size = morsel;
    LoadTinyGraph(&db);
    TablePtr edges = MustQuery(&db, "SELECT src, dst, weight FROM edges");
    TablePtr got =
        MustQuery(&db,
                  "SELECT e1.src, e2.dst, e1.weight * e2.weight "
                  "FROM edges AS e1 JOIN edges AS e2 ON e1.dst = e2.src "
                  "WHERE e1.weight >= 0.5");
    TablePtr want = Table::Make(got->schema());
    for (size_t a = 0; a < edges->num_rows(); ++a) {
      double wa = edges->GetValue(a, 2).double_value();
      if (wa < 0.5) continue;
      for (size_t b = 0; b < edges->num_rows(); ++b) {
        if (edges->GetValue(a, 1).int64_value() !=
            edges->GetValue(b, 0).int64_value()) {
          continue;
        }
        want->AppendRow({edges->GetValue(a, 0), edges->GetValue(b, 1),
                         Value::Double(wa * edges->GetValue(b, 2)
                                                .double_value())});
      }
    }
    ASSERT_GT(want->num_rows(), 0u);
    ExpectSameRows(want, got);
  }
}

}  // namespace
}  // namespace dbspinner
