// Chunk columns as views (DESIGN.md §11, "The chunk model"): a hash probe
// emits its pairs as row-id lists over the probe chunk's sources and the
// build table, filters refine those lists, a project passes plain column
// references through, and only a sink that keeps rows gathers. Random
// chains of one to three probes (INNER and LEFT, with and without a
// residual), with filters and projects between them, run at morsel sizes
// 1, 7 and 1024 and widths 1 and 4 into the materialize and the aggregate
// sink. Keys hold NULLs and duplicates, and some INT64 builds are probed by
// DOUBLE keys. The rows, in order, must equal a reference that materializes
// every join row by row, one morsel at a time: a probe emits its pairs in
// probe-row order, each row's matches in ascending build-row order, and a
// LEFT probe pads its chunk's unmatched rows after them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "exec/physical_plan.h"
#include "exec/pipeline.h"
#include "mpp/thread_pool.h"
#include "testing/reference_eval.h"

namespace dbspinner {
namespace {

using Row = std::vector<Value>;

struct Env {
  Catalog catalog;
  ResultRegistry registry;
  EngineOptions options;
  ExecContext ctx;

  Env(size_t morsel, int width, ThreadPool* pool) {
    options.morsel_size = morsel;
    options.num_workers = width;
    options.mpp_min_rows_per_task = 1;
    ctx.catalog = &catalog;
    ctx.registry = &registry;
    ctx.options = &options;
    ctx.pool = width > 1 ? pool : nullptr;
  }
};

TablePtr TableOf(const Schema& schema, const std::vector<Row>& rows) {
  TablePtr t = Table::Make(schema);
  for (const Row& r : rows) t->AppendRow(r);
  return t;
}

std::vector<Row> RowsOf(const Table& t) {
  std::vector<Row> rows(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      rows[r].push_back(t.GetValue(r, c));
    }
  }
  return rows;
}

// Equal values of one type; doubles compare bit for bit.
bool SameCell(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.type() != b.type()) return false;
  if (a.type() == TypeId::kDouble) {
    const double x = a.double_value();
    const double y = b.double_value();
    return std::memcmp(&x, &y, sizeof x) == 0;
  }
  return a.Equals(b);
}

std::string Describe(const Row& row) {
  std::string out = "(";
  for (size_t c = 0; c < row.size(); ++c) {
    out += (c > 0 ? ", " : "") + row[c].ToString();
  }
  return out + ")";
}

void ExpectSameRowsInOrder(const std::vector<Row>& got,
                           const std::vector<Row>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size());
    for (size_t c = 0; c < got[r].size(); ++c) {
      ASSERT_TRUE(SameCell(got[r][c], want[r][c]))
          << "row " << r << ": " << Describe(got[r]) << " vs "
          << Describe(want[r]);
    }
  }
}

// The probe key equality the engine joins by: both non-NULL and
// numerically equal (an INT64 build probed by DOUBLE compares the
// build key's double image).
bool KeysMatch(const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return false;
  if (l.type() == TypeId::kInt64 && r.type() == TypeId::kInt64) {
    return l.int64_value() == r.int64_value();
  }
  return l.AsDouble() == r.AsDouble();
}

bool IsTrue(const Result<Value>& v) {
  return v.ok() && !v->is_null() && v->bool_value();
}

// One morsel's rows through every streaming operator of `chain` (bottom
// first), each stage materialized row by row.
std::vector<Row> ReferenceChunk(const std::vector<const PhysicalOp*>& chain,
                                const std::map<const PhysicalOp*, TablePtr>&
                                    builds,
                                const Schema& source, std::vector<Row> rows) {
  Schema schema = source;
  for (const PhysicalOp* op : chain) {
    const Schema& out_schema = op->output_schema();
    std::vector<Row> next;
    switch (op->pipeline_role()) {
      case PipelineRole::kFilter: {
        TablePtr in = TableOf(schema, rows);
        const auto* f = static_cast<const PhysicalFilter*>(op);
        for (size_t r = 0; r < rows.size(); ++r) {
          if (IsTrue(EvaluateExpr(f->predicate(), *in, r))) {
            next.push_back(rows[r]);
          }
        }
        break;
      }
      case PipelineRole::kProject: {
        TablePtr in = TableOf(schema, rows);
        const auto* p = static_cast<const PhysicalProject*>(op);
        for (size_t r = 0; r < rows.size(); ++r) {
          Row row;
          for (const auto& e : p->exprs()) {
            Result<Value> v = EvaluateExpr(*e, *in, r);
            EXPECT_TRUE(v.ok()) << v.status().ToString();
            row.push_back(v.ok() ? *v : Value::Null(e->type));
          }
          next.push_back(std::move(row));
        }
        break;
      }
      case PipelineRole::kHashProbe: {
        const auto* j = static_cast<const PhysicalHashJoin*>(op);
        const Table& right = *builds.at(op);
        std::vector<Row> padded;
        for (const Row& l : rows) {
          bool matched = false;
          for (size_t b = 0; b < right.num_rows(); ++b) {
            bool keys = true;
            for (size_t k = 0; k < j->left_keys().size() && keys; ++k) {
              keys = KeysMatch(l[j->left_keys()[k]],
                               right.GetValue(b, j->right_keys()[k]));
            }
            if (!keys) continue;
            Row pair = l;
            for (size_t c = 0; c < right.num_columns(); ++c) {
              pair.push_back(right.GetValue(b, c));
            }
            if (j->residual() != nullptr &&
                !IsTrue(EvaluateExpr(*j->residual(),
                                     *TableOf(out_schema, {pair}), 0))) {
              continue;
            }
            next.push_back(std::move(pair));
            matched = true;
          }
          if (!matched && j->join_type() == JoinType::kLeft) {
            Row pad = l;
            for (size_t c = 0; c < right.num_columns(); ++c) {
              pad.push_back(Value::Null(right.schema().column(c).type));
            }
            padded.push_back(std::move(pad));
          }
        }
        next.insert(next.end(), padded.begin(), padded.end());
        break;
      }
      default:
        ADD_FAILURE() << "unexpected operator " << op->Name();
    }
    rows = std::move(next);
    schema = out_schema;
  }
  return rows;
}

BoundExprPtr Col(const Schema& s, size_t c) {
  return MakeBoundColumnRef(c, s.column(c).type, s.column(c).name);
}

BoundExprPtr Cmp(BinaryOp op, BoundExprPtr l, BoundExprPtr r) {
  return MakeBoundBinary(op, std::move(l), std::move(r), TypeId::kBool);
}

std::vector<size_t> NumericColumns(const Schema& s) {
  std::vector<size_t> out;
  for (size_t c = 0; c < s.num_columns(); ++c) {
    if (IsNumeric(s.column(c).type)) out.push_back(c);
  }
  return out;
}

// A random chain of 1–3 probes over `src`, each with a filter or a project
// (or both) below it at random, and the build tables each probe reads.
struct Chain {
  PhysicalOpPtr top;
  std::vector<const PhysicalOp*> ops;  ///< bottom first
  std::map<const PhysicalOp*, TablePtr> builds;
};

class ChainMaker {
 public:
  explicit ChainMaker(uint32_t seed) : rng_(seed) {}

  size_t Pick(size_t n) { return rng_() % n; }
  bool Coin() { return rng_() % 2 == 0; }

  // Keys in 0..5 with NULLs, so keys repeat and some miss.
  Value Key(TypeId type) {
    if (Pick(6) == 0) return Value::Null(type);
    const int64_t k = static_cast<int64_t>(Pick(6));
    if (type == TypeId::kDouble) {
      // Every fourth DOUBLE key falls between the INT64 keys.
      return Value::Double(Pick(4) == 0 ? k + 0.5 : static_cast<double>(k));
    }
    return Value::Int64(k);
  }

  TablePtr Source(size_t rows) {
    Schema s;
    s.AddColumn("a", TypeId::kInt64);
    s.AddColumn("b", TypeId::kDouble);
    s.AddColumn("c", TypeId::kInt64);
    s.AddColumn("d", TypeId::kString);
    std::vector<Row> out;
    for (size_t r = 0; r < rows; ++r) {
      out.push_back({Key(TypeId::kInt64), Key(TypeId::kDouble),
                     Value::Int64(static_cast<int64_t>(r)),
                     Pick(5) == 0 ? Value::Null(TypeId::kString)
                                  : Value::String("s" + std::to_string(r))});
    }
    return TableOf(s, out);
  }

  TablePtr Build(int id) {
    Schema s;
    const std::string p = "r" + std::to_string(id) + "_";
    s.AddColumn(p + "k", TypeId::kInt64);
    s.AddColumn(p + "w", TypeId::kInt64);
    s.AddColumn(p + "x", TypeId::kDouble);
    std::vector<Row> out;
    const size_t n = Pick(14);
    for (size_t r = 0; r < n; ++r) {
      out.push_back({Key(TypeId::kInt64),
                     Pick(7) == 0 ? Value::Null(TypeId::kInt64)
                                  : Value::Int64(static_cast<int64_t>(Pick(9))),
                     Value::Double(static_cast<double>(Pick(100)) / 8)});
    }
    return TableOf(s, out);
  }

  Chain Make(const TablePtr& source) {
    Chain chain;
    PhysicalOpPtr top =
        std::make_unique<PhysicalScan>(source->schema(), false, "src");
    const int probes = 1 + static_cast<int>(Pick(3));
    for (int p = 0; p < probes; ++p) {
      if (Coin()) top = Filter(std::move(top), &chain);
      if (Coin()) top = Project(std::move(top), &chain);
      top = Probe(std::move(top), p, &chain);
    }
    if (Coin()) top = Filter(std::move(top), &chain);
    if (Coin()) top = Project(std::move(top), &chain);
    chain.top = std::move(top);
    return chain;
  }

 private:
  PhysicalOpPtr Filter(PhysicalOpPtr child, Chain* chain) {
    const Schema s = child->output_schema();
    const std::vector<size_t> nums = NumericColumns(s);
    const size_t c = nums[Pick(nums.size())];
    BoundExprPtr pred;
    if (s.column(c).type == TypeId::kInt64) {
      const auto bound = static_cast<int64_t>(Pick(4));
      pred = Cmp(Coin() ? BinaryOp::kGt : BinaryOp::kNe, Col(s, c),
                 MakeBoundConstant(Value::Int64(bound)));
    } else {
      pred = Cmp(BinaryOp::kLt, Col(s, c), MakeBoundConstant(Value::Double(4)));
    }
    auto op = std::make_unique<PhysicalFilter>(s, std::move(pred));
    op->AddChild(std::move(child));
    chain->ops.push_back(op.get());
    return op;
  }

  // A random non-empty subset of the columns, shuffled, that keeps a
  // numeric one; some become computed outputs.
  PhysicalOpPtr Project(PhysicalOpPtr child, Chain* chain) {
    const Schema s = child->output_schema();
    std::vector<size_t> order(s.num_columns());
    for (size_t c = 0; c < order.size(); ++c) order[c] = c;
    std::shuffle(order.begin(), order.end(), rng_);
    order.resize(1 + Pick(order.size()));
    const std::vector<size_t> nums = NumericColumns(s);
    if (NumericColumns(s.Select(order)).empty()) order.push_back(nums[0]);
    Schema out;
    std::vector<BoundExprPtr> exprs;
    for (size_t c : order) {
      const TypeId type = s.column(c).type;
      const std::string name = s.column(c).name + std::to_string(exprs.size());
      if (type == TypeId::kInt64 && Pick(3) == 0) {
        exprs.push_back(MakeBoundBinary(BinaryOp::kAdd, Col(s, c),
                                        MakeBoundConstant(Value::Int64(1)),
                                        TypeId::kInt64));
      } else if (type == TypeId::kDouble && Pick(3) == 0) {
        exprs.push_back(MakeBoundBinary(BinaryOp::kMul, Col(s, c),
                                        MakeBoundConstant(Value::Double(2)),
                                        TypeId::kDouble));
      } else {
        exprs.push_back(Col(s, c));
      }
      out.AddColumn(name, type);
    }
    auto op = std::make_unique<PhysicalProject>(out, std::move(exprs));
    op->AddChild(std::move(child));
    chain->ops.push_back(op.get());
    return op;
  }

  PhysicalOpPtr Probe(PhysicalOpPtr child, int id, Chain* chain) {
    const Schema ls = child->output_schema();
    TablePtr build = Build(id);
    const std::string name = "build" + std::to_string(id);
    Schema s = ls;
    for (size_t c = 0; c < build->num_columns(); ++c) {
      s.AddColumn(build->schema().column(c).name,
                  build->schema().column(c).type);
    }
    const std::vector<size_t> nums = NumericColumns(ls);
    const size_t key = nums[Pick(nums.size())];
    const size_t ln = ls.num_columns();
    BoundExprPtr residual;
    if (Coin()) {
      // A left numeric column against the build's w or x.
      const size_t l = nums[Pick(nums.size())];
      residual = Cmp(Coin() ? BinaryOp::kLe : BinaryOp::kGt, Col(s, l),
                     Col(s, ln + 1 + Pick(2)));
    }
    auto op = std::make_unique<PhysicalHashJoin>(
        s, Coin() ? JoinType::kLeft : JoinType::kInner,
        std::vector<size_t>{key}, std::vector<size_t>{0}, std::move(residual));
    op->AddChild(std::move(child));
    op->AddChild(std::make_unique<PhysicalScan>(build->schema(), false, name));
    chain->ops.push_back(op.get());
    chain->builds[op.get()] = build;
    return op;
  }

  std::mt19937 rng_;
};

// The chain's rows, morsel by morsel, through the reference.
std::vector<Row> ReferenceRows(const Chain& chain, const Table& source,
                               size_t morsel) {
  std::vector<Row> src = RowsOf(source);
  std::vector<Row> out;
  for (size_t begin = 0; begin < src.size(); begin += morsel) {
    const size_t end = std::min(src.size(), begin + morsel);
    std::vector<Row> part = ReferenceChunk(
        chain.ops, chain.builds, source.schema(),
        std::vector<Row>(src.begin() + begin, src.begin() + end));
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

// GROUP BY `group` with COUNT(*), COUNT(`counted`), SUM and MIN of the
// INT64 column `summed` (none when it is past the last column), over
// `rows` in order: groups in first-seen order.
std::vector<Row> ReferenceAggregate(const std::vector<Row>& rows, size_t group,
                                    size_t counted, size_t summed) {
  std::vector<Row> groups;
  std::vector<Value> keys;
  for (const Row& r : rows) {
    size_t g = 0;
    while (g < keys.size() && !(keys[g].is_null() && r[group].is_null()) &&
           !(!keys[g].is_null() && !r[group].is_null() &&
             keys[g].Equals(r[group]))) {
      ++g;
    }
    if (g == keys.size()) {
      keys.push_back(r[group]);
      groups.push_back({r[group], Value::Int64(0), Value::Int64(0),
                        Value::Null(TypeId::kInt64),
                        Value::Null(TypeId::kInt64)});
    }
    Row& acc = groups[g];
    acc[1] = Value::Int64(acc[1].int64_value() + 1);
    if (!r[counted].is_null()) {
      acc[2] = Value::Int64(acc[2].int64_value() + 1);
    }
    if (summed >= r.size() || r[summed].is_null()) continue;
    const Value& v = r[summed];
    acc[3] = Value::Int64((acc[3].is_null() ? 0 : acc[3].int64_value()) +
                          v.int64_value());
    if (acc[4].is_null() || v.int64_value() < acc[4].int64_value()) acc[4] = v;
  }
  return groups;
}

// A hash aggregate over `chain`'s top: GROUP BY a random column, with
// COUNT(*), COUNT(col), SUM(int col) and MIN(int col). Returns the
// reference ordinals through the out-parameters.
PhysicalOpPtr Aggregate(PhysicalOpPtr child, std::mt19937* rng,
                        size_t* group, size_t* counted, size_t* summed) {
  const Schema s = child->output_schema();
  *group = (*rng)() % s.num_columns();
  *counted = (*rng)() % s.num_columns();
  std::vector<size_t> ints;
  for (size_t c = 0; c < s.num_columns(); ++c) {
    if (s.column(c).type == TypeId::kInt64) ints.push_back(c);
  }
  *summed = ints.empty() ? s.num_columns() : ints[(*rng)() % ints.size()];
  Schema out;
  out.AddColumn("g", s.column(*group).type);
  out.AddColumn("n", TypeId::kInt64);
  out.AddColumn("nc", TypeId::kInt64);
  std::vector<AggregateSpec> aggs(2);
  aggs[0].kind = AggKind::kCountStar;
  aggs[1].kind = AggKind::kCount;
  aggs[1].arg = Col(s, *counted);
  if (!ints.empty()) {
    out.AddColumn("sum", TypeId::kInt64);
    out.AddColumn("min", TypeId::kInt64);
    AggregateSpec sum;
    sum.kind = AggKind::kSum;
    sum.arg = Col(s, *summed);
    AggregateSpec min;
    min.kind = AggKind::kMin;
    min.arg = Col(s, *summed);
    aggs.push_back(std::move(sum));
    aggs.push_back(std::move(min));
  }
  std::vector<BoundExprPtr> groups;
  groups.push_back(Col(s, *group));
  auto op = std::make_unique<PhysicalHashAggregate>(out, std::move(groups),
                                                    std::move(aggs));
  op->AddChild(std::move(child));
  return op;
}

TEST(ProbeViewTest, RandomChainsMatchMaterializedJoins) {
  ThreadPool pool(4);
  size_t checked = 0;
  for (uint32_t seed = 1; seed <= 200; ++seed) {
    ChainMaker maker(seed);
    const TablePtr source = maker.Source(maker.Pick(60));
    Chain chain = maker.Make(source);
    std::mt19937 rng(seed);
    size_t group = 0, counted = 0, summed = 0;
    PhysicalOpPtr agg =
        Aggregate(std::move(chain.top), &rng, &group, &counted, &summed);
    const PhysicalOp& materialize = *agg->children()[0];
    for (size_t morsel : {size_t{1}, size_t{7}, size_t{1024}}) {
      const std::vector<Row> want = ReferenceRows(chain, *source, morsel);
      std::vector<Row> want_agg =
          ReferenceAggregate(want, group, counted, summed);
      if (summed == materialize.output_schema().num_columns()) {
        for (Row& r : want_agg) r.resize(3);
      }
      for (int width : {1, 4}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " morsel=" + std::to_string(morsel) +
                     " width=" + std::to_string(width) + "\n" +
                     agg->ToString());
        Env env(morsel, width, &pool);
        env.registry.Put("src", source);
        for (const auto& [op, build] : chain.builds) {
          const auto* scan =
              static_cast<const PhysicalScan*>(op->children()[1].get());
          env.registry.Put(scan->scan_name(), build);
        }
        Result<TablePtr> rows = ExecuteOp(materialize, env.ctx);
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        ExpectSameRowsInOrder(RowsOf(**rows), want);
        Result<TablePtr> grouped = ExecuteOp(*agg, env.ctx);
        ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
        std::vector<Row> got = RowsOf(**grouped);
        if (width == 1) {
          ExpectSameRowsInOrder(got, want_agg);
        } else {
          // Partials merge in worker-slot order: compare the groups sorted.
          auto by_text = [](const Row& a, const Row& b) {
            return Describe(a) < Describe(b);
          };
          std::sort(got.begin(), got.end(), by_text);
          std::vector<Row> sorted = want_agg;
          std::sort(sorted.begin(), sorted.end(), by_text);
          ExpectSameRowsInOrder(got, sorted);
        }
        checked += want.size();
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

// One morsel, a LEFT probe whose build matches nothing: every right column
// is a padded NULL read through the view.
class ProbeViewLeftPadTest : public ::testing::Test {
 protected:
  ProbeViewLeftPadTest() : env_(1024, 1, nullptr) {
    Schema ls;
    ls.AddColumn("a", TypeId::kInt64);
    left_ = TableOf(ls, {{Value::Int64(1)}, {Value::Int64(2)}});
    Schema rs;
    rs.AddColumn("k", TypeId::kInt64);
    rs.AddColumn("w", TypeId::kInt64);
    right_ = TableOf(rs, {{Value::Int64(2), Value::Int64(7)}});
    env_.registry.Put("l", left_);
    env_.registry.Put("r", right_);
    join_schema_ = ls;
    join_schema_.AddColumn("k", TypeId::kInt64);
    join_schema_.AddColumn("w", TypeId::kInt64);
  }

  // l LEFT JOIN r ON l.a = r.k: (1, NULL, NULL) is padded after (2, 2, 7).
  PhysicalOpPtr Join() const {
    auto join = std::make_unique<PhysicalHashJoin>(
        join_schema_, JoinType::kLeft, std::vector<size_t>{0},
        std::vector<size_t>{0}, nullptr);
    join->AddChild(
        std::make_unique<PhysicalScan>(left_->schema(), false, "l"));
    join->AddChild(
        std::make_unique<PhysicalScan>(right_->schema(), false, "r"));
    return join;
  }

  std::vector<Row> Run(const PhysicalOp& op) {
    Result<TablePtr> out = ExecuteOp(op, env_.ctx);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? RowsOf(**out) : std::vector<Row>{};
  }

  Env env_;
  TablePtr left_;
  TablePtr right_;
  Schema join_schema_;
};

const Value kNullInt = Value::Null(TypeId::kInt64);

TEST_F(ProbeViewLeftPadTest, MaterializeSinkReadsNull) {
  ExpectSameRowsInOrder(
      Run(*Join()),
      {{Value::Int64(2), Value::Int64(2), Value::Int64(7)},
       {Value::Int64(1), kNullInt, kNullInt}});
}

TEST_F(ProbeViewLeftPadTest, FilterReadsNull) {
  // w < 100 is NULL on the padded row, so only the matched row passes.
  auto filter = std::make_unique<PhysicalFilter>(
      join_schema_, Cmp(BinaryOp::kLt, Col(join_schema_, 2),
                        MakeBoundConstant(Value::Int64(100))));
  filter->AddChild(Join());
  ExpectSameRowsInOrder(
      Run(*filter), {{Value::Int64(2), Value::Int64(2), Value::Int64(7)}});
}

TEST_F(ProbeViewLeftPadTest, ProjectReadsNull) {
  Schema out;
  out.AddColumn("w", TypeId::kInt64);
  out.AddColumn("w1", TypeId::kInt64);
  std::vector<BoundExprPtr> exprs;
  exprs.push_back(Col(join_schema_, 2));
  exprs.push_back(MakeBoundBinary(BinaryOp::kAdd, Col(join_schema_, 2),
                                  MakeBoundConstant(Value::Int64(1)),
                                  TypeId::kInt64));
  auto project = std::make_unique<PhysicalProject>(out, std::move(exprs));
  project->AddChild(Join());
  ExpectSameRowsInOrder(Run(*project), {{Value::Int64(7), Value::Int64(8)},
                                        {kNullInt, kNullInt}});
}

TEST_F(ProbeViewLeftPadTest, AggregateKeyAndArgumentReadNull) {
  // GROUP BY w with COUNT(*), COUNT(k) and SUM(w): the padded row is the
  // NULL group, and neither COUNT(k) nor SUM(w) counts it.
  Schema out;
  out.AddColumn("w", TypeId::kInt64);
  out.AddColumn("n", TypeId::kInt64);
  out.AddColumn("nk", TypeId::kInt64);
  out.AddColumn("sum", TypeId::kInt64);
  std::vector<AggregateSpec> aggs(3);
  aggs[0].kind = AggKind::kCountStar;
  aggs[1].kind = AggKind::kCount;
  aggs[1].arg = Col(join_schema_, 1);
  aggs[2].kind = AggKind::kSum;
  aggs[2].arg = Col(join_schema_, 2);
  std::vector<BoundExprPtr> groups;
  groups.push_back(Col(join_schema_, 2));
  auto agg = std::make_unique<PhysicalHashAggregate>(out, std::move(groups),
                                                     std::move(aggs));
  agg->AddChild(Join());
  ExpectSameRowsInOrder(
      Run(*agg),
      {{Value::Int64(7), Value::Int64(1), Value::Int64(1), Value::Int64(7)},
       {kNullInt, Value::Int64(1), Value::Int64(0), kNullInt}});
}

TEST(ProbeViewUnitTest, AllPassFilterOverOneMorselReturnsInputTable) {
  Env env(1024, 1, nullptr);
  Schema s;
  s.AddColumn("a", TypeId::kInt64);
  TablePtr t = TableOf(s, {{Value::Int64(1)}, {Value::Int64(2)}});
  env.registry.Put("t", t);
  auto filter = std::make_unique<PhysicalFilter>(
      s, Cmp(BinaryOp::kGt, Col(s, 0), MakeBoundConstant(Value::Int64(0))));
  filter->AddChild(std::make_unique<PhysicalScan>(s, false, "t"));
  Result<TablePtr> out = ExecuteOp(*filter, env.ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->get(), t.get());
}

}  // namespace
}  // namespace dbspinner
