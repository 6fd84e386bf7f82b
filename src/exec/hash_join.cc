#include <algorithm>
#include <numeric>
#include <optional>

#include "exec/physical_plan.h"
#include "exec/pipeline.h"
#include "exec/row_index.h"
#include "expr/vector_eval.h"

namespace dbspinner {

std::string PhysicalHashJoin::Describe() const {
  std::string out = type_ == JoinType::kLeft ? "LEFT keys:" : "INNER keys:";
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(left_keys_[i]) + "=" + std::to_string(right_keys_[i]);
  }
  if (residual_) out += " residual:" + residual_->ToString();
  return out;
}

namespace {

// The join rows for the row pairs (lrows[i], rrows[i]), restricted to the
// ordinals `cols` (ascending) of `join_schema` = [left ++ right], as a
// table of `schema`. Left ordinal c reads column chunk_col[c] of `left`
// (chunk_col has one entry per left ordinal) and keeps its type; a right
// one is typed as `join_schema`, and a right row of kNoMatch emits NULLs
// (left-outer padding). Every join's output is gathered here, column by
// column.
TablePtr BuildJoinOutput(const Schema& join_schema, const Schema& schema,
                         const std::vector<size_t>& cols,
                         const std::vector<size_t>& chunk_col,
                         const Table& left, const Table& right,
                         const std::vector<uint32_t>& lrows,
                         const std::vector<uint32_t>& rrows) {
  const size_t ln = chunk_col.size();
  std::vector<ColumnVectorPtr> out;
  out.reserve(cols.size());
  for (size_t c : cols) {
    if (c < ln) {
      out.push_back(left.column(chunk_col[c]).Gather(lrows));
      continue;
    }
    auto col = std::make_shared<ColumnVector>(join_schema.column(c).type);
    col->AppendGathered(right.column(c - ln), rrows);
    out.push_back(std::move(col));
  }
  return Table::FromColumns(schema, std::move(out));
}

}  // namespace

PhysicalHashJoin::ProbePlan PhysicalHashJoin::PlanProbe(
    std::vector<size_t> chunk_col, std::vector<size_t> out_cols) const {
  ProbePlan plan;
  plan.chunk_keys.reserve(left_keys_.size());
  for (size_t k : left_keys_) plan.chunk_keys.push_back(chunk_col[k]);
  plan.chunk_col = std::move(chunk_col);
  plan.out_schema = output_schema_.Select(out_cols);
  plan.out_cols = std::move(out_cols);
  if (residual_) {
    std::vector<size_t> refs;
    residual_->CollectColumnRefs(&refs);
    std::sort(refs.begin(), refs.end());
    refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
    std::vector<size_t> to_residual(output_schema_.num_columns(), 0);
    for (size_t i = 0; i < refs.size(); ++i) to_residual[refs[i]] = i;
    plan.residual = residual_->Clone();
    plan.residual->RemapColumns(to_residual);
    plan.residual_eval.emplace(*plan.residual);
    plan.residual_schema = output_schema_.Select(refs);
    plan.residual_cols = std::move(refs);
  }
  return plan;
}

Result<DataChunk> PhysicalHashJoin::Probe(const DataChunk& chunk,
                                          const Table& right,
                                          const RowIndex& index,
                                          const ProbePlan& plan) const {
  const Table& left = chunk.table();
  const KeyColumns lkeys = KeyColumnsOf(left, plan.chunk_keys);
  RowIndex scratch;
  const RowIndex& build = index.Fit(lkeys, &scratch);
  size_t n = chunk.size();

  // Candidate pairs. For LEFT OUTER, lpos[i] is the chunk position of pair
  // i's probe row; a probe row lives in exactly one chunk, so chunk-local
  // tracking of unmatched rows equals a global scan.
  const bool left_outer = type_ == JoinType::kLeft;
  std::vector<uint32_t> lrows, rrows, lpos;
  lrows.reserve(n);
  rrows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uint32_t row = chunk.RowAt(i);
    for (uint32_t r = build.Find(lkeys, row); r != kNoMatch;
         r = build.Next(r)) {
      lrows.push_back(row);
      rrows.push_back(r);
      if (left_outer) lpos.push_back(static_cast<uint32_t>(i));
    }
  }

  // The residual filters the candidate pairs, reading only its own
  // columns; the kept pairs move to the front of lrows/rrows.
  if (plan.residual_eval) {
    TablePtr candidates = BuildJoinOutput(
        output_schema_, plan.residual_schema, plan.residual_cols,
        plan.chunk_col, left, right, lrows, rrows);
    std::vector<uint32_t> sel;
    DBSP_RETURN_NOT_OK(plan.residual_eval->Filter(
        EvalInput(*candidates, RowSet::Window(0, candidates->num_rows())),
        &sel));
    for (size_t k = 0; k < sel.size(); ++k) {
      lrows[k] = lrows[sel[k]];
      rrows[k] = rrows[sel[k]];
      if (left_outer) lpos[k] = lpos[sel[k]];
    }
    lrows.resize(sel.size());
    rrows.resize(sel.size());
    if (left_outer) lpos.resize(sel.size());
  }

  // LEFT OUTER: NULL-padded rows for the probe rows no pair kept.
  if (left_outer) {
    std::vector<uint8_t> matched(n, 0);
    for (uint32_t p : lpos) matched[p] = 1;
    for (size_t i = 0; i < n; ++i) {
      if (matched[i]) continue;
      lrows.push_back(chunk.RowAt(i));
      rrows.push_back(kNoMatch);
    }
  }
  TablePtr out =
      BuildJoinOutput(output_schema_, plan.out_schema, plan.out_cols,
                      plan.chunk_col, left, right, lrows, rrows);
  return DataChunk(out, 0, out->num_rows());
}

std::shared_ptr<const RowIndex> PhysicalHashJoin::GetOrBuildHash(
    ExecContext& ctx, const TablePtr& right,
    const std::vector<TypeId>& probe_types) const {
  const bool cache_enabled =
      ctx.options != nullptr && ctx.options->optimizer.enable_join_build_cache;
  if (cache_enabled) {
    auto it = ctx.join_builds.find(this);
    if (it != ctx.join_builds.end() && it->second.table == right &&
        it->second.map->Accepts(probe_types)) {
      ++ctx.stats.build_cache_hits;
      return it->second.map;
    }
  }
  auto build = std::make_shared<const RowIndex>(RowIndex::Build(
      KeyColumnsOf(*right, right_keys_), probe_types, RowIndex::Nulls::kSkip));
  if (cache_enabled) {
    ExecContext::JoinBuildState& slot = ctx.join_builds[this];
    slot.table = right;
    slot.map = build;
  }
  return build;
}

Result<TablePtr> PhysicalNestedLoopJoin::Execute(ExecContext& ctx) const {
  DBSP_ASSIGN_OR_RETURN(TablePtr left, ExecuteOp(*children_[0], ctx));
  DBSP_ASSIGN_OR_RETURN(TablePtr right, ExecuteOp(*children_[1], ctx));

  // Pairs (i, j) in left-major order: the condition runs for one left row,
  // pinned, against every right row at a time.
  const size_t ln = left->num_rows();
  const size_t rn = right->num_rows();
  std::vector<uint32_t> lrows, rrows, unmatched;
  std::vector<uint32_t> pass;
  std::optional<CompiledExpr> condition;
  if (condition_) condition.emplace(*condition_);
  for (size_t i = 0; i < ln; ++i) {
    pass.clear();
    if (condition) {
      EvalInput in(*right, RowSet::Window(0, rn));
      in.pinned = left.get();
      in.pinned_row = static_cast<uint32_t>(i);
      DBSP_RETURN_NOT_OK(condition->Filter(in, &pass));
    } else {
      for (size_t j = 0; j < rn; ++j) pass.push_back(static_cast<uint32_t>(j));
    }
    if (pass.empty()) unmatched.push_back(static_cast<uint32_t>(i));
    lrows.insert(lrows.end(), pass.size(), static_cast<uint32_t>(i));
    rrows.insert(rrows.end(), pass.begin(), pass.end());
  }
  if (type_ == JoinType::kLeft) {
    // Unmatched left rows follow every pair, NULL-padded.
    lrows.insert(lrows.end(), unmatched.begin(), unmatched.end());
    rrows.insert(rrows.end(), unmatched.size(), kNoMatch);
  }
  std::vector<size_t> cols(output_schema_.num_columns());
  std::iota(cols.begin(), cols.end(), size_t{0});
  const std::vector<size_t> left_cols(cols.begin(),
                                      cols.begin() + left->num_columns());
  TablePtr out = BuildJoinOutput(output_schema_, output_schema_, cols,
                                 left_cols, *left, *right, lrows, rrows);
  ctx.stats.rows_materialized += static_cast<int64_t>(out->num_rows());
  return out;
}

}  // namespace dbspinner
