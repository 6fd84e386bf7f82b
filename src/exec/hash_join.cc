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

Result<DataChunk> PhysicalHashJoin::Probe(const DataChunk& chunk,
                                          const Table& right,
                                          const RowIndex& index) const {
  const Table& left = chunk.table();
  const KeyColumns lkeys = KeyColumnsOf(left, left_keys_);
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
  TablePtr candidates =
      BuildJoinOutput(output_schema_, left, right, lrows, rrows);

  // The residual predicate filters candidate pairs.
  std::vector<uint32_t> sel;
  if (residual_eval_) {
    DBSP_RETURN_NOT_OK(residual_eval_->Filter(
        EvalInput(*candidates, RowSet::Window(0, candidates->num_rows())),
        &sel));
  } else {
    sel.resize(lrows.size());
    for (size_t i = 0; i < sel.size(); ++i) sel[i] = static_cast<uint32_t>(i);
  }
  const bool all_kept = sel.size() == lrows.size();

  // LEFT OUTER: NULL-padded rows for the probe rows no pair kept.
  std::vector<uint32_t> unmatched_l;
  if (left_outer) {
    std::vector<uint8_t> matched(n, 0);
    for (uint32_t p : sel) matched[lpos[p]] = 1;
    for (size_t i = 0; i < n; ++i) {
      if (!matched[i]) unmatched_l.push_back(chunk.RowAt(i));
    }
  }
  if (unmatched_l.empty()) {
    DataChunk out(candidates, 0, candidates->num_rows());
    if (!all_kept) out.SetSelection(std::move(sel));
    return out;
  }
  TablePtr out = all_kept ? candidates : candidates->Gather(sel);
  std::vector<uint32_t> unmatched_r(unmatched_l.size(), kNoMatch);
  out->AppendAll(
      *BuildJoinOutput(output_schema_, left, right, unmatched_l, unmatched_r));
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
  TablePtr out = BuildJoinOutput(output_schema_, *left, *right, lrows, rrows);
  if (type_ == JoinType::kLeft && !unmatched.empty()) {
    // Unmatched left rows follow every pair, NULL-padded.
    std::vector<uint32_t> none(unmatched.size(), kNoMatch);
    out->AppendAll(
        *BuildJoinOutput(output_schema_, *left, *right, unmatched, none));
  }
  ctx.stats.rows_materialized += static_cast<int64_t>(out->num_rows());
  return out;
}

}  // namespace dbspinner
