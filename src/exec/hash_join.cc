#include <algorithm>
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

// The join rows for the row pairs (lrows[i], rrows[i]) of `left` and
// `right`, as a dense table of `schema` = [left ++ right]; a right row of
// kNoMatch emits NULLs (left-outer padding). The nested-loop join's
// output; a hash probe emits views instead (PhysicalHashJoin::Probe).
TablePtr BuildJoinOutput(const Schema& schema, const Table& left,
                         const Table& right,
                         const std::vector<uint32_t>& lrows,
                         const std::vector<uint32_t>& rrows) {
  const size_t ln = left.num_columns();
  std::vector<ColumnVectorPtr> out;
  out.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c < ln) {
      out.push_back(left.column(c).Gather(lrows));
      continue;
    }
    auto col = std::make_shared<ColumnVector>(schema.column(c).type);
    col->AppendGathered(right.column(c - ln), rrows);
    out.push_back(std::move(col));
  }
  return Table::FromColumns(schema, std::move(out));
}

// The probe keys of `chunk` (its columns `cols`), all read at the rows
// `*rows`: in place when they share one source, else gathered into
// `*dense`, which keeps them alive.
KeyColumns ProbeKeys(const DataChunk& chunk, const std::vector<size_t>& cols,
                     RowSet* rows, std::vector<ColumnVectorPtr>* dense) {
  KeyColumns keys;
  bool shared = true;
  for (size_t c : cols) shared &= chunk.source(c) == chunk.source(cols[0]);
  if (shared) {
    for (size_t c : cols) keys.push_back(&chunk.column(c));
    *rows = chunk.rows(cols[0]);
    return keys;
  }
  for (size_t c : cols) {
    dense->push_back(chunk.Dense(c));
    keys.push_back(dense->back().get());
  }
  *rows = RowSet::Window(0, chunk.size());
  return keys;
}

// The chunk of the pairs (chunk position lpos[k], build row rrows[k]) with
// the output ordinals `cols` of [left ++ right]. Left ordinal c reads
// chunk column chunk_col[c] through its source's rows composed with
// `lpos`, once per source; a right one reads `right` through `rrows`
// (`padded` when some are kNoMatch).
DataChunk EmitPairs(const DataChunk& chunk, const Table& right,
                    const std::vector<size_t>& cols,
                    const std::vector<size_t>& chunk_col,
                    std::vector<uint32_t> lpos, std::vector<uint32_t> rrows,
                    bool padded) {
  const size_t ln = chunk_col.size();
  DataChunk out(lpos.size());
  // The left sources the output reads, in first-use order; the last one
  // is composed in place in `lpos`.
  std::vector<size_t> used;
  for (size_t c : cols) {
    if (c >= ln) continue;
    const size_t s = chunk.source(chunk_col[c]);
    if (std::find(used.begin(), used.end(), s) == used.end()) {
      used.push_back(s);
    }
  }
  constexpr size_t kUnset = static_cast<size_t>(-1);
  std::vector<size_t> out_source(chunk.num_sources(), kUnset);
  for (size_t u = 0; u < used.size(); ++u) {
    const RowSet in = chunk.source_rows(used[u]);
    const bool last = u + 1 == used.size();
    std::vector<uint32_t> ids =
        last ? std::move(lpos) : std::vector<uint32_t>(lpos.size());
    const uint32_t* pos = last ? ids.data() : lpos.data();
    if (in.sel != nullptr) {
      for (size_t k = 0; k < ids.size(); ++k) ids[k] = in.sel[pos[k]];
    } else {
      for (size_t k = 0; k < ids.size(); ++k) ids[k] = in.begin + pos[k];
    }
    out_source[used[u]] = out.AddList(std::move(ids), in.padded);
  }
  size_t right_source = kUnset;
  for (size_t c : cols) {
    if (c < ln) {
      out.AddColumn(chunk.column_ptr(chunk_col[c]),
                    out_source[chunk.source(chunk_col[c])]);
      continue;
    }
    if (right_source == kUnset) {
      right_source = out.AddList(std::move(rrows), padded);
    }
    out.AddColumn(right.column_ptr(c - ln), right_source);
  }
  return out;
}

}  // namespace

PhysicalHashJoin::ProbePlan PhysicalHashJoin::PlanProbe(
    std::vector<size_t> chunk_col, std::vector<size_t> out_cols) const {
  ProbePlan plan;
  plan.chunk_keys.reserve(left_keys_.size());
  for (size_t k : left_keys_) plan.chunk_keys.push_back(chunk_col[k]);
  plan.chunk_col = std::move(chunk_col);
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
    plan.residual_cols = std::move(refs);
  }
  return plan;
}

Result<DataChunk> PhysicalHashJoin::Probe(const DataChunk& chunk,
                                          const Table& right,
                                          const RowIndex& build,
                                          const ProbePlan& plan) const {
  const size_t n = chunk.size();
  const bool left_outer = type_ == JoinType::kLeft;

  // Every probe row's group head, for the whole chunk at once.
  RowSet key_rows;
  std::vector<ColumnVectorPtr> dense_keys;
  const KeyColumns keys =
      ProbeKeys(chunk, plan.chunk_keys, &key_rows, &dense_keys);
  thread_local std::vector<uint32_t> heads;
  heads.resize(n);
  build.FindAll(keys, key_rows, heads.data());

  // The pairs in probe-row order, each row's matches in chain order. A
  // LEFT probe without a residual pads its unmatched rows after them in
  // the same pass.
  const bool pad = left_outer && !plan.residual_eval;
  std::vector<uint32_t> lpos;
  std::vector<uint32_t> rrows;
  lpos.reserve(n);
  rrows.reserve(n);
  thread_local std::vector<uint32_t> unmatched;
  unmatched.clear();
  for (size_t i = 0; i < n; ++i) {
    uint32_t r = heads[i];
    if (r == kNoMatch) {
      if (pad) unmatched.push_back(static_cast<uint32_t>(i));
      continue;
    }
    do {
      lpos.push_back(static_cast<uint32_t>(i));
      rrows.push_back(r);
      r = build.Next(r);
    } while (r != kNoMatch);
  }
  if (!unmatched.empty()) {
    lpos.insert(lpos.end(), unmatched.begin(), unmatched.end());
    rrows.resize(lpos.size(), kNoMatch);
  }
  if (!plan.residual_eval) {
    return EmitPairs(chunk, right, plan.out_cols, plan.chunk_col,
                     std::move(lpos), std::move(rrows), !unmatched.empty());
  }

  // The residual reads its own columns through the candidate pairs; the
  // kept pairs move to the front of lpos/rrows.
  std::vector<uint32_t> keep;
  DBSP_RETURN_NOT_OK(plan.residual_eval->Filter(
      EmitPairs(chunk, right, plan.residual_cols, plan.chunk_col, lpos, rrows,
                false)
          .Input(),
      &keep));
  for (size_t k = 0; k < keep.size(); ++k) {
    lpos[k] = lpos[keep[k]];
    rrows[k] = rrows[keep[k]];
  }
  lpos.resize(keep.size());
  rrows.resize(keep.size());

  // LEFT OUTER: the probe rows no pair kept, NULL-padded after the pairs.
  // Kept pairs ascend by probe row.
  bool padded = false;
  if (left_outer) {
    const size_t kept = lpos.size();
    for (size_t i = 0, k = 0; i < n; ++i) {
      if (k < kept && lpos[k] == i) {
        while (k < kept && lpos[k] == i) ++k;
        continue;
      }
      lpos.push_back(static_cast<uint32_t>(i));
      rrows.push_back(kNoMatch);
      padded = true;
    }
  }
  return EmitPairs(chunk, right, plan.out_cols, plan.chunk_col,
                   std::move(lpos), std::move(rrows), padded);
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
  TablePtr out = BuildJoinOutput(output_schema_, *left, *right, lrows, rrows);
  ctx.stats.rows_materialized += static_cast<int64_t>(out->num_rows());
  return out;
}

}  // namespace dbspinner
