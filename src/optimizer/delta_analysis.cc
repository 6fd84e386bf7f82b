// Delta-driven (semi-naive) iteration: legality analysis, plan surgery and
// step emission.
//
// A merge-update-shaped iterative body recomputes a value per key from the
// CTE's own rows plus loop-invariant inputs. Once the loop starts converging,
// most keys recompute to exactly the value they already carry, so joining the
// full CTE every iteration is wasted work. This rewrite restricts the
// *driving* self-scan of Ri to the keys whose recomputation could differ
// this iteration ("affected keys"):
//
//   affected = keys of rows that changed last iteration (the delta)
//            U keys whose rows *read* a changed row through a secondary
//              self-reference (found by per-secondary dependency joins)
//
// Legality (conservative — bail means "run naive", never "wrong answer"):
//   * tracing the CTE key column from the root of Ri downward through
//     Project (bare column ref), Filter, Distinct and Aggregate (key must be
//     a bare-colref group column) reaches a scan of the CTE — the driving
//     scan — at exactly the CTE's key column, so Ri's output keys are a
//     subset of the current CTE keys and output rows factor by key;
//   * the driving scan is not on the null-padded side of a LEFT join;
//   * every other relation of the join region is either loop-invariant
//     (reads no result written inside this loop's body) or a secondary
//     self-reference (a Filter chain over a scan of the CTE);
//   * each secondary's join component (connectivity over conjuncts that do
//     not touch the driving relation) contains no other varying relation,
//     and some equality conjunct links the driving key column to a component
//     column of the same type (the "key link") — it maps changed secondary
//     rows back to the driving keys that read them.
//
// Soundness notes:
//   * the delta carries BOTH versions of a changed row, so a filter above a
//     secondary catches rows that left the filtered set as well as rows that
//     entered it;
//   * dependency joins drop conjuncts that touch the driving relation,
//     which only grows the affected set (a superset of the keys that truly
//     change). Intra-component conjuncts are kept, including LEFT-join ON
//     equalities: any match-set flip under a LEFT join is witnessed by a
//     delta row satisfying the ON condition (the delta has both versions),
//     and pad rows carry NULL link keys which never equal a driving key;
//   * on the rename path working' = restricted Ri UNION ALL carry, where the
//     carry keeps the CTE rows of unaffected keys (their recomputation would
//     reproduce them bit-for-bit, by induction on iterations: the first
//     iteration's delta is the whole CTE, so nothing is carried); on the
//     merge path the merge itself supplies unaffected rows and no carry is
//     needed.

#include <algorithm>

#include "common/string_util.h"
#include "optimizer/join_region.h"
#include "optimizer/optimizer.h"

namespace dbspinner {

namespace {

// Filter chain over Scan(result:`cte`)? Returns the scan, or null.
const LogicalOp* SelfScanOf(const LogicalOp& rel, const std::string& cte) {
  const LogicalOp* n = &rel;
  while (n->kind == LogicalOpKind::kFilter) n = n->children[0].get();
  if (n->kind == LogicalOpKind::kScan &&
      n->scan_source == ScanSource::kResult &&
      EqualsIgnoreCase(n->scan_name, cte)) {
    return n;
  }
  return nullptr;
}

// Re-points the Scan(result:`cte`) leaf of a cloned secondary at `delta`.
void RedirectSelfScan(LogicalOp* op, const std::string& cte,
                      const std::string& delta) {
  if (op->kind == LogicalOpKind::kScan &&
      op->scan_source == ScanSource::kResult &&
      EqualsIgnoreCase(op->scan_name, cte)) {
    op->scan_name = ToLower(delta);
    return;
  }
  for (auto& c : op->children) RedirectSelfScan(c.get(), cte, delta);
}

LogicalOpPtr MakeDeltaRestrict(LogicalOpPtr child, std::string source,
                               size_t key_col, bool keep_matching) {
  auto op = std::make_unique<LogicalOp>();
  op->kind = LogicalOpKind::kDeltaRestrict;
  op->output_schema = child->output_schema;
  op->delta_source = ToLower(source);
  op->delta_key_col = key_col;
  op->delta_keep_matching = keep_matching;
  op->children.push_back(std::move(child));
  return op;
}

LogicalOpPtr MakeKeyProject(LogicalOpPtr child, size_t ordinal,
                            const std::string& name, TypeId type) {
  std::vector<BoundExprPtr> exprs;
  exprs.push_back(MakeBoundColumnRef(ordinal, type, name));
  return MakeProject(std::move(exprs), {name}, std::move(child));
}

// Traces CTE key ordinal `*tracked` of `*slot`'s output down through
// Project (bare column ref), Filter, Distinct and Aggregate (bare group
// column) to the join region (or lone scan) below. Returns the region's
// slot with `*tracked` rebased to it, or null for an unsupported shape.
LogicalOpPtr* TraceKeyToRegion(LogicalOpPtr* slot, size_t* tracked) {
  while (true) {
    LogicalOp* op = slot->get();
    switch (op->kind) {
      case LogicalOpKind::kProject: {
        if (*tracked >= op->projections.size()) return nullptr;
        const BoundExpr& e = *op->projections[*tracked];
        if (e.kind != BoundExprKind::kColumnRef) return nullptr;
        *tracked = e.column_index;
        slot = &op->children[0];
        break;
      }
      case LogicalOpKind::kFilter:
      case LogicalOpKind::kDistinct:
        slot = &op->children[0];
        break;
      case LogicalOpKind::kAggregate: {
        // Output layout is [group columns ++ aggregates]; the key must be a
        // bare group column so groups factor by key.
        if (*tracked >= op->group_exprs.size()) return nullptr;
        const BoundExpr& e = *op->group_exprs[*tracked];
        if (e.kind != BoundExprKind::kColumnRef) return nullptr;
        *tracked = e.column_index;
        slot = &op->children[0];
        break;
      }
      case LogicalOpKind::kJoin:
      case LogicalOpKind::kScan:
        return slot;
      default:
        return nullptr;  // set ops, limit, sort, values: unsupported shapes
    }
  }
}

}  // namespace

Status ApplyDeltaIterationRewrite(Program* program,
                                  const IterativeCteInfo& info,
                                  Optimizer* optimizer) {
  int init_idx = program->FindStep(info.init_step_id);
  int check_idx = program->FindStep(info.check_step_id);
  int ri_idx = program->FindStep(info.ri_step_id);
  if (init_idx < 0 || check_idx < 0 || ri_idx < 0) return Status::OK();
  const int loop_id = program->steps[static_cast<size_t>(init_idx)].loop_id;
  Step& ri_step = program->steps[static_cast<size_t>(ri_idx)];
  if (!ri_step.plan) return Status::OK();

  // Which update step closes the body? Rename needs the carry union (the
  // working table replaces the CTE wholesale); merge supplies unaffected
  // rows by itself.
  bool rename_path = false;
  bool found_update = false;
  for (int i = ri_idx + 1; i < check_idx; ++i) {
    const Step& s = program->steps[static_cast<size_t>(i)];
    if ((s.kind == Step::Kind::kRename || s.kind == Step::Kind::kMergeUpdate) &&
        EqualsIgnoreCase(s.source, info.working_name)) {
      rename_path = s.kind == Step::Kind::kRename;
      found_update = true;
      break;
    }
  }
  if (!found_update) return Status::OK();

  const std::string delta_name = info.cte_name + "__delta";
  const std::string affected_name = info.cte_name + "__affected";
  const TypeId key_type = info.cte_schema.column(info.key_col).type;
  const std::string key_name = info.cte_schema.column(info.key_col).name;

  // --- 1. Trace the output key column down to the join region. -------------
  size_t tracked = info.key_col;
  LogicalOpPtr* slot = TraceKeyToRegion(&ri_step.plan, &tracked);
  if (slot == nullptr) return Status::OK();

  // --- 2. Flatten the region and classify its relations. ------------------
  const JoinRegion region =
      FlattenJoinRegion(slot, /*through_left_joins=*/true);
  const std::vector<RegionRel>& rels = region.rels;

  size_t driving = region.RelOfOrdinal(tracked);
  if (driving >= rels.size()) return Status::OK();
  if (rels[driving].null_padded) return Status::OK();
  if (tracked - rels[driving].start != info.key_col) return Status::OK();
  if (SelfScanOf(**rels[driving].slot, info.cte_name) == nullptr) {
    return Status::OK();
  }

  std::vector<std::string> written =
      LoopBodyWrittenNames(*program, info.init_step_id);
  std::vector<bool> invariant(rels.size(), false);
  std::vector<size_t> secondaries;
  for (size_t i = 0; i < rels.size(); ++i) {
    if (i == driving) continue;
    if (SelfScanOf(**rels[i].slot, info.cte_name) != nullptr) {
      secondaries.push_back(i);
    } else if (IsLoopInvariant(**rels[i].slot, written)) {
      invariant[i] = true;
    } else {
      return Status::OK();  // reads some other loop-varying result
    }
  }

  // --- 3. Per-secondary dependency plans. ----------------------------------
  // Connectivity ignores conjuncts touching the driving relation, so the
  // driving rel never joins a secondary's component.
  auto touches_driving = [&](const RegionConjunct& c) {
    return std::find(c.rels.begin(), c.rels.end(), driving) != c.rels.end();
  };
  UnionFind uf = ConnectRels(
      region, [&](const RegionConjunct& c) { return !touches_driving(c); });

  const size_t driving_key_ord = rels[driving].start + info.key_col;
  std::vector<LogicalOpPtr> branches;
  {
    // Keys that changed outright.
    auto delta_scan =
        MakeScan(ScanSource::kResult, delta_name, info.cte_schema);
    branches.push_back(MakeKeyProject(std::move(delta_scan), info.key_col,
                                      key_name, key_type));
  }
  for (size_t s : secondaries) {
    size_t comp = uf.Find(s);
    size_t comp_size = 0;
    for (size_t i = 0; i < rels.size(); ++i) {
      if (uf.Find(i) != comp) continue;
      if (i != s && !invariant[i]) return Status::OK();  // two varying rels
      ++comp_size;
    }
    // Join order: the secondary first, so the delta probes every
    // dependency join and the loop-invariant members are the build sides,
    // which the join build cache keeps across iterations. Each later member
    // shares a conjunct with one before it, so no join is a cross product.
    std::vector<size_t> members{s};
    auto is_member = [&](size_t rel) {
      return std::find(members.begin(), members.end(), rel) != members.end();
    };
    for (bool grew = true; grew && members.size() < comp_size;) {
      grew = false;
      for (const RegionConjunct& c : region.conjuncts) {
        if (touches_driving(c) ||
            std::none_of(c.rels.begin(), c.rels.end(), is_member)) {
          continue;
        }
        for (size_t t : c.rels) {
          if (!is_member(t)) {
            members.push_back(t);
            grew = true;
          }
        }
      }
    }
    auto in_comp = [&](size_t ord) {
      return is_member(region.RelOfOrdinal(ord));
    };
    // The key link maps component rows back to driving keys.
    size_t link_ord = SIZE_MAX;
    for (const RegionConjunct& c : region.conjuncts) {
      const BoundExpr& e = *c.expr;
      if (e.kind != BoundExprKind::kBinaryOp || e.binary_op != BinaryOp::kEq) {
        continue;
      }
      if (e.children[0]->kind != BoundExprKind::kColumnRef ||
          e.children[1]->kind != BoundExprKind::kColumnRef) {
        continue;
      }
      size_t a = e.children[0]->column_index;
      size_t b = e.children[1]->column_index;
      if (a == driving_key_ord && in_comp(b) &&
          e.children[1]->type == key_type) {
        link_ord = b;
        break;
      }
      if (b == driving_key_ord && in_comp(a) &&
          e.children[0]->type == key_type) {
        link_ord = a;
        break;
      }
    }
    if (link_ord == SIZE_MAX) return Status::OK();

    // Clone the component with the secondary re-pointed at the delta, keep
    // the intra-component INNER conjuncts, and project the link column.
    std::vector<size_t> mapping(region.Width(), 0);
    region.Pack(members, 0, &mapping);
    std::vector<LogicalOpPtr> clones;
    for (size_t m : members) {
      clones.push_back((*rels[m].slot)->Clone());
      if (m == s) {
        RedirectSelfScan(clones.back().get(), info.cte_name, delta_name);
      }
    }
    LogicalOpPtr dep = CrossJoinChain(std::move(clones));
    std::vector<BoundExprPtr> kept;
    for (const RegionConjunct& c : region.conjuncts) {
      // LEFT-join ON conjuncts are kept too: every affected-key event is
      // witnessed by a region output row (in the previous or the current
      // version) that satisfies the ON condition with a delta row — the
      // delta carries both versions of every changed key-group, and pad
      // rows contribute NULL link keys which never equal the driving key.
      // Dropping them instead would be sound but degenerates this branch
      // into a cross product (affected = all keys, at O(|inv| * |delta|)
      // materialization cost per iteration).
      if (c.rels.empty()) continue;
      if (!std::all_of(c.rels.begin(), c.rels.end(), is_member)) continue;
      BoundExprPtr clone = c.expr->Clone();
      clone->RemapColumns(mapping);
      kept.push_back(std::move(clone));
    }
    if (!kept.empty()) {
      dep = MakeFilter(CombineConjuncts(std::move(kept)), std::move(dep));
    }
    branches.push_back(
        MakeKeyProject(std::move(dep), mapping[link_ord], key_name, key_type));
  }

  // --- 4. Assemble the affected-key plan: DISTINCT(branch U ... U branch). -
  LogicalOpPtr affected = std::move(branches[0]);
  for (size_t i = 1; i < branches.size(); ++i) {
    auto u = std::make_unique<LogicalOp>();
    u->kind = LogicalOpKind::kUnionAll;
    u->output_schema = affected->output_schema;
    u->children.push_back(std::move(affected));
    u->children.push_back(std::move(branches[i]));
    affected = std::move(u);
  }
  {
    auto d = std::make_unique<LogicalOp>();
    d->kind = LogicalOpKind::kDistinct;
    d->output_schema = affected->output_schema;
    d->children.push_back(std::move(affected));
    affected = std::move(d);
  }

  // --- 5. Surgery: restrict the driving scan; add the carry on rename. -----
  LogicalOpPtr* scan_slot = rels[driving].slot;
  while ((*scan_slot)->kind == LogicalOpKind::kFilter) {
    scan_slot = &(*scan_slot)->children[0];
  }
  *scan_slot = MakeDeltaRestrict(std::move(*scan_slot), affected_name,
                                 info.key_col, /*keep_matching=*/true);

  if (rename_path) {
    auto carry_scan =
        MakeScan(ScanSource::kResult, info.cte_name, info.cte_schema);
    LogicalOpPtr carry = MakeDeltaRestrict(std::move(carry_scan),
                                           affected_name, info.key_col,
                                           /*keep_matching=*/false);
    auto u = std::make_unique<LogicalOp>();
    u->kind = LogicalOpKind::kUnionAll;
    u->output_schema = ri_step.plan->output_schema;
    u->children.push_back(std::move(ri_step.plan));
    u->children.push_back(std::move(carry));
    ri_step.plan = std::move(u);
  }
  ri_step.comment += " [delta-restricted]";
  DBSP_RETURN_NOT_OK(optimizer->OptimizePlan(&affected));
  DBSP_RETURN_NOT_OK(optimizer->OptimizePlan(&ri_step.plan));

  // --- 6. Steps: the delta and the affected keys open the loop body. -------
  int compute_id;
  {
    Step s;  // 3a: diff the CTE against the previous iteration's version
    s.kind = Step::Kind::kComputeDelta;
    s.id = program->NewId();
    s.target = delta_name;
    s.source = info.cte_name;
    s.key_col = info.key_col;
    s.loop_id = loop_id;
    s.comment = "compute changed rows of '" + info.cte_name + "' into '" +
                delta_name + "'";
    compute_id = s.id;
    program->InsertBefore(info.ri_step_id, std::move(s));
  }
  {
    Step s;  // 3b: the keys whose recomputation could differ this iteration
    s.kind = Step::Kind::kMaterialize;
    s.id = program->NewId();
    s.loop_id = loop_id;  // also bound as the loop's indexed key set
    s.target = affected_name;
    s.plan = std::move(affected);
    s.comment = "materialize affected keys into '" + affected_name + "'";
    program->InsertBefore(info.ri_step_id, std::move(s));
  }
  // The loop body now starts at the delta computation.
  program->steps[static_cast<size_t>(program->FindStep(info.check_step_id))]
      .jump_to_id = compute_id;
  return Status::OK();
}

}  // namespace dbspinner
