// Delta-driven (semi-naive) iteration: legality analysis and plan surgery.
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
//     (reads no result written inside any loop body) or a secondary
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
#include <numeric>

#include "common/string_util.h"
#include "optimizer/optimizer.h"

namespace dbspinner {

namespace {

// Result names written inside any loop body of the program: a scan of one of
// these is not loop-invariant. Body ranges are [InitLoop, LoopCheck] of the
// same loop_id; a rename also unbinds its source.
std::vector<std::string> LoopBodyWrittenNames(const Program& program) {
  std::vector<std::string> written;
  for (size_t i = 0; i < program.steps.size(); ++i) {
    if (program.steps[i].kind != Step::Kind::kInitLoop) continue;
    int loop_id = program.steps[i].loop_id;
    for (size_t j = i + 1; j < program.steps.size(); ++j) {
      const Step& s = program.steps[j];
      if (s.kind == Step::Kind::kLoopCheck && s.loop_id == loop_id) break;
      switch (s.kind) {
        case Step::Kind::kMaterialize:
        case Step::Kind::kMergeUpdate:
        case Step::Kind::kRemoveResult:
        case Step::Kind::kComputeDelta:
          written.push_back(s.target);
          break;
        case Step::Kind::kRename:
          written.push_back(s.target);
          written.push_back(s.source);
          break;
        case Step::Kind::kInitLoop:
        case Step::Kind::kLoopCheck:
        case Step::Kind::kFinal:
          break;
      }
    }
  }
  return written;
}

bool NameInList(const std::string& name,
                const std::vector<std::string>& names) {
  for (const auto& n : names) {
    if (EqualsIgnoreCase(name, n)) return true;
  }
  return false;
}

bool SubtreeInvariant(const LogicalOp& op,
                      const std::vector<std::string>& written) {
  if (op.kind == LogicalOpKind::kScan &&
      op.scan_source == ScanSource::kResult &&
      NameInList(op.scan_name, written)) {
    return false;
  }
  if (op.kind == LogicalOpKind::kDeltaRestrict) return false;
  for (const auto& c : op.children) {
    if (!SubtreeInvariant(*c, written)) return false;
  }
  return true;
}

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

// One relation of the flattened join region at the bottom of Ri's chain.
struct DeltaRel {
  LogicalOpPtr* slot = nullptr;  // owning slot, for surgery
  size_t start = 0;              // first ordinal in region-root space
  size_t width = 0;
  bool null_padded = false;  // right side of some LEFT join
  bool invariant = false;
  bool secondary = false;  // Filter* over Scan(cte), not the driving rel
};

struct DeltaConjunct {
  BoundExprPtr expr;  // rebased to region-root ordinals
  bool from_left_join = false;
};

// Flattens nested joins (INNER and LEFT) into relations + conjuncts, like
// common_result.cc's FlattenView but keeping owning slots and null-padding.
void FlattenRegion(LogicalOpPtr* slot, size_t base, bool padded,
                   std::vector<DeltaRel>* rels,
                   std::vector<DeltaConjunct>* conjuncts) {
  LogicalOp* node = slot->get();
  if (node->kind == LogicalOpKind::kJoin) {
    size_t left_width = node->children[0]->output_schema.num_columns();
    bool left_join = node->join_type == JoinType::kLeft;
    FlattenRegion(&node->children[0], base, padded, rels, conjuncts);
    FlattenRegion(&node->children[1], base + left_width, padded || left_join,
                  rels, conjuncts);
    if (node->join_condition) {
      std::vector<BoundExprPtr> cs;
      SplitConjuncts(*node->join_condition, &cs);
      for (auto& c : cs) {
        c->ShiftColumns(static_cast<int64_t>(base));
        conjuncts->push_back(DeltaConjunct{std::move(c), left_join});
      }
    }
    return;
  }
  DeltaRel rel;
  rel.slot = slot;
  rel.start = base;
  rel.width = node->output_schema.num_columns();
  rel.null_padded = padded;
  rels->push_back(std::move(rel));
}

// Index of the relation owning region ordinal `ord`; rels.size() if none.
size_t RelOfOrdinal(const std::vector<DeltaRel>& rels, size_t ord) {
  for (size_t i = 0; i < rels.size(); ++i) {
    if (ord >= rels[i].start && ord < rels[i].start + rels[i].width) return i;
  }
  return rels.size();
}

// Distinct relation indices referenced by `expr`.
std::vector<size_t> TouchedRels(const BoundExpr& expr,
                                const std::vector<DeltaRel>& rels) {
  std::vector<size_t> refs;
  expr.CollectColumnRefs(&refs);
  std::vector<size_t> touched;
  for (size_t r : refs) {
    size_t i = RelOfOrdinal(rels, r);
    if (i < rels.size() &&
        std::find(touched.begin(), touched.end(), i) == touched.end()) {
      touched.push_back(i);
    }
  }
  return touched;
}

struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int Find(int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void Union(int a, int b) { parent[Find(a)] = Find(b); }
};

LogicalOpPtr CrossJoinChain(std::vector<LogicalOpPtr> rels) {
  LogicalOpPtr chain = std::move(rels[0]);
  for (size_t i = 1; i < rels.size(); ++i) {
    auto join = std::make_unique<LogicalOp>();
    join->kind = LogicalOpKind::kJoin;
    join->join_type = JoinType::kInner;
    Schema schema = chain->output_schema;
    for (const auto& col : rels[i]->output_schema.columns()) {
      schema.AddColumn(col.name, col.type);
    }
    join->output_schema = std::move(schema);
    join->children.push_back(std::move(chain));
    join->children.push_back(std::move(rels[i]));
    chain = std::move(join);
  }
  return chain;
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

}  // namespace

bool TryPlanDeltaIteration(Program* program, const IterativeCteInfo& info,
                           const std::string& delta_name,
                           const std::string& affected_name, bool rename_path,
                           LogicalOpPtr* affected_plan_out) {
  int ri_idx = program->FindStep(info.ri_step_id);
  if (ri_idx < 0) return false;
  Step& ri_step = program->steps[static_cast<size_t>(ri_idx)];
  if (!ri_step.plan) return false;

  const TypeId key_type = info.cte_schema.column(info.key_col).type;
  const std::string key_name = info.cte_schema.column(info.key_col).name;

  // --- 1. Trace the output key column down to the join region. -------------
  LogicalOpPtr* slot = &ri_step.plan;
  size_t tracked = info.key_col;
  bool at_region = false;
  while (!at_region) {
    LogicalOp* op = slot->get();
    switch (op->kind) {
      case LogicalOpKind::kProject: {
        if (tracked >= op->projections.size()) return false;
        const BoundExpr& e = *op->projections[tracked];
        if (e.kind != BoundExprKind::kColumnRef) return false;
        tracked = e.column_index;
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
        if (tracked >= op->group_exprs.size()) return false;
        const BoundExpr& e = *op->group_exprs[tracked];
        if (e.kind != BoundExprKind::kColumnRef) return false;
        tracked = e.column_index;
        slot = &op->children[0];
        break;
      }
      case LogicalOpKind::kJoin:
      case LogicalOpKind::kScan:
        at_region = true;
        break;
      default:
        return false;  // set ops, limit, sort, values: unsupported shapes
    }
  }

  // --- 2. Flatten the region and classify its relations. ------------------
  std::vector<DeltaRel> rels;
  std::vector<DeltaConjunct> conjuncts;
  FlattenRegion(slot, 0, false, &rels, &conjuncts);

  size_t driving = RelOfOrdinal(rels, tracked);
  if (driving >= rels.size()) return false;
  if (rels[driving].null_padded) return false;
  if (tracked - rels[driving].start != info.key_col) return false;
  if (SelfScanOf(*rels[driving].slot->get(), info.cte_name) == nullptr) {
    return false;
  }

  std::vector<std::string> written = LoopBodyWrittenNames(*program);
  std::vector<size_t> secondaries;
  for (size_t i = 0; i < rels.size(); ++i) {
    if (i == driving) continue;
    DeltaRel& rel = rels[i];
    if (SelfScanOf(*rel.slot->get(), info.cte_name) != nullptr) {
      rel.secondary = true;
      secondaries.push_back(i);
    } else if (SubtreeInvariant(*rel.slot->get(), written)) {
      rel.invariant = true;
    } else {
      return false;  // reads some other loop-varying result
    }
  }

  // --- 3. Per-secondary dependency plans. ----------------------------------
  // Connectivity ignores conjuncts touching the driving relation, so the
  // driving rel never joins a secondary's component.
  UnionFind uf(rels.size());
  for (const auto& c : conjuncts) {
    std::vector<size_t> touched = TouchedRels(*c.expr, rels);
    if (std::find(touched.begin(), touched.end(), driving) != touched.end()) {
      continue;
    }
    for (size_t i = 1; i < touched.size(); ++i) {
      uf.Union(static_cast<int>(touched[0]), static_cast<int>(touched[i]));
    }
  }

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
    int comp = uf.Find(static_cast<int>(s));
    size_t comp_size = 0;
    for (size_t i = 0; i < rels.size(); ++i) {
      if (uf.Find(static_cast<int>(i)) != comp) continue;
      if (i != s && !rels[i].invariant) return false;  // two varying rels
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
      for (const auto& c : conjuncts) {
        std::vector<size_t> touched = TouchedRels(*c.expr, rels);
        if (std::find(touched.begin(), touched.end(), driving) !=
                touched.end() ||
            std::none_of(touched.begin(), touched.end(), is_member)) {
          continue;
        }
        for (size_t t : touched) {
          if (!is_member(t)) {
            members.push_back(t);
            grew = true;
          }
        }
      }
    }
    auto in_comp = [&](size_t ord) {
      return is_member(RelOfOrdinal(rels, ord));
    };
    // The key link maps component rows back to driving keys.
    size_t link_ord = SIZE_MAX;
    for (const auto& c : conjuncts) {
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
    if (link_ord == SIZE_MAX) return false;

    // Clone the component with the secondary re-pointed at the delta, keep
    // the intra-component INNER conjuncts, and project the link column.
    size_t total_width = rels.back().start + rels.back().width;
    std::vector<size_t> mapping(total_width, 0);
    std::vector<LogicalOpPtr> clones;
    size_t packed = 0;
    for (size_t m : members) {
      LogicalOpPtr clone = (*rels[m].slot)->Clone();
      if (m == s) RedirectSelfScan(clone.get(), info.cte_name, delta_name);
      for (size_t k = 0; k < rels[m].width; ++k) {
        mapping[rels[m].start + k] = packed + k;
      }
      packed += rels[m].width;
      clones.push_back(std::move(clone));
    }
    LogicalOpPtr dep = CrossJoinChain(std::move(clones));
    std::vector<BoundExprPtr> kept;
    for (const auto& c : conjuncts) {
      // LEFT-join ON conjuncts are kept too: every affected-key event is
      // witnessed by a region output row (in the previous or the current
      // version) that satisfies the ON condition with a delta row — the
      // delta carries both versions of every changed key-group, and pad
      // rows contribute NULL link keys which never equal the driving key.
      // Dropping them instead would be sound but degenerates this branch
      // into a cross product (affected = all keys, at O(|inv| * |delta|)
      // materialization cost per iteration).
      std::vector<size_t> touched = TouchedRels(*c.expr, rels);
      if (touched.empty()) continue;
      if (!std::all_of(touched.begin(), touched.end(), is_member)) continue;
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

  *affected_plan_out = std::move(affected);
  return true;
}

}  // namespace dbspinner
