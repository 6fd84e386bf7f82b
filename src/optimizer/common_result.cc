// Common-result extraction (§V-A, Fig 5, Fig 9).
//
// Inside the iterative part Ri, joins between relations that do not involve
// the iterative reference produce the same result every iteration. This
// rewrite finds maximal inner-join regions of the Ri plan, groups the
// loop-invariant relations connected by join predicates, and hoists each
// group as a __common#k materialization placed before the loop. A relation
// is loop-invariant when it reads no result that a loop body writes
// (join_region.h), so a join with a plain CTE hoists too. The region
// is rebuilt with a single scan of the materialized result, and a trailing
// Project restores the original column order so parent operators are
// untouched.
//
// Implemented as a heuristic (not cost-based) rewrite, as the paper argues:
// iterative CTEs materialize intermediate results anyway, and the hoisted
// work is saved once per iteration.

#include <algorithm>

#include "optimizer/join_region.h"
#include "optimizer/optimizer.h"

namespace dbspinner {

namespace {

bool IsInnerJoin(const LogicalOp& op) {
  return op.kind == LogicalOpKind::kJoin && op.join_type == JoinType::kInner;
}

struct HoistedPlan {
  std::string name;
  LogicalOpPtr plan;
};

// Rewrites the inner-join region `region` rooted at `*node`. Appends any
// hoisted common plans to `hoisted`.
void HoistRegion(LogicalOpPtr* node, JoinRegion region,
                 const std::vector<std::string>& written, int* common_counter,
                 std::vector<HoistedPlan>* hoisted) {
  const std::vector<RegionRel>& rels = region.rels;
  std::vector<bool> hoistable(rels.size());
  for (size_t i = 0; i < rels.size(); ++i) {
    hoistable[i] = IsLoopInvariant(**rels[i].slot, written);
  }
  UnionFind uf = ConnectRels(region, [&](const RegionConjunct& c) {
    return std::all_of(c.rels.begin(), c.rels.end(),
                       [&](size_t t) { return hoistable[t]; });
  });
  // Components of >= 2 hoistable relations get hoisted, in the order of
  // their first relation. A relation that is not hoistable is never united.
  std::vector<std::vector<size_t>> members(rels.size());
  for (size_t i = 0; i < rels.size(); ++i) {
    if (hoistable[i]) members[uf.Find(i)].push_back(i);
  }
  std::vector<int> component_of(rels.size(), -1);
  std::vector<std::vector<size_t>> components;
  for (size_t i = 0; i < rels.size(); ++i) {
    const std::vector<size_t>& m = members[uf.Find(i)];
    if (m.size() < 2 || m[0] != i) continue;
    for (size_t r : m) component_of[r] = static_cast<int>(components.size());
    components.push_back(m);
  }
  if (components.empty()) return;

  const size_t total_width = region.Width();
  std::vector<RegionConjunct>& conjuncts = region.conjuncts;

  // The rebuilt region consists of "entries": the non-hoisted relations
  // (singletons) plus one common-result scan per component.
  struct NewRel {
    LogicalOpPtr plan;
    std::vector<size_t> old_rels;  // flatten indices covered, in plan order
  };
  std::vector<NewRel> entries;
  for (size_t i = 0; i < rels.size(); ++i) {
    if (component_of[i] < 0) entries.push_back({std::move(*rels[i].slot), {i}});
  }
  for (size_t c = 0; c < components.size(); ++c) {
    std::string name = "__common#" + std::to_string(++(*common_counter));
    Schema common_schema;
    std::vector<LogicalOpPtr> member_plans;
    for (size_t m : components[c]) {
      for (const auto& col : (*rels[m].slot)->output_schema.columns()) {
        common_schema.AddColumn(col.name, col.type);
      }
      member_plans.push_back(std::move(*rels[m].slot));
    }
    // Build the hoisted plan: cross-join chain + intra-component conjuncts
    // (the within-block pushdown shapes these into hash joins; components
    // are connected by construction, so every join gets a condition).
    LogicalOpPtr common_plan = CrossJoinChain(std::move(member_plans));
    std::vector<size_t> comp_map(total_width, 0);
    region.Pack(components[c], 0, &comp_map);
    std::vector<BoundExprPtr> intra;
    for (RegionConjunct& conj : conjuncts) {
      if (!conj.expr) continue;
      bool all_in_comp = !conj.rels.empty();
      for (size_t t : conj.rels) {
        if (component_of[t] != static_cast<int>(c)) all_in_comp = false;
      }
      if (all_in_comp) {
        conj.expr->RemapColumns(comp_map);
        intra.push_back(std::move(conj.expr));
      }
    }
    if (!intra.empty()) {
      common_plan = MakeFilter(CombineConjuncts(std::move(intra)),
                               std::move(common_plan));
    }
    hoisted->push_back(HoistedPlan{name, std::move(common_plan)});
    entries.push_back({MakeScan(ScanSource::kResult, name, common_schema),
                       components[c]});
  }

  // Order entries greedily by join connectivity so the rebuilt chain never
  // introduces a cross join where a join predicate exists: each appended
  // entry shares at least one remaining conjunct with the entries already
  // in the chain (when possible).
  std::vector<size_t> entry_of(rels.size());
  for (size_t e = 0; e < entries.size(); ++e) {
    for (size_t m : entries[e].old_rels) entry_of[m] = e;
  }
  std::vector<std::vector<size_t>> conj_entries;  // ascending, per conjunct
  for (const RegionConjunct& conj : conjuncts) {
    std::vector<size_t> touched;
    if (conj.expr) {
      for (size_t t : conj.rels) touched.push_back(entry_of[t]);
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    }
    conj_entries.push_back(std::move(touched));
  }
  std::vector<size_t> order;
  std::vector<bool> used(entries.size(), false);
  order.push_back(0);
  used[0] = true;
  while (order.size() < entries.size()) {
    size_t pick = entries.size();
    for (const auto& te : conj_entries) {
      bool touches_used = false;
      size_t unused_candidate = entries.size();
      for (size_t e : te) {
        if (used[e]) {
          touches_used = true;
        } else {
          unused_candidate = e;
        }
      }
      if (touches_used && unused_candidate < entries.size()) {
        pick = unused_candidate;
        break;
      }
    }
    if (pick == entries.size()) {
      // Disconnected: fall back to the first unused entry (true cross join).
      pick = static_cast<size_t>(std::find(used.begin(), used.end(), false) -
                                 used.begin());
    }
    used[pick] = true;
    order.push_back(pick);
  }

  // Old-ordinal -> new-ordinal mapping induced by the chosen order.
  std::vector<size_t> mapping(total_width, 0);
  size_t cursor = 0;
  std::vector<LogicalOpPtr> chain_plans;
  for (size_t e : order) {
    cursor = region.Pack(entries[e].old_rels, cursor, &mapping);
    chain_plans.push_back(std::move(entries[e].plan));
  }

  LogicalOpPtr rebuilt = CrossJoinChain(std::move(chain_plans));
  std::vector<BoundExprPtr> remaining;
  for (RegionConjunct& conj : conjuncts) {
    if (!conj.expr) continue;
    conj.expr->RemapColumns(mapping);
    remaining.push_back(std::move(conj.expr));
  }
  if (!remaining.empty()) {
    rebuilt = MakeFilter(CombineConjuncts(std::move(remaining)),
                         std::move(rebuilt));
  }
  // Restore the original column order for the parent.
  std::vector<BoundExprPtr> restore;
  std::vector<std::string> names;
  const Schema& new_schema = rebuilt->output_schema;
  for (size_t old = 0; old < total_width; ++old) {
    size_t nu = mapping[old];
    restore.push_back(MakeBoundColumnRef(nu, new_schema.column(nu).type,
                                         new_schema.column(nu).name));
    names.push_back(new_schema.column(nu).name);
  }
  *node = MakeProject(std::move(restore), std::move(names),
                      std::move(rebuilt));
}

// Rewrites the inner-join regions of the plan bottom-up: those inside a
// region's relations before the region itself.
void HoistInPlan(LogicalOpPtr* node, const std::vector<std::string>& written,
                 int* common_counter, std::vector<HoistedPlan>* hoisted) {
  if (!IsInnerJoin(**node)) {
    for (auto& c : (*node)->children) {
      HoistInPlan(&c, written, common_counter, hoisted);
    }
    return;
  }
  JoinRegion region = FlattenJoinRegion(node, /*through_left_joins=*/false);
  for (const RegionRel& rel : region.rels) {
    HoistInPlan(rel.slot, written, common_counter, hoisted);
  }
  HoistRegion(node, std::move(region), written, common_counter, hoisted);
}

}  // namespace

Status ApplyCommonResultRewrite(Program* program, const IterativeCteInfo& info,
                                int* common_counter, Optimizer* optimizer) {
  int ri_idx = program->FindStep(info.ri_step_id);
  if (ri_idx < 0) return Status::OK();
  Step& ri_step = program->steps[static_cast<size_t>(ri_idx)];
  if (!ri_step.plan) return Status::OK();

  std::vector<HoistedPlan> hoisted;
  HoistInPlan(&ri_step.plan,
              LoopBodyWrittenNames(*program, info.init_step_id),
              common_counter, &hoisted);
  if (hoisted.empty()) return Status::OK();

  DBSP_RETURN_NOT_OK(optimizer->OptimizePlan(&ri_step.plan));
  ri_step.comment += " [common results extracted]";

  for (auto& h : hoisted) {
    DBSP_RETURN_NOT_OK(optimizer->OptimizePlan(&h.plan));
    Step s;
    s.kind = Step::Kind::kMaterialize;
    s.id = program->NewId();
    s.target = h.name;
    s.plan = std::move(h.plan);
    s.comment = "materialize loop-invariant common result '" + h.name + "'";
    program->InsertBefore(info.init_step_id, std::move(s));
  }
  return Status::OK();
}

}  // namespace dbspinner
