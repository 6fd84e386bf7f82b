#include "optimizer/join_region.h"

#include <algorithm>
#include <numeric>

#include "common/string_util.h"

namespace dbspinner {

namespace {

void Flatten(LogicalOpPtr* slot, size_t base, bool padded,
             bool through_left_joins, JoinRegion* region) {
  LogicalOp* node = slot->get();
  bool descend = node->kind == LogicalOpKind::kJoin &&
                 (node->join_type == JoinType::kInner || through_left_joins);
  if (!descend) {
    region->rels.push_back(
        RegionRel{slot, base, node->output_schema.num_columns(), padded});
    return;
  }
  size_t left_width = node->children[0]->output_schema.num_columns();
  bool left_join = node->join_type == JoinType::kLeft;
  Flatten(&node->children[0], base, padded, through_left_joins, region);
  Flatten(&node->children[1], base + left_width, padded || left_join,
          through_left_joins, region);
  if (node->join_condition) {
    std::vector<BoundExprPtr> cs;
    SplitConjuncts(*node->join_condition, &cs);
    for (auto& c : cs) {
      c->ShiftColumns(static_cast<int64_t>(base));
      region->conjuncts.push_back(RegionConjunct{std::move(c), {}});
    }
  }
}

}  // namespace

size_t JoinRegion::RelOfOrdinal(size_t ord) const {
  for (size_t i = 0; i < rels.size(); ++i) {
    if (ord >= rels[i].start && ord < rels[i].start + rels[i].width) return i;
  }
  return rels.size();
}

size_t JoinRegion::Pack(const std::vector<size_t>& members, size_t at,
                        std::vector<size_t>* mapping) const {
  for (size_t m : members) {
    for (size_t k = 0; k < rels[m].width; ++k) {
      (*mapping)[rels[m].start + k] = at++;
    }
  }
  return at;
}

JoinRegion FlattenJoinRegion(LogicalOpPtr* root, bool through_left_joins) {
  JoinRegion region;
  Flatten(root, 0, false, through_left_joins, &region);
  for (RegionConjunct& c : region.conjuncts) {
    std::vector<size_t> refs;
    c.expr->CollectColumnRefs(&refs);
    for (size_t r : refs) {
      size_t i = region.RelOfOrdinal(r);
      if (i < region.rels.size() &&
          std::find(c.rels.begin(), c.rels.end(), i) == c.rels.end()) {
        c.rels.push_back(i);
      }
    }
  }
  return region;
}

UnionFind::UnionFind(size_t n) : parent_(n) {
  std::iota(parent_.begin(), parent_.end(), size_t{0});
}

size_t UnionFind::Find(size_t x) {
  while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
  return x;
}

void UnionFind::Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

UnionFind ConnectRels(
    const JoinRegion& region,
    const std::function<bool(const RegionConjunct&)>& use) {
  UnionFind uf(region.rels.size());
  for (const RegionConjunct& c : region.conjuncts) {
    if (!use(c)) continue;
    for (size_t i = 1; i < c.rels.size(); ++i) uf.Union(c.rels[0], c.rels[i]);
  }
  return uf;
}

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

std::vector<std::string> LoopBodyWrittenNames(const Program& program,
                                              int init_step_id) {
  std::vector<std::string> written;
  const int init = program.FindStep(init_step_id);
  if (init < 0) return written;
  const int loop_id = program.steps[static_cast<size_t>(init)].loop_id;
  for (size_t j = static_cast<size_t>(init) + 1; j < program.steps.size();
       ++j) {
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
  return written;
}

bool IsLoopInvariant(const LogicalOp& op,
                     const std::vector<std::string>& written) {
  if (op.kind == LogicalOpKind::kDeltaRestrict) return false;
  if (op.kind == LogicalOpKind::kScan &&
      op.scan_source == ScanSource::kResult &&
      std::any_of(written.begin(), written.end(), [&](const std::string& n) {
        return EqualsIgnoreCase(op.scan_name, n);
      })) {
    return false;
  }
  for (const auto& c : op.children) {
    if (!IsLoopInvariant(*c, written)) return false;
  }
  return true;
}

}  // namespace dbspinner
