// Join-region analysis shared by the loop rewrites: common-result
// extraction (common_result.cc) and delta-driven iteration
// (delta_analysis.cc).
//
// Both start from the same picture of Ri: a tree of joins flattened into
// relations and join conjuncts, the relations split into loop-invariant
// ones and ones that may change across iterations, and the relations
// grouped by the conjuncts that connect them. This is the static/dynamic
// data-path split of incremental iterations (Ewen et al., "Spinning Fast
// Iterative Data Flows"): common result caches invariant inputs once before
// the loop, and delta iteration joins only what changed against them.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "plan/logical_plan.h"
#include "plan/program.h"

namespace dbspinner {

/// A relation of a flattened join region: a maximal subtree below the
/// region's joins.
struct RegionRel {
  LogicalOpPtr* slot = nullptr;  ///< owning slot in the plan
  size_t start = 0;              ///< first ordinal in the region root's output
  size_t width = 0;
  bool null_padded = false;  ///< right side of some LEFT join
};

/// A join conjunct of the region, rebased to region-root ordinals.
struct RegionConjunct {
  BoundExprPtr expr;
  std::vector<size_t> rels;  ///< relations it references, first use first
};

struct JoinRegion {
  std::vector<RegionRel> rels;
  std::vector<RegionConjunct> conjuncts;  ///< children's before their join's

  /// Index of the relation owning region ordinal `ord`; rels.size() if none.
  size_t RelOfOrdinal(size_t ord) const;
  size_t Width() const { return rels.back().start + rels.back().width; }
  /// Lays the columns of relations `members` out side by side, in that
  /// order, from ordinal `at`: maps each of their region ordinals in
  /// `*mapping`. Returns the ordinal after the last one.
  size_t Pack(const std::vector<size_t>& members, size_t at,
              std::vector<size_t>* mapping) const;
};

/// Flattens the joins rooted at `*root` into relations (left to right) and
/// conjuncts. It descends INNER joins, and LEFT joins too when
/// `through_left_joins`; any other operator (a Project included) is a
/// relation. The plan is not modified.
JoinRegion FlattenJoinRegion(LogicalOpPtr* root, bool through_left_joins);

/// Disjoint sets over relation indices.
class UnionFind {
 public:
  explicit UnionFind(size_t n);
  size_t Find(size_t x);
  void Union(size_t a, size_t b);

 private:
  std::vector<size_t> parent_;
};

/// Connects the relations that share a conjunct `use` accepts.
UnionFind ConnectRels(
    const JoinRegion& region,
    const std::function<bool(const RegionConjunct&)>& use);

/// Left-deep chain of INNER cross joins over `rels` (at least one), in order.
LogicalOpPtr CrossJoinChain(std::vector<LogicalOpPtr> rels);

/// Result names the body of one loop writes: the steps between the
/// kInitLoop `init_step_id` and its loop's kLoopCheck, a rename's source
/// included. Steps run in order, so a result another loop writes is fixed
/// while this one runs: an earlier loop has finished, and a later one has
/// not started.
std::vector<std::string> LoopBodyWrittenNames(const Program& program,
                                              int init_step_id);

/// The loop-invariance rule: a subtree reads the same rows on every
/// iteration of a loop unless it scans a result in `written` (see
/// LoopBodyWrittenNames) or holds a DeltaRestrict.
bool IsLoopInvariant(const LogicalOp& op,
                     const std::vector<std::string>& written);

}  // namespace dbspinner
