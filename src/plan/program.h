// Program: the linear step list produced by the functional rewrite.
//
// A Program is the direct analogue of the paper's Table I: a sequence of
// materializations, renames, merges and loop-control steps, ending in a final
// query. The executor interprets it; the `loop` step implements conditional
// jumps to a previous step.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "plan/logical_plan.h"

namespace dbspinner {

class PhysicalOp;
using PhysicalOpPtr = std::unique_ptr<PhysicalOp>;

/// Termination / continuation specification of one loop operator
/// (paper §IV, §VI-B). Carries <<Type, N, Expr>> exactly as in Fig 4.
struct LoopSpec {
  enum class Kind {
    kIterations,           ///< Metadata: stop after n iterations
    kUpdates,              ///< Metadata: stop once cumulative updated rows >= n
    kAny,                  ///< Data: stop once >= 1 row of the CTE satisfies expr
    kAll,                  ///< Data: stop once every row satisfies expr
    kDeltaLess,            ///< Delta: stop once < n rows changed vs previous iteration
    kWhileResultNonEmpty,  ///< recursive CTEs: continue while `watch_name` has rows
  };
  Kind kind = Kind::kIterations;
  int64_t n = 0;
  BoundExprPtr expr;        ///< kAny/kAll predicate, bound over the CTE schema
  std::string cte_name;     ///< result the condition inspects
  std::string watch_name;   ///< kWhileResultNonEmpty: delta result to watch
  size_t key_col = 0;       ///< kDeltaLess: key column for the diff

  LoopSpec Clone() const;
  /// "Metadata" / "Data" / "Delta" (Fig 3/4 Type field).
  const char* TypeName() const;
  /// "<<Type:metadata, N:10, Expr:NONE>>".
  std::string ToString() const;
};

/// One step of a Program.
struct Step {
  /// A step that computes rows does so with a plan (kMaterialize, kFinal);
  /// the other kinds move, merge, diff or unbind results, or steer a loop.
  /// A recursive CTE's accumulator, for one, is a kMaterialize of
  /// `acc UNION ALL delta` (rewrite/recursive_rewrite.cc).
  enum class Kind {
    kMaterialize,   ///< run `plan`, bind output as result `target`
    kRename,        ///< rename result `source` to `target` (O(1), §VI-A)
    kMergeUpdate,   ///< merge working `source` into CTE `target` by `key_col`
                    ///< (Algorithm 1 lines 8-10); counts updated rows; also
                    ///< the copy-back baseline when rename is disabled
    kRemoveResult,  ///< unbind result `target`
    kInitLoop,      ///< reset loop `loop_id` state; when `jump_to_id` is set
                    ///< and the termination condition already holds before
                    ///< the first body execution (a 0-iteration loop), jump
                    ///< past the step with id `jump_to_id`
    kLoopCheck,     ///< update loop state; jump to step id `jump_to_id` if
                    ///< the loop should continue
    kComputeDelta,  ///< diff result `source` against loop `loop_id`'s
                    ///< previous-version snapshot by `key_col`; bind the
                    ///< changed rows (old and new versions) as `target`
                    ///< and advance the snapshot (semi-naive iteration)
    kFinal,         ///< run `plan`; its output is the program result
  };

  Step();
  ~Step();
  Step(Step&&) noexcept;
  Step& operator=(Step&&) noexcept;

  Kind kind = Kind::kMaterialize;
  int id = 0;  ///< stable label; jump targets reference ids, not indices

  LogicalOpPtr plan;        ///< kMaterialize / kFinal
  PhysicalOpPtr physical;   ///< filled by the physical planner

  std::string target;
  std::string source;
  size_t key_col = 0;       ///< kMergeUpdate / kComputeDelta key ordinal

  int loop_id = 0;          ///< kInitLoop / kLoopCheck, and the loop whose
                            ///< CTE a kRename / kMergeUpdate /
                            ///< kComputeDelta writes or diffs; on a
                            ///< kMaterialize, the loop whose affected-key
                            ///< set it binds (semi-naive iteration)
  LoopSpec loop;            ///< kInitLoop (and echoed on kLoopCheck)
  int jump_to_id = 0;       ///< kLoopCheck: body start step id;
                            ///< kInitLoop: loop-check id to skip past when
                            ///< the loop runs zero iterations

  std::string comment;      ///< EXPLAIN annotation

  const char* KindName() const;
};

/// Metadata about one iterative CTE inside a Program, used by the
/// cross-block optimizer rules (predicate pushdown into R0, common-result
/// hoisting out of Ri).
struct IterativeCteInfo {
  std::string cte_name;
  std::string working_name;
  Schema cte_schema;
  size_t key_col = 0;

  int r0_step_id = 0;    ///< kMaterialize of R0
  int ri_step_id = 0;    ///< kMaterialize of Ri (loop body start)
  int init_step_id = 0;  ///< kInitLoop
  int check_step_id = 0;

  // Legality facts computed from the AST by the functional rewrite:
  bool ri_has_where = false;      ///< drives rename vs merge (Algorithm 1)
  bool pushdown_legal = false;    ///< Ri = single self-scan, no join/agg
  /// pass_through[i]: Ri's i-th select item is a bare reference to CTE
  /// column i (so a predicate on column i stays true across iterations).
  std::vector<bool> pass_through;
};

/// A complete executable statement: steps plus iterative-CTE metadata.
struct Program {
  std::vector<Step> steps;
  std::vector<IterativeCteInfo> iterative_ctes;
  int next_id = 1;

  /// Result names (and their schemas) the caller binds into the registry
  /// before RunProgram — materialized-view contents overlaid as CTEs, whose
  /// scans have no producing step. The dataflow verifier treats them as
  /// bound at entry instead of diagnosing V101.
  std::vector<std::pair<std::string, Schema>> seeded_results;

  int NewId() { return next_id++; }

  /// Index of the step with `id`; -1 if absent.
  int FindStep(int id) const;

  /// Inserts `step` immediately before the step with id `before_id`.
  void InsertBefore(int before_id, Step step);
};

}  // namespace dbspinner
