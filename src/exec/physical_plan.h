// Physical operators and the execution context.
//
// Operators run only through ExecuteOp (exec/pipeline.h), the morsel
// pipeline executor. Streaming operators (filter, project, fused probe,
// delta restrict) are pipeline stages and have no Execute of their own;
// sources and breakers implement Execute and materialize their full output
// table. Materializing at breakers matches the paper's setting (MPPDB
// materializes CTE, working, and common-result tables) and keeps the costs
// the optimizations remove — copies, recomputed joins, unfiltered scans —
// directly measurable.

#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "common/status.h"
#include "engine/options.h"
#include "exec/data_chunk.h"
#include "exec/exec_stats.h"
#include "exec/merge_update.h"
#include "exec/row_index.h"
#include "expr/aggregate_functions.h"
#include "expr/expr.h"
#include "expr/vector_eval.h"
#include "mpp/thread_pool.h"
#include "parser/ast.h"
#include "storage/catalog.h"
#include "storage/result_registry.h"
#include "storage/table.h"

namespace dbspinner {

/// Per-step runtime profile collected when ExecContext::profiling is on
/// (EXPLAIN ANALYZE). Keyed by step id; loop-body steps accumulate across
/// iterations.
struct StepProfile {
  int64_t executions = 0;
  double total_ms = 0;
  int64_t last_rows = -1;  ///< rows produced by the last execution (-1: n/a)
};

/// The body's last write of a loop's CTE, `from` -> `to`, and what it
/// changed (DESIGN.md §4c). A merge fills `changes` as it writes. A rename
/// leaves it to the first reader: with `keys`, the affected-key set whose
/// carry re-added every other key's rows unchanged, only those keys are
/// diffed. A reader diffing another pair of versions ignores the record.
/// Every reader keys the diff by the CTE's key column, as the write does.
struct LoopWrite {
  TablePtr from;
  TablePtr to;
  std::shared_ptr<const KeySet> keys;
  std::optional<ChangeSet> changes;
};

/// Per-loop runtime state (the paper's loop-operator bookkeeping). Only
/// the counters and the two snapshots are part of a durable checkpoint; a
/// resumed loop rebuilds the rest, diffing whole versions once.
struct LoopState {
  int64_t iteration = 0;
  int64_t last_update_count = 0;
  int64_t cumulative_updates = 0;
  TablePtr previous;        ///< previous CTE version for Delta conditions
  TablePtr delta_snapshot;  ///< CTE version diffed by the last ComputeDelta
                            ///< step (semi-naive iteration); null before the
                            ///< first body execution
  /// Semi-naive: the running iteration's affected-key set, indexed once by
  /// the step that binds it, for both DeltaRestrict stages and the diff of
  /// the rename that follows.
  std::shared_ptr<const KeySet> affected;
  LoopWrite write;
};

class PhysicalOp;

/// Destination for durable executor checkpoints (DESIGN.md §12). Implemented
/// by the engine layer over the StorageManager; the executor only knows that
/// a checkpoint it just took can additionally be made crash-durable. Persist
/// is called after the in-memory checkpoint is captured, with the same
/// snapshot the in-process restore path would use.
class DurableCheckpointSink {
 public:
  virtual ~DurableCheckpointSink() = default;
  virtual Status Persist(
      size_t pc, const std::map<int, LoopState>& loops,
      const std::unordered_map<std::string, TablePtr>& registry) = 0;
};

/// Everything an executing plan needs. One per statement execution.
struct ExecContext {
  Catalog* catalog = nullptr;
  ResultRegistry* registry = nullptr;
  const EngineOptions* options = nullptr;
  ThreadPool* pool = nullptr;   ///< null => serial
  FaultInjector* faults = nullptr;  ///< null => no fault injection

  /// Cooperative cancellation for this statement. Inert (never fires) by
  /// default; the server layer installs a live token per query. Checked at
  /// executor step boundaries and before each parallel task dispatch.
  CancellationToken cancel;

  ExecStats stats;
  std::map<int, LoopState> loops;

  /// When set (persistence on + recovery on), every in-memory executor
  /// checkpoint is also persisted through this sink, making kill-9 resume
  /// possible (exec/program_executor.cc, DESIGN.md §12).
  DurableCheckpointSink* durable = nullptr;

  /// EXPLAIN ANALYZE instrumentation.
  bool profiling = false;
  std::map<int, StepProfile> profile;  ///< step id -> accumulated profile

  /// Hash-join build sides cached across loop iterations, keyed by operator
  /// identity. A cached entry is valid only while the operator's build input
  /// is the *identical* table version (TablePtr pointer equality) — sound
  /// because every result/catalog mutation in the engine is copy-on-write,
  /// so a reused pointer implies unchanged contents.
  struct JoinBuildState {
    TablePtr table;  ///< the build input version the entry was built from
    std::shared_ptr<const RowIndex> map;
  };
  std::map<const PhysicalOp*, JoinBuildState> join_builds;

  /// True if `rows` is large enough (and workers available) for the
  /// partitioned/parallel operator paths.
  bool UseParallel(size_t rows) const {
    return pool != nullptr && options != nullptr && options->num_workers > 1 &&
           rows >= options->mpp_min_rows_per_task;
  }
  size_t NumPartitions() const {
    return options == nullptr ? 1 : static_cast<size_t>(options->num_workers);
  }
};

using PhysicalOpPtr = std::unique_ptr<PhysicalOp>;

/// How an operator participates in the vectorized pipeline executor
/// (exec/pipeline.cc). Streaming roles can be fused into a morsel-at-a-time
/// pipeline; breakers always materialize their full output.
enum class PipelineRole {
  kBreaker,        ///< materializes (sort, union, limit, ...)
  kSource,         ///< produces a table without children (scan, values)
  kFilter,         ///< streaming selection refinement
  kProject,        ///< streaming expression projection
  kHashProbe,      ///< streaming probe against a materialized build side
  kDeltaRestrict,  ///< streaming semi-join against a registry key set
  kPreAggregate,   ///< pipeline *sink*: consumes chunks into per-worker
                   ///< partial hash tables merged once at the breaker
                   ///< (never a mid-pipeline stage)
};

/// Base physical operator. Execute() is const and reusable: all mutable
/// state lives in ExecContext, so loop bodies re-execute the same operator
/// tree each iteration.
class PhysicalOp {
 public:
  explicit PhysicalOp(Schema schema) : output_schema_(std::move(schema)) {}
  virtual ~PhysicalOp() = default;

  /// Materializes this operator's output. Only sources and breakers
  /// override it; ExecuteOp runs every other operator as a pipeline stage,
  /// and the base body reports a call that bypassed it.
  virtual Result<TablePtr> Execute(ExecContext& ctx) const;
  virtual const char* Name() const = 0;
  /// Extra per-operator detail for EXPLAIN.
  virtual std::string Describe() const { return ""; }
  virtual PipelineRole pipeline_role() const { return PipelineRole::kBreaker; }

  const Schema& output_schema() const { return output_schema_; }
  const std::vector<PhysicalOpPtr>& children() const { return children_; }
  void AddChild(PhysicalOpPtr child) { children_.push_back(std::move(child)); }

  std::string ToString(int indent = 0) const;

 protected:
  Schema output_schema_;
  std::vector<PhysicalOpPtr> children_;
};

// --- concrete operators -----------------------------------------------------

/// Reads a base table or a named intermediate result (zero-copy).
class PhysicalScan final : public PhysicalOp {
 public:
  PhysicalScan(Schema schema, bool from_catalog, std::string name)
      : PhysicalOp(std::move(schema)),
        from_catalog_(from_catalog),
        name_(std::move(name)) {}
  Result<TablePtr> Execute(ExecContext& ctx) const override;
  const char* Name() const override { return "Scan"; }
  std::string Describe() const override {
    return (from_catalog_ ? "table:" : "result:") + name_;
  }
  const std::string& scan_name() const { return name_; }
  bool from_catalog() const { return from_catalog_; }
  PipelineRole pipeline_role() const override { return PipelineRole::kSource; }

 private:
  bool from_catalog_;
  std::string name_;
};

/// Emits constant rows.
class PhysicalValues final : public PhysicalOp {
 public:
  PhysicalValues(Schema schema, std::vector<std::vector<Value>> rows)
      : PhysicalOp(std::move(schema)), rows_(std::move(rows)) {}
  Result<TablePtr> Execute(ExecContext& ctx) const override;
  const char* Name() const override { return "Values"; }
  PipelineRole pipeline_role() const override { return PipelineRole::kSource; }

 private:
  std::vector<std::vector<Value>> rows_;
};

/// Row filter (WHERE / HAVING / residual predicates).
class PhysicalFilter final : public PhysicalOp {
 public:
  PhysicalFilter(Schema schema, BoundExprPtr predicate)
      : PhysicalOp(std::move(schema)), predicate_(std::move(predicate)) {}
  const char* Name() const override { return "Filter"; }
  std::string Describe() const override { return predicate_->ToString(); }
  PipelineRole pipeline_role() const override { return PipelineRole::kFilter; }
  const BoundExpr& predicate() const { return *predicate_; }

 private:
  BoundExprPtr predicate_;
};

/// Expression projection.
class PhysicalProject final : public PhysicalOp {
 public:
  PhysicalProject(Schema schema, std::vector<BoundExprPtr> exprs)
      : PhysicalOp(std::move(schema)), exprs_(std::move(exprs)) {}
  const char* Name() const override { return "Project"; }
  PipelineRole pipeline_role() const override { return PipelineRole::kProject; }
  const std::vector<BoundExprPtr>& exprs() const { return exprs_; }

 private:
  std::vector<BoundExprPtr> exprs_;
};

/// Hash join on extracted equi-key pairs with an optional residual
/// predicate over the combined row. Supports INNER and LEFT OUTER. Always a
/// fused pipeline probe stage (exec/pipeline.cc): the build side is
/// materialized once and every morsel worker probes the same read-only
/// index.
class PhysicalHashJoin final : public PhysicalOp {
 public:
  PhysicalHashJoin(Schema schema, JoinType type, std::vector<size_t> left_keys,
                   std::vector<size_t> right_keys, BoundExprPtr residual)
      : PhysicalOp(std::move(schema)),
        type_(type),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        residual_(std::move(residual)) {}
  const char* Name() const override { return "HashJoin"; }
  std::string Describe() const override;
  PipelineRole pipeline_role() const override {
    return PipelineRole::kHashProbe;
  }

  JoinType join_type() const { return type_; }
  const std::vector<size_t>& left_keys() const { return left_keys_; }
  const std::vector<size_t>& right_keys() const { return right_keys_; }
  const BoundExpr* residual() const { return residual_.get(); }

  /// Build side with the cross-iteration cache (pointer-identity validated,
  /// counts build_cache_hits), for probes with key types `probe_types`.
  std::shared_ptr<const RowIndex> GetOrBuildHash(
      ExecContext& ctx, const TablePtr& right,
      const std::vector<TypeId>& probe_types) const;

  /// What one pipeline run of this probe reads and emits (DESIGN.md §11,
  /// "Live columns"). Ordinals are of the output schema [left ++ right].
  struct ProbePlan {
    std::vector<size_t> chunk_col;      ///< left ordinal -> input chunk column
    std::vector<size_t> chunk_keys;     ///< input chunk columns of the keys
    std::vector<size_t> out_cols;       ///< ordinals emitted, ascending
    Schema out_schema;                  ///< the output chunk's schema
    std::vector<size_t> residual_cols;  ///< ordinals the residual reads
    Schema residual_schema;
    BoundExprPtr residual;  ///< residual(), over residual_cols; may be null
    std::optional<CompiledExpr> residual_eval;
  };

  /// The plan of a run whose input chunk holds left ordinal c in column
  /// `chunk_col[c]` and whose consumers read the output ordinals `out_cols`
  /// (ascending; every left one must have a chunk column).
  ProbePlan PlanProbe(std::vector<size_t> chunk_col,
                      std::vector<size_t> out_cols) const;

  /// Joins the probe rows of `chunk` with the build side `right`, indexed
  /// by `index`: the matching pairs that pass the residual, then for LEFT
  /// each unmatched probe row padded with NULLs. Only `plan.out_cols` are
  /// gathered, once per chunk.
  Result<DataChunk> Probe(const DataChunk& chunk, const Table& right,
                          const RowIndex& index, const ProbePlan& plan) const;

 private:
  JoinType type_;
  std::vector<size_t> left_keys_;
  std::vector<size_t> right_keys_;
  BoundExprPtr residual_;  ///< over [left ++ right]; may be null
};

/// Fallback join for non-equi or missing conditions (cross join).
class PhysicalNestedLoopJoin final : public PhysicalOp {
 public:
  PhysicalNestedLoopJoin(Schema schema, JoinType type, BoundExprPtr condition)
      : PhysicalOp(std::move(schema)),
        type_(type),
        condition_(std::move(condition)) {}
  Result<TablePtr> Execute(ExecContext& ctx) const override;
  const char* Name() const override { return "NestedLoopJoin"; }

 private:
  JoinType type_;
  BoundExprPtr condition_;  ///< may be null (cross join)
};

/// Hash aggregation. Always a pipeline sink (exec/pipeline.cc): its input
/// chain folds into per-worker partial hash tables (GroupedAggregator)
/// that are merged once at the breaker.
class PhysicalHashAggregate final : public PhysicalOp {
 public:
  PhysicalHashAggregate(Schema schema, std::vector<BoundExprPtr> group_exprs,
                        std::vector<AggregateSpec> aggregates)
      : PhysicalOp(std::move(schema)),
        group_exprs_(std::move(group_exprs)),
        aggregates_(std::move(aggregates)) {}
  const char* Name() const override { return "HashAggregate"; }
  PipelineRole pipeline_role() const override {
    return PipelineRole::kPreAggregate;
  }

  const std::vector<BoundExprPtr>& group_exprs() const { return group_exprs_; }
  const std::vector<AggregateSpec>& aggregates() const { return aggregates_; }

 private:
  std::vector<BoundExprPtr> group_exprs_;
  std::vector<AggregateSpec> aggregates_;
};

/// Bag union of all children.
class PhysicalUnionAll final : public PhysicalOp {
 public:
  explicit PhysicalUnionAll(Schema schema) : PhysicalOp(std::move(schema)) {}
  Result<TablePtr> Execute(ExecContext& ctx) const override;
  const char* Name() const override { return "UnionAll"; }
};

/// Removes duplicate rows (keeps first occurrence).
class PhysicalDistinct final : public PhysicalOp {
 public:
  explicit PhysicalDistinct(Schema schema) : PhysicalOp(std::move(schema)) {}
  Result<TablePtr> Execute(ExecContext& ctx) const override;
  const char* Name() const override { return "Distinct"; }
};

/// EXCEPT / INTERSECT with SQL set (distinct) semantics: hashes the right
/// child and emits distinct left rows absent from (kExcept) or present in
/// (kIntersect) it.
class PhysicalSetDifference final : public PhysicalOp {
 public:
  PhysicalSetDifference(Schema schema, bool intersect)
      : PhysicalOp(std::move(schema)), intersect_(intersect) {}
  Result<TablePtr> Execute(ExecContext& ctx) const override;
  const char* Name() const override {
    return intersect_ ? "Intersect" : "Except";
  }

 private:
  bool intersect_;
};

/// ORDER BY. A stable order on typed per-key comparators (DESIGN.md §11,
/// "Typed breakers"): NULLs first before the DESC flip, NaN above every
/// number, ties in input order.
class PhysicalSort final : public PhysicalOp {
 public:
  struct Key {
    BoundExprPtr expr;
    bool descending;
  };
  PhysicalSort(Schema schema, std::vector<Key> keys)
      : PhysicalOp(std::move(schema)), keys_(std::move(keys)) {}
  Result<TablePtr> Execute(ExecContext& ctx) const override;
  const char* Name() const override { return "Sort"; }
  std::string Describe() const override;

  /// Emits only the first `rows` rows of the order (a top-N selection);
  /// the planner sets offset + limit when a LIMIT sits on the sort.
  void set_top_n(int64_t rows) { top_n_ = rows; }

 private:
  std::vector<Key> keys_;
  int64_t top_n_ = -1;  ///< -1: every row
};

/// Semi-join filter against the key set in column 0 of a named intermediate
/// result: keeps child rows whose key column value appears (keep_matching)
/// or does not appear (!keep_matching) in the set. Used by delta-driven
/// iteration to restrict the loop body to the affected keys.
class PhysicalDeltaRestrict final : public PhysicalOp {
 public:
  PhysicalDeltaRestrict(Schema schema, std::string delta_source,
                        size_t key_col, bool keep_matching)
      : PhysicalOp(std::move(schema)),
        delta_source_(std::move(delta_source)),
        key_col_(key_col),
        keep_matching_(keep_matching) {}
  const char* Name() const override { return "DeltaRestrict"; }
  std::string Describe() const override {
    return "key:" + std::to_string(key_col_) +
           (keep_matching_ ? " IN " : " NOT IN ") + "result:" + delta_source_;
  }
  PipelineRole pipeline_role() const override {
    return PipelineRole::kDeltaRestrict;
  }
  const std::string& delta_source() const { return delta_source_; }
  size_t key_col() const { return key_col_; }
  bool keep_matching() const { return keep_matching_; }

  /// Restricts `chunk` to the rows whose key, in chunk column `chunk_key`,
  /// passes against the key set indexed by `keys`; returns how many were
  /// kept. The pipeline executor's delta-restrict stage.
  size_t Restrict(DataChunk* chunk, size_t chunk_key,
                  const RowIndex& keys) const;

 private:
  std::string delta_source_;
  size_t key_col_;
  bool keep_matching_;
};

/// LIMIT n [OFFSET m]. limit < 0 means unlimited (offset only).
class PhysicalLimit final : public PhysicalOp {
 public:
  PhysicalLimit(Schema schema, int64_t limit, int64_t offset = 0)
      : PhysicalOp(std::move(schema)), limit_(limit), offset_(offset) {}
  Result<TablePtr> Execute(ExecContext& ctx) const override;
  const char* Name() const override { return "Limit"; }

 private:
  int64_t limit_;
  int64_t offset_;
};

}  // namespace dbspinner
