#include "exec/pipeline.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>

#include "exec/data_chunk.h"
#include "exec/hash_aggregate.h"
#include "exec/row_index.h"

namespace dbspinner {

namespace {

// Key types of columns `cols` under `schema`.
std::vector<TypeId> SchemaKeyTypes(const Schema& schema,
                                   const std::vector<size_t>& cols) {
  std::vector<TypeId> types;
  types.reserve(cols.size());
  for (size_t c : cols) types.push_back(schema.column(c).type);
  return types;
}

/// One compiled streaming stage of a pipeline. Its expressions are clones
/// of the operator's, remapped onto the columns of the stage's input chunk.
struct Stage {
  const PhysicalOp* op = nullptr;
  PipelineRole role = PipelineRole::kBreaker;

  // kFilter
  BoundExprPtr predicate;
  std::unique_ptr<CompiledExpr> filter;

  // kProject: the live outputs only, and the schema of the chunk they make.
  std::vector<BoundExprPtr> exprs;
  std::vector<CompiledExpr> projections;
  Schema schema;

  // kHashProbe: fully materialized build side + shared index.
  TablePtr right;
  std::shared_ptr<const RowIndex> build;
  PhysicalHashJoin::ProbePlan probe;

  // kDeltaRestrict: the indexed key set for this pipeline run and the
  // input chunk's key column.
  std::shared_ptr<const KeySet> keys;
  size_t key_col = 0;
};

/// True if `op` streams inside a pipeline. A hash probe always does: its
/// build side materializes once at CompileStages, and under MPP every
/// morsel worker probes that one shared read-only index.
bool Fusible(const PhysicalOp& op) {
  switch (op.pipeline_role()) {
    case PipelineRole::kFilter:
    case PipelineRole::kProject:
    case PipelineRole::kHashProbe:
    case PipelineRole::kDeltaRestrict:
      return true;
    default:
      return false;
  }
}

/// Chunk column of an ordinal that a stage does not materialize.
constexpr size_t kDead = static_cast<size_t>(-1);

using LiveMask = std::vector<uint8_t>;

void MarkRefs(const BoundExpr& expr, LiveMask* live) {
  std::vector<size_t> refs;
  expr.CollectColumnRefs(&refs);
  for (size_t c : refs) (*live)[c] = 1;
}

/// The ordinals `live` marks, ascending.
std::vector<size_t> LiveOrdinals(const LiveMask& live) {
  std::vector<size_t> cols;
  for (size_t c = 0; c < live.size(); ++c) {
    if (live[c]) cols.push_back(c);
  }
  return cols;
}

/// Ordinal -> chunk column of a chunk that holds exactly `cols`
/// (ascending), kDead for every other ordinal below `width`.
std::vector<size_t> DenseLayout(const std::vector<size_t>& cols,
                                size_t width) {
  std::vector<size_t> layout(width, kDead);
  for (size_t i = 0; i < cols.size(); ++i) layout[cols[i]] = i;
  return layout;
}

/// A clone of `expr` that reads ordinal c from chunk column layout[c].
BoundExprPtr Remapped(const BoundExpr& expr,
                      const std::vector<size_t>& layout) {
  BoundExprPtr out = expr.Clone();
  out->RemapColumns(layout);
  return out;
}

/// The liveness pass (DESIGN.md §11, "Live columns"): walks `chain` from
/// the top down. `need` marks the top's output ordinals that the sink
/// reads; entry i of the result marks those of chain[i] that a later stage
/// or the sink reads. A filter adds its predicate's refs to what passes
/// through it, a delta restrict its key, a project the refs of its live
/// outputs only, a probe its left keys and residual. A project or probe
/// builds a new chunk, so it keeps one column even when nothing reads any:
/// the chunk's columns carry its row count.
std::vector<LiveMask> LiveColumns(const std::vector<const PhysicalOp*>& chain,
                                  LiveMask need) {
  std::vector<LiveMask> live(chain.size());
  for (size_t i = 0; i < chain.size(); ++i) {
    const PhysicalOp* op = chain[i];
    LiveMask reads(op->children()[0]->output_schema().num_columns(), 0);
    const bool none = std::find(need.begin(), need.end(), 1) == need.end();
    switch (op->pipeline_role()) {
      case PipelineRole::kFilter:
        reads = need;
        MarkRefs(static_cast<const PhysicalFilter*>(op)->predicate(), &reads);
        break;
      case PipelineRole::kDeltaRestrict:
        reads = need;
        reads[static_cast<const PhysicalDeltaRestrict*>(op)->key_col()] = 1;
        break;
      case PipelineRole::kProject: {
        const auto& exprs = static_cast<const PhysicalProject*>(op)->exprs();
        if (none && !need.empty()) need[0] = 1;
        for (size_t c = 0; c < exprs.size(); ++c) {
          if (need[c]) MarkRefs(*exprs[c], &reads);
        }
        break;
      }
      case PipelineRole::kHashProbe: {
        const auto* join = static_cast<const PhysicalHashJoin*>(op);
        const std::vector<size_t>& keys = join->left_keys();
        if (none) need[keys[0]] = 1;
        for (size_t c = 0; c < reads.size(); ++c) reads[c] = need[c];
        for (size_t k : keys) reads[k] = 1;
        if (join->residual() != nullptr) {
          std::vector<size_t> refs;
          join->residual()->CollectColumnRefs(&refs);
          for (size_t c : refs) {
            if (c < reads.size()) reads[c] = 1;
          }
        }
        break;
      }
      default:
        break;
    }
    live[i] = std::move(need);
    need = std::move(reads);
  }
  return live;
}

std::vector<ColumnVectorPtr> MakeAccumulator(const Schema& schema) {
  std::vector<ColumnVectorPtr> cols;
  cols.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    cols.push_back(std::make_shared<ColumnVector>(schema.column(c).type));
  }
  return cols;
}

// Collects the maximal streaming chain starting at `start` (top-down) and
// executes the breaker below it, returning the materialized source.
Result<TablePtr> CollectChain(const PhysicalOp& start, ExecContext& ctx,
                              std::vector<const PhysicalOp*>* chain) {
  const PhysicalOp* cur = &start;
  while (Fusible(*cur)) {
    chain->push_back(cur);
    cur = cur->children()[0].get();
  }
  return ExecuteOp(*cur, ctx);
}

// The index over key set `keys` for probes of `probe_type`: the one a
// loop's key-set step built when `keys` is that loop's affected-key set
// (so the driving and carry restricts of one iteration share it), else a
// new one.
std::shared_ptr<const KeySet> SharedKeySet(const ExecContext& ctx,
                                           const TablePtr& keys,
                                           TypeId probe_type) {
  for (const auto& [id, loop] : ctx.loops) {
    if (loop.affected != nullptr && loop.affected->table == keys &&
        loop.affected->index.Accepts({probe_type})) {
      return loop.affected;
    }
  }
  return std::make_shared<const KeySet>(keys, probe_type);
}

// Compiles stages bottom→top. Build sides and key sets materialize here —
// these are the pipeline's breakers on the non-streaming inputs. All stage
// state is read-only during execution, so one compiled stage vector is
// shared by every morsel worker. `need` marks the top's output ordinals
// the sink reads; a probe or project materializes only the live columns
// of its output (LiveColumns), and every expression above it is remapped
// onto that narrower chunk. `*layout` receives the top chunk's ordinal ->
// column map for the sink's own expressions.
Result<std::vector<Stage>> CompileStages(
    const std::vector<const PhysicalOp*>& chain, LiveMask need,
    ExecContext& ctx, std::vector<size_t>* layout) {
  // The source chunk is the breaker's whole table.
  const size_t source_width =
      chain.empty()
          ? need.size()
          : chain.back()->children()[0]->output_schema().num_columns();
  const std::vector<LiveMask> live = LiveColumns(chain, std::move(need));
  layout->resize(source_width);
  for (size_t c = 0; c < source_width; ++c) (*layout)[c] = c;

  std::vector<Stage> stages(chain.size());
  for (size_t i = 0; i < chain.size(); ++i) {
    const size_t top_down = chain.size() - 1 - i;
    const PhysicalOp* op = chain[top_down];
    const size_t width = op->output_schema().num_columns();
    Stage& s = stages[i];
    s.op = op;
    s.role = op->pipeline_role();
    switch (s.role) {
      case PipelineRole::kFilter:
        s.predicate = Remapped(
            static_cast<const PhysicalFilter*>(op)->predicate(), *layout);
        s.filter = std::make_unique<CompiledExpr>(*s.predicate);
        break;
      case PipelineRole::kProject: {
        const auto& exprs = static_cast<const PhysicalProject*>(op)->exprs();
        std::vector<size_t> cols = LiveOrdinals(live[top_down]);
        for (size_t c : cols) s.exprs.push_back(Remapped(*exprs[c], *layout));
        for (const auto& e : s.exprs) s.projections.emplace_back(*e);
        s.schema = op->output_schema().Select(cols);
        *layout = DenseLayout(cols, width);
        break;
      }
      case PipelineRole::kHashProbe: {
        const auto* join = static_cast<const PhysicalHashJoin*>(op);
        DBSP_ASSIGN_OR_RETURN(s.right,
                              ExecuteOp(*join->children()[1], ctx));
        s.build = join->GetOrBuildHash(
            ctx, s.right,
            SchemaKeyTypes(join->children()[0]->output_schema(),
                           join->left_keys()));
        std::vector<size_t> cols = LiveOrdinals(live[top_down]);
        std::vector<size_t> next = DenseLayout(cols, width);
        s.probe = join->PlanProbe(std::move(*layout), std::move(cols));
        *layout = std::move(next);
        break;
      }
      case PipelineRole::kDeltaRestrict: {
        const auto* dr = static_cast<const PhysicalDeltaRestrict*>(op);
        DBSP_ASSIGN_OR_RETURN(TablePtr keys,
                              ctx.registry->Get(dr->delta_source()));
        if (keys->num_columns() == 0) {
          return Status::Internal("DeltaRestrict key set '" +
                                  dr->delta_source() + "' has no columns");
        }
        s.keys = SharedKeySet(
            ctx, keys,
            dr->children()[0]->output_schema().column(dr->key_col()).type);
        s.key_col = (*layout)[dr->key_col()];
        break;
      }
      default:
        return Status::Internal("non-streaming op in pipeline chain");
    }
  }
  return stages;
}

// Evaluates a projection stage's live outputs over `chunk` into a new
// dense chunk.
Result<DataChunk> Project(const Stage& s, const DataChunk& chunk,
                          ExecStats* stats) {
  const EvalInput in(chunk.table(), chunk.rows());
  std::vector<ColumnVectorPtr> cols;
  cols.reserve(s.projections.size());
  for (size_t c = 0; c < s.projections.size(); ++c) {
    DBSP_ASSIGN_OR_RETURN(
        ColumnVectorPtr col,
        s.projections[c].Evaluate(in, &stats->kernel_rows_project));
    if (col->type() != s.schema.column(c).type) {
      auto cast = std::make_shared<ColumnVector>(s.schema.column(c).type);
      cast->AppendAll(*col);
      col = std::move(cast);
    }
    cols.push_back(std::move(col));
  }
  return DataChunk(Table::FromColumns(s.schema, std::move(cols)), 0,
                   chunk.size());
}

// Streams one chunk through every compiled stage, counting into `stats`:
// ctx.stats on the serial path, else the worker slot's own ExecStats
// (ctx.stats must not be mutated from parallel morsel tasks), which the
// driver adds into ctx.stats once every morsel succeeded.
Result<DataChunk> RunChunk(const std::vector<Stage>& stages, DataChunk chunk,
                           ExecStats* stats) {
  for (const Stage& s : stages) {
    if (chunk.empty()) break;
    switch (s.role) {
      case PipelineRole::kFilter: {
        std::vector<uint32_t> sel;
        sel.reserve(chunk.size());
        DBSP_RETURN_NOT_OK(s.filter->Filter(
            EvalInput(chunk.table(), chunk.rows()), &sel,
            &stats->kernel_rows_filter));
        chunk.SetSelection(std::move(sel));
        break;
      }
      case PipelineRole::kProject: {
        DBSP_ASSIGN_OR_RETURN(chunk, Project(s, chunk, stats));
        break;
      }
      case PipelineRole::kHashProbe: {
        stats->kernel_rows_probe += static_cast<int64_t>(chunk.size());
        const auto* join = static_cast<const PhysicalHashJoin*>(s.op);
        DBSP_ASSIGN_OR_RETURN(
            chunk, join->Probe(chunk, *s.right, *s.build, s.probe));
        break;
      }
      case PipelineRole::kDeltaRestrict: {
        const auto* dr = static_cast<const PhysicalDeltaRestrict*>(s.op);
        size_t kept = dr->Restrict(&chunk, s.key_col, s.keys->index);
        if (dr->keep_matching()) stats->delta_probe_rows += kept;
        break;
      }
      default:
        break;
    }
  }
  return chunk;
}

/// The end of a pipeline: what the driver does with each finished chunk,
/// and the table it makes once every morsel ran. On the parallel path each
/// worker slot feeds it from one pool thread at a time; on the serial path
/// one slot feeds it the morsels in order.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual Status Consume(size_t morsel, size_t slot,
                         const DataChunk& chunk) = 0;
  virtual Result<TablePtr> Finish(ExecContext& ctx) = 0;
};

// A dense table of `chunk`'s rows.
TablePtr DenseTable(const Schema& schema, const DataChunk& chunk) {
  std::vector<ColumnVectorPtr> cols = MakeAccumulator(schema);
  chunk.AppendTo(&cols);
  return Table::FromColumns(schema, std::move(cols));
}

/// Materializes the pipeline's output. Parallel workers each make a table
/// per morsel, concatenated in morsel order, so the output does not depend
/// on which worker claimed which morsel. The serial path appends straight
/// into one accumulator, and a single morsel passes its result through
/// without the sink copy: a chunk that still spans its whole base
/// unchanged returns the base table itself (an all-pass filter or delta
/// restrict keeps the input's pointer identity, which rename relies on).
class MaterializeSink final : public Sink {
 public:
  MaterializeSink(const Schema& schema, size_t morsels, size_t slots)
      : schema_(schema), single_(morsels == 1) {
    if (slots > 1) {
      parts_.resize(morsels);
    } else if (!single_) {
      acc_ = MakeAccumulator(schema);
    }
  }

  Status Consume(size_t morsel, size_t, const DataChunk& chunk) override {
    if (!parts_.empty()) {
      if (!chunk.empty()) parts_[morsel] = DenseTable(schema_, chunk);
    } else if (!single_) {
      if (!chunk.empty()) chunk.AppendTo(&acc_);
    } else if (chunk.empty()) {
      // An empty chunk may have short-circuited mid-pipeline, so its base
      // can carry an intermediate schema: never pass it through.
      out_ = Table::Make(schema_);
    } else if (chunk.contiguous() && chunk.begin() == 0 && chunk.base() &&
               chunk.size() == chunk.base()->num_rows()) {
      out_ = chunk.base();
    } else {
      out_ = DenseTable(schema_, chunk);
    }
    return Status::OK();
  }

  Result<TablePtr> Finish(ExecContext&) override {
    if (single_) return out_;
    if (parts_.empty()) return Table::FromColumns(schema_, std::move(acc_));
    auto out = Table::Make(schema_);
    for (const TablePtr& part : parts_) {
      if (part != nullptr) out->AppendAll(*part);
    }
    return out;
  }

 private:
  const Schema& schema_;
  const bool single_;
  std::vector<TablePtr> parts_;       // parallel: one table per morsel
  std::vector<ColumnVectorPtr> acc_;  // serial, several morsels
  TablePtr out_;                      // serial, one morsel
};

/// A grouped aggregation (DESIGN.md §11): the aggregate never sees a
/// materialized input table. Each chunk folds into its worker slot's
/// private GroupedAggregator partial, and several partials merge once at
/// the end (exact: every aggregate state is a commutative monoid and
/// DISTINCT defers to Finalize), so a parallel GROUP BY never repartitions
/// its input on the group key. The keys and arguments are clones remapped
/// onto the top chunk's columns (`layout`).
class AggregateSink final : public Sink {
 public:
  AggregateSink(const PhysicalHashAggregate& agg,
                const std::vector<size_t>& layout, size_t slots)
      : schema_(agg.output_schema()) {
    for (const auto& g : agg.group_exprs()) {
      group_exprs_.push_back(Remapped(*g, layout));
    }
    for (const AggregateSpec& a : agg.aggregates()) {
      aggregates_.push_back(a.Clone());
      if (a.arg != nullptr) aggregates_.back().arg->RemapColumns(layout);
    }
    partials_.reserve(slots);
    for (size_t s = 0; s < slots; ++s) {
      partials_.emplace_back(&group_exprs_, &aggregates_, &schema_);
    }
  }

  /// The input ordinals the sink reads: its group keys' and arguments'.
  static LiveMask Reads(const PhysicalHashAggregate& agg) {
    LiveMask need(agg.children()[0]->output_schema().num_columns(), 0);
    for (const auto& g : agg.group_exprs()) MarkRefs(*g, &need);
    for (const AggregateSpec& a : agg.aggregates()) {
      if (a.arg != nullptr) MarkRefs(*a.arg, &need);
    }
    return need;
  }

  Status Consume(size_t, size_t slot, const DataChunk& chunk) override {
    if (chunk.empty()) return Status::OK();
    return partials_[slot].Consume(chunk);
  }

  Result<TablePtr> Finish(ExecContext& ctx) override {
    GroupedAggregator* result = &partials_[0];
    std::optional<GroupedAggregator> merged;
    if (partials_.size() > 1) {
      merged.emplace(&group_exprs_, &aggregates_, &schema_);
      for (const GroupedAggregator& p : partials_) {
        merged->MergeFrom(p);
        ++ctx.stats.agg_partials_merged;
      }
      result = &*merged;
    }
    ctx.stats.agg_rows_preaggregated += result->rows_consumed();
    return result->Finalize();
  }

 private:
  const Schema& schema_;
  std::vector<BoundExprPtr> group_exprs_;
  std::vector<AggregateSpec> aggregates_;
  std::vector<GroupedAggregator> partials_;  // one per worker slot
};

// The one morsel driver. `top` is the chain's top streaming operator, or
// a hash aggregate whose input chain folds into an AggregateSink.
Result<TablePtr> RunPipeline(const PhysicalOp& top, ExecContext& ctx) {
  const auto* agg = top.pipeline_role() == PipelineRole::kPreAggregate
                        ? static_cast<const PhysicalHashAggregate*>(&top)
                        : nullptr;
  std::vector<const PhysicalOp*> chain;
  DBSP_ASSIGN_OR_RETURN(
      TablePtr source,
      CollectChain(agg != nullptr ? *top.children()[0] : top, ctx, &chain));

  const auto t0 = std::chrono::steady_clock::now();

  // A materializing sink reads every output column.
  LiveMask need = agg != nullptr
                      ? AggregateSink::Reads(*agg)
                      : LiveMask(top.output_schema().num_columns(), 1);
  std::vector<size_t> layout;
  DBSP_ASSIGN_OR_RETURN(std::vector<Stage> stages,
                        CompileStages(chain, std::move(need), ctx, &layout));

  const size_t n = source->num_rows();
  std::vector<DataChunk> morsels =
      SplitIntoMorsels(source, ctx.options->morsel_size);
  const bool parallel = ctx.UseParallel(n) && morsels.size() > 1;
  const size_t width =
      parallel ? std::min<size_t>(
                     static_cast<size_t>(ctx.options->num_workers),
                     morsels.size())
               : 1;
  // The sink lives on the stack: allocating it on the heap, between the
  // morsel list and the sink's own buffers, raised sql_ops' peak RSS by
  // 1.5% in perfbench.
  std::optional<AggregateSink> aggregate;
  std::optional<MaterializeSink> materialize;
  Sink* sink = agg != nullptr
                   ? static_cast<Sink*>(&aggregate.emplace(*agg, layout, width))
                   : &materialize.emplace(top.output_schema(), morsels.size(),
                                          width);

  if (parallel) {
    // Parallel morsels: a shared MorselQueue drained by `width` worker
    // slots with stealing, each claimed morsel running the whole pipeline
    // into the sink. Fault injection and cancellation ride on the
    // per-morsel claim: the "worker abandoned the task" failure mode of an
    // MPP scheduler, fired once per morsel. The serial path deliberately
    // injects nothing, like the breakers (whose fault sites live only on
    // their parallel branches): a serial pipeline adds no scheduling step
    // that could fail, and injecting per serial morsel would inflate the
    // per-recovery-segment hit count until the executor's bounded
    // checkpoint/restore loop could no longer finish.
    std::vector<ExecStats> slots(width);
    Status st = ctx.pool->ParallelForMorsels(
        morsels.size(), width,
        [&](size_t m, size_t slot) -> Status {
          DBSP_ASSIGN_OR_RETURN(DataChunk chunk,
                                RunChunk(stages, morsels[m], &slots[slot]));
          return sink->Consume(m, slot, chunk);
        },
        ctx.faults, "exec.pipeline.morsel", &ctx.cancel,
        &ctx.stats.morsels_stolen);
    DBSP_RETURN_NOT_OK(st);
    for (const ExecStats& s : slots) ctx.stats.Add(s);
  } else {
    for (size_t m = 0; m < morsels.size(); ++m) {
      // Cooperative cancellation at every morsel boundary: deadlines and
      // cancels fire mid-pipeline without waiting for the sink.
      if (ctx.cancel.live()) {
        ++ctx.stats.cancel_checks;
        DBSP_RETURN_NOT_OK(ctx.cancel.Check());
      }
      DBSP_ASSIGN_OR_RETURN(
          DataChunk chunk, RunChunk(stages, std::move(morsels[m]), &ctx.stats));
      DBSP_RETURN_NOT_OK(sink->Consume(m, 0, chunk));
    }
  }
  DBSP_ASSIGN_OR_RETURN(TablePtr out, sink->Finish(ctx));

  ctx.stats.pipelines_run += 1;
  ctx.stats.morsels_dispatched += static_cast<int64_t>(morsels.size());
  ctx.stats.pipeline_rows_in += static_cast<int64_t>(n);
  ctx.stats.pipeline_rows_out += static_cast<int64_t>(out->num_rows());
  ctx.stats.rows_materialized += static_cast<int64_t>(out->num_rows());
  ctx.stats.pipeline_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  return out;
}

}  // namespace

Result<TablePtr> ExecuteOp(const PhysicalOp& op, ExecContext& ctx) {
  if (ctx.options == nullptr) {
    return Status::Internal("ExecContext has no EngineOptions");
  }
  if (op.pipeline_role() != PipelineRole::kPreAggregate && !Fusible(op)) {
    return op.Execute(ctx);
  }
  return RunPipeline(op, ctx);
}

}  // namespace dbspinner
