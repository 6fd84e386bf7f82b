#include "engine/database.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <numeric>
#include <unordered_set>
#include <utility>

#include "binder/binder.h"
#include "common/string_util.h"
#include "exec/physical_planner.h"
#include "exec/program_executor.h"
#include "expr/vector_eval.h"
#include "ivm/sql_render.h"
#include "optimizer/cost_model.h"
#include "optimizer/optimizer.h"
#include "parser/parser.h"
#include "plan/plan_printer.h"
#include "rewrite/iterative_rewrite.h"
#include "storage/codec.h"
#include "storage/csv.h"
#include "verify/verify.h"

namespace dbspinner {

namespace {

/// Pins glibc malloc's mmap and trim thresholds, once per process. Left
/// dynamic, they rise only after the process happens to free a large
/// mmapped block; until then free() hands the heap's free top back to the
/// OS many times a query and the next step faults the pages back in, so
/// query speed depended on incidental allocations. In perfbench runs on a
/// 4-vCPU Xeon VM, minor faults a round went from ~18,000 to 56 on
/// `proc_dblp` and from ~6,100 to ~280 on `cte_pokec_w4`, and no
/// workload's peak RSS rose by more than 0.2%. Mapping from 1 MiB instead
/// re-faulted the indexes over `sql_ops`' 100k-row tables on every query;
/// from 4 MiB, it raised `cte_pokec_w4` peak RSS by ~5%. Re-measured once
/// hash probes no longer built a table per chunk (two 8 s runs a side):
/// without the pinning, minor faults a round rose from ~23 to ~615 on
/// `cte_dblp`, ~18 to ~720 on `proc_dblp` and ~87 to ~565 on
/// `cte_pokec_w4`, and `sql_ops` peak RSS from 32.9 to 35.2 MB, so it
/// stays.
void PinAllocatorThresholds() {
#if defined(__GLIBC__)
  static const bool pinned = [] {
    mallopt(M_MMAP_THRESHOLD, 2 << 20);
    mallopt(M_TRIM_THRESHOLD, 8 << 20);
    return true;
  }();
  (void)pinned;
#endif
}

/// Shape hash of a compiled program, stored in durable checkpoints so a
/// resume against a program that compiled differently (other build, other
/// optimizer toggles) is rejected: the checkpointed step indices would be
/// meaningless in it.
uint64_t ProgramFingerprint(const Program& program) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(program.steps.size());
  for (const auto& step : program.steps) {
    mix(static_cast<uint64_t>(step.kind) + 0x9e3779b97f4a7c15ull);
    mix(static_cast<uint64_t>(step.loop_id) + 1);
  }
  return h;
}

/// Engine-side DurableCheckpointSink: turns an executor checkpoint into a
/// CheckpointImage (writing table extents) and commits it via one WAL
/// frame. The extent cache exploits the engine's copy-on-write discipline:
/// a Table reachable from consecutive checkpoints is the *same object*, so
/// its extents are written once and re-referenced. Cached entries hold a
/// TablePtr keepalive, which both keeps pointer identity from being
/// recycled and is pruned to the latest checkpoint's tables so dropped
/// versions release their memory (and their extents become GC-able).
class DurableProgramSink : public DurableCheckpointSink {
 public:
  DurableProgramSink(StorageManager* store, uint64_t tag, uint64_t fingerprint)
      : store_(store), tag_(tag), fingerprint_(fingerprint) {}

  Status Persist(
      size_t pc, const std::map<int, LoopState>& loops,
      const std::unordered_map<std::string, TablePtr>& registry) override {
    CheckpointImage image;
    image.fingerprint = fingerprint_;
    image.pc = pc;
    std::unordered_set<const Table*> live;
    for (const auto& [id, state] : loops) {
      LoopImage li;
      li.id = id;
      li.iteration = state.iteration;
      li.last_update_count = state.last_update_count;
      li.cumulative_updates = state.cumulative_updates;
      if (state.previous) {
        DBSP_ASSIGN_OR_RETURN(TableImage img, ImageFor(state.previous));
        li.previous = std::move(img);
        live.insert(state.previous.get());
      }
      if (state.delta_snapshot) {
        DBSP_ASSIGN_OR_RETURN(TableImage img, ImageFor(state.delta_snapshot));
        li.delta_snapshot = std::move(img);
        live.insert(state.delta_snapshot.get());
      }
      image.loops.push_back(std::move(li));
    }
    for (const auto& [name, table] : registry) {
      DBSP_ASSIGN_OR_RETURN(TableImage img, ImageFor(table));
      image.registry.emplace_back(name, std::move(img));
      live.insert(table.get());
    }
    DBSP_RETURN_NOT_OK(store_->SaveCheckpoint(tag_, image));
    for (auto it = cache_.begin(); it != cache_.end();) {
      if (live.count(it->first) == 0) {
        it = cache_.erase(it);
      } else {
        ++it;
      }
    }
    return Status::OK();
  }

 private:
  struct Entry {
    TablePtr keepalive;
    TableImage image;
  };

  Result<TableImage> ImageFor(const TablePtr& table) {
    auto it = cache_.find(table.get());
    if (it != cache_.end()) return it->second.image;
    DBSP_ASSIGN_OR_RETURN(TableImage image, store_->WriteTableExtents(*table));
    cache_.emplace(table.get(), Entry{table, image});
    return image;
  }

  StorageManager* store_;
  uint64_t tag_;
  uint64_t fingerprint_;
  std::unordered_map<const Table*, Entry> cache_;
};

/// Rehydrates a recovered CheckpointImage into executor seed state by
/// streaming its extents back through the buffer manager.
Result<ProgramResume> MaterializeResume(StorageManager* store,
                                        const CheckpointImage& cp) {
  ProgramResume resume;
  resume.pc = static_cast<size_t>(cp.pc);
  for (const auto& li : cp.loops) {
    LoopState state;
    state.iteration = li.iteration;
    state.last_update_count = li.last_update_count;
    state.cumulative_updates = li.cumulative_updates;
    if (li.previous.has_value()) {
      DBSP_ASSIGN_OR_RETURN(state.previous, store->ReadTable(*li.previous));
    }
    if (li.delta_snapshot.has_value()) {
      DBSP_ASSIGN_OR_RETURN(state.delta_snapshot,
                            store->ReadTable(*li.delta_snapshot));
    }
    resume.loops[li.id] = std::move(state);
  }
  for (const auto& [name, img] : cp.registry) {
    DBSP_ASSIGN_OR_RETURN(TablePtr table, store->ReadTable(img));
    resume.registry[name] = std::move(table);
  }
  return resume;
}

uint64_t HashSql(const std::string& sql) {
  return BlockChecksum(sql.data(), sql.size());
}

/// Registry name a materialized view's contents (or a maintenance seed) are
/// bound under when overlaid as a CTE; the ':' keeps it out of the SQL
/// identifier space so it cannot collide with program temp names.
std::string ViewSeedName(const std::string& name) { return "__ivm:" + name; }

/// Names starting with "__ivm" are reserved for the view subsystem (the
/// __ivm_views storage table and the maintenance seed namespace).
bool IsReservedIvmName(const std::string& name) {
  return name.size() >= 5 && EqualsIgnoreCase(name.substr(0, 5), "__ivm");
}

/// The row-id column UPDATE and DELETE add to their target table.
constexpr const char* kRowIdColumn = "__rowid";

/// `col` with every value cast to `type` by Value::CastTo (2.7 -> 3, 'x' ->
/// kTypeError), which the column's own coercing append does not do; shared
/// as is when the types already agree.
Result<ColumnVectorPtr> CastColumn(ColumnVectorPtr col, TypeId type) {
  if (col->type() == type) return col;
  auto out = std::make_shared<ColumnVector>(type);
  out->Reserve(col->size());
  for (size_t r = 0; r < col->size(); ++r) {
    DBSP_ASSIGN_OR_RETURN(Value v, col->GetValue(r).CastTo(type));
    out->Append(v);
  }
  return out;
}

}  // namespace

Database::Database(EngineOptions options)
    : default_session_(std::move(options)) {
  PinAllocatorThresholds();
}

ThreadPool* Database::GetPool(SessionState& ss) {
  if (ss.options.num_workers <= 1) return nullptr;
  MutexLock lock(pool_mu_);
  if (!pool_ || pool_->num_threads() < ss.options.num_workers) {
    // Grow-only: never destroy a pool another session's query may still be
    // dispatching onto. The retired pool stays alive (idle) until the
    // Database is destroyed.
    if (pool_) retired_pools_.push_back(std::move(pool_));
    pool_ = std::make_unique<ThreadPool>(ss.options.num_workers);
  }
  return pool_.get();
}

FaultInjector* Database::GetFaultInjector(SessionState& ss) {
  if (!ss.options.fault_injection.enabled) {
    // Disabling drops the injector, so a later re-enable — even with the
    // identical config — starts a fresh schedule from hit 0. Tests rely on
    // this to reproduce a schedule by toggling the config off and on.
    ss.fault_injector.reset();
    return nullptr;
  }
  if (!ss.fault_injector ||
      ss.fault_injector->config() != ss.options.fault_injection) {
    ss.fault_injector =
        std::make_unique<FaultInjector>(ss.options.fault_injection);
  }
  return ss.fault_injector.get();
}

ExecContext Database::MakeContext(SessionState& ss, Catalog* cat,
                                  ResultRegistry* registry) {
  ExecContext ctx;
  ctx.catalog = cat;
  ctx.registry = registry;
  ctx.options = &ss.options;
  ctx.pool = GetPool(ss);
  ctx.faults = GetFaultInjector(ss);
  ctx.cancel = ss.cancel;
  // Surface the counters gathered before the program runs (admission,
  // verifier findings, view syncs) in the execution stats of the statement
  // they belong to, and only there.
  ctx.stats = std::exchange(ss.pending, ExecStats{});
  // Restart the schedule at hit 0 for every program execution: the fault
  // set a statement sees is a pure function of the config, independent of
  // what ran before it. Repro lines stay one statement long.
  if (ctx.faults != nullptr) ctx.faults->Reset();
  return ctx;
}

Status Database::EnsureStorageOpen() {
  MutexLock lock(storage_mu_);
  if (storage_init_done_) return storage_status_;
  storage_init_done_ = true;
  const PersistenceOptions& p = default_session_.options.persistence;
  if (!p.enabled) return Status::OK();
  if (default_session_.options.fault_injection.enabled) {
    storage_faults_ =
        std::make_unique<FaultInjector>(default_session_.options.fault_injection);
  }
  auto opened = StorageManager::Open(p, storage_faults_.get());
  if (!opened.ok()) {
    storage_status_ = opened.status();
    return storage_status_;
  }
  storage_ = std::move(opened).value();
  // Materialize every recovered table into the in-memory catalog. The
  // catalog is still empty here (first statement), so name clashes are
  // impossible.
  const std::map<std::string, TableImage> recovered = storage_->tables();
  const TableImage* views_image = nullptr;
  for (const auto& [name, image] : recovered) {
    if (name == ivm::ViewRegistry::kViewsTable) {
      // Reserved view-catalog table: re-registered into the view registry
      // below, never into the SQL catalog.
      views_image = &image;
      continue;
    }
    auto table = storage_->ReadTable(image);
    if (!table.ok()) {
      storage_status_ = table.status();
      storage_.reset();
      return storage_status_;
    }
    Status st = catalog_.CreateTable(name, std::move(table).value(),
                                     image.primary_key_col);
    if (!st.ok()) {
      storage_status_ = st;
      storage_.reset();
      return storage_status_;
    }
  }
  if (views_image != nullptr) {
    // Re-register persisted materialized views from their definition SQL.
    // No query runs here: a recovered view starts stale and fully
    // refreshes on first read or maintenance.
    auto table = storage_->ReadTable(*views_image);
    Status st = table.ok() ? Status::OK() : table.status();
    for (size_t r = 0; st.ok() && r < table.value()->num_rows(); ++r) {
      const std::string name = table.value()->GetValue(r, 0).string_value();
      const std::string defsql = table.value()->GetValue(r, 1).string_value();
      auto parsed = ParseStatement(defsql);
      if (!parsed.ok()) {
        st = Status::Corruption("persisted view '" + name +
                                "' has an unparseable definition: " +
                                parsed.status().message());
      } else if (parsed.value()->query == nullptr) {
        st = Status::Corruption("persisted view '" + name +
                                "' definition is not a query");
      } else {
        st = views_.CreateRecovered(name, std::move(parsed.value()->query),
                                    defsql);
      }
    }
    if (!st.ok()) {
      storage_status_ = st;
      storage_.reset();
      return storage_status_;
    }
  }
  return Status::OK();
}

Status Database::PersistUpsert(const std::string& name,
                               std::optional<size_t> pk,
                               const TablePtr& table) {
  if (storage_ == nullptr) return Status::OK();
  return storage_->LogUpsertTable(name, pk, *table);
}

Status Database::PersistDrop(const std::string& name) {
  if (storage_ == nullptr) return Status::OK();
  return storage_->LogDropTable(name);
}

Result<QueryResult> Database::Execute(const std::string& sql) {
  return ExecuteForSession(&default_session_, sql);
}

Result<QueryResult> Database::ExecuteScript(const std::string& sql) {
  return ExecuteScriptForSession(&default_session_, sql);
}

Result<QueryResult> Database::ExecuteForSession(SessionState* session,
                                                const std::string& sql) {
  DBSP_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatement(sql));
  // The statement's durable identity: re-running the same text after a
  // crash finds the durable checkpoint saved under this tag.
  session->durable_program_tag = HashSql(sql);
  return ExecuteStatement(*session, *stmt);
}

Result<QueryResult> Database::ExecuteScriptForSession(SessionState* session,
                                                      const std::string& sql) {
  DBSP_ASSIGN_OR_RETURN(std::vector<StatementPtr> stmts, ParseScript(sql));
  if (stmts.empty()) {
    return Status::InvalidArgument("empty script");
  }
  QueryResult last;
  for (size_t i = 0; i < stmts.size(); ++i) {
    // Tag = script hash mixed with the statement's position, so identical
    // statements at different script offsets checkpoint independently.
    session->durable_program_tag =
        HashSql(sql) ^ (0x9e3779b97f4a7c15ull * (i + 1));
    DBSP_ASSIGN_OR_RETURN(last, ExecuteStatement(*session, *stmts[i]));
  }
  return last;
}

Result<TablePtr> Database::Query(const std::string& sql) {
  DBSP_ASSIGN_OR_RETURN(QueryResult result, Execute(sql));
  return result.table;
}

Status Database::RegisterTable(const std::string& name, TablePtr table,
                               std::optional<size_t> primary_key_col) {
  // Serialize with write statements: an in-flight DML holds CatalogEntry
  // pointers into the pre-publish version, and publishing a new version
  // under it would let a concurrent reader's snapshot pin drop that version
  // mid-statement. The inert token makes the wait unconditional.
  DBSP_RETURN_NOT_OK(commit_lock_.Acquire(CancellationToken()));
  Status status = EnsureStorageOpen();
  if (status.ok() && IsReservedIvmName(name)) {
    status = Status::InvalidArgument(
        "table names starting with '__ivm' are reserved");
  }
  if (status.ok() && views_.Has(name)) {
    status = Status::AlreadyExists("a materialized view named '" + name +
                                   "' already exists");
  }
  if (status.ok() && storage_ != nullptr && catalog_.Exists(name)) {
    // Pre-check so the WAL never logs an upsert the in-memory publish then
    // rejects (same message the catalog would produce).
    status = Status::AlreadyExists("table '" + name + "' already exists");
  }
  if (status.ok()) status = PersistUpsert(name, primary_key_col, table);
  if (status.ok()) {
    status = catalog_.CreateTable(name, std::move(table), primary_key_col);
  }
  commit_lock_.Release();
  return status;
}

Result<Program> Database::Plan(const std::string& sql) {
  DBSP_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatement(sql));
  const Statement* target = stmt.get();
  if (target->kind == StatementKind::kExplain) {
    target = target->explained.get();
  }
  if (target->kind != StatementKind::kSelect) {
    return Status::InvalidArgument("Plan() supports SELECT statements only");
  }
  Catalog snapshot = catalog_.PinSnapshot();
  ViewBindings views;
  return PrepareQuery(default_session_, &snapshot, *target, *target->query,
                      &views);
}

Status Database::VerifyStage(SessionState& ss, Catalog* cat,
                             const std::string& phase, const Program& program,
                             bool require_physical) {
  if (!ss.options.verify.verify_plans) return Status::OK();
  verify::VerifyContext vctx;
  vctx.catalog = cat;
  vctx.require_physical = require_physical;
  verify::VerifyReport report = verify::VerifyProgram(program, vctx);
  report.phase = phase;
  return verify::EnforceOrCount(report, ss.options.verify.enforce,
                                &ss.pending.verify_violations);
}

Result<Program> Database::PrepareProgram(
    SessionState& ss, Catalog* cat,
    const std::function<Result<Program>(ProgramBuilder&)>& build) {
  ProgramBuilder builder(cat, ss.options.optimizer);
  DBSP_ASSIGN_OR_RETURN(Program program, build(builder));
  DBSP_RETURN_NOT_OK(VerifyStage(ss, cat, "after-binding", program,
                                 /*require_physical=*/false));
  Optimizer optimizer(ss.options.optimizer, cat);
  if (ss.options.verify.verify_plans) {
    optimizer.set_rule_hook([this, &ss, cat](const char* rule,
                                             const Program& p) {
      return VerifyStage(ss, cat, std::string("after-") + rule, p,
                         /*require_physical=*/false);
    });
  }
  DBSP_RETURN_NOT_OK(optimizer.OptimizeProgram(&program));
  DBSP_RETURN_NOT_OK(VerifyStage(ss, cat, "after-optimize", program,
                                 /*require_physical=*/false));
  return program;
}

Result<QueryResult> Database::ExecuteStatement(SessionState& ss,
                                               const Statement& stmt) {
  // Cancellation observed even before planning starts: a query killed
  // while queued never touches the engine.
  if (ss.cancel.live()) {
    DBSP_RETURN_NOT_OK(ss.cancel.Check());
  }
  // Session options may have been \set to nonsense since the last
  // statement; reject them here, once, before any engine state is touched.
  DBSP_RETURN_NOT_OK(ss.options.Validate());
  // Open (and recover) the durable storage layer before the first statement
  // touches the catalog. A sticky open failure (corrupt directory) fails
  // every statement rather than silently degrading to in-memory.
  DBSP_RETURN_NOT_OK(EnsureStorageOpen());
  switch (stmt.kind) {
    case StatementKind::kSelect:
    case StatementKind::kExplain: {
      // Reads pin the current catalog version and run entirely against it:
      // no lock held, concurrent DDL/DML is invisible until the next
      // statement.
      Catalog snapshot = catalog_.PinSnapshot();
      if (stmt.kind == StatementKind::kSelect) {
        return RunQuery(ss, &snapshot, stmt, *stmt.query);
      }
      return ExecuteExplain(ss, &snapshot, stmt);
    }
    case StatementKind::kBegin:
    case StatementKind::kCommit:
    case StatementKind::kRollback:
      return ExecuteTransactionControl(ss, stmt);
    default:
      break;
  }
  // Write statements occupy the engine-wide writer slot for the duration of
  // the statement, making their read-modify-write of the catalog atomic. A
  // session with an open transaction already holds the slot; everyone else
  // acquires it here with a cancellable wait, so a writer stuck behind a
  // long transaction can still be killed or timed out.
  const bool acquired_here = !ss.holds_commit_lock;
  if (acquired_here) {
    DBSP_RETURN_NOT_OK(commit_lock_.Acquire(ss.cancel));
  }
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    switch (stmt.kind) {
      case StatementKind::kCreateTable:
        return ExecuteCreateTable(ss, stmt);
      case StatementKind::kInsert:
        return ExecuteInsert(ss, stmt);
      case StatementKind::kUpdate:
        return ExecuteUpdate(ss, stmt);
      case StatementKind::kDelete:
        return ExecuteDelete(ss, stmt);
      case StatementKind::kDropTable:
        return ExecuteDrop(ss, stmt);
      case StatementKind::kCopy:
        return ExecuteCopy(ss, stmt);
      case StatementKind::kCreateView:
        return ExecuteCreateView(ss, stmt);
      case StatementKind::kDropView:
        return ExecuteDropView(ss, stmt);
      case StatementKind::kRefreshView:
        return ExecuteRefreshView(ss, stmt);
      default:
        break;
    }
    return Status::Internal("unhandled statement kind");
  }();
  if (acquired_here) commit_lock_.Release();
  // Post-commit view maintenance runs outside the writer slot: every
  // queued delta carries its own pinned snapshot, so folding needs no
  // engine lock. Inside an explicit transaction deltas stay queued until
  // COMMIT drains them (or ROLLBACK invalidates them).
  if (result.ok() && !ss.InTransaction()) {
    MaintainViews(ss, &result->stats);
  }
  return result;
}

Result<QueryResult> Database::ExecuteCopy(SessionState& ss,
                                          const Statement& stmt) {
  DBSP_ASSIGN_OR_RETURN(CatalogEntry * entry, catalog_.Get(stmt.table_name));
  QueryResult result;
  result.table = Table::Make(Schema());
  if (stmt.copy_to) {
    DBSP_RETURN_NOT_OK(
        WriteCsv(*entry->table, stmt.copy_path, stmt.copy_delimiter));
    result.rows_affected = static_cast<int64_t>(entry->table->num_rows());
    return result;
  }
  DBSP_ASSIGN_OR_RETURN(
      TablePtr imported,
      ReadCsv(entry->table->schema(), stmt.copy_path, stmt.copy_delimiter));
  result.rows_affected = static_cast<int64_t>(imported->num_rows());
  // Append to a COW clone, like INSERT.
  TablePtr updated = entry->table->Clone();
  updated->AppendAll(*imported);
  DBSP_RETURN_NOT_OK(CommitWrite(ss, stmt.table_name, *entry,
                                 std::move(updated), std::move(imported),
                                 nullptr));
  return result;
}

Result<QueryResult> Database::ExecuteTransactionControl(SessionState& ss,
                                                        const Statement& stmt) {
  QueryResult result;
  result.table = Table::Make(Schema());
  switch (stmt.kind) {
    case StatementKind::kBegin:
      if (ss.InTransaction()) {
        return Status::InvalidArgument("a transaction is already in progress");
      }
      // The transaction holds the writer slot until COMMIT/ROLLBACK, so its
      // snapshot cannot go stale under it and its rollback target is exact.
      DBSP_RETURN_NOT_OK(commit_lock_.Acquire(ss.cancel));
      ss.holds_commit_lock = true;
      ss.tx_snapshot = catalog_.Snapshot();
      return result;
    case StatementKind::kCommit: {
      if (!ss.InTransaction()) {
        return Status::InvalidArgument("no transaction in progress");
      }
      // Fold the transaction's WAL frames into one manifest swap, making
      // the whole transaction durable as a unit. The lock is released
      // either way — a fold failure must not strand the writer slot.
      Status durable = Status::OK();
      if (storage_ != nullptr) durable = storage_->WriteManifestNow();
      ss.tx_snapshot.reset();
      ss.holds_commit_lock = false;
      commit_lock_.Release();
      DBSP_RETURN_NOT_OK(durable);
      // Deltas the transaction's statements queued are safe to fold now
      // that the writer slot is free.
      MaintainViews(ss, &result.stats);
      return result;
    }
    case StatementKind::kRollback: {
      if (!ss.InTransaction()) {
        return Status::InvalidArgument("no transaction in progress");
      }
      // Durably undo what the transaction logged: drop tables it created,
      // re-log the snapshot version of tables it replaced. Runs before the
      // in-memory restore so the WAL order matches the publish order.
      Status durable = Status::OK();
      if (storage_ != nullptr) {
        auto current = catalog_.Snapshot();
        for (const auto& [name, entry] : current) {
          if (ss.tx_snapshot->find(name) == ss.tx_snapshot->end()) {
            if (durable.ok()) durable = PersistDrop(name);
          }
        }
        for (const auto& [name, entry] : *ss.tx_snapshot) {
          auto it = current.find(name);
          if (it == current.end() || it->second.table != entry.table) {
            if (durable.ok()) {
              durable =
                  PersistUpsert(name, entry.primary_key_col, entry.table);
            }
          }
        }
      }
      catalog_.Restore(std::move(*ss.tx_snapshot));
      if (!views_.empty()) {
        // The restore rewrote base tables underneath any queued deltas;
        // invalidate so every view recomputes from the restored catalog.
        views_.MarkAllStale(catalog_.version(), catalog_.PinSnapshot());
      }
      ss.tx_snapshot.reset();
      ss.holds_commit_lock = false;
      commit_lock_.Release();
      DBSP_RETURN_NOT_OK(durable);
      return result;
    }
    default:
      return Status::Internal("not a transaction-control statement");
  }
}

Result<QueryResult> Database::RunProgramToResult(SessionState& ss, Catalog* cat,
                                                 Program program,
                                                 const ViewBindings& seeds) {
  DBSP_RETURN_NOT_OK(PlanProgram(&program, cat));
  DBSP_RETURN_NOT_OK(VerifyStage(ss, cat, "after-compile", program,
                                 /*require_physical=*/true));
  ResultRegistry registry;
  registry.set_scope(ss.temp_scope);
  // Pre-bind the overlaid view (or maintenance-seed) contents under the
  // names the binder's CTE overlays resolve to.
  for (const auto& [name, table] : seeds) {
    registry.Put(ViewSeedName(name), table);
  }
  ExecContext ctx = MakeContext(ss, cat, &registry);

  // Durable executor checkpoints (DESIGN.md §12): when persistence and
  // recovery are both on, each in-memory checkpoint is also committed to
  // the storage layer, and a prior run's durable checkpoint — same
  // statement tag, same program shape, same registry scope — seeds a
  // resume instead of restarting the program from scratch.
  std::unique_ptr<DurableProgramSink> sink;
  ProgramResume resume;
  const ProgramResume* resume_ptr = nullptr;
  const uint64_t tag = ss.durable_program_tag;
  if (storage_ != nullptr && ss.options.fault_tolerance.enable_recovery &&
      tag != 0) {
    uint64_t fp = ProgramFingerprint(program) ^
                  BlockChecksum(ss.temp_scope.data(), ss.temp_scope.size());
    if (auto cp = storage_->FindCheckpoint(tag);
        cp.has_value() && cp->fingerprint == fp) {
      DBSP_ASSIGN_OR_RETURN(resume, MaterializeResume(storage_.get(), *cp));
      resume_ptr = &resume;
    }
    sink = std::make_unique<DurableProgramSink>(storage_.get(), tag, fp);
    ctx.durable = sink.get();
  }

  DBSP_ASSIGN_OR_RETURN(TablePtr table, RunProgram(program, &ctx, resume_ptr));
  if (sink != nullptr) {
    // The program finished; its checkpoint is obsolete. (On failure we keep
    // it: the re-issued statement resumes.)
    DBSP_RETURN_NOT_OK(storage_->ClearCheckpoint(tag));
  }
  QueryResult result;
  result.table = std::move(table);
  result.stats = ctx.stats;
  return result;
}

Result<Program> Database::PrepareQuery(SessionState& ss, Catalog* cat,
                                       const Statement& stmt,
                                       const QueryNode& query,
                                       ViewBindings* views) {
  DBSP_RETURN_NOT_OK(CollectViewBindings(ss, *cat, stmt, views));
  return PrepareProgramWithViews(ss, cat, *views, [&](ProgramBuilder& b) {
    return b.BuildQuery(stmt.ctes, query);
  });
}

Result<QueryResult> Database::RunQuery(SessionState& ss, Catalog* cat,
                                       const Statement& stmt,
                                       const QueryNode& query,
                                       ViewBindings views) {
  DBSP_ASSIGN_OR_RETURN(Program program,
                        PrepareQuery(ss, cat, stmt, query, &views));
  return RunProgramToResult(ss, cat, std::move(program), views);
}

Result<QueryResult> Database::ExecuteExplain(SessionState& ss, Catalog* cat,
                                             const Statement& stmt) {
  const Statement& inner = *stmt.explained;
  if (inner.kind != StatementKind::kSelect) {
    return Status::NotImplemented("EXPLAIN supports SELECT statements only");
  }
  ViewBindings views;
  DBSP_ASSIGN_OR_RETURN(Program program,
                        PrepareQuery(ss, cat, inner, *inner.query, &views));
  QueryResult result;
  if (stmt.explain_analyze) {
    // EXPLAIN ANALYZE: actually run the program with per-step profiling
    // and annotate each step with executions / time / rows.
    DBSP_RETURN_NOT_OK(PlanProgram(&program, cat));
    DBSP_RETURN_NOT_OK(VerifyStage(ss, cat, "after-compile", program,
                                   /*require_physical=*/true));
    ResultRegistry registry;
    registry.set_scope(ss.temp_scope);
    for (const auto& [name, table] : views) {
      registry.Put(ViewSeedName(name), table);
    }
    ExecContext ctx = MakeContext(ss, cat, &registry);
    ctx.profiling = true;
    DBSP_ASSIGN_OR_RETURN(TablePtr ignored, RunProgram(program, &ctx));
    (void)ignored;
    result.explain =
        ExplainProgramWithProfile(program, ctx.profile, /*verbose=*/false);
    // Execution counters (including the fault-tolerance ones:
    // checkpoints_taken / restores / step_retries, and the concurrent-
    // serving ones: queue_wait_us / admission_waits / cancel_checks)
    // render below the plan.
    result.explain += "\nStats: " + ctx.stats.ToString() + "\n";
    result.stats = ctx.stats;
  } else {
    result.explain = ExplainProgram(program, /*verbose=*/true);
  }
  if (stmt.explain_cost) {
    CostModel model(cat);
    result.explain += "\n" + model.ExplainCost(program);
  }
  if (stmt.explain_verify) {
    // EXPLAIN (VERIFY): render the verifier's report for the fully
    // optimized (and, under ANALYZE, compiled) program, regardless of the
    // verify_plans option.
    verify::VerifyContext vctx;
    vctx.catalog = cat;
    vctx.require_physical = stmt.explain_analyze;
    verify::VerifyReport report = verify::VerifyProgram(program, vctx);
    report.phase = "final program";
    result.explain += "\n" + report.ToString();
    if (!stmt.explain_analyze) {
      // Plain EXPLAIN never executes, so the steps carry no physical plans
      // yet. Compile them here purely for verification, so the
      // post-physical-compilation stage (the V2xx pipeline checker) renders
      // alongside the bind/optimize-stage report above — EXPLAIN (VERIFY)
      // covers all three IRs without running the query. Under ANALYZE the
      // program was compiled before this block, so the report above already
      // includes the physical analysis.
      DBSP_RETURN_NOT_OK(PlanProgram(&program, cat));
      vctx.require_physical = true;
      verify::VerifyReport compiled = verify::VerifyProgram(program, vctx);
      compiled.phase = "after-compile";
      result.explain += compiled.ToString();
    }
  }
  // EXPLAIN also returns its text as a one-column table for convenience.
  Schema schema;
  schema.AddColumn("plan", TypeId::kString);
  result.table = Table::Make(schema);
  result.table->AppendRow({Value::String(result.explain)});
  return result;
}

Result<QueryResult> Database::ExecuteCreateTable(SessionState& ss,
                                                 const Statement& stmt) {
  if (stmt.if_not_exists &&
      (catalog_.Exists(stmt.table_name) || views_.Has(stmt.table_name))) {
    return QueryResult{};
  }
  if (IsReservedIvmName(stmt.table_name)) {
    return Status::InvalidArgument(
        "table names starting with '__ivm' are reserved");
  }
  if (views_.Has(stmt.table_name)) {
    return Status::AlreadyExists("a materialized view named '" +
                                 stmt.table_name + "' already exists");
  }
  if (stmt.ctas_query) {
    // CREATE TABLE ... AS SELECT: the query's result seeds the table.
    Catalog snapshot = catalog_.PinSnapshot();
    DBSP_ASSIGN_OR_RETURN(QueryResult rows,
                          RunQuery(ss, &snapshot, stmt, *stmt.ctas_query));
    TablePtr created = rows.table->Clone();
    if (storage_ != nullptr && catalog_.Exists(stmt.table_name)) {
      return Status::AlreadyExists("table '" + stmt.table_name +
                                   "' already exists");
    }
    DBSP_RETURN_NOT_OK(PersistUpsert(stmt.table_name, std::nullopt, created));
    DBSP_RETURN_NOT_OK(catalog_.CreateTable(stmt.table_name, created));
    QueryResult result;
    result.table = Table::Make(Schema());
    result.rows_affected = static_cast<int64_t>(rows.table->num_rows());
    result.stats = rows.stats;
    return result;
  }
  Schema schema;
  std::optional<size_t> pk;
  for (size_t i = 0; i < stmt.columns.size(); ++i) {
    schema.AddColumn(stmt.columns[i].name, stmt.columns[i].type);
    if (stmt.columns[i].primary_key) {
      if (pk.has_value()) {
        return Status::InvalidArgument(
            "multiple PRIMARY KEY columns are not supported");
      }
      pk = i;
    }
  }
  if (storage_ != nullptr && catalog_.Exists(stmt.table_name)) {
    return Status::AlreadyExists("table '" + stmt.table_name +
                                 "' already exists");
  }
  TablePtr empty = Table::Make(schema);
  DBSP_RETURN_NOT_OK(PersistUpsert(stmt.table_name, pk, empty));
  DBSP_RETURN_NOT_OK(catalog_.CreateTable(stmt.table_name, empty, pk));
  QueryResult result;
  result.table = Table::Make(Schema());
  return result;
}

Result<QueryResult> Database::ExecuteInsert(SessionState& ss,
                                            const Statement& stmt) {
  DBSP_ASSIGN_OR_RETURN(CatalogEntry * entry, catalog_.Get(stmt.table_name));
  const Schema& schema = entry->table->schema();

  // Map target columns: explicit list or all columns positionally.
  std::vector<size_t> targets;
  if (stmt.insert_columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) targets.push_back(i);
  } else {
    for (const auto& name : stmt.insert_columns) {
      auto idx = schema.FindColumn(name);
      if (!idx.has_value()) {
        return Status::BindError("column '" + name +
                                 "' does not exist in table '" +
                                 stmt.table_name + "'");
      }
      targets.push_back(*idx);
    }
  }

  // The inserted rows in the target's schema: built row by row from VALUES
  // constants, or column by column from the source query's result.
  QueryResult result;
  TablePtr ins = Table::Make(schema);
  if (!stmt.insert_values.empty()) {
    Binder binder(&catalog_);
    Binder::BindContext empty_ctx;
    for (const auto& value_row : stmt.insert_values) {
      if (value_row.size() != targets.size()) {
        return Status::BindError("INSERT row has " +
                                 std::to_string(value_row.size()) +
                                 " values, expected " +
                                 std::to_string(targets.size()));
      }
      std::vector<Value> row(schema.num_columns(), Value::Null());
      for (size_t i = 0; i < value_row.size(); ++i) {
        DBSP_ASSIGN_OR_RETURN(BoundExprPtr bound,
                              binder.BindScalarExpr(*value_row[i], empty_ctx));
        DBSP_ASSIGN_OR_RETURN(Value v, EvaluateConstant(*bound));
        DBSP_ASSIGN_OR_RETURN(row[targets[i]],
                              v.CastTo(schema.column(targets[i]).type));
      }
      ins->AppendRow(row);
    }
  } else if (stmt.insert_query) {
    Catalog snapshot = catalog_.PinSnapshot();
    DBSP_ASSIGN_OR_RETURN(result,
                          RunQuery(ss, &snapshot, stmt, *stmt.insert_query));
    const Table& rows = *result.table;
    if (rows.num_columns() != targets.size()) {
      return Status::BindError(
          "INSERT source returns " + std::to_string(rows.num_columns()) +
          " columns, expected " + std::to_string(targets.size()));
    }
    std::vector<ColumnVectorPtr> cols(schema.num_columns());
    for (size_t i = 0; i < targets.size(); ++i) {
      DBSP_ASSIGN_OR_RETURN(
          cols[targets[i]],
          CastColumn(rows.column_ptr(i), schema.column(targets[i]).type));
    }
    for (size_t c = 0; c < cols.size(); ++c) {
      if (cols[c] != nullptr) continue;
      cols[c] = std::make_shared<ColumnVector>(schema.column(c).type);
      for (size_t r = 0; r < rows.num_rows(); ++r) cols[c]->AppendNull();
    }
    ins = Table::FromColumns(schema, std::move(cols));
  }

  result.table = Table::Make(Schema());
  result.rows_affected = static_cast<int64_t>(ins->num_rows());
  // Copy-on-write so previously returned results that alias this table's
  // storage stay stable.
  TablePtr updated = entry->table->Clone();
  updated->AppendAll(*ins);
  DBSP_RETURN_NOT_OK(CommitWrite(ss, stmt.table_name, *entry,
                                 std::move(updated), std::move(ins), nullptr));
  return result;
}

Result<QueryResult> Database::RunRowIdQuery(SessionState& ss,
                                            const Statement& stmt,
                                            const Table& target) {
  Schema schema = target.schema();
  if (schema.FindColumn(kRowIdColumn).has_value()) {
    return Status::NotImplemented("UPDATE and DELETE need table '" +
                                  stmt.table_name +
                                  "' to have no column named " +
                                  kRowIdColumn);
  }
  schema.AddColumn(kRowIdColumn, TypeId::kInt64);
  std::vector<ColumnVectorPtr> cols;
  for (size_t c = 0; c < target.num_columns(); ++c) {
    cols.push_back(target.column_ptr(c));
  }
  auto rowid = std::make_shared<ColumnVector>(TypeId::kInt64);
  rowid->Reserve(target.num_rows());
  for (size_t r = 0; r < target.num_rows(); ++r) {
    rowid->AppendInt64(static_cast<int64_t>(r));
  }
  cols.push_back(std::move(rowid));

  // SELECT <t>.__rowid, <set_1>, ... FROM <t> [CROSS JOIN <from>] WHERE ...
  Statement select;
  select.kind = StatementKind::kSelect;
  select.query = std::make_unique<QueryNode>();
  QueryNode& q = *select.query;
  q.kind = QueryNodeKind::kSelect;
  q.select_list.push_back(
      SelectItem{MakeColumnRef(stmt.table_name, kRowIdColumn), ""});
  for (const auto& [name, expr] : stmt.set_clauses) {
    q.select_list.push_back(SelectItem{expr->Clone(), ""});
  }
  q.from = std::make_unique<TableRef>();
  q.from->kind = TableRefKind::kBase;
  q.from->table_name = stmt.table_name;
  if (stmt.update_from) {
    auto join = std::make_unique<TableRef>();
    join->kind = TableRefKind::kJoin;
    join->join_type = JoinType::kInner;
    join->left = std::move(q.from);
    join->right = stmt.update_from->Clone();
    q.from = std::move(join);
  }
  if (stmt.where) q.where = stmt.where->Clone();

  Catalog snapshot = catalog_.PinSnapshot();
  return RunQuery(ss, &snapshot, select, q,
                  {{stmt.table_name,
                    Table::FromColumns(std::move(schema), std::move(cols))}});
}

Result<QueryResult> Database::ExecuteUpdate(SessionState& ss,
                                            const Statement& stmt) {
  DBSP_ASSIGN_OR_RETURN(CatalogEntry * entry, catalog_.Get(stmt.table_name));
  const TablePtr target = entry->table;
  const Schema& schema = target->schema();
  std::vector<size_t> set_cols;
  for (const auto& [name, expr] : stmt.set_clauses) {
    auto idx = schema.FindColumn(name);
    if (!idx.has_value()) {
      return Status::BindError("column '" + name +
                               "' does not exist in table '" +
                               stmt.table_name + "'");
    }
    set_cols.push_back(*idx);
  }
  DBSP_ASSIGN_OR_RETURN(QueryResult result, RunRowIdQuery(ss, stmt, *target));

  // The first output row of each row id is that row's update; an UPDATE ...
  // FROM row with several matches takes one of them.
  const Table& rows = *result.table;
  std::vector<uint32_t> hits, firsts;
  std::vector<char> seen(target->num_rows(), 0);
  for (uint32_t r = 0; r < rows.num_rows(); ++r) {
    const auto id = static_cast<uint32_t>(rows.column(0).Int64At(r));
    if (seen[id]) continue;
    seen[id] = 1;
    hits.push_back(id);
    firsts.push_back(r);
  }
  std::vector<uint32_t> order(hits.size());
  std::iota(order.begin(), order.end(), 0u);
  std::vector<ColumnVectorPtr> cols;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    cols.push_back(target->column_ptr(c));
  }
  for (size_t i = 0; i < set_cols.size(); ++i) {
    const TypeId type = schema.column(set_cols[i]).type;
    DBSP_ASSIGN_OR_RETURN(ColumnVectorPtr values,
                          CastColumn(rows.column(i + 1).Gather(firsts), type));
    ColumnVectorPtr& col = cols[set_cols[i]];
    if (col == target->column_ptr(set_cols[i])) {
      auto copy = std::make_shared<ColumnVector>(type);
      copy->AppendAll(*col);
      col = std::move(copy);
    }
    col->OverwriteRows(hits, *values, order);
  }
  TablePtr updated = Table::FromColumns(schema, std::move(cols));
  // For view maintenance an UPDATE is a (delete old row, insert new row)
  // pair per hit.
  TablePtr inserts, deletes;
  if (views_.DependsOn(stmt.table_name)) {
    deletes = target->Gather(hits);
    inserts = updated->Gather(hits);
  }
  DBSP_RETURN_NOT_OK(CommitWrite(ss, stmt.table_name, *entry,
                                 std::move(updated), std::move(inserts),
                                 std::move(deletes)));
  result.table = Table::Make(Schema());
  result.rows_affected = static_cast<int64_t>(hits.size());
  return result;
}

Result<QueryResult> Database::ExecuteDelete(SessionState& ss,
                                            const Statement& stmt) {
  DBSP_ASSIGN_OR_RETURN(CatalogEntry * entry, catalog_.Get(stmt.table_name));
  const TablePtr target = entry->table;
  DBSP_ASSIGN_OR_RETURN(QueryResult result, RunRowIdQuery(ss, stmt, *target));
  std::vector<char> hit(target->num_rows(), 0);
  const ColumnVector& ids = result.table->column(0);
  for (size_t r = 0; r < ids.size(); ++r) hit[ids.Int64At(r)] = 1;
  std::vector<uint32_t> keep, gone;
  for (uint32_t r = 0; r < target->num_rows(); ++r) {
    (hit[r] ? gone : keep).push_back(r);
  }
  TablePtr deletes =
      views_.DependsOn(stmt.table_name) ? target->Gather(gone) : nullptr;
  DBSP_RETURN_NOT_OK(CommitWrite(ss, stmt.table_name, *entry,
                                 target->Gather(keep), nullptr,
                                 std::move(deletes)));
  result.table = Table::Make(Schema());
  result.rows_affected = static_cast<int64_t>(gone.size());
  return result;
}

Result<QueryResult> Database::ExecuteDrop(SessionState& ss,
                                          const Statement& stmt) {
  (void)ss;
  if (views_.Has(stmt.table_name)) {
    return Status::InvalidArgument("'" + stmt.table_name +
                                   "' is a materialized view; use DROP "
                                   "MATERIALIZED VIEW");
  }
  if (views_.DependsOn(stmt.table_name)) {
    return Status::InvalidArgument("cannot drop table '" + stmt.table_name +
                                   "': a materialized view depends on it");
  }
  if (storage_ != nullptr && catalog_.Exists(stmt.table_name)) {
    DBSP_RETURN_NOT_OK(PersistDrop(stmt.table_name));
  }
  DBSP_RETURN_NOT_OK(catalog_.DropTable(stmt.table_name, stmt.if_exists));
  QueryResult result;
  result.table = Table::Make(Schema());
  return result;
}

// --- incremental view maintenance (src/ivm/, DESIGN.md §14) ---------------

Result<QueryResult> Database::ExecuteCreateView(SessionState& ss,
                                                const Statement& stmt) {
  if (ss.InTransaction()) {
    return Status::InvalidArgument(
        "materialized view statements are not allowed inside a transaction");
  }
  const std::string& name = stmt.table_name;
  if (IsReservedIvmName(name)) {
    return Status::InvalidArgument(
        "view names starting with '__ivm' are reserved");
  }
  if (stmt.if_not_exists && views_.Has(name)) {
    QueryResult result;
    result.table = Table::Make(Schema());
    return result;
  }
  if (catalog_.Exists(name)) {
    return Status::AlreadyExists("a table named '" + name +
                                 "' already exists");
  }
  Catalog snapshot = catalog_.PinSnapshot();
  QueryResult result;
  DBSP_ASSIGN_OR_RETURN(
      TablePtr contents,
      views_.Create(name, *stmt.ctas_query,
                    ivm::RenderQueryNode(*stmt.ctas_query), snapshot,
                    MakeViewRunner(ss), &result.stats));
  (void)contents;
  Status persisted = PersistViewCatalog();
  if (!persisted.ok()) {
    // Durable registration failed; back out the in-memory view so the two
    // catalogs agree.
    (void)views_.Drop(name, /*if_exists=*/true);
    return persisted;
  }
  result.table = Table::Make(Schema());
  return result;
}

Result<QueryResult> Database::ExecuteDropView(SessionState& ss,
                                              const Statement& stmt) {
  if (ss.InTransaction()) {
    return Status::InvalidArgument(
        "materialized view statements are not allowed inside a transaction");
  }
  DBSP_RETURN_NOT_OK(views_.Drop(stmt.table_name, stmt.if_exists));
  DBSP_RETURN_NOT_OK(PersistViewCatalog());
  QueryResult result;
  result.table = Table::Make(Schema());
  return result;
}

Result<QueryResult> Database::ExecuteRefreshView(SessionState& ss,
                                                 const Statement& stmt) {
  if (ss.InTransaction()) {
    return Status::InvalidArgument(
        "materialized view statements are not allowed inside a transaction");
  }
  Catalog snapshot = catalog_.PinSnapshot();
  QueryResult result;
  DBSP_RETURN_NOT_OK(views_.Refresh(stmt.table_name, snapshot,
                                    MakeViewRunner(ss), &result.stats));
  result.table = Table::Make(Schema());
  return result;
}

ivm::QueryRunner Database::MakeViewRunner(SessionState& ss) {
  return [this, &ss](const QueryNode& query, const Catalog& snapshot,
                     const std::vector<std::pair<std::string, TablePtr>>&
                         seeds) -> Result<TablePtr> {
    // Maintenance work is re-derivable from the pending queue: never
    // durable-checkpoint it under the triggering statement's tag. Nor may
    // the maintenance query's context take the statement's pending
    // counters (admission, verifier findings): the statement reports them.
    const uint64_t saved_tag = ss.durable_program_tag;
    ss.durable_program_tag = 0;
    ExecStats saved_pending = std::exchange(ss.pending, ExecStats{});
    Catalog snap = snapshot;  // snapshot handles share the store; cheap copy
    auto run = [&]() -> Result<TablePtr> {
      DBSP_ASSIGN_OR_RETURN(
          Program program,
          PrepareProgramWithViews(ss, &snap, seeds, [&](ProgramBuilder& b) {
            return b.BuildQuery({}, query);
          }));
      DBSP_ASSIGN_OR_RETURN(
          QueryResult result,
          RunProgramToResult(ss, &snap, std::move(program), seeds));
      return result.table;
    };
    Result<TablePtr> table = run();
    ss.durable_program_tag = saved_tag;
    ss.pending = std::move(saved_pending);
    return table;
  };
}

Result<Program> Database::PrepareProgramWithViews(
    SessionState& ss, Catalog* cat, const ViewBindings& views,
    const std::function<Result<Program>(ProgramBuilder&)>& build) {
  return PrepareProgram(ss, cat, [&](ProgramBuilder& b) -> Result<Program> {
    for (const auto& [name, contents] : views) {
      b.binder().AddCte(name, CteBinding{ViewSeedName(name),
                                         contents->schema()});
    }
    DBSP_ASSIGN_OR_RETURN(Program program, build(b));
    // Record the externally bound results so the dataflow verifier treats
    // them as live at entry (RunProgramToResult seeds them).
    for (const auto& [name, contents] : views) {
      program.seeded_results.emplace_back(ViewSeedName(name),
                                          contents->schema());
    }
    return program;
  });
}

Status Database::CollectViewBindings(SessionState& ss, const Catalog& snapshot,
                                     const Statement& stmt,
                                     ViewBindings* out) {
  if (views_.empty()) return Status::OK();
  std::vector<const QueryNode*> roots;
  if (stmt.query) roots.push_back(stmt.query.get());
  if (stmt.ctas_query) roots.push_back(stmt.ctas_query.get());
  if (stmt.insert_query) roots.push_back(stmt.insert_query.get());
  for (const CteDef& def : stmt.ctes) {
    if (def.query) roots.push_back(def.query.get());
    if (def.init_query) roots.push_back(def.init_query.get());
    if (def.iter_query) roots.push_back(def.iter_query.get());
  }
  if (roots.empty()) return Status::OK();
  // The sync work counts into ss.pending, which MakeContext moves into the
  // statement's ExecStats.
  ivm::QueryRunner runner = MakeViewRunner(ss);
  for (const std::string& name : views_.Names()) {
    // A statement CTE of the same name shadows the view, per SQL scoping.
    bool shadowed = false;
    for (const CteDef& def : stmt.ctes) {
      if (EqualsIgnoreCase(def.name, name)) {
        shadowed = true;
        break;
      }
    }
    if (shadowed) continue;
    bool referenced = false;
    for (const QueryNode* q : roots) {
      if (QueryReferences(*q, name)) {
        referenced = true;
        break;
      }
    }
    if (!referenced) continue;
    DBSP_ASSIGN_OR_RETURN(
        TablePtr contents,
        views_.ContentsAt(name, snapshot.version(), snapshot, runner,
                          &ss.pending));
    out->emplace_back(name, std::move(contents));
  }
  return Status::OK();
}

void Database::MaintainViews(SessionState& ss, ExecStats* stats) {
  if (!views_.HasPending()) return;
  ivm::QueryRunner runner = MakeViewRunner(ss);
  auto drain = [&]() -> Status {
    views_.DrainPending(runner, stats);
    return Status::OK();
  };
  MaintenanceGate gate;
  {
    MutexLock lock(gate_mu_);
    gate = maintenance_gate_;
  }
  // A gate failure (admission queue full, cancellation) leaves the queues
  // intact; the lazy sync in CollectViewBindings keeps answers right.
  Status st = gate ? gate(ss.cancel, drain) : drain();
  (void)st;
}

Status Database::CommitWrite(SessionState& ss, const std::string& name,
                             const CatalogEntry& entry, TablePtr updated,
                             TablePtr inserts, TablePtr deletes) {
  DBSP_RETURN_NOT_OK(PersistUpsert(name, entry.primary_key_col, updated));
  DBSP_RETURN_NOT_OK(catalog_.ReplaceContents(name, std::move(updated)));
  if (views_.DependsOn(name)) {
    CaptureDelta(ss, name, std::move(inserts), std::move(deletes));
  }
  return Status::OK();
}

void Database::CaptureDelta(SessionState& ss, const std::string& table,
                            TablePtr inserts, TablePtr deletes) {
  const size_t delta_rows = (inserts ? inserts->num_rows() : 0) +
                            (deletes ? deletes->num_rows() : 0);
  if (delta_rows == 0) return;
  const bool force_full =
      !ss.options.ivm_enabled ||
      delta_rows > static_cast<size_t>(ss.options.ivm_max_delta_rows);
  views_.OnBaseDelta(table, inserts, deletes, catalog_.version(),
                     catalog_.PinSnapshot(), force_full);
}

Status Database::PersistViewCatalog() {
  if (storage_ == nullptr) return Status::OK();
  Schema schema;
  schema.AddColumn("name", TypeId::kString);
  schema.AddColumn("defsql", TypeId::kString);
  auto table = Table::Make(schema);
  for (const auto& info : views_.List()) {
    table->AppendRow(
        {Value::String(info.name), Value::String(info.definition)});
  }
  // Always upsert (even when empty): DROP of the last view must overwrite
  // the previous image, or recovery would resurrect it.
  return PersistUpsert(ivm::ViewRegistry::kViewsTable, std::nullopt, table);
}

}  // namespace dbspinner
