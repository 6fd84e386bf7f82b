// Database: the public facade of dbspinner.
//
//   Database db;
//   db.Execute("CREATE TABLE edges (src BIGINT, dst BIGINT, weight DOUBLE)");
//   db.Execute("INSERT INTO edges VALUES (1, 2, 0.5), (2, 1, 1.0)");
//   auto result = db.Execute(
//       "WITH ITERATIVE pr (node, rank, delta) AS (... ITERATE ... UNTIL 10 "
//       "ITERATIONS) SELECT * FROM pr");
//   std::cout << result->table->ToString();

#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/options.h"
#include "exec/physical_plan.h"
#include "ivm/view_registry.h"
#include "mpp/thread_pool.h"
#include "parser/ast.h"
#include "plan/program.h"
#include "storage/catalog.h"
#include "storage/persistent_store.h"

namespace dbspinner {

/// The engine-wide writer slot. Unlike a plain std::mutex it is
/// thread-agnostic — an explicit transaction acquires it on the thread
/// running BEGIN and releases it from whichever thread runs COMMIT/ROLLBACK
/// (or destroys the Session) — and its wait is cancellable: Acquire polls
/// the caller's CancellationToken, so a writer queued behind a long
/// transaction can be killed or timed out instead of blocking
/// uninterruptibly.
/// Declared a CAPABILITY so the commit slot participates in the engine's
/// lock-ordering table (DESIGN.md §13: commit lock -> catalog publish ->
/// WAL append — it is the OUTERMOST lock; nothing may be held when
/// acquiring it). Acquire/Release deliberately carry no
/// ACQUIRE/RELEASE attributes: clang's analysis is function-scoped and
/// same-thread, while this slot's hold is Status-conditional (a cancelled
/// Acquire returns without the slot) and spans statements and threads
/// (BEGIN..COMMIT). The cross-statement discipline is tracked dynamically
/// by SessionState::holds_commit_lock and TSan instead; the slot's own
/// internals remain statically checked through mu_.
class DBSP_CAPABILITY("commit_lock") CommitLock {
 public:
  /// Blocks until the slot is free. Returns kCancelled (without acquiring)
  /// if `cancel` fires first; an inert token waits unconditionally.
  Status Acquire(const CancellationToken& cancel) {
    MutexLock lock(mu_);
    while (held_) {
      if (cancel.IsCancelled()) return cancel.Check();
      cv_.wait_for(mu_, std::chrono::milliseconds(5));
    }
    held_ = true;
    return Status::OK();
  }

  /// Releases the slot. Callable from any thread.
  void Release() {
    {
      MutexLock lock(mu_);
      held_ = false;
    }
    cv_.notify_all();
  }

 private:
  Mutex mu_;
  std::condition_variable_any cv_;  ///< waits directly on mu_
  bool held_ DBSP_GUARDED_BY(mu_) = false;
};

/// Outcome of one statement.
struct QueryResult {
  TablePtr table;             ///< SELECT output; empty 0-col table otherwise
  int64_t rows_affected = 0;  ///< DML row count
  ExecStats stats;            ///< execution counters
  std::string explain;        ///< EXPLAIN text (empty otherwise)
};

/// Per-session execution state. Database::Execute runs on a built-in default
/// session; the concurrent server layer (src/server/session.h) owns one
/// SessionState per client session and calls ExecuteForSession. A
/// SessionState is single-flight: it must not execute two statements at
/// once (server::Session serializes its own queries).
struct SessionState {
  SessionState() = default;
  explicit SessionState(EngineOptions opts) : options(std::move(opts)) {}

  /// Per-session engine configuration (optimizer toggles, MPP width,
  /// verification, fault tolerance). Overriding it affects only this
  /// session's statements.
  EngineOptions options;

  /// Cancellation token for the session's in-flight statement. Inert by
  /// default; the server installs a live token per query.
  CancellationToken cancel;

  /// Scope prefix ("s<id>:") applied to every intermediate-result name the
  /// session's programs bind in their ResultRegistry, so temp names are
  /// session-scoped by construction.
  std::string temp_scope;

  /// Identity of the statement being executed, for durable executor
  /// checkpoints (DESIGN.md §12): a hash of the SQL text (and script
  /// position), set by ExecuteForSession. A killed iterative query re-issued
  /// with the same text resumes from its last durable checkpoint.
  uint64_t durable_program_tag = 0;

  /// True while a BEGIN'd transaction is open on this session.
  bool InTransaction() const { return tx_snapshot.has_value(); }

  // --- engine-managed state below; callers should not touch ---------------

  /// Catalog snapshot taken at BEGIN; restored on ROLLBACK. Copy-on-write
  /// DML makes the snapshot a cheap shallow map copy (see Catalog).
  std::optional<std::unordered_map<std::string, CatalogEntry>> tx_snapshot;

  /// True from BEGIN to COMMIT/ROLLBACK: an explicit transaction occupies
  /// the engine's single writer slot (Database::commit_lock_), so other
  /// sessions' DML/DDL waits until it finishes (reads never wait). The slot
  /// is thread-agnostic — COMMIT may run on a different thread than BEGIN —
  /// and a session holding it bypasses scheduler admission, so the
  /// releasing statement can never queue behind writers blocked on the
  /// slot itself.
  bool holds_commit_lock = false;

  /// Counters of the session's current statement gathered before its
  /// program runs, which MakeContext moves into the statement's ExecStats:
  /// admission metadata (queue_wait_us, admission_waits) set by the
  /// server's Session, verifier diagnostics counted (not enforced) while
  /// planning, and the view-maintenance work of syncing the views the
  /// statement reads to its snapshot (ivm_*).
  ExecStats pending;

  /// Session-materialized fault injector (from options.fault_injection).
  std::unique_ptr<FaultInjector> fault_injector;
};

/// An in-memory analytical SQL database with iterative CTE support.
///
/// Concurrency model (DESIGN.md §10): the facade is safe for concurrent use
/// through *distinct sessions* — each query plans and executes against a
/// pinned catalog snapshot, so readers never block and never observe a
/// half-applied DDL/DML. Write statements (CREATE/DROP/INSERT/UPDATE/
/// DELETE/COPY FROM, and RegisterTable) serialize on a single engine-wide
/// commit lock and publish a new catalog version on completion (versioned
/// swap); explicit transactions hold that lock from BEGIN to
/// COMMIT/ROLLBACK. The lock wait is cancellable (it polls the session's
/// CancellationToken) and release is thread-agnostic, so a transaction's
/// statements need not share a thread. All sessions
/// multiplex one shared ThreadPool. What still serializes: writers against
/// each other, and statements *within* one session (a SessionState is
/// single-flight). The no-argument Execute() runs on a built-in default
/// session and is therefore thread-compatible, exactly like the historical
/// API.
class Database {
 public:
  Database() : Database(EngineOptions()) {}
  explicit Database(EngineOptions options);

  /// The default session's options (historical single-session API).
  EngineOptions& options() { return default_session_.options; }
  const EngineOptions& options() const { return default_session_.options; }
  Catalog& catalog() { return catalog_; }

  /// Parses and executes a single SQL statement on the default session.
  Result<QueryResult> Execute(const std::string& sql);

  /// Executes a ';'-separated script; returns the last statement's result.
  Result<QueryResult> ExecuteScript(const std::string& sql);

  /// Convenience: Execute and return just the table.
  Result<TablePtr> Query(const std::string& sql);

  /// Session-scoped execution: the entry point used by server::Session.
  /// Safe to call concurrently with other sessions' statements; `session`
  /// itself must not be shared between concurrent calls.
  Result<QueryResult> ExecuteForSession(SessionState* session,
                                        const std::string& sql);
  Result<QueryResult> ExecuteScriptForSession(SessionState* session,
                                              const std::string& sql);

  /// Registers an externally built table (bulk loading path used by the
  /// graph generators and benchmarks). Thread-safe: takes the engine's
  /// commit lock so it serializes with write statements like every other
  /// catalog mutation.
  Status RegisterTable(const std::string& name, TablePtr table,
                       std::optional<size_t> primary_key_col = std::nullopt);

  /// Builds and optimizes the Program for a SELECT statement without
  /// executing it (used by EXPLAIN, tests, and plan inspection). Plans
  /// against a pinned catalog snapshot.
  Result<Program> Plan(const std::string& sql);

  /// True while a BEGIN'd transaction is open on the default session.
  bool InTransaction() const { return default_session_.InTransaction(); }

  /// The durable storage layer, or nullptr when persistence is off (or not
  /// yet opened — it opens lazily at the first statement). Exposed for
  /// tests and benchmarks that assert on storage counters.
  StorageManager* storage_manager() { return storage_.get(); }

  /// Registered materialized views (name, definition, plan kind, version,
  /// queued deltas), name-ordered. Used by the shell's \views command and
  /// tests.
  std::vector<ivm::ViewRegistry::ViewInfo> ListViews() { return views_.List(); }

  /// Admission hook for post-commit view maintenance: called with the
  /// committing session's cancellation token and the drain closure. The
  /// server layer installs a scheduler-backed gate so maintenance competes
  /// for execution slots like client queries (and is cancellable); without
  /// a gate the drain runs inline. Install nullptr to reset.
  using MaintenanceGate = std::function<Status(
      const CancellationToken& cancel, const std::function<Status()>& drain)>;
  void set_maintenance_gate(MaintenanceGate gate) {
    MutexLock lock(gate_mu_);
    maintenance_gate_ = std::move(gate);
  }

 private:
  /// Snapshot-consistent contents of every registered view a statement's
  /// queries reference, keyed by view name (and, for UPDATE and DELETE, the
  /// target table with its row ids, keyed by table name). Bound as CTE
  /// overlays so their scans compose with the ordinary morsel pipeline.
  using ViewBindings = std::vector<std::pair<std::string, TablePtr>>;

  Result<QueryResult> ExecuteStatement(SessionState& ss,
                                       const Statement& stmt);
  /// Collects the views `stmt` reads into `views` (after the bindings
  /// already there) and prepares `query` under `stmt`'s CTEs against the
  /// catalog view `cat`.
  Result<Program> PrepareQuery(SessionState& ss, Catalog* cat,
                               const Statement& stmt, const QueryNode& query,
                               ViewBindings* views);
  /// PrepareQuery, then RunProgramToResult: the one path of SELECT, the
  /// sources of CTAS and INSERT ... SELECT, and RunRowIdQuery. Writers pass
  /// a snapshot pinned under the writer slot they hold.
  Result<QueryResult> RunQuery(SessionState& ss, Catalog* cat,
                               const Statement& stmt, const QueryNode& query,
                               ViewBindings views = {});
  Result<QueryResult> ExecuteExplain(SessionState& ss, Catalog* cat,
                                     const Statement& stmt);
  Result<QueryResult> ExecuteCreateTable(SessionState& ss,
                                         const Statement& stmt);
  Result<QueryResult> ExecuteInsert(SessionState& ss, const Statement& stmt);
  Result<QueryResult> ExecuteUpdate(SessionState& ss, const Statement& stmt);
  Result<QueryResult> ExecuteDelete(SessionState& ss, const Statement& stmt);
  Result<QueryResult> ExecuteDrop(SessionState& ss, const Statement& stmt);

  /// The one query an UPDATE or DELETE runs: `SELECT <t>.__rowid, <set
  /// expressions> FROM <t> [CROSS JOIN <update_from>] WHERE <where>`, with
  /// <t> bound, like a view overlay, to `target` plus an INT64 __rowid
  /// column holding each row's position. Each output row names a hit row
  /// and (for UPDATE) its new SET values.
  Result<QueryResult> RunRowIdQuery(SessionState& ss, const Statement& stmt,
                                    const Table& target);

  /// The commit of every table write (COPY FROM, INSERT, UPDATE, DELETE):
  /// WAL-logs `updated` as table `name`'s new version, publishes it, and
  /// queues the statement's (inserts, deletes) for the views that depend on
  /// `name`. Commit lock held; `entry` is the version the write read.
  Status CommitWrite(SessionState& ss, const std::string& name,
                     const CatalogEntry& entry, TablePtr updated,
                     TablePtr inserts, TablePtr deletes);

  // --- incremental view maintenance (src/ivm/, DESIGN.md §14) -------------

  Result<QueryResult> ExecuteCreateView(SessionState& ss,
                                        const Statement& stmt);
  Result<QueryResult> ExecuteDropView(SessionState& ss, const Statement& stmt);
  Result<QueryResult> ExecuteRefreshView(SessionState& ss,
                                         const Statement& stmt);

  /// The registry's QueryRunner: executes a maintenance query for `ss`
  /// against a pinned snapshot through the ordinary
  /// optimizer/verifier/morsel pipeline, with the given seed tables bound
  /// as CTE overlays. Durable checkpointing is suppressed (maintenance is
  /// re-derivable from the queue).
  ivm::QueryRunner MakeViewRunner(SessionState& ss);

  /// Collects the snapshot-consistent contents of every registered view the
  /// statement's queries reference (syncing pending deltas up to the
  /// snapshot's version first). View names shadowed by the statement's own
  /// CTEs are skipped, per SQL scoping.
  Status CollectViewBindings(SessionState& ss, const Catalog& snapshot,
                             const Statement& stmt, ViewBindings* out);

  /// Post-commit maintenance: folds every queued delta, through the
  /// installed maintenance gate when one is set. Called after the commit
  /// lock is released; failures/cancellation leave queues intact (the lazy
  /// sync in CollectViewBindings is the correctness backstop).
  void MaintainViews(SessionState& ss, ExecStats* stats);

  /// Captures one committed statement's (inserts, deletes) against `table`
  /// for dependent views. Commit lock held; called by CommitWrite after the
  /// catalog publish so the pinned snapshot includes the mutation.
  void CaptureDelta(SessionState& ss, const std::string& table,
                    TablePtr inserts, TablePtr deletes);

  /// Rewrites the reserved __ivm_views storage table to match the registry
  /// (views survive restarts through the ordinary WAL/manifest path).
  Status PersistViewCatalog();

  /// PrepareProgram with each view binding installed as a CTE overlay and
  /// recorded in Program::seeded_results for the dataflow verifier.
  Result<Program> PrepareProgramWithViews(
      SessionState& ss, Catalog* cat, const ViewBindings& views,
      const std::function<Result<Program>(class ProgramBuilder&)>& build);

  /// Runs a bound-and-optimized program and returns its final table.
  /// `cat` is the catalog view the program was planned against. Each
  /// (name, table) in `seeds` is pre-bound into the program's result
  /// registry under the view-seed name the binder overlays resolve to.
  Result<QueryResult> RunProgramToResult(SessionState& ss, Catalog* cat,
                                         Program program,
                                         const ViewBindings& seeds = {});

  /// Builds + optimizes a Program via `build` against the catalog view
  /// `cat`, running the static verifier (src/verify/) after binding, after
  /// each optimizer rule, and after the whole optimization pipeline, per
  /// the session's verify options. Every query path funnels through here:
  /// SELECT, EXPLAIN, CTAS, INSERT ... SELECT, view maintenance, and the
  /// row-id query of UPDATE [... FROM] and DELETE (RunRowIdQuery).
  Result<Program> PrepareProgram(
      SessionState& ss, Catalog* cat,
      const std::function<Result<Program>(class ProgramBuilder&)>& build);

  /// Runs one verifier pass over `program` and applies the configured
  /// policy: enforce -> kInternal, otherwise log + count the diagnostics
  /// into the session's pending count (surfaced via ExecStats).
  Status VerifyStage(SessionState& ss, Catalog* cat, const std::string& phase,
                     const Program& program, bool require_physical);

  /// The engine-wide worker pool shared by all sessions (the scheduler
  /// multiplexes queries onto it; no per-query pools). Grow-only: a width
  /// increase retires the old pool without destroying it, so in-flight
  /// queries keep a valid pointer.
  ThreadPool* GetPool(SessionState& ss);
  FaultInjector* GetFaultInjector(SessionState& ss);
  ExecContext MakeContext(SessionState& ss, Catalog* cat,
                          ResultRegistry* registry);

  Result<QueryResult> ExecuteTransactionControl(SessionState& ss,
                                                const Statement& stmt);
  Result<QueryResult> ExecuteCopy(SessionState& ss, const Statement& stmt);

  /// Opens the storage layer on first use (per the *constructor* session's
  /// persistence options — persistence is engine-level, per-session
  /// overrides of it are ignored) and materializes recovered tables into
  /// the catalog. Returns the sticky open/recovery failure afterwards, so a
  /// corrupt database directory fails every statement with the same typed
  /// error instead of silently running in-memory.
  Status EnsureStorageOpen();

  /// Durable-commit helpers: WAL-log the operation (the commit point)
  /// before the in-memory catalog publish. No-ops when persistence is off.
  Status PersistUpsert(const std::string& name, std::optional<size_t> pk,
                       const TablePtr& table);
  Status PersistDrop(const std::string& name);

  Catalog catalog_;

  /// The built-in session behind the historical single-caller API.
  SessionState default_session_;

  /// Engine-wide writer slot: every DDL/DML statement (and every explicit
  /// transaction, across its whole lifetime) holds this while it reads and
  /// republishes the catalog, making read-modify-write statements atomic
  /// against each other. Readers never take it. Waits poll the acquiring
  /// session's CancellationToken (see CommitLock).
  CommitLock commit_lock_;

  /// Shared worker pool (see GetPool). Leaf lock: held only for the pool
  /// lookup/grow, never while acquiring any other engine lock.
  Mutex pool_mu_;
  std::unique_ptr<ThreadPool> pool_ DBSP_GUARDED_BY(pool_mu_);
  std::vector<std::unique_ptr<ThreadPool>> retired_pools_
      DBSP_GUARDED_BY(pool_mu_);

  /// Durable storage (DESIGN.md §12). Opened lazily by EnsureStorageOpen;
  /// `storage_faults_` is the engine-owned injector feeding the storage
  /// abort/injection sites (its hit counts span the whole process, unlike
  /// the per-statement session injectors). `storage_` itself is not
  /// GUARDED_BY: it is written exactly once under storage_mu_ and read
  /// lock-free afterwards — every statement path passes through
  /// EnsureStorageOpen's lock first, which publishes the pointer.
  Mutex storage_mu_;
  bool storage_init_done_ DBSP_GUARDED_BY(storage_mu_) = false;
  Status storage_status_ DBSP_GUARDED_BY(storage_mu_) = Status::OK();
  std::unique_ptr<FaultInjector> storage_faults_;
  std::unique_ptr<StorageManager> storage_;

  /// Registered materialized views and their maintenance state. The
  /// registry synchronizes itself (DESIGN.md §14): its map lock is a leaf
  /// and its per-view locks nest inside the commit lock on the capture
  /// path only.
  ivm::ViewRegistry views_;

  /// Leaf lock for the maintenance-gate hook (swap/copy only; never held
  /// while the gate runs).
  Mutex gate_mu_;
  MaintenanceGate maintenance_gate_ DBSP_GUARDED_BY(gate_mu_);
};

}  // namespace dbspinner
