// ViewRegistry: registered materialized views, their pending base-table
// deltas, and the per-view published version history.
//
// Concurrency model (DESIGN.md §14): the registry map is guarded by `mu_`,
// a leaf lock never held while a view is locked. Each view carries its own
// mutex serializing maintenance and reads of that view; it is acquired
// after the commit lock on the capture path (enqueue only, no query work)
// and without any engine lock on the read/drain path. Maintenance queries
// run via the QueryRunner against the catalog snapshot pinned with the
// delta, so they never need the commit lock and never re-enter the
// registry — the per-view mutex therefore nests strictly inside the
// ordering table of §13.
//
// Versioning: every published view version is tagged with the catalog
// version it reflects. A reader pinned at catalog version V receives the
// newest published contents whose version is <= V after applying all
// pending deltas with version <= V — the snapshot-consistent
// (view-version, catalog-version) pair.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "exec/exec_stats.h"
#include "exec/hash_aggregate.h"
#include "ivm/maintenance_plan.h"
#include "parser/ast.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace dbspinner {
namespace ivm {

/// Executes `query` against the pinned catalog `snapshot` with each named
/// seed table bound as if it were a CTE in scope. Supplied by the engine
/// (Database), so maintenance queries run through the ordinary
/// optimizer/verifier/morsel pipeline.
using QueryRunner = std::function<Result<TablePtr>(
    const QueryNode& query, const Catalog& snapshot,
    const std::vector<std::pair<std::string, TablePtr>>& seeds)>;

/// One captured base-table change (or a forced-full marker) awaiting
/// application to a view.
struct PendingDelta {
  uint64_t version = 0;  ///< catalog version after the mutation published
  bool full = false;     ///< recompute instead of folding row sets
  std::string table;     ///< mutated base table (empty when `full`)
  TablePtr inserts;      ///< rows added to `table` (may be null)
  TablePtr deletes;      ///< rows removed from `table` (may be null)
  Catalog snapshot;      ///< pinned post-mutation snapshot
};

/// One published (view-version, contents) pair.
struct PublishedVersion {
  uint64_t version = 0;
  TablePtr contents;
};

/// The typed group state of a kAggregate view (DESIGN.md §14): one
/// GroupedAggregator over the maintenance input, which folds inserted rows
/// and retracts deleted ones. Its group keys are the input's first
/// num_group_cols columns, and its aggregates are the plan's, then a
/// COUNT(*) holding each group's row count. The kernel points into the
/// other members, so the state never moves.
struct AggregateGroups {
  AggregateGroups() = default;
  AggregateGroups(const AggregateGroups&) = delete;
  AggregateGroups& operator=(const AggregateGroups&) = delete;

  std::vector<BoundExprPtr> keys;
  std::vector<AggregateSpec> aggs;
  Schema schema;  ///< the kernel's output: keys, aggregates, row count
  std::unique_ptr<GroupedAggregator> kernel;
};

/// State of one registered view. Immutable descriptive fields are set at
/// registration; everything mutable is guarded by `mu`.
struct ViewState {
  std::string name;
  std::string definition;  ///< re-parseable body SQL (persisted)
  QueryNodePtr body;
  MaintenancePlan plan;
  uint64_t created_version = 0;

  std::mutex mu;
  std::deque<PendingDelta> pending DBSP_GUARDED_BY(mu);
  std::deque<PublishedVersion> history DBSP_GUARDED_BY(mu);
  /// Catalog version of the last mutation of a referenced base table that
  /// was not queued (fallback plans queue nothing; they recompute on read).
  uint64_t last_base_change DBSP_GUARDED_BY(mu) = 0;
  /// kAggregate plans: null until a recompute builds it, and again after
  /// an inexact fold.
  std::unique_ptr<AggregateGroups> groups DBSP_GUARDED_BY(mu);
};

class ViewRegistry {
 public:
  /// Seed name delta rows are bound under in maintenance queries.
  static constexpr const char* kDeltaName = "__ivm_delta";
  /// Reserved storage table persisting (view name, definition SQL) rows.
  static constexpr const char* kViewsTable = "__ivm_views";
  /// Published versions retained per view (older readers recompute).
  static constexpr size_t kHistoryDepth = 8;
  /// Pending-queue cap; beyond it the queue collapses to one full marker.
  static constexpr size_t kMaxPending = 64;

  /// Registers a view: validates the body by computing its initial contents
  /// at `snapshot`, derives the maintenance plan, and publishes the first
  /// version. Returns the initial contents.
  Result<TablePtr> Create(const std::string& name, const QueryNode& body,
                          std::string definition, const Catalog& snapshot,
                          const QueryRunner& runner, ExecStats* stats);

  /// Re-registers a view recovered from storage. No query runs: the view
  /// starts stale and fully refreshes on first read or maintenance.
  Status CreateRecovered(const std::string& name, QueryNodePtr body,
                         std::string definition);

  Status Drop(const std::string& name, bool if_exists);

  /// Forced full recompute at `snapshot` (REFRESH MATERIALIZED VIEW).
  Status Refresh(const std::string& name, const Catalog& snapshot,
                 const QueryRunner& runner, ExecStats* stats);

  bool Has(const std::string& name) const;
  bool empty() const;

  /// True when any view reads `table`.
  bool DependsOn(const std::string& table) const;

  struct ViewInfo {
    std::string name;
    std::string definition;
    std::string plan;          ///< "linear" / "aggregate" / "fallback"
    uint64_t version = 0;      ///< newest published view version
    size_t pending = 0;        ///< queued deltas not yet applied
  };
  /// Registered views, name-ordered.
  std::vector<ViewInfo> List() const;
  std::vector<std::string> Names() const;

  /// Capture hook (commit lock held, after catalog publish): records one
  /// statement's (inserts, deletes) against `table` for every dependent
  /// view. `force_full` downgrades the delta to a full-refresh marker
  /// (ivm_enabled off or the delta exceeds ivm_max_delta_rows).
  void OnBaseDelta(const std::string& table, const TablePtr& inserts,
                   const TablePtr& deletes, uint64_t version,
                   const Catalog& snapshot, bool force_full);

  /// Invalidates every view (ROLLBACK restored the catalog underneath us).
  void MarkAllStale(uint64_t version, const Catalog& snapshot);

  /// Snapshot-consistent read: contents of `name` as of catalog version
  /// `version`. Applies pending deltas up to `version` first; fallback
  /// plans (and readers older than the retained history) recompute via
  /// `runner` against `reader_snapshot`.
  Result<TablePtr> ContentsAt(const std::string& name, uint64_t version,
                              const Catalog& reader_snapshot,
                              const QueryRunner& runner, ExecStats* stats);

  /// Applies every queued delta of every incremental view (post-commit
  /// maintenance). Errors and cancellation leave the remaining queue
  /// intact — the lazy sync in ContentsAt is the correctness backstop.
  void DrainPending(const QueryRunner& runner, ExecStats* stats);

  bool HasPending() const;

 private:
  std::shared_ptr<ViewState> Find(const std::string& name) const;

  /// Applies the front pending delta (which the caller checked exists).
  Status ApplyFrontLocked(ViewState& s, const QueryRunner& runner,
                          ExecStats* stats) DBSP_REQUIRES(s.mu);

  /// Full recompute of contents (and groups for aggregate plans) at
  /// `snapshot`, publishing at `version` when it advances the history.
  Result<TablePtr> RecomputeLocked(ViewState& s, uint64_t version,
                                   const Catalog& snapshot,
                                   const QueryRunner& runner, ExecStats* stats)
      DBSP_REQUIRES(s.mu);

  void PublishLocked(ViewState& s, uint64_t version, TablePtr contents)
      DBSP_REQUIRES(s.mu);

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<ViewState>> views_
      DBSP_GUARDED_BY(mu_);
};

}  // namespace ivm
}  // namespace dbspinner
