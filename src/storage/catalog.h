// Catalog: persistent-name -> base table mapping plus table metadata.
//
// Concurrency model (DESIGN.md §10): the catalog is a *versioned* store.
// Every mutation (CREATE/DROP/ReplaceContents/Restore) copies the current
// name -> entry map, applies the change, and publishes the copy as a new
// immutable version under the store mutex — a versioned swap. Readers that
// must stay consistent across a whole statement pin a version with
// PinSnapshot(): the returned handle serves Get/Exists/TableNames from that
// version forever, unaffected by concurrent DDL/DML, and rejects writes.
// Because tables are never mutated in place once registered (engine-wide
// copy-on-write), a version is a shallow map — pinning costs one shared_ptr.

#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/table.h"

namespace dbspinner {

/// Metadata and storage of one base table.
struct CatalogEntry {
  std::string name;                       ///< normalized (lower-case)
  TablePtr table;                         ///< current contents
  std::optional<size_t> primary_key_col;  ///< declared PK ordinal, if any
};

/// Versioned name -> table registry for base (user) tables. Copyable handle:
/// copies share the same underlying store (PinSnapshot returns a read-only
/// copy pinned to one version). Temporary/intermediate results live in
/// ResultRegistry instead.
///
/// Thread-safety: mutators and PinSnapshot/version() are safe to call
/// concurrently. Get() on an *unpinned* handle returns a pointer whose
/// version stays alive only until this handle's next catalog call, so
/// concurrent readers must each use their own pinned snapshot; the engine's
/// write statements additionally serialize on the Database commit lock.
class Catalog {
 public:
  Catalog() : store_(std::make_shared<Store>()) {}

  /// Registers a new table. Fails with AlreadyExists if the name is taken.
  Status CreateTable(const std::string& name, TablePtr table,
                     std::optional<size_t> primary_key_col = std::nullopt);

  /// Removes a table. Fails with NotFound unless `if_exists`.
  Status DropTable(const std::string& name, bool if_exists = false);

  /// Looks up a table by (case-insensitive) name. The entry must be treated
  /// as immutable: all content changes go through ReplaceContents, which
  /// publishes a new version (copy-on-write) instead of mutating in place.
  Result<CatalogEntry*> Get(const std::string& name);

  bool Exists(const std::string& name) const;

  /// Replaces the contents of an existing table (used by UPDATE/DELETE).
  Status ReplaceContents(const std::string& name, TablePtr table);

  std::vector<std::string> TableNames() const;

  /// Read-only handle pinned to the current version: its reads are immune
  /// to concurrent mutation and its writes fail with InvalidArgument.
  Catalog PinSnapshot() const;

  /// True for handles returned by PinSnapshot().
  bool is_snapshot() const { return pinned_ != nullptr; }

  /// Monotone version id of the store (or of the pinned version).
  uint64_t version() const;

  /// Snapshot / restore of the whole catalog state as a plain map. Because
  /// every DML path is copy-on-write, the snapshot is a shallow copy of the
  /// name -> entry map; Restore publishes it as a fresh version, rolling
  /// back all DDL and DML performed since. Powers BEGIN/ROLLBACK.
  std::unordered_map<std::string, CatalogEntry> Snapshot() const;
  void Restore(std::unordered_map<std::string, CatalogEntry> snapshot);

 private:
  /// One immutable published state of the catalog.
  struct Version {
    uint64_t id = 0;
    std::unordered_map<std::string, CatalogEntry> tables;
  };

  /// The catalog-publish lock: second in the engine's ordering (commit lock
  /// -> catalog publish -> WAL append, DESIGN.md §13).
  /// Held only for the pointer swap / shallow map copy — never across I/O.
  struct Store {
    mutable Mutex mu;
    std::shared_ptr<const Version> current DBSP_GUARDED_BY(mu) =
        std::make_shared<Version>();
  };

  /// The version this handle reads: the pin, or the store's current one.
  /// For unpinned handles the result is also cached in keepalive_ so that
  /// pointers returned by Get() survive a concurrent writer's swap until
  /// the handle's next read.
  std::shared_ptr<const Version> View() const;

  /// Copy-current / mutate / publish under the store mutex. `mutate`
  /// returns the outcome; on error nothing is published.
  Status Mutate(
      const std::function<Status(std::unordered_map<std::string, CatalogEntry>*)>&
          mutate);

  std::shared_ptr<Store> store_;
  std::shared_ptr<const Version> pinned_;  ///< set on snapshot handles
  mutable std::shared_ptr<const Version> keepalive_;
};

}  // namespace dbspinner
