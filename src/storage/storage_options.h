// Configuration of the durable storage layer (DESIGN.md §12).
//
// Lives in src/storage/ so the StorageManager does not depend on the engine
// layer; EngineOptions embeds it as `persistence`.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace dbspinner {

/// Durable on-disk storage (src/storage/persistent_store.{h,cc}). Off by
/// default: the engine stays a pure in-memory library unless a database
/// directory is configured. With persistence on, catalog commits log to a
/// WAL before publication, executor checkpoints serialize the COW registry
/// to compressed extents, and reopening the same path recovers tables and
/// resumable loop checkpoints.
struct PersistenceOptions {
  /// Master toggle. When set, `path` must name a directory (created on open
  /// if absent).
  bool enabled = false;

  /// Database directory: holds MANIFEST, wal.log and data/ extents.
  std::string path;

  /// Write-ahead logging of catalog commits. Off = extents are still
  /// written but commits only become durable at the next manifest swap
  /// (weaker guarantee, fewer fsyncs; the durability harness runs with it
  /// on).
  bool wal = true;

  /// fsync WAL frames and extents at commit points. Off trades crash
  /// durability for speed — used by the differential fuzzer where the
  /// process never crashes, so only the format round-trip is under test.
  bool sync = true;

  /// Rows per compressed block within a column extent.
  size_t block_rows = 4096;

  /// Fold the WAL into a fresh manifest (and GC unreferenced extents) every
  /// N durable operations. Small values bound recovery replay; the
  /// durability harness uses this to exercise the manifest-swap abort site
  /// mid-program.
  int64_t manifest_every = 16;
};

}  // namespace dbspinner
