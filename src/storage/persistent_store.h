// StorageManager: durable columnar storage for one database directory
// (DESIGN.md §12).
//
// Layout of a database directory:
//   MANIFEST    atomic snapshot of the durable state (tables, checkpoints,
//               last folded LSN, extent id counter); replaced by
//               write-tmp + fsync + rename + directory fsync
//   wal.log     framed records appended since the manifest (storage/wal.h)
//   data/e<id>.col
//               one immutable compressed column extent per file: header,
//               back-to-back codec block payloads, checksummed block
//               directory footer
//
// Commit protocol (the crash-consistency invariant the durability harness
// kills against):
//   1. write + fsync every extent of the operation        (orphans are GC'd)
//   2. append + fsync one WAL frame describing it          <- commit point
//   3. publish in memory (catalog version / checkpoint map)
// Every `manifest_every` WAL appends the log is folded: a fresh MANIFEST is
// swapped in, the WAL reset, and unreferenced extents unlinked. Recovery =
// load MANIFEST, replay WAL frames with lsn > manifest.last_lsn, stop at the
// first torn frame.
//
// All durable mutations serialize on one internal mutex; reads of recovered
// images are lock-free apart from the extent-directory cache.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/codec.h"
#include "storage/storage_options.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace dbspinner {

/// Durable description of one table: its schema plus one extent per column.
/// The image is the unit the WAL and manifest reference; the extents it
/// names are immutable once written.
struct TableImage {
  Schema schema;
  std::optional<size_t> primary_key_col;
  uint64_t rows = 0;
  std::vector<uint64_t> extent_ids;  ///< one per column, schema order
};

/// Durable loop-operator state (mirrors exec LoopState without depending on
/// the exec layer).
struct LoopImage {
  int32_t id = 0;
  int64_t iteration = 0;
  int64_t last_update_count = 0;
  int64_t cumulative_updates = 0;
  std::optional<TableImage> previous;
  std::optional<TableImage> delta_snapshot;
};

/// Durable executor checkpoint: program counter + loop states + the COW
/// result-registry contents, all as extent-backed images. `fingerprint`
/// guards resume against a program whose compiled shape changed between
/// runs (different build / options): a mismatch ignores the checkpoint.
struct CheckpointImage {
  uint64_t fingerprint = 0;
  uint64_t pc = 0;
  std::vector<LoopImage> loops;
  std::vector<std::pair<std::string, TableImage>> registry;
};

/// One open database directory. Thread-safe.
class StorageManager {
 public:
  /// Opens (creating if needed) the directory and runs recovery: loads the
  /// manifest, replays the WAL tail, and exposes the recovered table /
  /// checkpoint images. `faults` may be null; it feeds the
  /// "storage.wal.append" / "storage.extent.flush" / "storage.manifest.swap"
  /// injection and abort sites.
  static Result<std::unique_ptr<StorageManager>> Open(
      const PersistenceOptions& options, FaultInjector* faults);

  // --- durable catalog operations (callers hold the engine commit lock) ---

  /// Makes a create/replace of `name` durable: writes the table's extents,
  /// appends the WAL frame (the commit point), updates the recovered-image
  /// map. The in-memory catalog publish must happen only after this returns
  /// OK.
  Status LogUpsertTable(const std::string& name, std::optional<size_t> pk,
                        const Table& table);

  /// Makes a DROP durable (WAL frame; extents are GC'd at the next fold).
  Status LogDropTable(const std::string& name);

  /// Forces a manifest fold now (COMMIT of an explicit transaction does
  /// this so multi-statement transactions become durable as one swap).
  Status WriteManifestNow();

  // --- recovered state ----------------------------------------------------

  /// Durable tables as of open + subsequent logged operations.
  std::map<std::string, TableImage> tables() const;

  /// Fully materializes an image: each block is read, checksummed and
  /// decoded once, straight into its column of the returned table. Any
  /// disagreement between the image and its extents (type, block count,
  /// per-block or total row counts) is kCorruption.
  Result<TablePtr> ReadTable(const TableImage& image);

  // --- durable executor checkpoints --------------------------------------

  /// Writes extents for `table` (no WAL frame; the caller references the
  /// returned image from a checkpoint). Fsyncs when `sync` is configured.
  Result<TableImage> WriteTableExtents(const Table& table);

  /// Appends a checkpoint WAL frame for program `tag` (replacing any prior
  /// checkpoint under the same tag).
  Status SaveCheckpoint(uint64_t tag, const CheckpointImage& image);

  /// Logs that program `tag` finished; its checkpoint is obsolete.
  Status ClearCheckpoint(uint64_t tag);

  /// Latest durable checkpoint for `tag`, if any.
  std::optional<CheckpointImage> FindCheckpoint(uint64_t tag) const;

  struct Counters {
    int64_t extents_written = 0;
    int64_t blocks_written = 0;
    int64_t bytes_written = 0;       ///< compressed payload bytes
    int64_t raw_bytes_encoded = 0;   ///< pre-compression estimate
    int64_t wal_appends = 0;
    int64_t manifests_written = 0;
    int64_t extents_collected = 0;   ///< GC'd at manifest folds
    int64_t wal_records_replayed = 0;
    int64_t tables_recovered = 0;
    int64_t checkpoints_recovered = 0;
  };
  Counters counters() const;

 private:
  StorageManager(PersistenceOptions options, FaultInjector* faults);

  /// Parsed block directory of one extent.
  struct ExtentInfo {
    uint64_t id = 0;
    TypeId type = TypeId::kInt64;
    uint64_t total_rows = 0;
    struct BlockMeta {
      uint64_t offset = 0;
      uint64_t checksum = 0;
      uint32_t rows = 0;
      uint32_t payload_bytes = 0;
      uint8_t codec = 0;
    };
    std::vector<BlockMeta> blocks;
  };
  /// The extent's block directory, parsed once and cached.
  Result<std::shared_ptr<const ExtentInfo>> GetExtentInfo(uint64_t extent_id);

  /// Runs at Open before the manager is shared; Open takes mu_ anyway so
  /// the analysis sees the guarded recovery writes as locked.
  Status Recover() DBSP_REQUIRES(mu_);
  Status ApplyWalRecord(const WalRecord& rec) DBSP_REQUIRES(mu_);

  std::string ExtentPath(uint64_t extent_id) const;
  Result<TableImage> WriteTableExtentsLocked(
      const Table& table, std::optional<size_t> pk) DBSP_REQUIRES(mu_);
  Status AppendWalLocked(WalRecordType type, const std::string& payload)
      DBSP_REQUIRES(mu_);
  Status WriteManifestLocked() DBSP_REQUIRES(mu_);
  void CollectGarbageLocked() DBSP_REQUIRES(mu_);

  const PersistenceOptions options_;
  FaultInjector* faults_;

  /// The WAL-append lock: the innermost of the engine's ordering (commit
  /// lock -> catalog publish -> WAL append, DESIGN.md §13). All
  /// durable mutations serialize on it; the WAL appender itself is
  /// lock-free because wal_ is only reachable under mu_.
  mutable Mutex mu_;
  std::unique_ptr<WriteAheadLog> wal_ DBSP_GUARDED_BY(mu_)
      DBSP_PT_GUARDED_BY(mu_);
  std::map<std::string, TableImage> tables_ DBSP_GUARDED_BY(mu_);
  std::map<uint64_t, CheckpointImage> checkpoints_ DBSP_GUARDED_BY(mu_);
  /// Extents handed out by WriteTableExtents that no WAL-visible image
  /// references yet. A manifest fold between the write and the
  /// SaveCheckpoint that adopts them must not GC them; ids leave the set
  /// when a checkpoint image referencing them commits. (Ids stranded by an
  /// abandoned persist are reclaimed by the GC of the next process — the
  /// set is empty at recovery.)
  std::vector<uint64_t> inflight_extents_ DBSP_GUARDED_BY(mu_);

  uint64_t next_extent_id_ DBSP_GUARDED_BY(mu_) = 1;
  uint64_t next_lsn_ DBSP_GUARDED_BY(mu_) = 1;
  uint64_t manifest_lsn_ DBSP_GUARDED_BY(mu_) = 0;  ///< last folded lsn
  int64_t appends_since_manifest_ DBSP_GUARDED_BY(mu_) = 0;
  Counters counters_ DBSP_GUARDED_BY(mu_);

  /// Leaf lock for the parsed-block-directory cache; never held together
  /// with mu_ (GetExtentInfo drops it across the file read).
  mutable Mutex extent_cache_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<const ExtentInfo>>
      extent_cache_ DBSP_GUARDED_BY(extent_cache_mu_);
};

}  // namespace dbspinner
