#include "storage/persistent_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

namespace dbspinner {

namespace {

constexpr uint64_t kExtentMagic = 0x4442535045585431ull;    // "DBSPEXT1"
constexpr uint64_t kExtentTailMagic = 0x3154584550534244ull;
constexpr uint64_t kManifestMagic = 0x444253504d414e31ull;  // "DBSPMAN1"
constexpr uint64_t kManifestTailMagic = 0x314e414d50534244ull;

constexpr size_t kExtentHeaderBytes = 9;   // u64 magic + u8 type
constexpr size_t kExtentTailBytes = 28;    // u32 count + u64 rows + u64 sum + u64 magic
constexpr size_t kExtentEntryBytes = 25;   // u64 off + u64 sum + u32 rows + u32 len + u8 codec

constexpr uint32_t kMaxColumns = 1u << 16;
constexpr uint32_t kMaxManifestEntries = 1u << 24;

Status PosixError(const std::string& what) {
  return Status::ExecutionError(what + ": " + std::strerror(errno));
}

Status WriteFileAndSync(const std::string& path, const std::string& bytes,
                        bool sync) {
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return PosixError("cannot create " + path);
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = PosixError("write " + path);
      ::close(fd);
      return st;
    }
    done += static_cast<size_t>(n);
  }
  if (sync && ::fsync(fd) != 0) {
    Status st = PosixError("fsync " + path);
    ::close(fd);
    return st;
  }
  ::close(fd);
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return PosixError("open dir " + dir);
  if (::fsync(fd) != 0) {
    Status st = PosixError("fsync dir " + dir);
    ::close(fd);
    return st;
  }
  ::close(fd);
  return Status::OK();
}

Status ReadWholeFile(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return PosixError("cannot open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    Status s = PosixError("fstat " + path);
    ::close(fd);
    return s;
  }
  out->resize(static_cast<size_t>(st.st_size));
  size_t done = 0;
  while (done < out->size()) {
    ssize_t n = ::read(fd, out->data() + done, out->size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status s = PosixError("read " + path);
      ::close(fd);
      return s;
    }
    if (n == 0) break;  // racing truncate; caller validates sizes
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  out->resize(done);
  return Status::OK();
}

Status PreadExact(const std::string& path, uint64_t offset, size_t size,
                  std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return PosixError("cannot open " + path);
  out->resize(size);
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::pread(fd, out->data() + done, size - done,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status s = PosixError("pread " + path);
      ::close(fd);
      return s;
    }
    if (n == 0) {
      ::close(fd);
      return Status::Corruption("extent " + path + " truncated: wanted " +
                                std::to_string(size) + " bytes at offset " +
                                std::to_string(offset));
    }
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  return Status::OK();
}

// --- image serialization ---------------------------------------------------

void EncodeSchema(const Schema& schema, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(schema.num_columns()));
  for (const Column& c : schema.columns()) {
    w->PutString(c.name);
    w->PutU8(static_cast<uint8_t>(c.type));
  }
}

Status DecodeSchema(ByteReader* r, Schema* out) {
  uint32_t ncols = 0;
  DBSP_RETURN_NOT_OK(r->ReadU32(&ncols));
  if (ncols > kMaxColumns) {
    return Status::Corruption("schema column count out of range: " +
                              std::to_string(ncols));
  }
  std::vector<Column> cols;
  cols.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    Column c;
    DBSP_RETURN_NOT_OK(r->ReadString(&c.name));
    uint8_t type = 0;
    DBSP_RETURN_NOT_OK(r->ReadU8(&type));
    if (type > static_cast<uint8_t>(TypeId::kString)) {
      return Status::Corruption("unknown column type id " +
                                std::to_string(type));
    }
    c.type = static_cast<TypeId>(type);
    cols.push_back(std::move(c));
  }
  *out = Schema(std::move(cols));
  return Status::OK();
}

void EncodeTableImage(const TableImage& img, ByteWriter* w) {
  w->PutU8(img.primary_key_col.has_value() ? 1 : 0);
  w->PutU32(img.primary_key_col.has_value()
                ? static_cast<uint32_t>(*img.primary_key_col)
                : 0);
  EncodeSchema(img.schema, w);
  w->PutU64(img.rows);
  for (uint64_t id : img.extent_ids) w->PutU64(id);
}

Status DecodeTableImage(ByteReader* r, TableImage* out) {
  uint8_t has_pk = 0;
  uint32_t pk = 0;
  DBSP_RETURN_NOT_OK(r->ReadU8(&has_pk));
  DBSP_RETURN_NOT_OK(r->ReadU32(&pk));
  DBSP_RETURN_NOT_OK(DecodeSchema(r, &out->schema));
  out->primary_key_col.reset();
  if (has_pk != 0) {
    if (pk >= out->schema.num_columns()) {
      return Status::Corruption("primary key ordinal out of range");
    }
    out->primary_key_col = pk;
  }
  DBSP_RETURN_NOT_OK(r->ReadU64(&out->rows));
  out->extent_ids.resize(out->schema.num_columns());
  for (uint64_t& id : out->extent_ids) {
    DBSP_RETURN_NOT_OK(r->ReadU64(&id));
  }
  return Status::OK();
}

void EncodeOptionalImage(const std::optional<TableImage>& img, ByteWriter* w) {
  w->PutU8(img.has_value() ? 1 : 0);
  if (img.has_value()) EncodeTableImage(*img, w);
}

Status DecodeOptionalImage(ByteReader* r, std::optional<TableImage>* out) {
  uint8_t has = 0;
  DBSP_RETURN_NOT_OK(r->ReadU8(&has));
  out->reset();
  if (has != 0) {
    TableImage img;
    DBSP_RETURN_NOT_OK(DecodeTableImage(r, &img));
    *out = std::move(img);
  }
  return Status::OK();
}

void EncodeCheckpointImage(const CheckpointImage& cp, ByteWriter* w) {
  w->PutU64(cp.fingerprint);
  w->PutU64(cp.pc);
  w->PutU32(static_cast<uint32_t>(cp.loops.size()));
  for (const LoopImage& loop : cp.loops) {
    w->PutU32(static_cast<uint32_t>(loop.id));
    w->PutI64(loop.iteration);
    w->PutI64(loop.last_update_count);
    w->PutI64(loop.cumulative_updates);
    EncodeOptionalImage(loop.previous, w);
    EncodeOptionalImage(loop.delta_snapshot, w);
  }
  w->PutU32(static_cast<uint32_t>(cp.registry.size()));
  for (const auto& [name, img] : cp.registry) {
    w->PutString(name);
    EncodeTableImage(img, w);
  }
}

Status DecodeCheckpointImage(ByteReader* r, CheckpointImage* out) {
  DBSP_RETURN_NOT_OK(r->ReadU64(&out->fingerprint));
  DBSP_RETURN_NOT_OK(r->ReadU64(&out->pc));
  uint32_t nloops = 0;
  DBSP_RETURN_NOT_OK(r->ReadU32(&nloops));
  if (nloops > kMaxManifestEntries) {
    return Status::Corruption("checkpoint loop count out of range");
  }
  out->loops.clear();
  out->loops.reserve(nloops);
  for (uint32_t i = 0; i < nloops; ++i) {
    LoopImage loop;
    uint32_t id = 0;
    DBSP_RETURN_NOT_OK(r->ReadU32(&id));
    loop.id = static_cast<int32_t>(id);
    DBSP_RETURN_NOT_OK(r->ReadI64(&loop.iteration));
    DBSP_RETURN_NOT_OK(r->ReadI64(&loop.last_update_count));
    DBSP_RETURN_NOT_OK(r->ReadI64(&loop.cumulative_updates));
    DBSP_RETURN_NOT_OK(DecodeOptionalImage(r, &loop.previous));
    DBSP_RETURN_NOT_OK(DecodeOptionalImage(r, &loop.delta_snapshot));
    out->loops.push_back(std::move(loop));
  }
  uint32_t nreg = 0;
  DBSP_RETURN_NOT_OK(r->ReadU32(&nreg));
  if (nreg > kMaxManifestEntries) {
    return Status::Corruption("checkpoint registry count out of range");
  }
  out->registry.clear();
  out->registry.reserve(nreg);
  for (uint32_t i = 0; i < nreg; ++i) {
    std::string name;
    TableImage img;
    DBSP_RETURN_NOT_OK(r->ReadString(&name));
    DBSP_RETURN_NOT_OK(DecodeTableImage(r, &img));
    out->registry.emplace_back(std::move(name), std::move(img));
  }
  return Status::OK();
}

void CollectImageExtents(const TableImage& img, std::vector<uint64_t>* out) {
  out->insert(out->end(), img.extent_ids.begin(), img.extent_ids.end());
}

void CollectCheckpointExtents(const CheckpointImage& cp,
                              std::vector<uint64_t>* out) {
  for (const LoopImage& loop : cp.loops) {
    if (loop.previous) CollectImageExtents(*loop.previous, out);
    if (loop.delta_snapshot) CollectImageExtents(*loop.delta_snapshot, out);
  }
  for (const auto& [name, img] : cp.registry) CollectImageExtents(img, out);
}

uint64_t MaxImageExtent(const TableImage& img) {
  uint64_t mx = 0;
  for (uint64_t id : img.extent_ids) mx = std::max(mx, id);
  return mx;
}

// Estimated uncompressed footprint of one column, for compression-ratio
// counters.
int64_t RawColumnBytes(const ColumnVector& col) {
  if (col.type() == TypeId::kString) {
    int64_t total = 0;
    for (const std::string& s : col.strings()) {
      total += 4 + static_cast<int64_t>(s.size());
    }
    return total;
  }
  return static_cast<int64_t>(col.size()) * 8;
}

}  // namespace

// --- StorageManager --------------------------------------------------------

StorageManager::StorageManager(PersistenceOptions options,
                               FaultInjector* faults)
    : options_(std::move(options)), faults_(faults) {}

Result<std::unique_ptr<StorageManager>> StorageManager::Open(
    const PersistenceOptions& options, FaultInjector* faults) {
  if (options.path.empty()) {
    return Status::InvalidArgument("persistence.path is empty");
  }
  std::unique_ptr<StorageManager> store(new StorageManager(options, faults));
  {
    // No concurrency exists yet (the manager is unpublished); the lock is
    // taken so the analysis sees Recover's guarded-state writes as held.
    MutexLock lock(store->mu_);
    DBSP_RETURN_NOT_OK(store->Recover());
  }
  return store;
}

std::string StorageManager::ExtentPath(uint64_t extent_id) const {
  return options_.path + "/data/e" + std::to_string(extent_id) + ".col";
}

Status StorageManager::Recover() {
  std::error_code ec;
  std::filesystem::create_directories(options_.path + "/data", ec);
  if (ec) {
    return Status::ExecutionError("cannot create database directory " +
                                  options_.path + ": " + ec.message());
  }

  // 1. Manifest: the durable state as of the last fold.
  const std::string manifest_path = options_.path + "/MANIFEST";
  if (std::filesystem::exists(manifest_path)) {
    std::string bytes;
    DBSP_RETURN_NOT_OK(ReadWholeFile(manifest_path, &bytes));
    if (bytes.size() < 16) {
      return Status::Corruption("manifest too small");
    }
    ByteReader tail(reinterpret_cast<const uint8_t*>(bytes.data()) +
                        bytes.size() - 16,
                    16);
    uint64_t checksum = 0, tail_magic = 0;
    DBSP_RETURN_NOT_OK(tail.ReadU64(&checksum));
    DBSP_RETURN_NOT_OK(tail.ReadU64(&tail_magic));
    if (tail_magic != kManifestTailMagic ||
        checksum != BlockChecksum(bytes.data(), bytes.size() - 16)) {
      return Status::Corruption("manifest checksum mismatch");
    }
    ByteReader r(reinterpret_cast<const uint8_t*>(bytes.data()),
                 bytes.size() - 16);
    uint64_t magic = 0;
    DBSP_RETURN_NOT_OK(r.ReadU64(&magic));
    if (magic != kManifestMagic) {
      return Status::Corruption("bad manifest magic");
    }
    DBSP_RETURN_NOT_OK(r.ReadU64(&manifest_lsn_));
    DBSP_RETURN_NOT_OK(r.ReadU64(&next_extent_id_));
    uint32_t ntables = 0;
    DBSP_RETURN_NOT_OK(r.ReadU32(&ntables));
    if (ntables > kMaxManifestEntries) {
      return Status::Corruption("manifest table count out of range");
    }
    for (uint32_t i = 0; i < ntables; ++i) {
      std::string name;
      TableImage img;
      DBSP_RETURN_NOT_OK(r.ReadString(&name));
      DBSP_RETURN_NOT_OK(DecodeTableImage(&r, &img));
      tables_[std::move(name)] = std::move(img);
    }
    uint32_t ncps = 0;
    DBSP_RETURN_NOT_OK(r.ReadU32(&ncps));
    if (ncps > kMaxManifestEntries) {
      return Status::Corruption("manifest checkpoint count out of range");
    }
    for (uint32_t i = 0; i < ncps; ++i) {
      uint64_t tag = 0;
      CheckpointImage cp;
      DBSP_RETURN_NOT_OK(r.ReadU64(&tag));
      DBSP_RETURN_NOT_OK(DecodeCheckpointImage(&r, &cp));
      checkpoints_[tag] = std::move(cp);
    }
    if (!r.exhausted()) {
      return Status::Corruption("manifest has trailing bytes");
    }
    next_lsn_ = manifest_lsn_ + 1;
  }

  // 2. WAL tail: operations committed after the manifest. Torn-tail
  // tolerant; frames folded into the manifest already (lsn <= manifest_lsn_)
  // are skipped so a crash between manifest swap and WAL reset stays
  // idempotent.
  std::vector<WalRecord> records;
  DBSP_RETURN_NOT_OK(WriteAheadLog::Replay(options_.path + "/wal.log",
                                           &records));
  for (const WalRecord& rec : records) {
    if (rec.lsn <= manifest_lsn_) continue;
    DBSP_RETURN_NOT_OK(ApplyWalRecord(rec));
    ++counters_.wal_records_replayed;
    next_lsn_ = std::max(next_lsn_, rec.lsn + 1);
  }

  // 3. Extent id watermark: never reuse an id referenced by any image.
  uint64_t max_extent = next_extent_id_ > 0 ? next_extent_id_ - 1 : 0;
  for (const auto& [name, img] : tables_) {
    max_extent = std::max(max_extent, MaxImageExtent(img));
  }
  for (const auto& [tag, cp] : checkpoints_) {
    std::vector<uint64_t> ids;
    CollectCheckpointExtents(cp, &ids);
    for (uint64_t id : ids) max_extent = std::max(max_extent, id);
  }
  next_extent_id_ = max_extent + 1;

  counters_.tables_recovered = static_cast<int64_t>(tables_.size());
  counters_.checkpoints_recovered = static_cast<int64_t>(checkpoints_.size());

  DBSP_ASSIGN_OR_RETURN(wal_, WriteAheadLog::Open(options_.path + "/wal.log",
                                                  options_.sync));
  return Status::OK();
}

Status StorageManager::ApplyWalRecord(const WalRecord& rec) {
  ByteReader r(reinterpret_cast<const uint8_t*>(rec.payload.data()),
               rec.payload.size());
  switch (rec.type) {
    case WalRecordType::kUpsertTable: {
      std::string name;
      TableImage img;
      DBSP_RETURN_NOT_OK(r.ReadString(&name));
      DBSP_RETURN_NOT_OK(DecodeTableImage(&r, &img));
      tables_[std::move(name)] = std::move(img);
      return Status::OK();
    }
    case WalRecordType::kDropTable: {
      std::string name;
      DBSP_RETURN_NOT_OK(r.ReadString(&name));
      tables_.erase(name);
      return Status::OK();
    }
    case WalRecordType::kCheckpoint: {
      uint64_t tag = 0;
      CheckpointImage cp;
      DBSP_RETURN_NOT_OK(r.ReadU64(&tag));
      DBSP_RETURN_NOT_OK(DecodeCheckpointImage(&r, &cp));
      checkpoints_[tag] = std::move(cp);
      return Status::OK();
    }
    case WalRecordType::kCheckpointClear: {
      uint64_t tag = 0;
      DBSP_RETURN_NOT_OK(r.ReadU64(&tag));
      checkpoints_.erase(tag);
      return Status::OK();
    }
  }
  return Status::Corruption("unknown wal record type " +
                            std::to_string(static_cast<uint32_t>(rec.type)));
}

Result<TableImage> StorageManager::WriteTableExtentsLocked(
    const Table& table, std::optional<size_t> pk) {
  TableImage img;
  img.schema = table.schema();
  img.primary_key_col = pk;
  img.rows = table.num_rows();
  img.extent_ids.reserve(table.num_columns());

  const size_t block_rows = std::max<size_t>(1, options_.block_rows);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    DBSP_RETURN_NOT_OK(MaybeInjectFault(faults_, "storage.extent.flush"));
    const ColumnVector& col = table.column(c);
    const uint64_t extent_id = next_extent_id_++;

    ByteWriter file;
    file.PutU64(kExtentMagic);
    file.PutU8(static_cast<uint8_t>(col.type()));
    std::vector<ExtentInfo::BlockMeta> metas;
    size_t row = 0;
    do {
      size_t count = std::min(block_rows, col.size() - row);
      EncodedBlock block = EncodeBlock(col, row, count);
      ExtentInfo::BlockMeta meta;
      meta.offset = file.size();
      meta.checksum = BlockChecksum(block.payload.data(), block.payload.size());
      meta.rows = block.rows;
      meta.payload_bytes = static_cast<uint32_t>(block.payload.size());
      meta.codec = static_cast<uint8_t>(block.codec);
      file.PutBytes(block.payload.data(), block.payload.size());
      metas.push_back(meta);
      row += count;
      ++counters_.blocks_written;
      counters_.bytes_written += static_cast<int64_t>(block.payload.size());
      if (count == 0) break;  // empty column: one zero-row block
    } while (row < col.size());

    ByteWriter footer;
    for (const auto& m : metas) {
      footer.PutU64(m.offset);
      footer.PutU64(m.checksum);
      footer.PutU32(m.rows);
      footer.PutU32(m.payload_bytes);
      footer.PutU8(m.codec);
    }
    uint64_t footer_checksum =
        BlockChecksum(footer.buffer().data(), footer.buffer().size());
    file.PutBytes(footer.buffer().data(), footer.buffer().size());
    file.PutU32(static_cast<uint32_t>(metas.size()));
    file.PutU64(col.size());
    file.PutU64(footer_checksum);
    file.PutU64(kExtentTailMagic);

    DBSP_RETURN_NOT_OK(
        WriteFileAndSync(ExtentPath(extent_id), file.buffer(), options_.sync));
    img.extent_ids.push_back(extent_id);
    ++counters_.extents_written;
    counters_.raw_bytes_encoded += RawColumnBytes(col);
  }
  if (options_.sync && table.num_columns() > 0) {
    DBSP_RETURN_NOT_OK(SyncDir(options_.path + "/data"));
  }
  return img;
}

Status StorageManager::AppendWalLocked(WalRecordType type,
                                       const std::string& payload) {
  if (options_.wal) {
    DBSP_RETURN_NOT_OK(wal_->Append(type, next_lsn_, payload, faults_));
    ++counters_.wal_appends;
  }
  ++next_lsn_;
  return Status::OK();
}

Status StorageManager::LogUpsertTable(const std::string& name,
                                      std::optional<size_t> pk,
                                      const Table& table) {
  MutexLock lock(mu_);
  DBSP_ASSIGN_OR_RETURN(TableImage img, WriteTableExtentsLocked(table, pk));
  ByteWriter w;
  w.PutString(name);
  EncodeTableImage(img, &w);
  DBSP_RETURN_NOT_OK(AppendWalLocked(WalRecordType::kUpsertTable, w.buffer()));
  tables_[name] = std::move(img);
  if (++appends_since_manifest_ >= options_.manifest_every) {
    // Fold failures are maintenance failures, not commit failures: the WAL
    // frame above is already durable, so surfacing an error here would
    // report a committed operation as failed. The next append retries.
    (void)WriteManifestLocked();
  }
  return Status::OK();
}

Status StorageManager::LogDropTable(const std::string& name) {
  MutexLock lock(mu_);
  ByteWriter w;
  w.PutString(name);
  DBSP_RETURN_NOT_OK(AppendWalLocked(WalRecordType::kDropTable, w.buffer()));
  tables_.erase(name);
  if (++appends_since_manifest_ >= options_.manifest_every) {
    (void)WriteManifestLocked();
  }
  return Status::OK();
}

Result<TableImage> StorageManager::WriteTableExtents(const Table& table) {
  MutexLock lock(mu_);
  DBSP_ASSIGN_OR_RETURN(TableImage image,
                        WriteTableExtentsLocked(table, std::nullopt));
  // Shield the fresh extents from GC until a checkpoint adopts them.
  for (uint64_t id : image.extent_ids) inflight_extents_.push_back(id);
  return image;
}

Status StorageManager::SaveCheckpoint(uint64_t tag,
                                      const CheckpointImage& image) {
  MutexLock lock(mu_);
  ByteWriter w;
  w.PutU64(tag);
  EncodeCheckpointImage(image, &w);
  DBSP_RETURN_NOT_OK(AppendWalLocked(WalRecordType::kCheckpoint, w.buffer()));
  checkpoints_[tag] = image;
  // The checkpoint now references its extents through checkpoints_, so they
  // no longer need the in-flight GC shield.
  std::vector<uint64_t> adopted;
  CollectCheckpointExtents(image, &adopted);
  std::sort(adopted.begin(), adopted.end());
  inflight_extents_.erase(
      std::remove_if(inflight_extents_.begin(), inflight_extents_.end(),
                     [&](uint64_t id) {
                       return std::binary_search(adopted.begin(),
                                                 adopted.end(), id);
                     }),
      inflight_extents_.end());
  if (++appends_since_manifest_ >= options_.manifest_every) {
    (void)WriteManifestLocked();
  }
  return Status::OK();
}

Status StorageManager::ClearCheckpoint(uint64_t tag) {
  MutexLock lock(mu_);
  if (checkpoints_.find(tag) == checkpoints_.end()) return Status::OK();
  ByteWriter w;
  w.PutU64(tag);
  DBSP_RETURN_NOT_OK(
      AppendWalLocked(WalRecordType::kCheckpointClear, w.buffer()));
  checkpoints_.erase(tag);
  if (++appends_since_manifest_ >= options_.manifest_every) {
    (void)WriteManifestLocked();
  }
  return Status::OK();
}

std::optional<CheckpointImage> StorageManager::FindCheckpoint(
    uint64_t tag) const {
  MutexLock lock(mu_);
  auto it = checkpoints_.find(tag);
  if (it == checkpoints_.end()) return std::nullopt;
  return it->second;
}

Status StorageManager::WriteManifestNow() {
  MutexLock lock(mu_);
  return WriteManifestLocked();
}

Status StorageManager::WriteManifestLocked() {
  ByteWriter w;
  w.PutU64(kManifestMagic);
  const uint64_t folded_lsn = next_lsn_ - 1;
  w.PutU64(folded_lsn);
  w.PutU64(next_extent_id_);
  w.PutU32(static_cast<uint32_t>(tables_.size()));
  for (const auto& [name, img] : tables_) {
    w.PutString(name);
    EncodeTableImage(img, &w);
  }
  w.PutU32(static_cast<uint32_t>(checkpoints_.size()));
  for (const auto& [tag, cp] : checkpoints_) {
    w.PutU64(tag);
    EncodeCheckpointImage(cp, &w);
  }
  uint64_t checksum = BlockChecksum(w.buffer().data(), w.buffer().size());
  w.PutU64(checksum);
  w.PutU64(kManifestTailMagic);

  const std::string tmp_path = options_.path + "/MANIFEST.tmp";
  const std::string manifest_path = options_.path + "/MANIFEST";
  DBSP_RETURN_NOT_OK(WriteFileAndSync(tmp_path, w.buffer(), /*sync=*/true));
  // The swap is the durability boundary of the fold: killed before the
  // rename, recovery uses the old manifest + the (unreset) WAL; killed
  // after, the fresh manifest subsumes the WAL, whose stale frames are
  // filtered by lsn.
  DBSP_RETURN_NOT_OK(MaybeInjectFault(faults_, "storage.manifest.swap"));
  if (::rename(tmp_path.c_str(), manifest_path.c_str()) != 0) {
    return PosixError("rename " + tmp_path);
  }
  DBSP_RETURN_NOT_OK(SyncDir(options_.path));
  manifest_lsn_ = folded_lsn;
  appends_since_manifest_ = 0;
  ++counters_.manifests_written;
  if (options_.wal) {
    DBSP_RETURN_NOT_OK(wal_->Reset());
  }
  CollectGarbageLocked();
  return Status::OK();
}

void StorageManager::CollectGarbageLocked() {
  std::vector<uint64_t> referenced;
  for (const auto& [name, img] : tables_) CollectImageExtents(img, &referenced);
  for (const auto& [tag, cp] : checkpoints_) {
    CollectCheckpointExtents(cp, &referenced);
  }
  referenced.insert(referenced.end(), inflight_extents_.begin(),
                    inflight_extents_.end());
  std::sort(referenced.begin(), referenced.end());

  std::error_code ec;
  std::filesystem::directory_iterator it(options_.path + "/data", ec);
  if (ec) return;
  for (const auto& entry : it) {
    const std::string fname = entry.path().filename().string();
    if (fname.size() < 6 || fname.compare(0, 1, "e") != 0 ||
        fname.compare(fname.size() - 4, 4, ".col") != 0) {
      continue;
    }
    uint64_t id = 0;
    try {
      id = std::stoull(fname.substr(1, fname.size() - 5));
    } catch (...) {
      continue;
    }
    if (!std::binary_search(referenced.begin(), referenced.end(), id)) {
      std::error_code rm_ec;
      std::filesystem::remove(entry.path(), rm_ec);
      if (!rm_ec) ++counters_.extents_collected;
    }
  }
}

std::map<std::string, TableImage> StorageManager::tables() const {
  MutexLock lock(mu_);
  return tables_;
}

Result<std::shared_ptr<const StorageManager::ExtentInfo>>
StorageManager::GetExtentInfo(uint64_t extent_id) {
  {
    MutexLock lock(extent_cache_mu_);
    auto it = extent_cache_.find(extent_id);
    if (it != extent_cache_.end()) return it->second;
  }
  const std::string path = ExtentPath(extent_id);
  std::string bytes;
  Status read = ReadWholeFile(path, &bytes);
  if (!read.ok()) {
    return Status::Corruption("extent " + std::to_string(extent_id) +
                              " unreadable: " + read.message());
  }
  if (bytes.size() < kExtentHeaderBytes + kExtentTailBytes) {
    return Status::Corruption("extent " + std::to_string(extent_id) +
                              " truncated: " + std::to_string(bytes.size()) +
                              " bytes");
  }
  ByteReader head(reinterpret_cast<const uint8_t*>(bytes.data()),
                  kExtentHeaderBytes);
  uint64_t magic = 0;
  uint8_t type = 0;
  DBSP_RETURN_NOT_OK(head.ReadU64(&magic));
  DBSP_RETURN_NOT_OK(head.ReadU8(&type));
  if (magic != kExtentMagic || type > static_cast<uint8_t>(TypeId::kString)) {
    return Status::Corruption("extent " + std::to_string(extent_id) +
                              " has a bad header");
  }
  ByteReader tail(reinterpret_cast<const uint8_t*>(bytes.data()) +
                      bytes.size() - kExtentTailBytes,
                  kExtentTailBytes);
  uint32_t block_count = 0;
  uint64_t total_rows = 0, footer_checksum = 0, tail_magic = 0;
  DBSP_RETURN_NOT_OK(tail.ReadU32(&block_count));
  DBSP_RETURN_NOT_OK(tail.ReadU64(&total_rows));
  DBSP_RETURN_NOT_OK(tail.ReadU64(&footer_checksum));
  DBSP_RETURN_NOT_OK(tail.ReadU64(&tail_magic));
  if (tail_magic != kExtentTailMagic) {
    return Status::Corruption("extent " + std::to_string(extent_id) +
                              " has a bad tail magic (truncated?)");
  }
  const uint64_t footer_bytes =
      static_cast<uint64_t>(block_count) * kExtentEntryBytes;
  if (footer_bytes + kExtentHeaderBytes + kExtentTailBytes > bytes.size()) {
    return Status::Corruption("extent " + std::to_string(extent_id) +
                              " footer overflows file");
  }
  const uint8_t* footer = reinterpret_cast<const uint8_t*>(bytes.data()) +
                          bytes.size() - kExtentTailBytes - footer_bytes;
  if (BlockChecksum(footer, footer_bytes) != footer_checksum) {
    return Status::Corruption("extent " + std::to_string(extent_id) +
                              " footer checksum mismatch");
  }
  auto info = std::make_shared<ExtentInfo>();
  info->id = extent_id;
  info->type = static_cast<TypeId>(type);
  info->total_rows = total_rows;
  info->blocks.resize(block_count);
  ByteReader fr(footer, footer_bytes);
  uint64_t rows_sum = 0;
  const uint64_t data_end = bytes.size() - kExtentTailBytes - footer_bytes;
  for (auto& m : info->blocks) {
    DBSP_RETURN_NOT_OK(fr.ReadU64(&m.offset));
    DBSP_RETURN_NOT_OK(fr.ReadU64(&m.checksum));
    DBSP_RETURN_NOT_OK(fr.ReadU32(&m.rows));
    DBSP_RETURN_NOT_OK(fr.ReadU32(&m.payload_bytes));
    DBSP_RETURN_NOT_OK(fr.ReadU8(&m.codec));
    if (m.offset < kExtentHeaderBytes ||
        m.offset + m.payload_bytes > data_end ||
        m.codec > static_cast<uint8_t>(BlockCodec::kBitPack)) {
      return Status::Corruption("extent " + std::to_string(extent_id) +
                                " block directory entry out of bounds");
    }
    rows_sum += m.rows;
  }
  if (rows_sum != total_rows) {
    return Status::Corruption("extent " + std::to_string(extent_id) +
                              " row count mismatch: footer says " +
                              std::to_string(total_rows) + ", blocks sum to " +
                              std::to_string(rows_sum));
  }
  MutexLock lock(extent_cache_mu_);
  auto [it, inserted] = extent_cache_.emplace(extent_id, std::move(info));
  return it->second;
}

Result<TablePtr> StorageManager::ReadTable(const TableImage& image) {
  const size_t ncols = image.schema.num_columns();
  if (image.extent_ids.size() != ncols) {
    return Status::Corruption("table image has " +
                              std::to_string(image.extent_ids.size()) +
                              " extents for " + std::to_string(ncols) +
                              " columns");
  }
  // The image and every column's block directory must agree on types and on
  // the rows of each block before anything is read.
  std::vector<std::shared_ptr<const ExtentInfo>> infos;
  infos.reserve(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    const uint64_t extent_id = image.extent_ids[c];
    DBSP_ASSIGN_OR_RETURN(std::shared_ptr<const ExtentInfo> info,
                          GetExtentInfo(extent_id));
    const TypeId type = image.schema.column(c).type;
    if (info->type != type &&
        !(info->type == TypeId::kNull || type == TypeId::kNull)) {
      return Status::Corruption("extent " + std::to_string(extent_id) +
                                " stores type " +
                                std::to_string(static_cast<int>(info->type)) +
                                ", reader expects " +
                                std::to_string(static_cast<int>(type)));
    }
    if (c > 0) {
      const ExtentInfo& first = *infos[0];
      if (info->blocks.size() != first.blocks.size()) {
        return Status::Corruption(
            "column extents disagree on block count: " +
            std::to_string(first.blocks.size()) + " vs " +
            std::to_string(info->blocks.size()));
      }
      for (size_t b = 0; b < first.blocks.size(); ++b) {
        if (info->blocks[b].rows != first.blocks[b].rows) {
          return Status::Corruption(
              "column extents disagree on block " + std::to_string(b) +
              " row count: " + std::to_string(first.blocks[b].rows) + " vs " +
              std::to_string(info->blocks[b].rows));
        }
      }
    }
    infos.push_back(std::move(info));
  }
  const uint64_t rows = ncols == 0 ? 0 : infos[0]->total_rows;
  if (rows != image.rows) {
    return Status::Corruption("table image expected " +
                              std::to_string(image.rows) +
                              " rows, extents hold " + std::to_string(rows));
  }

  // One pread, checksum and decode per block, appended to its column.
  std::vector<ColumnVectorPtr> columns;
  columns.reserve(ncols);
  std::string payload;
  for (size_t c = 0; c < ncols; ++c) {
    const ExtentInfo& info = *infos[c];
    const std::string path = ExtentPath(info.id);
    auto col = std::make_shared<ColumnVector>(info.type);
    col->Reserve(rows);
    for (size_t b = 0; b < info.blocks.size(); ++b) {
      const ExtentInfo::BlockMeta& meta = info.blocks[b];
      DBSP_RETURN_NOT_OK(
          PreadExact(path, meta.offset, meta.payload_bytes, &payload));
      if (BlockChecksum(payload.data(), payload.size()) != meta.checksum) {
        return Status::Corruption("block " + std::to_string(b) +
                                  " of extent " + std::to_string(info.id) +
                                  " failed its checksum");
      }
      DBSP_RETURN_NOT_OK(DecodeBlock(
          static_cast<BlockCodec>(meta.codec), info.type, meta.rows,
          reinterpret_cast<const uint8_t*>(payload.data()), payload.size(),
          col.get()));
    }
    const TypeId type = image.schema.column(c).type;
    if (type != info.type) {  // a NULL-typed side: coerce to the schema
      auto coerced = std::make_shared<ColumnVector>(type);
      coerced->AppendAll(*col);
      col = std::move(coerced);
    }
    columns.push_back(std::move(col));
  }
  return Table::FromColumns(image.schema, std::move(columns));
}

StorageManager::Counters StorageManager::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

}  // namespace dbspinner
