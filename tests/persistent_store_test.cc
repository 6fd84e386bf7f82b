// StorageManager integration tests (DESIGN.md §12): the commit protocol,
// manifest folds, WAL replay, torn-tail tolerance, durable checkpoints, and
// extent GC — all in-process so the TSan job covers the store's locking.
// (The out-of-process SIGKILL proof lives in durability_test.cc.)

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "storage/persistent_store.h"
#include "storage/table.h"

namespace dbspinner {
namespace {

class PersistentStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::error_code ec;
    dir_ = (std::filesystem::temp_directory_path() /
            ("dbsp_store_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_, ec);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  PersistenceOptions Options() {
    PersistenceOptions p;
    p.enabled = true;
    p.path = dir_;
    p.sync = false;  // unit tests don't kill the process
    p.block_rows = 16;
    p.manifest_every = 1000;  // folds only when a test forces them
    return p;
  }

  std::unique_ptr<StorageManager> OpenStore(PersistenceOptions p) {
    auto r = StorageManager::Open(p, /*faults=*/nullptr);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : nullptr;
  }

  static TablePtr MakeTable(int64_t rows, int64_t salt) {
    Schema schema;
    schema.AddColumn("id", TypeId::kInt64);
    schema.AddColumn("score", TypeId::kDouble);
    schema.AddColumn("label", TypeId::kString);
    TablePtr t = Table::Make(std::move(schema));
    for (int64_t i = 0; i < rows; ++i) {
      t->AppendRow({Value::Int64(i + salt),
                    Value::Double(static_cast<double>(i) / 3.0),
                    Value::String("row-" + std::to_string(i % 9))});
    }
    return t;
  }

  static void ExpectSameRows(const TablePtr& a, const TablePtr& b) {
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->num_rows(), b->num_rows());
    EXPECT_TRUE(Table::SameRows(*a, *b))
        << a->ToString(10) << "\nvs\n"
        << b->ToString(10);
  }

  std::string dir_;
};

TEST_F(PersistentStoreTest, UpsertSurvivesReopenViaWalReplay) {
  TablePtr t = MakeTable(100, 0);
  {
    auto store = OpenStore(Options());
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->LogUpsertTable("t", 0, *t).ok());
    // manifest_every is huge: durability must come from the WAL alone.
  }
  auto store = OpenStore(Options());
  ASSERT_NE(store, nullptr);
  auto tables = store->tables();
  ASSERT_EQ(tables.count("t"), 1u);
  EXPECT_EQ(tables["t"].rows, 100u);
  EXPECT_EQ(tables["t"].primary_key_col, std::optional<size_t>(0));
  auto read = store->ReadTable(tables["t"]);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ExpectSameRows(t, read.value());
  EXPECT_GE(store->counters().wal_records_replayed, 1);
}

TEST_F(PersistentStoreTest, UpsertSurvivesReopenViaManifest) {
  PersistenceOptions p = Options();
  p.manifest_every = 1;  // fold after every append
  TablePtr t = MakeTable(50, 7);
  {
    auto store = OpenStore(p);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->LogUpsertTable("t", std::nullopt, *t).ok());
    EXPECT_GE(store->counters().manifests_written, 1);
  }
  auto store = OpenStore(p);
  ASSERT_NE(store, nullptr);
  auto tables = store->tables();
  ASSERT_EQ(tables.count("t"), 1u);
  auto read = store->ReadTable(tables["t"]);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ExpectSameRows(t, read.value());
  // Nothing should have needed replay: the manifest carried it all.
  EXPECT_EQ(store->counters().wal_records_replayed, 0);
}

TEST_F(PersistentStoreTest, LatestUpsertWinsAndDropIsDurable) {
  TablePtr v1 = MakeTable(30, 0);
  TablePtr v2 = MakeTable(60, 1000);
  {
    auto store = OpenStore(Options());
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->LogUpsertTable("a", std::nullopt, *v1).ok());
    ASSERT_TRUE(store->LogUpsertTable("a", std::nullopt, *v2).ok());
    ASSERT_TRUE(store->LogUpsertTable("b", std::nullopt, *v1).ok());
    ASSERT_TRUE(store->LogDropTable("b").ok());
  }
  auto store = OpenStore(Options());
  ASSERT_NE(store, nullptr);
  auto tables = store->tables();
  EXPECT_EQ(tables.count("b"), 0u);
  ASSERT_EQ(tables.count("a"), 1u);
  auto read = store->ReadTable(tables["a"]);
  ASSERT_TRUE(read.ok());
  ExpectSameRows(v2, read.value());
}

TEST_F(PersistentStoreTest, TornWalTailIsIgnoredNotFatal) {
  TablePtr t1 = MakeTable(20, 0);
  TablePtr t2 = MakeTable(20, 500);
  {
    auto store = OpenStore(Options());
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->LogUpsertTable("first", std::nullopt, *t1).ok());
    ASSERT_TRUE(store->LogUpsertTable("second", std::nullopt, *t2).ok());
  }
  // Chop bytes off the WAL tail: the last frame becomes torn. Recovery must
  // keep everything before it and ignore the tail — the exact guarantee a
  // crash mid-append relies on.
  std::string wal = dir_ + "/wal.log";
  auto size = std::filesystem::file_size(wal);
  ASSERT_GT(size, 8u);
  std::filesystem::resize_file(wal, size - 7);

  auto store = OpenStore(Options());
  ASSERT_NE(store, nullptr);
  auto tables = store->tables();
  EXPECT_EQ(tables.count("first"), 1u);
  EXPECT_EQ(tables.count("second"), 0u) << "torn frame was applied";
  auto read = store->ReadTable(tables["first"]);
  ASSERT_TRUE(read.ok());
  ExpectSameRows(t1, read.value());
}

TEST_F(PersistentStoreTest, CorruptedExtentReadsAsCorruption) {
  TablePtr t = MakeTable(64, 0);
  uint64_t id_extent = 0, score_extent = 0;
  {
    auto store = OpenStore(Options());
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->LogUpsertTable("t", std::nullopt, *t).ok());
    ASSERT_TRUE(store->LogUpsertTable("u", std::nullopt, *t).ok());
    id_extent = store->tables()["t"].extent_ids[0];
    score_extent = store->tables()["u"].extent_ids[1];
  }
  auto path_of = [&](uint64_t extent_id) {
    return dir_ + "/data/e" + std::to_string(extent_id) + ".col";
  };
  auto flip = [&](uint64_t extent_id, uint64_t offset) {
    std::string path = path_of(extent_id);
    ASSERT_TRUE(std::filesystem::exists(path));
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    f.seekp(-1, std::ios::cur);
    b = static_cast<char>(b ^ 0x40);
    f.write(&b, 1);
  };
  // A byte in the middle of the extent file.
  flip(id_extent, std::filesystem::file_size(path_of(id_extent)) / 2);
  // A byte among the raw DOUBLE values of the first block (past the 9-byte
  // extent header): it still decodes, so only the block checksum sees it.
  flip(score_extent, 9 + 20);

  auto store = OpenStore(Options());
  ASSERT_NE(store, nullptr);
  for (const char* name : {"t", "u"}) {
    auto read = store->ReadTable(store->tables()[name]);
    ASSERT_FALSE(read.ok()) << "corrupted extent of " << name
                            << " decoded cleanly";
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
        << read.status().ToString();
  }
}

TEST_F(PersistentStoreTest, CheckpointRoundTripAndClear) {
  auto store = OpenStore(Options());
  ASSERT_NE(store, nullptr);
  TablePtr reg = MakeTable(40, 0);
  auto img = store->WriteTableExtents(*reg);
  ASSERT_TRUE(img.ok()) << img.status().ToString();

  CheckpointImage cp;
  cp.fingerprint = 0xfeedface;
  cp.pc = 5;
  LoopImage loop;
  loop.id = 1;
  loop.iteration = 3;
  loop.last_update_count = 17;
  loop.cumulative_updates = 99;
  loop.previous = img.value();
  cp.loops.push_back(loop);
  cp.registry.emplace_back("loop:1:result", img.value());
  ASSERT_TRUE(store->SaveCheckpoint(0xabc, cp).ok());

  // Reopen: the checkpoint must survive with structure intact.
  store.reset();
  store = OpenStore(Options());
  ASSERT_NE(store, nullptr);
  auto found = store->FindCheckpoint(0xabc);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->fingerprint, 0xfeedfaceu);
  EXPECT_EQ(found->pc, 5u);
  ASSERT_EQ(found->loops.size(), 1u);
  EXPECT_EQ(found->loops[0].iteration, 3);
  EXPECT_EQ(found->loops[0].cumulative_updates, 99);
  ASSERT_TRUE(found->loops[0].previous.has_value());
  ASSERT_EQ(found->registry.size(), 1u);
  EXPECT_EQ(found->registry[0].first, "loop:1:result");
  auto read = store->ReadTable(found->registry[0].second);
  ASSERT_TRUE(read.ok());
  ExpectSameRows(reg, read.value());
  EXPECT_GE(store->counters().checkpoints_recovered, 1);

  // Clear is durable too.
  ASSERT_TRUE(store->ClearCheckpoint(0xabc).ok());
  EXPECT_FALSE(store->FindCheckpoint(0xabc).has_value());
  store.reset();
  store = OpenStore(Options());
  ASSERT_NE(store, nullptr);
  EXPECT_FALSE(store->FindCheckpoint(0xabc).has_value());
}

TEST_F(PersistentStoreTest, ManifestFoldCollectsUnreferencedExtents) {
  PersistenceOptions p = Options();
  p.manifest_every = 2;
  auto store = OpenStore(p);
  ASSERT_NE(store, nullptr);
  TablePtr t = MakeTable(32, 0);
  // Each upsert of the same name strands the previous version's extents;
  // folds must unlink them.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(store->LogUpsertTable("t", std::nullopt, *t).ok());
  }
  EXPECT_GT(store->counters().extents_collected, 0);
  // The data directory holds only what the live image references (plus
  // nothing stranded: every collected extent's file is gone).
  size_t files = 0;
  for (auto& e : std::filesystem::directory_iterator(dir_ + "/data")) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, store->tables()["t"].extent_ids.size());
  auto read = store->ReadTable(store->tables()["t"]);
  ASSERT_TRUE(read.ok());
  ExpectSameRows(t, read.value());
}

TEST_F(PersistentStoreTest, ConcurrentReadersOverSharedStore) {
  // Writers and readers race on one store: upserts of distinct tables on 2
  // threads, full-table reads on 4. TSan-enforced; assertions are sanity.
  auto store = OpenStore(Options());
  ASSERT_NE(store, nullptr);
  TablePtr seed = MakeTable(64, 0);
  ASSERT_TRUE(store->LogUpsertTable("shared", std::nullopt, *seed).ok());

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 20; ++i) {
        TablePtr t = MakeTable(32, w * 10000 + i);
        if (!store->LogUpsertTable("w" + std::to_string(w), std::nullopt, *t)
                 .ok()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < 30; ++i) {
        auto tables = store->tables();
        auto it = tables.find("shared");
        if (it == tables.end()) {
          errors.fetch_add(1);
          continue;
        }
        auto read = store->ReadTable(it->second);
        if (!read.ok() || read.value()->num_rows() != 64) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST_F(PersistentStoreTest, ReadTableRoundTripsMultiBlockExtents) {
  // block_rows = 16: 100 rows span seven blocks (the last one partial), 16
  // rows exactly one, and an empty table one block of zero rows. Rows come
  // back in order, NULLs included, with the schema's column types.
  TablePtr hundred = MakeTable(100, 0);
  TablePtr sparse = Table::Make(hundred->schema());
  for (int64_t i = 0; i < 40; ++i) {
    sparse->AppendRow({i % 3 == 0 ? Value::Null() : Value::Int64(i),
                       i % 5 == 0 ? Value::Null() : Value::Double(i * 0.5),
                       i % 7 == 0 ? Value::Null() : Value::String("s")});
  }
  const std::vector<std::pair<std::string, TablePtr>> cases = {
      {"hundred", hundred},
      {"one_block", MakeTable(16, 3)},
      {"sparse", sparse},
      {"empty", MakeTable(0, 0)}};
  {
    auto store = OpenStore(Options());
    ASSERT_NE(store, nullptr);
    for (const auto& [name, t] : cases) {
      ASSERT_TRUE(store->LogUpsertTable(name, std::nullopt, *t).ok()) << name;
    }
  }
  auto store = OpenStore(Options());
  ASSERT_NE(store, nullptr);
  auto tables = store->tables();
  for (const auto& [name, t] : cases) {
    ASSERT_EQ(tables.count(name), 1u) << name;
    auto read = store->ReadTable(tables[name]);
    ASSERT_TRUE(read.ok()) << name << ": " << read.status().ToString();
    const Table& got = *read.value();
    ASSERT_EQ(got.num_rows(), t->num_rows()) << name;
    ASSERT_EQ(got.num_columns(), t->num_columns()) << name;
    for (size_t c = 0; c < got.num_columns(); ++c) {
      EXPECT_EQ(got.column(c).type(), t->schema().column(c).type) << name;
    }
    for (size_t r = 0; r < got.num_rows(); ++r) {
      for (size_t c = 0; c < got.num_columns(); ++c) {
        const Value want = t->GetValue(r, c);
        const Value have = got.GetValue(r, c);
        EXPECT_EQ(have.is_null(), want.is_null()) << name << " " << r;
        EXPECT_EQ(have.ToString(), want.ToString()) << name << " " << r;
      }
    }
  }
}

// The read path checks the image against its extents before decoding. Each
// test below splices a well-formed image so exactly one check fails.
TEST_F(PersistentStoreTest, ExtentsDisagreeingOnBlockRowsReadAsCorruption) {
  auto store = OpenStore(Options());  // block_rows = 16
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->LogUpsertTable("full", std::nullopt, *MakeTable(16, 0))
                  .ok());
  ASSERT_TRUE(store->LogUpsertTable("short", std::nullopt, *MakeTable(10, 0))
                  .ok());
  ASSERT_TRUE(store->LogUpsertTable("two", std::nullopt, *MakeTable(32, 0))
                  .ok());
  auto tables = store->tables();

  // One block each, of 16 and of 10 rows.
  TableImage rows_differ = tables["full"];
  rows_differ.extent_ids[1] = tables["short"].extent_ids[1];
  auto read = store->ReadTable(rows_differ);
  ASSERT_FALSE(read.ok()) << "extents of 16 and 10 rows read as one table";
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
      << read.status().ToString();

  // Two blocks of 16 rows against one, in both column orders.
  for (const auto& [first, other] :
       {std::pair<std::string, std::string>{"two", "full"}, {"full", "two"}}) {
    TableImage blocks_differ = tables[first];
    blocks_differ.extent_ids[2] = tables[other].extent_ids[2];
    read = store->ReadTable(blocks_differ);
    ASSERT_FALSE(read.ok()) << first << " with a column of " << other
                            << " read as one table";
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
        << read.status().ToString();
  }
}

TEST_F(PersistentStoreTest, ImageRowTotalMismatchReadsAsCorruption) {
  auto store = OpenStore(Options());
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->LogUpsertTable("t", std::nullopt, *MakeTable(40, 0)).ok());
  const TableImage image = store->tables()["t"];
  ASSERT_EQ(image.rows, 40u);
  for (uint64_t rows : {uint64_t{39}, uint64_t{41}, uint64_t{0}}) {
    TableImage wrong = image;
    wrong.rows = rows;
    auto read = store->ReadTable(wrong);
    ASSERT_FALSE(read.ok()) << "image of " << rows << " rows read 40";
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
        << read.status().ToString();
  }
}

TEST_F(PersistentStoreTest, ExtentReadAsAnotherTypeReadsAsCorruption) {
  auto store = OpenStore(Options());
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->LogUpsertTable("t", std::nullopt, *MakeTable(20, 0)).ok());
  // Column 1 stores distinct DOUBLEs, raw-coded: its 8-byte values would
  // decode cleanly as BIGINTs, so only the type check can refuse them.
  TableImage retyped = store->tables()["t"];
  retyped.extent_ids[0] = retyped.extent_ids[1];
  auto read = store->ReadTable(retyped);
  ASSERT_FALSE(read.ok()) << "a DOUBLE extent read as BIGINT";
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
      << read.status().ToString();
}

}  // namespace
}  // namespace dbspinner
