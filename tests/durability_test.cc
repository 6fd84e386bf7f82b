// Kill-and-restart durability harness (DESIGN.md §12).
//
// The system under test is the whole commit protocol: extents-before-WAL-
// before-publish, atomic manifest swaps, and durable executor checkpoints.
// The proof is out-of-process: a helper binary (tools/crash_child) loads a
// graph into a persistent database, then runs an iterative SSSP with an
// abort site armed — the storage layer SIGKILLs the process the moment the
// fault schedule's arrival is reached, i.e. mid-WAL-append, mid-extent-
// flush, or between a manifest's tmp write and its rename. The parent then
// re-runs the same query against the survived directory and requires the
// full distance table to equal the fault-free golden run, with the resumed
// run's `restores` counter recording recovery when a durable checkpoint was
// available.
//
// SIGKILL does not drop the page cache, so a killed write is simulated by
// dying at operation *entry* (see FaultInjectionConfig::abort_site); torn
// tails are covered separately by explicit truncation in codec/WAL unit
// tests (codec_test.cc, persistent_store_test.cc).
//
// Skipped under TSan (tests/CMakeLists.txt): the harness forks dozens of
// children and TSan's interceptors make that pathologically slow; the same
// binary runs under ASan/UBSan in CI.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

namespace {

std::string ChildBinary() {
  const char* env = std::getenv("DBSP_CRASH_CHILD");
  if (env != nullptr && *env != '\0') return env;
  return "tools/crash_child/crash_child";  // ctest runs from the build dir
}

struct ChildResult {
  bool ran = false;     ///< process was spawned and reaped
  bool killed = false;  ///< died by SIGKILL (the armed abort site fired)
  int exit_code = -1;   ///< when !killed
  std::vector<std::string> rows;  ///< sorted "row:" lines
  std::string stats;              ///< the "stats:" line
};

ChildResult RunChild(const std::string& args) {
  ChildResult r;
  const std::string cmd = ChildBinary() + " " + args + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char line[4096];
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    std::string s(line);
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
    if (s.rfind("row: ", 0) == 0) {
      r.rows.push_back(s.substr(5));
    } else if (s.rfind("stats: ", 0) == 0) {
      r.stats = s.substr(7);
    }
  }
  int status = pclose(pipe);
  if (status < 0) return r;
  r.ran = true;
  if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) {
    r.killed = true;
  } else if (WIFEXITED(status)) {
    r.exit_code = WEXITSTATUS(status);
    // popen goes through /bin/sh, which reports a SIGKILLed child as 137.
    if (r.exit_code == 128 + SIGKILL) r.killed = true;
  }
  return r;
}

int64_t StatCounter(const std::string& stats, const std::string& key) {
  auto pos = stats.find(key + "=");
  if (pos == std::string::npos) return -1;
  return std::strtoll(stats.c_str() + pos + key.size() + 1, nullptr, 10);
}

/// One kill point: arm `site`, let it complete `hits` arrivals, die
/// entering the next one.
struct KillPoint {
  const char* site;
  int64_t hits;
};

// >= 20 points spread over all three storage abort sites, front-loaded on
// the WAL append (every durable operation crosses it) and covering the
// rarer extent-flush and manifest-swap arrivals.
const KillPoint kKillPoints[] = {
    {"storage.wal.append", 0},    {"storage.wal.append", 1},
    {"storage.wal.append", 2},    {"storage.wal.append", 3},
    {"storage.wal.append", 4},    {"storage.wal.append", 5},
    {"storage.wal.append", 6},    {"storage.wal.append", 7},
    {"storage.wal.append", 9},    {"storage.wal.append", 11},
    {"storage.extent.flush", 0},  {"storage.extent.flush", 1},
    {"storage.extent.flush", 3},  {"storage.extent.flush", 7},
    {"storage.extent.flush", 15}, {"storage.extent.flush", 31},
    {"storage.extent.flush", 63}, {"storage.manifest.swap", 0},
    {"storage.manifest.swap", 1}, {"storage.manifest.swap", 2},
};

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::error_code ec;
    root_ = std::filesystem::temp_directory_path() /
            ("dbsp_durability_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_, ec);
    std::filesystem::create_directories(root_);
    template_dir_ = (root_ / "template").string();
    ChildResult init = RunChild("init " + template_dir_);
    ASSERT_TRUE(init.ran);
    ASSERT_FALSE(init.killed);
    ASSERT_EQ(init.exit_code, 0) << "crash_child init failed";
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  /// Copies the loaded template database into a fresh working directory.
  std::string FreshWorkDir(const std::string& label) {
    std::string dir = (root_ / label).string();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::copy(template_dir_, dir,
                          std::filesystem::copy_options::recursive, ec);
    EXPECT_FALSE(ec) << "copying template database failed";
    return dir;
  }

  void SweepKillPoints(int workers) {
    const std::string w = std::to_string(workers);

    // Golden: the fault-free answer, computed on an untouched copy.
    std::string golden_dir = FreshWorkDir("golden_w" + w);
    ChildResult golden = RunChild("run " + golden_dir + " none 0 " + w);
    ASSERT_TRUE(golden.ran);
    ASSERT_FALSE(golden.killed);
    ASSERT_EQ(golden.exit_code, 0);
    ASSERT_GT(golden.rows.size(), 100u) << "golden run produced no result";
    ASSERT_EQ(StatCounter(golden.stats, "restores"), 0);
    ASSERT_GT(StatCounter(golden.stats, "durable"), 0)
        << "durable checkpointing never engaged: " << golden.stats;

    int killed = 0;
    int resumed = 0;
    for (size_t i = 0; i < std::size(kKillPoints); ++i) {
      const KillPoint& kp = kKillPoints[i];
      SCOPED_TRACE(std::string(kp.site) + " after " +
                   std::to_string(kp.hits) + " hits, workers=" + w);
      std::string dir = FreshWorkDir("kp" + std::to_string(i) + "_w" + w);

      ChildResult crash = RunChild("run " + dir + " " + kp.site + " " +
                                   std::to_string(kp.hits) + " " + w);
      ASSERT_TRUE(crash.ran);
      if (crash.killed) {
        ++killed;
      } else {
        // The site was not reached hits+1 times; the run must then have
        // completed correctly (and the sweep still reopens below).
        ASSERT_EQ(crash.exit_code, 0);
        EXPECT_EQ(crash.rows, golden.rows);
      }

      // Reopen + resume: recovery must reconstruct a state from which the
      // re-issued query converges to the exact fault-free answer.
      ChildResult resume = RunChild("run " + dir + " none 0 " + w);
      ASSERT_TRUE(resume.ran);
      ASSERT_FALSE(resume.killed);
      ASSERT_EQ(resume.exit_code, 0)
          << "resume after kill at " << kp.site << " failed";
      EXPECT_EQ(resume.rows, golden.rows)
          << "resumed result diverges from the fault-free run";
      int64_t restores = StatCounter(resume.stats, "restores");
      ASSERT_GE(restores, 0) << "unparsable stats: " << resume.stats;
      if (crash.killed && restores > 0) {
        ++resumed;
        // A durable-checkpoint resume re-runs only the tail of the loop.
        EXPECT_GE(StatCounter(resume.stats, "checkpoints"), 1);
      }
    }

    // The schedule must actually exercise the crash path, and at least the
    // late kill points must resume from a durable checkpoint rather than
    // recompute from scratch.
    EXPECT_GE(killed, 10) << "too few kill points fired; schedule is stale";
    EXPECT_GE(resumed, 3) << "no kill point resumed from a durable checkpoint";
  }

  std::filesystem::path root_;
  std::string template_dir_;
};

TEST_F(DurabilityTest, KillAndRestartSweepSerial) { SweepKillPoints(1); }

TEST_F(DurabilityTest, KillAndRestartSweepMpp8) { SweepKillPoints(8); }

// A database directory that was never crashed reopens with zero WAL replay
// surprises: the recovered tables must answer a plain scan identically
// before and after a clean close. (Cheap sanity on top of the kill sweep —
// catches manifest/WAL drift that the crash path might mask.)
TEST_F(DurabilityTest, CleanReopenIsStable) {
  std::string dir = FreshWorkDir("clean");
  ChildResult a = RunChild("run " + dir + " none 0 1");
  ASSERT_TRUE(a.ran);
  ASSERT_EQ(a.exit_code, 0);
  ChildResult b = RunChild("run " + dir + " none 0 1");
  ASSERT_TRUE(b.ran);
  ASSERT_EQ(b.exit_code, 0);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(StatCounter(b.stats, "restores"), 0);
}

}  // namespace
