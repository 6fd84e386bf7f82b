// Negative lock-discipline artifact — this file MUST NOT compile under the
// CI thread-safety job (clang, -Wthread-safety -Wthread-safety-beta, both
// promoted to errors). It is never added to any CMake target; the CI step
// compiles it standalone and asserts clang rejects every violation below.
// If this file ever compiles cleanly, the annotation pass has regressed
// (macros expanding to nothing under clang, or the analysis flags dropped).
//
// Three intentional violations of the engine's lock discipline
// (DESIGN.md §13):
//   1. Reading a DBSP_GUARDED_BY member without holding its mutex.
//   2. Calling a DBSP_REQUIRES helper without the lock (the "Locked"-suffix
//      contract every storage-layer helper uses).
//   3. A misordered acquisition: taking the catalog-publish-stand-in lock
//      while already holding the WAL-append-stand-in, against their declared
//      DBSP_ACQUIRED_BEFORE order — the same inner-before-outer inversion
//      the engine-wide table (commit lock -> catalog publish -> WAL append)
//      forbids.

#include "common/thread_annotations.h"

namespace dbspinner {
namespace {

class LockDisciplineArtifact {
 public:
  // Violation 1: unguarded read of a guarded member.
  int ReadWithoutLock() { return balance_; }

  // Violation 2: REQUIRES helper invoked lock-free.
  void CallLockedHelperWithoutLock() { MutateLocked(); }

  // Violation 3: acquisition against the declared order. The checked
  // discipline says catalog_mu_ is acquired before wal_mu_; this takes them
  // inner-first.
  void MisorderedAcquisition() {
    MutexLock inner(wal_mu_);
    MutexLock outer(catalog_mu_);  // -Wthread-safety-beta: wrong order
    balance_ = 0;  // (guarded by wal_mu_, held — not the bug here)
  }

 private:
  void MutateLocked() DBSP_REQUIRES(wal_mu_) { ++balance_; }

  Mutex catalog_mu_ DBSP_ACQUIRED_BEFORE(wal_mu_);
  Mutex wal_mu_;
  int balance_ DBSP_GUARDED_BY(wal_mu_) = 0;
};

}  // namespace
}  // namespace dbspinner
