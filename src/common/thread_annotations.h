// Clang thread-safety annotation macros (DESIGN.md §13).
//
// These macros expose clang's static thread-safety analysis
// (-Wthread-safety) to the engine's lock-bearing classes: a mutex (or the
// engine's CommitLock) declared as a CAPABILITY, members tied to it with
// GUARDED_BY, and internal helpers tied with REQUIRES, turn the lock
// discipline into compile-time errors — an unguarded member access or a
// helper called without its lock fails the CI clang build with
// -Werror=thread-safety instead of surfacing as a TSan race two layers
// deeper.
//
// The engine's lock-ordering discipline these annotations document (acquire
// strictly left to right; the full table is DESIGN.md §13):
//
//   commit lock  ->  catalog publish  ->  WAL append
//   (Database::commit_lock_) (Catalog::Store::mu) (StorageManager::mu_)
//
// The macros expand to nothing on compilers without the attributes (GCC
// builds the same sources warning-free); only the CI clang job enforces
// them. Names follow the conventional abseil/base spelling so the analysis
// docs apply directly.

#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#define DBSP_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define DBSP_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op outside clang
#endif

/// Declares a type to be a lock (std::mutex already carries this in libc++;
/// engine-defined lock types like CommitLock need it explicitly).
#define DBSP_CAPABILITY(x) DBSP_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// A lock acquired in scope (std::lock_guard-style RAII types).
#define DBSP_SCOPED_CAPABILITY DBSP_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Data member readable/writable only while `x` is held.
#define DBSP_GUARDED_BY(x) DBSP_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Pointer member whose *pointee* is guarded by `x`.
#define DBSP_PT_GUARDED_BY(x) DBSP_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Function callable only while holding `...` (the "Locked" suffix helpers).
#define DBSP_REQUIRES(...) \
  DBSP_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Function callable only while NOT holding `...` (deadlock prevention for
/// re-entrant entry points).
#define DBSP_EXCLUDES(...) \
  DBSP_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Function that acquires the lock(s) and returns holding them.
#define DBSP_ACQUIRE(...) \
  DBSP_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// Function that releases lock(s) the caller holds.
#define DBSP_RELEASE(...) \
  DBSP_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Function that acquires the lock iff it returns `ret`.
#define DBSP_TRY_ACQUIRE(ret, ...) \
  DBSP_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(ret, __VA_ARGS__))

/// Returns a reference to the annotated lock (lock-forwarding accessors).
#define DBSP_RETURN_CAPABILITY(x) \
  DBSP_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Declared acquisition order between two locks of one class (checked by
/// clang under -Wthread-safety-beta; the cross-class engine-wide ordering
/// is documented in DESIGN.md §13 and demonstrated by the CI compile-fail
/// artifact tests/static/lock_discipline_fail.cc).
#define DBSP_ACQUIRED_BEFORE(...) \
  DBSP_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define DBSP_ACQUIRED_AFTER(...) \
  DBSP_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))

/// Escape hatch: suppresses the analysis inside one function. Every use
/// must carry a comment explaining why the discipline is upheld by other
/// means (e.g. CommitLock's thread-agnostic hand-off).
#define DBSP_NO_THREAD_SAFETY_ANALYSIS \
  DBSP_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

namespace dbspinner {

/// std::mutex with the capability attribute, so members can be GUARDED_BY
/// it. libstdc++'s std::mutex / std::lock_guard carry no thread-safety
/// annotations, so guarding members by a raw std::mutex teaches the
/// analysis nothing — every lock-bearing class in the engine holds one of
/// these instead and locks it through MutexLock (or waits on it through a
/// std::condition_variable_any, which accepts any BasicLockable).
class DBSP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DBSP_ACQUIRE() { mu_.lock(); }
  void unlock() DBSP_RELEASE() { mu_.unlock(); }
  bool try_lock() DBSP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Annotated std::lock_guard equivalent over Mutex. Scope-exit unlock; the
/// analysis treats the capability as held for the guard's whole lifetime
/// (a condition-variable wait's unlock/relock inside the scope preserves
/// that source-level invariant).
class DBSP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DBSP_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() DBSP_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace dbspinner
