// Fixed-size worker pool used by the shared-nothing (MPP) simulation.
//
// Each worker plays the role of one node of the paper's MPP cluster: a
// parallel pipeline's workers claim contiguous morsel ranges of its input,
// steal from each other once their own range runs dry, and the results
// concatenate in morsel order.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace dbspinner {

class FaultInjector;

/// Work-stealing morsel dispenser (Leis et al.'s morsel-driven parallelism).
///
/// The morsel index space [0, n) is pre-partitioned into `width` contiguous
/// ranges, one per worker slot, so each worker sweeps its own cache-friendly
/// span front-to-back. A worker whose range runs dry steals from the BACK of
/// the fullest remaining range — back-stealing keeps the owner's front
/// contiguous, and picking the fullest victim balances skewed progress.
/// Each range is a single packed 64-bit atomic (head << 32 | end), so claims
/// and steals are lock-free single-CAS operations on the same word.
class MorselQueue {
 public:
  MorselQueue(size_t num_morsels, size_t width);

  /// Claims the next morsel for worker slot `worker`: the front of its own
  /// range, else the back of the fullest other range. Returns false when the
  /// whole queue is drained. `*stolen` is set to true iff the morsel came
  /// from another worker's range.
  bool Pop(size_t worker, size_t* morsel, bool* stolen);

  size_t width() const { return ranges_.size(); }

 private:
  bool PopFront(size_t r, size_t* morsel);
  bool PopBack(size_t r, size_t* morsel);

  struct alignas(64) Range {  // padded: steals must not thrash owners' lines
    std::atomic<uint64_t> bounds{0};
  };
  std::vector<Range> ranges_;
};

/// A minimal fixed-size thread pool with a blocking "run all and wait" API,
/// which is the only pattern the executor needs.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (minimum 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs tasks 0..n-1 by calling `fn(i)` across the pool and blocks until
  /// all complete. `fn` must be thread-safe across distinct indices.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Runs morsels 0..n-1 through a shared MorselQueue drained by `width`
  /// long-lived worker tasks (NOT one pool task per morsel): worker slot `s`
  /// claims morsels and calls `fn(morsel, s)`, so state indexed by slot is
  /// touched by exactly one thread. `width` should be the session's
  /// num_workers — the pool is shared and grow-only, so num_threads() may
  /// exceed what this query is entitled to.
  ///
  /// Per claimed morsel, in order: `cancel` is checked (a cancelled worker
  /// records the status and stops claiming), then `faults` consults `site`
  /// (a fired fault fails that morsel but the queue keeps draining — parity
  /// with the task-per-morsel dispatcher this replaces), then `fn` runs (a
  /// non-OK result also keeps the queue draining). The first non-OK status
  /// wins. Steals observed on successful claims are added to `*stolen_out`
  /// (when non-null) after all workers finish.
  Status ParallelForMorsels(size_t n, size_t width,
                            const std::function<Status(size_t, size_t)>& fn,
                            FaultInjector* faults, const char* site,
                            const CancellationToken* cancel,
                            int64_t* stolen_out);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  std::condition_variable_any cv_;  ///< waits directly on mu_
  std::queue<std::function<void()>> tasks_ DBSP_GUARDED_BY(mu_);
  bool shutdown_ DBSP_GUARDED_BY(mu_) = false;
};

}  // namespace dbspinner
