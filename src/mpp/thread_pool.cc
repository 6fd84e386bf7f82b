#include "mpp/thread_pool.h"

#include <atomic>

#include "common/fault_injection.h"

namespace dbspinner {

namespace {

constexpr uint64_t kHeadShift = 32;
constexpr uint64_t kEndMask = 0xffffffffu;

uint64_t PackRange(uint32_t head, uint32_t end) {
  return (static_cast<uint64_t>(head) << kHeadShift) | end;
}

}  // namespace

MorselQueue::MorselQueue(size_t num_morsels, size_t width) {
  if (width < 1) width = 1;
  if (width > num_morsels && num_morsels > 0) width = num_morsels;
  ranges_ = std::vector<Range>(width);
  // Split [0, n) into `width` contiguous spans, the first n % width spans one
  // morsel longer, so no worker starts more than one morsel behind.
  size_t base = num_morsels / width;
  size_t rem = num_morsels % width;
  size_t begin = 0;
  for (size_t r = 0; r < width; ++r) {
    size_t len = base + (r < rem ? 1 : 0);
    ranges_[r].bounds.store(PackRange(static_cast<uint32_t>(begin),
                                      static_cast<uint32_t>(begin + len)),
                            std::memory_order_relaxed);
    begin += len;
  }
}

bool MorselQueue::PopFront(size_t r, size_t* morsel) {
  uint64_t cur = ranges_[r].bounds.load(std::memory_order_relaxed);
  while (true) {
    uint32_t head = static_cast<uint32_t>(cur >> kHeadShift);
    uint32_t end = static_cast<uint32_t>(cur & kEndMask);
    if (head >= end) return false;
    if (ranges_[r].bounds.compare_exchange_weak(cur, PackRange(head + 1, end),
                                                std::memory_order_acq_rel)) {
      *morsel = head;
      return true;
    }
  }
}

bool MorselQueue::PopBack(size_t r, size_t* morsel) {
  uint64_t cur = ranges_[r].bounds.load(std::memory_order_relaxed);
  while (true) {
    uint32_t head = static_cast<uint32_t>(cur >> kHeadShift);
    uint32_t end = static_cast<uint32_t>(cur & kEndMask);
    if (head >= end) return false;
    if (ranges_[r].bounds.compare_exchange_weak(cur, PackRange(head, end - 1),
                                                std::memory_order_acq_rel)) {
      *morsel = end - 1;
      return true;
    }
  }
}

bool MorselQueue::Pop(size_t worker, size_t* morsel, bool* stolen) {
  size_t own = worker % ranges_.size();
  if (PopFront(own, morsel)) {
    *stolen = false;
    return true;
  }
  // Own range drained: steal from the back of the fullest remaining range.
  // A lost race (victim drained between the scan and the CAS) just rescans.
  while (true) {
    size_t best = ranges_.size();
    uint32_t best_len = 0;
    for (size_t r = 0; r < ranges_.size(); ++r) {
      if (r == own) continue;
      uint64_t cur = ranges_[r].bounds.load(std::memory_order_relaxed);
      uint32_t head = static_cast<uint32_t>(cur >> kHeadShift);
      uint32_t end = static_cast<uint32_t>(cur & kEndMask);
      uint32_t len = end > head ? end - head : 0;
      if (len > best_len) {
        best_len = len;
        best = r;
      }
    }
    if (best == ranges_.size()) return false;
    if (PopBack(best, morsel)) {
      *stolen = true;
      return true;
    }
  }
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      cv_.wait(mu_, [this] { return shutdown_ || !tasks_.empty(); });
      if (shutdown_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || workers_.size() <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> remaining{n};
  std::mutex done_mu;
  std::condition_variable done_cv;
  {
    MutexLock lock(mu_);
    for (size_t i = 0; i < n; ++i) {
      tasks_.push([&, i] {
        fn(i);
        // The decrement must happen under done_mu: if it preceded the lock,
        // the waiter could observe remaining == 0 via a spurious wakeup and
        // destroy done_mu/done_cv (they live on the waiter's stack) while
        // this thread is still about to lock them.
        std::lock_guard<std::mutex> dl(done_mu);
        if (remaining.fetch_sub(1) == 1) done_cv.notify_all();
      });
    }
  }
  cv_.notify_all();
  std::unique_lock<std::mutex> dl(done_mu);
  done_cv.wait(dl, [&] { return remaining.load() == 0; });
}

Status ThreadPool::ParallelForMorsels(
    size_t n, size_t width, const std::function<Status(size_t, size_t)>& fn,
    FaultInjector* faults, const char* site, const CancellationToken* cancel,
    int64_t* stolen_out) {
  if (n == 0) return Status::OK();
  MorselQueue queue(n, width);
  width = queue.width();

  std::mutex status_mu;
  Status first_error = Status::OK();
  std::atomic<int64_t> stolen_total{0};
  auto record = [&](Status s) {
    std::lock_guard<std::mutex> lock(status_mu);
    if (first_error.ok()) first_error = std::move(s);
  };

  ParallelFor(width, [&](size_t slot) {
    size_t morsel = 0;
    bool stolen = false;
    int64_t stolen_local = 0;
    while (queue.Pop(slot, &morsel, &stolen)) {
      if (stolen) ++stolen_local;
      if (cancel != nullptr) {
        Status c = cancel->Check();
        if (!c.ok()) {
          // Cancelled: this worker stops claiming. Peers observe the same
          // token on their next claim, so the queue winds down promptly
          // without abandoning a morsel mid-kernel.
          record(std::move(c));
          break;
        }
      }
      if (faults != nullptr) {
        Status f = faults->MaybeInject(site);
        if (!f.ok()) {
          // Fault fails this morsel but the queue keeps draining — the same
          // run-to-completion semantics as the task-per-morsel dispatcher.
          record(std::move(f));
          continue;
        }
      }
      Status s = fn(morsel, slot);
      if (!s.ok()) record(std::move(s));
    }
    if (stolen_local > 0) {
      stolen_total.fetch_add(stolen_local, std::memory_order_relaxed);
    }
  });

  if (stolen_out != nullptr) *stolen_out += stolen_total.load();
  return first_error;
}

}  // namespace dbspinner
