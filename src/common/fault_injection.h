// Deterministic fault injection for the MPP and executor layers.
//
// A FaultInjector is consulted at named injection points
// ("exec.distinct.shuffle", "exec.materialize", "exec.pipeline.morsel",
// ...). Whether the Nth hit of a site fires is a pure function of (seed,
// site, N), so a fixed seed reproduces the same fault schedule even when
// hits race across pool threads: threads may claim hit indices in any
// order, but the set of indices that fault — and therefore the number of
// faults each site sees — is fixed by the seed.
//
// Injected faults are typed: most are Status::Unavailable (a transient loss —
// retrying the step is enough), a configurable fraction are
// Status::WorkerLost (a simulated node death — only a checkpoint restore
// recovers). The program executor's fault-tolerance layer (see
// exec/program_executor.cc) reacts to exactly these two codes and never to
// genuine query errors.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace dbspinner {

/// Schedule of one injector. A value-type so EngineOptions can embed it.
struct FaultInjectionConfig {
  bool enabled = false;     ///< master toggle; off => MaybeInject is a no-op
  uint64_t seed = 1;        ///< drives the deterministic schedule
  double rate = 0.0;        ///< per-hit fault probability in [0, 1]
  int64_t max_faults = -1;  ///< total faults to inject; -1 = unlimited

  /// When non-empty, only sites whose name contains this substring fault
  /// (e.g. "shuffle" restricts the schedule to DISTINCT's shuffle).
  std::string site_filter;

  /// Fraction of injected faults that are kWorkerLost instead of the
  /// retryable kUnavailable (decided deterministically per fault).
  double worker_lost_fraction = 0.0;

  /// When non-empty, the process SIGKILLs itself on arrival at this exact
  /// site — a genuine crash, not a recoverable Status. Used by the
  /// out-of-process durability harness to kill a child at WAL-append /
  /// extent-flush / manifest-swap boundaries. `abort_after_hits` selects
  /// which arrival dies: N means the site completes N times and the process
  /// dies entering arrival N+1 (0 = die on the first arrival).
  std::string abort_site;
  int64_t abort_after_hits = 0;

  bool operator==(const FaultInjectionConfig& o) const {
    return enabled == o.enabled && seed == o.seed && rate == o.rate &&
           max_faults == o.max_faults && site_filter == o.site_filter &&
           worker_lost_fraction == o.worker_lost_fraction &&
           abort_site == o.abort_site && abort_after_hits == o.abort_after_hits;
  }
  bool operator!=(const FaultInjectionConfig& o) const {
    return !(*this == o);
  }
};

/// Seeded, thread-safe fault source. One per Database; reset between runs
/// when a reproducible per-query schedule is needed.
class FaultInjector {
 public:
  explicit FaultInjector(FaultInjectionConfig config);

  /// Consults the schedule at injection point `site`. Returns OK when no
  /// fault fires; otherwise a kUnavailable or kWorkerLost Status naming the
  /// site and hit index. Thread-safe.
  Status MaybeInject(const char* site);

  /// Pure decision function: does the `hit`th arrival at `site` fault under
  /// `config`? Exposed so tests can verify schedule determinism without
  /// driving a live injector. Ignores max_faults (a global, order-dependent
  /// cap) and the enabled toggle.
  static bool WouldFault(const FaultInjectionConfig& config,
                         const std::string& site, int64_t hit);

  /// As WouldFault, but true when that fault is a kWorkerLost.
  static bool WouldLoseWorker(const FaultInjectionConfig& config,
                              const std::string& site, int64_t hit);

  // --- counters (thread-safe) ----------------------------------------------
  int64_t total_hits() const;
  int64_t total_faults() const;
  int64_t site_hits(const std::string& site) const;
  int64_t site_faults(const std::string& site) const;

  /// All sites seen so far with their hit/fault counts, sorted by name.
  struct SiteReport {
    std::string site;
    int64_t hits = 0;
    int64_t faults = 0;
  };
  std::vector<SiteReport> Report() const;

  /// Clears counters and restarts the schedule from hit 0 at every site.
  void Reset();

  const FaultInjectionConfig& config() const { return config_; }

 private:
  struct SiteState {
    int64_t hits = 0;
    int64_t faults = 0;
  };

  FaultInjectionConfig config_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, SiteState> sites_;
  int64_t total_hits_ = 0;
  int64_t total_faults_ = 0;
};

/// Convenience for call sites holding a possibly-null injector.
inline Status MaybeInjectFault(FaultInjector* faults, const char* site) {
  if (faults == nullptr) return Status::OK();
  return faults->MaybeInject(site);
}

}  // namespace dbspinner
