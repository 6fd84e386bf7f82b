// fuzz_sql: differential SQL fuzzer for dbspinner.
//
// Generates deterministic random queries (plain SELECT pipelines, iterative
// and recursive CTEs, canonical workloads) over generated graph schemas and
// runs each under the full oracle matrix (per-optimization toggles, MPP
// widths, procedure lowering, reference algorithms). Any disagreement is
// minimized and printed as a ready-to-paste gtest regression test. Each
// case's tables also feed the expression oracle (testing/expr_oracle.h):
// random expressions, vectorized against row-wise evaluation.
//
//   fuzz_sql --seed 1 --iterations 500
//   fuzz_sql --seed 7 --time-budget 60
//   fuzz_sql --seed 1 --iterations 50 --break-rename   # must find the bug
//
// Exit code: 0 = no mismatch found, 1 = mismatch (repro printed), 2 = usage.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "testing/differential.h"
#include "testing/expr_oracle.h"
#include "testing/minimizer.h"
#include "testing/query_generator.h"

namespace {

using dbspinner::fuzz::DifferentialOptions;
using dbspinner::fuzz::DiffReport;
using dbspinner::fuzz::FuzzCase;
using dbspinner::fuzz::MinimizeResult;

struct CliOptions {
  uint64_t seed = 1;
  int64_t iterations = 200;
  int64_t time_budget_s = 0;  ///< 0 = no time limit
  bool break_rename = false;
  bool faults = false;  ///< add recover-vs-clean oracles per case
  double fault_rate = 0.1;
  /// Extra morsel-size oracles per case (--morsel-sizes 1,16,1024).
  std::vector<size_t> morsel_sizes;
  /// Worker widths crossed with the morsel sweep (--morsel-workers 1,2,8):
  /// widths above 1 run the morsel oracles through the fused-parallel
  /// stealing dispatcher.
  std::vector<int> morsel_workers = {1};
  bool verify = true;  ///< enforce the static plan/program verifier
  bool verbose = false;
  /// Concurrent differential mode: run each case on N server sessions
  /// racing over one shared Database, checked against a serial replay.
  /// 0 = off (classic single-session oracle matrix).
  int64_t sessions = 0;
  /// Disk-backed oracles: per case, load into a persistent database under
  /// a scratch directory, reopen it (recovery path) and diff the query run
  /// on recovered tables against the in-memory baseline, at widths 1/2/8.
  bool persistence = false;
  /// Incremental-view differential mode: per case, register the canonical
  /// materialized-view panel, replay a seed-derived mutation schedule, and
  /// after every mutation check each view (read at widths 1/2/8) against
  /// its defining query re-executed from scratch. Composes with --faults.
  bool ivm = false;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--iterations N] [--time-budget SECONDS]"
               " [--break-rename] [--faults] [--fault-rate R]"
               " [--morsel-sizes N,N,...] [--morsel-workers N,N,...]"
               " [--sessions N] [--persistence] [--ivm]"
               " [--verify|--no-verify] [--verbose]\n",
               argv0);
}

bool ParseInt(const char* s, int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(s, &end, 10);
  return end != s && *end == '\0';
}

bool ParseArgs(int argc, char** argv, CliOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next_int = [&](int64_t* out) {
      return i + 1 < argc && ParseInt(argv[++i], out);
    };
    int64_t v = 0;
    if (arg == "--seed") {
      if (!next_int(&v)) return false;
      opts->seed = static_cast<uint64_t>(v);
    } else if (arg == "--iterations") {
      if (!next_int(&v) || v < 0) return false;
      opts->iterations = v;
    } else if (arg == "--time-budget") {
      if (!next_int(&v) || v < 0) return false;
      opts->time_budget_s = v;
    } else if (arg == "--break-rename") {
      opts->break_rename = true;
    } else if (arg == "--faults") {
      opts->faults = true;
    } else if (arg == "--fault-rate") {
      if (i + 1 >= argc) return false;
      char* end = nullptr;
      opts->fault_rate = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || opts->fault_rate < 0 ||
          opts->fault_rate > 1) {
        return false;
      }
      opts->faults = true;
    } else if (arg == "--morsel-sizes") {
      if (i + 1 >= argc) return false;
      const char* list = argv[++i];
      opts->morsel_sizes.clear();
      for (const char* pos = list; *pos != '\0';) {
        char* end = nullptr;
        long long n = std::strtoll(pos, &end, 10);
        if (end == pos || n < 1) return false;
        opts->morsel_sizes.push_back(static_cast<size_t>(n));
        pos = (*end == ',') ? end + 1 : end;
        if (*end != ',' && *end != '\0') return false;
      }
      if (opts->morsel_sizes.empty()) return false;
    } else if (arg == "--morsel-workers") {
      if (i + 1 >= argc) return false;
      const char* list = argv[++i];
      opts->morsel_workers.clear();
      for (const char* pos = list; *pos != '\0';) {
        char* end = nullptr;
        long long n = std::strtoll(pos, &end, 10);
        if (end == pos || n < 1 || n > 64) return false;
        opts->morsel_workers.push_back(static_cast<int>(n));
        pos = (*end == ',') ? end + 1 : end;
        if (*end != ',' && *end != '\0') return false;
      }
      if (opts->morsel_workers.empty()) return false;
    } else if (arg == "--sessions") {
      if (!next_int(&v) || v < 1 || v > 64) return false;
      opts->sessions = v;
    } else if (arg == "--persistence") {
      opts->persistence = true;
    } else if (arg == "--ivm") {
      opts->ivm = true;
    } else if (arg == "--verify") {
      opts->verify = true;
    } else if (arg == "--no-verify") {
      opts->verify = false;
    } else if (arg == "--verbose") {
      opts->verbose = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Random expressions the expression oracle checks per table per case.
constexpr int kExprTreesPerTable = 8;

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    Usage(argv[0]);
    return 2;
  }

  DifferentialOptions diff_opts;
  diff_opts.break_rename = cli.break_rename;
  diff_opts.verify = cli.verify;
  diff_opts.morsel_sizes = cli.morsel_sizes;
  diff_opts.morsel_workers = cli.morsel_workers;
  if (cli.persistence) {
    // Per-process scratch directory so parallel ctest invocations of this
    // binary never share a database path.
    diff_opts.persistence_dir =
        "fuzz_sql_persist_" + std::to_string(static_cast<long long>(cli.seed));
  }

  dbspinner::fuzz::QueryGenerator generator(cli.seed);
  std::map<std::string, int64_t> family_counts;
  int64_t executed = 0;
  int64_t rejected = 0;  // user-level rejections (consistent across oracles)
  int64_t morsels_stolen = 0;  // across all oracles, sanity-checks stealing
  // IVM-mode totals: a --ivm sweep with ivm_deltas == 0 never exercised the
  // incremental maintenance paths it exists to check.
  int64_t ivm_deltas = 0;
  int64_t ivm_fulls = 0;
  int64_t ivm_fallbacks = 0;

  const auto start = std::chrono::steady_clock::now();
  auto out_of_time = [&] {
    if (cli.time_budget_s <= 0) return false;
    return std::chrono::steady_clock::now() - start >=
           std::chrono::seconds(cli.time_budget_s);
  };

  std::printf("fuzz_sql: seed=%llu iterations=%lld time-budget=%llds%s%s%s\n",
              static_cast<unsigned long long>(cli.seed),
              static_cast<long long>(cli.iterations),
              static_cast<long long>(cli.time_budget_s),
              cli.break_rename ? " [break-rename fault injection]" : "",
              cli.faults ? " [recover-vs-clean fault oracles]" : "",
              cli.verify ? " [verifier enforced]" : " [verifier off]");
  if (cli.persistence) {
    std::printf("persistence mode: disk-backed reopen oracles at widths "
                "1/2/8 (dir %s)\n", diff_opts.persistence_dir.c_str());
  }
  if (cli.sessions > 0) {
    std::printf("concurrent mode: %lld sessions per case vs serial replay\n",
                static_cast<long long>(cli.sessions));
  }
  if (cli.ivm) {
    std::printf("ivm mode: per-case mutation schedule, every view checked "
                "against its defining query at widths 1/2/8\n");
  }

  for (int64_t i = 0; i < cli.iterations && !out_of_time(); ++i) {
    FuzzCase c = generator.NextCase();
    ++family_counts[dbspinner::fuzz::FamilyName(c.query.family)];
    if (cli.faults) {
      // Per-case fault schedule, derived deterministically from the sweep
      // seed and case index so any mismatch reproduces from the CLI line.
      diff_opts.fault_rate = cli.fault_rate;
      diff_opts.fault_seed = cli.seed * 1000003u + static_cast<uint64_t>(i);
      // Alternate between transient-only and mixed worker-loss schedules so
      // both the retry and the checkpoint-restore paths are exercised.
      diff_opts.worker_lost_fraction = (i % 2 == 0) ? 0.0 : 0.3;
    }
    if (cli.verbose) {
      std::printf("[%lld] %s\n", static_cast<long long>(i),
                  c.Label().c_str());
    }
    // The expression oracle draws from a stream of its own, so the cases
    // above stay what they were without it.
    std::string expr_diff =
        dbspinner::fuzz::CheckExprOracleOnCase(c, kExprTreesPerTable);
    if (!expr_diff.empty()) {
      std::printf("\n=== EXPRESSION ORACLE MISMATCH (case %lld) ===\n%s\n%s\n",
                  static_cast<long long>(i), c.Label().c_str(),
                  expr_diff.c_str());
      return 1;
    }
    DiffReport report =
        cli.ivm ? dbspinner::fuzz::RunIvmDifferential(c, diff_opts)
        : cli.sessions > 0
            ? dbspinner::fuzz::RunConcurrentSessions(
                  c, static_cast<int>(cli.sessions), diff_opts)
            : dbspinner::fuzz::RunDifferential(c, diff_opts);
    ++executed;
    for (const auto& o : report.outcomes) {
      morsels_stolen += o.stats.morsels_stolen;
      ivm_deltas += o.stats.ivm_deltas_applied;
      ivm_fulls += o.stats.ivm_full_refreshes;
      ivm_fallbacks += o.stats.ivm_fallbacks;
    }
    if (report.ok) {
      if (!report.outcomes.empty() && !report.outcomes[0].status.ok()) {
        ++rejected;
      }
      continue;
    }

    std::printf("\n=== ORACLE MISMATCH (case %lld) ===\n%s\n",
                static_cast<long long>(i), report.Describe(c).c_str());
    if (cli.sessions > 0 || cli.ivm) {
      // Concurrent and IVM mismatches are not QuerySpec shrinks (thread
      // schedules / mutation scripts), so the minimizer's shrink loop does
      // not apply. The case label + seed is the repro line; IVM reports
      // embed the full replayable statement script.
      return 1;
    }
    std::printf("minimizing...\n");
    MinimizeResult m = dbspinner::fuzz::Minimize(c, diff_opts);
    std::printf(
        "minimized after %d candidate runs (%d shrinks applied):\n%s\n",
        m.candidates_tried, m.shrinks_applied,
        m.report.Describe(m.minimized).c_str());
    std::printf("--- ready-to-paste regression test ---\n%s",
                dbspinner::fuzz::EmitGtestRepro(m.minimized, m.report)
                    .c_str());
    return 1;
  }

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("ran %lld cases in %.1fs (%lld user-level rejections), "
              "0 oracle mismatches, %lld morsels stolen\n",
              static_cast<long long>(executed), elapsed,
              static_cast<long long>(rejected),
              static_cast<long long>(morsels_stolen));
  if (cli.ivm) {
    std::printf("ivm maintenance: %lld incremental deltas, %lld full "
                "refreshes, %lld fallback recomputes\n",
                static_cast<long long>(ivm_deltas),
                static_cast<long long>(ivm_fulls),
                static_cast<long long>(ivm_fallbacks));
  }
  for (const auto& [family, count] : family_counts) {
    std::printf("  %-16s %lld\n", family.c_str(),
                static_cast<long long>(count));
  }
  return 0;
}
