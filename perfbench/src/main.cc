// perfbench: the DBSpinner benchmark program. Runs one workload in a single
// process with one client in a closed loop: a round runs each of the
// workload's ops once, in a fixed order, and rounds repeat until the time
// budget is spent. Every op's answer is checked.
//
//   perfbench --workload cte_dblp --seed 0 --seconds 10 --trace 0
//             --out result.json [--spans spans.jsonl] [--source-id ID]
//
// --trace 0 measures end to end with tracing off. --trace 1 alternates
// untraced rounds with traced replays (replay.h) to split the time by
// layer. Raw samples go to --out as JSON; perfbench/run.py turns them into
// the named metrics. Exit code: 0 when every answer matched, 1 when any op
// failed or returned a wrong answer, 2 on a usage or set-up error.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "answers.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dbspinner::Database;
using dbspinner::Result;
using dbspinner::Status;
using dbspinner::TablePtr;

/// Least set-ups per run; setup_s is their median.
constexpr int kSetups = 21;

/// SELECT 1 pairs timed to estimate Database::Execute's own cost per
/// statement (see ExecuteOverhead).
constexpr int kOverheadProbes = 200;

/// Relative tolerance on doubles between a traced op's result and the
/// untraced one: partial aggregates under MPP merge in worker order, so
/// sums may differ in the last bits between two runs.
constexpr double kSameTol = 1e-7;

struct Args {
  std::string workload;
  int64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  std::string out;
  std::string spans;
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) try {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoll(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = std::stoi(value);
    } else if (key == "--out") {
      args->out = value;
    } else if (key == "--spans") {
      args->spans = value;
    } else if (key == "--source-id") {
      args->source_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->out.empty() &&
         args->seconds > 0 && (args->trace == 0 || args->trace == 1);
} catch (const std::logic_error&) {  // a number that does not parse
  return false;
}

// --- JSON output -------------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += Num(values[i]);
  }
  return out + "]";
}

std::string QuotedList(const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += Quote(values[i]);
  }
  return out + "]";
}

/// {"key": value-json, ...} for any map whose values `to_json` renders.
template <typename Map, typename ToJson>
std::string Object(const Map& m, ToJson to_json) {
  std::string out = "{";
  for (const auto& [key, value] : m) {
    if (out.size() > 1) out += ',';
    out += Quote(key);
    out += ':';
    out += to_json(value);
  }
  return out + "}";
}

std::string NumListMap(const std::map<std::string, std::vector<double>>& m) {
  return Object(m, NumList);
}

std::string CountersJson(const Counters& c) { return Object(c, Num); }

// --- measurement records -----------------------------------------------------

/// Lowers each element of `floor` to the matching one of `samples`.
void LowerFloor(const std::vector<double>& samples,
                std::vector<double>* floor) {
  if (floor->empty()) {
    *floor = samples;
    return;
  }
  for (size_t i = 0; i < floor->size() && i < samples.size(); ++i) {
    (*floor)[i] = std::min((*floor)[i], samples[i]);
  }
}

/// Samples of untraced rounds; op keys are metric-ready names ("cte.pr").
struct UntracedSamples {
  std::vector<double> round_ms;
  std::vector<double> round_cpu_ms;
  std::map<std::string, std::vector<double>> op_ms;
  /// Per op, each statement's least wall and CPU time over the rounds.
  std::map<std::string, std::vector<double>> floor_ms;
  std::map<std::string, std::vector<double>> floor_cpu_ms;

  std::string Json() const {
    return "{\"round_ms\":" + NumList(round_ms) +
           ",\"round_cpu_ms\":" + NumList(round_cpu_ms) +
           ",\"op_ms\":" + NumListMap(op_ms) +
           ",\"floor_ms\":" + NumListMap(floor_ms) +
           ",\"floor_cpu_ms\":" + NumListMap(floor_cpu_ms) + "}";
  }
};

struct TracedSamples {
  std::vector<double> round_ms;
  std::map<std::string, std::vector<double>> op_ms;
  std::map<std::string, std::vector<double>> coverage;
  std::vector<Counters> counters;  ///< one per traced round

  std::string Json() const {
    std::string rounds = "[";
    for (size_t i = 0; i < counters.size(); ++i) {
      if (i > 0) rounds += ',';
      rounds += CountersJson(counters[i]);
    }
    return "{\"round_ms\":" + NumList(round_ms) +
           ",\"op_ms\":" + NumListMap(op_ms) +
           ",\"coverage\":" + NumListMap(coverage) +
           ",\"counters\":" + rounds + "]}";
  }
};

/// Counts ops attempted and failed, keeping the first few reasons.
class Gate {
 public:
  void Record(const std::string& what, bool ok, const std::string& why) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (reasons_.size() < 20) reasons_.push_back(what + ": " + why);
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", what.c_str(),
                 why.c_str());
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

class Runner {
 public:
  Runner(Database* db, std::vector<Op> ops, Gate* gate)
      : db_(db), ops_(std::move(ops)), gate_(gate) {}

  /// One untraced round; records into `samples` when non-null. Returns each
  /// op's output (null when it failed) for traced-vs-untraced comparison.
  std::vector<TablePtr> UntracedRound(const std::string& prefix,
                                      UntracedSamples* samples) {
    std::vector<Result<UntracedOp>> results;
    results.reserve(ops_.size());
    const double cpu_before = CpuMs();
    const int64_t start = NowNs();
    for (const Op& op : ops_) results.push_back(RunUntraced(db_, op));
    const double round_ms = static_cast<double>(NowNs() - start) / 1e6;
    const double cpu_ms = CpuMs() - cpu_before;

    std::vector<TablePtr> tables;
    for (size_t i = 0; i < ops_.size(); ++i) {
      const std::string key = prefix + "." + ops_[i].name;
      tables.push_back(Check(ops_[i], key, results[i].status(),
                             results[i].ok() ? results[i]->table : nullptr));
      if (samples != nullptr && results[i].ok()) {
        samples->op_ms[key].push_back(results[i]->ms);
        LowerFloor(results[i]->statement_ms, &samples->floor_ms[key]);
        LowerFloor(results[i]->statement_cpu_ms, &samples->floor_cpu_ms[key]);
      }
    }
    if (samples != nullptr) {
      samples->round_ms.push_back(round_ms);
      samples->round_cpu_ms.push_back(cpu_ms);
    }
    return tables;
  }

  /// One traced round; each op's output must also equal `untraced[i]`.
  void TracedRound(const std::string& prefix, const ReplayConfig& config,
                   const std::vector<TablePtr>& untraced, Tracer* tracer,
                   int round, TracedSamples* samples) {
    Counters counters;
    double round_ms = 0;
    for (size_t i = 0; i < ops_.size(); ++i) {
      const std::string key = prefix + "." + ops_[i].name;
      tracer->SetContext(static_cast<int>(op_ids_.size()), round);
      op_ids_.push_back(key);
      Result<TracedOp> traced =
          RunTraced(db_, ops_[i], config, tracer, &counters);
      TablePtr table = Check(ops_[i], key + " (traced)", traced.status(),
                             traced.ok() ? traced->table : nullptr);
      if (table == nullptr) continue;
      std::string why;
      gate_->Record(key + " (traced vs untraced)",
                    untraced[i] != nullptr &&
                        SameResult(*table, *untraced[i], kSameTol,
                                   &why),
                    why.empty() ? "untraced run failed" : why);
      round_ms += traced->ms;
      if (samples != nullptr) {
        samples->op_ms[key].push_back(traced->ms);
        samples->coverage[key].push_back(tracer->Coverage(traced->root_span));
      }
    }
    if (samples != nullptr) {
      samples->round_ms.push_back(round_ms);
      samples->counters.push_back(std::move(counters));
    }
  }

  const std::vector<Op>& ops() const { return ops_; }
  /// Op key of each traced op, indexed by the span's `op`.
  const std::vector<std::string>& op_ids() const { return op_ids_; }

 private:
  /// Gates one op's output against its reference; returns the output when
  /// it matched, else null.
  TablePtr Check(const Op& op, const std::string& what, const Status& status,
                 const TablePtr& table) {
    if (!status.ok()) {
      gate_->Record(what, false, status.ToString());
      return nullptr;
    }
    std::string why = "no result";
    const bool ok = table != nullptr && op.check(*table, &why);
    gate_->Record(what, ok, why);
    return ok ? table : nullptr;
  }

  Database* db_;
  std::vector<Op> ops_;
  Gate* gate_;
  std::vector<std::string> op_ids_;
};

// --- provenance --------------------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

std::string ProvenanceJson(const Args& args, const Workload& w,
                           const Database& db) {
  double load[1] = {-1};
  getloadavg(load, 1);
  return "{\"seed\":" + std::to_string(args.seed) +
         ",\"graph\":" + Quote(w.graph_label) +
         ",\"graph_nodes\":" + std::to_string(w.spec.num_nodes) +
         ",\"graph_edges\":" + std::to_string(w.spec.num_edges) +
         ",\"graph_seed\":" + std::to_string(w.spec.seed) +
         ",\"status_seed\":" + std::to_string(w.status_seed) +
         ",\"options\":" + Quote(db.options().ToString()) +
         ",\"source_id\":" + Quote(args.source_id) +
         ",\"build_type\":" + Quote(PERFBENCH_BUILD_TYPE) +
         ",\"cxx_flags\":" + Quote(PERFBENCH_CXX_FLAGS) +
         ",\"compiler\":" + Quote(__VERSION__) +
         ",\"cpu_model\":" + Quote(CpuModel()) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"loadavg_1m\":" + Num(load[0]) + "}";
}

bool WriteSpans(const std::string& path, const Tracer& tracer,
                const std::vector<std::string>& op_ids, int64_t origin_ns) {
  std::ofstream out(path);
  const auto& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"op\":" << Quote(op_ids[static_cast<size_t>(s.op)])
        << ",\"round\":" << s.round << ",\"name\":" << Quote(s.FullName())
        << ",\"start_us\":"
        << Num(static_cast<double>(s.start_ns - origin_ns) / 1e3)
        << ",\"end_us\":"
        << Num(static_cast<double>(s.end_ns - origin_ns) / 1e3) << "}\n";
  }
  return static_cast<bool>(out);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Database::Execute's own cost per statement beyond the phases the replay
/// times (option checks, snapshot pin, view lookup, context set-up), in
/// microseconds: SELECT 1 through Execute against its traced replay, where
/// the phases take a few microseconds, so the difference is not lost in the
/// run-to-run noise of long statements. Spans of the probes are not kept.
double ExecuteOverhead(Database* db, const ReplayConfig& config) {
  Op probe;
  probe.name = "select_1";
  probe.statements = {"SELECT 1"};
  Tracer tracer;
  Counters ignored;
  std::vector<double> execute_us;
  std::vector<double> replay_us;
  for (int i = 0; i < kOverheadProbes; ++i) {
    Result<UntracedOp> untraced = RunUntraced(db, probe);
    Result<TracedOp> traced = RunTraced(db, probe, config, &tracer, &ignored);
    if (!untraced.ok() || !traced.ok()) return 0;
    execute_us.push_back(untraced->ms * 1e3);
    replay_us.push_back(traced->ms * 1e3);
  }
  return Median(execute_us) - Median(replay_us);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --out FILE [--spans FILE] [--source-id ID]\n");
    return 2;
  }
  Result<Workload> made = MakeWorkload(args.workload, args.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", made.status().ToString().c_str());
    return 2;
  }
  const Workload& workload = *made;

  // Set-up: generate the graph and load a fresh Database. The first load is
  // the one the rounds run on. Set-up takes milliseconds, so one set-up is
  // timed before every round as well (and the rest of kSetups after the
  // last): spread over the run, host noise cannot decide setup_s with one
  // short burst.
  std::vector<double> setup_s;
  auto set_up = [&](Loaded* into) {
    *into = Loaded{};
    const int64_t start = NowNs();
    Status st = Load(workload, into);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   st.ToString().c_str());
    }
    return st.ok();
  };
  auto set_up_again = [&] {
    Loaded discarded;
    return set_up(&discarded);
  };
  Loaded loaded;
  if (!set_up(&loaded)) return 2;
  Database* db = loaded.db.get();
  const std::string provenance = ProvenanceJson(args, workload, *db);

  // References, outside the set-up time and the timed rounds.
  Result<std::vector<Op>> ops = MakeOps(workload, loaded);
  if (!ops.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", ops.status().ToString().c_str());
    return 2;
  }
  std::vector<std::string> op_names;
  for (const Op& op : *ops) {
    op_names.push_back(workload.op_prefix + "." + op.name);
  }

  Gate gate;
  Runner runner(db, std::move(ops).value(), &gate);
  const std::string& prefix = workload.op_prefix;

  // Scaling view: the width-4 workload also replays its ops at width 1 in
  // the traced run.
  const bool scaling = args.trace == 1 && workload.options.num_workers > 1;
  std::unique_ptr<dbspinner::ThreadPool> pool;
  ReplayConfig config;
  config.options = db->options();
  if (args.trace == 1 && config.options.num_workers > 1) {
    pool = std::make_unique<dbspinner::ThreadPool>(config.options.num_workers);
    config.pool = pool.get();
  }
  ReplayConfig serial;
  serial.options = db->options();
  serial.options.num_workers = 1;
  auto untraced_at_width_1 = [&](UntracedSamples* samples) {
    db->options().num_workers = 1;
    std::vector<TablePtr> tables = runner.UntracedRound("w1", samples);
    db->options().num_workers = workload.options.num_workers;
    return tables;
  };

  UntracedSamples untraced;
  TracedSamples traced;
  UntracedSamples untraced_w1;
  TracedSamples traced_w1;
  Tracer tracer;
  const int64_t origin = NowNs();

  // Warm-up round(s), checked but not recorded.
  std::vector<TablePtr> warm = runner.UntracedRound(prefix, nullptr);
  if (args.trace == 1) {
    runner.TracedRound(prefix, config, warm, &tracer, -1, nullptr);
    if (scaling) {
      runner.TracedRound("w1", serial, untraced_at_width_1(nullptr), &tracer,
                         -1, nullptr);
    }
  }

  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  int round = 0;
  do {
    if (!set_up_again()) return 2;
    std::vector<TablePtr> tables = runner.UntracedRound(prefix, &untraced);
    if (args.trace == 1) {
      runner.TracedRound(prefix, config, tables, &tracer, round, &traced);
      if (scaling) {
        runner.TracedRound("w1", serial, untraced_at_width_1(&untraced_w1),
                           &tracer, round, &traced_w1);
      }
    }
    ++round;
  } while (NowNs() < deadline);
  while (setup_s.size() < kSetups) {
    if (!set_up_again()) return 2;
  }
  std::fprintf(stderr, "perfbench: %s set up in %.4f s (median of %zu)\n",
               workload.name.c_str(), Median(setup_s), setup_s.size());

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::string json = "{\"workload\":" + Quote(workload.name) +
                     ",\"trace\":" + std::to_string(args.trace) +
                     ",\"seconds\":" + Num(args.seconds) +
                     ",\"provenance\":" + provenance +
                     ",\"ops\":" + QuotedList(op_names) +
                     ",\"setup_s\":" + NumList(setup_s) +
                     ",\"attempted\":" + std::to_string(gate.attempted()) +
                     ",\"failed\":" + std::to_string(gate.failed()) +
                     ",\"failures\":" + QuotedList(gate.reasons()) +
                     ",\"peak_rss_kb\":" + std::to_string(ru.ru_maxrss) +
                     ",\"untraced\":" + untraced.Json();
  if (args.trace == 1) {
    size_t statements = 0;
    for (const Op& op : runner.ops()) statements += op.statements.size();
    json += ",\"statements_per_round\":" + std::to_string(statements) +
            ",\"execute_overhead_us\":" + Num(ExecuteOverhead(db, config)) +
            ",\"traced\":" + traced.Json();
    if (scaling) {
      json += ",\"w1\":{\"untraced\":" + untraced_w1.Json() +
              ",\"traced\":" + traced_w1.Json() + "}";
    }
  }
  json += "}\n";
  std::ofstream out(args.out);
  out << json;
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
    return 2;
  }
  if (args.trace == 1 && !args.spans.empty()) {
    if (!WriteSpans(args.spans, tracer, runner.op_ids(), origin)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans.c_str());
      return 2;
    }
  }
  return gate.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
