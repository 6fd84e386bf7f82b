#!/usr/bin/env python3
"""The DBSpinner benchmark: builds the engine and the perfbench binary from source,
runs one workload, checks every answer and prints its metrics.

    python3 perfbench/run.py --workload cte_dblp --seed 0 --seconds 10 \
        --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Run it from the root of a checkout. The build goes to .bench_build/ (Release).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from a
traced replay. Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. `--workload all` runs every workload in turn and adds two derived
views: Fig 11 (iterative CTE against stored procedure, per algorithm) and the
MPP scaling gap (width 1 against width 4).

Exit status: 0 when every answer matched; 1 when an op failed or returned a
wrong answer (the JSON line is still printed); 2 when the build or the run
failed (no JSON line).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170

WORKLOADS = ["cte_dblp", "proc_dblp", "sql_ops", "cte_pokec_w4"]

# Name and unit of every end-to-end metric (--trace 0). On a shared host,
# neighbours slow whole stretches of a run by up to half, often for most of
# a run, so the bounded round times are floors: the sum over a round's
# statements of each statement's least time in the run. A floor needs each
# statement to run once in a quiet moment, not a whole round. Over ten seeds
# on a 4-vCPU VM the floors' quartile spread was 0.06-0.14 of the median,
# where the 10th-percentile round had spread by 0.4 on proc_dblp; the
# percentiles are printed unbounded.
END_TO_END = [
    ("setup_s", "s"),
    ("round_ms.floor", "ms"),
    ("cpu_ms_per_round.floor", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
]
INFORMATIVE = [
    ("round_ms.p10", "ms"),
    ("round_ms.p50", "ms"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("cpu_ms_per_round.p10", "ms"),
    ("cpu_ms_per_round.p50", "ms"),
    ("failed_frac", "frac"),
]

OPTIMIZER_RULES = ["constant_folding", "join_simplification",
                   "predicate_pushdown", "cte_predicate_pushdown",
                   "common_result", "delta_iteration"]
DML_KINDS = ["create", "drop", "insert", "delete", "update", "select"]
STEP_BUCKETS = ["r0", "ri", "hoisted", "final", "rename", "merge_update",
                "compute_delta", "loop_check"]
EXEC_COUNTERS = ["loop_iterations", "rows_materialized", "merge_updates",
                 "delta_rows", "delta_probe_rows", "build_cache_hits",
                 "pipeline_rows_in", "pipeline_rows_out",
                 "morsels_dispatched", "agg_rows_preaggregated"]
# Per-op metric names, "<workload prefix>.<op>"; w1.* are the width-4
# workload's ops replayed at width 1.
OPS = (["cte." + o for o in ["pr", "pr_vs", "sssp", "sssp_vs", "ff"]] +
       ["proc." + o for o in ["pr_vs", "sssp_vs", "ff"]] +
       ["sql." + o for o in ["filter_gt", "filter_not", "filter_mod",
                             "filter_in", "case_project", "hash_join",
                             "group_by", "distinct", "order_by",
                             "select_1"]] +
       ["w4.pr_vs", "w4.sssp_vs", "w1.pr_vs", "w1.sssp_vs"])

# Name and unit of every per-layer metric (--trace 1). Values are per round
# (median over traced rounds) unless the name ends in _frac, util or speedup.
PER_LAYER = (
    [("parser.parse_us", "us"), ("rewrite.build_us", "us"),
     ("rewrite.steps", "count")] +
    [("optimizer.%s_us" % r, "us") for r in OPTIMIZER_RULES] +
    [("verify.us", "us"), ("verify.calls", "count"),
     ("engine.overhead_us", "us")] +
    [("engine.dml.%s_us" % k, "us") for k in DML_KINDS] +
    [("engine.op.%s_ms" % o, "ms") for o in OPS] +
    [("exec.compile_us", "us"), ("exec.run_ms", "ms")] +
    [("exec.step.%s_ms" % b, "ms") for b in STEP_BUCKETS] +
    [("exec.pipeline_ms", "ms"), ("exec.breaker_ms", "ms")] +
    [("exec." + c, "count") for c in EXEC_COUNTERS] +
    [("exec.delta_frontier_frac", "frac")] +
    [("expr.kernel_rows_%s" % k, "count")
     for k in ["filter", "project", "probe"]] +
    [("expr.kernel_coverage_frac", "frac"), ("mpp.rows_shuffled", "count"),
     ("mpp.morsels_stolen", "count"), ("mpp.agg_partials_merged", "count"),
     ("mpp.cpu_util", "frac"), ("mpp.speedup", "ratio"),
     ("trace.coverage_frac", "frac"), ("trace.overhead_frac", "frac")])

FIG11 = [("PR-VS", "pr_vs"), ("SSSP-VS", "sssp_vs"), ("FF 50%", "ff")]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """Identity of the engine sources: a hash of src/ and the build files,
    plus the git commit when the checkout is a git repository."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        paths.extend(os.path.join(base, f) for f in files)
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    ident = "tree:" + digest.hexdigest()[:16]
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            ident = "git:" + sha.stdout.strip() + " " + ident
    except (OSError, subprocess.SubprocessError):
        pass
    return ident


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "database.h")):
        fail("engine sources not found under %s" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=840)
            except (OSError, subprocess.SubprocessError) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed; see %s" % log_path)


def run_binary(workload, seed, seconds, trace, deadline):
    out = os.path.join(BUILD_DIR, "result-%s-%d-%d.json" % (workload, seed,
                                                            trace))
    spans = os.path.join(BUILD_DIR, "spans-%s-%d.jsonl" % (workload, seed))
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out,
           "--spans", spans, "--source-id", source_id()]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail("%s timed out" % workload)
    if done.returncode not in (0, 1) or not os.path.isfile(out):
        fail("%s exited with status %d" % (workload, done.returncode))
    with open(out) as f:
        return json.load(f), done.returncode


# --- metrics -----------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(raw):
    u = raw["untraced"]
    ops = [ms for samples in u["op_ms"].values() for ms in samples]
    attempted = raw["attempted"]
    ok_frac = 1.0 - raw["failed"] / attempted if attempted else 0.0
    return {
        "setup_s": median(raw["setup_s"]),
        "round_ms.p10": percentile(u["round_ms"], 10),
        "round_ms.floor": sum(sum(v) for v in u["floor_ms"].values()),
        "cpu_ms_per_round.floor": sum(sum(v)
                                      for v in u["floor_cpu_ms"].values()),
        "round_ms.p50": median(u["round_ms"]),
        "op_ms.p50": percentile(ops, 50),
        "op_ms.p90": percentile(ops, 90),
        "cpu_ms_per_round.p10": percentile(u["round_cpu_ms"], 10),
        "cpu_ms_per_round.p50": median(u["round_cpu_ms"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "ok_frac": ok_frac,
        "failed_frac": 1.0 - ok_frac,
    }, len(ops)


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(raw):
    t = raw["traced"]
    rounds = t["counters"]
    m = {}
    for name, _ in PER_LAYER:
        m[name] = median([r.get(name, 0.0) for r in rounds])

    def total(key):
        return sum(r.get(key, 0.0) for r in rounds)

    m["exec.delta_frontier_frac"] = ratio(total("_frontier_probe_rows"),
                                          total("_frontier_rows"))
    m["expr.kernel_coverage_frac"] = ratio(total("expr.kernel_rows_filter"),
                                           total("exec.pipeline_rows_in"))
    m["mpp.cpu_util"] = ratio(total("_run_cpu_ms"), total("_run_worker_ms"))
    u = raw["untraced"]
    # Execute's own cost per statement, measured on SELECT 1, times the
    # statements a round sends through Execute.
    m["engine.overhead_us"] = (raw["execute_overhead_us"] *
                               raw["statements_per_round"])
    for op, samples in u["op_ms"].items():
        m["engine.op.%s_ms" % op] = median(samples)
    if "w1" in raw:
        w1 = raw["w1"]
        for op, samples in w1["untraced"]["op_ms"].items():
            m["engine.op.%s_ms" % op] = median(samples)
        m["mpp.speedup"] = ratio(
            median([r.get("exec.step.ri_ms", 0.0)
                    for r in w1["traced"]["counters"]]),
            m["exec.step.ri_ms"])
    m["trace.coverage_frac"] = min(median(v) for v in t["coverage"].values())
    m["trace.overhead_frac"] = (ratio(median(t["round_ms"]),
                                      median(u["round_ms"])) - 1.0)
    return m


# --- output ------------------------------------------------------------------

def print_provenance(raw):
    p = raw["provenance"]
    for key in ["seed", "graph", "graph_nodes", "graph_edges", "graph_seed",
                "status_seed", "options", "source_id", "build_type",
                "cxx_flags", "compiler", "cpu_model", "nproc", "loadavg_1m"]:
        print("# %s: %s" % (key, p[key]))


def print_metrics(workload, metrics, units):
    for name, unit in units:
        print("%-14s %-36s %16.6f %s" % (workload, name, metrics[name], unit))


def print_ops(raw):
    u = raw["untraced"]
    t = raw["traced"]
    print("# %-20s %12s %12s %10s" % ("op", "untraced_ms", "traced_ms",
                                        "coverage"))
    for op in raw["ops"]:
        print("# %-20s %12.3f %12.3f %10.4f" % (
            op, median(u["op_ms"].get(op, [])), median(t["op_ms"].get(op, [])),
            median(t["coverage"].get(op, []))))


def print_views(layers):
    """Fig 11 and the MPP scaling gap from engine.op.*_ms of all workloads."""
    def op_ms(workload, op):
        return layers.get(workload, {}).get("engine.op.%s_ms" % op, 0.0)

    print("# Fig 11: iterative CTE vs stored procedure (DBLP /64, 25 it.)")
    print("# %-8s %10s %10s %10s" % ("query", "cte_ms", "proc_ms",
                                     "cte/proc"))
    for label, op in FIG11:
        cte = op_ms("cte_dblp", "cte." + op)
        proc = op_ms("proc_dblp", "proc." + op)
        print("# %-8s %10.1f %10.1f %10.3f" % (label, cte, proc,
                                              ratio(cte, proc)))
    print("# MPP scaling (Pokec /768, 25 it.)")
    print("# %-8s %10s %10s %10s" % ("query", "w1_ms", "w4_ms", "w1/w4"))
    for label, op in FIG11[:2]:
        w1 = op_ms("cte_pokec_w4", "w1." + op)
        w4 = op_ms("cte_pokec_w4", "w4." + op)
        print("# %-8s %10.1f %10.1f %10.3f" % (label, w1, w4, ratio(w1, w4)))
    speedup = layers.get("cte_pokec_w4", {}).get("mpp.speedup", 0.0)
    print("# Ri step w1/w4 (mpp.speedup): %.3f" % speedup)


def measure(workload, seed, seconds, trace, deadline):
    raw, status = run_binary(workload, seed, seconds, trace, deadline)
    print("# workload: %s  trace: %d  rounds: %d" % (
        workload, trace, len(raw["untraced"]["round_ms"])))
    print_provenance(raw)
    for reason in raw["failures"]:
        print("# FAILED " + reason)
    if trace == 0:
        metrics, samples = end_to_end(raw)
        print("# ops pooled: %d" % samples)
        print_metrics(workload, metrics, END_TO_END + INFORMATIVE)
        units = END_TO_END
    else:
        metrics = per_layer(raw)
        print_ops(raw)
        print_metrics(workload, metrics, PER_LAYER)
        units = PER_LAYER
    result = {name: {"value": metrics[name], "unit": unit}
              for name, unit in units}
    return raw, status, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None)
    args = parser.parse_args()
    build()

    if args.workload != "all":
        trace = 0 if args.trace is None else args.trace
        raw, status, metrics = measure(args.workload, args.seed, args.seconds,
                                       trace, time.time() + RUN_TIMEOUT_S)
        print(json.dumps({"correct": status == 0 and raw["failed"] == 0,
                          "attempted": raw["attempted"],
                          "failed": raw["failed"], "metrics": metrics}))
        sys.exit(status)

    # Every workload, traced by default so the derived views have their
    # per-op figures.
    trace = 1 if args.trace is None else args.trace
    layers, metrics = {}, {}
    attempted = failed = 0
    ok = True
    for workload in WORKLOADS:
        raw, status, result = measure(workload, args.seed, args.seconds,
                                      trace, time.time() + RUN_TIMEOUT_S)
        ok &= status == 0
        attempted += raw["attempted"]
        failed += raw["failed"]
        layers[workload] = {k: v["value"] for k, v in result.items()}
        metrics.update({"%s/%s" % (workload, k): v for k, v in result.items()})
    if trace == 1:
        print_views(layers)
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
