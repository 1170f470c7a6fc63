#!/usr/bin/env python3
"""GPUnion benchmark: one command for the three campus workloads.

    python3 perfbench/run.py --workload campus-10k|paper-6wk|fed-api-4x \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  The first call builds perfbench_runner from
source into .bench_build/ (CMake, Release); later calls reuse the build.

--trace 0 runs the workload's replicas untraced and prints the end-to-end
metrics.  --trace 1 runs replica 0 untraced and then traced, checks that
tracing did not change any sim-time output, and prints the per-layer
metrics.  The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Any failed output check makes the exit code non-zero.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD, "perfbench_runner")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
REFERENCES_JSON = os.path.join(HERE, "references.json")

# Input sets pooled per run.  Each replica is one runner process with its
# own inputs derived from the seed; sim-time samples are pooled across
# them, host metrics are medians over them.
REPLICAS = {"campus-10k": 3, "paper-6wk": 4, "fed-api-4x": 5}
# kDeterministic workloads must give bit-identical sim-time output traced
# and untraced; fed-api-4x runs kParallel and is only compared loosely.
DETERMINISTIC = {"campus-10k", "paper-6wk"}
# A run must end within this many seconds, build excluded.
RUN_BUDGET_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
HOST_METRICS = ("setup_s", "wall_s", "peak_rss_mb")


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "gpunion", "platform.h")):
        raise BenchError("GPUnion sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_runner",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=850)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def run_replica(workload, seed, replica, traced, deadline, spans=None):
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
           "--replica", str(replica), "--traced", "1" if traced else "0"]
    if spans:
        cmd += ["--spans", spans]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before replica %d" % replica)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("replica %d exceeded the time budget" % replica)
    if proc.returncode != 0 or not proc.stdout.strip():
        log(proc.stderr[-4000:])
        raise BenchError("runner failed (exit %d): %s"
                         % (proc.returncode, " ".join(cmd)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- pooled end-to-end metrics ---------------------------------------------
def percentile(values, pct):
    """Linear-interpolated percentile, as util::SampleSet computes it."""
    if not values:
        return 0.0
    xs = sorted(values)
    rank = pct / 100.0 * (len(xs) - 1)
    lo = int(rank)
    if lo + 1 >= len(xs):
        return xs[-1]
    frac = rank - lo
    return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        beyond = math.floor(n * (1.0 - pct / 100.0))
        if beyond >= 10:
            return pct, percentile(values, pct), beyond
    return 50.0, percentile(values, 50.0), 0


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(results, timed):
    """The twelve end-to-end metrics.  Latency percentiles are medians over
    the replicas in `results` of each replica's own percentile; counts and
    ratios pool those replicas; host metrics are medians over every replica
    in `timed`."""
    def pooled(key):
        return [x for r in results for x in r["samples"][key]]

    def total(key):
        return sum(r["samples"][key] for r in results)

    def host(key):
        return statistics.median(r["host"][key] for r in timed)

    def median_of(samples_key):
        return statistics.median(percentile(r["samples"][samples_key], 50.0)
                                 for r in results)

    def median_tail(samples_key):
        tails = [tail(r["samples"][samples_key]) for r in results]
        note = ", ".join("p%g of %d (%d beyond)"
                         % (pct, len(r["samples"][samples_key]), beyond)
                         for (pct, _, beyond), r in zip(tails, results))
        return statistics.median(value for _, value, _ in tails), note

    lost, migrated = pooled("lost_work_s"), pooled("migration_ok")
    wait_tail, wait_note = median_tail("wait_s")
    jct_tail, jct_note = median_tail("jct_s")
    metrics = {
        "setup_s": statistics.median(
            x for r in timed for x in r["host"]["setup_samples_s"]),
        "wall_s": host("wall_s"),
        "peak_rss_mb": host("peak_rss_mb"),
        "wait_p50_s": median_of("wait_s"),
        "wait_tail_s": wait_tail,
        "jct_p50_s": median_of("jct_s"),
        "jct_tail_s": jct_tail,
        "completed_frac": ratio(total("training_completed"),
                                total("training_offered")),
        "sessions_served_frac": ratio(total("sessions_served"),
                                      total("sessions_offered")),
        "gpu_util": ratio(total("busy_gpu_s"), total("capacity_gpu_s")),
        "migration_success": ratio(sum(migrated), len(migrated)),
        "lost_work_min": ratio(sum(lost), len(lost)) / 60.0,
    }
    notes = {
        "wait_tail_s": "median over replicas of " + wait_note,
        "jct_tail_s": "median over replicas of " + jct_note,
        "migration_success": "%d decided interruptions" % len(migrated),
        "lost_work_min": "%d interruptions" % len(lost),
    }
    return metrics, notes


# --- output checks ------------------------------------------------------------
def check_replica(result, problems):
    label = "replica %d%s" % (result["replica"],
                              " traced" if result["traced"] else "")
    for name, ok in result["checks"].items():
        if not ok:
            problems.append("%s: %s check failed (%s)"
                            % (label, name, json.dumps(result["info"])))
    return result["failed"]


def check_tracing_identity(workload, untraced, traced, problems):
    """Tracing must not perturb the model: every sim-time output of a
    kDeterministic workload is bit-identical traced and untraced."""
    if workload in DETERMINISTIC:
        diffs = [k for k in untraced["samples"]
                 if untraced["samples"][k] != traced["samples"][k]]
        if diffs:
            problems.append("tracing changed sim-time outputs: "
                            + ", ".join(diffs))
        return "DIFFERENT" if diffs else "bit-identical"
    before, _ = end_to_end([untraced], [untraced])
    after, _ = end_to_end([traced], [traced])
    worst = max(abs(after[k] - v) / abs(v) for k, v in before.items()
                if v and k not in HOST_METRICS)
    return "kParallel, largest relative difference %.4f" % worst


# --- printing -----------------------------------------------------------------
def load_metric_specs():
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def print_table(title, specs, values, notes=None, refs=None):
    print(title)
    for spec in specs:
        name = spec["name"]
        line = "  %-36s %16.6g %-6s (%s is better)" % (
            name, values[name], spec["unit"], spec["better"])
        if notes and name in notes:
            line += "  [%s]" % notes[name]
        if refs and name in refs:
            ref = refs[name]
            line += "  [paper %g, difference %+.4g; reference, not gated]" % (
                ref["value"], values[name] - ref["value"])
        print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(REPLICAS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the fed-api-4x generator smoke test")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    try:
        e2e_specs, layer_specs = load_metric_specs()
        build()
        if args.smoke:
            proc = subprocess.run([RUNNER, "--smoke"], timeout=RUN_BUDGET_S)
            return proc.returncode
        start = time.monotonic()
        deadline = start + RUN_BUDGET_S
        problems = []
        failed = 0
        print("workload %s  seed %d  trace %d"
              % (args.workload, args.seed, args.trace))
        if args.trace == 0:
            replicas = REPLICAS[args.workload]
            results = [run_replica(args.workload, args.seed, i, False,
                                   deadline) for i in range(replicas)]
            # Host metrics keep sampling further replicas until the run has
            # measured for --seconds; sim-time metrics pool the first ones
            # only, so they do not depend on the host's speed.
            host_only = []
            while time.monotonic() - start < args.seconds:
                host_only.append(run_replica(
                    args.workload, args.seed, replicas + len(host_only),
                    False, deadline))
            timed = results + host_only
            for r in timed:
                failed += check_replica(r, problems)
            metrics, notes = end_to_end(results, timed)
            attempted = sum(r["attempted"] for r in timed)
            with open(REFERENCES_JSON) as f:
                refs = json.load(f)["workloads"].get(args.workload, {})
            print("replicas: %d pooled, %d host-only"
                  % (len(results), len(host_only)))
            print_table("end-to-end metrics (untraced):", e2e_specs, metrics,
                        notes, refs.get("metrics"))
            if not refs.get("metrics"):
                print("  no paper reference for this workload: the modeled "
                      "figures are unvalidated here")
            selected = e2e_specs
        else:
            spans = os.path.join(BUILD, "spans-%s-%d.json"
                                 % (args.workload, args.seed))
            untraced = run_replica(args.workload, args.seed, 0, False,
                                   deadline)
            traced = run_replica(args.workload, args.seed, 0, True, deadline,
                                 spans)
            failed += check_replica(untraced, problems)
            failed += check_replica(traced, problems)
            identity = check_tracing_identity(args.workload, untraced, traced,
                                              problems)
            failed += identity == "DIFFERENT"
            metrics = dict(traced["layers"])
            metrics["obs.overhead_frac"] = (traced["host"]["wall_s"]
                                            / untraced["host"]["wall_s"] - 1.0)
            attempted = untraced["attempted"] + traced["attempted"]
            print("tracing vs untraced sim-time outputs: %s" % identity)
            print("host spans written to %s" % os.path.relpath(spans, ROOT))
            print_table("per-layer metrics (traced run):", layer_specs,
                        metrics)
            selected = layer_specs
        for problem in problems:
            print("CHECK FAILED: " + problem)
        result = {
            "correct": not problems,
            "attempted": max(1, attempted),
            "failed": failed,
            "metrics": {s["name"]: {"value": metrics[s["name"]],
                                    "unit": s["unit"]} for s in selected},
        }
        print(json.dumps(result))
        return 0 if not problems else 1
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as error:
        log("benchmark error: %s" % error)
        return 2


if __name__ == "__main__":
    sys.exit(main())
