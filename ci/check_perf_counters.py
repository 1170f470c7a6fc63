#!/usr/bin/env python3
"""Deterministic counter gate: exact per-layer work counters vs a baseline.

    python3 ci/check_perf_counters.py            # compare, exit 1 on a diff
    python3 ci/check_perf_counters.py --update   # rewrite the baseline file

Run from anywhere.  For each workload in ci/perf_counters.json it runs
`python3 perfbench/run.py --workload W --seed S --trace 1` and compares the
listed counters with the baseline values exactly.  campus-10k and paper-6wk
run kDeterministic, so these counters are a pure function of the source: a
change means the model's work changed, and the change that moves them
updates the baseline and says why.  Wall time is not gated here.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "perf_counters.json")


def run_counters(workload, seed, names):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout)
        raise RuntimeError("%s failed (exit %d)" % (" ".join(cmd),
                                                     proc.returncode))
    metrics = json.loads(lines[-1])["metrics"]
    return {name: metrics[name]["value"] for name in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="write the measured counters as the baseline")
    args = parser.parse_args()

    with open(BASELINE) as f:
        baseline = json.load(f)
    seed = baseline["seed"]
    names = baseline["counters"]
    diffs = []
    for workload, expected in baseline["workloads"].items():
        measured = run_counters(workload, seed, names)
        for name in names:
            want, got = expected.get(name), measured[name]
            status = ("ok" if got == want
                      else "updated" if args.update else "DIFFERS")
            print("%-11s %-24s baseline %-16s measured %-16s %s"
                  % (workload, name, want, got, status))
            if got != want:
                diffs.append((workload, name))
        baseline["workloads"][workload] = measured

    if args.update:
        with open(BASELINE, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print("wrote %s" % os.path.relpath(BASELINE))
        return 0
    if diffs:
        print("%d counter(s) differ from %s: %s" % (
            len(diffs), os.path.relpath(BASELINE),
            ", ".join("%s %s" % d for d in diffs)))
        return 1
    print("all counters match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
