#!/usr/bin/env python3
"""Compares two sets of benchmark results against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (results/*.json under
the build directory). For every workload and end-to-end metric it reports
both medians, the spread of each side (interquartile range over median)
and whether the new median is worse than the base median by more than the
metric's bound. A metric whose spread exceeds its bound is unresolved
rather than unchanged. Exits 1 when any metric regressed or any run was
wrong.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def worsening(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare(base_runs, new_runs, spec):
    """base_runs/new_runs: lists of result dicts (run.py's result files).

    Returns a list of (workload, metric, base median, new median,
    worsening, bound, widest spread, regressed) rows, plus a list of
    problems (wrong or failed runs).
    """
    rows, problems = [], []
    for run in base_runs + new_runs:
        if not run["correct"] or run["failed"]:
            problems.append(f"{run['workload']} seed {run['seed']}: "
                            f"correct={run['correct']} failed={run['failed']}")
    workloads = sorted({r["workload"] for r in base_runs + new_runs})
    for w in workloads:
        base = [r for r in base_runs if r["workload"] == w]
        new = [r for r in new_runs if r["workload"] == w]
        if not base or not new:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in base]
            nv = [r["metrics"][name]["value"] for r in new]
            b, n = statistics.median(bv), statistics.median(nv)
            worse = worsening(b, n, m["better"])
            rows.append((w, name, b, n, worse, m["bound"],
                         max(spread(bv), spread(nv)), worse > m["bound"]))
    return rows, problems


def load_dir(path):
    runs = []
    for p in sorted(glob.glob(os.path.join(path, "*.json"))):
        with open(p) as f:
            run = json.load(f)
        if not run.get("trace"):
            runs.append(run)
    return runs


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    rows, problems = compare(load_dir(argv[1]), load_dir(argv[2]), spec)
    regressed = False
    print(f"{'workload':18} {'metric':22} {'base':>12} {'new':>12} "
          f"{'worse':>8} {'bound':>6} {'spread':>7}")
    for w, name, b, n, worse, bound, sprd, bad in rows:
        regressed |= bad
        note = "  REGRESSED" if bad else "  unresolved" if sprd > bound else ""
        print(f"{w:18} {name:22} {b:12.6g} {n:12.6g} {worse:+8.1%} "
              f"{bound:6.2f} {sprd:7.3f}{note}")
    for p in problems:
        print("problem:", p)
    return 1 if regressed or problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
