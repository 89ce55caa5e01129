#!/usr/bin/env python3
"""Proves every gate of check_bench_regression.py can fail.

Feeds each mode synthetic BENCH_*.json files and checks its exit code:
each mode gets regressed artifacts that must fail and one within budget
that must pass, so neither the gate nor this harness is vacuous.

- default (BENCH_incremental.json): the E2b delta-join speedup at
  n_bw = 8 falls below 2.0x (1.45x), or the n_bw = 8 point is missing;
- --multiquery (BENCH_multiquery.json): the shared run keeps one reader
  per query, builds a partial per query (ratio 1x), or its emissions
  diverge from the unshared run;
- --linear-road (BENCH_linear_road.json): p99 over the 250 ms deadline,
  a missed deadline, or no notifications at all;
- --wal (BENCH_wal.json): a fsync=never median 4.1x durability-off
  (1.72 ms against 7.12 ms, the overhead of the byte-at-a-time codec),
  or a run that logged no WAL records;
- --baskets (BENCH_baskets.json): a sliding trim whose advance at 300 k
  resident rows costs 15.2x one at 30 k (425 us against 6.47 ms, the
  erase-based trim that moved every resident row), or an artifact
  without the 300 k runs;
- --grouping (BENCH_kernel.json): folding count(*) + sum into a grouped
  partial at 4.8x the keys-only build, or min + max at 6.2x (the boxed
  aggregate states), or an artifact without the min + max layout; flat
  states at 1.5x pass.

Usage: test_check_bench_regression.py
"""

import json
import os
import subprocess
import sys
import tempfile

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_bench_regression.py")


def join_bench(speedups: dict) -> dict:
    def point(n_bw: int, speedup: float) -> dict:
        full_us = 260.0
        return {"scenario": "join", "n_bw": n_bw,
                "slide_us": 4000000 // n_bw,
                "full": {"emissions": 39, "exec_us_per_emission": full_us},
                "incremental": {"emissions": 39,
                                "exec_us_per_emission": full_us / speedup},
                "speedup": speedup}
    return {"bench": "incremental", "join_rows": 8000,
            "sweep": [point(n, s) for n, s in sorted(speedups.items())]}


def multiquery_bench(readers: int, shared_builds: int,
                     shared_emissions: int) -> dict:
    queries, unshared_builds = 32, 320
    return {"bench": "multiquery", "rows": 8000, "queries": queries,
            "shared": {"wall_ms": 3.0, "partial_builds": shared_builds,
                       "shared_nodes": 1, "stream_readers": readers,
                       "emissions": shared_emissions},
            "unshared": {"wall_ms": 8.2, "partial_builds": unshared_builds,
                         "shared_nodes": queries, "stream_readers": queries,
                         "emissions": 224},
            "build_ratio": unshared_builds / shared_builds}


def linear_road_bench(p99_ms: float, misses: int, emissions: int) -> dict:
    return {"bench": "linear_road", "xways": 1, "rows": 8000,
            "emissions": emissions, "speedup": 20, "deadline_ms": 250.0,
            "latency_ms": {"p50": p99_ms * 0.9, "p99": p99_ms,
                           "max": p99_ms * 1.1},
            "deadline_misses": misses}


def wal_bench(off_ms: float, never_ms: float, never_records: int) -> dict:
    def section(wall_ms: float, records: int) -> dict:
        return {"wall_ms": wall_ms, "wall_ms_min": wall_ms,
                "wall_ms_max": wall_ms, "rows_per_s": 20000 / wall_ms * 1e3,
                "wal_records": records, "wal_bytes": 800 * records,
                "wal_syncs": 0}
    return {"bench": "wal", "rows": 20000, "reps": 5, "stat": "median",
            "off": section(off_ms, 0),
            "fsync_never": section(never_ms, never_records),
            "fsync_interval": section(never_ms * 1.2, never_records)}


def baskets_bench(small_us: float, large_us: float,
                  sizes=(30000, 300000)) -> dict:
    runs = []
    for n, us in zip(sizes, (small_us, large_us)):
        name = f"BM_BasketSlidingTrim/{n}/iterations:600/repeats:5"
        for rep in range(5):
            t = us * 1e3 * (1.0 + 0.02 * (rep - 2))  # ns, some spread
            runs.append({"name": name, "run_name": name,
                         "run_type": "iteration", "repetitions": 5,
                         "repetition_index": rep, "iterations": 600,
                         "real_time": t, "cpu_time": t, "time_unit": "ns"})
        runs.append({"name": name + "_median", "run_name": name,
                     "run_type": "aggregate", "aggregate_name": "median",
                     "real_time": us * 1e3, "cpu_time": us * 1e3,
                     "time_unit": "ns"})
    return {"context": {"library_build_type": "release"},
            "benchmarks": runs}


def fold_bench(keys_us: float, ratios: dict) -> dict:
    """BM_GroupTableFold repetitions: layout 0 at `keys_us`, layout n at
    `ratios[n]` times that."""
    runs = []
    for layout, ratio in [(0, 1.0)] + sorted(ratios.items()):
        us = keys_us * ratio
        name = f"BM_GroupTableFold/{layout}/repeats:5"
        for rep in range(5):
            t = us * (1.0 + 0.03 * (rep - 2))  # some spread
            runs.append({"name": name, "run_name": name,
                         "run_type": "iteration", "repetitions": 5,
                         "repetition_index": rep, "iterations": 300,
                         "real_time": t, "cpu_time": t, "time_unit": "us"})
        runs.append({"name": name + "_median", "run_name": name,
                     "run_type": "aggregate", "aggregate_name": "median",
                     "real_time": us, "cpu_time": us, "time_unit": "us"})
    return {"context": {"library_build_type": "release"},
            "benchmarks": runs}


CASES = [
    # (mode flags, name, bench, expected to pass)
    ([], "join speedup 1.45x at n_bw=8",
     join_bench({1: 2.3, 2: 1.5, 4: 1.7, 8: 1.45}), False),
    ([], "join sweep without n_bw=8", join_bench({1: 2.3, 2: 1.5}), False),
    ([], "join within budget",
     join_bench({1: 2.3, 2: 1.5, 4: 1.7, 8: 2.6}), True),
    (["--multiquery"], "one reader per query", multiquery_bench(32, 10, 224),
     False),
    (["--multiquery"], "a partial build per query",
     multiquery_bench(1, 320, 224), False),
    (["--multiquery"], "emissions diverge", multiquery_bench(1, 10, 223),
     False),
    (["--multiquery"], "multiquery within budget",
     multiquery_bench(1, 10, 224), True),
    (["--linear-road"], "p99 over the deadline",
     linear_road_bench(251.0, 0, 120), False),
    (["--linear-road"], "a missed deadline", linear_road_bench(0.7, 1, 120),
     False),
    (["--linear-road"], "no notifications", linear_road_bench(0.7, 0, 0),
     False),
    (["--linear-road"], "linear road within budget",
     linear_road_bench(0.7, 0, 120), True),
    (["--wal"], "byte-at-a-time codec overhead 4.1x",
     wal_bench(1.72, 7.12, 25), False),
    (["--wal"], "fsync_never logged nothing", wal_bench(10.0, 12.0, 0),
     False),
    (["--wal"], "wal within budget", wal_bench(10.0, 15.0, 205), True),
    (["--baskets"], "erase-based trim 15.2x",
     baskets_bench(425.0, 6474.0), False),
    (["--baskets"], "no 300 k runs", baskets_bench(35.0, 38.0, (30000, 3000)),
     False),
    (["--baskets"], "baskets within budget", baskets_bench(35.0, 38.0), True),
    (["--grouping"], "boxed count(*) + sum 4.8x",
     fold_bench(110.0, {1: 4.8, 2: 1.5}), False),
    (["--grouping"], "boxed min + max 6.2x",
     fold_bench(110.0, {1: 1.5, 2: 6.2}), False),
    (["--grouping"], "no min + max runs", fold_bench(110.0, {1: 1.5}),
     False),
    (["--grouping"], "flat states 1.5x", fold_bench(110.0, {1: 1.5, 2: 1.5}),
     True),
]


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (flags, name, bench, should_pass) in enumerate(CASES):
            path = os.path.join(tmp, f"BENCH_{i}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(bench, f)
            rc = subprocess.run([sys.executable, GATE, path] + flags,
                                stdout=subprocess.DEVNULL).returncode
            mode = " ".join(flags) or "(default)"
            if (rc == 0) != should_pass:
                print(f"FAIL: {mode} '{name}': gate exited {rc}, expected "
                      f"{'0' if should_pass else 'non-zero'}")
                failures += 1
            else:
                print(f"ok: {mode} '{name}': gate exited {rc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
