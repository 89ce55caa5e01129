#!/usr/bin/env python3
"""Bench-regression guard over the BENCH_*.json artifacts.

Default mode (BENCH_incremental.json): fails (exit 1) when the E2b
stream-stream join sweep no longer shows the incremental win the indexed
delta-join path is supposed to deliver: the speedup at --n-bw (default 8)
must be >= --min-speedup (default 2.0).

--multiquery mode (BENCH_multiquery.json): fails when the sharing
registry no longer collapses the shared-prefix family (docs/SHARING.md):
at N standing queries sharing a fragment prefix, the shared run must keep
one basket reader and do O(1) partial builds per slide, i.e.
build_ratio (unshared builds / shared builds) >= N / 2, and both runs
must produce the same emission count.

--linear-road mode (BENCH_linear_road.json): fails when the p99
notification response time measured on the engine's ingest->delivery
latency path (docs/OBSERVABILITY.md) exceeds --max-p99-ms (default: the
artifact's own scaled LRB deadline, 250 ms at 20x replay), or when any
notification missed the deadline.

--wal mode (BENCH_wal.json): fails when the median wall time of WAL
logging without fsync exceeds --max-wal-ratio (default 2.5) times the
median with durability off, or when the fsync=never runs logged nothing.
The ratio is taken on medians over interleaved repetitions, with no
absolute slack, so the gate can fail at every size the bench runs at.
The WAL rides the batch-ordinal log, one framed append per batch, so
anything beyond that is a regression on the ingest hot path.
fsync=interval is reported but not gated (its cost is the disk's, not
the engine's).

--baskets mode (BENCH_baskets.json): fails when a sliding basket's
per-advance time grows with its resident rows. BM_BasketSlidingTrim
appends and drops a fixed 1 000 rows per advance at 30 k and at 300 k
resident rows; the median CPU time per advance at 300 k must stay within
MAX_TRIM_RATIO (3.0) times the median at 30 k. A trim that
moves every resident row (O(resident), 12-16x here) fails; one in
amortized O(dropped) rows reads about 1x.

Non-fatal diagnostics: the join speedup curve is expected to be
monotonically increasing in n_bw; inversions are printed as warnings so
noisy smoke timings do not flake CI, while the headline points stay hard
gates.

Usage: check_bench_regression.py BENCH_incremental.json [--n-bw N]
       [--min-speedup X]
       check_bench_regression.py BENCH_multiquery.json --multiquery
       check_bench_regression.py BENCH_linear_road.json --linear-road
       [--max-p99-ms X]
       check_bench_regression.py BENCH_wal.json --wal
       [--max-wal-ratio X]
       check_bench_regression.py BENCH_baskets.json --baskets
"""

import argparse
import json
import statistics
import sys

# Google Benchmark time units, in nanoseconds.
TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# --baskets: per-advance median at 300 k resident rows as a multiple of
# the one at 30 k.
MAX_TRIM_RATIO = 3.0


def check_join(bench, args) -> int:
    sweep = [p for p in bench.get("sweep", [])
             if p.get("scenario") == args.scenario]
    if not sweep:
        print(f"FAIL: no '{args.scenario}' sweep points in {args.json_path}")
        return 1

    sweep.sort(key=lambda p: p["n_bw"])
    print(f"{args.scenario} sweep ({args.json_path}):")
    for p in sweep:
        print(f"  n_bw={p['n_bw']:<3} speedup={p['speedup']:.3f}x")

    prev = None
    for p in sweep:
        if prev is not None and p["speedup"] < prev["speedup"]:
            print(f"WARN: speedup not monotone: n_bw={p['n_bw']} "
                  f"({p['speedup']:.3f}x) < n_bw={prev['n_bw']} "
                  f"({prev['speedup']:.3f}x)")
        prev = p

    gate = [p for p in sweep if p["n_bw"] == args.n_bw]
    if not gate:
        print(f"FAIL: no {args.scenario} sweep point at n_bw={args.n_bw}")
        return 1
    speedup = gate[0]["speedup"]
    if speedup < args.min_speedup:
        print(f"FAIL: {args.scenario} speedup at n_bw={args.n_bw} is "
              f"{speedup:.3f}x, below the {args.min_speedup:.1f}x floor")
        return 1
    print(f"OK: {args.scenario} speedup at n_bw={args.n_bw} is "
          f"{speedup:.3f}x (floor {args.min_speedup:.1f}x)")
    return 0


def check_multiquery(bench, args) -> int:
    try:
        queries = bench["queries"]
        shared = bench["shared"]
        unshared = bench["unshared"]
        ratio = bench["build_ratio"]
    except KeyError as e:
        print(f"FAIL: {args.json_path} is missing key {e}")
        return 1

    print(f"multiquery sharing ({args.json_path}): {queries} queries")
    print(f"  shared:   builds={shared['partial_builds']} "
          f"readers={shared['stream_readers']} "
          f"nodes={shared['shared_nodes']} wall={shared['wall_ms']:.1f}ms")
    print(f"  unshared: builds={unshared['partial_builds']} "
          f"readers={unshared['stream_readers']} "
          f"wall={unshared['wall_ms']:.1f}ms")

    failed = False
    # One receptor fan-out for the whole family: the shared node owns the
    # only basket reader regardless of query count.
    if shared["stream_readers"] != 1:
        print(f"FAIL: shared run holds {shared['stream_readers']} basket "
              f"readers for {queries} shared-prefix queries, expected 1")
        failed = True
    if shared["shared_nodes"] < 1:
        print("FAIL: shared run registered no shared window node")
        failed = True
    # O(1) builds per slide: the unshared run builds each basic-window
    # partial once per query, the shared run once total — so the ratio
    # tracks the query count. Half of N leaves slack for boundary windows.
    floor = queries / 2
    if ratio < floor:
        print(f"FAIL: build ratio {ratio:.2f}x is below the {floor:.0f}x "
              f"floor at {queries} queries — partial builds are no longer "
              f"O(1) per slide")
        failed = True
    if shared["emissions"] != unshared["emissions"]:
        print(f"FAIL: emission counts diverge (shared "
              f"{shared['emissions']} vs unshared {unshared['emissions']})")
        failed = True
    if failed:
        return 1
    print(f"OK: build ratio {ratio:.2f}x (floor {floor:.0f}x), "
          f"1 reader, {shared['shared_nodes']} node(s)")
    return 0


def check_linear_road(bench, args) -> int:
    try:
        latency = bench["latency_ms"]
        deadline = bench["deadline_ms"]
        misses = bench["deadline_misses"]
        emissions = bench["emissions"]
    except KeyError as e:
        print(f"FAIL: {args.json_path} is missing key {e}")
        return 1

    budget = args.max_p99_ms if args.max_p99_ms is not None else deadline
    print(f"linear road ({args.json_path}): xways={bench.get('xways')} "
          f"rows={bench.get('rows')} emissions={emissions}")
    print(f"  p50={latency['p50']:.3f}ms p99={latency['p99']:.3f}ms "
          f"max={latency['max']:.3f}ms misses={misses} "
          f"(deadline {deadline:.0f}ms)")

    failed = False
    if emissions == 0:
        print("FAIL: no notifications were delivered — the latency path "
              "recorded nothing")
        failed = True
    if latency["p99"] > budget:
        print(f"FAIL: p99 notification latency {latency['p99']:.3f}ms "
              f"exceeds the {budget:.0f}ms budget")
        failed = True
    if misses > 0:
        print(f"FAIL: {misses} notification(s) missed the scaled LRB "
              f"deadline")
        failed = True
    if failed:
        return 1
    print(f"OK: p99 {latency['p99']:.3f}ms within {budget:.0f}ms, "
          f"0 deadline misses over {emissions} notifications")
    return 0


def check_wal(bench, args) -> int:
    try:
        off = bench["off"]
        never = bench["fsync_never"]
        interval = bench["fsync_interval"]
    except KeyError as e:
        print(f"FAIL: {args.json_path} is missing key {e}")
        return 1

    print(f"wal overhead ({args.json_path}): {bench.get('rows')} rows, "
          f"{bench.get('stat', 'best')} of {bench.get('reps')} interleaved "
          f"reps")
    for key, run in (("off", off), ("fsync_never", never),
                     ("fsync_interval", interval)):
        spread = ""
        if "wall_ms_min" in run and "wall_ms_max" in run:
            spread = (f" [{run['wall_ms_min']:.1f}, "
                      f"{run['wall_ms_max']:.1f}]")
        print(f"  {key:>14}: wall={run['wall_ms']:.1f}ms{spread} "
              f"rows/s={run['rows_per_s']:.0f} "
              f"records={run['wal_records']} syncs={run['wal_syncs']}")

    failed = False
    if never["wal_records"] == 0:
        print("FAIL: fsync_never logged no WAL records — the bench "
              "measured nothing")
        failed = True
    if off["wall_ms"] <= 0:
        print("FAIL: durability-off wall time is not positive")
        return 1
    # One framed append per batch: logging without fsync must stay within
    # the ratio budget on medians.
    ratio = never["wall_ms"] / off["wall_ms"]
    if ratio > args.max_wal_ratio:
        print(f"FAIL: fsync_never is {ratio:.2f}x of durability-off "
              f"({never['wall_ms']:.1f}ms vs {off['wall_ms']:.1f}ms), over "
              f"the {args.max_wal_ratio:.2f}x budget")
        failed = True
    if failed:
        return 1
    print(f"OK: fsync_never {ratio:.2f}x of durability-off "
          f"(budget {args.max_wal_ratio:.2f}x); "
          f"fsync_interval {interval['wall_ms']:.1f}ms reported ungated")
    return 0


def check_baskets(bench, args) -> int:
    # Per resident-row count: the CPU time of each repetition, in ns.
    reps = {}
    for b in bench.get("benchmarks", []):
        parts = b.get("name", "").split("/")
        if parts[0] != "BM_BasketSlidingTrim" or len(parts) < 2:
            continue
        if b.get("run_type", "iteration") != "iteration":
            continue  # aggregates are recomputed below
        scale = TIME_UNIT_NS.get(b.get("time_unit", "ns"))
        if scale is None:
            print(f"FAIL: unknown time unit in {b['name']}")
            return 1
        reps.setdefault(int(parts[1]), []).append(b["cpu_time"] * scale)

    small, large = 30000, 300000
    missing = [n for n in (small, large) if n not in reps]
    if missing:
        print(f"FAIL: no BM_BasketSlidingTrim runs at {missing} resident "
              f"rows in {args.json_path}")
        return 1
    med = {n: statistics.median(reps[n]) for n in (small, large)}
    print(f"sliding trim ({args.json_path}), per 1 000-row advance:")
    for n in (small, large):
        print(f"  resident={n:>6}: median {med[n] / 1e3:.1f}us over "
              f"{len(reps[n])} reps [{min(reps[n]) / 1e3:.1f}, "
              f"{max(reps[n]) / 1e3:.1f}]")
    if med[small] <= 0:
        print("FAIL: the 30 k median is not positive")
        return 1
    ratio = med[large] / med[small]
    if ratio > MAX_TRIM_RATIO:
        print(f"FAIL: an advance at 300 k resident rows costs {ratio:.2f}x "
              f"one at 30 k, over the {MAX_TRIM_RATIO:.1f}x budget — "
              f"the trim scales with the resident rows")
        return 1
    print(f"OK: 300 k / 30 k per-advance ratio {ratio:.2f}x "
          f"(budget {MAX_TRIM_RATIO:.1f}x)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_path", help="path to a BENCH_*.json artifact")
    parser.add_argument("--multiquery", action="store_true",
                        help="gate BENCH_multiquery.json sharing results")
    parser.add_argument("--linear-road", action="store_true",
                        help="gate BENCH_linear_road.json response times")
    parser.add_argument("--wal", action="store_true",
                        help="gate BENCH_wal.json durability overhead")
    parser.add_argument("--baskets", action="store_true",
                        help="gate BENCH_baskets.json sliding-trim scaling")
    parser.add_argument("--max-wal-ratio", type=float, default=2.5,
                        help="fsync_never median wall budget as a multiple "
                             "of the durability-off median (default 2.5)")
    parser.add_argument("--scenario", default="join")
    parser.add_argument("--n-bw", type=int, default=8)
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--max-p99-ms", type=float, default=None,
                        help="p99 budget for --linear-road (default: the "
                             "artifact's deadline_ms)")
    args = parser.parse_args()

    try:
        with open(args.json_path, "r", encoding="utf-8") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        print(f"FAIL: cannot read {args.json_path}: {e}")
        return 1

    if args.multiquery:
        return check_multiquery(bench, args)
    if args.linear_road:
        return check_linear_road(bench, args)
    if args.wal:
        return check_wal(bench, args)
    if args.baskets:
        return check_baskets(bench, args)
    return check_join(bench, args)


if __name__ == "__main__":
    sys.exit(main())
