#!/usr/bin/env python3
"""The DataCell end-to-end benchmark (see README.md in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload lr --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20
    python3 perfbench/run.py --self-test

It builds perfbench/ (and with it the engine from src/) in Release mode
under .bench_build/perfbench, runs the dcbench harness on one workload, and
prints every metric by name and unit. With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones
(from a traced run plus analyze_trace.py). The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the full result, stamped with build type, CPU count, revision, seed,
rates and run length, is written to .bench_build/perfbench/results/.
The exit code is non-zero when any emission or one-time query answer was
wrong, or when the benchmark could not be built or run.
"""

import argparse
import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys

import analyze_trace
import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dcbench")
RUN_TIMEOUT_S = 175
# Long enough for every lr expressway to close a window in each of the
# eight open-loop segments.
SMOKE_SECONDS = 8.0


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        die("engine sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = [["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed (full log: .bench_build/perfbench/build.log)")


def revision():
    """Git revision when the tree is a checkout, else a digest of the
    engine and benchmark sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    paths = []
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            paths += [os.path.join(dirpath, name) for name in filenames]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def run_dcbench(workload, seed, seconds, trace, extra=(), quiet=False):
    """Runs dcbench; returns (exit code, result dict or None, out dir)."""
    out_dir = os.path.join(BUILD, "out", f"{workload}-trace{int(trace)}")
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out", out_dir, "--rev", revision(), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if not quiet:
        print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        return proc.returncode, None, out_dir
    return proc.returncode, result, out_dir


def add_trace_metrics(result, out_dir, quiet=False):
    metrics, stage_means = analyze_trace.analyze(out_dir)
    for name, (value, unit) in metrics.items():
        result["layer"][name] = {"value": value, "unit": unit}
    result["stage_means_us"] = stage_means
    if not quiet:
        print("\ntrace-derived (open loop)")
        for name, (value, unit) in metrics.items():
            print(f"  {name:34} {value:16.6g} {unit}")
        split = ", ".join(f"{k} {v:.1f}" for k, v in stage_means.items())
        print(f"  mean latency split of accounted emissions (us): {split}")
        print(f"  an emission is accounted when latency minus its stages is "
              f"within {analyze_trace.STAGE_TOLERANCE_US:.0f} us; per "
              f"emission: "
              f"{os.path.relpath(os.path.join(out_dir, 'accounting.json'), ROOT)}"
              f", trace: trace.json next to it")


def measure(workload, seed, seconds, trace, extra=(), quiet=False):
    """Runs one workload; returns (exit code, result dict)."""
    code, result, out_dir = run_dcbench(workload, seed, seconds, trace,
                                        extra, quiet)
    if result is None:
        die(f"dcbench {workload} printed no result (exit code {code})")
    if trace and result["correct"]:
        add_trace_metrics(result, out_dir, quiet)
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(
            results_dir, f"{workload}-seed{seed}-trace{int(trace)}.json"),
            "w") as f:
        json.dump(result, f, indent=1)
    return code, result


def result_line(result, spec, trace):
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    source = result["layer"] if trace else result["metrics"]
    missing = [n for n in names if n not in source]
    if missing:
        die(f"metrics missing from the run: {missing}")
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: source[n] for n in names},
    })


# ---------------------------------------------------------------------------
# Self-test: every guard must be able to fail.
# ---------------------------------------------------------------------------

def self_test(spec):
    failures = []

    def check(ok, what):
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        if not ok:
            failures.append(what)

    smoke = {}
    for w in [x["name"] for x in spec["workloads"]]:
        code, r = measure(w, 7, SMOKE_SECONDS, False, quiet=True)
        smoke[w] = r
        check(code == 0 and r["correct"] and r["failed"] == 0 and
              r["attempted"] > 0, f"{w} smoke run is correct with no failures")
        check(all(r["metrics"].get(m["name"], {}).get("value", 0) > 0
                  for m in spec["end_to_end"]),
              f"{w} smoke run reports every end-to-end metric, all non-zero")

    code, r = measure("online_analytics", 7, SMOKE_SECONDS, True, quiet=True)
    check(code == 0 and all(m["name"] in r["layer"] for m in spec["per_layer"]),
          "traced smoke run reports every per-layer metric")
    check(r["layer"]["monitor.accounted_ratio"]["value"] > 0.5,
          "traced stage times account for most traced emissions")
    # A push call that spends 200 us before its append leaves a residual
    # no stage covers: no emission may count as accounted then.
    out_dir = os.path.join(BUILD, "out", "online_analytics-trace1")
    with open(os.path.join(out_dir, "emissions.json")) as f:
        log = json.load(f)
    log["push_start_us"] = [t - 200 if t else t for t in log["push_start_us"]]
    with open(os.path.join(out_dir, "emissions.json"), "w") as f:
        json.dump(log, f)
    metrics, _ = analyze_trace.analyze(out_dir)
    check(metrics["monitor.accounted_ratio"][0] == 0,
          "a 200 us gap on the blocking path fails the stage accounting")

    code, r = measure("lr", 7, SMOKE_SECONDS, False, ["--corrupt-emission"],
                      quiet=True)
    check(code != 0 and not r["correct"],
          "a corrupted emission checksum is flagged and fails the run")

    base = [copy.deepcopy(r) for r in smoke.values() for _ in range(3)]
    rows, problems = compare.compare(base, copy.deepcopy(base), spec)
    check(not problems and not any(row[-1] for row in rows),
          "identical runs compare clean")
    for m in spec["end_to_end"]:
        new = copy.deepcopy(base)
        factor = 1 + 2 * m["bound"]
        for run in new:
            v = run["metrics"][m["name"]]
            v["value"] = v["value"] * factor if m["better"] == "lower" \
                else v["value"] / factor
        rows, _ = compare.compare(base, new, spec)
        flagged = {(row[0], row[1]) for row in rows if row[-1]}
        check(flagged == {(w, m["name"]) for w in smoke},
              f"a worsened {m['name']} is flagged on every workload, "
              f"nothing else is")
    wrong = copy.deepcopy(base)
    wrong[0]["correct"] = False
    _, problems = compare.compare(base, wrong, spec)
    check(bool(problems), "a wrong run is reported by the comparison")
    print(f"\nself-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced then traced")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        die("BENCHMARK.json not found at the repository root")
    spec = compare.load_spec()
    seconds = args.seconds or spec["run_seconds"]
    build()
    if args.self_test:
        return self_test(spec)
    if args.all:
        worst = 0
        for w in [x["name"] for x in spec["workloads"]]:
            for trace in (0, 1):
                code, result = measure(w, args.seed, seconds, trace)
                worst = max(worst, 0 if code == 0 and result["correct"] else 1)
        return worst
    if args.workload not in [x["name"] for x in spec["workloads"]]:
        die(f"--workload must be one of {[x['name'] for x in spec['workloads']]}")
    code, result = measure(args.workload, args.seed, seconds, args.trace)
    print(result_line(result, spec, args.trace))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
