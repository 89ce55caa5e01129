#!/usr/bin/env python3
"""Proves the --wal gate of check_bench_regression.py can fail.

Feeds the gate synthetic BENCH_wal.json files and checks its exit code:
a run whose fsync=never median is 4.1x durability-off (1.72 ms against
7.12 ms, the overhead of the byte-at-a-time codec) and a run that logged
no WAL records must both fail; a run within the budget must pass, so the
harness itself is not vacuous.

Usage: test_check_bench_regression.py
"""

import json
import os
import subprocess
import sys
import tempfile

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_bench_regression.py")


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


CASES = [
    # (name, bench, expected to pass)
    ("byte-at-a-time codec overhead 4.1x", wal_bench(1.72, 7.12, 25), False),
    ("fsync_never logged nothing", wal_bench(10.0, 12.0, 0), False),
    ("within budget", wal_bench(10.0, 15.0, 205), True),
]


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, bench, should_pass) in enumerate(CASES):
            path = os.path.join(tmp, f"BENCH_wal_{i}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(bench, f)
            rc = subprocess.run([sys.executable, GATE, path, "--wal"],
                                stdout=subprocess.DEVNULL).returncode
            if (rc == 0) != should_pass:
                print(f"FAIL: '{name}': gate exited {rc}, expected "
                      f"{'0' if should_pass else 'non-zero'}")
                failures += 1
            else:
                print(f"ok: '{name}': gate exited {rc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
