"""Per-layer metrics from a traced open-loop run (README.md, "Traced run").

dcbench --trace 1 leaves two files in its output directory:

* trace.json: the engine's Chrome trace (trace::DumpJson) of the open loop,
  with the benchmark's own spans: bench.push (arg = tick * streams + stream),
  bench.sink (arg = query index), bench.adhoc and bench.checkpoint;
* emissions.json: the open-loop schedule, the benchmark's own start time
  of every push (push_start_us[tick * streams + stream]) and, per query,
  its factory id, the stream whose send closes its windows, and (trigger
  tick, sink time) for every emission.

For each emission this module walks the blocking path

    scheduled send -> push call -> triggering basket.append
      -> factory.fire -> sink call

and adds up five stage times, each measured on its own:

* lag: the benchmark's push start minus the scheduled send time;
* push: the triggering basket.append span's duration;
* queue: from that append's end to the producing factory.fire's start;
* fire: the factory.fire span's duration (factory.fire_us);
* handoff: from the fire's end to the sink call (negative when the emitter
  delivers while the fire is still finishing).

The residual, latency minus the five stages, is the blocking-path time no
stage covers: the push call's work before its append starts. An emission
counts as accounted when its spans match, the fire starts after the append
ends, and |residual| <= STAGE_TOLERANCE_US. It also derives each layer's
self time: span duration minus the part of it that child spans on the
same thread cover.
"""

import bisect
import json
import os
import statistics

# Trace timestamps are whole microseconds, so each stage may be off by one;
# the rest of the tolerance is the push call's preamble before its append.
STAGE_TOLERANCE_US = 50.0

# Per-thread ring capacity of the engine's tracer (src/monitor/trace.cc):
# a thread that recorded this many events may have lost its oldest ones.
RING_EVENTS = 8192

SELF_TIME_SPANS = {
    "bench.push": "trace.self_ms.bench_push",
    "basket.append": "trace.self_ms.basket_append",
    "basket.stall": "trace.self_ms.basket_stall",
    "factory.fire": "trace.self_ms.factory_fire",
    "emitter.drain": "trace.self_ms.emitter_drain",
    "bench.sink": "trace.self_ms.bench_sink",
    "bench.adhoc": "trace.self_ms.bench_adhoc",
    "bench.checkpoint": "trace.self_ms.bench_checkpoint",
}


def quantile(values, q):
    """Linear-interpolation quantile, matching dcbench; 0 for no values."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def self_times(events):
    """Sum of self time (µs) per span name over all threads."""
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    totals = {}

    def close(entry):
        end, name, dur, covered = entry
        totals[name] = totals.get(name, 0.0) + max(0.0, dur - covered)

    for spans in by_tid.values():
        # Spans of one thread nest; parents sort first (earlier start, then
        # longer duration), so the stack holds the open ancestors.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, name, dur, covered by direct children]
        for e in spans:
            start, end = e["ts"], e["ts"] + e["dur"]
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack and end <= stack[-1][0]:
                stack[-1][3] += e["dur"]
            stack.append([end, e["name"], e["dur"], 0.0])
        while stack:
            close(stack.pop())
    return totals


def analyze(out_dir):
    """Returns ({metric name: (value, unit)}, {stage: mean µs}) for the
    traced run in out_dir."""
    with open(os.path.join(out_dir, "trace.json")) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    with open(os.path.join(out_dir, "emissions.json")) as f:
        log = json.load(f)

    # Threads whose ring wrapped lost their oldest spans; only emissions
    # scheduled after every such thread's first kept event are matched.
    per_tid = {}
    for e in events:
        per_tid.setdefault(e["tid"], []).append(e["ts"])
    complete_from = 0.0
    for stamps in per_tid.values():
        if len(stamps) >= RING_EVENTS:
            complete_from = max(complete_from, min(stamps))

    pushes = {}
    appends = {}
    fires = {}
    drains = []
    for e in events:
        name = e["name"]
        if name == "bench.push":
            pushes[e["args"]["v"]] = e
        elif name == "basket.append":
            appends.setdefault(e["tid"], []).append(e)
        elif name == "factory.fire":
            fires.setdefault(e["args"]["v"], []).append(e)
        elif name == "emitter.drain":
            drains.append(e["dur"])
    for tid, spans in appends.items():
        spans.sort(key=lambda e: e["ts"])
        appends[tid] = (spans, [e["ts"] for e in spans])
    fire_starts = {}
    for fid, spans in fires.items():
        spans.sort(key=lambda e: e["ts"])
        fire_starts[fid] = [e["ts"] for e in spans]

    start, tick = log["start_us"], log["tick_us"]
    stages = {"lag": [], "push": [], "queue": [], "fire": [], "handoff": []}
    residuals = []   # |residual| of every emission whose spans matched
    per_emission = []
    considered = accounted = 0
    for q in log["queries"]:
        fid = q["factory_id"]
        for trig, sink in q["emissions"]:
            sched = start + trig * tick
            if sched < complete_from:
                continue
            considered += 1
            push_index = trig * log["streams"] + q["trigger_stream"]
            push = pushes.get(push_index)
            if push is None:
                continue
            p0, p1 = push["ts"], push["ts"] + push["dur"]
            tid_appends, starts = appends.get(push["tid"], ([], []))
            i = bisect.bisect_left(starts, p0)
            if i >= len(tid_appends) or tid_appends[i]["ts"] > p1:
                continue
            append = tid_appends[i]
            append_end = append["ts"] + append["dur"]
            # The producing fire is the factory's last one to start before
            # the sink call (fires are milliseconds apart). The emission is
            # visible once the fire's output append ends; the emitter may
            # deliver it while the fire is still finishing.
            starts = fire_starts.get(fid, [])
            j = bisect.bisect_right(starts, sink) - 1
            if j < 0:
                continue
            fire = fires[fid][j]
            out_end = None
            f_spans, f_starts = appends.get(fire["tid"], ([], []))
            k = bisect.bisect_left(f_starts, fire["ts"])
            while (k < len(f_spans) and
                   f_spans[k]["ts"] <= fire["ts"] + fire["dur"]):
                end = f_spans[k]["ts"] + f_spans[k]["dur"]
                if end <= sink + STAGE_TOLERANCE_US:
                    out_end = end
                k += 1
            if out_end is None:
                continue
            push_start = log["push_start_us"][push_index]
            parts = {
                "lag": push_start - sched,
                "push": append["dur"],
                "queue": fire["ts"] - append_end,
                "fire": fire["dur"],
                "handoff": sink - (fire["ts"] + fire["dur"]),
            }
            residual = (sink - sched) - sum(parts.values())
            residuals.append(abs(residual))
            ok = (parts["queue"] >= -STAGE_TOLERANCE_US and
                  abs(residual) <= STAGE_TOLERANCE_US)
            per_emission.append({"query": q["name"], "tick": trig,
                                 "latency_us": sink - sched, **parts,
                                 "residual": residual, "accounted": ok})
            if not ok:
                continue
            accounted += 1
            for k, v in parts.items():
                stages[k].append(v)
    with open(os.path.join(out_dir, "accounting.json"), "w") as f:
        json.dump({"tolerance_us": STAGE_TOLERANCE_US,
                   "emissions": per_emission}, f)

    fire_us = [e["dur"] for spans in fires.values() for e in spans
               if e["ts"] >= complete_from]
    out = {
        "scheduler.queue_wait_us.p50": (quantile(stages["queue"], 0.5), "us"),
        "scheduler.queue_wait_us.p99": (quantile(stages["queue"], 0.99), "us"),
        "factory.fire_us.p50": (quantile(fire_us, 0.5), "us"),
        "factory.fire_us.p99": (quantile(fire_us, 0.99), "us"),
        "emitter.drain_us.p99": (quantile(drains, 0.99), "us"),
        "emitter.handoff_us.p50": (quantile(stages["handoff"], 0.5), "us"),
        "monitor.accounted_ratio": (
            accounted / considered if considered else 0.0, "ratio"),
        "monitor.residual_us.p99": (quantile(residuals, 0.99), "us"),
        "monitor.traced_emissions": (float(considered), "count"),
    }
    totals = self_times(events)
    for span, metric in SELF_TIME_SPANS.items():
        out[metric] = (totals.get(span, 0.0) / 1e3, "ms")
    # Mean stage split of the accounted emissions, for the report.
    means = {k: statistics.fmean(v) if v else 0.0 for k, v in stages.items()}
    return out, means
