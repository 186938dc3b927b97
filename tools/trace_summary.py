#!/usr/bin/env python3
"""Summarize an ADEPT Chrome trace_event JSON (written via ADEPT_TRACE).

Validates the trace format, then prints the top-N span names ranked by
total time and by self time (total minus time covered by nested spans on
the same thread). Optionally validates a metrics JSON (ADEPT_METRICS_FILE)
alongside, and can assert that specific span families are present — the CI
telemetry smoke step uses both:

    trace_summary.py trace.json --metrics metrics.json \
        --require serve.request --require plan. --require comm.allreduce \
        --require train.step --require-metric ag.alloc_calls

Exit codes: 0 ok, 1 malformed input, 2 a --require substring matched no
span name or a --require-metric name is not an instrument of the metrics
JSON.
"""

import argparse
import json
import sys
from collections import defaultdict


def fail(msg):
    print(f"trace_summary: {msg}", file=sys.stderr)
    sys.exit(1)


def load_trace(path):
    """Load and validate a Chrome trace_event file; returns complete events."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: expected an object with a 'traceEvents' array")
    raw = doc["traceEvents"]
    if not isinstance(raw, list):
        fail(f"{path}: 'traceEvents' is not an array")
    events = []
    for i, ev in enumerate(raw):
        if not isinstance(ev, dict):
            fail(f"{path}: traceEvents[{i}] is not an object")
        if ev.get("ph") != "X":
            continue  # only complete events are emitted today; skip others
        for key in ("name", "ts", "dur", "tid"):
            if key not in ev:
                fail(f"{path}: traceEvents[{i}] missing '{key}'")
        if not isinstance(ev["name"], str):
            fail(f"{path}: traceEvents[{i}] name is not a string")
        if ev["ts"] < 0 or ev["dur"] < 0:
            fail(f"{path}: traceEvents[{i}] has negative ts/dur")
        events.append(ev)
    return events


def summarize(events):
    """Per-name totals and self time (child spans subtracted, per thread)."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    count = defaultdict(int)
    by_tid = defaultdict(list)
    for ev in events:
        total[ev["name"]] += ev["dur"]
        count[ev["name"]] += 1
        by_tid[ev["tid"]].append(ev)
    # Sweep each thread in start order with a stack of open spans; each
    # span's duration is charged to its innermost enclosing span, so a
    # parent's self time is its duration minus its direct children only
    # (grandchildren are already inside the children).
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end_ts, name, direct_child_total]
        for ev in evs:
            start, end = ev["ts"], ev["ts"] + ev["dur"]
            while stack and stack[-1][0] <= start:
                done = stack.pop()
                self_time[done[1]] -= done[2]
            if stack:
                stack[-1][2] += ev["dur"]
            self_time[ev["name"]] += ev["dur"]
            stack.append([end, ev["name"], 0.0])
        while stack:
            done = stack.pop()
            self_time[done[1]] -= done[2]
    return total, self_time, count


def check_metrics(path):
    """Validate a metrics JSON dump; returns its instrument names."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    for key in ("counters", "gauges", "histograms"):
        if key not in doc or not isinstance(doc[key], dict):
            fail(f"{path}: missing '{key}' object")
    for name, h in doc["histograms"].items():
        for field in ("count", "p50", "p90", "p99", "mean", "max"):
            if field not in h:
                fail(f"{path}: histogram '{name}' missing '{field}'")
    n = sum(len(doc[k]) for k in ("counters", "gauges", "histograms"))
    print(f"metrics ok: {len(doc['counters'])} counters, "
          f"{len(doc['gauges'])} gauges, {len(doc['histograms'])} histograms "
          f"({n} instruments)")
    return {name for k in ("counters", "gauges", "histograms") for name in doc[k]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="Chrome trace_event JSON (ADEPT_TRACE output)")
    ap.add_argument("-n", type=int, default=15, help="rows per ranking")
    ap.add_argument("--metrics", help="also validate a metrics JSON dump")
    ap.add_argument("--require", action="append", default=[],
                    help="fail (exit 2) unless some span name contains this "
                         "substring; repeatable")
    ap.add_argument("--require-metric", action="append", default=[],
                    metavar="NAME",
                    help="fail (exit 2) unless the --metrics JSON has an "
                         "instrument of exactly this name; repeatable")
    args = ap.parse_args()
    if args.require_metric and not args.metrics:
        ap.error("--require-metric needs --metrics")

    events = load_trace(args.trace)
    total, self_time, count = summarize(events)
    tids = {ev["tid"] for ev in events}
    print(f"trace ok: {len(events)} spans, {len(total)} names, "
          f"{len(tids)} threads")

    missing = [req for req in args.require
               if not any(req in name for name in total)]
    missing_metrics = []
    if args.metrics:
        names = check_metrics(args.metrics)
        missing_metrics = [m for m in args.require_metric if m not in names]

    for title, ranking in (("total", total), ("self", self_time)):
        print(f"\ntop {min(args.n, len(ranking))} spans by {title} time:")
        rows = sorted(ranking.items(), key=lambda kv: -kv[1])[:args.n]
        width = max((len(name) for name, _ in rows), default=4)
        for name, us in rows:
            print(f"  {name:<{width}}  {us / 1e3:10.3f} ms  x{count[name]}")

    for req in missing:
        print(f"trace_summary: no span name contains '{req}'", file=sys.stderr)
    for name in missing_metrics:
        print(f"trace_summary: no metric named '{name}'", file=sys.stderr)
    if missing or missing_metrics:
        sys.exit(2)


if __name__ == "__main__":
    main()
