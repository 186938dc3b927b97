#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload search_k16 --seed 1 --seconds 20 --trace 0

Builds perfbench/ (a CMake package over the repository's library) into
.bench_build/ under the repository root, or into $CARGO_TARGET_DIR when that
is set, runs the harness, checks its outputs, prints a report, and prints as
its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, and the spans go to a Chrome
trace under the build directory (tools/trace_summary.py reads it). Metric
definitions are in perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("search_k16", "search_k16_r4", "deploy_serve")
HARNESS_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850
# Set-up time varies more between processes than within one, so besides the
# measured run, this many processes time the set-up alone; setup_s is the
# median over all of them of each process's median.
SETUP_PROCESSES = 6


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Content hash of the sources the benchmark builds, for the runner
    fingerprint (the checkout need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".inc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def build(build_dir):
    """Configure (once) and build the harness; build output goes to stderr."""
    if not shutil.which("cmake"):
        fail("cmake not found")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench_harness",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench_harness")


def run_harness(exe, args, out_dir, setup_only=False):
    tag = f"{args.workload}_s{args.seed}_t{args.trace}" + ("_setup" if setup_only else "")
    raw_path = os.path.join(out_dir, f"raw_{tag}.json")
    trace_path = os.path.join(out_dir, f"trace_{tag}.json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--work-dir", out_dir]
    if setup_only:
        cmd += ["--setup-only", "1", "--trace", "0"]
    elif args.trace:
        cmd += ["--trace-file", trace_path]
    if os.path.exists(raw_path):
        os.remove(raw_path)
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s", 1)
    if code != 0:
        fail(f"harness exited with {code}", 1)
    with open(raw_path, encoding="utf-8") as f:
        return json.load(f), trace_path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no ADEPT source tree at {ROOT}")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        exe = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 1)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    setup_runs = [run_harness(exe, args, out_dir, setup_only=True)[0]
                  for _ in range(SETUP_PROCESSES)]
    raw, trace_path = run_harness(exe, args, out_dir)

    attempted, failed, reasons = stats.combine_ops(r["ops"] for r in setup_runs + [raw])
    setup_s = statistics.median(statistics.median(r["result"]["setup_s"])
                                for r in setup_runs + [raw])
    named, generic, notes, rows = {}, {}, [], []
    if not args.trace:
        summarize = (stats.deploy_metrics if args.workload == "deploy_serve"
                     else stats.search_metrics)
        named, generic, notes, rows = summarize(raw)

    fp = dict(raw["fingerprint"])
    fp["commit"] = git_commit() or f"src-{source_digest()}"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("fingerprint: " + " ".join(f"{k}={v}" for k, v in fp.items()))

    if args.trace:
        values = stats.layer_metrics(raw)
        table = [(name, unit) for name, unit, _ in stats.PER_LAYER]
        for name, unit in table:
            print(f"  {name:<36} {values[name]:14.6g} {unit}")
        print(f"  trace: {raw['spans']:g} spans in {os.path.relpath(trace_path, ROOT)}")
    else:
        values = dict(generic, setup_s=setup_s, peak_rss_mb=raw["peak_rss_mb"])
        table = [(name, unit) for name, unit, _, _ in stats.END_TO_END]
        named = dict(named, setup_s=(setup_s, "s"),
                     peak_rss_mb=(raw["peak_rss_mb"], "MB"))
        for name, (value, unit) in named.items():
            print(f"  {name:<28} {value:14.6g} {unit}")
        for note in notes:
            print(f"    {note}")
        for row in rows:
            print("    {phase:<7} {rate:8.0f}/s sent {sent:6.0f} ok {ok:6.0f} "
                  "failed {failed:3.0f} backlog {backlog_end:5.0f} p99 {p99} ms "
                  "lag p99 {lag} ms fill {fill:.2f} steal {steal:.1%} {verdict}".format(
                      **row,
                      p99=f"{row['p99_ms']:.3f}" if row["p99_ms"] is not None else "-",
                      lag=f"{row['lag_p99_ms']:.3f}" if row["lag_p99_ms"] is not None else "-",
                      verdict="holds" if row["holds"] else "breaks"))
    ratio = stats.fail_ratio(attempted, failed)
    why = ", ".join(f"{k} {v:g}" for k, v in reasons.items())
    print(f"  fail_ratio {ratio:.6g} ({failed}/{attempted} operations"
          f"{'; ' + why if why else ''})")

    values_ok = all(isinstance(values[name], (int, float)) and math.isfinite(values[name])
                    for name, _ in table)
    result = {
        "correct": failed == 0 and values_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }
    with open(os.path.join(out_dir, f"result_{args.workload}_s{args.seed}_t{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump({"fingerprint": fp, "named": named, "notes": notes, "rungs": rows,
                   **result}, f, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
