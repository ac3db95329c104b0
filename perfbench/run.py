#!/usr/bin/env python3
"""Builds the perfbench executable from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload am_micro --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/perfbench (Release); the first run configures
and compiles it, later runs only check that it is up to date.  Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
That line is checked against BENCHMARK.json: --trace 0 must report exactly
the end_to_end metrics and --trace 1 exactly the per_layer metrics.  The
exit code is the benchmark's (0 only when every output checked out), or 1
when the build fails or the result is malformed.  A traced run also writes
its spans to .bench_build/traces/<workload>-seed<n>.json (Chrome trace
format).  See perfbench/README.md.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("am_micro", "splitc_am", "splitc_mpl", "paper_sweep")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
RUN_TIMEOUT_S = 170  # the result must come within 180 s of the start


def build():
    """Configures (once) and builds perfbench; returns its path or None."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    """The metric names BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, expected):
    """Returns a list of problems with the result line (empty when fine).
    `expected` lists the metric names it must carry; None skips that check."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last stdout line is not JSON"]
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return ["result needs exactly correct, attempted, failed, metrics"]
    problems = []
    if not isinstance(res["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool) or res[key] < 0:
            problems.append(key + " is not a whole number")
    if isinstance(res["attempted"], int) and res["attempted"] < 1:
        problems.append("nothing attempted")
    metrics = res["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    for name, m in metrics.items():
        if not NAME.match(name):
            problems.append("bad metric name " + repr(name))
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(name + " needs exactly value and unit")
        elif not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            problems.append(name + " value is not a number")
    if expected is not None and sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s"
                        % (missing, extra))
    return problems


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds within 1..60")

    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: no result within %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    problems = check_result(lines[-1], expected_metrics(args.trace)) if lines else [
        "no output"]
    if problems:
        print("perfbench: malformed result: " + "; ".join(problems), file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
