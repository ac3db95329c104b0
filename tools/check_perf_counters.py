#!/usr/bin/env python3
"""Runs every perfbench workload traced and compares its exact counters
with tools/perf_counters.txt.

Run from the root of the repository:

    python3 tools/check_perf_counters.py

Each workload listed in the file runs once through perfbench/run.py
(seed 1, 1 s, --trace 1).  Prints one line per counter that differs and
exits 1 if any differs or a run fails; exits 0 when all match.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(ROOT, "tools", "perf_counters.txt")


def load_expected():
    """{workload: {counter: value}} in file order."""
    want = {}
    with open(EXPECTED) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            workload, counter, value = line.split()
            want.setdefault(workload, {})[counter] = int(value)
    return want


def run_traced(workload):
    """The metrics of one traced run, or None when the run fails."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return {k: m["value"] for k, m in json.loads(lines[-1])["metrics"].items()}


def main():
    bad = 0
    for workload, counters in load_expected().items():
        got = run_traced(workload)
        if got is None:
            print("%s: perfbench run failed" % workload)
            bad += 1
            continue
        for counter, value in counters.items():
            if got.get(counter) != value:
                print("%s %s: expected %d, got %s"
                      % (workload, counter, value, got.get(counter)))
                bad += 1
    if bad:
        print("perf counters: %d mismatch(es) against %s"
              % (bad, os.path.relpath(EXPECTED, ROOT)))
        return 1
    print("perf counters: all match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
