#!/usr/bin/env python3
"""Self-test of the end-to-end campaign benchmark.

    python3 e2ebench/selftest.py

Run from the repository root. Checks that
  1. every metric name in BENCHMARK.json matches [A-Za-z0-9_.-]+;
  2. every workload, run briefly with --trace 0 and with --trace 1, returns a
     correct result with exactly the end-to-end (resp. per-layer) metrics
     BENCHMARK.json declares, each with its declared unit;
  3. on every workload a failed output check (--inject-mismatch) exits
     non-zero and reports "correct": false.
Takes a few minutes: the traced runs include the per-layer probes.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"),
           "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    declared = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for metric in declared[0] + declared[1]:
        if not NAME.match(metric["name"]):
            failures.append("bad metric name %r" % metric["name"])

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            code, result, log = run(workload, trace)
            where = "%s --trace %d" % (workload, trace)
            if code != 0 or result is None or not result["correct"]:
                failures.append("%s: exit %d, result %r\n%s" % (where, code, result, log[-3000:]))
                continue
            want = {m["name"]: m["unit"] for m in declared[trace]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append("%s: metrics differ from BENCHMARK.json: missing %s, extra %s, "
                                "unit mismatches %s" % (
                                    where, sorted(set(want) - set(got)),
                                    sorted(set(got) - set(want)),
                                    sorted(k for k in set(got) & set(want) if got[k] != want[k])))
            print("ok   %s (%d metrics)" % (where, len(got)), flush=True)

        code, result, log = run(workload, 0, "--inject-mismatch")
        if code == 0 or result is None or result["correct"]:
            failures.append("%s --inject-mismatch: exit %d, result %r\n%s" % (
                workload, code, result, log[-3000:]))
        else:
            print("ok   %s --inject-mismatch (exit %d)" % (workload, code), flush=True)

    for failure in failures:
        print("FAIL " + failure)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
