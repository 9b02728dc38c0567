#!/usr/bin/env python3
"""Build the end-to-end campaign benchmark from source and run one workload.

    python3 e2ebench/run.py --workload screen --seed 0 --seconds 20 --trace 0

Run from the repository root. The Release build lives in
.bench_build/e2ebench (configured on first use, rebuilt incrementally after);
campaign stores and span files go to .bench_build/work. Build output goes to
stderr; the benchmark's own stdout is passed through, so its last line is
the JSON result. Exits with the benchmark's code, or 3 if the build fails.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK = os.path.join(ROOT, ".bench_build", "work")


def run_child(cmd, **kwargs):
    """Run cmd in its own process group and return its exit code (128 + N
    when signal N ended it). SIGTERM and SIGINT are passed on to the whole
    group, and the child is still waited for."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)

    def forward(signum, _frame):
        try:
            os.killpg(proc.pid, signum)
        except ProcessLookupError:
            pass

    old = {s: signal.signal(s, forward) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        code = proc.wait()
    finally:
        for s, handler in old.items():
            signal.signal(s, handler)
    return 128 - code if code < 0 else code


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs]]
    if os.path.exists(os.path.join(BUILD, "Makefile")):
        steps = steps[1:]
    for step in steps:
        if run_child(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("e2ebench: build failed: " + " ".join(step), file=sys.stderr)
            sys.exit(3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["screen", "hier_chain", "characterize"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--threads", type=int, default=0,
                        help="worker threads (default: nproc; hier_chain: 1)")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt every pass's output (self-test)")
    args = parser.parse_args()

    build()
    cmd = [os.path.join(BUILD, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads), "--root", ROOT, "--work-dir", WORK]
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    sys.stdout.flush()
    sys.exit(run_child(cmd, cwd=ROOT))


if __name__ == "__main__":
    main()
