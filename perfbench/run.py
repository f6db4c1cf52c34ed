#!/usr/bin/env python3
"""Builds and runs the paper-scale service benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload <update_batches|insert_batches|query_churn>
                           --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (and with it the
repository's libraries under src/) into .bench_build/perfbench; later
runs only rebuild what changed. The benchmark binary then runs from the
repository root. Its output is passed through unchanged; the last line
is the JSON result. Exits non-zero, without a result, when the build or
the run fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "sdelta_perfbench"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "sdelta_perfbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return False
    return BINARY.exists()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["update_batches", "insert_batches",
                                 "query_churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        if not build():
            print("perfbench: build failed", file=sys.stderr)
            return 1
        done = subprocess.run(
            [str(BINARY), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        print(f"perfbench: benchmark exited with {done.returncode}",
              file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        print("perfbench: no JSON result line", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
