#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload case_study --seed 1 --seconds 10 --trace 0

The program is compiled (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only
re-check the build. Build output goes to stderr, so the last line of
stdout is always the program's JSON result. Any build or run failure
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_step(cmd, timeout):
    # Build chatter goes to stderr; stdout is reserved for the result.
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout).returncode


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        rc = run_step(["cmake", "-S", HERE, "-B", out,
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if rc != 0:
            return rc
    return run_step(["cmake", "--build", out, "--target", "perfbench",
                     "-j", jobs], BUILD_TIMEOUT_S)


def main():
    out = build_dir()
    try:
        rc = build(out)
    except (OSError, subprocess.TimeoutExpired) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 2
    if rc != 0:
        print("perfbench: build failed (exit %d)" % rc, file=sys.stderr)
        return 2
    binary = os.path.join(out, "perfbench")
    workdir = os.path.join(out, "work")
    cmd = [binary, "--workdir", workdir] + sys.argv[1:]
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
