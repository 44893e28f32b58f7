#!/usr/bin/env python3
"""Build and run the C-FFS two-clock benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <smallfile|namei-warm|sessions> \
        --seed N --seconds S --trace <0|1>

Builds the `perfbench` package in release mode (into $CARGO_TARGET_DIR,
default `.bench_build` under the checkout root), runs one workload and
relays its output. The last line of standard output is the result JSON.
The exit code is non-zero when the build fails, when any operation or
output check fails, or when the run exceeds its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("smallfile", "namei-warm", "sessions")
# The benchmark itself stays well inside this; the limit only bounds a hang.
RUN_LIMIT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(target, "release", "cffs-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(HERE, "out", f"{args.workload}.spans.jsonl")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
