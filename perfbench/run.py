#!/usr/bin/env python3
"""Builds the repository benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload corpus|giant|idioms|service \
        --seed N --seconds S --trace 0|1

The analyzer libraries and the benchmark binary are built in Release mode
under $CARGO_TARGET_DIR (default .bench_build), then the binary runs from
the checkout root with its scratch files under .bench_run. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run that does not finish in this time is killed and reported as failed.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["corpus", "giant", "idioms", "service"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        # The binary keeps its scratch files under .bench_run relative to
        # the checkout root, which also keeps the serve socket path short
        # wherever the checkout lives.
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
