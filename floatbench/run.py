#!/usr/bin/env python3
"""Builds the floatbench benchmark from source and runs one workload.

Usage (from the repository root):

    python3 floatbench/run.py --workload fig12_cifar10 --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; the first call configures and compiles, later calls only
rebuild what changed. Every call runs the benchmark's self-test before the
benchmark. Build and self-test output go to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, without a result,
when the build or the self-test fails.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("fig12_cifar10", "speech_chaos_durable", "real_mlp_float")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp_dir = os.path.join(build_dir, "tmp")

    def step(cmd):
        # Build and self-test chatter stays off stdout.
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not step(["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            print("floatbench: configure failed", file=sys.stderr)
            return 1
    if not step(["cmake", "--build", build_dir, "-j4",
                 "--target", "floatbench", "floatbench_selftest"]):
        print("floatbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(tmp_dir, exist_ok=True)
    if not step([os.path.join(build_dir, "floatbench_selftest"), tmp_dir]):
        print("floatbench: self-test failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([
        os.path.join(build_dir, "floatbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tmpdir", tmp_dir,
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
