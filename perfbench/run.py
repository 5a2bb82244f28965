#!/usr/bin/env python3
"""Build and run the probemon benchmark.

Run from anywhere inside a full checkout of the repository:

    python3 perfbench/run.py --workload des_fleet --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (its own CMake project,
which compiles the library sources under src/) into .bench_build/ at the
repository root; later runs only check that the build is current. Build
output goes to stderr, so the last stdout line is the benchmark's JSON
result. The exit code is the benchmark's: 0 when every correctness check
passed. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench_out")
WORKLOADS = ("des_fleet", "des_paper", "rt_monitor")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "probemon.hpp")):
        sys.exit("perfbench: no probemon sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD, *generator,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build()
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out-dir", OUT]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
