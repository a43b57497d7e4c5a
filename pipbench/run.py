#!/usr/bin/env python3
"""Builds pipbench from this checkout, then runs it.

Run from the repository root:

    python3 pipbench/run.py --workload point --seed 1 --seconds 20 --trace 0

The first call configures and builds the engine and the benchmark with
CMake into .bench_build/pipbench (a few minutes); later calls rebuild
incrementally. The arguments go to the pipbench binary unchanged, plus
--trace-out and --out paths under .bench_build/pipbench, so the last line
of standard output is the binary's result JSON. Build output goes to
standard error. The exit code is the binary's, or non-zero (with no
result printed) when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pipbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "pipbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return False
    return True


def option(args, name, default):
    return args[args.index(name) + 1] if name in args[:-1] else default


def main(args):
    if not build():
        print("pipbench: build failed", file=sys.stderr)
        return 2
    workload = option(args, "--workload", "all")
    seed = option(args, "--seed", "1")
    trace = option(args, "--trace", "0")
    stem = os.path.join(BUILD, "%s-seed%s-trace%s" % (workload, seed, trace))
    command = [os.path.join(BUILD, "pipbench")] + args
    if "--out" not in args:
        command += ["--out", stem + ".run.json"]
    if trace != "0" and "--trace-out" not in args:
        command += ["--trace-out", stem + ".trace.json"]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("pipbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
