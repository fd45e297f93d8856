#!/usr/bin/env python3
"""Build the benchmark from this checkout, then run one workload.

    python3 perfbench/run.py --workload offline|net_bulk \
        [--seed N] [--seconds S] [--trace 0|1] [--failpoints SPEC] \
        [--oracle-skew K]

The library under src/ and the benchmark under perfbench/ are compiled
into .bench_build/perfbench (CMake, Release) before every run; an
up-to-date tree makes that a no-op. The benchmark's stdout is passed
through: readable lines, then one JSON object as the last line. The exit
code is the benchmark's own: 0 only when every output check passed.
Build output goes to stderr. Without the library sources (a directory
holding only the benchmark) the script fails before printing a result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# Compiler and benchmark scratch files stay inside the checkout.
SCRATCH = os.path.join(ROOT, ".bench_build", "tmp")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "llmp.h")):
        fail("library sources not found at %s; run from a full checkout"
             % os.path.join(ROOT, "src"))
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    os.makedirs(SCRATCH, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append([cmake, "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", BUILD, "-j", jobs, "--target",
                  "perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--failpoints")
    parser.add_argument("--oracle-skew", type=int)
    args = parser.parse_args()

    env = dict(os.environ, TMPDIR=SCRATCH)
    build(env)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.failpoints:
        command += ["--failpoints", args.failpoints]
    if args.oracle_skew is not None:
        command += ["--oracle-skew", str(args.oracle_skew)]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
