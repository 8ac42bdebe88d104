#!/usr/bin/env python3
"""Builds the selgen benchmark from source and runs one workload.

Usage, from the root of a selgen checkout:

    python3 perfbench/run.py --workload compile|serve|synth --seed N \
        --seconds S --trace 0|1

The first run configures and builds perfbench/ (which compiles the
selgen libraries from src/) into .bench_build/perfbench; later runs
only rebuild what changed. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. The exit
code is the benchmark's: 0 when every output checked out.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "selgen-perfbench")
RUN_TIMEOUT_S = 175


def run_quietly(command):
    """Runs a build step; on failure shows its output and exits 1."""
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-8000:])
        sys.stderr.write("error: build step failed: %s\n" % " ".join(command))
        sys.exit(1)


def configured_source():
    """The source directory the build tree was configured for, if any."""
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    source = configured_source()
    if source is not None and os.path.realpath(source) != os.path.realpath(HERE):
        # A build tree copied along with a checkout would still compile
        # the sources it was configured for.
        shutil.rmtree(BUILD_DIR)
        source = None
    if source is None:
        run_quietly(["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"])
    run_quietly(["cmake", "--build", BUILD_DIR, "--target", "selgen-perfbench",
                 "-j", str(os.cpu_count() or 1)])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["compile", "serve", "synth"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--data-dir", os.path.join(HERE, "data"),
               "--work-dir", os.path.join(ROOT, ".bench_build", "work")]
    process = subprocess.Popen(command, cwd=ROOT)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        sys.stderr.write("error: the benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
