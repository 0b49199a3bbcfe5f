#!/usr/bin/env python3
"""Builds pipebench from source and runs one workload.

usage: python3 pipebench/run.py --workload <paper_pipeline|route_settle|serve_churn>
                                --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the benchmark program (Release, telemetry on) under
.bench_build/; later runs rebuild only what changed. Every workload runs at
BSR_THREADS=2. The last line of stdout is the benchmark program's JSON
result; a traced run also writes its spans as a Perfetto file under
.bench_build/traces/. The exit code is nonzero, with no result printed, when
the build fails or the benchmark program dies, and 1 when a correctness
check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pipebench")
BINARY = os.path.join(BUILD, "pipebench")
WORKLOADS = ("paper_pipeline", "route_settle", "serve_churn")
THREADS = 2
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark program; returns False on failure."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "pipebench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        return 3

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}_seed{args.seed}.json")]
    env = dict(os.environ, BSR_THREADS=str(THREADS))
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"benchmark program exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 4

    lines = done.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(done.stdout)
        log(f"benchmark program exited {done.returncode} without a result")
        return done.returncode or 4
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
