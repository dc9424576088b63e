#!/usr/bin/env python3
"""Benchmark of record for closed-loop GeneSys evolution.

    python3 perfbench/run.py --workload airraid-4t --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds perfbench/ (and through it the
genesys library) in Release mode under .bench_build/, then runs one
pinned workload: airraid-4t, lander-hw-1t or cartpole-ckpt-2t (their
configurations are in perfbench/src/bench.cc).

A run evolves a fixed set of System seeds derived from --seed through a
fixed number of identical passes and keeps each generation's fastest
pass. The pass counts fill about 30 seconds on a 4-vCPU machine;
--seconds only cuts a run short if it would take more than twice that.

--trace 0 prints the end-to-end metrics (tracing off); --trace 1 prints
the per-layer metrics from the traced run and writes its spans to
.bench_build/perfbench-out/<workload>-seed<N>-traced/spans.json. The
last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Build output and diagnostics go to standard error. Exit status is 0
only when the build succeeded and every correctness check passed.

Every inherited GENESYS_* variable is removed from the benchmark's
environment, so a CI matrix variable cannot change what a workload
measures.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ("airraid-4t", "lander-hw-1t", "cartpole-ckpt-2t")
# Longer than any run needs; a run that exceeds it is killed and fails.
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; returns the binary path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def pinned_environment():
    env = dict(os.environ)
    cleared = sorted(k for k in env if k.startswith("GENESYS_"))
    for k in cleared:
        del env[k]
    if cleared:
        log("cleared inherited " + ", ".join(cleared))
    env["GENESYS_LOG_LEVEL"] = "warn"
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, env=pinned_environment(), cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
