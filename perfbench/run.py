#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload fs_meta|txn_commit|recovery \\
        --seed N --seconds S --trace 0|1

Builds the C++ benchmark binary from the checkout's sources into
.bench_build/perfbench (Release) on first use, runs it, and prints one
JSON line as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see README.md). Build output and diagnostics go to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import ledger  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("fs_meta", "txn_commit", "recovery")


def build():
    """Configures and builds the binary (a no-op once it is up to date);
    raises on failure."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_binary(workload, seed, seconds, trace):
    """Runs the binary once and returns its raw JSON record."""
    out = os.path.join(BUILD, f"raw-{workload}-s{seed}-t{trace}.json")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out]
    subprocess.run(cmd, stdout=sys.stderr, check=True)
    with open(out) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
        raw = run_binary(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(ledger.summarize(raw)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
