#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm --seed 1 --seconds 30 --trace 0

Workloads: cold, warm, mixed (see perfbench/README.md). The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Build output and progress go to standard error.

An untraced run splits its time over PROCESSES fresh serve_bench processes, each
with its own set-up, and reports the median of their figures: on a shared
machine a process's speed depends on where it lands (cores, memory), which
more time in one process does not average out. A traced run uses one
process for the whole time and reports its per-layer totals.

Before the measuring processes, one serve_bench --prepare process generates
the run's inputs from the seed, so their time and memory stay out of the
figures. The build tree lives under $CARGO_TARGET_DIR (default .bench_build)
in the checkout; the inputs go to a directory beside it that is removed when
the run ends.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cold", "warm", "mixed")
BUILD_TIMEOUT_S = 840
PREPARE_TIMEOUT_S = 30
RUN_TIMEOUT_S = 140
PROCESSES = 15


def build(build_root):
    """Configures and builds perfbench/serve_bench; returns the binary path."""
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "serve_bench",
         "-j", jobs],
    ]
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "serve_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    processes = 1 if args.trace else PROCESSES
    work_dir = os.path.join(build_root, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    results = []
    try:
        subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--work-dir", work_dir, "--prepare", "1"],
            check=True, stdout=sys.stderr, timeout=PREPARE_TIMEOUT_S)
        for _ in range(processes):
            done = subprocess.run(
                [binary, "--workload", args.workload,
                 "--seed", str(args.seed),
                 "--seconds", str(args.seconds / processes),
                 "--trace", str(args.trace), "--work-dir", work_dir],
                stdout=subprocess.PIPE, text=True,
                timeout=RUN_TIMEOUT_S / processes)
            if done.returncode != 0:
                print(f"run.py: serve_bench exited with {done.returncode}",
                      file=sys.stderr)
                return 1
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
            print("run.py: process", len(results), json.dumps(results[-1]),
                  file=sys.stderr)
    except subprocess.CalledProcessError:
        print("run.py: writing the inputs failed", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = {}
    for name, first in results[0]["metrics"].items():
        value = statistics.median(r["metrics"][name]["value"] for r in results)
        metrics[name] = {"value": value, "unit": first["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
