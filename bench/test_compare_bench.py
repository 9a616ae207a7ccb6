#!/usr/bin/env python3
"""Unit check for bench/compare_bench.py — pins the direction convention.

real_ns is a time (lower is better): growth past the threshold regresses.
`_speedup` counters are ratios (higher is better): SHRINKAGE past the
threshold regresses, and growth never does. A record's own `target_ns`
counter is a budget: real_ns over it fails --strict with or without a
baseline, and a record without one is unaffected. This script exists
because the
inverted direction is exactly the kind of bug a green CI run hides — a
gate that flags improvements and waves regressions through still exits 0
on a quiet day. Run: python3 bench/test_compare_bench.py (exits non-zero
on the first failed case). CI runs it in the bench-regression job.
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "compare_bench.py")


def write_report(path, records):
    doc = {
        "schema": "nodedp-bench-v1",
        "suite": "unittest",
        "benchmarks": records,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def record(name, real_ns, counters=None):
    rec = {"name": name, "real_ns": real_ns, "cpu_ns": real_ns,
           "iterations": 1}
    if counters:
        rec["counters"] = counters
    return rec


def run_compare(base, cur, *flags):
    proc = subprocess.run(
        [sys.executable, SCRIPT, base, cur, *flags],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


failures = []


def check(label, condition, output=""):
    if condition:
        print(f"  ok: {label}")
    else:
        print(f"  FAIL: {label}")
        if output:
            print("  ---- compare_bench output ----")
            print("  " + "\n  ".join(output.splitlines()))
        failures.append(label)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "base.json")
        cur = os.path.join(tmp, "cur.json")

        print("case: real_ns growth past threshold fails --strict")
        write_report(base, [record("A/time", 1000)])
        write_report(cur, [record("A/time", 2000)])
        code, out = run_compare(base, cur, "--strict", "--threshold", "1.5")
        check("exit non-zero", code != 0, out)
        check("flagged as regression", "REGRESSION" in out, out)

        print("case: real_ns shrinkage (improvement) passes --strict")
        write_report(cur, [record("A/time", 500)])
        code, out = run_compare(base, cur, "--strict", "--threshold", "1.5")
        check("exit zero", code == 0, out)

        print("case: _speedup shrinkage past threshold fails --strict")
        write_report(base, [record("A/time", 1000,
                                   {"sweep_speedup": 6.0})])
        write_report(cur, [record("A/time", 1000,
                                  {"sweep_speedup": 2.0})])
        code, out = run_compare(base, cur, "--strict", "--threshold", "1.5")
        check("exit non-zero", code != 0, out)
        check("names the counter", "sweep_speedup" in out, out)

        print("case: _speedup growth (improvement) passes --strict")
        write_report(cur, [record("A/time", 1000,
                                  {"sweep_speedup": 18.0})])
        code, out = run_compare(base, cur, "--strict", "--threshold", "1.5")
        check("exit zero (growth is not a regression)", code == 0, out)

        print("case: non-speedup counters are not gated")
        write_report(base, [record("A/time", 1000, {"p99_ns": 10.0})])
        write_report(cur, [record("A/time", 1000, {"p99_ns": 1e9})])
        code, out = run_compare(base, cur, "--strict", "--threshold", "1.5")
        check("exit zero", code == 0, out)

        print("case: new record without baseline is skipped")
        write_report(base, [record("A/time", 1000)])
        write_report(cur, [record("A/time", 1000), record("A/fresh", 9999)])
        code, out = run_compare(base, cur, "--strict", "--threshold", "1.5")
        check("exit zero", code == 0, out)
        check("reported as new", "new record" in out, out)

        print("case: duplicate record name is rejected")
        write_report(base, [record("A/time", 1000), record("A/time", 2000)])
        write_report(cur, [record("A/time", 1000)])
        code, out = run_compare(base, cur)
        check("exit non-zero", code != 0, out)
        check("explains duplicate", "duplicate record" in out, out)

        print("case: missing baseline file exits zero")
        code, out = run_compare(os.path.join(tmp, "nope.json"), cur)
        check("exit zero", code == 0, out)

        print("case: real_ns under its target_ns passes --strict")
        write_report(base, [record("W/read", 1000, {"target_ns": 10000})])
        write_report(cur, [record("W/read", 1000, {"target_ns": 10000})])
        code, out = run_compare(base, cur, "--strict")
        check("exit zero", code == 0, out)

        print("case: real_ns over its target_ns fails --strict")
        write_report(cur, [record("W/read", 12000, {"target_ns": 10000})])
        code, out = run_compare(base, cur, "--strict", "--threshold", "100")
        check("exit non-zero", code != 0, out)
        check("flagged as over target", "OVER TARGET" in out, out)
        code, out = run_compare(base, cur)
        check("exit zero without --strict", code == 0, out)

        print("case: over-target record fails --strict without a baseline")
        code, out = run_compare(os.path.join(tmp, "nope.json"), cur,
                                "--strict")
        check("exit non-zero", code != 0, out)
        check("names the record", "W/read" in out, out)

        print("case: a record without target_ns is not target-gated")
        write_report(base, [record("W/read", 1000)])
        write_report(cur, [record("W/read", 1000), record("W/slow", 1e9)])
        code, out = run_compare(base, cur, "--strict")
        check("exit zero", code == 0, out)
        code, out = run_compare(os.path.join(tmp, "nope.json"), cur,
                                "--strict")
        check("exit zero without a baseline", code == 0, out)

    if failures:
        print(f"\n{len(failures)} check(s) FAILED")
        return 1
    print("\nall compare_bench direction-convention checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
