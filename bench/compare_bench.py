#!/usr/bin/env python3
"""Diff two nodedp-bench-v1 JSON artifacts (BENCH_*.json).

Prints a per-benchmark table of baseline vs current real_ns with the
relative delta, so the perf trajectory across revisions is visible in CI
logs. Records are keyed strictly by (suite, record name) — two suites may
reuse a record name without colliding, and a file that repeats a name
within one suite is malformed and rejected outright (a silent
last-one-wins would make the comparison lie about whichever record was
shadowed).

Direction convention: real_ns is a time, so LOWER is better and a
regression is current/baseline above the threshold. Counters whose name
ends in `_speedup` are ratios where HIGHER is better (sweep_speedup,
tiered_speedup, delta_speedup, ...), so for them the comparison is
inverted: a regression is baseline/current above the threshold — i.e. the
speedup *fell* by that factor. Getting this backwards either flags every
improvement as a regression or waves real regressions through, which is
why bench/test_compare_bench.py pins the convention and CI runs it.
Other counters are contextual (sizes, percentiles already covered by
real_ns records) and are not gated, except `target_ns`.

A record may carry its own budget as a `target_ns` counter (the warm
serving reads in bench_perf_substrates do). A current record whose
real_ns exceeds its target_ns misses its budget. That is a regression
under --strict whether or not a baseline exists, since it compares the
current run against its own target. Records without a target are not
affected.

Benchmarks present in only one side are never an error: a record new in
the current run has no baseline to regress against, so it is reported as
"new record (no baseline): skipped" and ignored by --strict. Refresh the
baseline to start gating it.

Exit status: 0 unless --strict is given, in which case any benchmark whose
real_ns grew — or whose `_speedup` counter shrank — by more than
--threshold (default 1.25, i.e. 25%), or whose real_ns is over its own
target_ns, fails the run. CI's smoke timings
are noisy by design, so the bench-smoke step runs without --strict as a
trend line; the bench-regression gate runs --strict with a deliberately
loose threshold to catch only catastrophic regressions.

A missing baseline file is not an error: the first run of a new suite (or
a fresh checkout without bench/baselines/) has nothing to compare against,
so the script says so, checks only the current run's targets, and exits 0
unless --strict is given and a target is missed.

Usage:
  compare_bench.py BASELINE.json CURRENT.json [--threshold 1.25] [--strict]
"""

import argparse
import json
import os
import sys


def load_report(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    schema = doc.get("schema")
    if schema != "nodedp-bench-v1":
        raise SystemExit(f"{path}: unsupported schema {schema!r}")
    suite = doc.get("suite")
    if not isinstance(suite, str) or not suite:
        raise SystemExit(f"{path}: missing suite name")
    benches = {}
    speedups = {}
    targets = {}
    for record in doc.get("benchmarks", []):
        name = record.get("name")
        real_ns = record.get("real_ns")
        if name is None or not isinstance(real_ns, (int, float)):
            continue
        key = (suite, name)
        if key in benches:
            raise SystemExit(
                f"{path}: duplicate record {name!r} in suite {suite!r} — "
                f"each (suite, name) pair must be unique within a file")
        benches[key] = float(real_ns)
        counters = record.get("counters", {})
        if isinstance(counters, dict):
            for counter, value in counters.items():
                if not isinstance(value, (int, float)):
                    continue
                if counter == "target_ns":
                    targets[key] = float(value)
                elif counter.endswith("_speedup"):
                    speedups[(suite, name, counter)] = float(value)
    return doc, benches, speedups, targets


def format_key(key):
    return ":".join(key)


def format_ns(ns):
    if ns >= 1e9:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f}us"
    return f"{ns:.0f}ns"


def check_targets(cur, targets):
    """Prints each record's real_ns against its target_ns; returns misses."""
    misses = []
    if not targets:
        return misses
    print()
    width = max(len(format_key(key)) for key in targets)
    header = (f"{'target (real_ns must not exceed)':<{width}}  "
              f"{'target':>10}  {'current':>10}")
    print(header)
    print("-" * len(header))
    for key in sorted(targets):
        flag = ""
        if cur[key] > targets[key]:
            flag = "  << OVER TARGET"
            misses.append((format_key(key), cur[key] / targets[key]))
        print(f"{format_key(key):<{width}}  {format_ns(targets[key]):>10}  "
              f"{format_ns(cur[key]):>10}{flag}")
    return misses


def main():
    parser = argparse.ArgumentParser(
        description="Diff two nodedp-bench-v1 JSON artifacts.")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold", type=float, default=1.25,
        help="regression ratio: real_ns growth (or _speedup shrinkage) "
             "past this is flagged (default 1.25)")
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero if any benchmark regresses past the threshold")
    args = parser.parse_args()

    if not os.path.exists(args.baseline):
        print(f"no baseline at {args.baseline}: nothing to compare against "
              f"(first run of this suite?); skipping comparison")
        _, cur, _, targets = load_report(args.current)
        misses = check_targets(cur, targets)
        return report_misses(misses, args.strict)

    base_doc, base, base_speedups, _ = load_report(args.baseline)
    cur_doc, cur, cur_speedups, targets = load_report(args.current)

    print(f"baseline: {args.baseline} (git_rev {base_doc.get('git_rev')}, "
          f"threads {base_doc.get('threads')})")
    print(f"current:  {args.current} (git_rev {cur_doc.get('git_rev')}, "
          f"threads {cur_doc.get('threads')})")
    print()

    shared = [key for key in cur if key in base]
    only_base = sorted(key for key in base if key not in cur)
    only_cur = sorted(key for key in cur if key not in base)

    regressions = []
    if shared:
        width = max(len(format_key(key)) for key in shared)
        header = (f"{'benchmark':<{width}}  {'baseline':>10}  "
                  f"{'current':>10}  {'delta':>8}")
        print(header)
        print("-" * len(header))
        for key in shared:
            ratio = cur[key] / base[key] if base[key] > 0 else float("inf")
            delta = (ratio - 1.0) * 100.0
            flag = ""
            if ratio > args.threshold:
                flag = "  << REGRESSION"
                regressions.append((format_key(key), ratio))
            print(f"{format_key(key):<{width}}  {format_ns(base[key]):>10}  "
                  f"{format_ns(cur[key]):>10}  {delta:>+7.1f}%{flag}")
    else:
        print("no benchmarks in common")

    shared_speedups = sorted(k for k in cur_speedups if k in base_speedups)
    if shared_speedups:
        print()
        width = max(len(format_key(key)) for key in shared_speedups)
        header = (f"{'speedup counter (higher is better)':<{width}}  "
                  f"{'baseline':>9}  {'current':>9}  {'delta':>8}")
        print(header)
        print("-" * len(header))
        for key in shared_speedups:
            base_value = base_speedups[key]
            cur_value = cur_speedups[key]
            # Inverted direction: the regression ratio is how far the
            # speedup FELL, so baseline/current — not current/baseline.
            ratio = base_value / cur_value if cur_value > 0 else float("inf")
            delta = (cur_value / base_value - 1.0) * 100.0 \
                if base_value > 0 else float("inf")
            flag = ""
            if ratio > args.threshold:
                flag = "  << REGRESSION"
                regressions.append((format_key(key), ratio))
            print(f"{format_key(key):<{width}}  {base_value:>8.2f}x  "
                  f"{cur_value:>8.2f}x  {delta:>+7.1f}%{flag}")

    for key in only_base:
        print(f"removed: {format_key(key)} ({format_ns(base[key])}) — "
              f"not in current run, not gated")
    for key in only_cur:
        print(f"new record (no baseline): skipped {format_key(key)} "
              f"({format_ns(cur[key])}) — refresh the baseline to gate it")

    misses = check_targets(cur, targets)

    print()
    if regressions:
        print(f"{len(regressions)} benchmark(s) regressed past "
              f"{args.threshold:.2f}x:")
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x")
        if args.strict:
            return 1
        print("(informational: smoke timings are noisy; rerun locally with "
              "--benchmark_min_time before acting)")
    else:
        total = len(shared) + len(shared_speedups)
        print(f"no regressions past {args.threshold:.2f}x "
              f"({total} shared benchmarks)")
    return report_misses(misses, args.strict)


def report_misses(misses, strict):
    """Summarizes target misses; a miss fails the run under --strict."""
    if not misses:
        return 0
    print()
    print(f"{len(misses)} benchmark(s) over their target_ns:")
    for name, ratio in misses:
        print(f"  {name}: {ratio:.2f}x its target")
    return 1 if strict else 0


if __name__ == "__main__":
    sys.exit(main())
