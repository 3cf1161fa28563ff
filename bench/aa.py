#!/usr/bin/env python3
"""A/A check: does the benchmark agree with itself within its own bounds?

Runs two interleaved sets (A1 B1 A2 B2 ...) of N runs of every workload
of the *same* checkout, each run a fresh ``run.py`` process with its own
seed, exactly as the driver invokes it.  Prints, per workload x metric,
each set's median and quartiles, the spread (IQR / median), the gap
between the two medians in the metric's worse direction, and gap / bound.
Exits non-zero if any gap exceeds its bound.  Raw values go to
``bench/out/aa.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median, quantiles

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import metrics  # noqa: E402


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process; returns ``{metric: value}`` from its last line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect outputs: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def describe(values) -> dict:
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid}


def worsening(a_median: float, b_median: float, better: str) -> float:
    """Relative amount by which B is worse than A (negative: better)."""
    change = (b_median - a_median) / a_median
    return change if better == "lower" else -change


def report(values: dict, names) -> int:
    """Print the table for ``values[workload][set][metric] -> [runs]``;
    0 if every gap is within its bound."""
    header = (f"{'workload':<11}{'metric':<22}{'A median [q1, q3]':<38}"
              f"{'B median [q1, q3]':<38}{'spread A/B':<16}{'gap':>8}{'gap/bound':>11}")
    print(header)
    print("-" * len(header))

    def cell(d):
        return f"{d['median']:.5g} [{d['q1']:.5g}, {d['q3']:.5g}]"

    worst, noisy = 0.0, []
    for name in names:
        for metric, _unit, better, bound in metrics.END_TO_END:
            a = describe(values[name]["A"][metric])
            b = describe(values[name]["B"][metric])
            gap = worsening(a["median"], b["median"], better)
            # either order of the two sets must pass, so judge the larger worsening
            ratio = max(gap, worsening(b["median"], a["median"], better)) / bound
            worst = max(worst, ratio)
            if metric != "setup_s" and max(a["spread"], b["spread"]) > bound / 3:
                noisy.append(f"{name}.{metric}")
            print(f"{name:<11}{metric:<22}{cell(a):<38}{cell(b):<38}"
                  f"{a['spread'] * 100:5.2f}%/{b['spread'] * 100:5.2f}%  "
                  f"{gap * 100:+7.2f}%{ratio:>11.2f}")
    print(f"\nworst gap/bound = {worst:.2f} ({'PASS' if worst <= 1 else 'FAIL'}); "
          f"spreads above bound/3: {', '.join(noisy) if noisy else 'none'}")
    return 0 if worst <= 1 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (>= 5)")
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS,
                        help="passed to run.py (default: run_seconds)")
    parser.add_argument("--seed", type=int, default=100, help="first seed; each run gets its own")
    parser.add_argument("--workload", action="append", choices=list(metrics.WORKLOADS),
                        help="restrict to these workloads (repeatable)")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5: quartiles of fewer runs say nothing")
    seconds = args.seconds
    names = args.workload or list(metrics.WORKLOADS)

    values: dict = {name: {"A": {}, "B": {}} for name in names}
    started = time.monotonic()
    for i in range(args.runs):
        for j, label in enumerate("AB"):
            for name in names:
                run = run_once(name, args.seed + 2 * i + j, seconds)
                for metric, value in run.items():
                    values[name][label].setdefault(metric, []).append(value)
            print(f"# set {label} run {i + 1}/{args.runs} done "
                  f"({time.monotonic() - started:.0f} s)", file=sys.stderr, flush=True)

    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    with open(os.path.join(BENCH_DIR, "out", "aa.json"), "w") as fh:
        json.dump({"runs": args.runs, "seconds": seconds, "first_seed": args.seed,
                   "values": values}, fh, indent=1)

    return report(values, names)


if __name__ == "__main__":
    sys.exit(main())
