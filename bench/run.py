#!/usr/bin/env python3
"""Latency-budget benchmark: ``python bench/run.py [--workload NAME]
[--seed N] [--seconds S] [--trace [0|1]] [--smoke]``.

Prints every metric by name with its unit, checks every output, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
Without ``--trace`` the metrics are the six gated end-to-end numbers;
with it, the per-layer numbers (see ``bench/README.md``).  Exit code is
non-zero if any output was wrong or the program counted any error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")]

import host  # noqa: E402

host.cap_threads()  # before anything imports numpy

import metrics  # noqa: E402

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS),
                        help="run only this workload (default: all four, interleaved)")
    parser.add_argument("--seed", type=int, default=0, help="generates every input")
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS,
                        help="measured time per workload, split over rounds x windows")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="per-layer run: tracing on, span files under bench/out/")
    parser.add_argument("--smoke", action="store_true",
                        help="1 round of 2 windows: exercises the command in seconds")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_round(workload, window_s: float, n_windows: int) -> dict:
    """Cold set-up, warm-up, measurement phase, tear-down of one workload."""
    host.reset_peak_rss()
    t0 = time.perf_counter()
    try:
        workload.setup()
        setup_s = time.perf_counter() - t0
        workload.drive(metrics.WARMUP_WINDOWS * window_s, 1)
        phase = workload.drive(window_s * n_windows, n_windows)
        rss_mb = host.peak_rss_mb([os.getpid(), *workload.worker_pids()])
        errors = workload.error_counts()
    finally:
        workload.teardown()
    records = workload.check(phase.records)
    return {
        "setup_s": setup_s,
        "rss_mb": rss_mb,
        "errors": errors,
        "records": records,
        "windows": metrics.cut_windows(records, phase.boundaries, phase.cpu_ms_at,
                                       workload.samples_per_request),
    }


def summarize(name: str, rounds: list) -> dict:
    """Pool a workload's rounds into its metrics and its correctness verdict."""
    windows = [w for r in rounds for w in r["windows"]]
    records = [rec for r in rounds for rec in r["records"]]
    latencies = [(t1 - t0) * 1e3 for t0, t1, ok in records if ok]
    by_submit = sorted(records)
    gaps_us = [(b[0] - a[1]) * 1e6 for a, b in zip(by_submit, by_submit[1:])
               if 0 <= b[0] - a[1] < 0.01]
    errors: dict[str, int] = {}
    for r in rounds:
        for key, value in r["errors"].items():
            errors[key] = errors.get(key, 0) + value
    attempted = len(records)
    failed = sum(1 for _, _, ok in records if not ok)
    return {
        "metrics": metrics.end_to_end(
            windows, metrics.SLO_LIMIT_MS[name],
            [r["setup_s"] for r in rounds], [r["rss_mb"] for r in rounds]),
        "info": {
            "client.p50_ms": metrics.quantile(latencies, 0.50) if latencies else float("nan"),
            "client.p99_ms": metrics.quantile(latencies, 0.99) if latencies else float("nan"),
            # the load generator's own cost: reply seen -> next request sent
            "generator.gap_p50_us": metrics.quantile(gaps_us, 0.50) if gaps_us else 0.0,
            "generator.gap_p99_us": metrics.quantile(gaps_us, 0.99) if gaps_us else 0.0,
        },
        "windows": len(windows),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "correct": failed == 0 and attempted > 0 and not any(errors.values()),
    }


def run_end_to_end(names, args, plan):
    """Returns ``({metric: (value, unit)}, attempted, failed, correct)``."""
    import workloads as wl

    window_s = args.seconds / (metrics.ROUNDS * metrics.WINDOWS_PER_ROUND)
    n_rounds, n_windows = (1, 2) if args.smoke else (metrics.ROUNDS, metrics.WINDOWS_PER_ROUND)
    built = {name: wl.make_workload(name, args.seed, plan) for name in names}
    rounds: dict[str, list] = {name: [] for name in names}
    try:
        # rounds outermost: a workload's windows are spread over the whole
        # run, so a host slow phase spoils a fraction of each, not all of one
        for _ in range(n_rounds):
            for name, workload in built.items():
                rounds[name].append(run_round(workload, window_s, n_windows))
    finally:
        for workload in built.values():
            workload.close()
    gated = {m[0]: m[1:] for m in metrics.END_TO_END}
    flat, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        summary = summarize(name, rounds[name])
        err = getattr(built[name], "reference_max_abs_err", None)
        if err is not None:
            summary["info"]["reference.max_abs_err"] = err
        print(f"\n== {name}: {n_rounds} round(s), {summary['windows']} windows of "
              f"{window_s:.3f} s ==")
        prefix = "" if args.workload else name + "."
        for metric, value in summary["metrics"].items():
            unit, better, bound = gated[metric]
            flat[prefix + metric] = (value, unit)
            print(f"  {metric:<24}{value:>14.6g} {unit:<10} ({better} is better, "
                  f"bound {bound:.2f})")
        for metric, value in summary["info"].items():
            print(f"  {metric:<24}{value:>14.6g} (not gated)")
        print(f"  attempted={summary['attempted']} "
              f"succeeded={summary['attempted'] - summary['failed']} "
              f"failed={summary['failed']} program_errors={summary['errors'] or 0}")
        attempted += summary["attempted"]
        failed += summary["failed"]
        correct = correct and summary["correct"]
    return flat, attempted, failed, correct


def run_per_layer(names, args, plan, fingerprint):
    """Returns ``({metric: (value, unit)}, attempted, failed, correct)``."""
    import layers

    seconds = args.seconds / 10 if args.smoke else args.seconds
    shared, client, tally, errors = layers.run_traced(names, args.seed, plan, seconds,
                                                      fingerprint)
    units = {m[0]: m[1] for m in metrics.PER_LAYER}
    flat = {metric: (value, units[metric]) for metric, value in shared.items()}
    for name in names:  # client.* is per workload: prefixed unless one was asked for
        prefix = "" if args.workload else name + "."
        for metric, value in client[name].items():
            flat[prefix + metric] = (value, units[metric])
    print("\n== per-layer metrics (tracing on; not gated) ==")
    for metric, (value, unit) in flat.items():
        print(f"  {metric:<36}{value:>14.6g} {unit}")
    for name in names:
        print(f"  span file: bench/out/trace_{name}.json")
    print(f"  attempted={tally.attempted} succeeded={tally.attempted - tally.failed} "
          f"failed={tally.failed} program_errors={errors}")
    correct = tally.failed == 0 and tally.attempted > 0 and not any(errors.values())
    return flat, tally.attempted, tally.failed, correct


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    plan = host.pin_harness()
    import workloads  # noqa: F401 - where the program is absent, fail before printing anything
    names = [args.workload] if args.workload else list(metrics.WORKLOADS)
    fingerprint = host.fingerprint(plan, args.seed, args.seconds)
    print("# fingerprint " + json.dumps(fingerprint))
    if args.trace:
        flat, attempted, failed, correct = run_per_layer(names, args, plan, fingerprint)
    else:
        flat, attempted, failed, correct = run_end_to_end(names, args, plan)
    host.reap_resource_tracker()
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in flat.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
