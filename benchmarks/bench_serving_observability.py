"""Observability overhead: request tracing must be ~free on the hot path.

Telemetry only earns its place in the serving stack if turning it on
does not move the latency it is supposed to measure.  The registry
counters are always on (they replaced the old ad-hoc stats, same lock
discipline), so the knob that matters is **trace sampling**: at the
default 1% rate, an unsampled request pays one counter increment and a
modulo; a sampled request pays span collection through every tier.

Acceptance gates:

* **always** (including ``--benchmark-disable``): at the default sample
  rate, the measured p50 of a sequential closed loop stays within
  **5%** of the tracing-off p50 (plus a small absolute floor so
  sub-millisecond clock jitter cannot flake the gate); outputs stay
  correct and sampled requests really produce complete traces.
* in benchmark mode, the measured numbers land in
  ``BENCH_observability.json`` at the repo root, so the overhead is a
  tracked artifact, not a one-off claim (the ``--benchmark-disable``
  fast pass leaves the committed file alone).

``trace_sample_rate=1.0`` is measured for the table as the worst case
(every request traced end to end, spans shipped over the transport) but
deliberately not gated: tracing everything is a debugging posture, not
a serving posture.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import emit

from repro.bench.reporting import ResultTable
from repro.runtime import ServingConfig, TelemetryConfig
from repro.runtime.cluster import ShardedServer, projected_smallcnn_spec
from repro.runtime.telemetry import DEFAULT_TRACE_SAMPLE_RATE

N_SHARDS = 2
IN_SIZE = 16
_CORES = len(os.sched_getaffinity(0))
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
#: 5% relative gate + 0.25 ms absolute floor (clock/scheduler jitter on
#: a ~1.5 ms request is larger than the effect being measured otherwise)
GATE_RELATIVE = 1.05
GATE_FLOOR_MS = 0.25
OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_observability.json"


@pytest.fixture(scope="module")
def spec(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("obs-bench") / "bundle.npz"
    return projected_smallcnn_spec(
        str(bundle),
        channels=(32, 32, 64),
        in_size=IN_SIZE,
        serving_config=ServingConfig(max_batch=8),
    )


@pytest.fixture(scope="module")
def requests_pool():
    rng = np.random.default_rng(42)
    return [
        rng.standard_normal((2, 3, IN_SIZE, IN_SIZE)).astype(np.float32)
        for _ in range(8)
    ]


def _measure(server, requests, n, warmup):
    """Sequential closed loop: per-request wallclock, stats off one run."""
    for i in range(warmup):
        server.run(requests[i % len(requests)], timeout=120)
    latencies = []
    for i in range(n):
        start = time.perf_counter()
        server.run(requests[i % len(requests)], timeout=120)
        latencies.append((time.perf_counter() - start) * 1e3)
    arr = np.asarray(latencies)
    return {
        "requests": n,
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
        "mean_ms": float(arr.mean()),
    }


def test_tracing_overhead_gate(spec, requests_pool, request):
    fast_pass = request.config.getoption("benchmark_disable")
    n = 60 if fast_pass else 300
    warmup = 10 if fast_pass else 40
    rounds = 2  # interleaved rounds cancel monotonic machine drift

    configs = [
        ("off", 0.0),
        ("default", DEFAULT_TRACE_SAMPLE_RATE),
        ("full", 1.0),
    ]
    measured = {}
    for _ in range(rounds):
        for label, rate in configs:
            with ShardedServer(
                spec, num_shards=N_SHARDS, worker_env=_WORKER_ENV,
                telemetry=TelemetryConfig(trace_sample_rate=rate),
            ) as server:
                sample = _measure(server, requests_pool, n, warmup)
                traces = server.trace_ids()
                stats = server.cluster_stats
            assert stats["errors"] == 0 and stats["corrupt"] == 0
            if rate == 0.0:
                assert traces == []  # tracing off really is off
            elif rate == 1.0:
                # every request sampled (trace store holds the newest ones)
                assert len(traces) == min(n + warmup, 256)
            best = measured.get(label)
            if best is None or sample["p50_ms"] < best["p50_ms"]:
                measured[label] = sample  # best-of-rounds, noise-robust

    off, default, full = measured["off"], measured["default"], measured["full"]
    overhead_default = default["p50_ms"] / off["p50_ms"] - 1.0
    overhead_full = full["p50_ms"] / off["p50_ms"] - 1.0

    results = {
        "bench": "serving_observability",
        "shards": N_SHARDS,
        "cores": _CORES,
        "sample_rates": {label: rate for label, rate in configs},
        "measured": measured,
        "p50_overhead_default_pct": overhead_default * 100.0,
        "p50_overhead_full_pct": overhead_full * 100.0,
        "gate": {"relative": GATE_RELATIVE, "floor_ms": GATE_FLOOR_MS},
        "rounds": rounds,
        "fast_pass": fast_pass,
    }
    if not fast_pass:  # the committed artifact holds benchmark-mode numbers only
        OUT_PATH.write_text(json.dumps(results, indent=2) + "\n")

    table = ResultTable(
        f"tracing overhead — sequential closed loop, {n} requests, "
        f"{N_SHARDS} shards, {_CORES} usable core(s)",
        ["trace sampling", "p50 ms", "p95 ms", "mean ms", "p50 overhead"],
    )
    for label, _ in configs:
        m = measured[label]
        rel = m["p50_ms"] / off["p50_ms"] - 1.0
        table.add(label, f"{m['p50_ms']:.3f}", f"{m['p95_ms']:.3f}",
                  f"{m['mean_ms']:.3f}", f"{rel * 100:+.1f}%")
    table.note(f"gate: default-rate p50 <= off p50 * {GATE_RELATIVE} + "
               f"{GATE_FLOOR_MS} ms; full tracing shown unguarded as the "
               "worst case; " + ("fast pass, nothing written" if fast_pass
                                 else f"numbers written to {OUT_PATH.name}"))
    emit(table)

    assert default["p50_ms"] <= off["p50_ms"] * GATE_RELATIVE + GATE_FLOOR_MS, (
        f"default-rate tracing moved p50 from {off['p50_ms']:.3f} ms to "
        f"{default['p50_ms']:.3f} ms (+{overhead_default * 100:.1f}%) — "
        "sampling is supposed to keep the hot path unmeasurable"
    )


def test_sampled_trace_complete_under_load(spec, requests_pool):
    """Correctness side of the overhead story: the traces bought with
    that overhead are complete timelines, even with the server busy."""
    with ShardedServer(
        spec, num_shards=N_SHARDS, worker_env=_WORKER_ENV,
        telemetry=TelemetryConfig(trace_sample_rate=1.0),
    ) as server:
        futs = [server.submit(r) for r in requests_pool]
        for fut in futs:
            assert fut.result(timeout=120).shape == (2, 10)
        tid = futs[0].trace_id
        deadline = time.monotonic() + 20
        names = []
        while time.monotonic() < deadline:
            trace = server.get_trace(tid)
            names = [s["name"] for s in trace["spans"]] if trace else []
            if "reply" in names:
                break
            time.sleep(0.05)
        for required in ("admission", "dispatch", "transport", "worker_queue",
                         "queue_wait", "execute", "reply"):
            assert required in names, f"missing {required!r} in {names}"


def test_traced_round_trip_wallclock(benchmark, spec, requests_pool):
    """pytest-benchmark timing of a fully-traced round trip (worst case:
    every request collects spans through every tier)."""
    with ShardedServer(
        spec, num_shards=N_SHARDS, worker_env=_WORKER_ENV,
        telemetry=TelemetryConfig(trace_sample_rate=1.0),
    ) as server:

        def round_trip():
            futs = [server.submit(r) for r in requests_pool]
            return [f.result(timeout=120) for f in futs]

        outs = benchmark(round_trip)
    assert len(outs) == len(requests_pool)
    assert outs[0].shape == (2, 10)
