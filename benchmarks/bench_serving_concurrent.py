"""Concurrent serving: micro-batched dispatch vs per-request dispatch.

PatDNN's batched ``gemm`` kernels pay the graph walk, padding and
epilogue passes once per batch, so serving throughput
hinges on actually *forming* batches out of concurrent single-sample
traffic.  This bench stands up two :class:`MicroBatchServer` front-ends
over one shared ``CompiledExecutor`` — one with ``max_batch=1`` (every
request dispatched alone, the pre-serving behaviour) and one with
``max_batch=16`` — and hammers each with closed-loop client threads
submitting single samples.

Acceptance gate: at >= 8 concurrent clients the micro-batched front-end
beats per-request dispatch on throughput, with outputs matching the
reference interpreter.  Under ``--benchmark-disable`` only correctness
and coalescing-behaviour assertions run (wallclock gates on loaded CI
boxes fail spuriously and are benchmark-mode-only).
"""

import threading
import time

import numpy as np
import pytest
from conftest import emit

from repro.bench.reporting import ResultTable
from repro.core.patterns import PatternSet, enumerate_candidate_patterns
from repro.core.projections import project_connectivity, project_kernel_pattern
from repro.graph.ir import Graph, Node, OpKind, run_shape_inference
from repro.runtime import CompiledExecutor, MicroBatchServer, ReferenceExecutor, ServingConfig

N_CLIENTS = 8
REQUESTS_PER_CLIENT = 24
_HW = 16
_CHANS = ((32, 3), (32, 32), (64, 32))


def _build_stack(seed=0):
    """VGG-ish pruned conv stack (same recipe as bench_executor_batched)."""
    rng = np.random.default_rng(seed)
    ps = PatternSet(enumerate_candidate_patterns()[:8])
    g = Graph("serving-stack")
    g.add(Node("x", OpKind.INPUT, attrs={"shape": (_CHANS[0][1], _HW, _HW)}))
    prev = "x"
    assignments = {}
    hw = _HW
    for i, (f, c) in enumerate(_CHANS):
        w = (rng.standard_normal((f, c, 3, 3)) * np.sqrt(2.0 / (c * 9))).astype(np.float32)
        w, a = project_kernel_pattern(w, ps)
        w, m = project_connectivity(w, max(1, f * c // 4))
        name = f"conv{i}"
        g.add(
            Node(
                name,
                OpKind.CONV2D,
                inputs=[prev],
                attrs={"kernel_size": 3, "stride": 1, "padding": 1, "out_channels": f, "activation": "relu"},
                params={"weight": w, "bias": (rng.standard_normal(f) * 0.05).astype(np.float32)},
            )
        )
        assignments[name] = (a * m).astype(np.int32)
        prev = name
        if i == 1:
            g.add(Node(f"pool{i}", OpKind.MAXPOOL, inputs=[prev], attrs={"kernel_size": 2}))
            prev = f"pool{i}"
            hw //= 2
    g.add(Node("flat", OpKind.FLATTEN, inputs=[prev]))
    feat = _CHANS[-1][0] * hw * hw
    g.add(
        Node(
            "fc",
            OpKind.LINEAR,
            inputs=["flat"],
            attrs={"out_features": 10},
            params={
                "weight": (rng.standard_normal((10, feat)) * 0.02).astype(np.float32),
                "bias": np.zeros(10, np.float32),
            },
        )
    )
    g.outputs = ["fc"]
    run_shape_inference(g)
    return g, ps, assignments


@pytest.fixture(scope="module")
def stack():
    return _build_stack()


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(42)
    return [
        rng.standard_normal((1, _CHANS[0][1], _HW, _HW)).astype(np.float32)
        for _ in range(N_CLIENTS)
    ]


def _serve_closed_loop(server, samples, requests_per_client):
    """Each client thread submits its sample and waits, in a closed loop.

    Returns (wallclock seconds, {client: last output}).
    """
    results = {}
    errors = []
    start_gate = threading.Event()

    def client(i):
        try:
            start_gate.wait(10)
            for _ in range(requests_per_client):
                results[i] = server.submit(samples[i]).result(timeout=60)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(samples))]
    for t in threads:
        t.start()
    start = time.perf_counter()
    start_gate.set()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed, results


def test_microbatched_beats_per_request_dispatch(stack, samples, request):
    """Acceptance gate: micro-batching wins throughput at 8 clients."""
    g, ps, assignments = stack
    executor = CompiledExecutor(g, ps, assignments)
    ref = ReferenceExecutor(g)
    expected = [ref.run(x) for x in samples]

    per_request_cfg = ServingConfig(max_batch=1)
    # max_batch == client count: closed-loop clients have one outstanding
    # request each, so a single dispatch can take the whole backlog
    batched_cfg = ServingConfig(max_batch=N_CLIENTS)

    with MicroBatchServer(executor.run, per_request_cfg) as server:
        t_single, out_single = _serve_closed_loop(server, samples, REQUESTS_PER_CLIENT)
        single_stats = server.stats
    with MicroBatchServer(executor.run, batched_cfg) as server:
        t_batched, out_batched = _serve_closed_loop(server, samples, REQUESTS_PER_CLIENT)
        batched_stats = server.stats

    # correctness: both dispatch modes serve the right numbers
    for i in range(N_CLIENTS):
        np.testing.assert_allclose(out_single[i], expected[i], rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(out_batched[i], expected[i], rtol=1e-4, atol=1e-4)

    total = N_CLIENTS * REQUESTS_PER_CLIENT
    assert single_stats.requests == batched_stats.requests == total
    # per-request mode never coalesced; batched mode actually did
    assert single_stats.mean_batch == 1.0
    assert batched_stats.mean_batch > 1.5
    assert batched_stats.batches < total

    if request.config.getoption("benchmark_disable"):
        pytest.skip("correctness + coalescing verified; wallclock gate needs benchmark mode")

    thr_single = total / t_single
    thr_batched = total / t_batched
    table = ResultTable(
        f"serving-concurrent — {N_CLIENTS} closed-loop clients, single-sample requests",
        ["front-end", "req/s", "wallclock (s)", "mean batch", "dispatches"],
    )
    table.add("per-request (max_batch=1)", f"{thr_single:.0f}", f"{t_single:.3f}",
              f"{single_stats.mean_batch:.2f}", single_stats.batches)
    table.add(f"micro-batched (max_batch={N_CLIENTS})", f"{thr_batched:.0f}", f"{t_batched:.3f}",
              f"{batched_stats.mean_batch:.2f}", batched_stats.batches)
    table.note("shared CompiledExecutor (gemm level); batching amortises the per-call "
               "graph walk, padding and epilogue across the whole micro-batch")
    emit(table)
    assert thr_batched > thr_single, (
        f"micro-batched throughput {thr_batched:.0f} req/s did not beat "
        f"per-request {thr_single:.0f} req/s at {N_CLIENTS} clients"
    )


def test_serving_dispatch_wallclock(benchmark, stack, samples):
    """pytest-benchmark timing of one coalesced dispatch round."""
    g, ps, assignments = stack
    executor = CompiledExecutor(g, ps, assignments)
    server = MicroBatchServer(executor.run, ServingConfig(max_batch=N_CLIENTS))

    def round_trip():
        futs = [server.submit(x) for x in samples]
        return [f.result(timeout=60) for f in futs]

    outs = benchmark(round_trip)
    server.close()
    assert len(outs) == N_CLIENTS and outs[0].shape == (1, 10)
