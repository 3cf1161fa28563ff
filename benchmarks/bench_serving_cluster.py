"""Sharded multi-process serving vs the single-process micro-batcher.

PR 2's ``MicroBatchServer`` tops out at one Python process: one GIL, one
arena/kernel-cache domain.  ``ShardedServer`` replicates the compiled
engine across worker processes with shared-memory tensor transport, so
aggregate throughput should scale with cores.  This bench drives both
front-ends from 16 closed-loop client threads issuing 2-sample requests
against the same pattern-pruned CNN (rebuilt in every worker from one
``SessionSpec``).

Acceptance gates:

* **always** (including ``--benchmark-disable``): with one request in
  flight at a time, every shard's output is **bitwise equal** to
  ``session.run`` on the same request — the worker dispatches exactly
  the request's batch, so spec rebuild + shared-memory transport must
  be byte-transparent (same batch shape -> identical kernel
  arithmetic).  Under concurrent load, coalescing changes the BLAS
  batch shape, which legitimately perturbs float rounding (OpenBLAS
  picks kernels by matrix size), so the throughput phase verifies to
  1e-4 like the PR 2 serving bench.
* **benchmark mode, >= 2 usable cores**: the 4-shard cluster beats the
  single-process server by >= 1.5x req/s.  On a 1-core box the speedup
  is physically impossible (both configs share the core and the cluster
  adds IPC), so the ratio gate is skipped with an explanation — run the
  gate on a multi-core machine.
"""

import os
import threading
import time

import numpy as np
import pytest
from conftest import emit

from repro.bench.reporting import ResultTable
from repro.runtime import ServingConfig
from repro.runtime.cluster import ShardedServer, projected_smallcnn_spec

N_SHARDS = 4
N_CLIENTS = 16
SAMPLES_PER_REQUEST = 2
IN_SIZE = 16
_CORES = len(os.sched_getaffinity(0))
# one BLAS thread per worker: 4 shards fighting over the machine with
# default thread pools oversubscribes wildly and measures the scheduler
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@pytest.fixture(scope="module")
def spec(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("cluster-bench") / "bundle.npz"
    return projected_smallcnn_spec(
        str(bundle),
        channels=(32, 32, 64),
        in_size=IN_SIZE,
        serving_config=ServingConfig(max_batch=N_CLIENTS),
    )


@pytest.fixture(scope="module")
def local_session(spec):
    session = spec.build()
    yield session
    session.close()


@pytest.fixture(scope="module")
def requests_pool():
    rng = np.random.default_rng(42)
    return [
        rng.standard_normal((SAMPLES_PER_REQUEST, 3, IN_SIZE, IN_SIZE)).astype(np.float32)
        for _ in range(N_CLIENTS)
    ]


@pytest.fixture(scope="module")
def cluster(spec):
    with ShardedServer(
        spec, num_shards=N_SHARDS, slots_per_shard=16, worker_env=_WORKER_ENV
    ) as server:
        yield server


def _closed_loop(submit, requests, per_client):
    """Each client submits its request and waits, in a closed loop."""
    results = {}
    errors = []
    gate = threading.Event()

    def client(i):
        try:
            gate.wait(10)
            for _ in range(per_client):
                results[i] = submit(requests[i]).result(timeout=120)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(requests))]
    for t in threads:
        t.start()
    start = time.perf_counter()
    gate.set()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed, results


def test_sharded_outputs_bitwise_equal_to_session_run(local_session, cluster, requests_pool):
    """One request in flight at a time: the worker dispatches exactly this
    batch, so transport + spec rebuild must be bitwise-transparent."""
    for r in requests_pool[:8]:
        np.testing.assert_array_equal(cluster.run(r, timeout=120), local_session.run(r))


def test_cluster_beats_single_process(spec, local_session, cluster, requests_pool, request):
    """Acceptance gate: multi-process sharding wins req/s at 16 clients."""
    fast_pass = request.config.getoption("benchmark_disable")
    per_client = 4 if fast_pass else 16
    expected = [local_session.run(r) for r in requests_pool]

    t_single, out_single = _closed_loop(local_session.submit, requests_pool, per_client)
    t_cluster, out_cluster = _closed_loop(cluster.submit, requests_pool, per_client)

    # correctness under concurrency (coalesced batch shapes shift float
    # rounding; the bitwise gate is the sequential test above)
    for i in range(N_CLIENTS):
        np.testing.assert_allclose(out_single[i], expected[i], rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(out_cluster[i], expected[i], rtol=1e-4, atol=1e-5)

    total = N_CLIENTS * per_client
    stats = cluster.cluster_stats
    assert stats["requests"] >= total and stats["errors"] == 0
    assert stats["respawns"] == 0
    live_shards = [s for s in stats["shards"] if s["requests"] > 0]
    assert len(live_shards) == N_SHARDS  # the router actually spread the load

    if fast_pass:
        pytest.skip("correctness + routing verified; wallclock gate needs benchmark mode")

    thr_single = total / t_single
    thr_cluster = total / t_cluster
    table = ResultTable(
        f"serving-cluster — {N_CLIENTS} closed-loop clients, "
        f"{SAMPLES_PER_REQUEST}-sample requests, {_CORES} usable core(s)",
        ["front-end", "req/s", "wallclock (s)", "speedup"],
    )
    table.add("single-process MicroBatchServer", f"{thr_single:.0f}", f"{t_single:.3f}", "1.00x")
    table.add(
        f"ShardedServer ({N_SHARDS} shards)",
        f"{thr_cluster:.0f}",
        f"{t_cluster:.3f}",
        f"{thr_cluster / thr_single:.2f}x",
    )
    table.note("workers rebuild the session from one SessionSpec; tensors move over "
               "shared-memory slot rings; outputs bitwise-equal to session.run")
    emit(table)

    if _CORES < 2:
        pytest.skip(
            f"only {_CORES} usable core(s): multi-process scaling is physically "
            "impossible here — run the >=1.5x ratio gate on a multi-core box"
        )
    assert thr_cluster >= 1.5 * thr_single, (
        f"4-shard cluster at {thr_cluster:.0f} req/s did not reach 1.5x the "
        f"single-process {thr_single:.0f} req/s on {_CORES} cores"
    )


def test_cluster_round_trip_wallclock(benchmark, cluster, requests_pool):
    """pytest-benchmark timing of one 16-client cluster round trip."""

    def round_trip():
        futs = [cluster.submit(r) for r in requests_pool]
        return [f.result(timeout=120) for f in futs]

    outs = benchmark(round_trip)
    assert len(outs) == N_CLIENTS
    assert outs[0].shape == (SAMPLES_PER_REQUEST, 10)
