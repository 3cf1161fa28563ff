"""Transport overhead: shared-memory slot rings vs loopback TCP framing.

The cluster router speaks an abstract ``ShardTransport`` protocol, so
the same router / resilience / chaos machinery can drive shards over
shared memory (single host) or framed TCP sockets (any host).  The seam
is only worth having if (a) TCP is *correct to the bit* and (b) its
overhead on loopback is a bounded, measured quantity — this bench pins
both.

Acceptance gates:

* **always** (including ``--benchmark-disable``): with one request in
  flight at a time, the loopback-TCP cluster's outputs are **bitwise
  equal** to ``session.run`` on the same requests — framing (pack /
  CRC / unpack) plus spec rebuild must be byte-transparent, exactly
  like the shm transport's gate in ``bench_serving_cluster.py``.
* **benchmark mode**: the shm-vs-TCP throughput table is emitted, and
  loopback TCP must stay within a generous 10x of shm req/s — TCP adds
  syscalls and copies (that's the measured overhead), but anything past
  that bound means the transport is broken (e.g. accidental
  per-request reconnects), not just slower.
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

N_SHARDS = 2
N_CLIENTS = 8
SAMPLES_PER_REQUEST = 2
IN_SIZE = 16
_CORES = len(os.sched_getaffinity(0))
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@pytest.fixture(scope="module")
def spec(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("tcp-bench") / "bundle.npz"
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


def _closed_loop(submit, requests, per_client):
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


def test_tcp_outputs_bitwise_equal_to_session_run(spec, local_session, requests_pool):
    """One request in flight at a time over loopback TCP: frame pack +
    CRC + unpack + spec rebuild must be byte-transparent."""
    with ShardedServer(
        spec, num_shards=N_SHARDS, transport="tcp", worker_env=_WORKER_ENV
    ) as server:
        for r in requests_pool:
            np.testing.assert_array_equal(server.run(r, timeout=120), local_session.run(r))
        stats = server.cluster_stats
    assert stats["transport"] == "tcp"
    assert stats["errors"] == 0 and stats["corrupt"] == 0


def test_tcp_overhead_vs_shm(spec, local_session, requests_pool, request):
    """Measure the same closed-loop workload over both transports and
    report the loopback-TCP overhead."""
    fast_pass = request.config.getoption("benchmark_disable")
    per_client = 4 if fast_pass else 16
    expected = [local_session.run(r) for r in requests_pool]
    total = N_CLIENTS * per_client

    measured = {}
    for transport in ("shm", "tcp"):
        with ShardedServer(
            spec, num_shards=N_SHARDS, transport=transport, worker_env=_WORKER_ENV
        ) as server:
            elapsed, results = _closed_loop(server.submit, requests_pool, per_client)
            stats = server.cluster_stats
        for i in range(N_CLIENTS):
            np.testing.assert_allclose(results[i], expected[i], rtol=1e-4, atol=1e-5)
        assert stats["requests"] == total and stats["errors"] == 0
        assert stats["respawns"] == 0 and stats["corrupt"] == 0
        measured[transport] = (total / elapsed, elapsed, stats)

    if fast_pass:
        pytest.skip("correctness verified on both transports; overhead table needs benchmark mode")

    thr_shm, t_shm, _ = measured["shm"]
    thr_tcp, t_tcp, stats_tcp = measured["tcp"]
    table = ResultTable(
        f"serving transport overhead — {N_CLIENTS} closed-loop clients, "
        f"{SAMPLES_PER_REQUEST}-sample requests, {N_SHARDS} shards, "
        f"{_CORES} usable core(s)",
        ["transport", "req/s", "wallclock (s)", "relative"],
    )
    table.add("shm slot rings", f"{thr_shm:.0f}", f"{t_shm:.3f}", "1.00x")
    table.add("loopback TCP frames", f"{thr_tcp:.0f}", f"{t_tcp:.3f}",
              f"{thr_tcp / thr_shm:.2f}x")
    table.note("same router, resilience, and worker body on both rows — only the "
               "transport implementation differs; TCP pays syscalls + copies per frame; "
               f"router p95 over TCP: {stats_tcp['router_p95_ms']:.2f} ms")
    emit(table)

    assert thr_tcp * 10 >= thr_shm, (
        f"loopback TCP at {thr_tcp:.0f} req/s is more than 10x slower than shm at "
        f"{thr_shm:.0f} req/s — that is transport breakage, not framing overhead"
    )


def test_tcp_round_trip_wallclock(benchmark, spec, requests_pool):
    """pytest-benchmark timing of one closed-loop round trip over TCP."""
    with ShardedServer(
        spec, num_shards=N_SHARDS, transport="tcp", worker_env=_WORKER_ENV
    ) as server:

        def round_trip():
            futs = [server.submit(r) for r in requests_pool]
            return [f.result(timeout=120) for f in futs]

        outs = benchmark(round_trip)
    assert len(outs) == N_CLIENTS
    assert outs[0].shape == (SAMPLES_PER_REQUEST, 10)
