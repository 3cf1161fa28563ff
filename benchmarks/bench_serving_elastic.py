"""Elastic membership under steady load: growing the cluster adds capacity.

``ShardedServer.add_shard`` / ``remove_shard`` exist so an operator (or
autoscaler) can resize a live cluster without restarting it.  That claim
has two measurable halves, and this bench gates both:

* **zero disruption** — with a closed-loop client fleet running the whole
  time, adding two shards and then drain-removing one must produce zero
  client-visible errors (``stats["errors"] == 0`` and no client raised);
* **real capacity** — every added shard must actually serve traffic
  (``requests > 0`` in ``cluster_stats``), and in benchmark mode on a
  multi-core box the measured throughput after growing 1 → 3 shards must
  rise — shards that join the map but not the dispatch path would pass a
  liveness check and still be useless.

Acceptance gates:

* **always** (including ``--benchmark-disable``): zero client errors
  across the add + remove sequence, both added shards have
  ``requests > 0``, outputs match ``session.run`` bit-for-bit on a
  spot-check after the membership churn.
* **benchmark mode** (and ≥ 3 usable cores): throughput measured over a
  steady window after the grow is at least 1.15x the single-shard
  window — a deliberately loose bound (workers share cores with the
  client fleet) that still catches add-shard-without-capacity bugs.
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

N_CLIENTS = 8
SAMPLES_PER_REQUEST = 2
IN_SIZE = 16
_CORES = len(os.sched_getaffinity(0))
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@pytest.fixture(scope="module")
def spec(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("elastic-bench") / "bundle.npz"
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
    rng = np.random.default_rng(7)
    return [
        rng.standard_normal((SAMPLES_PER_REQUEST, 3, IN_SIZE, IN_SIZE)).astype(np.float32)
        for _ in range(N_CLIENTS)
    ]


class _SteadyLoad:
    """Closed-loop client fleet that runs until told to stop, counting
    completions so throughput can be sampled over wall-clock windows."""

    def __init__(self, server, requests):
        self._server = server
        self._requests = requests
        self._stop = threading.Event()
        self.errors: list[BaseException] = []
        self._done = [0] * len(requests)
        self._threads = [
            threading.Thread(target=self._client, args=(i,))
            for i in range(len(requests))
        ]

    def _client(self, i):
        try:
            while not self._stop.is_set():
                self._server.submit(self._requests[i]).result(timeout=120)
                self._done[i] += 1
        except BaseException as exc:  # noqa: BLE001 - surfaced by the test
            self.errors.append(exc)

    def __enter__(self):
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for t in self._threads:
            t.join(timeout=120)

    def completed(self):
        return sum(self._done)

    def rate_over(self, window_s):
        """Completed requests per second over one wall-clock window."""
        start = self.completed()
        t0 = time.perf_counter()
        time.sleep(window_s)
        return (self.completed() - start) / (time.perf_counter() - t0)


def test_grow_under_load_adds_capacity(spec, local_session, requests_pool, request):
    fast_pass = request.config.getoption("benchmark_disable")
    window_s = 0.75 if fast_pass else 2.0

    with ShardedServer(
        spec, num_shards=1, worker_env=_WORKER_ENV, health_interval_s=0.2
    ) as server:
        with _SteadyLoad(server, requests_pool) as load:
            # warm up: every client has completed at least one round trip
            deadline = time.monotonic() + 60
            while load.completed() < N_CLIENTS and time.monotonic() < deadline:
                time.sleep(0.02)
            assert load.completed() >= N_CLIENTS, "fleet never warmed up"

            rate_before = load.rate_over(window_s)

            added = [server.add_shard(), server.add_shard()]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                by_index = {
                    e["shard"]: e["requests"] for e in server.cluster_stats["shards"]
                }
                if all(by_index.get(i, 0) > 0 for i in added):
                    break
                time.sleep(0.02)

            rate_after = load.rate_over(window_s)

            # drain-remove one of the new shards while the fleet still runs
            outcome = server.remove_shard(added[1], drain=True, timeout=60.0)

        assert not load.errors, load.errors[:3]
        stats = server.cluster_stats
        assert stats["errors"] == 0, "membership churn surfaced request errors"
        assert outcome["failed"] == 0
        by_index = {e["shard"]: e["requests"] for e in stats["shards"]}
        assert by_index.get(added[0], 0) > 0, "added shard never served a request"
        assert added[1] not in by_index
        # churn left the cluster computing the right function
        np.testing.assert_array_equal(
            server.run(requests_pool[0], timeout=120),
            local_session.run(requests_pool[0]),
        )

    if fast_pass:
        pytest.skip(
            "zero-error elastic churn verified; throughput gate needs benchmark mode"
        )

    table = ResultTable(
        f"elastic scaling under steady load — {N_CLIENTS} closed-loop clients, "
        f"{SAMPLES_PER_REQUEST}-sample requests, {_CORES} usable core(s)",
        ["membership", "req/s", "relative"],
    )
    table.add("1 shard", f"{rate_before:.0f}", "1.00x")
    table.add("3 shards (2 added live)", f"{rate_after:.0f}",
              f"{rate_after / rate_before:.2f}x")
    table.note("same fleet ran uninterrupted across both windows; one added shard "
               "was then drain-removed with zero client-visible errors")
    emit(table)

    if _CORES >= 3:
        assert rate_after > rate_before * 1.15, (
            f"growing 1 -> 3 shards moved throughput {rate_before:.0f} -> "
            f"{rate_after:.0f} req/s; added shards are not adding capacity"
        )
