"""Multi-tenant serving: a model registry behind every layer.

The load-bearing claims under test, per the multi-tenant contract:

* a cluster built from ``{name: SessionSpec}`` serves **both** models
  concurrently — outputs are **bitwise** equal to each model's own
  single-process ``InferenceSession.run`` (over shm and TCP), so
  requests provably reach the model they named;
* ``submit`` with an unregistered model raises the typed
  :class:`UnknownModelError` (and an ambiguous model-less submit on a
  multi-model cluster does too) — never a stringly RuntimeError;
* ``load_model`` hot-loads a new model into a cluster under live load
  and it serves correctly immediately after (``model_loaded`` event);
* ``unload_model`` under load drains: in-flight requests for the
  unloading model all succeed, zero client-visible errors, and the
  name is gone afterwards (``model_unloaded`` event); the last
  registered model is refused;
* a SIGKILLed shard mid mixed-model traffic recovers through the
  existing retry budget: the respawned worker rebuilds **every**
  registered model and both tenants keep serving bitwise-correct
  results;
* the admin server speaks the same contract over HTTP
  (``GET /models``, ``POST /models/load``, ``POST /models/<name>/unload``)
  and per-model counters land in ``/metrics`` with a ``model`` label.

Serving scenarios are parametrized over ``["shm", "tcp"]`` like the
chaos and membership suites; admin plumbing runs once over shm.
"""

import json
import os
import signal
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.runtime import (
    ResilienceConfig,
    ShardedServer,
    TelemetryConfig,
    UnknownModelError,
    spec_to_json,
)
from repro.runtime.cluster import projected_smallcnn_spec

IN_SIZE = 8


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    """Two models with different seeds: distinct weights, so bitwise
    output equality proves per-model routing (a cross-routed request
    would produce the *other* model's numbers)."""
    root = tmp_path_factory.mktemp("multitenant")
    return {
        "alpha": projected_smallcnn_spec(str(root / "alpha.npz"), in_size=IN_SIZE, seed=11),
        "beta": projected_smallcnn_spec(str(root / "beta.npz"), in_size=IN_SIZE, seed=22),
    }


@pytest.fixture(scope="module")
def oracle(specs):
    """One private single-process session per model — the ground truth
    every cluster answer is compared against bitwise."""
    sessions = {name: spec.build() for name, spec in specs.items()}
    yield sessions
    for session in sessions.values():
        session.close()


@pytest.fixture(params=["shm", "tcp"])
def transport(request):
    """Multi-tenancy must behave identically over shared memory and TCP."""
    return request.param


def _rand(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 3, IN_SIZE, IN_SIZE)).astype(np.float32)


def _wait_until(predicate, timeout=20.0, interval=0.05):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def test_models_compute_different_functions(oracle):
    """Guard for every bitwise assertion below: if the two registered
    models agreed, cross-routing would be invisible."""
    x = _rand(1, seed=1)
    assert not np.array_equal(oracle["alpha"].run(x), oracle["beta"].run(x))


# ----------------------------------------------------------------------
# Concurrent two-model serving (the tentpole acceptance scenario)
# ----------------------------------------------------------------------
class TestTwoModelServing:
    def test_eight_clients_two_models_bitwise(self, specs, oracle, transport):
        n_clients, per_client = 8, 12
        names = sorted(specs)
        model = [names[i % len(names)] for i in range(n_clients)]
        xs = [_rand(1, seed=50 + i) for i in range(n_clients)]
        expected = [oracle[model[i]].run(xs[i]) for i in range(n_clients)]
        errors: list[BaseException] = []
        with ShardedServer(specs=specs, num_shards=2, transport=transport,
                           health_interval_s=0.2) as server:
            assert server.models() == names

            def client(i):
                try:
                    for _ in range(per_client):
                        out = server.submit(xs[i], model=model[i]).result(timeout=60)
                        assert np.array_equal(out, expected[i]), \
                            f"client {i} ({model[i]}) got the wrong model's output"
                except BaseException as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(n_clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors, errors[:3]

            per_model = n_clients // len(names) * per_client
            # worker-side per-model counters ride the periodic health pong
            assert _wait_until(
                lambda: all(
                    server.cluster_stats["models"][n]["worker_samples"] >= per_model
                    for n in names
                ),
                timeout=30.0,
            ), "per-model worker stats never reached the router"
            stats = server.cluster_stats
            for name in names:
                assert stats["models"][name]["requests"] == per_model
                assert stats["models"][name]["router_p50_ms"] > 0

    def test_single_model_registry_keeps_plain_submit(self, specs, oracle, transport):
        """A one-entry registry behaves exactly like the single-model
        constructor: ``submit`` needs no model argument."""
        x = _rand(2, seed=3)
        with ShardedServer(specs={"alpha": specs["alpha"]}, num_shards=1,
                           transport=transport, health_interval_s=0.2) as server:
            out = server.submit(x).result(timeout=60)
            assert np.array_equal(out, oracle["alpha"].run(x))

    def test_unknown_model_raises_typed(self, specs):
        x = _rand(1, seed=4)
        with ShardedServer(specs=specs, num_shards=1,
                           health_interval_s=0.2) as server:
            with pytest.raises(UnknownModelError, match="nope"):
                server.submit(x, model="nope")
            # a model-less submit is ambiguous on a two-model cluster
            with pytest.raises(UnknownModelError, match="alpha"):
                server.submit(x)
            # typed rejections shed at admission: nothing was dispatched
            assert server.cluster_stats["requests"] == 0


# ----------------------------------------------------------------------
# Hot load / drained unload under live load
# ----------------------------------------------------------------------
class TestHotLoadUnload:
    def _start_clients(self, server, xs, expected, model, stop, errors, served):
        def client(i):
            try:
                while not stop.is_set():
                    out = server.submit(xs[i], model=model[i]).result(timeout=60)
                    assert np.array_equal(out, expected[i])
                    served[i] += 1
            except BaseException as exc:  # noqa: BLE001 - asserted by callers
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(xs))]
        for t in threads:
            t.start()
        return threads

    def test_load_then_serve_under_load(self, specs, oracle, transport,
                                        tmp_path_factory):
        gamma = projected_smallcnn_spec(
            str(tmp_path_factory.mktemp("hotload") / "gamma.npz"),
            in_size=IN_SIZE, seed=33,
        )
        gamma_session = gamma.build()
        try:
            n_clients = 4
            model = [["alpha", "beta"][i % 2] for i in range(n_clients)]
            xs = [_rand(1, seed=70 + i) for i in range(n_clients)]
            expected = [oracle[model[i]].run(xs[i]) for i in range(n_clients)]
            xg = _rand(2, seed=99)
            expected_gamma = gamma_session.run(xg)
            stop = threading.Event()
            errors: list[BaseException] = []
            served = [0] * n_clients
            with ShardedServer(specs=specs, num_shards=2, transport=transport,
                               health_interval_s=0.2) as server:
                threads = self._start_clients(
                    server, xs, expected, model, stop, errors, served)
                try:
                    assert _wait_until(lambda: sum(served) > 20, timeout=30.0)
                    outcome = server.load_model("gamma", gamma, timeout=60.0)
                    assert outcome["model"] == "gamma"
                    assert outcome["shards"] == 2
                    # the hot-loaded model serves immediately, bitwise
                    out = server.submit(xg, model="gamma").result(timeout=60)
                    assert np.array_equal(out, expected_gamma)
                    before = sum(served)
                    assert _wait_until(lambda: sum(served) > before + 10,
                                       timeout=30.0)
                finally:
                    stop.set()
                    for t in threads:
                        t.join(timeout=60)
                assert not errors, errors[:3]
                assert server.models() == ["alpha", "beta", "gamma"]
                assert server.cluster_stats["models"]["gamma"]["requests"] == 1
                assert "model_loaded" in server.events.kinds()
        finally:
            gamma_session.close()

    def test_unload_under_load_zero_client_errors(self, specs, oracle, transport):
        """Unload drains: requests in flight for the unloading model all
        succeed, traffic on the surviving model never hiccups, and the
        name is gone afterwards."""
        n_clients = 4
        model = ["alpha"] * n_clients  # the survivors hammer alpha
        xs = [_rand(1, seed=80 + i) for i in range(n_clients)]
        expected = [oracle["alpha"].run(xs[i]) for i in range(n_clients)]
        xb = _rand(1, seed=88)
        expected_beta = oracle["beta"].run(xb)
        stop = threading.Event()
        errors: list[BaseException] = []
        served = [0] * n_clients
        with ShardedServer(specs=specs, num_shards=2, transport=transport,
                           health_interval_s=0.2) as server:
            threads = self._start_clients(
                server, xs, expected, model, stop, errors, served)
            try:
                assert _wait_until(lambda: sum(served) > 10, timeout=30.0)
                # park a burst of beta requests, then unload beta while
                # they are in flight: drain must let every one finish
                beta_futs = [server.submit(xb, model="beta") for _ in range(24)]
                outcome = server.unload_model("beta", timeout=60.0)
                assert outcome["drained"] is True
                for fut in beta_futs:
                    assert np.array_equal(fut.result(timeout=60), expected_beta)
                # beta is gone; alpha is untouched
                with pytest.raises(UnknownModelError, match="beta"):
                    server.submit(xb, model="beta")
                before = sum(served)
                assert _wait_until(lambda: sum(served) > before + 10, timeout=30.0)
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=60)
            assert not errors, errors[:3]
            assert server.models() == ["alpha"]
            assert "beta" not in server.cluster_stats["models"]
            assert "model_unloaded" in server.events.kinds()

    def test_remote_worker_deletes_shipped_bundles(self, specs, tmp_path):
        """A remote worker writes each shipped bundle (handshake and hot
        load) to a temp file; the file goes when its model unloads or
        its connection ends, so a long-lived worker accumulates none."""
        import multiprocessing

        from repro.runtime.transport_shm import spawn_with_env
        from repro.runtime.transport_tcp import _tcp_worker_main

        def bundle_models():
            return sorted(p.name.split("-")[2] for p in tmp_path.glob("repro-bundle-*"))

        ctx = multiprocessing.get_context("spawn")
        port_conn, child_conn = ctx.Pipe(duplex=False)
        worker = ctx.Process(target=_tcp_worker_main, args=(child_conn,), daemon=True)
        spawn_with_env(worker, {"TMPDIR": str(tmp_path)})
        child_conn.close()
        try:
            assert port_conn.poll(60), "remote worker never reported its port"
            address = f"127.0.0.1:{port_conn.recv()}"
            with ShardedServer(specs={"alpha": specs["alpha"]}, shards=[address],
                               health_interval_s=0.2) as server:
                server.submit(_rand(1), model="alpha").result(timeout=60)
                assert bundle_models() == ["alpha"]  # from the handshake
                server.load_model("beta", specs["beta"], timeout=60.0)
                assert bundle_models() == ["alpha", "beta"]
                server.unload_model("beta", timeout=60.0)
                assert bundle_models() == ["alpha"]
            worker.join(timeout=30)
            assert not worker.is_alive()
            assert bundle_models() == []
        finally:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=10)
            port_conn.close()

    def test_unload_last_model_refused(self, specs):
        with ShardedServer(specs={"alpha": specs["alpha"]}, num_shards=1,
                           health_interval_s=0.2) as server:
            with pytest.raises(ValueError, match="last registered model"):
                server.unload_model("alpha")
            assert server.models() == ["alpha"]

    def test_unload_unknown_model_raises(self, specs):
        with ShardedServer(specs=specs, num_shards=1,
                           health_interval_s=0.2) as server:
            with pytest.raises(KeyError, match="nope"):
                server.unload_model("nope")


# ----------------------------------------------------------------------
# Crash recovery composes with multi-tenancy
# ----------------------------------------------------------------------
class TestMixedModelRecovery:
    def test_sigkill_mid_mixed_traffic_recovers_both_models(
        self, specs, oracle, transport
    ):
        """The respawned worker rebuilds the *current* registry, so both
        tenants keep serving bitwise-correct results after a kill; the
        in-flight victims recover through the ordinary retry budget."""
        n_clients = 8
        names = sorted(specs)
        model = [names[i % len(names)] for i in range(n_clients)]
        xs = [_rand(1, seed=60 + i) for i in range(n_clients)]
        expected = [oracle[model[i]].run(xs[i]) for i in range(n_clients)]
        stop = threading.Event()
        errors: list[BaseException] = []
        served = [0] * n_clients
        with ShardedServer(
            specs=specs, num_shards=2, transport=transport,
            health_interval_s=0.2,
            resilience=ResilienceConfig(max_retries=3),
        ) as server:
            def client(i):
                try:
                    while not stop.is_set():
                        out = server.submit(xs[i], model=model[i]).result(timeout=60)
                        assert np.array_equal(out, expected[i])
                        served[i] += 1
                except BaseException as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(n_clients)]
            for t in threads:
                t.start()
            try:
                assert _wait_until(lambda: sum(served) > 30, timeout=30.0)
                victim = server._shards[0]
                os.kill(victim.process.pid, signal.SIGKILL)
                assert _wait_until(
                    lambda: server.cluster_stats["respawns"] >= 1, timeout=30.0
                )
                before = {name: server.cluster_stats["models"][name]["requests"]
                          for name in names}
                assert _wait_until(
                    lambda: all(
                        server.cluster_stats["models"][n]["requests"]
                        > before[n] + 5
                        for n in names
                    ),
                    timeout=30.0,
                ), "a model stopped serving after the respawn"
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=120)
            assert not errors, errors[:3]
            assert server.cluster_stats["respawns"] >= 1


# ----------------------------------------------------------------------
# Admin HTTP routes + per-model metrics labels
# ----------------------------------------------------------------------
class TestAdminModelRoutes:
    def _get(self, port, path):
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=60
            ) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def _post(self, port, path, body=None):
        data = json.dumps(body).encode() if body is not None else b""
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}", data=data, method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def test_load_unload_over_http(self, specs, oracle, tmp_path_factory):
        delta = projected_smallcnn_spec(
            str(tmp_path_factory.mktemp("admin") / "delta.npz"),
            in_size=IN_SIZE, seed=44,
        )
        delta_session = delta.build()
        try:
            x = _rand(2, seed=7)
            expected = delta_session.run(x)
            with ShardedServer(
                specs={"alpha": specs["alpha"]}, num_shards=1,
                health_interval_s=0.2,
                telemetry=TelemetryConfig(metrics_port=0),
            ) as server:
                port = server.metrics_port
                status, payload = self._get(port, "/models")
                assert status == 200 and payload["models"] == ["alpha"]

                status, payload = self._post(
                    port, "/models/load",
                    {"name": "delta", "spec": spec_to_json(delta)},
                )
                assert status == 200 and payload["model"] == "delta"
                out = server.submit(x, model="delta").result(timeout=60)
                assert np.array_equal(out, expected)

                status, payload = self._post(port, "/models/delta/unload")
                assert status == 200 and payload["drained"] is True
                status, payload = self._get(port, "/models")
                assert payload["models"] == ["alpha"]

                # refusals map to the HTTP statuses the membership routes use
                status, payload = self._post(port, "/models/alpha/unload")
                assert status == 409 and "last registered model" in payload["error"]
                status, payload = self._post(port, "/models/nope/unload")
                assert status == 404

                # per-model counters carry a model label in /metrics
                server.submit(_rand(1, seed=8), model="alpha").result(timeout=60)
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=30
                ) as resp:
                    text = resp.read().decode()
                assert 'cluster_model_requests_total{model="alpha"}' in text
                assert 'cluster_model_router_p50_ms{model="alpha"}' in text
                # the unloaded tenant's series are gone from the router view
                assert 'cluster_model_router_p50_ms{model="delta"}' not in text
        finally:
            delta_session.close()

    def test_load_route_validates_body(self, specs):
        with ShardedServer(
            specs={"alpha": specs["alpha"]}, num_shards=1,
            health_interval_s=0.2,
            telemetry=TelemetryConfig(metrics_port=0),
        ) as server:
            port = server.metrics_port
            status, payload = self._post(port, "/models/load", {"name": "x"})
            assert status == 400 and "spec" in payload["error"]
            status, payload = self._post(
                port, "/models/load",
                {"name": "x", "spec": {"model": "smallcnn"}},
            )
            assert status == 409  # spec_from_json refused the partial spec
            assert server.models() == ["alpha"]
