"""Elastic membership: runtime add/remove with drain-before-remove.

The load-bearing claims under test, per the membership contract:

* ``add_shard`` joins a worker to a *live* cluster (local spawn, or a
  remote ``host:port`` worker — even on an shm cluster) and the new
  shard demonstrably serves traffic (``requests > 0`` in
  ``cluster_stats``);
* ``remove_shard(drain=True)`` under concurrent client load completes
  with **zero client-visible errors** — routing stops first, in-flight
  requests settle, then the endpoint is torn down and a
  ``shard_removed`` event lands;
* a shard SIGKILLed mid-drain resolves its futures with typed errors
  (never hangs) and the removal still completes promptly — no respawn
  for a shard on its way out;
* shard indices are never reused, every membership change bumps the
  stats ``generation``, and the last routable shard cannot be removed;
* the same operations work through the admin server's POST routes and
  the :class:`~repro.runtime.membership.ShardFileWatcher` shard-list
  file.

Routing/drain scenarios are parametrized over ``["shm", "tcp"]`` like
the chaos suite; watcher/admin plumbing runs once over shm.
"""

import json
import os
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.runtime import (
    ResilienceConfig,
    ShardCrashedError,
    ShardedServer,
    ShardFileWatcher,
    TelemetryConfig,
    parse_shard_file,
    worker_serve,
)
from repro.runtime.cluster import projected_smallcnn_spec

IN_SIZE = 8


@pytest.fixture(scope="module")
def spec(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("membership") / "bundle.npz"
    return projected_smallcnn_spec(str(bundle), in_size=IN_SIZE)


@pytest.fixture(scope="module")
def local_session(spec):
    session = spec.build()
    yield session
    session.close()


@pytest.fixture(params=["shm", "tcp"])
def transport(request):
    """Membership must behave identically over shared memory and TCP."""
    return request.param


def _rand(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 3, IN_SIZE, IN_SIZE)).astype(np.float32)


def _wait_until(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _shard_entry(server, index):
    for entry in server.cluster_stats["shards"]:
        if entry["shard"] == index:
            return entry
    return None


# ----------------------------------------------------------------------
# Python API semantics
# ----------------------------------------------------------------------
class TestMembershipAPI:
    def test_add_shard_serves_traffic(self, spec, local_session, transport):
        """A shard added to a live cluster takes real traffic: its
        router-side request counter moves and outputs stay correct."""
        x = _rand(4, seed=1)
        expected = local_session.run(x)
        with ShardedServer(spec, num_shards=1, transport=transport,
                           health_interval_s=0.2) as server:
            np.testing.assert_allclose(server.run(x), expected, rtol=1e-4, atol=1e-5)
            added = server.add_shard()
            assert added == 1
            entry = _shard_entry(server, added)
            assert entry is not None and not entry["draining"]
            assert server.cluster_stats["generation"] >= 1

            # the fresh shard has the fewest outstanding requests, so
            # concurrent traffic must reach it
            def hammer():
                futs = [server.submit(x) for _ in range(16)]
                for f in futs:
                    np.testing.assert_allclose(
                        f.result(timeout=60), expected, rtol=1e-4, atol=1e-5
                    )

            assert _wait_until(
                lambda: (hammer(), _shard_entry(server, added)["requests"] > 0)[1],
                timeout=30.0,
            )
            assert "shard_added" in server.events.kinds()

    def test_remove_shard_drains_and_leaves(self, spec, local_session, transport):
        x = _rand(2, seed=2)
        expected = local_session.run(x)
        with ShardedServer(spec, num_shards=2, transport=transport,
                           health_interval_s=0.2) as server:
            np.testing.assert_allclose(server.run(x), expected, rtol=1e-4, atol=1e-5)
            before = server.cluster_stats["generation"]
            outcome = server.remove_shard(1, drain=True)
            assert outcome["drained"] is True
            assert outcome["failed"] == 0
            assert outcome["generation"] > before
            stats = server.cluster_stats
            assert [e["shard"] for e in stats["shards"]] == [0]
            assert stats["generation"] == outcome["generation"]
            assert "shard_removed" in server.events.kinds()
            # the survivor still serves
            np.testing.assert_allclose(server.run(x), expected, rtol=1e-4, atol=1e-5)

    def test_indices_never_reused(self, spec, transport):
        with ShardedServer(spec, num_shards=2, transport=transport,
                           health_interval_s=0.2) as server:
            server.remove_shard(1)
            assert server.add_shard() == 2  # not 1: indices are monotonic
            assert sorted(e["shard"] for e in server.cluster_stats["shards"]) == [0, 2]

    def test_remove_last_shard_refused(self, spec):
        with ShardedServer(spec, num_shards=1, health_interval_s=0.2) as server:
            with pytest.raises(ValueError, match="last routable shard"):
                server.remove_shard(0)
            assert [e["shard"] for e in server.cluster_stats["shards"]] == [0]

    def test_remove_unknown_index(self, spec):
        with ShardedServer(spec, num_shards=1, health_interval_s=0.2) as server:
            with pytest.raises(KeyError, match="no shard with index 7"):
                server.remove_shard(7)

    def test_membership_after_close_raises(self, spec):
        server = ShardedServer(spec, num_shards=1, health_interval_s=0.2)
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.add_shard()
        with pytest.raises(RuntimeError, match="closed"):
            server.remove_shard(0)

    def test_add_remote_address_on_shm_cluster(self, spec, local_session):
        """add_shard("host:port") joins an external TCP worker even when
        the cluster's own transport is shm — mixed-transport membership,
        the deploy-anywhere case the launcher seam exists for."""
        bound = []
        ready = threading.Event()
        worker = threading.Thread(
            target=worker_serve,
            args=("127.0.0.1", 0),
            kwargs={"once": True, "on_bound": lambda p: (bound.append(p), ready.set())},
            daemon=True,
        )
        worker.start()
        assert ready.wait(10)
        x = _rand(3, seed=3)
        expected = local_session.run(x)
        with ShardedServer(spec, num_shards=1, health_interval_s=0.2) as server:
            added = server.add_shard(f"127.0.0.1:{bound[0]}")
            entry = _shard_entry(server, added)
            assert entry["address"] == f"127.0.0.1:{bound[0]}"
            assert entry["pid"] is None  # remote: no local process handle

            def hammer():
                futs = [server.submit(x) for _ in range(16)]
                for f in futs:
                    np.testing.assert_allclose(
                        f.result(timeout=60), expected, rtol=1e-4, atol=1e-5
                    )

            assert _wait_until(
                lambda: (hammer(), _shard_entry(server, added)["requests"] > 0)[1],
                timeout=30.0,
            )
        worker.join(timeout=10)


def _serve_in_thread(once: bool = True) -> str:
    """Start ``worker_serve`` on an ephemeral loopback port in a daemon
    thread; returns its ``host:port``."""
    bound = []
    ready = threading.Event()
    threading.Thread(
        target=worker_serve,
        args=("127.0.0.1", 0),
        kwargs={"once": once, "on_bound": lambda p: (bound.append(p), ready.set())},
        daemon=True,
    ).start()
    assert ready.wait(10)
    return f"127.0.0.1:{bound[0]}"


# ----------------------------------------------------------------------
# The address map: which shards are reached at an address
# ----------------------------------------------------------------------
class TestAddressMap:
    def test_add_without_address_on_addressed_cluster_refused(self, spec):
        """A ``shards=[...]`` cluster has no local launcher to spawn with."""
        with ShardedServer(spec, shards=[_serve_in_thread()],
                           health_interval_s=0.2) as server:
            with pytest.raises(ValueError, match="host:port"):
                server.add_shard()
            assert [e["shard"] for e in server.cluster_stats["shards"]] == [0]

    def test_unreachable_address_leaves_nothing_behind(self, spec):
        """An add whose address refuses every connect attempt raises,
        installs no member, pins no address, and spends its index."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            closed_port = probe.getsockname()[1]  # bound, never listening
        with ShardedServer(spec, num_shards=1, health_interval_s=0.2) as server:
            generation = server.cluster_stats["generation"]
            with pytest.raises(RuntimeError, match="unreachable"):
                server.add_shard(f"127.0.0.1:{closed_port}")
            stats = server.cluster_stats
            assert [e["shard"] for e in stats["shards"]] == [0]
            assert stats["generation"] == generation
            assert server._addresses == {}
            assert server.add_shard() == 2  # index 1 went to the failed add

    def test_reconnect_ships_the_bundle_as_it_is_now(self, tmp_path):
        """A remote shard that reconnects builds every model from its
        bundle file as it is at reconnect time: a model reloaded from a
        bundle rewritten at the same path keeps serving the new weights
        after the connection is severed, never an earlier handshake's."""
        spec_a = projected_smallcnn_spec(str(tmp_path / "a.npz"), in_size=IN_SIZE, seed=1)
        b_path = str(tmp_path / "b.npz")
        spec_b_old = projected_smallcnn_spec(b_path, in_size=IN_SIZE, seed=2)
        x = _rand(2, seed=5)
        with spec_b_old.build() as oracle:
            old = oracle.run(x)
        with ShardedServer(specs={"a": spec_a, "b": spec_b_old},
                           shards=[_serve_in_thread(once=False)],
                           health_interval_s=0.2) as server:
            np.testing.assert_array_equal(server.submit(x, model="b").result(timeout=60), old)
            server.unload_model("b", timeout=60.0)
            spec_b_new = projected_smallcnn_spec(b_path, in_size=IN_SIZE, seed=3)
            with spec_b_new.build() as oracle:
                new = oracle.run(x)
            assert not np.array_equal(old, new)
            server.load_model("b", spec_b_new, timeout=60.0)
            np.testing.assert_array_equal(server.submit(x, model="b").result(timeout=60), new)

            generation = server.cluster_stats["generation"]
            server._shards[0].endpoint.kill()  # sever: the router reconnects
            assert _wait_until(
                lambda: server.cluster_stats["generation"] > generation
                and server._shards[0].ready.is_set(),
                timeout=30.0,
            )
            np.testing.assert_array_equal(server.submit(x, model="b").result(timeout=60), new)


# ----------------------------------------------------------------------
# Membership chaos: add/remove under concurrent load
# ----------------------------------------------------------------------
class TestMembershipUnderLoad:
    def test_remove_and_add_under_16_client_load(
        self, spec, local_session, transport
    ):
        """The acceptance scenario: with 16 closed-loop clients running,
        remove a shard (drain) and add a fresh one in the same run —
        zero client-visible errors, and the new shard serves requests."""
        n_clients = 16
        xs = [_rand(1, seed=100 + i) for i in range(n_clients)]
        expected = [local_session.run(x) for x in xs]
        stop = threading.Event()
        errors: list[BaseException] = []
        served = [0] * n_clients

        with ShardedServer(spec, num_shards=2, transport=transport,
                           health_interval_s=0.2) as server:
            def client(i):
                try:
                    while not stop.is_set():
                        out = server.submit(xs[i]).result(timeout=60)
                        np.testing.assert_allclose(
                            out, expected[i], rtol=1e-4, atol=1e-5
                        )
                        served[i] += 1
                except BaseException as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            try:
                assert _wait_until(lambda: sum(served) > 50, timeout=30.0)
                added = server.add_shard()
                assert _wait_until(
                    lambda: (_shard_entry(server, added) or {}).get("requests", 0) > 0,
                    timeout=30.0,
                ), "added shard never served a request"
                outcome = server.remove_shard(0, drain=True, timeout=30.0)
                assert outcome["failed"] == 0  # drain + retries: no typed failures
                before_stop = sum(served)
                assert _wait_until(
                    lambda: sum(served) > before_stop + 20, timeout=30.0
                )  # the shrunken cluster still makes progress
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=60)
            assert not errors, errors[:3]
            stats = server.cluster_stats
            assert 0 not in [e["shard"] for e in stats["shards"]]
            assert _shard_entry(server, added)["requests"] > 0
            assert stats["errors"] == 0
            assert stats["generation"] >= 2  # one add + one remove at least

    def test_sigkill_during_drain_resolves_typed(self, spec, transport):
        """A shard that dies mid-drain must resolve every parked future
        with a typed error (no retry budget here) and the removal must
        still complete promptly — without respawning the victim."""
        with ShardedServer(
            spec, num_shards=2, transport=transport, health_interval_s=0.2,
            resilience=ResilienceConfig(max_retries=0),
        ) as server:
            victim = server._shards[0]
            assert _wait_until(lambda: victim.ready.is_set())
            os.kill(victim.process.pid, signal.SIGSTOP)
            try:
                # park requests on the stopped worker so the drain cannot
                # settle on its own
                futs = []
                x = _rand(1, seed=9)
                for _ in range(32):
                    fut = server.submit(x)
                    futs.append(fut)
                    if victim.outstanding >= 4:
                        break
                assert victim.outstanding > 0

                outcome_box = {}

                def remover():
                    outcome_box.update(
                        server.remove_shard(0, drain=True, timeout=60.0)
                    )

                remover_thread = threading.Thread(target=remover)
                remover_thread.start()
                time.sleep(0.3)  # let the drain wait begin
            finally:
                os.kill(victim.process.pid, signal.SIGKILL)
            remover_thread.join(timeout=30)
            assert not remover_thread.is_alive(), "removal hung on a dead shard"
            # every future resolves: results (other shard) or typed errors
            outcomes = []
            for fut in futs:
                try:
                    fut.result(timeout=60)
                    outcomes.append("ok")
                except ShardCrashedError:
                    outcomes.append("crashed")
            assert "crashed" in outcomes  # the parked ones failed typed
            stats = server.cluster_stats
            assert 0 not in [e["shard"] for e in stats["shards"]]  # no respawn
            assert stats["respawns"] == 0
            assert "shard_removed" in server.events.kinds()


# ----------------------------------------------------------------------
# Shard-list file watcher
# ----------------------------------------------------------------------
class TestShardFile:
    def test_parse_entries_comments_dedupe(self):
        text = (
            "# capacity plan\n"
            "local\n"
            "local  # second local worker\n"
            "\n"
            "10.0.0.5:7070\n"
            "10.0.0.5:7070\n"  # duplicate address: one shard per worker
        )
        assert parse_shard_file(text) == ["local", "local", "10.0.0.5:7070"]

    def test_parse_names_bad_line(self):
        with pytest.raises(ValueError, match="plan.txt:2"):
            parse_shard_file("local\nnot-an-address\n", name="plan.txt")

    def test_watcher_scales_up_and_down(self, spec, tmp_path):
        path = tmp_path / "shards.txt"
        with ShardedServer(spec, num_shards=1, health_interval_s=0.2) as server:
            watcher = ShardFileWatcher(server, path)
            assert watcher.poll_once() == (0, 0)  # absent file: no opinion
            path.write_text("local\nlocal\nlocal\n")
            assert watcher.poll_once() == (2, 0)
            assert len(server.cluster_stats["shards"]) == 3
            assert watcher.poll_once() == (0, 0)  # unchanged: no churn
            path.write_text("local\n")
            assert watcher.poll_once() == (0, 2)
            assert len(server.cluster_stats["shards"]) == 1
            # the founding shard survives scale-down (newest-first removal)
            assert [e["shard"] for e in server.cluster_stats["shards"]] == [0]

    def test_watcher_thread_applies_file_changes(self, spec, tmp_path):
        path = tmp_path / "shards.txt"
        path.write_text("local\nlocal\n")
        with ShardedServer(spec, num_shards=1, health_interval_s=0.2) as server:
            watcher = ShardFileWatcher(server, path, poll_interval_s=0.05).start()
            try:
                assert _wait_until(
                    lambda: len(server.cluster_stats["shards"]) == 2, timeout=30.0
                )
            finally:
                watcher.close()

    def test_watcher_refusal_is_reported_not_raised(self, spec, tmp_path):
        path = tmp_path / "shards.txt"
        with ShardedServer(spec, num_shards=1, health_interval_s=0.2) as server:
            watcher = ShardFileWatcher(server, path)
            path.write_text("# scale to zero\n")
            assert watcher.poll_once() == (0, 0)  # refused: last routable shard
            assert len(server.cluster_stats["shards"]) == 1
            errors = [e for e in server.events.tail() if e["kind"] == "shard_file_error"]
            assert errors and "last routable" in errors[-1]["error"]

    def test_watcher_bad_file_keeps_membership(self, spec, tmp_path):
        path = tmp_path / "shards.txt"
        with ShardedServer(spec, num_shards=1, health_interval_s=0.2) as server:
            watcher = ShardFileWatcher(server, path)
            path.write_text("garbage line\n")
            assert watcher.poll_once() == (0, 0)
            assert len(server.cluster_stats["shards"]) == 1
            assert "shard_file_error" in server.events.kinds()


# ----------------------------------------------------------------------
# Admin POST routes
# ----------------------------------------------------------------------
class TestAdminMembershipRoutes:
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

    def test_add_and_remove_over_http(self, spec, local_session):
        x = _rand(2, seed=5)
        expected = local_session.run(x)
        with ShardedServer(
            spec, num_shards=1, health_interval_s=0.2,
            telemetry=TelemetryConfig(metrics_port=0),
        ) as server:
            port = server.metrics_port
            status, payload = self._post(port, "/shards/add")
            assert status == 200 and payload["shard"] == 1
            assert len(server.cluster_stats["shards"]) == 2
            np.testing.assert_allclose(server.run(x), expected, rtol=1e-4, atol=1e-5)

            status, payload = self._post(port, "/shards/1/remove", {"timeout": 30})
            assert status == 200 and payload["shard"] == 1 and payload["drained"]
            assert [e["shard"] for e in server.cluster_stats["shards"]] == [0]

            # the generation gauge made it to /metrics
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=30
            ) as resp:
                text = resp.read().decode()
            assert "cluster_membership_generation 2" in text

    def test_error_statuses(self, spec):
        with ShardedServer(
            spec, num_shards=1, health_interval_s=0.2,
            telemetry=TelemetryConfig(metrics_port=0),
        ) as server:
            port = server.metrics_port
            status, payload = self._post(port, "/shards/9/remove")
            assert status == 404 and "no shard with index 9" in payload["error"]
            status, payload = self._post(port, "/shards/0/remove")
            assert status == 409 and "last routable" in payload["error"]
            status, payload = self._post(port, "/shards/nope")
            assert status == 404 and "routes" in payload
            # body must be a JSON object when present
            req = urllib.request.Request(
                f"http://127.0.0.1:{port}/shards/add", data=b"[1,2]", method="POST"
            )
            try:
                with urllib.request.urlopen(req, timeout=30) as resp:
                    status = resp.status
            except urllib.error.HTTPError as err:
                status = err.code
            assert status == 400
            assert len(server.cluster_stats["shards"]) == 1
