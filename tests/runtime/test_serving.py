"""Micro-batching serving front-end and shared-session thread safety.

The load-bearing claims under test:

* a session shared by many threads computes exactly what per-thread
  executors compute (no scratch-buffer cross-contamination);
* the micro-batch dispatcher runs what is queued the moment the runner
  is free (a lone request never waits; requests queued behind a busy
  runner coalesce into the next batch), scatters results to the right
  futures, and propagates errors;
* a capped arena keeps its retained footprint bounded under a
  many-shape request stream while outputs stay correct.
"""

import threading
import time

import numpy as np
import pytest

from repro import nn
from repro.core.masking import apply_masks, extract_masks
from repro.core.patterns import PatternSet, enumerate_candidate_patterns
from repro.core.projections import project_kernel_pattern
from repro.graph.builder import build_graph
from repro.models import build_small_cnn
from repro.runtime import (
    CompiledExecutor,
    InferenceSession,
    MicroBatchServer,
    ReferenceExecutor,
    ServingConfig,
    spec_from_json,
    spec_to_json,
)
from repro.runtime.cluster import projected_smallcnn_spec
from repro.utils.rng import make_rng

N_THREADS = 8
N_ITERS = 10


def _pruned_model(seed=7):
    model = build_small_cnn(channels=(8, 16), in_size=8, seed=seed)
    ps = PatternSet(enumerate_candidate_patterns()[:8])
    masks = extract_masks(model, ps, connectivity_rate=2.0)
    apply_masks(model, masks)
    model.eval()
    assignments = {}
    for name, module in model.named_modules():
        if isinstance(module, nn.Conv2d):
            _, a = project_kernel_pattern(module.weight.data, ps)
            energy = (module.weight.data.reshape(a.shape[0], a.shape[1], -1) ** 2).sum(axis=2)
            assignments[name] = (a * (energy > 0)).astype(np.int32)
    return model, ps, assignments


@pytest.fixture(scope="module")
def compiled_session():
    model, ps, assignments = _pruned_model()
    return InferenceSession(model, (3, 8, 8), pattern_set=ps, assignments=assignments)


@pytest.fixture(scope="module")
def wide_session(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("wide") / "bundle.npz"
    with projected_smallcnn_spec(str(bundle), channels=(64, 64), in_size=4).build() as session:
        yield session


@pytest.fixture(scope="module")
def inputs():
    rng = make_rng(11)
    return [rng.standard_normal((2, 3, 8, 8)).astype(np.float32) for _ in range(N_THREADS)]


class _GatedRunner:
    """Runner that records every batch it is handed, signals entry, and
    blocks until released — so a test decides exactly what is queued
    while the dispatcher is busy, with no sleeps and no timers."""

    def __init__(self, fn=lambda x: x):
        self.fn = fn
        self.calls: list[tuple] = []  # (shape, dtype) per runner call
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, x):
        self.calls.append((x.shape, x.dtype))
        self.entered.set()
        assert self.release.wait(10), "test never released the runner"
        return self.fn(x)

    def block_dispatcher(self, server, x):
        """Submit ``x`` and wait until the dispatcher is inside the
        runner with it: everything submitted next queues behind it."""
        fut = server.submit(x)
        assert self.entered.wait(10)
        return fut


def _one(value=0.0, shape=(1, 1, 2, 2), dtype=np.float32):
    return np.full(shape, value, dtype)


def _hammer(n_threads, fn):
    """Run ``fn(thread_idx)`` on n threads; re-raise the first failure."""
    errors = []

    def worker(i):
        try:
            fn(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


# ----------------------------------------------------------------------
# Shared-session stress: concurrent runs must match serial semantics
# ----------------------------------------------------------------------
class TestSharedSessionStress:
    def test_shared_reference_session_bitwise_vs_per_thread_executor(self, inputs):
        """N threads on one reference session == fresh per-thread executors."""
        model = build_small_cnn(channels=(8, 16), in_size=8, seed=3)
        shared = InferenceSession(model, (3, 8, 8))

        def worker(i):
            mine = ReferenceExecutor(shared.graph)
            for _ in range(N_ITERS):
                got = shared.run(inputs[i])
                expected = mine.run(inputs[i])
                assert np.array_equal(got, expected)  # bitwise

        _hammer(N_THREADS, worker)

    def test_shared_compiled_session_bitwise_vs_serial_baseline(self, compiled_session, inputs):
        """Concurrency must not perturb compiled outputs at all: the same
        session, same input, run single-threaded first, is the bitwise
        baseline (same batch shape -> identical kernel arithmetic)."""
        session = compiled_session
        baselines = [session.run(x) for x in inputs]

        def worker(i):
            for _ in range(N_ITERS):
                assert np.array_equal(session.run(inputs[i]), baselines[i])

        _hammer(N_THREADS, worker)
        # scratch was actually shared and recycled across those runs
        assert session.arena.reuses > 0

    def test_shared_compiled_session_matches_reference(self, compiled_session, inputs):
        """And the concurrent compiled outputs are the right numbers."""
        session = compiled_session
        ref = ReferenceExecutor(session.graph)
        expected = [ref.run(x) for x in inputs]

        def worker(i):
            for _ in range(N_ITERS):
                np.testing.assert_allclose(
                    session.run(inputs[i]), expected[i], rtol=1e-4, atol=1e-5
                )

        _hammer(N_THREADS, worker)


# ----------------------------------------------------------------------
# Micro-batch server behaviour
# ----------------------------------------------------------------------
class TestMicroBatchServer:
    def test_single_request_bitwise_vs_direct_run(self, compiled_session, inputs):
        """With max_batch=1 nothing is coalesced: results are bitwise
        identical to calling the executor directly."""
        with MicroBatchServer(
            compiled_session.executor.run, ServingConfig(max_batch=1)
        ) as server:
            for x in inputs[:3]:
                assert np.array_equal(server.run(x), compiled_session.run(x))

    def test_concurrent_submits_are_coalesced_and_correct(self, compiled_session, wide_session, inputs):
        """Coalesced replies are bitwise what ``session.run`` gives each
        request alone — also on ``wide_session``, whose 2x2 64-channel
        layers are where a batch-folded GEMM changes BLAS kernel with
        batch size."""
        rng = make_rng(5)
        wide_inputs = [rng.standard_normal((1, 3, 4, 4)).astype(np.float32) for _ in range(N_THREADS)]
        for session, singles in (
            (compiled_session, [x[:1] for x in inputs]),
            (wide_session, wide_inputs),
        ):
            ref = ReferenceExecutor(session.graph)
            expected = [ref.run(x) for x in singles]
            alone = [session.run(x) for x in singles]
            runner = _GatedRunner(session.run)
            with MicroBatchServer(runner, ServingConfig(max_batch=N_THREADS)) as server:
                blocker = runner.block_dispatcher(server, singles[0])
                futures: dict = {}

                def worker(i):
                    futures[i] = server.submit(singles[i])

                _hammer(N_THREADS, worker)  # all queued behind the busy runner
                runner.release.set()
                blocker.result(timeout=30)
                results = {i: fut.result(timeout=30) for i, fut in futures.items()}
                stats = server.stats
                assert stats.requests == stats.samples == N_THREADS + 1
                # the concurrent submits came out as ONE batch, not N_THREADS
                assert stats.batches == 2
                assert stats.max_batch_seen == N_THREADS
            for i, out in results.items():
                assert np.array_equal(out, alone[i]), f"request {i} differs from its solo run"
                np.testing.assert_allclose(out, expected[i], rtol=1e-4, atol=1e-5)

    def test_bare_sample_promoted(self, compiled_session):
        with MicroBatchServer(compiled_session.run) as server:
            out = server.run(np.zeros((3, 8, 8), np.float32))
            assert out.shape == (1, 10)

    def test_mixed_dtypes_grouped_not_promoted(self):
        """Same-shape requests of different dtypes must not be
        concatenated — co-batched traffic would silently promote them."""
        runner = _GatedRunner()
        with MicroBatchServer(runner, ServingConfig(max_batch=8)) as server:
            runner.block_dispatcher(server, _one())
            f32 = [server.submit(_one(1.0)) for _ in range(2)]
            f64 = server.submit(_one(1.0, dtype=np.float64))
            runner.release.set()
            assert all(f.result(timeout=10).dtype == np.float32 for f in f32)
            assert f64.result(timeout=10).dtype == np.float64
        # taken in one dispatch, run as one group per dtype
        assert runner.calls[1:] == [((2, 1, 2, 2), np.float32), ((1, 1, 2, 2), np.float64)]

    def test_dropped_server_does_not_leak_dispatcher_thread(self):
        """A server dropped without close() must shut its dispatcher down
        via the gc finalizer instead of leaking the thread (and the
        executor/arena it references)."""
        import gc

        server = MicroBatchServer(lambda x: x)
        thread = server._dispatcher
        assert thread.is_alive()
        del server
        gc.collect()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_mixed_shapes_grouped_not_mixed(self):
        """Requests of different sample shapes taken in one dispatch run
        as separate shape groups."""
        runner = _GatedRunner(lambda x: x * 2.0)
        with MicroBatchServer(runner, ServingConfig(max_batch=16)) as server:
            a = np.ones((1, 2, 4, 4), np.float32)
            b = np.ones((1, 2, 6, 6), np.float32)
            runner.block_dispatcher(server, a)
            futs = [server.submit(a), server.submit(b), server.submit(a)]
            runner.release.set()
            outs = [f.result(timeout=10) for f in futs]
        np.testing.assert_array_equal(outs[0], a * 2)
        np.testing.assert_array_equal(outs[1], b * 2)
        np.testing.assert_array_equal(outs[2], a * 2)
        # the two (4,4) requests ran as one batch, the (6,6) one alone
        assert [shape for shape, _ in runner.calls[1:]] == [(2, 2, 4, 4), (1, 2, 6, 6)]

    def test_oversized_request_served_whole(self):
        with MicroBatchServer(lambda x: x + 1, ServingConfig(max_batch=2)) as server:
            x = np.zeros((5, 1, 2, 2), np.float32)
            out = server.run(x)
            assert out.shape == x.shape and np.all(out == 1)

    def test_runner_returning_garbage_fails_futures_not_dispatcher(self):
        """A runner returning something the scatter chokes on must resolve
        the futures with the error and leave the dispatcher alive."""
        calls = []

        def runner(x):
            calls.append(x.shape)
            return None if len(calls) == 1 else x

        with MicroBatchServer(runner, ServingConfig(max_batch=1)) as server:
            bad = server.submit(np.zeros((1, 1, 2, 2), np.float32))
            with pytest.raises((TypeError, AttributeError)):
                bad.result(timeout=10)
            # dispatcher survived and serves the next request
            good = server.submit(np.ones((1, 1, 2, 2), np.float32))
            np.testing.assert_array_equal(good.result(timeout=10), np.ones((1, 1, 2, 2)))
            assert server.stats.errors == 1

    def test_runner_row_count_mismatch_errors_all_futures(self):
        """A runner returning fewer rows than samples must fail the whole
        group loudly — never resolve a co-batched client with an empty
        or truncated slice."""
        runner = _GatedRunner(lambda x: x[:1])
        with MicroBatchServer(runner, ServingConfig(max_batch=4)) as server:
            runner.block_dispatcher(server, _one())
            futs = [server.submit(_one()) for _ in range(3)]  # one batch of 3
            runner.release.set()
            for fut in futs:
                with pytest.raises(ValueError, match="rows for a batch of"):
                    fut.result(timeout=10)

    def test_shutdown_drain_respects_max_batch(self):
        """The close() backlog drain must chunk by max_batch, not run one
        concatenated mega-batch."""
        gate = threading.Event()

        def runner(x):
            gate.wait(5)
            return x

        server = MicroBatchServer(runner, ServingConfig(max_batch=2))
        futs = [server.submit(np.zeros((1, 1, 2, 2), np.float32)) for _ in range(9)]
        gate.set()
        server.close(timeout=30)
        for fut in futs:
            assert fut.result(timeout=1).shape == (1, 1, 2, 2)
        assert server.stats.max_batch_seen <= 2

    def test_runner_error_propagates_to_every_future(self):
        def runner(x):
            raise RuntimeError("kernel exploded")

        with MicroBatchServer(runner, ServingConfig(max_batch=4)) as server:
            futs = [server.submit(np.zeros((1, 1, 2, 2), np.float32)) for _ in range(3)]
            for fut in futs:
                with pytest.raises(RuntimeError, match="kernel exploded"):
                    fut.result(timeout=10)
            assert server.stats.errors == 3

    def test_close_drains_backlog(self):
        slow = threading.Event()

        def runner(x):
            slow.wait(0.05)
            return x

        server = MicroBatchServer(runner, ServingConfig(max_batch=1))
        futs = [server.submit(np.zeros((1, 1, 2, 2), np.float32)) for _ in range(6)]
        server.close(timeout=30)
        for fut in futs:
            assert fut.result(timeout=1) is not None

    def test_cancelled_future_skipped_dispatcher_survives(self):
        """A client cancelling its future must not kill the dispatcher or
        starve the other requests in the same window."""
        gate = threading.Event()

        def runner(x):
            gate.wait(5)
            return x + 1

        with MicroBatchServer(runner, ServingConfig(max_batch=1)) as server:
            # first request occupies the dispatcher while we queue + cancel
            blocked = server.submit(np.zeros((1, 1, 2, 2), np.float32))
            doomed = server.submit(np.zeros((1, 1, 2, 2), np.float32))
            survivor = server.submit(np.zeros((1, 1, 2, 2), np.float32))
            assert doomed.cancel()
            gate.set()
            assert np.all(blocked.result(timeout=10) == 1)
            assert np.all(survivor.result(timeout=10) == 1)  # dispatcher alive
            with pytest.raises(Exception):
                doomed.result(timeout=1)

    def test_submit_after_close_raises(self):
        server = MicroBatchServer(lambda x: x)
        server.close()
        server.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(np.zeros((1, 1, 2, 2), np.float32))

    def test_rejects_bad_input_ndim(self):
        with MicroBatchServer(lambda x: x) as server:
            with pytest.raises(ValueError, match="expected"):
                server.submit(np.zeros((2, 2), np.float32))

    def test_accepts_object_with_run_method(self, compiled_session):
        with MicroBatchServer(compiled_session.executor) as server:
            out = server.run(np.zeros((1, 3, 8, 8), np.float32))
            assert out.shape == (1, 10)

    def test_rejects_non_runner(self):
        with pytest.raises(TypeError, match="callable"):
            MicroBatchServer(object())

    @pytest.mark.parametrize(
        "kwargs", [{"max_batch": 0}, {"queue_depth": -1}, {"queue_depth": 0}]
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)


# ----------------------------------------------------------------------
# Work-conserving dispatch (no timer: batch size follows load) + latency
# tracking
# ----------------------------------------------------------------------
class TestWorkConservingDispatch:
    def test_lone_request_runs_immediately(self):
        """An idle dispatcher hands a lone request straight to the runner
        — nothing else has to arrive, and no window has to elapse."""
        runner = _GatedRunner()
        with MicroBatchServer(runner, ServingConfig(max_batch=8)) as server:
            fut = server.submit(_one())
            assert runner.entered.wait(10)  # before any second submit
            assert server._queue.empty()
            assert runner.calls == [((1, 1, 2, 2), np.float32)]
            runner.release.set()
            fut.result(timeout=10)
            assert server.stats.batches == 1
            assert server.stats.max_batch_seen == 1

    def test_requests_queued_behind_busy_runner_coalesce(self):
        k = 5
        runner = _GatedRunner()
        with MicroBatchServer(runner, ServingConfig(max_batch=8)) as server:
            runner.block_dispatcher(server, _one())
            futs = [server.submit(_one(i)) for i in range(k)]
            runner.release.set()
            for i, fut in enumerate(futs):  # rows scattered back in order
                np.testing.assert_array_equal(fut.result(timeout=10), _one(i))
            assert [shape[0] for shape, _ in runner.calls] == [1, k]
            assert server.stats.batches == 2
            assert server.stats.max_batch_seen == k

    def test_backlog_splits_at_max_batch(self):
        max_batch = 4
        runner = _GatedRunner()
        with MicroBatchServer(runner, ServingConfig(max_batch=max_batch)) as server:
            runner.block_dispatcher(server, _one())
            futs = [server.submit(_one(i)) for i in range(2 * max_batch + 1)]
            runner.release.set()
            for i, fut in enumerate(futs):
                np.testing.assert_array_equal(fut.result(timeout=10), _one(i))
            assert [shape[0] for shape, _ in runner.calls] == [1, max_batch, max_batch, 1]


class TestLatencyTracking:
    def test_percentiles_populated_and_ordered(self):
        def runner(x):
            time.sleep(0.002)
            return x

        with MicroBatchServer(runner, ServingConfig(max_batch=4)) as server:
            futs = [server.submit(np.zeros((1, 1, 2, 2), np.float32)) for _ in range(20)]
            for fut in futs:
                fut.result(timeout=30)
            stats = server.stats
            assert stats.p50_ms >= 2.0  # every request waited for the runner
            assert stats.p95_ms >= stats.p50_ms

    def test_no_traffic_percentiles_zero(self):
        with MicroBatchServer(lambda x: x) as server:
            assert server.stats.p50_ms == 0.0
            assert server.stats.p95_ms == 0.0

    def test_snapshot_is_picklable_and_complete(self):
        import pickle

        with MicroBatchServer(lambda x: x) as server:
            server.run(np.zeros((1, 1, 2, 2), np.float32), timeout=30)
            snap = pickle.loads(pickle.dumps(server.stats.snapshot()))
        assert snap["requests"] == 1 and snap["samples"] == 1
        for key in ("batches", "errors", "mean_batch", "max_batch_seen",
                    "p50_ms", "p95_ms"):
            assert key in snap
        assert snap["p50_ms"] > 0


# ----------------------------------------------------------------------
# Session-level async API
# ----------------------------------------------------------------------
class TestSessionAsyncAPI:
    def test_run_async_lazy_server_and_close(self):
        model, ps, assignments = _pruned_model(seed=5)
        with InferenceSession(
            model,
            (3, 8, 8),
            pattern_set=ps,
            assignments=assignments,
            serving_config=ServingConfig(max_batch=4),
        ) as session:
            assert session.serving_stats is None  # not started yet
            x = make_rng(1).standard_normal((1, 3, 8, 8)).astype(np.float32)
            expected = session.run(x)

            def worker(i):
                for _ in range(N_ITERS):
                    got = session.run_async(x).result(timeout=30)
                    np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-5)

            _hammer(N_THREADS, worker)
            stats = session.serving_stats
            assert stats is not None and stats.requests == N_THREADS * N_ITERS
        # context-manager exit closed the server; plain run still works
        assert session.run(x).shape == (1, 10)

    def test_run_async_retries_when_racing_a_close(self):
        """run_async holding a reference to a server that close() just
        shut down must transparently restart instead of surfacing the
        server's RuntimeError."""
        model, ps, assignments = _pruned_model(seed=6)
        session = InferenceSession(model, (3, 8, 8), pattern_set=ps, assignments=assignments)
        x = np.zeros((1, 3, 8, 8), np.float32)
        session.run_async(x).result(timeout=30)
        # close the server behind the session's back: the stale reference
        # is exactly what a concurrent close() leaves a racing run_async
        session._server.close()
        out = session.run_async(x).result(timeout=30)
        assert out.shape == (1, 10)
        session.close()

    def test_run_async_restarts_after_close(self):
        model, ps, assignments = _pruned_model(seed=6)
        session = InferenceSession(model, (3, 8, 8), pattern_set=ps, assignments=assignments)
        x = np.zeros((1, 3, 8, 8), np.float32)
        first = session.run_async(x).result(timeout=30)
        session.close()
        second = session.run_async(x).result(timeout=30)  # fresh server
        np.testing.assert_array_equal(first, second)
        session.close()


# ----------------------------------------------------------------------
# Spec codec: the nested serving_config is validated, not splatted
# ----------------------------------------------------------------------
class TestSpecCodec:
    BASE = {"model": "smallcnn", "input_shape": [3, 8, 8], "bundle_path": "bundle.npz"}

    def test_serving_config_round_trip(self):
        spec = spec_from_json(
            {**self.BASE, "serving_config": {"max_batch": 4, "queue_depth": 32}}
        )
        assert spec.serving_config == ServingConfig(max_batch=4, queue_depth=32)
        wire = spec_to_json(spec)
        assert wire["serving_config"] == {"max_batch": 4, "queue_depth": 32}
        assert spec_from_json(wire) == spec

    @pytest.mark.parametrize(
        "serving_config, named",
        [
            # a spec file written before the coalescing window was removed
            ({"max_batch": 4, "max_wait_ms": 2.0, "adaptive_wait": True},
             "adaptive_wait, max_wait_ms"),
            ({"max_bacth": 4}, "max_bacth"),  # must not silently default
        ],
        ids=["stale", "typo"],
    )
    def test_unknown_serving_config_key_raises(self, serving_config, named):
        with pytest.raises(ValueError, match=rf"unknown serving_config key\(s\): {named}$"):
            spec_from_json({**self.BASE, "serving_config": serving_config})

    def test_non_dict_serving_config_raises(self):
        with pytest.raises(ValueError, match="serving_config must be a JSON object, got list"):
            spec_from_json({**self.BASE, "serving_config": [8, 1024]})


# ----------------------------------------------------------------------
# Arena growth cap under many-shape traffic
# ----------------------------------------------------------------------
class TestArenaCapUnderManyShapes:
    def test_footprint_bounded_and_outputs_correct(self):
        model, ps, assignments = _pruned_model(seed=9)
        graph = build_graph(model, (3, 8, 8))
        ref = ReferenceExecutor(graph)
        cap = 256 * 1024
        session = InferenceSession(
            model, (3, 8, 8), pattern_set=ps, assignments=assignments, arena_max_bytes=cap
        )
        rng = make_rng(4)
        # every distinct batch size keys distinct pad/output scratch — a
        # many-shape request stream in miniature
        for n in list(range(1, 24)) * 2:
            x = rng.standard_normal((n, 3, 8, 8)).astype(np.float32)
            np.testing.assert_allclose(session.run(x), ref.run(x), rtol=1e-4, atol=1e-5)
            assert session.arena.footprint_bytes <= cap
        assert session.arena.evictions > 0

    def test_uncapped_arena_grows_past_cap_worth_of_shapes(self):
        """Control: without the cap the same traffic retains more scratch."""
        model, ps, assignments = _pruned_model(seed=9)
        capped = InferenceSession(
            model, (3, 8, 8), pattern_set=ps, assignments=assignments, arena_max_bytes=256 * 1024
        )
        free = InferenceSession(model, (3, 8, 8), pattern_set=ps, assignments=assignments)
        rng = make_rng(4)
        for n in range(1, 16):
            x = rng.standard_normal((n, 3, 8, 8)).astype(np.float32)
            capped.run(x)
            free.run(x)
        assert free.arena.footprint_bytes > capped.arena.footprint_bytes
        assert capped.arena.footprint_bytes <= 256 * 1024


# ----------------------------------------------------------------------
# SLO-aware admission: queue-full fast fail, deadline shedding
# ----------------------------------------------------------------------
class TestAdmissionAndDeadlines:
    @staticmethod
    def _blocked_server(queue_depth=1):
        """Server whose runner blocks until released — lets a test fill
        the queue deterministically."""
        runner = _GatedRunner(lambda x: x.reshape(x.shape[0], -1).copy())
        cfg = ServingConfig(max_batch=1, queue_depth=queue_depth)
        return MicroBatchServer(runner, cfg), runner

    def test_queue_full_typed_error_counts_shed(self):
        from repro.runtime import QueueFullError

        server, runner = self._blocked_server(queue_depth=1)
        x = np.zeros((1, 3, 8, 8), np.float32)
        try:
            first = runner.block_dispatcher(server, x)
            second = server.submit(x)  # occupies the single queue permit
            with pytest.raises(QueueFullError, match="shed"):
                server.submit(x, timeout=0.05)
            assert server.stats.shed == 1
            runner.release.set()
            assert first.result(timeout=10).shape == (1, 192)
            assert second.result(timeout=10).shape == (1, 192)
            assert server.stats.errors == 0  # shed is not an execution error
        finally:
            runner.release.set()
            server.close()

    def test_queue_full_is_runtimeerror_for_backcompat(self):
        from repro.runtime import QueueFullError

        server, runner = self._blocked_server(queue_depth=1)
        x = np.zeros((1, 3, 8, 8), np.float32)
        try:
            runner.block_dispatcher(server, x)
            server.submit(x)
            with pytest.raises(RuntimeError):  # pre-existing except clauses still catch it
                server.submit(x, timeout=0.05)
            assert issubclass(QueueFullError, RuntimeError)
        finally:
            runner.release.set()
            server.close()

    def test_expired_deadline_rejected_at_submission(self):
        from repro.runtime import DeadlineExceededError

        with MicroBatchServer(lambda x: x) as server:
            with pytest.raises(DeadlineExceededError, match="already expired"):
                server.submit(np.zeros((1, 3, 8, 8), np.float32), deadline=-0.01)
            assert server.stats.timed_out == 1

    def test_deadline_expiring_in_queue_sheds_before_dispatch(self):
        from repro.runtime import DeadlineExceededError

        server, runner = self._blocked_server(queue_depth=8)
        x = np.zeros((1, 3, 8, 8), np.float32)
        try:
            blocker = runner.block_dispatcher(server, x)
            doomed_at = time.monotonic() + 0.2
            doomed = server.submit(x, deadline_at=doomed_at)  # queued, alive
            while time.monotonic() < doomed_at:  # expires behind the busy runner
                time.sleep(0.01)
            runner.release.set()
            with pytest.raises(DeadlineExceededError, match="shed before dispatch"):
                doomed.result(timeout=10)
            assert blocker.result(timeout=10).shape == (1, 192)
            assert server.stats.timed_out == 1
            # the runner never saw the shed request: only the blocker ran
            assert len(runner.calls) == 1
            assert server.stats.samples == 1
        finally:
            runner.release.set()
            server.close()

    def test_deadline_met_serves_normally(self):
        with MicroBatchServer(lambda x: x.reshape(x.shape[0], -1).copy()) as server:
            out = server.run(np.zeros((2, 3, 8, 8), np.float32), timeout=10, deadline=30.0)
            assert out.shape == (2, 192)
            assert server.stats.timed_out == 0 and server.stats.shed == 0


# ----------------------------------------------------------------------
# Deterministic fault injection in the in-process front-end
# ----------------------------------------------------------------------
class TestServerFaultInjection:
    def test_injected_crash_is_typed_and_counted(self):
        from repro.runtime import FaultPlan, InjectedFaultError

        plan = FaultPlan(seed=1, crash_rate=1.0)
        with MicroBatchServer(lambda x: x, faults=plan) as server:
            fut = server.submit(np.zeros((1, 3, 8, 8), np.float32))
            with pytest.raises(InjectedFaultError, match="injected crash"):
                fut.result(timeout=10)
            assert server.stats.errors == 1

    def test_no_plan_means_no_injection(self):
        with MicroBatchServer(lambda x: x.reshape(x.shape[0], -1).copy()) as server:
            for _ in range(8):
                assert server.run(np.zeros((1, 3, 8, 8), np.float32), timeout=10).shape == (1, 192)
            assert server.stats.errors == 0

    def test_partial_plan_faults_exactly_the_planned_requests(self):
        """The same seeded plan replayed over sequential request ids must
        fault exactly the requests it says it faults — determinism is
        what makes chaos assertions possible at all."""
        from repro.runtime import FaultPlan, InjectedFaultError

        plan = FaultPlan(seed=5, crash_rate=0.3)
        expected = [plan.decide(i) == "crash" for i in range(16)]
        assert any(expected) and not all(expected)  # seed exercises both paths
        cfg = ServingConfig(max_batch=1)  # solo batches: no co-batch blast radius
        with MicroBatchServer(lambda x: x.reshape(x.shape[0], -1).copy(), cfg, faults=plan) as server:
            futs = [server.submit(np.zeros((1, 3, 8, 8), np.float32)) for _ in range(16)]
            for fut, crashes in zip(futs, expected):
                if crashes:
                    with pytest.raises(InjectedFaultError):
                        fut.result(timeout=10)
                else:
                    assert fut.result(timeout=10).shape == (1, 192)
