"""BufferArena: pooling, pad scratch, ownership, output sanitation, caps, threads."""

import threading

import numpy as np
import pytest

from repro.runtime.arena import BufferArena


class TestAcquireRelease:
    def test_acquire_zeroed(self):
        arena = BufferArena()
        buf = arena.acquire((2, 3), zero=True)
        assert buf.shape == (2, 3) and np.all(buf == 0)

    def test_release_then_acquire_reuses(self):
        arena = BufferArena()
        buf = arena.acquire((4, 4), zero=True)
        buf.fill(7.0)
        arena.release(buf)
        again = arena.acquire((4, 4), zero=True)
        assert again is buf
        assert np.all(again == 0)  # re-zeroed on reuse
        assert arena.reuses == 1 and arena.allocations == 1

    def test_different_shapes_different_buffers(self):
        arena = BufferArena()
        a = arena.acquire((2, 2))
        arena.release(a)
        b = arena.acquire((3, 3))
        assert b is not a
        assert arena.allocations == 2

    def test_foreign_array_release_is_noop(self):
        arena = BufferArena()
        foreign = np.zeros((2, 2), np.float32)
        arena.release(foreign)  # must not enter the pool
        got = arena.acquire((2, 2))
        assert got is not foreign

    def test_double_release_guard(self):
        arena = BufferArena()
        buf = arena.acquire((2, 2))
        arena.release(buf)
        arena.release(buf)
        first = arena.acquire((2, 2))
        second = arena.acquire((2, 2))
        assert first is not second  # buf was pooled once, not twice

    def test_owns(self):
        arena = BufferArena()
        buf = arena.acquire((1,))
        assert arena.owns(buf)
        assert not arena.owns(np.zeros(1, np.float32))


class TestPaddedScratch:
    def test_padding_zero_returns_input(self):
        arena = BufferArena()
        x = np.ones((1, 2, 3, 3), np.float32)
        assert arena.padded(x, 0) is x
        assert arena.pad_allocations == 0

    def test_border_is_zero_interior_copied(self):
        arena = BufferArena()
        x = np.full((2, 3, 4, 4), 5.0, np.float32)
        xp = arena.padded(x, 1)
        assert xp.shape == (2, 3, 6, 6)
        np.testing.assert_array_equal(xp[:, :, 1:5, 1:5], x)
        assert np.all(xp[:, :, 0, :] == 0) and np.all(xp[:, :, :, -1] == 0)

    def test_scratch_reused_and_border_stays_zero(self):
        arena = BufferArena()
        x1 = np.full((1, 1, 2, 2), 3.0, np.float32)
        buf1 = arena.padded(x1, 1)
        arena.release(buf1)
        x2 = np.full((1, 1, 2, 2), -4.0, np.float32)
        buf2 = arena.padded(x2, 1)
        assert buf2 is buf1
        assert arena.pad_reuses == 1
        np.testing.assert_array_equal(buf2[0, 0, 1:3, 1:3], x2[0, 0])
        assert np.all(buf2[0, 0, 0, :] == 0)

    def test_distinct_padding_distinct_scratch(self):
        arena = BufferArena()
        x = np.ones((1, 1, 4, 4), np.float32)
        a = arena.padded(x, 1)
        b = arena.padded(x, 2)
        assert a is not b and a.shape != b.shape

    def test_pad_scratch_keeps_input_dtype(self):
        """Regression: pad scratch hardcoded float32, silently downcasting
        non-float32 inputs and colliding two dtypes on one buffer."""
        arena = BufferArena()
        x64 = np.full((1, 1, 2, 2), 1.5, np.float64)
        p64 = arena.padded(x64, 1)
        assert p64.dtype == np.float64
        np.testing.assert_array_equal(p64[0, 0, 1:3, 1:3], x64[0, 0])

    def test_pad_scratch_dtypes_do_not_collide(self):
        arena = BufferArena()
        x32 = np.full((1, 1, 2, 2), 3.0, np.float32)
        x64 = np.full((1, 1, 2, 2), 7.0, np.float64)
        p32 = arena.padded(x32, 1)
        p64 = arena.padded(x64, 1)
        assert p32 is not p64
        assert p32.dtype == np.float32 and p64.dtype == np.float64
        # the float32 scratch was not clobbered by the float64 write
        np.testing.assert_array_equal(p32[0, 0, 1:3, 1:3], x32[0, 0])
        assert arena.pad_allocations == 2

    def test_pad_is_not_handed_out_by_acquire(self):
        """A pooled pad keeps its zero border only if nothing else ever
        writes it: a plain acquire of the same shape gets its own buffer."""
        arena = BufferArena()
        pad = arena.padded(np.ones((1, 1, 2, 2), np.float32), 1)
        arena.release(pad)
        plain = arena.acquire(pad.shape, zero=True)
        assert plain is not pad
        assert arena.padded(np.ones((1, 1, 2, 2), np.float32), 1) is pad

    def test_same_padded_shape_other_padding_other_pad(self):
        """(h=6, p=1) and (h=4, p=2) pad to the same shape with different
        borders: they must never share a pooled pad."""
        arena = BufferArena()
        a = arena.padded(np.ones((1, 1, 6, 6), np.float32), 1)
        arena.release(a)
        b = arena.padded(np.full((1, 1, 4, 4), 2.0, np.float32), 2)
        assert b.shape == a.shape and b is not a
        assert np.all(b[0, 0, :2] == 0) and np.all(b[0, 0, :, :2] == 0)

    def test_pooled_pad_border_stays_zero_across_threads(self):
        """A pad released by one thread and reused by another with other
        data keeps its zero border: only the interior is ever written."""
        arena = BufferArena()
        first = arena.padded(np.full((2, 3, 4, 4), 3.0, np.float32), 1)
        arena.release(first)
        x = np.full((2, 3, 4, 4), -4.0, np.float32)
        got: list[np.ndarray] = []
        t = threading.Thread(target=lambda: got.append(arena.padded(x, 1).copy()))
        t.start()
        t.join()
        assert arena.pad_reuses == 1 and arena.pad_allocations == 1
        np.testing.assert_array_equal(got[0][:, :, 1:5, 1:5], x)
        border = np.ones(got[0].shape, bool)
        border[:, :, 1:5, 1:5] = False
        assert np.all(got[0][border] == 0)


class TestSanitizeOutput:
    """A result that lives in arena memory is copied before it escapes a
    run; anything else is handed back as it is.  The executor decides
    this statically from the graph."""

    @staticmethod
    def _graph(tail):
        """x -> conv, then ``tail`` aliasing/reference nodes on top."""
        from repro.core.patterns import PatternSet, enumerate_candidate_patterns
        from repro.core.projections import project_kernel_pattern
        from repro.graph.ir import Graph, Node, OpKind, run_shape_inference

        rng = np.random.default_rng(0)
        ps = PatternSet(enumerate_candidate_patterns()[:6])
        w, a = project_kernel_pattern(rng.standard_normal((4, 2, 3, 3)).astype(np.float32), ps)
        g = Graph("sanitize")
        g.add(Node("x", OpKind.INPUT, attrs={"shape": (2, 5, 5)}))
        attrs = {"kernel_size": 3, "stride": 1, "padding": 1, "out_channels": 4}
        g.add(Node("conv", OpKind.CONV2D, inputs=["x"], attrs=attrs, params={"weight": w}))
        prev = "conv"
        for name, op, params in tail:
            attrs = {"out_features": 3} if op == OpKind.LINEAR else {}
            g.add(Node(name, op, inputs=[prev], attrs=attrs, params=params))
            prev = name
        g.outputs = [prev]
        run_shape_inference(g)
        return g, ps, {"conv": a.astype(np.int32)}

    def _run_recording(self, tail):
        """Two runs; returns (first result, the arrays each node returned
        in the second run, second result, arena)."""
        from repro.runtime import CompiledExecutor

        ex = CompiledExecutor(*self._graph(tail))
        returned: dict[str, np.ndarray] = {}
        dispatch = ex._dispatch

        def recording(node, inputs, arena):
            returned[node.name] = dispatch(node, inputs, arena)
            return returned[node.name]

        ex._dispatch = recording
        x = np.random.default_rng(1).standard_normal((2, 2, 5, 5)).astype(np.float32)
        first = ex.run(x)
        second = ex.run(x)
        return first, returned, second, ex.arena

    def test_owned_buffer_copied(self):
        first, returned, second, arena = self._run_recording([])
        assert arena.owns(returned["conv"])
        assert not np.shares_memory(second, returned["conv"])
        np.testing.assert_array_equal(second, returned["conv"])
        np.testing.assert_array_equal(first, second)
        assert arena.reuses == arena.allocations > 0  # run 2 reused all of run 1

    def test_view_of_owned_buffer_copied(self):
        from repro.graph.ir import OpKind

        _, returned, second, arena = self._run_recording([("flat", OpKind.FLATTEN, {})])
        assert np.shares_memory(returned["flat"], returned["conv"])
        assert not np.shares_memory(second, returned["conv"])
        np.testing.assert_array_equal(second, returned["flat"])

    def test_view_of_view_copied(self):
        """The result reaches the conv buffer through two aliasing nodes
        (FLATTEN, then OUTPUT): still arena memory."""
        from repro.graph.ir import OpKind

        tail = [("flat", OpKind.FLATTEN, {}), ("out", OpKind.OUTPUT, {})]
        _, returned, second, arena = self._run_recording(tail)
        assert returned["out"] is returned["flat"]
        assert not np.shares_memory(second, returned["conv"])
        np.testing.assert_array_equal(second, returned["flat"])

    def test_foreign_array_passes_through(self):
        from repro.graph.ir import OpKind

        fc = {"weight": np.ones((3, 4 * 25), np.float32)}
        tail = [("flat", OpKind.FLATTEN, {}), ("fc", OpKind.LINEAR, fc)]
        _, returned, second, arena = self._run_recording(tail)
        assert second is returned["fc"]
        assert not arena.owns(second)

    def test_clear_resets(self):
        arena = BufferArena()
        buf = arena.acquire((2, 2))
        arena.release(buf)
        arena.padded(np.ones((1, 1, 2, 2), np.float32), 1)
        arena.clear()
        assert arena.allocations == 0 and arena.pad_allocations == 0
        assert not arena.owns(buf)

class TestGrowthCap:
    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            BufferArena(max_bytes=-1)

    def test_free_buffers_evicted_lru_beyond_cap(self):
        one_kb = 256  # floats
        arena = BufferArena(max_bytes=3 * 1024)
        bufs = [arena.acquire((one_kb,)) for _ in range(5)]  # 5 KB in flight: allowed
        assert arena.footprint_bytes == 5 * 1024  # in-flight never evicted
        for b in bufs:
            arena.release(b)
        # releases trigger enforcement: retained scratch drops under the cap
        assert arena.footprint_bytes <= 3 * 1024
        assert arena.evictions >= 2
        # the survivors are the most recently released (LRU eviction)
        assert arena.owns(bufs[-1])
        assert not arena.owns(bufs[0])

    def test_evicted_buffer_not_handed_out_again(self):
        arena = BufferArena(max_bytes=0)
        buf = arena.acquire((64,))
        arena.release(buf)  # immediately evicted (cap 0)
        again = arena.acquire((64,))
        assert again is not buf
        assert arena.reuses == 0

    def test_pad_scratch_counts_toward_cap(self):
        arena = BufferArena(max_bytes=1024)
        x = np.ones((1, 1, 30, 30), np.float32)  # pad scratch 32*32*4 = 4 KB
        buf = arena.padded(x, 1)
        assert arena.footprint_bytes == buf.nbytes  # handed out: never evicted
        arena.release(buf)
        # a released over-cap pad is evicted from the arena's tables, but
        # a local reference stays valid
        np.testing.assert_array_equal(buf[0, 0, 1:31, 1:31], x[0, 0])
        assert arena.footprint_bytes <= 1024
        assert arena.evictions >= 1

    def test_many_distinct_shapes_stay_bounded(self):
        cap = 64 * 1024
        arena = BufferArena(max_bytes=cap)
        for n in range(1, 40):
            buf = arena.acquire((n, 32, 32), zero=True)
            pad = arena.padded(np.ones((n, 1, 8, 8), np.float32), 1)
            arena.release(pad)
            arena.release(buf)
            assert arena.footprint_bytes <= cap
        assert arena.evictions > 0

    def test_uncapped_arena_never_evicts(self):
        arena = BufferArena()
        for n in range(1, 20):
            arena.release(arena.acquire((n, 128)))
        assert arena.evictions == 0


class TestThreadSafety:
    def test_concurrent_acquire_release_never_share_a_buffer(self):
        """Hammer one arena from many threads; a buffer written by one
        thread must never be concurrently handed to another."""
        arena = BufferArena()
        errors = []

        def worker(tid):
            try:
                for i in range(200):
                    buf = arena.acquire((17, 13), zero=True)
                    buf.fill(tid * 1000 + i)
                    # if another thread got this same buffer, the value
                    # check below fails
                    assert np.all(buf == tid * 1000 + i)
                    arena.release(buf)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
