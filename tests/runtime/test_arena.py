"""BufferArena: pooling, pad scratch, ownership, sanitation, caps, threads."""

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

    def test_pad_scratch_per_thread(self):
        """Two threads padding same-shaped inputs must not share scratch."""
        arena = BufferArena()
        x = np.ones((1, 1, 2, 2), np.float32)
        main_buf = arena.padded(x, 1)
        other: list[np.ndarray] = []
        t = threading.Thread(target=lambda: other.append(arena.padded(x, 1)))
        t.start()
        t.join()
        assert other[0] is not main_buf


class TestSanitizeOutput:
    def test_owned_buffer_copied(self):
        arena = BufferArena()
        buf = arena.acquire((2, 2), zero=True)
        out = arena.sanitize_output(buf)
        assert out is not buf
        np.testing.assert_array_equal(out, buf)

    def test_view_of_owned_buffer_copied(self):
        arena = BufferArena()
        buf = arena.acquire((2, 4), zero=True)
        view = buf[0]
        assert arena.sanitize_output(view) is not view

    def test_view_of_view_copied(self):
        """Ownership follows the whole ``.base`` chain: a reshape of a slice
        of an owned buffer is still arena memory."""
        arena = BufferArena()
        buf = arena.acquire((2, 3, 4), zero=True)
        view = buf[1:].reshape(-1)[::2]
        out = arena.sanitize_output(view)
        assert out is not view and not np.shares_memory(out, buf)
        np.testing.assert_array_equal(out, view)

    def test_foreign_array_passes_through(self):
        arena = BufferArena()
        arena.acquire((2, 2))
        foreign = np.ones((3, 3), np.float32)
        assert arena.sanitize_output(foreign) is foreign

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
        # over-cap pad scratch is evicted from the arena's tables, but the
        # local reference stays valid for the in-progress conv
        np.testing.assert_array_equal(buf[0, 0, 1:31, 1:31], x[0, 0])
        assert arena.footprint_bytes <= 1024
        assert arena.evictions >= 1

    def test_many_distinct_shapes_stay_bounded(self):
        cap = 64 * 1024
        arena = BufferArena(max_bytes=cap)
        for n in range(1, 40):
            buf = arena.acquire((n, 32, 32), zero=True)
            arena.padded(np.ones((n, 1, 8, 8), np.float32), 1)
            arena.release(buf)
            arena.reclaim()
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

    def test_reclaim_spares_other_threads_in_flight_buffers(self):
        arena = BufferArena()
        acquired = threading.Event()
        done = threading.Event()
        held: list[np.ndarray] = []

        def holder():
            held.append(arena.acquire((8, 8)))
            acquired.set()
            done.wait(10)

        t = threading.Thread(target=holder)
        t.start()
        acquired.wait(10)
        arena.reclaim()  # main thread's backstop must not pool the holder's buffer
        stolen = arena.acquire((8, 8))
        assert stolen is not held[0]
        done.set()
        t.join()

    def test_reclaim_pools_buffers_of_exited_threads(self):
        arena = BufferArena()
        held: list[np.ndarray] = []
        t = threading.Thread(target=lambda: held.append(arena.acquire((8, 8))))
        t.start()
        t.join()  # thread gone, its buffer still in flight
        arena.reclaim()
        assert arena.acquire((8, 8)) is held[0]

    def test_reclaim_drops_pad_scratch_of_exited_threads(self):
        """Thread-per-request traffic must not leak one pad set per dead
        thread (pad scratch is keyed by thread ident)."""
        arena = BufferArena()
        x = np.ones((1, 1, 4, 4), np.float32)
        threads = [threading.Thread(target=lambda: arena.padded(x, 1)) for _ in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        leaked = arena.footprint_bytes
        assert leaked > 0
        mine = arena.padded(x, 1)  # the caller's own pad must survive reclaim
        arena.reclaim()
        assert arena.footprint_bytes == mine.nbytes
        assert arena.padded(x, 1) is mine
