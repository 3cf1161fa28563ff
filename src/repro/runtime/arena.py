"""Shape-keyed scratch-buffer arena for the compiled runtime.

The batched FKW kernels allocate scratch per call: an output buffer and,
depending on the level, a padded copy of the layer input (the numpy
levels) or a per-sample scratch the native kernel pads into or gathers
its im2col columns into.  Re-allocating (and re-zeroing) them on every
``run()`` is pure overhead under steady traffic, so :class:`BufferArena`
keeps them alive across calls in one free pool, keyed by shape, dtype
and padding:

* **General buffers** (kernel outputs, kernel scratch; padding 0) are
  handed out by :meth:`acquire`.  The executor releases them when
  liveness says the value is dead, so two same-shaped conv layers in a
  network share one physical accumulator.
* **Padded-input scratch** is handed out by :meth:`padded` under its
  padded shape *and* padding — (h=6, p=1) and (h=4, p=2) pad to the same
  shape but have different borders.  The zero border is written once at
  allocation; later calls only copy the interior (nothing else ever
  writes a pad, and :meth:`acquire` never hands one out), so the border
  stays zero and the ``np.pad`` allocate-and-copy disappears from the
  steady state.  The kernel releases its pad as soon as the conv has
  read it.

Ownership is static: whoever acquires a buffer releases it — the
kernels their pads and scratch, :class:`~repro.runtime.executor.CompiledExecutor`
every kernel output it holds, also when a run raises.  The arena only
pools what it is given back.

Thread safety
-------------
One ``Lock`` guards the pool, so one arena may back an executor shared
by many threads: a buffer is handed to exactly one caller until that
caller releases it, and allocation and zero-filling run outside the
lock.

Growth cap
----------
Pass ``max_bytes`` to bound retained scratch under many-shape traffic:
when the total footprint of arena-owned buffers exceeds the cap, pooled
buffers are evicted least-recently-released first.  Buffers handed out
and not yet released are never evicted — the cap bounds what the arena
*retains* between runs, not the live working set of a run in progress.

``release`` only accepts buffers the arena itself allocated (tracked by
identity): releasing a foreign array — a user input, a reference-kernel
output — is a no-op, and so is a second release of a pooled buffer.
"""

from __future__ import annotations

import threading

import numpy as np


class BufferArena:
    """Reusable scratch buffers, keyed by shape, dtype and padding.

    Thread-safe: one arena may back one executor shared by many threads.

    Args:
        max_bytes: optional cap on retained scratch; pooled buffers are
            LRU-evicted when the total footprint exceeds it.
    """

    def __init__(self, max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        # (shape, dtype, padding) -> pooled buffers; padding 0 = acquire
        self._free: dict[tuple, list[np.ndarray]] = {}
        # id -> (key, buffer) for every array this arena allocated and
        # has not evicted; holding the reference keeps ids stable.
        self._owned: dict[int, tuple[tuple, np.ndarray]] = {}
        # ids of the pooled buffers, oldest release first (the LRU order)
        self._pooled: dict[int, None] = {}
        # running total of owned bytes, so the cap check never re-scans
        self._footprint = 0
        self.allocations = 0
        self.reuses = 0
        self.pad_allocations = 0
        self.pad_reuses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    @property
    def footprint_bytes(self) -> int:
        """Total bytes of every buffer the arena currently holds."""
        with self._lock:
            return self._footprint

    def _take(self, key: tuple) -> np.ndarray | None:
        """Pop a pooled buffer for ``key`` (``None`` on a miss)."""
        with self._lock:
            pool = self._free.get(key)
            if not pool:
                return None
            buf = pool.pop()
            del self._pooled[id(buf)]
            if key[2]:
                self.pad_reuses += 1
            else:
                self.reuses += 1
            return buf

    def _adopt(self, key: tuple, buf: np.ndarray) -> None:
        """Start owning a freshly allocated ``buf`` (handed out, not pooled)."""
        with self._lock:
            if key[2]:
                self.pad_allocations += 1
            else:
                self.allocations += 1
            self._owned[id(buf)] = (key, buf)
            self._footprint += buf.nbytes
            self._enforce_cap()

    def _enforce_cap(self) -> None:
        """Evict pooled buffers, oldest release first, until under
        ``max_bytes``.  Must be called with the lock held."""
        if self.max_bytes is None:
            return
        while self._footprint > self.max_bytes and self._pooled:
            buf_id = next(iter(self._pooled))
            del self._pooled[buf_id]
            key, buf = self._owned.pop(buf_id)
            pool = self._free[key]
            del pool[next(i for i, b in enumerate(pool) if b is buf)]
            self._footprint -= buf.nbytes
            self.evictions += 1

    # ------------------------------------------------------------------
    def acquire(self, shape: tuple[int, ...], dtype=np.float32, zero: bool = False) -> np.ndarray:
        """Hand out a buffer of ``shape``, recycling a pooled one if possible."""
        key = (tuple(shape), np.dtype(dtype), 0)
        buf = self._take(key)
        if buf is None:
            # allocate (and zero-fill) outside the lock — other threads'
            # acquire/release must not stall behind a large cold allocation
            buf = np.zeros(shape, dtype) if zero else np.empty(shape, dtype)
            self._adopt(key, buf)
        elif zero:
            buf.fill(0)
        return buf

    def release(self, arr: np.ndarray | None) -> None:
        """Return an arena-owned buffer to the pool (no-op otherwise)."""
        if arr is None:
            return
        with self._lock:
            owned = self._owned.get(id(arr))
            if owned is None or id(arr) in self._pooled:  # foreign, or a double release
                return
            self._free.setdefault(owned[0], []).append(arr)
            self._pooled[id(arr)] = None
            self._enforce_cap()

    def owns(self, arr: np.ndarray) -> bool:
        with self._lock:
            return id(arr) in self._owned

    def padded(self, x: np.ndarray, padding: int) -> np.ndarray:
        """Copy ``x`` into a pooled zero-bordered scratch buffer.

        Returns ``x`` itself when ``padding == 0`` (no copy at all).  The
        buffer has ``x.dtype``, so non-float32 inputs are never silently
        downcast and two dtypes never share a buffer.  The caller owns it
        until it hands it back with :meth:`release`.
        """
        if padding == 0:
            return x
        n, c, h, w = x.shape
        key = ((n, c, h + 2 * padding, w + 2 * padding), x.dtype, padding)
        buf = self._take(key)
        if buf is None:
            buf = np.zeros(key[0], x.dtype)
            self._adopt(key, buf)
        buf[:, :, padding : padding + h, padding : padding + w] = x
        return buf

    def clear(self) -> None:
        """Drop every buffer and reset counters (frees the memory)."""
        with self._lock:
            self._free.clear()
            self._owned.clear()
            self._pooled.clear()
            self._footprint = 0
            self.allocations = self.reuses = 0
            self.pad_allocations = self.pad_reuses = 0
            self.evictions = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BufferArena(owned={len(self._owned)}, pooled={len(self._pooled)}, "
            f"alloc={self.allocations}, reused={self.reuses}, "
            f"evicted={self.evictions}, cap={self.max_bytes})"
        )
