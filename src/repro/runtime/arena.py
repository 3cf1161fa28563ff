"""Shape-keyed scratch-buffer arena for the compiled runtime.

The batched FKW kernels allocate scratch per call: an output buffer and,
depending on the level, a padded copy of the layer input (the numpy
levels) or a per-sample scratch the native kernel pads into or gathers
its im2col columns into.  Re-allocating (and re-zeroing) them on every
``run()`` is pure overhead under steady traffic, so :class:`BufferArena`
keeps them alive across calls:

* **Padded-input scratch** is persistent per ``(thread, input shape,
  padding, dtype)`` key.  The zero border is written once at allocation;
  later calls only copy the interior (the border is never written with
  anything else, so it stays zero) — the ``np.pad`` allocate-and-copy
  disappears from the steady state.
* **General buffers** (kernel outputs, kernel scratch) cycle through a
  shape-keyed free pool: the executor acquires them per node and
  releases them back when liveness says the value is dead, so two
  same-shaped conv layers in a network share one physical accumulator.

Thread safety
-------------
The arena is safe to share across threads (one shared executor serving
many client threads):

* every bookkeeping structure is guarded by an internal ``RLock``;
* buffers handed out by :meth:`acquire` are tracked as *in flight* per
  calling thread, so :meth:`reclaim` — the end-of-run backstop — only
  pools the calling thread's buffers and can never steal scratch out
  from under a run still executing on another thread;
* padded-input scratch is keyed by thread id, so two threads convolving
  same-shaped inputs never write into one pad buffer.

Growth cap
----------
Pass ``max_bytes`` to bound retained scratch under many-shape traffic:
when the total footprint of arena-owned buffers exceeds the cap, free
(pooled) buffers and pad scratch are evicted least-recently-used first.
Buffers currently in flight are never evicted — the cap bounds what the
arena *retains* between runs, not the live working set of a run in
progress.  Evicting a pad buffer only drops the arena's reference; a
kernel still holding it locally is unaffected.

Safety rules the executor relies on:

* ``release`` only accepts buffers the arena itself allocated (tracked
  by identity); foreign arrays — user inputs, reference-kernel outputs —
  are silently ignored, so releasing indiscriminately is safe.
* ``sanitize_output`` copies a result that aliases arena memory (the
  buffer itself or any view whose ``.base`` chain reaches it) before it
  escapes to the caller, so a later ``run()`` can never overwrite a
  value the user still holds.
"""

from __future__ import annotations

import threading

import numpy as np


class BufferArena:
    """Reusable scratch buffers, keyed by shape/dtype (and padding for pads).

    Thread-safe: one arena may back one executor shared by many threads.

    Args:
        max_bytes: optional cap on retained scratch; free buffers and pad
            scratch are LRU-evicted when the total footprint exceeds it.
    """

    def __init__(self, max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self._lock = threading.RLock()
        self._free: dict[tuple, list[np.ndarray]] = {}
        # id -> buffer for every array this arena ever allocated; holding
        # the reference keeps ids stable (no reuse-after-gc confusion).
        self._owned: dict[int, np.ndarray] = {}
        # thread ident -> {id: buffer} handed out and not yet released,
        # plus the owning thread object so reclaim can tell dead owners
        # from live ones (foreign, non-threading-module threads report
        # alive and are simply never auto-reaped).
        self._in_flight: dict[int, dict[int, np.ndarray]] = {}
        self._flight_owner: dict[int, threading.Thread] = {}
        self._pad: dict[tuple, np.ndarray] = {}
        # thread ident -> owning thread, for pad scratch: reclaim drops
        # the pad buffers of exited threads (thread-per-request traffic
        # must not leak one pad set per dead thread).
        self._pad_owner: dict[int, threading.Thread] = {}
        # running total of owned + pad bytes; kept incrementally so the
        # cap check never re-scans every buffer under the lock.
        self._footprint = 0
        # LRU clocks: id -> tick for pooled buffers (an id is present
        # exactly while its buffer sits in a pool), pad key -> tick.
        self._tick = 0
        self._free_tick: dict[int, int] = {}
        self._pad_tick: dict[tuple, int] = {}
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

    def _next_tick(self) -> int:
        self._tick += 1
        return self._tick

    def _enforce_cap(self) -> None:
        """LRU-evict free buffers / pad scratch until under ``max_bytes``.

        Must be called with the lock held.  In-flight buffers are never
        evicted, so a run's live working set can transiently exceed the
        cap; by end of run (``reclaim``) everything is evictable again.
        """
        if self.max_bytes is None or self._footprint <= self.max_bytes:
            return
        # Candidates: (tick, kind, key/buffer) over pooled + pad entries.
        candidates: list[tuple[int, str, object]] = []
        for key, pool in self._free.items():
            for buf in pool:
                candidates.append((self._free_tick.get(id(buf), 0), "free", (key, buf)))
        for key in self._pad:
            candidates.append((self._pad_tick.get(key, 0), "pad", key))
        candidates.sort(key=lambda t: t[0])
        for _, kind, ref in candidates:
            if self._footprint <= self.max_bytes:
                break
            if kind == "free":
                key, buf = ref  # type: ignore[misc]
                pool = self._free.get(key)
                if pool is None:
                    continue
                pool[:] = [b for b in pool if b is not buf]
                if not pool:
                    del self._free[key]
                self._owned.pop(id(buf), None)
                self._free_tick.pop(id(buf), None)
            else:
                buf = self._pad.pop(ref)  # type: ignore[arg-type]
                self._pad_tick.pop(ref, None)
            self._footprint -= buf.nbytes
            self.evictions += 1

    # ------------------------------------------------------------------
    def acquire(self, shape: tuple[int, ...], dtype=np.float32, zero: bool = False) -> np.ndarray:
        """Hand out a buffer of ``shape``, recycling a free one if possible."""
        key = (tuple(shape), np.dtype(dtype))
        ident = threading.get_ident()
        buf = None
        with self._lock:
            pool = self._free.get(key)
            if pool:
                buf = pool.pop()
                self._free_tick.pop(id(buf), None)
                self.reuses += 1
                self._in_flight.setdefault(ident, {})[id(buf)] = buf
                self._flight_owner[ident] = threading.current_thread()
        if buf is not None:
            if zero:
                # re-zero outside the lock: the buffer is exclusively ours
                buf.fill(0)
            return buf
        # allocate (and zero-fill) outside the lock — other threads'
        # acquire/release must not stall behind a large cold allocation
        buf = np.zeros(shape, dtype) if zero else np.empty(shape, dtype)
        with self._lock:
            self.allocations += 1
            self._owned[id(buf)] = buf
            self._footprint += buf.nbytes
            self._in_flight.setdefault(ident, {})[id(buf)] = buf
            self._flight_owner[ident] = threading.current_thread()
            self._enforce_cap()
        return buf

    def release(self, arr: np.ndarray | None) -> None:
        """Return an arena-owned buffer to the free pool (no-op otherwise)."""
        if arr is None:
            return
        with self._lock:
            if id(arr) not in self._owned:
                return
            if id(arr) in self._free_tick:  # already pooled: a double release
                return
            self._free.setdefault((arr.shape, arr.dtype), []).append(arr)
            self._free_tick[id(arr)] = self._next_tick()
            for flight in self._in_flight.values():
                if flight.pop(id(arr), None) is not None:
                    break
            self._enforce_cap()

    def owns(self, arr: np.ndarray) -> bool:
        with self._lock:
            return id(arr) in self._owned

    # ------------------------------------------------------------------
    def padded(self, x: np.ndarray, padding: int) -> np.ndarray:
        """Write ``x`` into a persistent zero-bordered scratch buffer.

        Returns ``x`` itself when ``padding == 0`` (no copy at all).  The
        scratch is keyed by calling thread, input shape, padding, *and
        dtype* — the buffer is allocated with ``x.dtype``, so non-float32
        inputs are never silently downcast and two dtypes never collide
        on one buffer.  The returned buffer is only valid until the next
        ``padded`` call with the same key from the same thread — callers
        must consume it before then (the generated kernels do: the pad
        scratch is dead once the conv returns).
        """
        if padding == 0:
            return x
        n, c, h, w = x.shape
        ident = threading.get_ident()
        key = (ident, n, c, h, w, padding, x.dtype.str)
        with self._lock:
            buf = self._pad.get(key)
            if buf is not None:
                self.pad_reuses += 1
                self._pad_tick[key] = self._next_tick()
        if buf is None:
            # allocate outside the lock; the key is thread-private, so no
            # other thread can race this insert
            buf = np.zeros((n, c, h + 2 * padding, w + 2 * padding), x.dtype)
            with self._lock:
                self._pad[key] = buf
                self.pad_allocations += 1
                self._pad_tick[key] = self._next_tick()
                self._pad_owner[ident] = threading.current_thread()
                self._footprint += buf.nbytes
                self._enforce_cap()
        buf[:, :, padding : padding + h, padding : padding + w] = x
        return buf

    def reclaim(self) -> None:
        """Return the calling thread's in-flight buffers to the free pool.

        End-of-run backstop: a buffer whose value died while a view of it
        was still live (e.g. FLATTEN aliasing a conv output) is skipped
        by per-step retirement and would otherwise stay out of the pool
        forever.  By the end of ``run()`` every buffer this thread holds
        is dead — the result has been detached via
        :meth:`sanitize_output` — so pooling them keeps the arena's
        footprint at the peak across the distinct shapes seen instead of
        growing with call count.  Only the *calling thread's* buffers are
        pooled, plus those of owner threads known to have exited
        (``Thread.is_alive()`` false) — a run still executing on another
        thread, including a foreign non-``threading``-module thread
        (which reports alive and is simply never auto-reaped), keeps its
        scratch.
        """
        with self._lock:
            idents = [
                ident
                for ident, owner in self._flight_owner.items()
                if ident == threading.get_ident() or not owner.is_alive()
            ]
            for ident in idents:
                self._flight_owner.pop(ident, None)
                for buf in self._in_flight.pop(ident, {}).values():
                    if id(buf) not in self._free_tick:  # not pooled yet
                        self._free.setdefault((buf.shape, buf.dtype), []).append(buf)
                        self._free_tick[id(buf)] = self._next_tick()
            # drop pad scratch of exited threads: it is keyed by thread
            # ident and would otherwise leak one pad set per dead thread
            # under thread-per-request traffic (the calling thread's own
            # pads stay — keeping them warm is the point of pad scratch)
            dead_pads = [
                ident for ident, owner in self._pad_owner.items() if not owner.is_alive()
            ]
            for ident in dead_pads:
                self._pad_owner.pop(ident, None)
                for key in [k for k in self._pad if k[0] == ident]:
                    self._footprint -= self._pad.pop(key).nbytes
                    self._pad_tick.pop(key, None)
            self._enforce_cap()

    # ------------------------------------------------------------------
    def sanitize_output(self, arr: np.ndarray) -> np.ndarray:
        """Copy ``arr`` if it aliases arena memory, else return it as-is.

        Ownership is decided by identity along the ``.base`` chain: every
        view of an arena buffer (reshape, slice, squeeze) leads back to the
        buffer object itself, so no overlap test against each owned buffer
        is needed."""
        with self._lock:
            base = arr
            while base is not None:
                if self._owned.get(id(base)) is base:
                    return arr.copy()
                base = getattr(base, "base", None)
        return arr

    def clear(self) -> None:
        """Drop every buffer and reset counters (frees the memory)."""
        with self._lock:
            self._free.clear()
            self._owned.clear()
            self._in_flight.clear()
            self._flight_owner.clear()
            self._pad.clear()
            self._pad_owner.clear()
            self._free_tick.clear()
            self._pad_tick.clear()
            self._footprint = 0
            self.allocations = self.reuses = 0
            self.pad_allocations = self.pad_reuses = 0
            self.evictions = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BufferArena(owned={len(self._owned)}, pads={len(self._pad)}, "
            f"alloc={self.allocations}, reused={self.reuses}, "
            f"evicted={self.evictions}, cap={self.max_bytes})"
        )
