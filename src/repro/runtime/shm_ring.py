"""Fixed-slot shared-memory rings: tensor transport between processes.

Moving request/response tensors between a router process and its shard
workers through ``multiprocessing.Pipe`` would pickle every array —
a serialize/copy/deserialize round trip per request.  :class:`ShmSlotRing`
removes the pickling: one ``multiprocessing.shared_memory`` segment is
carved into ``slots`` fixed-size slots, array bytes are copied straight
into a slot on one side and straight out on the other, and only a tiny
control tuple (request id, slot index, shape, dtype) crosses the pipe.

The ring is a payload segment only; which slots are free is decided by
the router alone, through the shard endpoint's
:class:`~repro.runtime.transport.CreditGate` whose tokens are slot
indices.  A request's slot does double duty — the router writes the
input into it, the worker overwrites it with the output, and the router
frees it after copying the result out — so no free-list coordination
ever crosses the process boundary, and the slot count is a natural bound
on per-worker outstanding requests (backpressure, exactly like
``ServingConfig.queue_depth`` in-process).

The ring never interprets the bytes.  Shape and dtype travel in the
control message (:meth:`write` returns the header to send), so
heterogeneous shapes and dtypes share one ring as long as each payload
fits ``slot_bytes``.

Payloads are **checksummed**: :meth:`write` returns a CRC32 of the bytes
it copied in, the checksum travels in the control message next to shape
and dtype, and :meth:`read` verifies it — a torn, clobbered, or
(fault-injected) corrupted slot raises
:class:`~repro.runtime.resilience.CorruptedPayloadError` instead of
silently handing wrong numbers to a client.  The router treats a failed
checksum like a failed attempt (breaker failure + retry), so transport
corruption degrades into latency, not wrong answers.
"""

from __future__ import annotations

import zlib
from multiprocessing import shared_memory

import numpy as np

from repro.runtime.resilience import CorruptedPayloadError

__all__ = ["ShmSlotRing"]

_ALIGN = 64  # slot alignment: keeps every slot cache-line aligned


class ShmSlotRing:
    """``slots`` fixed-size byte slots in one shared-memory segment.

    Construct through :meth:`create` (owner side: allocates the segment,
    and unlinks it on context exit) or :meth:`attach` (worker side: maps
    an existing segment by name).  Both sides read and write slots.
    """

    def __init__(self, shm: shared_memory.SharedMemory, slots: int, slot_bytes: int, owner: bool) -> None:
        self._shm = shm
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._owner = owner

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, slots: int, slot_bytes: int) -> "ShmSlotRing":
        """Allocate a new segment with ``slots`` slots of ``slot_bytes``."""
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if slot_bytes < 1:
            raise ValueError(f"slot_bytes must be >= 1, got {slot_bytes}")
        slot_bytes = -(-slot_bytes // _ALIGN) * _ALIGN
        shm = shared_memory.SharedMemory(create=True, size=slots * slot_bytes)
        return cls(shm, slots, slot_bytes, owner=True)

    @classmethod
    def attach(cls, name: str, slots: int, slot_bytes: int) -> "ShmSlotRing":
        """Map an existing segment created by :meth:`create`.

        ``slot_bytes`` must be the *aligned* value read back from the
        creating ring (``ring.slot_bytes``), not the requested one.
        """
        shm = shared_memory.SharedMemory(name=name)
        if shm.size < slots * slot_bytes:
            size = shm.size
            shm.close()
            raise ValueError(
                f"segment {name!r} holds {size} bytes but {slots} x {slot_bytes} "
                f"= {slots * slot_bytes} were expected"
            )
        return cls(shm, slots, slot_bytes, owner=False)

    @property
    def name(self) -> str:
        """OS name of the segment (pass to :meth:`attach` in the worker)."""
        return self._shm.name

    # ------------------------------------------------------------------
    # Payload transfer (both sides)
    # ------------------------------------------------------------------
    def write(self, slot: int, arr: np.ndarray) -> tuple[tuple[int, ...], str, int]:
        """Copy ``arr``'s bytes into ``slot``; returns the
        ``(shape, dtype, crc32)`` header the receiving side needs to
        :meth:`read` (and verify) it back."""
        arr = np.ascontiguousarray(arr)
        if arr.nbytes > self.slot_bytes:
            raise ValueError(
                f"array of {arr.nbytes} bytes (shape {arr.shape}, {arr.dtype}) "
                f"exceeds the {self.slot_bytes}-byte slot capacity"
            )
        view = np.ndarray(arr.shape, arr.dtype, buffer=self._shm.buf, offset=slot * self.slot_bytes)
        view[...] = arr
        del view  # drop the buffer export before anyone closes the segment
        return arr.shape, arr.dtype.str, zlib.crc32(arr.data)

    def read(
        self, slot: int, shape: tuple[int, ...], dtype: str, crc: int | None = None
    ) -> np.ndarray:
        """Copy a payload out of ``slot`` (the copy owns its memory, so
        the slot may be reused or the segment closed afterwards).

        When ``crc`` is given, the copied bytes are verified against it;
        a mismatch raises :class:`CorruptedPayloadError` — the bytes in
        the slot are provably not what :meth:`write` put there.
        """
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        if nbytes > self.slot_bytes:
            raise ValueError(
                f"header describes {nbytes} bytes (shape {tuple(shape)}, {dt}) "
                f"but slots hold only {self.slot_bytes}"
            )
        view = np.ndarray(tuple(shape), dt, buffer=self._shm.buf, offset=slot * self.slot_bytes)
        out = view.copy()
        del view
        if crc is not None:
            got = zlib.crc32(np.ascontiguousarray(out).data)
            if got != crc:
                raise CorruptedPayloadError(
                    f"slot {slot} payload failed checksum (crc {got:#010x} != "
                    f"expected {crc:#010x}, shape {tuple(shape)}, {dt})"
                )
        return out

    def corrupt(self, slot: int, nbytes: int = 1) -> None:
        """Flip the first ``nbytes`` bytes of ``slot`` in place.

        Fault-injection helper (:mod:`repro.runtime.faults` ``corrupt``
        kind): called *after* :meth:`write` computed the checksum, so the
        reader's verification is guaranteed to fail — exercising the
        corruption-detection path end to end.
        """
        if not 0 <= slot < self.slots:
            raise ValueError(f"slot {slot} out of range 0..{self.slots - 1}")
        base = slot * self.slot_bytes
        for i in range(max(1, nbytes)):
            self._shm.buf[base + i] ^= 0xFF

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unmap the segment (both sides; idempotent).  Raises
        ``BufferError`` while another thread still holds a view into it;
        calling again later retries."""
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner side, after every side closed)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # already unlinked (e.g. double cleanup)
            pass

    def __enter__(self) -> "ShmSlotRing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self._owner:
            self.unlink()
