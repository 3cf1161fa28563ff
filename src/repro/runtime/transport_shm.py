"""Shared-memory shard transport: slot rings + control pipes.

This is PR 3's single-host transport, repackaged behind the
:mod:`repro.runtime.transport` protocol with its wire behaviour
**preserved bitwise**: request/response tensors still move through
per-worker :class:`~repro.runtime.shm_ring.ShmSlotRing` slots (one slot
carries the request in *and* the response out; the slot count is the
per-shard backpressure bound), and only the same tiny control tuples
cross the ``multiprocessing.Pipe``:

    router -> worker: ``("req", req_id, slot, shape, dtype, crc, deadline_at,
                      trace_id, model)``, ``("ping", seq)``, ``("stop",)``,
                      ``("load", name, spec, payload)``, ``("unload", name)``
    worker -> router: ``("ready", pid)``, ``("res", req_id, slot, shape, dtype, crc)``,
                      ``("err", req_id, slot, code, text)``,
                      ``("trace", req_id, spans)``,
                      ``("model", op, name, detail)``,
                      ``("pong", seq, stats)``, ``("bye", stats)``, ``("fatal", text)``

Deadlines cross the boundary as absolute ``time.monotonic`` values,
which is valid precisely because this transport never leaves the host
(CLOCK_MONOTONIC is system-wide on Linux) — the TCP transport is the one
that must re-anchor clocks.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.runtime.faults import FaultPlan
from repro.runtime.resilience import CorruptedPayloadError
from repro.runtime.session import SessionSpec
from repro.runtime.shm_ring import ShmSlotRing
from repro.runtime.transport import (
    CreditGate,
    ShardEndpoint,
    ShardLauncher,
    TransportClosedError,
    WorkerTransport,
)

__all__ = ["ShmShardEndpoint", "ShmWorkerTransport", "ShmShardLauncher", "spawn_with_env"]


def spawn_with_env(process, worker_env: dict[str, str] | None) -> None:
    """Start ``process`` with ``worker_env`` overlaid on the parent
    environment (restored afterwards) — e.g. pin BLAS threads per worker
    with ``{"OPENBLAS_NUM_THREADS": "1"}`` so shards don't fight over
    cores."""
    saved_env: dict[str, str | None] = {}
    if worker_env:
        saved_env = {k: os.environ.get(k) for k in worker_env}
        os.environ.update(worker_env)
    try:
        process.start()
    finally:
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class ShmWorkerTransport(WorkerTransport):
    """Worker half: reads control tuples off the pipe, payloads out of
    the shared ring; replies go back into the request's own slot."""

    def __init__(self, conn, ring: ShmSlotRing) -> None:
        self._conn = conn
        self._ring = ring
        self._send_lock = threading.Lock()
        self.payload_capacity = ring.slot_bytes

    def _send(self, msg) -> None:
        with self._send_lock:
            try:
                self._conn.send(msg)
            except (BrokenPipeError, OSError) as exc:
                raise TransportClosedError(str(exc)) from exc

    def recv(self) -> tuple:
        try:
            msg = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise TransportClosedError(str(exc)) from exc
        if msg[0] == "req":
            _, req_id, slot, shape, dtype, crc, deadline_at, trace_id, model = msg
            # same host, system-wide monotonic clock: the absolute
            # deadline needs no re-anchoring
            return ("req", req_id, deadline_at, trace_id, model, (slot, shape, dtype, crc))
        return msg  # ("ping", seq) / ("stop",) / ("load", ...) / ("unload", ...)

    def read_payload(self, handle) -> np.ndarray:
        slot, shape, dtype, crc = handle
        return self._ring.read(slot, shape, dtype, crc)

    def send_result(self, req_id: int, handle, out: np.ndarray, corrupt: bool = False) -> None:
        slot = handle[0]
        shape, dtype, crc = self._ring.write(slot, out)
        if corrupt:
            # injected fault: clobber the payload *after* the checksum was
            # computed — the router's verification must catch it
            self._ring.corrupt(slot)
        self._send(("res", req_id, slot, shape, dtype, crc))

    def send_error(self, req_id: int, handle, code: str, text: str) -> None:
        self._send(("err", req_id, handle[0], code, text))

    def send_trace(self, req_id: int, spans: list[dict]) -> None:
        self._send(("trace", req_id, spans))

    def send_model_ack(self, op: str, name: str, detail: str | None) -> None:
        self._send(("model", op, name, detail))

    def send_ready(self, pid: int) -> None:
        self._send(("ready", pid))

    def send_pong(self, seq: int, stats: dict | None) -> None:
        self._send(("pong", seq, stats))

    def send_bye(self, stats: dict | None) -> None:
        self._send(("bye", stats))

    def send_fatal(self, text: str) -> None:
        self._send(("fatal", text))

    def close(self) -> None:
        try:
            self._ring.close()
        except BufferError:  # a reply thread still holds a view
            pass
        try:
            self._conn.close()
        except OSError:
            pass


def _shm_worker_main(
    specs: dict[str, SessionSpec],
    ring_name: str,
    slots: int,
    slot_bytes: int,
    conn,
    fault_plan: FaultPlan | None = None,
) -> None:
    """Spawn target (module-level: must be importable under spawn)."""
    from repro.runtime.worker import run_worker

    ring = ShmSlotRing.attach(ring_name, slots, slot_bytes)
    run_worker(specs, ShmWorkerTransport(conn, ring), fault_plan)


# ----------------------------------------------------------------------
# Router side
# ----------------------------------------------------------------------
class ShmShardEndpoint(ShardEndpoint):
    """Router half: owns the slot lifecycle (a :class:`CreditGate` whose
    tokens are the ring's slot indices) and the worker process handle;
    normalizes pipe tuples into protocol events."""

    def __init__(self, process, conn, ring: ShmSlotRing) -> None:
        self.process = process
        self._conn = conn
        self._ring = ring
        self._gate = CreditGate(ring.slots)
        self._send_lock = threading.Lock()

    # -- backpressure ---------------------------------------------------
    def acquire(self, timeout: float | None = None) -> int | None:
        try:
            return self._gate.acquire(timeout=timeout)
        except RuntimeError as exc:  # gate closed: shard died while we waited
            raise TransportClosedError(str(exc)) from exc

    def release(self, token: int) -> None:
        try:
            self._gate.release(token)
        except ValueError:
            pass  # already back (endpoint torn down under us)

    # -- sending --------------------------------------------------------
    def send_request(
        self,
        token: int,
        req_id: int,
        x: np.ndarray,
        deadline_at: float | None,
        trace_id: int = 0,
        model: str = "",
    ) -> None:
        shape, dtype, crc = self._ring.write(token, x)
        self._send(("req", req_id, token, shape, dtype, crc, deadline_at, trace_id, model))

    def send_ping(self, seq: int) -> None:
        self._send(("ping", seq))

    def send_stop(self) -> None:
        self._send(("stop",))

    def send_control(self, msg: tuple) -> None:
        self._send(msg)

    def _send(self, msg) -> None:
        with self._send_lock:
            try:
                self._conn.send(msg)
            except (BrokenPipeError, OSError) as exc:
                raise TransportClosedError(str(exc)) from exc

    # -- receiving ------------------------------------------------------
    def recv(self) -> tuple:
        try:
            msg = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise TransportClosedError(str(exc)) from exc
        kind = msg[0]
        if kind == "res":
            _, req_id, slot, shape, dtype, crc = msg
            try:
                out = self._ring.read(slot, shape, dtype, crc)
                err: Exception | None = None
            except CorruptedPayloadError as exc:  # transport corruption: retryable
                out, err = None, exc
            except Exception as exc:  # torn ring (shard raced a close)
                out, err = None, exc
            self.release(slot)
            return ("res", req_id, out, err)
        if kind == "err":
            _, req_id, slot, code, text = msg
            self.release(slot)
            return ("err", req_id, code, text)
        return msg  # ready / pong / bye / fatal

    # -- lifecycle ------------------------------------------------------
    @property
    def pid(self) -> int | None:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        self.process.terminate()

    def join(self, timeout: float | None = None) -> None:
        self.process.join(timeout=timeout)

    def close(self) -> None:
        """Best-effort retire: ``SharedMemory.close`` raises
        ``BufferError`` while another thread is mid write/read with a
        live view — a real window when a shard dies under concurrent
        submits — so the final close is retried by :meth:`dispose` at
        server shutdown."""
        self._gate.close()  # wake any dispatcher blocked on acquire
        try:
            self._conn.close()
        except OSError:
            pass
        try:
            self._ring.close()
        except BufferError:
            pass

    def dispose(self) -> None:
        try:
            self._ring.close()
        except BufferError:  # a straggler thread still holds a view
            pass
        self._ring.unlink()


class ShmShardLauncher(ShardLauncher):
    """Spawns local worker processes wired up with a fresh ring + pipe.

    ``specs`` is the cluster's **live** model registry (shared by
    reference, mutated by hot load/unload): every launch — founding
    shard, respawn after a crash, elastic ``add_shard`` — snapshots the
    registry at spawn time, so a new incarnation always builds the
    current model set.
    """

    kind = "shm"

    def __init__(
        self,
        specs: dict[str, SessionSpec],
        *,
        slots_per_shard: int,
        slot_bytes: int,
        ctx,
        fault_plan: FaultPlan | None = None,
        worker_env: dict[str, str] | None = None,
    ) -> None:
        self.specs = specs
        self.slots_per_shard = slots_per_shard
        self.slot_bytes = slot_bytes
        self._ctx = ctx
        self._fault_plan = fault_plan
        self._worker_env = worker_env

    def launch(self, index: int) -> ShmShardEndpoint:
        ring = ShmSlotRing.create(self.slots_per_shard, self.slot_bytes)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_shm_worker_main,
            args=(dict(self.specs), ring.name, self.slots_per_shard, ring.slot_bytes,
                  child_conn, self._fault_plan),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        spawn_with_env(process, self._worker_env)
        child_conn.close()  # parent keeps one end; EOF then tracks the worker's life
        return ShmShardEndpoint(process, parent_conn, ring)
