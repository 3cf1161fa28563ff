"""Transport-neutral shard worker body.

Exactly one serve loop exists for every transport: a worker process —
whether it was spawned next to the router and speaks shared memory, or
runs on another machine behind ``python -m repro worker`` and speaks
TCP — builds its sessions, then pulls normalized messages off a
:class:`~repro.runtime.transport.WorkerTransport` and serves them
through per-model in-process micro-batching front-ends.  The transport
decides *how* bytes move; this module decides *what happens to a
request*, so retries, deadlines, and
:class:`~repro.runtime.faults.FaultPlan` injection behave identically
everywhere.

Multi-tenancy lives in :class:`ModelHost`: one
:class:`~repro.runtime.session.InferenceSession` +
:class:`~repro.runtime.serving.MicroBatchServer` pair per loaded model,
all sharing the process-wide
:class:`~repro.compiler.codegen.KernelCache` and
:class:`~repro.runtime.arena.BufferArena` (both thread-safe), so
identical layers across tenants compile once and scratch buffers are
pooled.  Each model's queue batches only its own traffic — tenants
never co-batch — and its serving stats land in one shared
:class:`~repro.runtime.telemetry.MetricsRegistry` under a
``model="<name>"`` label.  Models hot-load and hot-unload via
``("load", name, spec, payload)`` / ``("unload", name)`` control
messages, acknowledged with ``("model", op, name, detail)``.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from concurrent.futures import Future

import numpy as np

from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.resilience import (
    CorruptedPayloadError,
    DeadlineExceededError,
    QueueFullError,
)
from repro.runtime.serving import MicroBatchServer, ServingStats, latency_summary
from repro.runtime.telemetry import Histogram, MetricsRegistry, SpanCollector
from repro.runtime.transport import (
    TransportClosedError,
    WorkerTransport,
    materialize_bundle,
)

__all__ = ["ModelHost", "run_worker"]


class ModelHost:
    """The worker's model registry: per-model session + micro-batch queue
    over shared process-wide compile/scratch resources.

    Args:
        specs: ``{name: SessionSpec}`` to build at construction.  Build
            order is sorted by name (deterministic across shards).

    All loaded models share one :class:`KernelCache` and one
    :class:`BufferArena` — both thread-safe and injectable into
    :meth:`SessionSpec.build` — so co-resident tenants with identical
    pruned layers compile them once, which is what makes a two-model
    cluster competitive with two dedicated ones.  The shared arena's
    retained-scratch cap is the largest ``arena_max_bytes`` any spec
    asks for (``None`` = uncapped when none do).
    """

    def __init__(self, specs: dict) -> None:
        from repro.compiler.codegen import KernelCache
        from repro.runtime.arena import BufferArena

        caps = [s.arena_max_bytes for s in specs.values() if s.arena_max_bytes is not None]
        self.registry = MetricsRegistry()
        self.kernel_cache = KernelCache()
        self.arena = BufferArena(max_bytes=max(caps) if caps else None)
        self._lock = threading.Lock()
        #: name -> (session, server, stats); mutated only under _lock
        self._models: dict[str, tuple] = {}
        try:
            for name in sorted(specs):
                self.load(name, specs[name])
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    def load(self, name: str, spec) -> None:
        """Build and admit one model (hot path; raises on any failure —
        a duplicate name, a broken bundle — without touching the rest)."""
        with self._lock:
            if name in self._models:
                raise ValueError(f"model {name!r} is already loaded")
        # build outside the lock: compiling kernels can take a while and
        # requests for *other* models must keep flowing meanwhile
        session = spec.build(kernel_cache=self.kernel_cache, arena=self.arena)
        stats = ServingStats(self.registry, labels={"model": name})
        server = MicroBatchServer(session.executor.run, spec.serving_config, stats=stats)
        with self._lock:
            if name in self._models:  # raced a concurrent load of the same name
                server.close()
                session.close()
                raise ValueError(f"model {name!r} is already loaded")
            self._models[name] = (session, server, stats)

    def unload(self, name: str) -> None:
        """Drain and drop one model: its queue is closed (queued requests
        still execute and reply), then the session is closed, which
        releases its kernel-cache entries — the shared cache keeps only
        kernels other tenants still use."""
        with self._lock:
            entry = self._models.pop(name, None)
        if entry is None:
            raise KeyError(f"model {name!r} is not loaded")
        session, server, _ = entry
        server.close()
        session.close()

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._models)

    def resolve(self, model: str) -> str:
        """Map a wire model id to a loaded name.  ``""`` means "the sole
        model" (single-tenant callers never name one); raises ``KeyError``
        for unknown names or an ambiguous empty id."""
        with self._lock:
            if model:
                if model not in self._models:
                    raise KeyError(
                        f"unknown model {model!r}; loaded: {sorted(self._models) or 'none'}"
                    )
                return model
            if len(self._models) == 1:
                return next(iter(self._models))
            raise KeyError(
                f"request named no model but {len(self._models)} are loaded: "
                f"{sorted(self._models)}"
            )

    def submit(self, x, *, model: str = "", deadline_at=None, trace=None) -> Future:
        """Queue one request on its model's micro-batcher (KeyError for
        an unknown model; typed shed errors pass through)."""
        name = self.resolve(model)
        with self._lock:
            entry = self._models.get(name)
        if entry is None:  # raced an unload
            raise KeyError(f"unknown model {name!r}")
        _, server, _ = entry
        return server.submit(x, deadline_at=deadline_at, trace=trace)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Merged serving stats: aggregate counters across models, and
        percentiles of the request-latency histogram summed bucket by
        bucket over models (the shape the router's health loop always
        consumed), plus a per-model breakdown under ``"models"``.  The
        ``"metrics"`` key is the shared registry snapshot, whose
        serving_* series carry ``model`` labels; the worker_* gauges
        report what the shared arena and kernel cache hold at snapshot
        time, and whether every conv kernel it holds is native."""
        gauge = self.registry.gauge
        gauge("worker_arena_footprint_bytes", "bytes held by the shared buffer arena").set(
            self.arena.footprint_bytes)
        gauge("worker_arena_evictions", "buffers the arena evicted under its byte cap").set(
            self.arena.evictions)
        gauge("worker_kernel_cache_entries", "distinct compiled conv kernels").set(
            len(self.kernel_cache))
        gauge("worker_kernel_cache_hits", "conv compilations the kernel cache saved").set(
            self.kernel_cache.hits)
        gauge("worker_kernel_backend_native",
              "1 when every cached conv kernel is the native C kernel, else 0").set(
            int(self.kernel_cache.native_only()))
        with self._lock:
            entries = dict(self._models)
        per_model: dict[str, dict] = {}
        totals = {k: 0 for k in (
            "requests", "samples", "batches", "max_batch_seen",
            "errors", "shed", "timed_out",
        )}
        for name, (_, _, stats) in sorted(entries.items()):
            snap = stats.snapshot()
            snap.pop("metrics", None)  # the shared registry is shipped once, below
            per_model[name] = snap
            for key in totals:
                totals[key] = (
                    max(totals[key], snap[key]) if key == "max_batch_seen"
                    else totals[key] + snap[key]
                )
        latency = Histogram.merged(stats._latency for _, _, stats in entries.values())
        merged = {
            **totals,
            **latency_summary(latency),
            "metrics": self.registry.snapshot(),
            "models": per_model,
        }
        merged["mean_batch"] = (
            merged["samples"] / merged["batches"] if merged["batches"] else 0.0
        )
        return merged

    def drain(self) -> None:
        """Drain every micro-batch queue — in-flight futures resolve and
        replies go out — WITHOUT releasing sessions or stats, so a
        snapshot taken afterwards counts every served sample."""
        with self._lock:
            entries = dict(self._models)
        for _, (_, server, _) in sorted(entries.items()):
            server.close()

    def close(self) -> None:
        """Drain every queue and release every session (idempotent)."""
        with self._lock:
            entries, self._models = dict(self._models), {}
        for _, (session, server, _) in sorted(entries.items()):
            server.close()
            session.close()


def _discard(path: str | None) -> None:
    """Delete a materialized bundle file (gone already is fine)."""
    if path is not None:
        with contextlib.suppress(OSError):
            os.unlink(path)


def run_worker(
    specs,
    transport: WorkerTransport,
    fault_plan: FaultPlan | None = None,
) -> None:
    """Serve one shard until ``stop`` or the router disappears.

    ``specs`` is ``{name: SessionSpec}``; every entry is built into the
    shared :class:`ModelHost`.  A build failure is reported as a
    ``fatal`` message so the router marks the shard permanently failed
    instead of respawn-looping.  Each ``req`` payload is copied
    (checksum-verified) off the transport, submitted to its model's
    micro-batcher with its deadline, and the reply sent back when the
    future resolves; requests naming a model this worker does not host
    fail typed (``unknown_model``).  ``("load", ...)`` / ``("unload",
    ...)`` control messages hot-mutate the model registry and are
    acknowledged; a hot load's shipped bundle bytes are written to a
    temp file that is deleted when the model unloads or this function
    returns.  A :class:`FaultPlan` (chaos tests only)
    deterministically injects crashes, stalls, slowness, and response
    corruption keyed by request id.
    """

    def _safe(fn, *args) -> None:
        # the router being gone mid-send is never an error a worker can
        # act on: results for a dead router are simply undeliverable
        try:
            fn(*args)
        except (TransportClosedError, BrokenPipeError, OSError):
            pass

    try:
        host = ModelHost(specs)
    except BaseException as exc:  # surface build failures instead of respawn-looping
        _safe(transport.send, ("fatal", f"{type(exc).__name__}: {exc}"))
        transport.close()
        return

    injector = FaultInjector(fault_plan) if fault_plan is not None else None
    capacity = transport.payload_capacity
    # model name -> temp file its hot load's shipped bundle was written to
    shipped: dict[str, str] = {}

    def _ship_trace(req_id: int, collector: SpanCollector | None) -> None:
        # after the reply, same ordered channel: the router resolves the
        # result first, then splices the worker spans into the trace
        if collector is not None:
            _safe(transport.send, ("trace", req_id, collector.export()))

    def _reply(
        req_id: int,
        handle,
        fut: Future,
        corrupt: bool = False,
        collector: SpanCollector | None = None,
    ) -> None:
        t_reply = time.monotonic()
        try:
            exc = fut.exception()
            if exc is not None:
                code = "deadline" if isinstance(exc, DeadlineExceededError) else "error"
                _safe(transport.send_error, req_id, handle, code,
                      f"{type(exc).__name__}: {exc}")
                return
            out = np.ascontiguousarray(fut.result())
            if capacity is not None and out.nbytes > capacity:
                _safe(
                    transport.send_error, req_id, handle, "error",
                    f"output of {out.nbytes} bytes exceeds the {capacity}-byte slot",
                )
                return
            _safe(transport.send_result, req_id, handle, out, corrupt)
        finally:
            if collector is not None:
                collector.add("reply", t_reply, time.monotonic())
            _ship_trace(req_id, collector)

    try:
        _safe(transport.send, ("ready", os.getpid()))
        while True:
            try:
                msg = transport.recv()
            except (TransportClosedError, EOFError, OSError):
                return  # router died; daemon worker just exits
            kind = msg[0]
            if kind == "stop":
                return
            if kind == "ping":
                _safe(transport.send, ("pong", msg[1], host.snapshot()))
            elif kind == "load":
                _, name, spec, payload = msg
                path = detail = None
                try:
                    if payload is not None:
                        spec = materialize_bundle(name, spec, payload)
                        path = spec.bundle_path
                    host.load(name, spec)
                except BaseException as exc:
                    _discard(path)
                    detail = f"{type(exc).__name__}: {exc}"
                else:
                    if path is not None:
                        shipped[name] = path
                _safe(transport.send, ("model", "load", name, detail))
            elif kind == "unload":
                _, name = msg
                detail = None
                try:
                    host.unload(name)
                except BaseException as exc:
                    detail = f"{type(exc).__name__}: {exc}"
                else:
                    _discard(shipped.pop(name, None))
                _safe(transport.send, ("model", "unload", name, detail))
            elif kind == "req":
                _, req_id, deadline_at, trace_id, model, handle = msg
                # a nonzero trace id means the router sampled this request:
                # collect worker-side spans (t0 = receipt on *this* clock;
                # the router rebases the batch at the attempt's send time)
                collector = SpanCollector(trace_id) if trace_id else None
                fault = injector.decide(req_id) if injector is not None else None
                if fault == "crash":
                    os._exit(17)  # hard death with the request in flight
                # a stall blocks the whole receive loop: the canonical
                # wedged-but-alive shard that breakers exist for
                if injector is not None:
                    injector.apply_delay(fault)
                try:
                    x = transport.read_payload(handle)  # copy + verify
                except CorruptedPayloadError as exc:
                    _safe(transport.send_error, req_id, handle, "corrupt", str(exc))
                    _ship_trace(req_id, collector)
                    continue
                try:
                    fut = host.submit(x, model=model, deadline_at=deadline_at,
                                      trace=collector)
                except KeyError as exc:
                    _safe(transport.send_error, req_id, handle, "unknown_model",
                          str(exc).strip("'\""))
                    _ship_trace(req_id, collector)
                    continue
                except DeadlineExceededError as exc:  # dead on arrival
                    _safe(transport.send_error, req_id, handle, "deadline", str(exc))
                    _ship_trace(req_id, collector)
                    continue
                except QueueFullError as exc:  # shouldn't happen: slots <= queue
                    _safe(transport.send_error, req_id, handle, "error",
                          f"QueueFullError: {exc}")
                    _ship_trace(req_id, collector)
                    continue
                if collector is not None:
                    # receipt -> admitted into the micro-batch queue
                    collector.add("worker_queue", collector.t0, time.monotonic())
                fut.add_done_callback(
                    lambda f, r=req_id, h=handle, c=(fault == "corrupt"),
                    tc=collector: _reply(r, h, f, c, tc)
                )
    finally:
        host.drain()  # graceful: in-flight futures resolve, replies go out
        stats = host.snapshot()  # AFTER the drain so every sample is counted
        host.close()
        for path in shipped.values():
            _discard(path)
        _safe(transport.send, ("bye", stats))
        transport.close()
