"""Sharded serving: a resilient, transport-neutral request router.

One :class:`~repro.runtime.serving.MicroBatchServer` tops out at a
single Python process — aggregate throughput is capped by the GIL and
one arena/kernel-cache domain.  :class:`ShardedServer` scales past that
by replicating the whole compiled engine across workers, the same way
PatDNN-class runtimes replicate compiled models across execution units:

* **Worker pool behind a transport seam** — N workers, each rebuilding
  its own :class:`~repro.runtime.session.InferenceSession` (plus its
  in-process micro-batching front-end) from a picklable
  :class:`~repro.runtime.session.SessionSpec`.  The router speaks only
  the abstract :class:`~repro.runtime.transport.ShardEndpoint` protocol,
  so *where a worker lives* is a plug-in choice:

  - ``transport="shm"`` (default) — local processes with per-worker
    :class:`~repro.runtime.shm_ring.ShmSlotRing` shared-memory slots
    (:mod:`repro.runtime.transport_shm`): PR 3's wire behaviour,
    preserved bitwise.
  - ``transport="tcp"`` — length-prefixed numpy frames over sockets
    (:mod:`repro.runtime.transport_tcp`): either local loopback workers,
    or — with ``shards=["host:port", ...]`` — workers started on other
    machines with ``python -m repro worker --listen HOST:PORT``.

  Payloads are CRC-checksummed both ways on every transport, so a
  corrupted buffer raises
  :class:`~repro.runtime.resilience.CorruptedPayloadError` (and is
  retried) instead of silently returning wrong numbers.
* **Resilient, latency-aware router** — :meth:`ShardedServer.submit`
  keeps the PR 2 futures API; each request's payload is retained while
  in flight, so a shard crash (or corrupted response, or stall timeout)
  transparently **retries** the request on a healthy shard, bounded by
  :attr:`~repro.runtime.resilience.ResilienceConfig.max_retries` —
  clients only see :class:`ShardCrashedError` once the retry budget is
  exhausted.  Optional **hedging** duplicates a slow request onto a
  second shard with strict only-once result delivery.  Routing weighs
  the p50/p95 of the workers' own request-latency histograms alongside
  outstanding counts (:func:`~repro.runtime.resilience.route_score`), and a
  per-shard **circuit breaker** (closed → open → half-open) takes a
  failing or stalled shard out of rotation until a probe succeeds.
  None of this code knows which transport is underneath.
* **Deadlines & admission control** — ``submit(x, deadline=...)``
  attaches a latency budget that propagates through the transport into
  each worker's micro-batcher (re-anchored across host clock domains by
  the TCP transport); over-deadline requests are shed with
  :class:`~repro.runtime.resilience.DeadlineExceededError` before they
  burn kernel time, and ``submit(x, timeout=...)`` fails fast with
  :class:`~repro.runtime.resilience.QueueFullError` when every
  transport slot stays busy (instead of blocking forever).
* **Self-healing** — a health monitor pings workers for liveness and
  serving stats; a crashed shard rehomes or fails its in-flight
  requests (clients see results or typed errors, never hangs) and is
  respawned automatically — for a remote shard, "respawn" means
  reconnecting to its address.  A shard that keeps dying young (e.g.
  its bundle path is unreadable in the worker) is marked permanently
  failed instead of respawn-looping.  A peer that disconnects while a
  graceful :meth:`close` is draining resolves its in-flight futures
  with a typed error immediately instead of letting clients wait out
  the drain timeout.
* **Elastic membership** — :meth:`ShardedServer.add_shard` joins a new
  worker to a *live* cluster (a local spawn, or an external
  ``host:port`` worker — also on an shm cluster, which then serves with
  mixed transports), and :meth:`ShardedServer.remove_shard` takes one
  out: routing stops first, in-flight requests settle under the usual
  deadline/retry machinery (typed errors, never hangs), then the
  endpoint is torn down and a ``shard_removed`` event is emitted.
  Membership lives in a generation-stamped shard map — indices are
  allocated monotonically and never reused, and every reader
  (routing, crash handling, stats, close) works on a point-in-time
  snapshot.  The same operations are exposed over the admin server
  (``POST /shards/add``, ``POST /shards/<id>/remove``) and a watched
  shard-list file (:class:`~repro.runtime.membership.ShardFileWatcher`,
  ``python -m repro serve --shard-file``).
* **Observability** — one :class:`~repro.runtime.telemetry.Telemetry`
  hub per server: the resilience counters live in a
  :class:`~repro.runtime.telemetry.MetricsRegistry` (the same cells
  ``cluster_stats`` reports), a deterministic sampler mints request
  **traces** whose ids travel inside the tensor frames so worker-side
  spans (queue wait, kernel execution, per-layer timings) splice into
  the router's timeline on any transport, lifecycle events (spawns,
  crashes, respawns, breaker flips, retries, hedges, injected faults)
  land in a bounded structured event log, and ``telemetry=
  TelemetryConfig(metrics_port=...)`` serves it all over HTTP —
  ``/metrics`` (Prometheus), ``/healthz``, ``/stats``, ``/traces``,
  ``/trace/<id>``, ``/events``.
* **Deterministic chaos** — a seeded
  :class:`~repro.runtime.faults.FaultPlan` can be injected to crash,
  stall, slow, corrupt, or slot-starve requests reproducibly; the
  hooks are no-ops when no plan is given, and work identically over
  every transport.

Usage::

    from repro.runtime import ResilienceConfig, SessionSpec, ShardedServer

    spec = SessionSpec.capture("smallcnn", model, (3, 16, 16), "bundle.npz",
                               pattern_set=ps, assignments=result.assignments,
                               model_kwargs={"channels": (16, 32), "in_size": 16})
    with ShardedServer(spec, num_shards=4,
                       resilience=ResilienceConfig(max_retries=2)) as server:
        futures = [server.submit(x, deadline=0.5) for x in samples]
        outs = [f.result() for f in futures]
        print(server.cluster_stats["retries"], server.cluster_stats["mean_batch"])

    # same cluster, shards on other machines:
    with ShardedServer(spec, shards=["10.0.0.5:7070", "10.0.0.6:7070"]) as server:
        ...

    # a model zoo: every shard hosts the whole registry (sessions share
    # the worker's kernel cache and arena), clients pick per request
    with ShardedServer(specs={"small": spec_a, "large": spec_b}) as server:
        fut = server.submit(x, model="small")
        server.load_model("medium", spec_c)     # hot load, all live shards
        server.unload_model("large")            # drained removal

Local workers are spawned (not forked) by default: a forked child would
inherit arbitrary lock/thread state from a serving process mid-flight,
and the spec is picklable precisely so spawn works.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future
from math import prod
from multiprocessing import get_context

import numpy as np

from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.resilience import (
    CircuitBreaker,
    CorruptedPayloadError,
    DeadlineExceededError,
    QueueFullError,
    RequestTimeoutError,
    ResilienceConfig,
    UnknownModelError,
    route_score,
)
from repro.runtime.session import DEFAULT_MODEL, SessionSpec
from repro.runtime.telemetry import (
    AdminServer,
    Histogram,
    MetricsRegistry,
    Telemetry,
    TelemetryConfig,
    render_prometheus,
)
from repro.runtime.transport import (
    MAX_MODEL_ID_BYTES,
    ShardEndpoint,
    ShardLauncher,
    TransportClosedError,
    pack_bundle_payload,
)
from repro.runtime.transport_shm import ShmShardLauncher
from repro.runtime.transport_tcp import LocalTcpLauncher, RemoteTcpLauncher, parse_hostport

__all__ = ["ShardedServer", "ShardCrashedError", "projected_smallcnn_spec"]

#: a shard dying within this many seconds of spawn, before serving
#: anything, counts as an "early death" (permanent failure after two)
_FAST_FAIL_S = 5.0


class ShardCrashedError(RuntimeError):
    """The shard holding this request died before responding (and the
    retry budget, if any, was exhausted)."""


def _validate_model_name(name) -> None:
    """Registry keys travel inside every tensor frame: non-empty str,
    bounded utf-8 length (the frame encodes it with a one-byte length)."""
    if not isinstance(name, str) or not name:
        raise ValueError(f"model names must be non-empty strings, got {name!r}")
    if len(name.encode("utf-8")) > MAX_MODEL_ID_BYTES:
        raise ValueError(
            f"model name {name!r} exceeds {MAX_MODEL_ID_BYTES} utf-8 bytes"
        )


# ----------------------------------------------------------------------
# Router-side request + shard bookkeeping
# ----------------------------------------------------------------------
class _InFlight:
    """One client request, across all its dispatch attempts.

    Retains the input payload so crash/stall/corruption can re-dispatch
    it, and owns the only-once delivery contract: however many attempts
    (retries, hedges) are racing, exactly one outcome reaches the
    client future — late losers are discarded (their transport capacity
    is still reclaimed by the normal reply path).
    """

    __slots__ = (
        "x", "future", "deadline_at", "attempts", "hedged", "stalled",
        "done", "lock", "created_at", "last_sent_at", "trace", "model",
    )

    def __init__(
        self, x: np.ndarray, future: Future, deadline_at: float | None, trace=None,
        model: str = DEFAULT_MODEL,
    ) -> None:
        self.x = x
        self.future = future
        self.deadline_at = deadline_at
        self.model = model
        self.attempts = 0
        self.hedged = False
        self.stalled = False
        self.done = False
        self.lock = threading.Lock()
        self.created_at = time.monotonic()
        self.last_sent_at = self.created_at
        #: router-side :class:`~repro.runtime.telemetry.Trace` for a
        #: sampled request (None = untraced); finished on delivery
        self.trace = trace

    def expired(self, now: float | None = None) -> bool:
        if self.deadline_at is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline_at

    def try_claim_attempt(self, max_attempts: int) -> bool:
        """Reserve one dispatch attempt (False: done or budget spent)."""
        with self.lock:
            if self.done or self.attempts >= max_attempts:
                return False
            self.attempts += 1
            return True

    def unclaim_attempt(self) -> None:
        """Return an attempt that never made it onto a shard."""
        with self.lock:
            self.attempts = max(0, self.attempts - 1)

    def _finish(self) -> bool:
        with self.lock:
            if self.done:
                return False
            self.done = True
            self.x = None  # payload no longer needed; free it early
            return True

    def resolve_result(self, out: np.ndarray) -> bool:
        """Deliver a result if no other attempt beat us to it."""
        if not self._finish():
            return False
        if self.trace is not None:
            self.trace.finish("ok")
        if self.future.set_running_or_notify_cancel():
            self.future.set_result(out)
        return True

    def resolve_exception(self, exc: BaseException) -> bool:
        """Deliver a failure if no other attempt beat us to it."""
        if not self._finish():
            return False
        if self.trace is not None:
            self.trace.finish(type(exc).__name__)
        if self.future.set_running_or_notify_cancel():
            self.future.set_exception(exc)
        return True


class _Shard:
    """One worker incarnation as seen by the router."""

    def __init__(self, index: int, endpoint: ShardEndpoint, breaker: CircuitBreaker) -> None:
        self.index = index
        self.endpoint = endpoint
        self.breaker = breaker  # fresh per incarnation: a respawn starts clean
        self.lock = threading.Lock()  # pending/counters
        self.pending: dict[int, _InFlight] = {}
        self.ready = threading.Event()
        self.down = False
        self.permanent = False  # down for good: no replacement is coming
        self.draining = False  # no new routing; in-flight may still settle
        self.removing = False  # leaving the cluster: no respawn on death
        self.generation = 0  # membership generation that installed us
        self.fail_reason: str | None = None
        self.spawned_at = time.monotonic()
        self.last_routed_at = self.spawned_at
        self.recv_thread: threading.Thread | None = None
        self.worker_stats: dict | None = None
        # cumulative across incarnations of this shard index
        self.requests = 0
        self.errors = 0
        self.respawns = 0
        self.early_deaths = 0

    @property
    def process(self):
        """Local worker process handle (None for a remote shard)."""
        return getattr(self.endpoint, "process", None)

    @property
    def outstanding(self) -> int:
        return len(self.pending)

    def score(self) -> float:
        """Latency-aware routing score (lower = better candidate)."""
        stats = self.worker_stats or {}
        return route_score(
            self.outstanding, stats.get("p50_ms", 0.0), stats.get("p95_ms", 0.0)
        )


class ShardedServer:
    """Serve a registry of models from N workers behind a resilient,
    latency-aware, transport-neutral router.

    Every shard hosts the **whole registry**: one
    :class:`~repro.runtime.session.InferenceSession` per model sharing
    the worker's process-wide kernel cache and buffer arena, each behind
    its own micro-batch queue.  Clients pick a model per request with
    ``submit(x, model=...)``; a single-model cluster keeps the PR 2-9
    behaviour exactly (``model`` may be omitted).  The registry is
    elastic at runtime: :meth:`load_model` hot-loads a new model into
    every live shard, :meth:`unload_model` drains and removes one (the
    last model is refused — a serving cluster never goes empty).

    Args:
        spec: picklable session recipe every worker rebuilds — a single
            :class:`~repro.runtime.session.SessionSpec` (served under
            the model name ``"default"``) or a ``{name: SessionSpec}``
            registry.  ``specs=`` is an explicit keyword alias for the
            registry form.
        num_shards: worker count (ignored when ``shards`` is given).
        transport: ``"shm"`` (local processes over shared-memory slot
            rings; the default) or ``"tcp"`` (local loopback workers
            over framed sockets — the same wire protocol remote shards
            speak).
        shards: remote worker addresses (``["host:port", ...]``), one
            shard per entry, each running
            ``python -m repro worker --listen HOST:PORT``.  Implies
            ``transport="tcp"``; "respawn" becomes reconnect-with-backoff.
        slots_per_shard: outstanding-request bound per worker
            (shared-memory slots, or TCP credits — backpressure either
            way).
        max_request_samples: largest ``N`` accepted per request; also
            sizes the transport payload capacity (``max(input, output)
            elements x N x float32``), so larger requests raise instead
            of overflowing.
        health_interval_s: monitor period for liveness pings, stats
            refresh, deadline/stall scans, and hedging decisions.
        resilience: retry / hedging / breaker / timeout knobs
            (:class:`~repro.runtime.resilience.ResilienceConfig`); the
            default enables 2 retries.  Pass
            ``ResilienceConfig(max_retries=0)`` for the pre-retry
            behaviour (crashes surface as :class:`ShardCrashedError`
            immediately).
        faults: deterministic chaos plan
            (:class:`~repro.runtime.faults.FaultPlan`); ``None`` in
            production — every hook is a no-op.
        mp_start: multiprocessing start method for local workers
            (``spawn`` default; see module docstring).
        worker_env: extra environment for local workers (e.g. pin BLAS
            threads with ``{"OPENBLAS_NUM_THREADS": "1"}`` so shards
            don't fight over cores); applied around spawn, parent env
            restored.
        telemetry: observability knobs
            (:class:`~repro.runtime.telemetry.TelemetryConfig`): trace
            sampling rate, trace/event ring capacities, the optional
            JSON-lines event sink, and — when ``metrics_port`` is set —
            a background HTTP admin server exposing ``/metrics``
            (Prometheus text), ``/healthz``, ``/stats``, ``/trace/<id>``
            and ``/events``.  The default samples 1% of requests and
            runs no HTTP server.
    """

    def __init__(
        self,
        spec: SessionSpec | dict[str, SessionSpec] | None = None,
        num_shards: int = 2,
        *,
        specs: dict[str, SessionSpec] | None = None,
        transport: str = "shm",
        shards: list[str] | None = None,
        slots_per_shard: int = 16,
        max_request_samples: int = 16,
        health_interval_s: float = 0.5,
        resilience: ResilienceConfig | None = None,
        faults: FaultPlan | None = None,
        mp_start: str = "spawn",
        worker_env: dict[str, str] | None = None,
        telemetry: TelemetryConfig | None = None,
    ) -> None:
        if (spec is None) == (specs is None):
            raise ValueError("pass exactly one of spec (positional) or specs=")
        if specs is None:
            specs = spec if isinstance(spec, dict) else {DEFAULT_MODEL: spec}
        if not specs:
            raise ValueError("the model registry must hold at least one model")
        for name, entry in specs.items():
            _validate_model_name(name)
            if not isinstance(entry, SessionSpec):
                raise TypeError(
                    f"model {name!r}: expected a SessionSpec, got {type(entry).__name__}"
                )
        if shards is not None:
            if transport not in ("tcp", "shm"):
                raise ValueError(f"unknown transport {transport!r}")
            transport = "tcp"  # addresses only make sense over sockets
            for address in shards:
                parse_hostport(address)  # validate before spawning anything
            num_shards = len(shards)
        if transport not in ("shm", "tcp"):
            raise ValueError(f"transport must be 'shm' or 'tcp', got {transport!r}")
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if slots_per_shard < 1:
            raise ValueError(f"slots_per_shard must be >= 1, got {slots_per_shard}")
        #: the live model registry, shared **by reference** with the
        #: launchers: every spawn/respawn/reconnect snapshots it at
        #: launch time, so new incarnations always build the current set
        self.specs: dict[str, SessionSpec] = dict(specs)
        self.num_shards = num_shards
        self.transport = transport
        self.shard_addresses = list(shards) if shards else None
        self.slots_per_shard = slots_per_shard
        self.max_request_samples = max_request_samples
        self.health_interval_s = health_interval_s
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self._fault_plan = faults
        self._injector = FaultInjector(faults) if faults is not None else None
        self._worker_env = dict(worker_env) if worker_env else None
        self._ctx = get_context(mp_start)
        # transport slots are sized once, for the largest model in the
        # founding registry; load_model() re-checks the fit because live
        # rings/credits cannot be regrown
        self._slot_bytes = max(
            self._spec_slot_bytes(entry) for entry in self.specs.values()
        )
        self._launcher = self._make_launcher()
        #: per-index launcher overrides: a shard added with an explicit
        #: address on a cluster whose own launcher is local launches
        #: (and respawns/reconnects) through the shared address-routed
        #: TCP launcher instead
        self._index_launcher: dict[int, ShardLauncher] = {}
        self._addressed_launcher: RemoteTcpLauncher | None = None
        self._lock = threading.Lock()  # membership map mutation + down transitions
        self._closed = False
        self._req_ids = itertools.count()
        self._retired_endpoints: list[ShardEndpoint] = []
        # telemetry hub: metrics registry + trace store/sampler + event log
        self._telemetry = Telemetry(telemetry)
        self.events = self._telemetry.events
        # resilience counters live in the hub registry so /metrics and
        # cluster_stats read the very same cells
        self._counters = {
            key: self._telemetry.registry.counter(
                f"cluster_{key}_total", help=text
            )
            for key, text in (
                ("retries", "attempts re-dispatched after crash/corruption/stall"),
                ("hedges", "duplicate attempts dispatched for slow requests"),
                ("shed", "requests refused at admission (transport slots full)"),
                ("timed_out", "requests shed or failed on deadline expiry"),
                ("corrupt", "payloads that failed checksum verification"),
            )
        }
        # per-model router stats: request counters and submit-to-result
        # latency histograms live in the hub registry as model-labelled
        # cells (so /metrics exports them).  Entries outlive an unload,
        # as their registry series do, so the router-wide percentiles
        # cover every result the router ever delivered
        self._model_lock = threading.Lock()
        self._model_stats: dict[str, dict] = {}
        for name in self.specs:
            self._model_entry(name)
        # model load/unload ack mailbox: (shard_index, op, name) -> detail
        self._ack_cond = threading.Condition()
        self._model_acks: dict[tuple[int, str, str], str | None] = {}
        # trace bookkeeping: req_id -> (trace, sent_at, shard, attempt)
        # for sampled attempts in flight (bounded; stale entries evicted)
        self._trace_lock = threading.Lock()
        self._trace_sent: dict[int, tuple] = {}
        #: the membership map: shard index -> live incarnation.  Indices
        #: are allocated monotonically (`_next_index`) and never reused;
        #: the map can grow and shrink at runtime, so nothing may assume
        #: dense indices.  Readers take a point-in-time snapshot (the
        #: `_shards` property) and identity-check against the map before
        #: acting on a shard; every membership change (add / remove /
        #: respawn) bumps `_generation`.
        self._shard_map: dict[int, _Shard] = {}
        self._generation = 0
        self._next_index = num_shards
        try:
            for i in range(num_shards):
                self._shard_map[i] = self._spawn_shard(i)
        except BaseException:
            # don't leak already-spawned workers/segments when a later
            # spawn fails (e.g. /dev/shm exhausted): nothing can call
            # close() on an object whose constructor raised
            self._closed = True  # recv threads must not respawn what we reap
            for shard in self._shard_map.values():
                shard.endpoint.kill()
                shard.endpoint.join(timeout=5.0)
                self._retire_endpoint(shard.endpoint)
            for endpoint in self._retired_endpoints:
                endpoint.dispose()
            self._telemetry.close()
            raise
        self._stop_monitor = threading.Event()
        self._ping_seq = itertools.count(1)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
        )
        self._monitor.start()
        # HTTP exposition last: every route reads state built above
        self.admin: AdminServer | None = None
        self.metrics_port: int | None = None
        cfg = self._telemetry.config
        if cfg.metrics_port is not None:
            try:
                self.admin = AdminServer(self, host=cfg.metrics_host, port=cfg.metrics_port)
                self.metrics_port = self.admin.port
            except BaseException:
                self.close()
                raise

    def _make_launcher(self) -> ShardLauncher:
        if self.shard_addresses is not None:
            return RemoteTcpLauncher(
                self.specs,
                self.shard_addresses,
                slots_per_shard=self.slots_per_shard,
                slot_bytes=self._slot_bytes,
                fault_plan=self._fault_plan,
            )
        if self.transport == "tcp":
            return LocalTcpLauncher(
                self.specs,
                slots_per_shard=self.slots_per_shard,
                slot_bytes=self._slot_bytes,
                ctx=self._ctx,
                fault_plan=self._fault_plan,
                worker_env=self._worker_env,
            )
        return ShmShardLauncher(
            self.specs,
            slots_per_shard=self.slots_per_shard,
            slot_bytes=self._slot_bytes,
            ctx=self._ctx,
            fault_plan=self._fault_plan,
            worker_env=self._worker_env,
        )

    @property
    def spec(self) -> SessionSpec:
        """The sole model's spec — single-model back-compat accessor.
        Raises on a multi-model registry (callers must name a model)."""
        if len(self.specs) == 1:
            return next(iter(self.specs.values()))
        raise ValueError(
            f"cluster serves {len(self.specs)} models "
            f"({sorted(self.specs)}); use .specs instead of .spec"
        )

    def _spec_slot_bytes(self, spec: SessionSpec) -> int:
        elems = max(prod(spec.input_shape), prod(spec.probe_output_shape()))
        return self.max_request_samples * elems * np.dtype(np.float32).itemsize

    def _model_entry(self, name: str) -> dict:
        """Per-model router stats cell (created on first use)."""
        with self._model_lock:
            entry = self._model_stats.get(name)
            if entry is None:
                registry = self._telemetry.registry
                entry = {
                    "requests": registry.counter(
                        "cluster_model_requests_total",
                        help="requests submitted per model",
                        model=name,
                    ),
                    "latency": registry.histogram(
                        "cluster_request_latency_ms",
                        help="router-observed submit-to-result latency per model (ms)",
                        model=name,
                    ),
                }
                self._model_stats[name] = entry
            return entry

    def _count(self, key: str, n: int = 1) -> None:
        self._counters[key].inc(n)

    @property
    def _shards(self) -> list[_Shard]:
        """Point-in-time membership snapshot, ordered by shard index.

        A copied list, never the map itself: membership can change
        between any two calls (add/remove/respawn), so iteration must
        not race the map.  Act-on-a-shard paths re-check
        ``self._shard_map.get(shard.index) is shard`` under the lock
        before mutating membership."""
        with self._lock:
            return [self._shard_map[i] for i in sorted(self._shard_map)]

    # ------------------------------------------------------------------
    # Trace bookkeeping (sampled attempts only)
    # ------------------------------------------------------------------
    #: ceiling on remembered sampled attempts; far above any realistic
    #: in-flight count, it only matters when trace frames go missing
    _TRACE_SENT_CAP = 4096

    def _trace_register(
        self, req_id: int, trace, sent_at: float, shard_idx: int, attempt: int
    ) -> None:
        """Remember a sampled attempt so its reply and worker spans can
        be anchored at the router-side send timestamp."""
        with self._trace_lock:
            self._trace_sent[req_id] = (trace, sent_at, shard_idx, attempt)
            while len(self._trace_sent) > self._TRACE_SENT_CAP:
                self._trace_sent.pop(next(iter(self._trace_sent)))

    def _trace_restamp(self, req_id: int, sent_at: float) -> None:
        """Move a registered attempt's anchor to when the send returned
        (unless a reply or crash already retired it)."""
        with self._trace_lock:
            entry = self._trace_sent.get(req_id)
            if entry is not None:
                self._trace_sent[req_id] = (entry[0], sent_at, *entry[2:])

    def _trace_reply(self, req_id: int) -> None:
        """A reply (result or error) landed: close the transport span."""
        with self._trace_lock:
            entry = self._trace_sent.get(req_id)
        if entry is not None:
            trace, sent_at, shard_idx, attempt = entry
            trace.add_span(
                "transport", sent_at, time.monotonic(),
                shard=shard_idx, attempt=attempt,
            )

    def _trace_splice(self, req_id: int, spans: list) -> None:
        """Worker spans arrived (always after the reply): rebase them at
        the attempt's send timestamp and retire the bookkeeping."""
        with self._trace_lock:
            entry = self._trace_sent.pop(req_id, None)
        if entry is not None:
            trace, sent_at, shard_idx, attempt = entry
            trace.add_remote_spans(spans, sent_at, shard=shard_idx, attempt=attempt)

    def _trace_drop(self, req_ids) -> None:
        """Attempts died with their shard: mark each sampled one crashed."""
        now = time.monotonic()
        with self._trace_lock:
            entries = [self._trace_sent.pop(r, None) for r in req_ids]
        for entry in entries:
            if entry is not None:
                trace, sent_at, shard_idx, attempt = entry
                trace.add_span(
                    "attempt_crashed", sent_at, now, shard=shard_idx, attempt=attempt
                )

    # ------------------------------------------------------------------
    # Spawning / crash handling
    # ------------------------------------------------------------------
    def _spawn_shard(self, index: int) -> _Shard:
        launcher = self._index_launcher.get(index, self._launcher)
        endpoint = launcher.launch(index)
        events = self._telemetry.events
        breaker = CircuitBreaker(
            self.resilience.breaker_threshold,
            self.resilience.breaker_reset_s,
            on_transition=lambda old, new, idx=index: events.emit(
                "breaker_transition", shard=idx, old=old, new=new
            ),
        )
        shard = _Shard(index, endpoint, breaker)
        events.emit("shard_spawn", shard=index, pid=endpoint.pid,
                    address=getattr(endpoint, "address", None))
        shard.recv_thread = threading.Thread(
            target=self._recv_loop, args=(shard,), name=f"repro-shard-{index}-recv", daemon=True
        )
        shard.recv_thread.start()
        return shard

    def _recv_loop(self, shard: _Shard) -> None:
        """Per-shard response pump: resolves in-flight records off the
        endpoint's normalized events (the endpoint itself reads payloads
        and reclaims transport capacity, also for discarded late/
        hedge-loser replies)."""
        while True:
            try:
                msg = shard.endpoint.recv()
            except (TransportClosedError, EOFError, OSError):
                self._handle_shard_down(shard, "worker connection lost")
                return
            kind = msg[0]
            if kind == "res":
                _, req_id, out, read_err = msg
                with shard.lock:
                    inflight = shard.pending.pop(req_id, None)
                self._trace_reply(req_id)
                if isinstance(read_err, CorruptedPayloadError):
                    shard.breaker.record_failure()
                    self._count("corrupt")
                    if inflight is not None:
                        self._retry_or_fail(inflight, read_err, exclude=shard)
                    continue
                shard.breaker.record_success()
                if inflight is None:
                    continue  # late reply for a request already settled elsewhere
                if read_err is None:
                    if inflight.resolve_result(out):
                        self._model_entry(inflight.model)["latency"].observe(
                            (time.monotonic() - inflight.created_at) * 1e3
                        )
                else:
                    inflight.resolve_exception(read_err)
            elif kind == "err":
                _, req_id, code, text = msg
                with shard.lock:
                    inflight = shard.pending.pop(req_id, None)
                self._trace_reply(req_id)
                if code == "corrupt":
                    # the *request* arrived corrupted at the worker: the
                    # worker itself is healthy, the transport attempt is not
                    self._count("corrupt")
                    if inflight is not None:
                        self._retry_or_fail(
                            inflight, CorruptedPayloadError(f"shard {shard.index}: {text}"),
                            exclude=None,
                        )
                    continue
                shard.breaker.record_success()  # worker responded: it is alive
                if code == "unknown_model":
                    # the worker does not hold this model — a race with a
                    # hot load/unload (respawns and membership changes can
                    # briefly lag the registry).  The registry is
                    # authoritative: retry on another shard while the
                    # model is still registered, fail typed otherwise.
                    if inflight is not None:
                        if inflight.model in self.specs:
                            self._retry_or_fail(
                                inflight,
                                UnknownModelError(f"shard {shard.index}: {text}"),
                                exclude=shard,
                            )
                        else:
                            inflight.resolve_exception(
                                UnknownModelError(f"shard {shard.index}: {text}")
                            )
                    continue
                if code == "deadline":
                    # count only if this reply actually resolved the client
                    # (the monitor's deadline scan may have beaten us to it
                    # and already counted the expiry)
                    if inflight is not None and inflight.resolve_exception(
                        DeadlineExceededError(f"shard {shard.index}: {text}")
                    ):
                        self._count("timed_out")
                    continue
                with shard.lock:
                    shard.errors += 1
                if inflight is not None:
                    inflight.resolve_exception(RuntimeError(f"shard {shard.index}: {text}"))
            elif kind == "trace":
                self._trace_splice(msg[1], msg[2])
            elif kind == "model":
                _, op, name, detail = msg
                with self._ack_cond:
                    self._model_acks[(shard.index, op, name)] = detail
                    self._ack_cond.notify_all()
            elif kind == "pong":
                shard.worker_stats = msg[2]
            elif kind == "bye":
                shard.worker_stats = msg[1]
            elif kind == "ready":
                shard.ready.set()
            elif kind == "fatal":
                shard.fail_reason = f"worker failed to build session: {msg[1]}"

    def _retire_endpoint(self, endpoint: ShardEndpoint) -> None:
        """Best-effort close now, final disposal deferred to server
        close() — e.g. an shm ring's ``SharedMemory.close`` can raise
        ``BufferError`` while another thread is mid write/read with a
        live view, a real window when a shard dies under concurrent
        submits.  The retired list retries at shutdown, when no request
        threads can be touching the transport anymore."""
        endpoint.close()
        if endpoint not in self._retired_endpoints:  # idempotent: no double dispose
            self._retired_endpoints.append(endpoint)

    def _handle_shard_down(self, shard: _Shard, reason: str) -> None:
        """Rehome or fail a dead shard's in-flight requests; respawn
        (or, for a remote shard, reconnect) unless closing.

        Idempotent per incarnation — the first caller (recv thread on
        EOF, submit on a broken transport, or the monitor) wins.
        Requests with retry budget left are re-dispatched to healthy
        shards on a rescue thread (their payloads were retained for
        exactly this); the rest fail with :class:`ShardCrashedError` —
        typed errors, never hangs.  During a graceful close, a shard
        dying mid-drain resolves its futures here immediately instead
        of making clients wait out the drain timeout.
        """
        with self._lock:
            if shard.down:
                return
            shard.down = True
            closing = self._closed
            removing = shard.removing
            lifetime = time.monotonic() - shard.spawned_at
            # a reported build failure is an early death no matter how
            # long the spawn+build took — respawning it cannot help
            early = shard.fail_reason is not None or (
                lifetime < _FAST_FAIL_S and not shard.ready.is_set()
            )
            shard.early_deaths = shard.early_deaths + 1 if early else 0
        with shard.lock:
            doomed = dict(shard.pending)
            shard.pending.clear()
        detail = shard.fail_reason or reason
        self._telemetry.events.emit(
            "shard_down", shard=shard.index, reason=detail,
            in_flight=len(doomed), early=early,
        )
        self._settle_doomed(
            shard, doomed,
            f"shard {shard.index} crashed with the request in flight ({detail})",
            rehome_allowed=not closing, cause="shard_down",
        )
        shard.endpoint.kill()  # reap the process / sever the connection
        shard.endpoint.join(timeout=5.0)
        self._retire_endpoint(shard.endpoint)  # final disposal at close()
        if closing or removing:
            # a removal in progress owns the rest of the teardown (and
            # the shard_removed event) — no replacement for a shard
            # that is on its way out
            return
        if shard.early_deaths >= 2:
            shard.permanent = True
            shard.fail_reason = (
                f"shard {shard.index} permanently failed: died {shard.early_deaths}x "
                f"right after spawn before serving ({detail})"
            )
            self._telemetry.events.emit(
                "shard_permanent", shard=shard.index, reason=shard.fail_reason
            )
            return
        with self._lock:
            if self._closed or self._shard_map.get(shard.index) is not shard:
                return
        # launch outside the router lock: a TCP reconnect can legally
        # take seconds of backoff, and submits must keep flowing to the
        # surviving shards meanwhile.  No rival writer exists for this
        # index — only the installed incarnation's own down-handler (us)
        # replaces it — so the re-check below only guards close() and a
        # concurrent remove_shard().
        try:
            replacement = self._spawn_shard(shard.index)
        except Exception as exc:  # unreachable remote / spawn failure
            shard.permanent = True
            shard.fail_reason = (
                f"shard {shard.index} permanently failed: respawn failed ({exc})"
            )
            self._telemetry.events.emit(
                "shard_permanent", shard=shard.index, reason=shard.fail_reason
            )
            return
        replacement.requests = shard.requests
        replacement.errors = shard.errors
        replacement.respawns = shard.respawns + 1
        replacement.early_deaths = shard.early_deaths
        with self._lock:
            if self._closed or self._shard_map.get(shard.index) is not shard:
                replacement.endpoint.kill()
                replacement.endpoint.join(timeout=5.0)
                self._retire_endpoint(replacement.endpoint)
                return
            self._shard_map[shard.index] = replacement
            self._generation += 1
            replacement.generation = self._generation
        self._telemetry.events.emit(
            "shard_respawn", shard=shard.index, pid=replacement.endpoint.pid,
            respawns=replacement.respawns,
        )

    def _settle_doomed(
        self,
        shard: _Shard,
        doomed: dict[int, _InFlight],
        message: str,
        *,
        rehome_allowed: bool,
        cause: str,
    ) -> tuple[int, int]:
        """Resolve in-flight records whose attempt on ``shard`` can no
        longer complete (the shard died, or is being removed with the
        drain window spent): expired ones resolve
        :class:`~repro.runtime.resilience.DeadlineExceededError`, ones
        with retry budget left are re-dispatched to healthy shards on a
        rescue thread (their payloads were retained for exactly this),
        and the rest fail with :class:`ShardCrashedError` — typed
        errors, never hangs.  Returns ``(rehomed, failed)``."""
        self._trace_drop(doomed.keys())
        rehome: list[_InFlight] = []
        failed = 0
        for inflight in doomed.values():
            if inflight.done:
                continue  # e.g. a hedge winner already delivered
            if inflight.expired():
                if inflight.resolve_exception(
                    DeadlineExceededError("deadline passed with the request in flight")
                ):
                    self._count("timed_out")
                continue
            if rehome_allowed and inflight.try_claim_attempt(self.resilience.max_attempts):
                rehome.append(inflight)
                continue
            if inflight.resolve_exception(ShardCrashedError(message)):
                failed += 1
        if failed:
            with shard.lock:
                shard.errors += failed
        if rehome:
            self._count("retries", len(rehome))
            self._telemetry.events.emit(
                "retry", shard=shard.index, requests=len(rehome), cause=cause
            )
            threading.Thread(
                target=self._redispatch_batch,
                args=(rehome,),
                name=f"repro-shard-{shard.index}-rescue",
                daemon=True,
            ).start()
        return len(rehome), failed

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------
    def _launcher_for(self, index: int, address: str | None) -> ShardLauncher:
        """Pick (and record) the launcher a new shard index launches
        through — the cluster's own launcher for local adds, the shared
        address-routed TCP launcher for ``host:port`` adds.  Called
        under ``self._lock``."""
        if address is None:
            if isinstance(self._launcher, RemoteTcpLauncher):
                raise ValueError(
                    "this cluster routes to remote workers by address; "
                    "add_shard() needs an explicit 'host:port'"
                )
            return self._launcher
        if isinstance(self._launcher, RemoteTcpLauncher):
            self._launcher.assign(index, address)
            return self._launcher
        if self._addressed_launcher is None:
            self._addressed_launcher = RemoteTcpLauncher(
                self.specs,
                [],
                slots_per_shard=self.slots_per_shard,
                slot_bytes=self._slot_bytes,
                fault_plan=self._fault_plan,
            )
        self._addressed_launcher.assign(index, address)
        self._index_launcher[index] = self._addressed_launcher
        return self._addressed_launcher

    def add_shard(self, address: str | None = None) -> int:
        """Join one new shard to the live cluster; returns its index.

        With ``address=None`` a local worker is spawned through the
        cluster's own launcher (shm or loopback TCP — whatever the
        server was built with).  With ``address="host:port"`` the
        router connects to an externally started worker
        (``python -m repro worker --listen HOST:PORT``) — valid on an
        shm cluster too, which then serves with mixed-transport
        membership.  The new shard takes traffic as soon as it is
        installed; crash handling, respawn, breakers, deadlines, and
        chaos injection apply to it exactly as to founding shards.

        Raises :class:`ShardCrashedError` if the worker dies between
        launch and install (e.g. its bundle is unreadable there) —
        a shard that never served is not left behind as a dead member.
        """
        if address is not None:
            parse_hostport(address)  # validate before reserving an index
        with self._lock:
            if self._closed:
                raise RuntimeError("ShardedServer is closed")
            index = self._next_index
            self._next_index += 1
            self._launcher_for(index, address)
        try:
            shard = self._spawn_shard(index)
        except BaseException:
            with self._lock:
                self._index_launcher.pop(index, None)
            raise
        with self._lock:
            # a worker that died between launch and install never joins:
            # its recv thread already ran the down-path (which skipped
            # respawn — the map has no entry matching it), so installing
            # it would leave a permanently dead member behind
            installed = not self._closed and not shard.down
            if installed:
                self._generation += 1
                shard.generation = self._generation
                self._shard_map[index] = shard
                self.num_shards = len(self._shard_map)
        if not installed:
            if not shard.down:
                shard.endpoint.kill()
                shard.endpoint.join(timeout=5.0)
                self._retire_endpoint(shard.endpoint)
            with self._lock:
                self._index_launcher.pop(index, None)
            if self._closed:
                raise RuntimeError("ShardedServer is closed")
            raise ShardCrashedError(
                f"shard {index} died during launch "
                f"({shard.fail_reason or 'worker connection lost'})"
            )
        self._telemetry.events.emit(
            "shard_added", shard=index, pid=shard.endpoint.pid,
            address=address, generation=shard.generation,
        )
        return index

    def remove_shard(self, index: int, *, drain: bool = True, timeout: float = 30.0) -> dict:
        """Take one shard out of the live cluster.

        Routing to the shard stops immediately.  With ``drain=True``
        the call waits up to ``timeout`` seconds for its in-flight
        requests to settle — the monitor keeps enforcing deadlines and
        stall detection on them meanwhile, so a drain is bounded by the
        existing deadline machinery, not just this window.  Whatever the
        window leaves behind (or everything, with ``drain=False``) is
        re-dispatched to healthy shards while retry budget lasts and
        typed-failed (:class:`ShardCrashedError`) after — never hung.
        The endpoint is then torn down, the shard leaves the membership
        map (bumping ``cluster_stats["generation"]``), and a
        ``shard_removed`` event is emitted.

        Raises ``KeyError`` for an unknown index, ``ValueError`` when
        the shard is already being removed or is the last routable one.
        Returns ``{"shard", "drained", "rehomed", "failed",
        "generation"}`` describing how the removal went.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("ShardedServer is closed")
            shard = self._shard_map.get(index)
            if shard is None:
                raise KeyError(
                    f"no shard with index {index} (current: {sorted(self._shard_map)})"
                )
            if shard.removing:
                raise ValueError(f"shard {index} is already being removed")
            rest = [
                s for i, s in self._shard_map.items()
                if i != index and not s.down and not s.permanent and not s.removing
            ]
            if not rest and not shard.down:
                raise ValueError(
                    f"refusing to remove shard {index}: it is the last routable shard"
                )
            shard.removing = True
            shard.draining = True
        self._telemetry.events.emit(
            "shard_draining", shard=index, drain=drain, in_flight=shard.outstanding
        )
        drained = True
        if drain:
            deadline = time.monotonic() + timeout
            while not shard.down and not self._closed:
                with shard.lock:
                    settled = all(f.done for f in shard.pending.values())
                if settled:
                    break
                if time.monotonic() >= deadline:
                    drained = False
                    break
                time.sleep(0.02)
        else:
            drained = shard.outstanding == 0
        rehomed = failed = 0
        if not self._closed and not shard.down:
            # mark the shard down *under the membership lock* so the recv
            # thread's EOF handler (fired by the teardown below) becomes
            # a no-op instead of a rival crash path
            with self._lock:
                already_down = shard.down
                shard.down = True
            if not already_down:
                with shard.lock:
                    doomed = dict(shard.pending)
                    shard.pending.clear()
                live_doomed = {r: f for r, f in doomed.items() if not f.done}
                if live_doomed:
                    drained = False
                    rehomed, failed = self._settle_doomed(
                        shard, live_doomed,
                        f"shard {index} removed with the request still in flight",
                        rehome_allowed=True, cause="shard_removed",
                    )
                try:
                    shard.endpoint.send_stop()  # graceful: worker drains + exits
                except (TransportClosedError, BrokenPipeError, OSError):
                    pass
                shard.endpoint.join(timeout=5.0)
                if shard.endpoint.alive():
                    shard.endpoint.kill()
                    shard.endpoint.join(timeout=5.0)
                self._retire_endpoint(shard.endpoint)  # final disposal at close()
                if shard.recv_thread is not None:
                    shard.recv_thread.join(timeout=5.0)
        with self._lock:
            generation = self._generation
            if self._shard_map.get(index) is shard:
                del self._shard_map[index]
                self._index_launcher.pop(index, None)
                self._generation += 1
                generation = self._generation
                self.num_shards = len(self._shard_map)
        self._telemetry.events.emit(
            "shard_removed", shard=index, drained=drained,
            rehomed=rehomed, failed=failed, generation=generation,
        )
        return {"shard": index, "drained": drained, "rehomed": rehomed,
                "failed": failed, "generation": generation}

    # ------------------------------------------------------------------
    # Model registry (hot load / drained unload)
    # ------------------------------------------------------------------
    def models(self) -> list[str]:
        """Currently registered model names, sorted."""
        with self._lock:
            return sorted(self.specs)

    def _await_model_acks(
        self, shards: list[_Shard], op: str, name: str, deadline: float
    ) -> dict[int, str | None]:
        """Collect each shard's ``("model", op, name)`` ack (None =
        success, str = failure detail).  A shard that dies while we wait
        is excused — its respawn rebuilds from the live registry, which
        was updated before any control was sent."""
        results: dict[int, str | None] = {}
        with self._ack_cond:
            while True:
                pending: list[_Shard] = []
                for shard in shards:
                    if shard.index in results:
                        continue
                    key = (shard.index, op, name)
                    if key in self._model_acks:
                        results[shard.index] = self._model_acks.pop(key)
                    elif shard.down:
                        results[shard.index] = None  # excused (see docstring)
                    else:
                        pending.append(shard)
                if not pending:
                    return results
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    for shard in pending:
                        results[shard.index] = f"no {op} ack within the timeout"
                    return results
                self._ack_cond.wait(timeout=min(timeout, 0.1))

    def load_model(self, name: str, spec: SessionSpec, *, timeout: float = 30.0) -> dict:
        """Hot-load ``spec`` as model ``name`` into every live shard.

        The live registry is updated first — so respawns, reconnects,
        and elastic :meth:`add_shard` joins build the new model from now
        on — then a ``load`` control is sent to each live shard and
        their acks are awaited.  Remote shards (which may not share a
        filesystem) receive the session-bundle bytes CRC-framed
        alongside the spec.  The new model takes traffic the moment
        this returns; a ``model_loaded`` event is emitted.

        Raises ``ValueError`` for a duplicate or wire-unencodable name,
        or a model whose tensors exceed the transport slots sized at
        construction (live rings cannot be regrown); ``RuntimeError``
        when a live shard fails to build the session — the registry
        change is rolled back so the cluster never advertises a model
        half the fleet cannot serve.
        """
        _validate_model_name(name)
        if not isinstance(spec, SessionSpec):
            raise TypeError(f"expected a SessionSpec, got {type(spec).__name__}")
        needed = self._spec_slot_bytes(spec)
        if needed > self._slot_bytes:
            raise ValueError(
                f"model {name!r} needs {needed}-byte transport slots but this "
                f"cluster's are {self._slot_bytes} bytes; include the model in "
                "the founding registry instead"
            )
        with self._lock:
            if self._closed:
                raise RuntimeError("ShardedServer is closed")
            if name in self.specs:
                raise ValueError(f"model {name!r} is already registered")
            self.specs[name] = spec
            shards = [
                s for s in self._shard_map.values()
                if not s.down and not s.permanent and not s.removing
            ]
        self._model_entry(name)
        payload = None
        if any(s.process is None for s in shards):  # remote workers: ship bytes
            try:
                with open(spec.bundle_path, "rb") as fh:
                    payload = pack_bundle_payload(fh.read())
            except OSError:
                payload = None  # worker falls back to the spec's own path
        sent: list[_Shard] = []
        for shard in shards:
            msg = ("load", name, spec, payload if shard.process is None else None)
            try:
                shard.endpoint.send_control(msg)
                sent.append(shard)
            except (TransportClosedError, BrokenPipeError, OSError):
                pass  # dying shard: its respawn builds from the updated registry
        acks = self._await_model_acks(sent, "load", name, time.monotonic() + timeout)
        failures = {
            idx: detail for idx, detail in acks.items()
            # "already loaded" = a respawn raced us and built the model
            # from the updated registry before our control arrived
            if detail is not None and "already loaded" not in detail
        }
        if failures:
            with self._lock:
                self.specs.pop(name, None)
            for shard in sent:
                if shard.index not in failures and not shard.down:
                    try:
                        shard.endpoint.send_control(("unload", name))
                    except (TransportClosedError, BrokenPipeError, OSError):
                        pass
            raise RuntimeError(
                f"load of model {name!r} failed on shard(s) "
                + ", ".join(f"{i}: {d}" for i, d in sorted(failures.items()))
            )
        self._telemetry.events.emit("model_loaded", model=name, shards=len(sent))
        return {"model": name, "shards": len(sent)}

    def unload_model(self, name: str, *, drain: bool = True, timeout: float = 30.0) -> dict:
        """Drain and remove one model from every shard.

        Admission stops immediately — the name leaves the registry, so
        new ``submit(model=name)`` calls raise
        :class:`~repro.runtime.resilience.UnknownModelError`.  With
        ``drain=True`` the call then waits up to ``timeout`` seconds for
        the model's in-flight requests to settle: the workers still hold
        the model through the drain window, so live requests complete
        normally under the usual deadline/retry machinery (and whatever
        the window leaves behind is still drained worker-side by the
        micro-batcher's own close).  Only then does the ``unload``
        control tear the per-model sessions down.  Emits
        ``model_unloaded``.

        Raises ``KeyError`` for an unknown model and ``ValueError`` for
        the last registered model — a serving cluster never goes empty.
        Returns ``{"model", "shards", "drained"}``.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("ShardedServer is closed")
            if name not in self.specs:
                raise KeyError(
                    f"no model named {name!r} (registered: {sorted(self.specs)})"
                )
            if len(self.specs) == 1:
                raise ValueError(
                    f"refusing to unload {name!r}: it is the last registered model"
                )
            del self.specs[name]  # stops admission for this model
            shards = [
                s for s in self._shard_map.values()
                if not s.down and not s.permanent and not s.removing
            ]
        self._telemetry.events.emit("model_draining", model=name, drain=drain)
        drained = True
        if drain:
            deadline = time.monotonic() + timeout
            while not self._closed:
                busy = False
                for shard in self._shards:
                    with shard.lock:
                        if any(
                            f.model == name and not f.done
                            for f in shard.pending.values()
                        ):
                            busy = True
                            break
                if not busy:
                    break
                if time.monotonic() >= deadline:
                    drained = False
                    break
                time.sleep(0.02)
        sent: list[_Shard] = []
        for shard in shards:
            if shard.down:
                continue
            try:
                shard.endpoint.send_control(("unload", name))
                sent.append(shard)
            except (TransportClosedError, BrokenPipeError, OSError):
                pass
        self._await_model_acks(sent, "unload", name, time.monotonic() + timeout)
        self._telemetry.events.emit(
            "model_unloaded", model=name, shards=len(sent), drained=drained
        )
        return {"model": name, "shards": len(sent), "drained": drained}

    def _redispatch_batch(self, inflights: list[_InFlight]) -> None:
        """Rescue thread: re-dispatch rehomed requests (attempt already
        claimed) to healthy shards; failures resolve typed errors."""
        for inflight in inflights:
            self._dispatch_attempt(inflight, claimed=True, kind="retry")

    def _retry_or_fail(
        self, inflight: _InFlight, exc: BaseException, exclude: _Shard | None
    ) -> None:
        """One attempt failed (corruption / stall): spend a retry if the
        budget allows, else deliver the typed error."""
        if inflight.done:
            return
        if inflight.expired():
            if inflight.resolve_exception(
                DeadlineExceededError("deadline passed with the request in flight")
            ):
                self._count("timed_out")
            return
        if self._closed or not inflight.try_claim_attempt(self.resilience.max_attempts):
            inflight.resolve_exception(exc)
            return
        self._count("retries")
        self._telemetry.events.emit(
            "retry", shard=None if exclude is None else exclude.index,
            requests=1, cause=type(exc).__name__,
        )
        threading.Thread(
            target=self._dispatch_attempt,
            args=(inflight,),
            kwargs={"claimed": True, "exclude": exclude, "kind": "retry"},
            name="repro-retry-dispatch",
            daemon=True,
        ).start()

    def _monitor_loop(self) -> None:
        """Liveness + stats heartbeat, plus the per-request scans that
        need a clock: deadline expiry, stall detection (breaker
        failures + retries), and hedging."""
        while not self._stop_monitor.wait(self.health_interval_s):
            # the property is already a snapshot: membership changes
            # mid-scan are fine, each shard is identity-checked downstream
            for shard in self._shards:
                if shard.down:
                    continue
                if not shard.endpoint.alive():
                    self._handle_shard_down(shard, "worker died")
                    continue
                try:
                    shard.endpoint.send_ping(next(self._ping_seq))
                except (TransportClosedError, BrokenPipeError, OSError):
                    self._handle_shard_down(shard, "health ping failed")
                    continue
                self._scan_inflight(shard)

    def _scan_inflight(self, shard: _Shard) -> None:
        """Deadline / stall / hedge pass over one live shard's requests."""
        cfg = self.resilience
        now = time.monotonic()
        with shard.lock:
            items = list(shard.pending.values())
        for inflight in items:
            if inflight.done:
                continue
            if inflight.expired(now):
                # transport capacity stays reserved until the worker
                # replies (it may still write a response); the reply is
                # then discarded
                if inflight.resolve_exception(
                    DeadlineExceededError("deadline passed with the request in flight")
                ):
                    self._count("timed_out")
                continue
            age = now - inflight.last_sent_at
            if (
                cfg.request_timeout_s is not None
                and age > cfg.request_timeout_s
                and not inflight.stalled
            ):
                inflight.stalled = True
                shard.breaker.record_failure()  # stalls trip the breaker
                self._retry_or_fail(
                    inflight,
                    RequestTimeoutError(
                        f"attempt on shard {shard.index} stalled for {age:.2f} s "
                        f"(> request_timeout_s={cfg.request_timeout_s}); no retry "
                        "budget left"
                    ),
                    exclude=shard,
                )
            elif (
                cfg.hedge_after_ms is not None
                and age * 1e3 > cfg.hedge_after_ms
                and not inflight.hedged
            ):
                inflight.hedged = True
                if inflight.try_claim_attempt(cfg.max_attempts):
                    self._count("hedges")
                    self._telemetry.events.emit(
                        "hedge", shard=shard.index, age_ms=age * 1e3
                    )
                    threading.Thread(
                        target=self._dispatch_attempt,
                        args=(inflight,),
                        kwargs={"claimed": True, "exclude": shard,
                                "best_effort": True, "kind": "hedge"},
                        name="repro-hedge-dispatch",
                        daemon=True,
                    ).start()

    # ------------------------------------------------------------------
    # Client API (same futures vocabulary as MicroBatchServer)
    # ------------------------------------------------------------------
    def submit(
        self,
        x: np.ndarray,
        *,
        model: str | None = None,
        deadline: float | None = None,
        timeout: float | None = None,
    ) -> Future:
        """Route one request to the best shard; future of the logits.

        ``x`` is one ``(C, H, W)`` sample or an ``(N, C, H, W)`` batch
        with ``1 <= N <= max_request_samples``.

        Args:
            model: which registered model serves this request.  May be
                omitted on a single-model cluster (the sole model is
                implied); a multi-model cluster requires it.  An
                unregistered name raises
                :class:`~repro.runtime.resilience.UnknownModelError`.
            deadline: latency budget in seconds.  The budget travels
                with the request through every tier (router queue,
                transport, worker micro-batcher — re-anchored across
                host clock domains by the TCP transport); once it
                expires the request resolves with
                :class:`~repro.runtime.resilience.DeadlineExceededError`
                — over-budget work is shed, not executed.
            timeout: admission patience in seconds.  When every live
                shard's transport capacity stays full this long, the
                request is refused with
                :class:`~repro.runtime.resilience.QueueFullError`
                instead of blocking indefinitely (``None`` preserves
                the blocking behaviour).

        A request whose shard dies (or whose response is corrupted, or
        which stalls past ``request_timeout_s``) is retried on another
        shard up to ``resilience.max_retries`` times;
        :class:`ShardCrashedError` surfaces only once that budget is
        spent.
        """
        x = np.asarray(x)
        if x.ndim == 3:
            x = x[None]
        if x.ndim != 4:
            raise ValueError(f"expected (C, H, W) or (N, C, H, W) input, got shape {x.shape}")
        if x.size == 0:
            raise ValueError(
                f"refusing a zero-size request (shape {x.shape}): batches must "
                "contain at least one sample"
            )
        if x.shape[0] > self.max_request_samples:
            raise ValueError(
                f"request holds {x.shape[0]} samples but max_request_samples is "
                f"{self.max_request_samples}; split it client-side"
            )
        if x.nbytes > self._slot_bytes:
            raise ValueError(
                f"request of {x.nbytes} bytes ({x.dtype}) exceeds the "
                f"{self._slot_bytes}-byte transport slots (sized for float32)"
            )
        if self._closed:
            raise RuntimeError("ShardedServer is closed")
        registered = sorted(self.specs)
        if model is None:
            if len(registered) != 1:
                raise UnknownModelError(
                    f"cluster serves {registered}; pass model=..."
                )
            model = registered[0]
        elif model not in self.specs:
            raise UnknownModelError(
                f"no model named {model!r} (registered: {registered})"
            )
        deadline_at = None if deadline is None else time.monotonic() + deadline
        if deadline_at is not None and time.monotonic() >= deadline_at:
            self._count("timed_out")
            raise DeadlineExceededError("request deadline already expired at submission")
        self._model_entry(model)["requests"].inc()
        trace = self._telemetry.tracer.maybe_start()
        inflight = _InFlight(x, Future(), deadline_at, trace=trace, model=model)
        inflight.try_claim_attempt(self.resilience.max_attempts)  # first attempt
        status = self._dispatch_attempt(
            inflight, claimed=True, admission_timeout=timeout, sync=True
        )
        if trace is not None:
            # validation + routing + capacity wait, up to the first send
            trace.add_span("admission", trace.t0, time.monotonic(), model=model)
            inflight.future.trace_id = trace.trace_id
        if status == "queue_full":
            self._count("shed")
            raise QueueFullError(
                f"every live shard's transport slots stayed full for {timeout:.3f} s; "
                "request shed"
            )
        if status == "closed":
            raise RuntimeError("ShardedServer is closed")
        return inflight.future

    #: alias matching ``InferenceSession.run_async`` / ``submit``
    run_async = submit

    def run(self, x: np.ndarray, timeout: float | None = None, **submit_kwargs) -> np.ndarray:
        """Synchronous convenience: ``submit(x).result(timeout)``."""
        return self.submit(x, **submit_kwargs).result(timeout)

    def _dispatch_attempt(
        self,
        inflight: _InFlight,
        *,
        claimed: bool,
        exclude: _Shard | None = None,
        best_effort: bool = False,
        admission_timeout: float | None = None,
        sync: bool = False,
        kind: str = "initial",
    ) -> str:
        """Place one (already claimed) attempt onto a shard.

        Returns ``"sent"`` (attempt is in flight), ``"resolved"`` (the
        in-flight record was settled here — deadline, no-shards, or a
        concurrent attempt won), ``"queue_full"`` (admission timeout
        expired; nothing was settled — the caller decides), or
        ``"closed"``.  ``best_effort`` (hedging) never blocks: if no
        shard has free capacity right now, the attempt is unclaimed and
        dropped.  ``kind`` labels the attempt's ``dispatch`` span in a
        sampled trace (``initial`` | ``retry`` | ``hedge``), which is
        how retries and hedges show up as sibling spans under one trace.
        """
        assert claimed, "attempts must be claimed before dispatch"
        req_id = next(self._req_ids)
        dispatch_start = time.monotonic()
        wait_deadline = (
            None if admission_timeout is None else time.monotonic() + admission_timeout
        )
        while True:
            if inflight.done:
                return "resolved"
            if self._closed:
                inflight.resolve_exception(RuntimeError("ShardedServer is closed"))
                return "closed"
            if inflight.expired():
                if inflight.resolve_exception(
                    DeadlineExceededError("deadline expired while waiting for capacity")
                ):
                    self._count("timed_out")
                return "resolved"
            try:
                shard = self._pick_shard(exclude)
            except RuntimeError as exc:  # permanent: no live shards coming back
                if sync:
                    raise  # surface straight out of submit()
                inflight.resolve_exception(exc)
                return "resolved"
            if shard is None:  # everything down/open/excluded: wait it out
                if best_effort:
                    inflight.unclaim_attempt()
                    inflight.hedged = False  # allow a later hedge try
                    return "resolved"
                if wait_deadline is not None and time.monotonic() >= wait_deadline:
                    return "queue_full"
                time.sleep(0.05)
                continue
            if self._injector is not None and self._injector.exhaust_slot(req_id):
                token = None  # injected slot exhaustion: transport "full" once
                self._telemetry.events.emit(
                    "fault_injected", fault="slot_exhaust", req_id=req_id,
                    shard=shard.index,
                )
            else:
                try:
                    token = shard.endpoint.acquire(timeout=0.0 if best_effort else 0.05)
                except TransportClosedError:  # shard died while we waited
                    continue
            if token is None:  # shard full — re-pick (load may have shifted)
                if best_effort:
                    inflight.unclaim_attempt()
                    inflight.hedged = False
                    return "resolved"
                if wait_deadline is not None and time.monotonic() >= wait_deadline:
                    return "queue_full"
                continue
            x = inflight.x
            if x is None:  # resolved while we acquired: give the capacity back
                shard.endpoint.release(token)
                return "resolved"
            with shard.lock:
                if shard.down or shard.draining:
                    shard.endpoint.release(token)
                    continue
                shard.pending[req_id] = inflight
            trace = inflight.trace
            # read (and register the sampled attempt) before the send: a
            # worker that dies on receipt lets the crash handler mark this
            # attempt crashed, and the retry path claim the next attempt,
            # before this thread resumes
            attempt_no = inflight.attempts
            if trace is not None:
                self._trace_register(req_id, trace, time.monotonic(), shard.index, attempt_no)
            try:
                shard.endpoint.send_request(
                    token, req_id, x, inflight.deadline_at,
                    trace_id=0 if trace is None else trace.trace_id,
                    model=inflight.model,
                )
                inflight.last_sent_at = time.monotonic()
                inflight.stalled = False
                shard.last_routed_at = inflight.last_sent_at
                with shard.lock:
                    shard.requests += 1
                if trace is not None:
                    trace.add_span(
                        "dispatch", dispatch_start, inflight.last_sent_at,
                        shard=shard.index, attempt=attempt_no, kind=kind,
                        model=inflight.model,
                    )
                    self._trace_restamp(req_id, inflight.last_sent_at)
                return "sent"
            except Exception:
                with shard.lock:
                    owned = shard.pending.pop(req_id, None)
                self._handle_shard_down(shard, "request transport failed")
                if owned is None:
                    # the crash handler beat us to it: the request is now
                    # its responsibility (rehomed or failed)
                    return "resolved"
                if trace is not None:  # this attempt never left the router
                    with self._trace_lock:
                        self._trace_sent.pop(req_id, None)
                # we still own this attempt — try another shard

    def _pick_shard(self, exclude: _Shard | None = None) -> _Shard | None:
        """Breaker-gated, latency-aware routing over live shards.

        Candidates are live shards whose breaker admits traffic; they
        compete on :func:`route_score` (expected completion time from
        outstanding count + the worker's own p50/p95), except that a
        half-open breaker's probe takes priority — one request risked
        now is the fastest road back to full capacity.  A draining
        shard (being removed) takes no new work but still counts its
        in-flight requests down.  Returns ``None`` during the transient
        window where nothing is routable but recovery is still possible
        (the caller waits); raises only when failure is permanent.
        """
        shards = self._shards  # snapshot: membership can change under us
        live = [s for s in shards if not s.down and not s.draining and s is not exclude]
        if live:
            # latency-aware scores are only comparable when every candidate
            # has reported latencies — a stats-less shard (fresh spawn, no
            # pong yet) would otherwise look optimistically fast and starve
            # the measured ones, so mixed visibility degrades to plain
            # least-outstanding until the pongs catch up
            measured = all(
                s.worker_stats and s.worker_stats.get("p50_ms", 0.0) > 0.0 for s in live
            )
            rank = (lambda s: s.score()) if measured else (lambda s: s.outstanding)
            # exploration guarantee: a shard's p50/p95 only refresh while it
            # serves traffic, so a shard whose last incident left pathological
            # latencies behind (e.g. a batch that spanned a stall) could lose
            # every score comparison forever.  An idle shard that hasn't been
            # routed to recently outranks score-ranked peers — one request per
            # staleness window bounds the starvation and re-measures it.
            now = time.monotonic()
            stale_after = max(4.0 * self.health_interval_s, 1.0)
            fresh = lambda s: s.outstanding > 0 or now - s.last_routed_at <= stale_after
            ranked = sorted(
                live, key=lambda s: (s.breaker.state != "half_open", fresh(s), rank(s))
            )
            for shard in ranked:
                if shard.breaker.try_acquire():
                    return shard
            return None  # every breaker open (or probes outstanding): wait
        if any(not s.permanent and not s.removing for s in shards):
            return None
        reasons = sorted({s.fail_reason for s in shards if s.fail_reason})
        raise RuntimeError(
            "no live shards to route to" + (f" ({'; '.join(reasons)})" if reasons else "")
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def worker_pids(self) -> list[int | None]:
        """Current worker PID per shard index (None for remote shards)."""
        return [s.endpoint.pid for s in self._shards]

    @property
    def cluster_stats(self) -> dict:
        """Aggregated router + worker counters (read any time).

        Per-shard: router-side ``requests``/``errors``/``outstanding``/
        ``respawns``, the breaker snapshot, the shard's transport
        address (``None`` for local shm workers), plus the worker's own
        serving-stats snapshot (``None`` until its first health pong).
        Global: sums, worker-side batch counters, the cluster-wide mean
        batch, the transport kind, the router's own end-to-end
        ``router_p50_ms``/``router_p95_ms``/``router_p99_ms`` (bucket
        estimates over the ``cluster_request_latency_ms`` histograms of
        every model), and the resilience counters (``retries``,
        ``hedges``, ``shed``, ``timed_out``, ``corrupt``) — the same
        registry cells ``/metrics`` exports, so the two views can never
        disagree.  ``generation``
        counts membership changes (add/remove/respawn): a consumer that
        cached shard identities refreshes when it moves.  ``models``
        breaks requests, router latency percentiles, and worker batch
        counters down per registered model.
        """
        with self._lock:
            snapshot = [self._shard_map[i] for i in sorted(self._shard_map)]
            generation = self._generation
        shards = []
        totals = {"requests": 0, "errors": 0, "outstanding": 0, "respawns": 0}
        batches = samples = 0
        for s in snapshot:
            serving = s.worker_stats
            alive = not s.down and s.endpoint.alive()
            entry = {
                "shard": s.index,
                "pid": s.endpoint.pid,
                "address": getattr(s.endpoint, "address", None),
                "alive": alive,
                "draining": s.draining,
                "requests": s.requests,
                "errors": s.errors,
                "outstanding": s.outstanding,
                "respawns": s.respawns,
                "breaker": s.breaker.snapshot(),
                "serving": serving,
            }
            shards.append(entry)
            totals["requests"] += s.requests
            totals["errors"] += s.errors
            totals["outstanding"] += s.outstanding
            totals["respawns"] += s.respawns
            if serving:
                batches += serving.get("batches", 0)
                samples += serving.get("samples", 0)
        resilience_counters = {
            key: int(counter.value) for key, counter in self._counters.items()
        }
        injected = dict(self._injector.injected) if self._injector is not None else None
        with self._lock:
            model_names = sorted(self.specs)
        with self._model_lock:
            latency = Histogram.merged(e["latency"] for e in self._model_stats.values())
        models = {}
        for name in model_names:
            entry = self._model_entry(name)
            hist = entry["latency"]
            worker_batches = worker_samples = 0
            for shard_entry in shards:
                serving = shard_entry["serving"] or {}
                per_model = (serving.get("models") or {}).get(name)
                if per_model:
                    worker_batches += per_model.get("batches", 0)
                    worker_samples += per_model.get("samples", 0)
            models[name] = {
                "requests": int(entry["requests"].value),
                "router_p50_ms": hist.quantile(0.50),
                "router_p95_ms": hist.quantile(0.95),
                "router_p99_ms": hist.quantile(0.99),
                "worker_batches": worker_batches,
                "worker_samples": worker_samples,
            }
        return {
            "shards": shards,
            "models": models,
            **totals,
            **resilience_counters,
            "generation": generation,
            "transport": self._launcher.kind,
            "alive_shards": sum(1 for e in shards if e["alive"]),
            "worker_batches": batches,
            "worker_samples": samples,
            "mean_batch": samples / batches if batches else 0.0,
            "router_p50_ms": latency.quantile(0.50),
            "router_p95_ms": latency.quantile(0.95),
            "router_p99_ms": latency.quantile(0.99),
            "injected_faults": injected,
        }

    # ------------------------------------------------------------------
    # Exposition (AdminServer provider protocol)
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """The whole cluster in Prometheus text format: the router's
        live registry (resilience counters), derived gauges/counters
        computed from one :attr:`cluster_stats` pass (so ``/metrics``
        and ``/stats`` agree by construction), and each worker's own
        registry snapshot labelled ``shard="N"``."""
        stats = self.cluster_stats
        derived = MetricsRegistry()
        derived.counter(
            "cluster_requests_total", help="requests routed (all attempts)"
        ).inc(stats["requests"])
        derived.counter(
            "cluster_errors_total", help="requests resolved with an error"
        ).inc(stats["errors"])
        derived.counter(
            "cluster_respawns_total", help="shard respawns/reconnects"
        ).inc(stats["respawns"])
        derived.gauge("cluster_alive_shards", help="shards currently serving").set(
            stats["alive_shards"]
        )
        derived.gauge(
            "cluster_membership_generation",
            help="membership changes so far (add/remove/respawn)",
        ).set(stats["generation"])
        derived.gauge(
            "cluster_outstanding_requests", help="requests in flight right now"
        ).set(stats["outstanding"])
        derived.gauge(
            "cluster_mean_batch", help="cluster-wide mean micro-batch size"
        ).set(stats["mean_batch"])
        for q in ("p50", "p95", "p99"):
            derived.gauge(
                f"cluster_router_{q}_ms",
                help=f"router-observed end-to-end {q} latency (ms)",
            ).set(stats[f"router_{q}_ms"])
        for name, m in stats["models"].items():
            for q in ("p50", "p95", "p99"):
                derived.gauge(
                    f"cluster_model_router_{q}_ms",
                    help=f"router-observed per-model {q} latency (ms)",
                    model=name,
                ).set(m[f"router_{q}_ms"])
        snapshots = [(self._telemetry.registry.snapshot(), {}), (derived.snapshot(), {})]
        for entry in stats["shards"]:
            serving = entry["serving"]
            if serving and "metrics" in serving:
                snapshots.append((serving["metrics"], {"shard": str(entry["shard"])}))
        return render_prometheus(snapshots)

    def health(self) -> tuple[bool, dict]:
        """Liveness verdict for ``/healthz``: healthy while at least one
        shard serves and the server is open."""
        alive = sum(1 for s in self._shards if not s.down and s.endpoint.alive())
        ok = alive > 0 and not self._closed
        return ok, {"alive_shards": alive, "shards": len(self._shards),
                    "closed": self._closed}

    def get_trace(self, trace_id: int) -> dict | None:
        """JSON-ready span timeline for ``/trace/<id>`` (None: unknown)."""
        trace = self._telemetry.traces.get(trace_id)
        return None if trace is None else trace.to_dict()

    def trace_ids(self) -> list[int]:
        """Retained sampled trace ids, oldest first (``/traces``)."""
        return self._telemetry.traces.ids()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, timeout: float = 30.0) -> None:
        """Graceful drain: stop accepting, let workers finish in-flight
        requests, reap processes / connections, release transport
        resources (idempotent).

        A shard whose peer disconnects mid-drain is handled by the recv
        thread's down-path the moment the EOF arrives — its in-flight
        futures resolve with :class:`ShardCrashedError` immediately, and
        the join below returns as soon as the endpoint is gone, not
        after the full drain timeout.

        Membership is snapshotted *once* under the lock that setting
        ``_closed`` takes: a respawn (or add_shard) racing close either
        installs before the snapshot — and is reaped by it — or sees
        ``_closed`` and reaps its own worker.  Reading ``self._shards``
        three separate times here used to leave exactly that gap, and a
        respawned worker could leak past shutdown.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            shards = [self._shard_map[i] for i in sorted(self._shard_map)]
        admin = getattr(self, "admin", None)
        if admin is not None:
            admin.close()  # stop serving scrapes before state is torn down
        self._stop_monitor.set()
        self._monitor.join(timeout=5.0)
        deadline = time.monotonic() + timeout
        for shard in shards:
            if shard.down:
                continue
            try:
                shard.endpoint.send_stop()
            except (TransportClosedError, BrokenPipeError, OSError):
                pass
        for shard in shards:
            if shard.down:
                continue  # its futures were already resolved by the down-path
            shard.endpoint.join(timeout=max(0.0, deadline - time.monotonic()))
            if shard.endpoint.alive():  # drain overran the deadline
                shard.endpoint.kill()
                shard.endpoint.join(timeout=5.0)
        for shard in shards:
            if shard.recv_thread is not None:
                shard.recv_thread.join(timeout=5.0)
            # workers drained before exiting, so normally nothing is left
            with shard.lock:
                leftovers = dict(shard.pending)
                shard.pending.clear()
            failed = 0
            for inflight in leftovers.values():
                if inflight.resolve_exception(
                    RuntimeError("ShardedServer closed with the request unanswered")
                ):
                    failed += 1
            with shard.lock:
                shard.errors += failed
            if not shard.down:
                self._retire_endpoint(shard.endpoint)
        for endpoint in self._retired_endpoints:
            endpoint.dispose()
        self._retired_endpoints.clear()
        self._launcher.close()
        if self._addressed_launcher is not None:
            self._addressed_launcher.close()
        self._telemetry.close()

    def __enter__(self) -> "ShardedServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Demo spec (CLI / examples / benchmarks)
# ----------------------------------------------------------------------
def projected_smallcnn_spec(
    bundle_path: str,
    *,
    channels: tuple[int, ...] = (8, 16),
    in_size: int = 8,
    num_patterns: int = 8,
    connectivity_rate: float = 2.0,
    seed: int = 7,
    **spec_kwargs,
) -> SessionSpec:
    """Build a pattern-pruned small CNN by direct projection and capture
    it as a :class:`SessionSpec` (bundle written to ``bundle_path``).

    One-shot hard projection instead of ADMM — seconds, not minutes —
    which is exactly what the serving demos and benchmarks need: a model
    whose conv layers genuinely execute through compiled FKW kernels.
    """
    from repro.core.masking import apply_masks, extract_masks
    from repro.core.patterns import PatternSet, enumerate_candidate_patterns
    from repro.core.projections import project_kernel_pattern
    from repro.models import build_small_cnn
    from repro import nn

    model = build_small_cnn(channels=channels, in_size=in_size, seed=seed)
    ps = PatternSet(enumerate_candidate_patterns()[:num_patterns])
    apply_masks(model, extract_masks(model, ps, connectivity_rate=connectivity_rate))
    model.eval()
    assignments = {}
    for name, module in model.named_modules():
        if isinstance(module, nn.Conv2d):
            _, a = project_kernel_pattern(module.weight.data, ps)
            energy = (module.weight.data.reshape(a.shape[0], a.shape[1], -1) ** 2).sum(axis=2)
            assignments[name] = (a * (energy > 0)).astype(np.int32)
    model_kwargs = {"channels": tuple(channels), "in_size": in_size, "seed": seed}
    return SessionSpec.capture(
        "smallcnn",
        model,
        (3, in_size, in_size),
        str(bundle_path),
        pattern_set=ps,
        assignments=assignments,
        model_kwargs=model_kwargs,
        **spec_kwargs,
    )
