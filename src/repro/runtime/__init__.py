"""Functional runtime: execute graph IR and compiled (FKW) models.

``ReferenceExecutor`` interprets graph IR with plain numpy kernels —
the semantic baseline every transformation is verified against.
``CompiledExecutor`` swaps pattern-pruned conv nodes for the compiler's
generated FKW kernels, making "the compiled model computes the same
function" a testable property end to end.

The compiled path is engineered for batch-heavy serving:

* **Batched kernels** — generated closures consume whole ``(N, C, H, W)``
  batches in one call (no per-sample Python loop) with bias + activation
  fused into the closure's epilogue.
* **Kernel cache** — closures are memoised by FKW signature + schedule
  knobs (:class:`repro.compiler.codegen.KernelCache`), so repeated
  identical layers compile once.
* **Buffer arena** — padded-input and output scratch buffers are
  recycled across ``run()`` calls (:class:`repro.runtime.arena.BufferArena`),
  and intermediates are retired the moment liveness says they are dead
  (:func:`repro.graph.passes.memory_plan.compute_liveness`).

``InferenceSession`` wires model export, graph optimization, and the
executor choice into one user-facing entry point, and the stack is
thread-safe end to end: many client threads may share one session, and
:class:`repro.runtime.serving.MicroBatchServer` (or
``InferenceSession.run_async``) coalesces their concurrent single-sample
requests into efficient micro-batches.

Serving is **resilient** end to end (:mod:`repro.runtime.resilience`):
requests carry deadlines through every tier, over-budget or over-capacity
work is shed with typed errors (:class:`DeadlineExceededError`,
:class:`QueueFullError`), shard crashes are retried transparently within
a bounded budget (:class:`ResilienceConfig`), per-shard circuit breakers
route around wedged workers, shared-memory payloads are
checksum-verified (:class:`CorruptedPayloadError`), and a seeded
:class:`FaultPlan` (:mod:`repro.runtime.faults`) makes all of it
reproducibly testable.

And it is **observable** (:mod:`repro.runtime.telemetry`): serving
counters live in a :class:`MetricsRegistry` shared between the
micro-batcher and the cluster router, sampled requests carry a trace id
across the transport so per-request span timelines (admission → queue →
dispatch → transport → worker queue → kernel execution, down to
per-layer timings) can be inspected end to end, lifecycle events land
in a structured :class:`EventLog`, and ``TelemetryConfig(metrics_port=...)``
exposes all of it over HTTP (``/metrics`` Prometheus text, ``/healthz``,
``/stats``, ``/trace/<id>``, ``/events``).

Cluster membership is **elastic** (:mod:`repro.runtime.membership`):
``ShardedServer.add_shard`` / ``remove_shard`` grow and drain-shrink a
live cluster (local spawns or remote ``host:port`` workers), the admin
server accepts ``POST /shards/add`` / ``POST /shards/<id>/remove``, and
:class:`ShardFileWatcher` reconciles membership against a watched
shard-list file.

Serving is **multi-tenant**: a cluster hosts a ``{name: SessionSpec}``
model registry — every shard builds one session per model over a shared
kernel cache and arena, each behind its own micro-batch queue — and
clients pick a model per request (``submit(x, model=...)``; unknown
names raise :class:`UnknownModelError`).  The registry is elastic too:
``load_model`` hot-loads into every live shard, ``unload_model`` drains
and removes (the last model is refused), and the admin server exposes
``GET /models`` / ``POST /models/load`` / ``POST /models/<name>/unload``.
"""

from repro.runtime.ops import eval_node
from repro.runtime.arena import BufferArena
from repro.runtime.executor import ReferenceExecutor, CompiledExecutor
from repro.runtime.resilience import (
    CircuitBreaker,
    CorruptedPayloadError,
    DeadlineExceededError,
    InjectedFaultError,
    QueueFullError,
    RequestTimeoutError,
    ResilienceConfig,
    UnknownModelError,
)
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.serving import MicroBatchServer, ServingConfig, ServingStats
from repro.runtime.session import (
    DEFAULT_MODEL,
    InferenceSession,
    SessionSpec,
    spec_from_json,
    spec_to_json,
)
from repro.runtime.shm_ring import ShmSlotRing
from repro.runtime.telemetry import (
    AdminServer,
    EventLog,
    MetricsRegistry,
    SpanCollector,
    Telemetry,
    TelemetryConfig,
    Trace,
    TraceStore,
    Tracer,
    profile_layers,
    render_prometheus,
)
from repro.runtime.transport import (
    CreditGate,
    ShardEndpoint,
    ShardLauncher,
    TransportClosedError,
    WorkerTransport,
)
from repro.runtime.transport_shm import ShmShardLauncher
from repro.runtime.transport_tcp import TcpShardLauncher, parse_hostport, worker_serve
from repro.runtime.cluster import ShardedServer, ShardCrashedError
from repro.runtime.membership import ShardFileWatcher, parse_shard_file

__all__ = [
    "eval_node",
    "BufferArena",
    "ReferenceExecutor",
    "CompiledExecutor",
    "InferenceSession",
    "SessionSpec",
    "DEFAULT_MODEL",
    "spec_from_json",
    "spec_to_json",
    "MicroBatchServer",
    "ServingConfig",
    "ServingStats",
    "ShmSlotRing",
    "ShardedServer",
    "ShardCrashedError",
    "ShardFileWatcher",
    "parse_shard_file",
    "ResilienceConfig",
    "CircuitBreaker",
    "QueueFullError",
    "DeadlineExceededError",
    "CorruptedPayloadError",
    "RequestTimeoutError",
    "InjectedFaultError",
    "UnknownModelError",
    "FaultPlan",
    "FaultInjector",
    "MetricsRegistry",
    "Telemetry",
    "TelemetryConfig",
    "Tracer",
    "Trace",
    "TraceStore",
    "SpanCollector",
    "EventLog",
    "AdminServer",
    "profile_layers",
    "render_prometheus",
    "TransportClosedError",
    "ShardEndpoint",
    "WorkerTransport",
    "ShardLauncher",
    "CreditGate",
    "ShmShardLauncher",
    "TcpShardLauncher",
    "parse_hostport",
    "worker_serve",
]
