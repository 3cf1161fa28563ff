"""End-to-end telemetry: metrics registry, request tracing, event log,
and an HTTP exposition endpoint.

PatDNN's own tuning loop (§5.5) runs on *measured* per-layer execution
latencies, which is exactly the signal online auto-tuning and
autoscaling need; this module is the serving stack's measurement
substrate, and the one place it measures latency.  Four pieces:

* :class:`MetricsRegistry` — a thread-safe namespace of named
  **counters**, **gauges**, and **histograms** with picklable
  :meth:`~MetricsRegistry.snapshot`\\ s.  Worker-side serving counters
  and the router's resilience counters are registry-backed, so a
  worker's snapshot (shipped in health pongs) and the router's own
  metrics merge under one namespace and render together as Prometheus
  text (:func:`render_prometheus`).  Histograms are the only latency
  store: every p50/p95/p99 the stack reports (worker serving stats,
  routing scores, ``cluster_stats``) is a :meth:`Histogram.quantile`
  bucket estimate over the histogram's lifetime.
* **Request tracing** — :class:`Tracer` mints a trace id at ``submit()``
  (sampled at a configurable rate so the hot path stays cheap); the id
  travels through the framed codec on both the shm and TCP transports,
  workers collect their own spans into a :class:`SpanCollector` (queue
  wait, kernel execution with per-layer timings from
  :func:`profile_layers`, reply), and the router stitches everything
  into one :class:`Trace` timeline — retries and hedges appear as
  sibling ``dispatch``/``transport`` spans under the same trace.
* :class:`EventLog` — a bounded ring (plus optional JSON-lines file
  sink) of structured lifecycle events: shard spawn/crash/respawn,
  breaker transitions, retries, hedges, injected faults.
* :class:`AdminServer` — a background HTTP server exposing
  ``/metrics`` (Prometheus text format), ``/healthz``, ``/stats``
  (JSON), ``/trace/<id>``, and ``/events``; wired up by
  ``ShardedServer`` when :attr:`TelemetryConfig.metrics_port` is set
  (``python -m repro serve --metrics-port``).

Usage::

    from repro.runtime import ShardedServer, TelemetryConfig

    with ShardedServer(spec, num_shards=4,
                       telemetry=TelemetryConfig(trace_sample_rate=1.0,
                                                 metrics_port=9100)) as server:
        fut = server.submit(x)
        fut.result()
        trace = server.get_trace(fut.trace_id)   # full span timeline
        # ...meanwhile: curl http://127.0.0.1:9100/metrics
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_prometheus",
    "SpanCollector",
    "Trace",
    "TraceStore",
    "Tracer",
    "EventLog",
    "AdminServer",
    "TelemetryConfig",
    "Telemetry",
    "profile_layers",
    "active_layer_profile",
    "new_trace_id",
    "DEFAULT_TRACE_SAMPLE_RATE",
]

#: default trace sampling rate: one request in 100 carries a trace —
#: cheap enough for the hot path, frequent enough that a live server
#: always has recent timelines to show
DEFAULT_TRACE_SAMPLE_RATE = 0.01

#: default latency-histogram bucket upper bounds (milliseconds); the
#: sub-0.5 ms buckets resolve an idle dispatcher's tens-of-microseconds
#: queue wait and a sub-millisecond cluster round trip
DEFAULT_BUCKETS_MS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class Counter:
    """Monotonically increasing counter (thread-safe)."""

    __slots__ = ("_value", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self._value = 0
        self._lock = lock

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up; got increment {n}")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time value that may go up or down (thread-safe)."""

    __slots__ = ("_value", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics, thread-safe).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches the
    rest.  :meth:`observe` is O(buckets) with a linear scan — bucket
    lists are short and observation is off the inner kernel loop.
    """

    __slots__ = ("buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(self, lock: threading.Lock, buckets: tuple[float, ...]) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"buckets must be non-empty and ascending, got {buckets}")
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    break
            else:
                self._counts[-1] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs including the +Inf bucket."""
        with self._lock:
            out, running = [], 0
            for bound, n in zip(self.buckets, self._counts):
                running += n
                out.append((bound, running))
            out.append((float("inf"), running + self._counts[-1]))
            return out

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``), with Prometheus
        ``histogram_quantile`` semantics: linear interpolation inside
        the bucket that holds rank ``q * count`` (the first bucket
        starts at 0), the largest finite bound when that rank falls in
        the ``+Inf`` bucket, and 0.0 for an empty histogram."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts, total = list(self._counts), self._count
        if total == 0:
            return 0.0
        rank = q * total
        below = 0  # observations in the buckets before bucket i
        for i, n in enumerate(counts):
            # empty buckets never hold a rank: rank 0 lands in the first
            # occupied bucket, not at the floor of an empty one
            if n and below + n >= rank:
                break
            below += n
        if i == len(self.buckets):
            return self.buckets[-1]
        lower = self.buckets[i - 1] if i else 0.0
        upper = self.buckets[i]
        # min(): rounding must not push an estimate past its bucket, or
        # the next bucket's estimates would break monotonicity in q
        return min(upper, lower + (upper - lower) * ((rank - below) / n))

    @classmethod
    def merged(cls, histograms) -> "Histogram":
        """A new, unregistered histogram holding the summed bucket
        counts, sums and counts of ``histograms`` (which must share
        their buckets; an empty input gives an empty default one)."""
        histograms = list(histograms)
        buckets = histograms[0].buckets if histograms else DEFAULT_BUCKETS_MS
        out = cls(threading.Lock(), buckets)
        for hist in histograms:
            with hist._lock:
                out._counts = [a + b for a, b in zip(out._counts, hist._counts)]
                out._sum += hist._sum
                out._count += hist._count
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Thread-safe namespace of named counters, gauges, and histograms.

    Metrics are get-or-create: asking twice for the same
    ``(name, labels)`` returns the same object, and re-registering a
    name under a different kind raises.  Labels are plain keyword
    strings (``registry.counter("requests_total", shard="0")``).

    :meth:`snapshot` returns a picklable plain-dict view — workers ship
    their registry snapshots through health pongs so the router can
    merge worker and router metrics under one namespace (and
    :func:`render_prometheus` can expose both with a ``shard`` label).
    """

    def __init__(self) -> None:
        # reentrant: holders (ServingStats) take it around multi-metric
        # updates/reads for whole-snapshot consistency while the individual
        # metric ops re-acquire it internally
        self._lock = threading.RLock()
        # name -> (kind, help); name -> {sorted-label-items -> metric}
        self._meta: dict[str, tuple[str, str]] = {}
        self._series: dict[str, dict[tuple, object]] = {}

    def _get(self, kind: str, name: str, help: str, labels: dict, **kwargs):
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        with self._lock:
            meta = self._meta.get(name)
            if meta is not None and meta[0] != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a {meta[0]}, not a {kind}"
                )
            if meta is None or (not meta[1] and help):
                self._meta[name] = (kind, help)
            series = self._series.setdefault(name, {})
            metric = series.get(key)
            if metric is None:
                metric = _KINDS[kind](self._lock, **kwargs) if kind == "histogram" \
                    else _KINDS[kind](self._lock)
                series[key] = metric
            return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get("gauge", name, help, labels)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS_MS,
        **labels,
    ) -> Histogram:
        return self._get("histogram", name, help, labels, buckets=buckets)

    def snapshot(self) -> dict:
        """Picklable point-in-time copy of every registered series."""
        with self._lock:
            out: dict = {}
            for name, series in self._series.items():
                kind, help = self._meta[name]
                rows = []
                for key, metric in series.items():
                    row: dict = {"labels": dict(key)}
                    if kind == "histogram":
                        # inline (no metric.cumulative(): we already hold the lock)
                        running, cum = 0, []
                        for bound, n in zip(metric.buckets, metric._counts):
                            running += n
                            cum.append([bound, running])
                        cum.append([float("inf"), running + metric._counts[-1]])
                        row.update(buckets=cum, sum=metric._sum, count=metric._count)
                    else:
                        row["value"] = metric._value
                    rows.append(row)
                out[name] = {"kind": kind, "help": help, "series": rows}
            return out


def _format_value(v) -> str:
    if isinstance(v, float):
        if v != v:  # NaN
            return "NaN"
        if v in (float("inf"), float("-inf")):
            return "+Inf" if v > 0 else "-Inf"
        return repr(v)
    return str(v)


def _escape_label_value(v) -> str:
    """Prometheus text-format label-value escaping (backslash first, or
    the escapes themselves get re-escaped): ``\\``, ``"`` and newline
    are the three characters the spec requires escaped — a crash
    ``fail_reason`` or an ``address`` containing any of them would
    otherwise render /metrics unparsable."""
    return str(v).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text) -> str:
    """HELP-line escaping per the text-format spec: ``\\`` and newline
    (quotes are legal there)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def render_prometheus(snapshots: list[tuple[dict, dict]]) -> str:
    """Render registry snapshots as Prometheus text exposition format.

    ``snapshots`` is ``[(registry_snapshot, extra_labels), ...]`` —
    extra labels (e.g. ``{"shard": "0"}``) are stamped onto every series
    of that snapshot, which is how per-worker registries merge into the
    router's ``/metrics`` page under one namespace.  Series from
    different snapshots sharing a metric name are emitted under one
    ``# HELP``/``# TYPE`` header, as the format requires.
    """
    merged: dict[str, dict] = OrderedDict()
    for snap, extra in snapshots:
        for name, metric in snap.items():
            slot = merged.setdefault(name, {"kind": metric["kind"],
                                            "help": metric["help"], "series": []})
            if not slot["help"] and metric["help"]:
                slot["help"] = metric["help"]
            for row in metric["series"]:
                labels = {**row["labels"], **extra}
                slot["series"].append({**row, "labels": labels})
    lines: list[str] = []
    for name, metric in merged.items():
        if metric["help"]:
            lines.append(f"# HELP {name} {_escape_help(metric['help'])}")
        lines.append(f"# TYPE {name} {metric['kind']}")
        for row in metric["series"]:
            labels = row["labels"]
            if metric["kind"] == "histogram":
                for bound, cum in row["buckets"]:
                    le = {**labels, "le": _format_value(float(bound))}
                    lines.append(f"{name}_bucket{_format_labels(le)} {cum}")
                lines.append(f"{name}_sum{_format_labels(labels)} {_format_value(row['sum'])}")
                lines.append(f"{name}_count{_format_labels(labels)} {row['count']}")
            else:
                lines.append(f"{name}{_format_labels(labels)} {_format_value(row['value'])}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Per-layer profiling hook (consumed by runtime.executor)
# ----------------------------------------------------------------------
_LAYER_PROFILE = threading.local()


def active_layer_profile() -> list | None:
    """The current thread's layer-timing sink, or ``None`` (the common,
    zero-cost case).  Executors check this once per ``run()``."""
    return getattr(_LAYER_PROFILE, "sink", None)


@contextmanager
def profile_layers(sink: list):
    """Collect per-layer execution timings from any executor run on this
    thread: each graph node append ``(node_name, op_name, t_start,
    t_end)`` (``time.monotonic`` seconds) to ``sink``."""
    prev = getattr(_LAYER_PROFILE, "sink", None)
    _LAYER_PROFILE.sink = sink
    try:
        yield sink
    finally:
        _LAYER_PROFILE.sink = prev


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def new_trace_id() -> int:
    """Random nonzero 64-bit trace id (0 means "not sampled" on the wire)."""
    tid = int.from_bytes(os.urandom(8), "big")
    return tid or 1


class SpanCollector:
    """Worker-side span sink for one traced request.

    Spans are stored relative to the collector's ``t0`` (the moment the
    worker received the request), so the exported list is meaningful on
    another host with a different monotonic clock: the router rebases
    the whole batch at the attempt's send timestamp.
    """

    __slots__ = ("trace_id", "t0", "_spans", "_lock")

    def __init__(self, trace_id: int, t0: float | None = None) -> None:
        self.trace_id = trace_id
        self.t0 = time.monotonic() if t0 is None else t0
        self._spans: list[dict] = []
        self._lock = threading.Lock()

    def add(self, name: str, start_s: float, end_s: float, **attrs) -> None:
        """Record one span from absolute local-monotonic timestamps."""
        span = {
            "name": name,
            "t0_ms": (start_s - self.t0) * 1e3,
            "dur_ms": max(0.0, (end_s - start_s) * 1e3),
        }
        if attrs:
            span.update(attrs)
        with self._lock:
            self._spans.append(span)

    def export(self) -> list[dict]:
        """Picklable copy of the collected spans (relative-ms offsets)."""
        with self._lock:
            return [dict(s) for s in self._spans]


class Trace:
    """Router-side record of one sampled request: a flat span timeline.

    Every span carries ``t0_ms``/``dur_ms`` relative to the trace start
    plus free-form attributes (``shard``, ``attempt``, ``kind``...).
    Retries and hedges are *sibling* spans — same trace, distinct
    ``attempt`` numbers.
    """

    __slots__ = ("trace_id", "t0", "created_at", "spans", "status", "_lock")

    def __init__(self, trace_id: int) -> None:
        self.trace_id = trace_id
        self.t0 = time.monotonic()
        self.created_at = time.time()
        self.spans: list[dict] = []
        self.status: str | None = None  # None = still in flight
        self._lock = threading.Lock()

    def add_span(self, name: str, start_s: float, end_s: float, **attrs) -> None:
        """Record a router-side span from absolute monotonic timestamps."""
        span = {
            "name": name,
            "t0_ms": (start_s - self.t0) * 1e3,
            "dur_ms": max(0.0, (end_s - start_s) * 1e3),
        }
        if attrs:
            span.update(attrs)
        with self._lock:
            self.spans.append(span)

    def add_remote_spans(self, spans: list[dict], base_s: float, **attrs) -> None:
        """Splice in worker-exported spans (relative ms), rebased so the
        worker's ``t0`` lands at ``base_s`` on the router's clock — the
        attempt's send timestamp, the closest router-side anchor for the
        worker's receipt."""
        base_ms = (base_s - self.t0) * 1e3
        rebased = []
        for span in spans:
            row = dict(span)
            row["t0_ms"] = base_ms + row.get("t0_ms", 0.0)
            row.update(attrs)
            rebased.append(row)
        with self._lock:
            self.spans.extend(rebased)

    def finish(self, status: str = "ok") -> None:
        with self._lock:
            if self.status is None:
                self.status = status

    def span_names(self) -> list[str]:
        with self._lock:
            return [s["name"] for s in self.spans]

    def to_dict(self) -> dict:
        """JSON-ready view, spans sorted by timeline offset."""
        with self._lock:
            spans = sorted((dict(s) for s in self.spans), key=lambda s: s["t0_ms"])
            return {
                "trace_id": self.trace_id,
                "created_at": self.created_at,
                "status": self.status,
                "duration_ms": max((s["t0_ms"] + s["dur_ms"] for s in spans), default=0.0),
                "spans": spans,
            }


class TraceStore:
    """Bounded LRU store of recent traces (oldest evicted)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._traces: OrderedDict[int, Trace] = OrderedDict()
        self._lock = threading.Lock()

    def start(self, trace_id: int) -> Trace:
        trace = Trace(trace_id)
        with self._lock:
            self._traces[trace_id] = trace
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)
        return trace

    def get(self, trace_id: int) -> Trace | None:
        with self._lock:
            return self._traces.get(trace_id)

    def ids(self) -> list[int]:
        """Stored trace ids, oldest first."""
        with self._lock:
            return list(self._traces)


class Tracer:
    """Deterministic request sampler: every ``round(1/rate)``-th call to
    :meth:`maybe_start` mints a trace.  Counter-based (not random) so
    tests and benchmarks see an exact sampling cadence, and the
    unsampled path costs one counter increment."""

    def __init__(self, sample_rate: float = DEFAULT_TRACE_SAMPLE_RATE,
                 store: TraceStore | None = None) -> None:
        if sample_rate < 0 or sample_rate > 1:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.sample_rate = sample_rate
        self.store = store if store is not None else TraceStore()
        self._period = 0 if sample_rate <= 0 else max(1, round(1.0 / sample_rate))
        self._seq = itertools.count()

    def maybe_start(self) -> Trace | None:
        """A new :class:`Trace` for a sampled request, else ``None``."""
        if self._period == 0:
            return None
        if next(self._seq) % self._period:
            return None
        return self.store.start(new_trace_id())


# ----------------------------------------------------------------------
# Structured event log
# ----------------------------------------------------------------------
class EventLog:
    """Bounded ring of structured lifecycle events, with an optional
    JSON-lines file sink.

    Each event is ``{"ts": unix_seconds, "kind": ..., **fields}``.  The
    ring keeps the last ``capacity`` events for ``/events`` and tests;
    the sink (when given) appends every event durably.  Thread-safe;
    emitting never raises (a failed sink write disables the sink rather
    than taking the serving path down with it).
    """

    def __init__(self, capacity: int = 1024, sink_path: str | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._sink = None
        self.sink_path = sink_path
        if sink_path is not None:
            self._sink = open(sink_path, "a", encoding="utf-8")

    def emit(self, kind: str, **fields) -> dict:
        event = {"ts": time.time(), "kind": kind, **fields}
        with self._lock:
            self._ring.append(event)
            if self._sink is not None:
                try:
                    self._sink.write(json.dumps(event, default=str) + "\n")
                    self._sink.flush()
                except OSError:
                    self._sink = None  # sink is gone; keep serving
        return event

    def tail(self, n: int | None = None) -> list[dict]:
        """The most recent ``n`` events (all retained when ``None``)."""
        with self._lock:
            events = list(self._ring)
        return events if n is None else events[-n:]

    def kinds(self) -> list[str]:
        return [e["kind"] for e in self.tail()]

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                try:
                    self._sink.close()
                except OSError:
                    pass
                self._sink = None


# ----------------------------------------------------------------------
# HTTP exposition
# ----------------------------------------------------------------------
class AdminServer:
    """Background HTTP server exposing a provider's telemetry.

    The provider (``ShardedServer``) supplies ``metrics_text()``,
    ``cluster_stats``, ``health()``, ``get_trace(id)``, and an event
    log; the handler maps them to::

        GET /metrics      Prometheus text format
        GET /healthz      200 {"status": "ok"} / 503 when nothing serves
        GET /stats        cluster_stats as JSON
        GET /trace/<id>   one trace's span timeline as JSON (404: unknown)
        GET /traces       recent trace ids
        GET /events       the event ring as JSON

    When the provider supports elastic membership (``add_shard`` /
    ``remove_shard``), two mutating routes join/drain shards at runtime::

        POST /shards/add           body {"address": "host:port"}? ->
                                   {"shard": <new index>} (no address:
                                   spawn a local worker)
        POST /shards/<id>/remove   body {"drain": bool?, "timeout": s?} ->
                                   the removal outcome dict (404 unknown
                                   shard; 409 refused, e.g. last shard)

    When the provider serves a model registry (``models`` /
    ``load_model`` / ``unload_model``), three more routes manage it::

        GET  /models                  {"models": [names...]}
        POST /models/load             body {"name": ..., "spec": {...}}
                                      (spec as accepted by
                                      :func:`~repro.runtime.session.spec_from_json`)
        POST /models/<name>/unload    body {"drain": bool?, "timeout": s?}
                                      (404 unknown model; 409 refused —
                                      the last model never unloads)

    Binds ``host:port`` (``port=0`` picks an ephemeral port, reported
    via :attr:`port`) and serves from a daemon thread until
    :meth:`close`.
    """

    def __init__(self, provider, host: str = "127.0.0.1", port: int = 0) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        admin = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # keep serving stdout clean
                pass

            def _reply(self, status: int, content_type: str, body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _json(self, status: int, payload) -> None:
                body = json.dumps(payload, default=str).encode()
                self._reply(status, "application/json", body)

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                try:
                    self._route()
                except BrokenPipeError:  # client went away mid-reply
                    pass
                except Exception as exc:  # never kill the admin thread
                    try:
                        self._json(500, {"error": f"{type(exc).__name__}: {exc}"})
                    except OSError:
                        pass

            def do_POST(self) -> None:  # noqa: N802 - http.server API
                try:
                    self._route_post()
                except BrokenPipeError:  # client went away mid-reply
                    pass
                except Exception as exc:  # never kill the admin thread
                    try:
                        self._json(500, {"error": f"{type(exc).__name__}: {exc}"})
                    except OSError:
                        pass

            def _read_json(self) -> dict | None:
                """Optional JSON-object request body ({} when absent);
                None means the 400 was already sent."""
                length = int(self.headers.get("Content-Length") or 0)
                raw = self.rfile.read(length) if length > 0 else b""
                if not raw:
                    return {}
                try:
                    body = json.loads(raw)
                except ValueError:
                    self._json(400, {"error": "request body must be JSON"})
                    return None
                if not isinstance(body, dict):
                    self._json(400, {"error": "request body must be a JSON object"})
                    return None
                return body

            def _route_post(self) -> None:
                path = self.path.split("?", 1)[0].rstrip("/") or "/"
                provider = admin.provider
                body = self._read_json()
                if body is None:
                    return
                parts = path.strip("/").split("/")
                try:
                    if path == "/shards/add":
                        index = provider.add_shard(body.get("address"))
                        self._json(200, {"shard": index,
                                         "address": body.get("address")})
                    elif (len(parts) == 3 and parts[0] == "shards"
                          and parts[2] == "remove" and parts[1].isdigit()):
                        self._json(200, provider.remove_shard(
                            int(parts[1]),
                            drain=bool(body.get("drain", True)),
                            timeout=float(body.get("timeout", 30.0)),
                        ))
                    elif path == "/models/load":
                        from repro.runtime.session import spec_from_json

                        if "name" not in body or "spec" not in body:
                            self._json(400, {"error":
                                             'body must carry "name" and "spec"'})
                            return
                        self._json(200, provider.load_model(
                            body["name"], spec_from_json(body["spec"]),
                            timeout=float(body.get("timeout", 30.0)),
                        ))
                    elif (len(parts) == 3 and parts[0] == "models"
                          and parts[2] == "unload"):
                        self._json(200, provider.unload_model(
                            parts[1],
                            drain=bool(body.get("drain", True)),
                            timeout=float(body.get("timeout", 30.0)),
                        ))
                    else:
                        self._json(404, {"error": f"unknown path {path!r}",
                                         "routes": ["POST /shards/add",
                                                    "POST /shards/<id>/remove",
                                                    "POST /models/load",
                                                    "POST /models/<name>/unload"]})
                except KeyError as exc:  # unknown shard index
                    self._json(404, {"error": str(exc).strip("'\"")})
                except (TypeError, ValueError) as exc:  # bad arguments / refused
                    self._json(409, {"error": str(exc)})
                except RuntimeError as exc:  # e.g. server closed
                    self._json(409, {"error": str(exc)})

            def _route(self) -> None:
                path = self.path.split("?", 1)[0].rstrip("/") or "/"
                provider = admin.provider
                if path == "/metrics":
                    self._reply(200, "text/plain; version=0.0.4; charset=utf-8",
                                provider.metrics_text().encode())
                elif path == "/healthz":
                    ok, detail = provider.health()
                    self._json(200 if ok else 503,
                               {"status": "ok" if ok else "unavailable", **detail})
                elif path == "/stats":
                    self._json(200, provider.cluster_stats)
                elif path == "/traces":
                    self._json(200, {"trace_ids": provider.trace_ids()})
                elif path.startswith("/trace/"):
                    raw = path[len("/trace/"):]
                    try:
                        tid = int(raw)
                    except ValueError:
                        self._json(400, {"error": f"trace id must be an integer, got {raw!r}"})
                        return
                    trace = provider.get_trace(tid)
                    if trace is None:
                        self._json(404, {"error": f"no trace {tid} (sampled traces only)"})
                    else:
                        self._json(200, trace)
                elif path == "/models":
                    self._json(200, {"models": provider.models()})
                elif path == "/events":
                    self._json(200, {"events": provider.events.tail()})
                else:
                    self._json(404, {"error": f"unknown path {path!r}",
                                     "routes": ["/metrics", "/healthz", "/stats",
                                                "/traces", "/trace/<id>", "/events",
                                                "/models"]})

        self.provider = provider
        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics-http", daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# Configuration + hub
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs for the serving stack's telemetry.

    Attributes:
        trace_sample_rate: fraction of requests that carry a trace
            (deterministic 1-in-``round(1/rate)`` cadence; 0 disables
            tracing entirely, 1.0 traces everything — tests).
        trace_capacity: recent traces retained for ``/trace/<id>``.
        event_capacity: lifecycle events retained in the ring.
        event_log_path: optional JSON-lines file every event is also
            appended to (durable log; the ring is the query surface).
        metrics_port: when set, an :class:`AdminServer` is started on
            ``metrics_host:metrics_port`` (0 = ephemeral port, exposed
            as ``server.metrics_port``); ``None`` (default) serves no
            HTTP.
        metrics_host: bind address for the admin server.
    """

    trace_sample_rate: float = DEFAULT_TRACE_SAMPLE_RATE
    trace_capacity: int = 256
    event_capacity: int = 1024
    event_log_path: str | None = None
    metrics_port: int | None = None
    metrics_host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        if not 0 <= self.trace_sample_rate <= 1:
            raise ValueError(
                f"trace_sample_rate must be in [0, 1], got {self.trace_sample_rate}"
            )
        if self.trace_capacity < 1 or self.event_capacity < 1:
            raise ValueError("trace_capacity and event_capacity must be >= 1")


class Telemetry:
    """One server's telemetry hub: registry + tracer + trace store +
    event log, built from a :class:`TelemetryConfig`."""

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.registry = MetricsRegistry()
        self.traces = TraceStore(self.config.trace_capacity)
        self.tracer = Tracer(self.config.trace_sample_rate, self.traces)
        self.events = EventLog(self.config.event_capacity, self.config.event_log_path)

    def close(self) -> None:
        self.events.close()
