"""End-to-end telemetry: metrics registry, request tracing, event log,
HTTP exposition.

The load-bearing claims under test:

* the :class:`MetricsRegistry` is a correct, thread-safe namespace whose
  snapshots render to valid Prometheus text, including merged
  multi-registry views with extra labels (how worker snapshots get their
  ``shard="N"`` label);
* a sampled request produces the **complete span timeline** — admission
  → dispatch → transport → worker queue → micro-batch queue wait →
  kernel execution (down to per-layer spans) → reply — identically over
  the shm and TCP transports, because the trace id rides inside the
  tensor frame either way;
* a retried request shows its attempts as **sibling spans under one
  trace** (``dispatch``/``attempt_crashed`` per attempt), so a crash +
  rescue is readable from the timeline alone;
* ``/metrics`` and ``cluster_stats`` agree — they are built from the
  same registry cells and one stats pass, and the HTTP test asserts the
  parity numerically;
* lifecycle events (spawn, crash, respawn, retries) land in the bounded
  event log.

Process-spawning tests reuse the cluster-test conventions: a
module-scoped spec, small short-lived servers, and the ``transport``
fixture for shm/tcp parity.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.cluster import ShardedServer, projected_smallcnn_spec
from repro.runtime.faults import FaultPlan
from repro.runtime.resilience import ResilienceConfig
from repro.runtime.serving import MicroBatchServer, ServingStats
from repro.runtime.telemetry import (
    DEFAULT_BUCKETS_MS,
    EventLog,
    Histogram,
    MetricsRegistry,
    SpanCollector,
    Telemetry,
    TelemetryConfig,
    Trace,
    Tracer,
    TraceStore,
    new_trace_id,
    profile_layers,
    render_prometheus,
)

IN_SIZE = 8


@pytest.fixture(scope="module")
def spec(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("telemetry") / "bundle.npz"
    return projected_smallcnn_spec(str(bundle), in_size=IN_SIZE)


@pytest.fixture(params=["shm", "tcp"])
def transport(request):
    """Traces must look identical over shared memory and TCP — the
    trace id rides inside the tensor frame on both."""
    return request.param


def _rand(n=1, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 3, IN_SIZE, IN_SIZE)).astype(np.float32)


def _wait_until(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _span_names(server, trace_id):
    trace = server.get_trace(trace_id)
    return [s["name"] for s in trace["spans"]] if trace else []


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_get_or_create_and_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", help="served requests")
        c.inc()
        reg.counter("requests_total").inc(4)  # same cell
        assert c.value == 5

    def test_counters_only_go_up(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="only go up"):
            reg.counter("c_total").inc(-1)

    def test_gauge_set_and_inc(self):
        reg = MetricsRegistry()
        g = reg.gauge("queue_depth")
        g.set(7)
        g.inc(-3)
        assert g.value == 4

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_ms", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4 and h.sum == pytest.approx(555.5)
        # cumulative counts per (le) bucket, +Inf implicit last
        assert [n for _, n in h.cumulative()] == [1, 2, 3, 4]

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError, match="registered as"):
            reg.gauge("x_total")

    def test_labels_make_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", code="200").inc(3)
        reg.counter("hits_total", code="500").inc(1)
        snap = reg.snapshot()
        by_label = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in snap["hits_total"]["series"]
        }
        assert by_label == {(("code", "200"),): 3, (("code", "500"),): 1}

    def test_snapshot_is_picklable_plain_data(self):
        import pickle

        reg = MetricsRegistry()
        reg.counter("a_total").inc()
        reg.gauge("b").set(2.5)
        reg.histogram("c_ms", buckets=(1.0,)).observe(0.5)
        snap = pickle.loads(pickle.dumps(reg.snapshot()))
        assert snap["a_total"]["kind"] == "counter"
        assert snap["c_ms"]["series"][0]["count"] == 1

    def test_concurrent_increments_all_counted(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total")
        h = reg.histogram("n_ms")

        def hammer():
            for i in range(500):
                c.inc()
                h.observe(float(i))

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 4000
        assert h.count == 4000 and h.cumulative()[-1][1] == 4000


def _bucket_bounds(value, buckets):
    """``(lower, upper)`` of the bucket ``Histogram.observe`` files
    ``value`` under (``upper`` is inf for the +Inf bucket)."""
    for i, bound in enumerate(buckets):
        if value <= bound:
            return (buckets[i - 1] if i else 0.0), bound
    return buckets[-1], float("inf")


class TestHistogramQuantile:
    """``Histogram.quantile`` is the stack's only percentile: Prometheus
    ``histogram_quantile`` semantics over the bucket counts."""

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(
            st.one_of(st.floats(0.0, 2000.0), st.sampled_from(DEFAULT_BUCKETS_MS)),
            min_size=1, max_size=200,
        ),
        qs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    def test_estimate_is_monotone_and_in_the_exact_bucket(self, samples, qs):
        hist = MetricsRegistry().histogram("lat_ms")
        for v in samples:
            hist.observe(v)
        qs = sorted(qs)
        estimates = [hist.quantile(q) for q in qs]
        assert estimates == sorted(estimates)  # monotone in q
        for q, est in zip(qs, estimates):
            # the exact sample at rank q * count: np.percentile(samples,
            # 100 * q) with the inverted-CDF method (the rank rule the
            # histogram uses), given q itself so no rescaling rounds it
            exact = np.quantile(samples, q, method="inverted_cdf")
            lower, upper = _bucket_bounds(exact, hist.buckets)
            if upper == float("inf"):
                assert est == hist.buckets[-1]  # largest finite bound
            else:
                assert lower <= est <= upper

    def test_empty_histogram_reports_zero(self):
        hist = MetricsRegistry().histogram("lat_ms")
        assert [hist.quantile(q) for q in (0.0, 0.5, 0.99, 1.0)] == [0.0] * 4

    def test_interpolates_inside_the_bucket(self):
        hist = MetricsRegistry().histogram("lat_ms", buckets=(1.0, 2.0))
        for v in (1.5, 1.5, 1.5, 1.5):
            hist.observe(v)
        assert hist.quantile(0.5) == pytest.approx(1.5)  # halfway through (1, 2]
        assert hist.quantile(1.0) == pytest.approx(2.0)
        hist.observe(5.0)
        assert hist.quantile(1.0) == 2.0  # +Inf rank: largest finite bound

    @pytest.mark.parametrize("q", [-0.1, 1.5])
    def test_quantile_out_of_range_rejected(self, q):
        with pytest.raises(ValueError, match="quantile"):
            MetricsRegistry().histogram("lat_ms").quantile(q)

    def test_merged_sums_buckets(self):
        reg = MetricsRegistry()
        a, b = reg.histogram("lat_ms", m="a"), reg.histogram("lat_ms", m="b")
        for v in (0.2, 3.0):
            a.observe(v)
        b.observe(700.0)
        merged = Histogram.merged([a, b])
        assert merged.count == 3 and merged.sum == pytest.approx(703.2)
        assert merged.cumulative() == [
            (bound, sum(v <= bound for v in (0.2, 3.0, 700.0)))
            for bound in merged.buckets
        ] + [(float("inf"), 3)]
        assert Histogram.merged([]).quantile(0.5) == 0.0


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("req_total", help="requests").inc(3)
        reg.gauge("depth").set(1.5)
        text = render_prometheus([(reg.snapshot(), {})])
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert "req_total 3" in text
        assert "# TYPE depth gauge" in text
        assert "depth 1.5" in text

    def test_histogram_exposition_format(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_ms", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        text = render_prometheus([(reg.snapshot(), {})])
        assert 'lat_ms_bucket{le="1.0"} 1' in text
        assert 'lat_ms_bucket{le="10.0"} 2' in text
        assert 'lat_ms_bucket{le="+Inf"} 2' in text
        assert "lat_ms_sum 5.5" in text
        assert "lat_ms_count 2" in text

    def test_merged_snapshots_with_extra_labels(self):
        """Worker snapshots merge under one metric name, told apart by
        the shard label the router stamps on."""
        w0, w1 = MetricsRegistry(), MetricsRegistry()
        w0.counter("serving_requests_total").inc(2)
        w1.counter("serving_requests_total").inc(5)
        text = render_prometheus(
            [(w0.snapshot(), {"shard": "0"}), (w1.snapshot(), {"shard": "1"})]
        )
        assert 'serving_requests_total{shard="0"} 2' in text
        assert 'serving_requests_total{shard="1"} 5' in text
        # one TYPE header per metric name, not per snapshot
        assert text.count("# TYPE serving_requests_total counter") == 1

    def test_label_values_are_escaped(self):
        """Label values containing backslash, quote, or newline must be
        escaped per the Prometheus text format, or the whole exposition
        becomes unparseable."""
        reg = MetricsRegistry()
        reg.counter("req_total").inc(1)
        text = render_prometheus(
            [(reg.snapshot(), {"path": 'C:\\tmp\\"x"\nend'})]
        )
        assert 'req_total{path="C:\\\\tmp\\\\\\"x\\"\\nend"} 1' in text
        # exactly one series line — the raw newline must not split it
        series = [
            line for line in text.splitlines()
            if line.startswith("req_total{")
        ]
        assert len(series) == 1

    def test_help_text_is_escaped(self):
        reg = MetricsRegistry()
        reg.counter("odd_total", help="line one\nline two \\ done").inc(1)
        text = render_prometheus([(reg.snapshot(), {})])
        assert "# HELP odd_total line one\\nline two \\\\ done" in text
        assert "\nline two" not in text.replace("\\nline two", "")


# ----------------------------------------------------------------------
# Tracing primitives
# ----------------------------------------------------------------------
class TestTracer:
    def test_rate_one_samples_everything(self):
        tracer = Tracer(1.0, TraceStore())
        assert all(tracer.maybe_start() is not None for _ in range(10))

    def test_rate_zero_samples_nothing(self):
        tracer = Tracer(0.0, TraceStore())
        assert all(tracer.maybe_start() is None for _ in range(10))

    def test_fractional_rate_is_periodic(self):
        tracer = Tracer(0.25, TraceStore())
        sampled = [tracer.maybe_start() is not None for _ in range(8)]
        assert sampled == [True, False, False, False, True, False, False, False]

    def test_trace_ids_are_nonzero(self):
        assert all(new_trace_id() != 0 for _ in range(100))

    def test_store_is_bounded_lru(self):
        store = TraceStore(capacity=3)
        ids = [new_trace_id() for _ in range(5)]
        for tid in ids:
            store.start(tid)
        assert store.ids() == ids[2:]
        assert store.get(ids[0]) is None
        assert store.get(ids[4]) is not None


class TestTraceAssembly:
    def test_collector_spans_are_relative_ms(self):
        c = SpanCollector(7, t0=100.0)
        c.add("execute", 100.010, 100.030, batch=4)
        (span,) = c.export()
        assert span["name"] == "execute"
        assert span["t0_ms"] == pytest.approx(10.0)
        assert span["dur_ms"] == pytest.approx(20.0)
        assert span["batch"] == 4

    def test_remote_spans_rebase_at_send_time(self):
        """Worker clocks never cross the wire: worker spans are relative
        to the worker's receipt, rebased at the router-side send
        timestamp — so the timeline is coherent even cross-host."""
        trace = Trace(1)
        send_at = trace.t0 + 0.050  # router sent the attempt at +50 ms
        trace.add_remote_spans(
            [{"name": "execute", "t0_ms": 10.0, "dur_ms": 5.0}],
            send_at,
            shard=2,
        )
        d = trace.to_dict()
        (span,) = d["spans"]
        assert span["t0_ms"] == pytest.approx(60.0)
        assert span["shard"] == 2

    def test_finish_first_status_wins(self):
        trace = Trace(1)
        trace.finish("ok")
        trace.finish("ShardCrashedError")
        assert trace.to_dict()["status"] == "ok"

    def test_to_dict_sorts_spans_by_offset(self):
        trace = Trace(1)
        now = trace.t0
        trace.add_span("later", now + 0.020, now + 0.030)
        trace.add_span("earlier", now, now + 0.010)
        names = [s["name"] for s in trace.to_dict()["spans"]]
        assert names == ["earlier", "later"]


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------
class TestEventLog:
    def test_ring_is_bounded(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.emit("tick", i=i)
        tail = log.tail()
        assert len(tail) == 4
        assert [e["i"] for e in tail] == [6, 7, 8, 9]

    def test_tail_n_returns_newest(self):
        log = EventLog(capacity=8)
        for i in range(5):
            log.emit("tick", i=i)
        assert [e["i"] for e in log.tail(2)] == [3, 4]

    def test_file_sink_appends_json_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=4, sink_path=str(path))
        log.emit("shard_spawn", shard=0)
        log.emit("retry", requests=2)
        log.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["kind"] for e in lines] == ["shard_spawn", "retry"]
        assert lines[1]["requests"] == 2
        assert all("ts" in e for e in lines)


# ----------------------------------------------------------------------
# ServingStats on the registry + ambient layer profiling
# ----------------------------------------------------------------------
class TestServingStatsRegistry:
    def test_counters_are_registry_backed(self):
        stats = ServingStats()
        stats.count(requests=2, samples=3, batches=1)
        snap = stats.registry.snapshot()
        assert snap["serving_requests_total"]["series"][0]["value"] == 2
        assert snap["serving_samples_total"]["series"][0]["value"] == 3
        assert stats.requests == 2 and stats.samples == 3

    def test_snapshot_includes_metrics_and_latency_stats(self):
        stats = ServingStats()
        stats.record_batch(2, 4, [1.0, 2.0], [0.02, 0.7])
        snap = stats.snapshot()
        assert snap["requests"] == 2 and snap["samples"] == 4
        assert snap["p99_ms"] >= snap["p95_ms"] >= snap["p50_ms"] > 0
        assert snap["mean_ms"] == pytest.approx(1.5)  # exact: sum / count
        assert "serving_request_latency_ms" in snap["metrics"]
        # queue wait is an always-on histogram that resolves sub-0.5 ms waits
        (row,) = snap["metrics"]["serving_queue_wait_ms"]["series"]
        assert row["count"] == 2 and row["sum"] == pytest.approx(0.72)
        assert row["buckets"][0] == [0.05, 1]

    def test_multi_field_views_are_not_torn(self):
        """The torn-read fix: every count() moves requests and samples
        together under the stats lock, and snapshot() reads the whole
        view under the same lock — so no snapshot can ever observe
        requests != samples here."""
        stats = ServingStats()
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                snap = stats.snapshot()
                if snap["requests"] != snap["samples"]:
                    torn.append(snap)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for _ in range(2000):
            stats.count(requests=1, samples=1)
        stop.set()
        for t in threads:
            t.join()
        assert not torn

    def test_profile_layers_captures_per_layer_timings(self, spec):
        session = spec.build()
        try:
            sink = []
            with profile_layers(sink):
                session.run(_rand(2))
            assert sink, "profiled run recorded no layers"
            names = [name for name, _, _, _ in sink]
            assert any("conv" in n for n in names)
            for _, op, t0, t1 in sink:
                assert t1 >= t0
            # ambient hook off outside the context: no new entries
            baseline = len(sink)
            session.run(_rand(1))
            assert len(sink) == baseline
        finally:
            session.close()

    def test_microbatch_trace_spans(self, spec):
        """The in-process tier alone produces queue/execute/layer spans
        (this is what workers ship back to the router)."""
        session = spec.build()
        try:
            collector = SpanCollector(new_trace_id())
            fut = session.submit(_rand(1), trace=collector)
            fut.result(timeout=30)
            _wait_until(lambda: any(
                s["name"] == "execute" for s in collector.export()), timeout=10)
            names = [s["name"] for s in collector.export()]
            assert "queue_wait" in names and "execute" in names
            assert any(n.startswith("layer:") for n in names)
        finally:
            session.close()


# ----------------------------------------------------------------------
# End-to-end: cluster traces over both transports
# ----------------------------------------------------------------------
class TestClusterTracing:
    #: every stage of a request's life, in timeline order
    REQUIRED_SPANS = [
        "admission", "dispatch", "transport", "worker_queue",
        "queue_wait", "execute", "reply",
    ]

    def test_sampled_trace_has_complete_timeline(self, spec, transport):
        cfg = TelemetryConfig(trace_sample_rate=1.0)
        with ShardedServer(
            spec, num_shards=1, transport=transport,
            health_interval_s=0.2, telemetry=cfg,
        ) as server:
            fut = server.submit(_rand(1))
            fut.result(timeout=60)
            tid = fut.trace_id
            assert tid != 0
            # the worker's trace frame trails the reply on the same
            # ordered channel; wait for it to be spliced in
            assert _wait_until(lambda: "reply" in _span_names(server, tid))
            trace = server.get_trace(tid)
            names = [s["name"] for s in trace["spans"]]
            for required in self.REQUIRED_SPANS:
                assert required in names, f"missing span {required!r} in {names}"
            assert any(n.startswith("layer:") for n in names)
            # spans arrive sorted by offset: the timeline reads in order
            order = [names.index(r) for r in self.REQUIRED_SPANS]
            assert order == sorted(order)
            assert trace["status"] == "ok"
            assert trace["duration_ms"] > 0

    def test_unsampled_requests_have_no_trace(self, spec):
        cfg = TelemetryConfig(trace_sample_rate=0.0)
        with ShardedServer(
            spec, num_shards=1, health_interval_s=0.2, telemetry=cfg,
        ) as server:
            fut = server.submit(_rand(1))
            fut.result(timeout=60)
            assert getattr(fut, "trace_id", 0) == 0
            assert server.trace_ids() == []

    def test_retry_appears_as_sibling_spans(self, spec, transport):
        """A crash mid-request shows up *inside the trace*: the doomed
        attempt's dispatch + attempt_crashed spans next to the rescue
        attempt's dispatch/transport spans, all under one trace id."""
        # seed 0 @ crash_rate 0.5, start_after 3: req 3 crashes, 4+ fine
        faults = FaultPlan(seed=0, crash_rate=0.5, start_after=3)
        cfg = TelemetryConfig(trace_sample_rate=1.0)
        with ShardedServer(
            spec, num_shards=2, transport=transport, health_interval_s=0.2,
            resilience=ResilienceConfig(max_retries=2), faults=faults,
            telemetry=cfg,
        ) as server:
            for i in range(3):  # warmup: req_ids 0..2 never fault
                server.submit(_rand(1, seed=i)).result(timeout=60)
            fut = server.submit(_rand(1, seed=9))  # req 3: crash + rescue
            out = fut.result(timeout=60)
            assert out.shape == (1, 10)
            tid = fut.trace_id
            assert _wait_until(lambda: "reply" in _span_names(server, tid))
            trace = server.get_trace(tid)
            dispatches = [s for s in trace["spans"] if s["name"] == "dispatch"]
            assert len(dispatches) >= 2, trace["spans"]
            kinds = {d["kind"] for d in dispatches}
            assert kinds == {"initial", "retry"}
            assert {d["attempt"] for d in dispatches} == {1, 2}
            assert any(s["name"] == "attempt_crashed" for s in trace["spans"])
            assert trace["status"] == "ok"
            # the crash also leaves its lifecycle events behind
            assert _wait_until(
                lambda: {"shard_spawn", "shard_down", "retry", "shard_respawn"}
                <= set(server.events.kinds())
            )
            assert server.cluster_stats["retries"] >= 1


# ----------------------------------------------------------------------
# HTTP exposition
# ----------------------------------------------------------------------
def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode()


def _parse_prom(text):
    values = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        values[name] = float(value)
    return values


class TestAdminServer:
    def test_endpoints_and_metrics_parity(self, spec):
        cfg = TelemetryConfig(trace_sample_rate=1.0, metrics_port=0)
        with ShardedServer(
            spec, num_shards=2, health_interval_s=0.2, telemetry=cfg,
        ) as server:
            assert server.metrics_port is not None
            base = f"http://127.0.0.1:{server.metrics_port}"
            futs = [server.submit(_rand(1, seed=i)) for i in range(6)]
            for fut in futs:
                fut.result(timeout=60)

            status, text = _get(base + "/healthz")
            assert status == 200 and json.loads(text)["alive_shards"] == 2

            status, text = _get(base + "/stats")
            stats = json.loads(text)
            assert status == 200 and stats["requests"] >= 6

            # /metrics agrees with cluster_stats: same registry cells,
            # one stats pass for the derived values
            status, text = _get(base + "/metrics")
            assert status == 200
            prom = _parse_prom(text)
            stats = server.cluster_stats
            assert prom["cluster_requests_total"] == stats["requests"]
            assert prom["cluster_retries_total"] == stats["retries"]
            assert prom["cluster_alive_shards"] == stats["alive_shards"]
            assert prom["cluster_router_p50_ms"] == pytest.approx(
                stats["router_p50_ms"], abs=1.0
            )

            # worker registries appear labelled per shard once pongs land
            assert _wait_until(lambda: all(
                e["serving"] and "metrics" in e["serving"]
                for e in server.cluster_stats["shards"]
            ))
            _, text = _get(base + "/metrics")
            # worker series carry the model label (single-model clusters
            # serve under the default name) plus the router's shard label
            assert 'serving_requests_total{model="default",shard="0"}' in text
            assert 'serving_requests_total{model="default",shard="1"}' in text

            # the always-on queue-wait histogram is exported with the same
            # labels and observes every request the batcher resolved
            def queue_wait_counts_every_request():
                prom = _parse_prom(_get(base + "/metrics")[1])
                labels = [f'{{model="default",shard="{s}"}}' for s in (0, 1)]
                waits = [prom.get("serving_queue_wait_ms_count" + lbl) for lbl in labels]
                totals = [prom.get("serving_requests_total" + lbl) for lbl in labels]
                return None not in waits and waits == totals and sum(waits) >= 6

            assert _wait_until(queue_wait_counts_every_request)

            # each shard reports what its shared arena and kernel cache
            # hold: scratch is retained once a shard has served, and the
            # cache holds one entry per distinct compiled conv
            with spec.build() as probe:
                distinct_convs = len(probe.executor.kernel_cache)
            assert distinct_convs > 0

            def worker_resources_exported():
                prom = _parse_prom(_get(base + "/metrics")[1])
                served_shards = 0
                for s in (0, 1):
                    row = {name: prom.get(f'{name}{{shard="{s}"}}') for name in (
                        "worker_arena_footprint_bytes", "worker_arena_evictions",
                        "worker_kernel_cache_entries", "worker_kernel_cache_hits",
                    )}
                    served = prom.get(f'serving_requests_total{{model="default",shard="{s}"}}')
                    if None in row.values() or row["worker_kernel_cache_entries"] != distinct_convs:
                        return False
                    if served:
                        served_shards += 1
                        if row["worker_arena_footprint_bytes"] <= 0:
                            return False
                return served_shards > 0

            assert _wait_until(worker_resources_exported)

            # traces are browsable
            status, text = _get(base + "/traces")
            ids = json.loads(text)["trace_ids"]
            assert status == 200 and len(ids) == 6
            status, text = _get(f"{base}/trace/{ids[-1]}")
            assert status == 200
            assert json.loads(text)["trace_id"] == ids[-1]
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{base}/trace/12345")
            assert err.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{base}/trace/not-an-id")
            assert err.value.code == 400

            status, text = _get(base + "/events")
            kinds = {e["kind"] for e in json.loads(text)["events"]}
            assert status == 200 and "shard_spawn" in kinds

            port = server.metrics_port
        # close() tears the admin server down with the cluster
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            _get(f"http://127.0.0.1:{port}/healthz", timeout=2)

    def test_router_latency_histogram_per_model(self, spec):
        """The router observes every delivered result once, into a
        model-labelled histogram that /metrics exports whole, and the
        router percentiles are read from it."""
        delivered = {"a": 3, "b": 5}
        cfg = TelemetryConfig(trace_sample_rate=0.0, metrics_port=0)
        with ShardedServer(
            specs={name: spec for name in delivered}, num_shards=1,
            health_interval_s=0.2, telemetry=cfg,
        ) as server:
            for name, n in delivered.items():
                for i in range(n):
                    server.submit(_rand(1, seed=i), model=name).result(timeout=60)
            _, text = _get(f"http://127.0.0.1:{server.metrics_port}/metrics")
            stats = server.cluster_stats
        prom = _parse_prom(text)
        assert "# TYPE cluster_request_latency_ms histogram" in text
        for name, n in delivered.items():
            assert prom[f'cluster_request_latency_ms_count{{model="{name}"}}'] == n
            assert prom[f'cluster_request_latency_ms_bucket{{le="+Inf",model="{name}"}}'] == n
            assert stats["models"][name]["router_p50_ms"] > 0
        assert stats["router_p99_ms"] >= stats["router_p50_ms"] > 0


class TestTelemetryConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="trace_sample_rate"):
            TelemetryConfig(trace_sample_rate=1.5)
        with pytest.raises(ValueError, match="trace_sample_rate"):
            TelemetryConfig(trace_sample_rate=-0.1)
        with pytest.raises(ValueError, match="capacity"):
            TelemetryConfig(trace_capacity=0)

    def test_hub_wires_the_parts(self, tmp_path):
        cfg = TelemetryConfig(
            trace_sample_rate=0.5, event_log_path=str(tmp_path / "ev.jsonl")
        )
        hub = Telemetry(cfg)
        try:
            hub.events.emit("hello")
            assert hub.tracer.maybe_start() is not None
            assert hub.registry.snapshot() == {}
        finally:
            hub.close()
        assert (tmp_path / "ev.jsonl").exists()
