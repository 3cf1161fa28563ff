"""The ``--trace`` run: one number (or a few) per layer of the stack.

Every layer is measured from outside: by timing calls into its public
functions, or by reading the telemetry the program already publishes
(``profile_layers`` for graph nodes, ``TelemetryConfig(trace_sample_rate=1.0)``
+ ``get_trace`` for the serving stages, ``cluster_stats`` for counters).
Spans are kept in memory and written to ``bench/out/trace_<workload>.json``
when the run ends.  ``unit`` below is ``--seconds / 20``: the length of
one timed block, so the whole run scales with ``--seconds``.
"""

from __future__ import annotations

import json
import time
from statistics import median

import numpy as np

import host
import workloads as wl
from metrics import OP_GROUPS, STAGES, nest_spans, quantile
from repro.compiler.codegen import KernelCache, generate_kernel
from repro.compiler.compile import prune_spec_layer
from repro.compiler.reorder import filter_kernel_reorder
from repro.compiler.storage import CSRLayer, FKWLayer
from repro.core.patterns import mine_pattern_set
from repro.graph.builder import build_graph
from repro.graph.ir import OpKind
from repro.graph.pass_manager import default_pipeline
from repro.models.spec import ConvSpec
from repro.runtime import profile_layers
from repro.runtime.ops import conv2d
from repro.runtime.transport import FRAME_HEADER, pack_tensor_frame, unpack_tensor_frame
from repro.utils.rng import make_rng

_OP_GROUP = {"CONV2D": "conv", "MAXPOOL": "pool", "AVGPOOL": "pool",
             "GLOBAL_AVGPOOL": "pool", "LINEAR": "linear"}
OPEN_LOOP_RATE = 1000.0


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


# ----------------------------------------------------------------------
# core / graph / compiler: the stages of a direct_* cold set-up, one by one
# ----------------------------------------------------------------------
def compile_stages(reps: int = 3) -> dict:
    """Time each public step between a fresh model and runnable kernels.

    These are the calls ``InferenceSession.__init__`` makes, taken apart;
    the VGG here is sequential and fully pruned, so graph conv nodes and
    assignments pair up in order.
    """
    timed: dict[str, list[float]] = {}
    counted: dict[str, float] = {}

    def add(name, ms):
        timed.setdefault(name, []).append(ms)

    for _ in range(reps):
        model = wl.fresh_vgg()
        t0 = time.perf_counter()
        ps, assignments = wl.project_model(model)
        add("core.project_ms", _ms_since(t0))
        kept = total = 0
        for name, module in model.named_modules():
            if name in assignments:
                kept += int(np.count_nonzero(module.weight.data))
                total += module.weight.data.size
        counted["core.kept_weight_frac"] = kept / total

        t0 = time.perf_counter()
        graph = build_graph(model, wl.VGG_INPUT)
        add("graph.build_ms", _ms_since(t0))
        t0 = time.perf_counter()
        default_pipeline().run(graph)
        add("graph.passes_ms", _ms_since(t0))
        counted["graph.nodes"] = len(graph.nodes)

        convs = [n for n in graph.toposort() if n.op == OpKind.CONV2D]
        if len(convs) != len(assignments):
            raise RuntimeError("conv nodes and assignments no longer pair up in order")
        cache = KernelCache()
        reorder_ms = pack_ms = gen_ms = 0.0
        fkw_bytes = overhead_bytes = csr_bytes = 0
        for node, assignment in zip(convs, assignments.values()):
            weights = node.params["weight"]
            t0 = time.perf_counter()
            fkr = filter_kernel_reorder(assignment)
            reorder_ms += _ms_since(t0)
            t0 = time.perf_counter()
            fkw = FKWLayer.from_pruned(weights, assignment, ps, fkr)
            pack_ms += _ms_since(t0)
            fkw_bytes += fkw.total_bytes()
            overhead_bytes += fkw.overhead_bytes()
            csr_bytes += CSRLayer.from_dense(weights).total_bytes()
            t0 = time.perf_counter()
            cache.get(fkw, node.attrs.get("stride", 1), node.attrs.get("padding", 0), "gemm",
                      bias=node.params.get("bias"), activation=node.attrs.get("activation"))
            gen_ms += _ms_since(t0)
        add("compiler.reorder_ms", reorder_ms)
        add("compiler.fkw_pack_ms", pack_ms)
        add("compiler.kernel_gen_ms", gen_ms)
        counted["compiler.fkw_bytes"] = fkw_bytes
        counted["compiler.fkw_overhead_frac"] = overhead_bytes / fkw_bytes
        counted["compiler.csr_bytes"] = csr_bytes
        counted["compiler.kernel_cache_hits"] = cache.hits
    return {**{k: median(v) for k, v in timed.items()}, **counted}


# ----------------------------------------------------------------------
# compiler.codegen: the opt-level ladder on one conv (paper Fig. 13)
# ----------------------------------------------------------------------
def kernel_ladder(unit: float, blocks: int = 3) -> dict:
    """Dense reference and the four generated kernels on one 32->32 3x3
    28x28 conv; blocks are interleaved so a host slow phase hits all of
    them.  Every kernel's output is held to the dense one."""
    spec = ConvSpec("bench", 32, 32, 3, padding=1, in_hw=28)
    rng = make_rng(0)
    w0 = spec.make_weights(rng)
    ps = mine_pattern_set([w0], k=wl.NUM_PATTERNS)
    w, assignment = prune_spec_layer(spec, ps, wl.CONNECTIVITY_RATE, rng, weights=w0)
    fkw = FKWLayer.from_pruned(w, assignment, ps)
    x1 = rng.standard_normal((1, 32, 28, 28)).astype(np.float32)
    x8 = rng.standard_normal((8, 32, 28, 28)).astype(np.float32)

    def dense(x):
        return conv2d(x, w, None, 1, 1)

    rungs = {"kernel.dense_b1_ms": (dense, x1)}
    for level, key in (("no-opt", "noopt"), ("reorder", "reorder"), ("lre", "lre"),
                       ("gemm", "gemm")):
        rungs[f"kernel.{key}_b1_ms"] = (generate_kernel(fkw, 1, 1, level), x1)
    rungs["kernel.gemm_b8_ms"] = (rungs["kernel.gemm_b1_ms"][0], x8)
    for name, (fn, x) in rungs.items():
        if not np.allclose(fn(x), dense(x), rtol=wl.REFERENCE_TOL, atol=wl.REFERENCE_TOL):
            raise wl.OutputMismatch(f"{name}: generated kernel differs from the dense conv")

    samples: dict[str, list[float]] = {name: [] for name in rungs}
    budget = unit / (2 * blocks)  # per rung per block
    for _ in range(blocks):
        for name, (fn, x) in rungs.items():
            end = time.perf_counter() + budget
            while True:
                t0 = time.perf_counter()
                fn(x)
                t1 = time.perf_counter()
                samples[name].append((t1 - t0) * 1e3)
                if t1 >= end:
                    break
    return {name: median(values) for name, values in samples.items()}


# ----------------------------------------------------------------------
# transport codec
# ----------------------------------------------------------------------
def codec_costs(x: np.ndarray, n: int = 2000) -> dict:
    frame = pack_tensor_frame(1, x)
    body = frame[FRAME_HEADER.size:]
    if not wl.bitwise_equal(unpack_tensor_frame(body)[2], np.ascontiguousarray(x)):
        raise wl.OutputMismatch("tensor frame did not round-trip")
    t0 = time.perf_counter()
    for i in range(n):
        pack_tensor_frame(i, x)
    pack_us = _ms_since(t0) * 1e3 / n
    t0 = time.perf_counter()
    for _ in range(n):
        unpack_tensor_frame(body)
    return {"transport.pack_frame_us": pack_us,
            "transport.unpack_frame_us": _ms_since(t0) * 1e3 / n}


# ----------------------------------------------------------------------
# Traced workloads
# ----------------------------------------------------------------------
class TracedDirect(wl.DirectWorkload):
    """``direct_*`` with ``profile_layers`` around every call: one trace
    per request, a harness-side ``session.run`` root over the program's
    per-node timings."""

    def drive(self, seconds: float, n_windows: int) -> wl.Phase:
        run, inputs = self.session.run, self.inputs
        self.traces = traces = []

        def call(i):
            sink = []
            t0 = time.monotonic()  # the clock profile_layers stamps nodes with
            with profile_layers(sink):
                out = run(inputs[i])
            t1 = time.monotonic()
            spans = [{"name": "session.run", "t0_ms": 0.0, "dur_ms": (t1 - t0) * 1e3}]
            spans += [
                {"name": f"layer:{node}", "op": op, "t0_ms": (a - t0) * 1e3,
                 "dur_ms": (b - a) * 1e3}
                for node, op, a, b in sink
            ]
            traces.append(spans)
            return out

        return wl.closed_loop(call, len(inputs), seconds, n_windows, self._cpu_now)


class TracedServe(wl.ServeWorkload):
    """``serve_*`` with every request sampled; remembers each request's
    trace id in submit order so spans can be joined to client latencies."""

    def __init__(self, seed, plan, name, transport, depth):
        super().__init__(seed, plan, name, transport, depth, trace_sample_rate=1.0)
        self.trace_ids: list[int] = []

    def drive(self, seconds: float, n_windows: int) -> wl.Phase:
        self.trace_ids = ids = []
        submit, inputs = self.server.submit, self.inputs

        def traced_submit(i):
            fut = submit(inputs[i])
            ids.append(fut.trace_id)
            return fut

        if self.depth == 1:
            return wl.closed_loop(lambda i: traced_submit(i).result(timeout=60),
                                  len(inputs), seconds, n_windows, self._cpu_now)
        return wl.pipelined(traced_submit, len(inputs), self.depth, seconds, n_windows,
                            self._cpu_now)

    def collect_traces(self, phase: wl.Phase, settle_s: float = 2.0) -> tuple[list, float]:
        """Join program spans to the phase's requests.

        Worker spans splice in after the reply, so wait (bounded) until
        the newest trace has its ``execute`` span.  Returns the traces —
        each a span list under a harness-side ``client.request`` root
        anchored at the trace's own start, which the program stamps
        within microseconds of ``submit`` — and the fraction that still
        lacked ``execute``.
        """
        deadline = time.monotonic() + settle_s
        while self.trace_ids and time.monotonic() < deadline:
            newest = self.server.get_trace(self.trace_ids[-1])
            if newest and any(s["name"] == "execute" for s in newest["spans"]):
                break
            time.sleep(0.02)
        by_submit = sorted(phase.records, key=lambda r: r[0])
        traces, incomplete = [], 0
        for (t0, t1, _, _), tid in zip(by_submit, self.trace_ids):
            trace = self.server.get_trace(tid)
            spans = trace["spans"] if trace else []
            if not any(s["name"] == "execute" for s in spans):
                incomplete += 1
            root = {"name": "client.request", "t0_ms": 0.0, "dur_ms": (t1 - t0) * 1e3,
                    "trace_id": tid}
            traces.append([root, *spans])
        return traces, incomplete / max(1, len(traces))


def _latencies_ms(records) -> list[float]:
    return [(t1 - t0) * 1e3 for t0, t1, _, _ in records]


def _span_median(traces, name: str) -> float:
    durations = [s["dur_ms"] for spans in traces for s in spans if s["name"] == name]
    return median(durations) if durations else 0.0


def executor_groups(traces, suffix: str) -> dict:
    """Median per request of node time summed by op kind; ``overhead`` is
    the ``session.run`` root's self time (run minus every node)."""
    per_request: dict[str, list[float]] = {g: [] for g in OP_GROUPS}
    for spans in traces:
        nested = nest_spans(spans)
        sums = dict.fromkeys(per_request, 0.0)
        for span in nested:
            if span["parent"] is None:
                sums["overhead"] += span["self_ms"]
            else:
                sums[_OP_GROUP.get(span.get("op"), "other")] += span["dur_ms"]
        for group, value in sums.items():
            per_request[group].append(value)
    return {f"executor.{g}_ms_{suffix}": median(v) for g, v in per_request.items()}


def open_loop_probe(workload: wl.ServeWorkload, seed: int, seconds: float) -> tuple[dict, list]:
    """Seeded Poisson arrivals at ``OPEN_LOOP_RATE`` req/s, each request
    timed from when it was due, not from when the generator got to it."""
    rng = np.random.default_rng(seed)
    n = max(1, int(OPEN_LOOP_RATE * seconds))
    due = np.cumsum(rng.exponential(1.0 / OPEN_LOOP_RATE, size=n))
    submit, inputs = workload.server.submit, workload.inputs
    done: list = []
    late_ms = []
    start = time.perf_counter() + 0.01
    for i in range(n):
        t_due = start + due[i]
        while True:
            remaining = t_due - time.perf_counter()
            if remaining <= 0:
                break
            if remaining > 3e-4:
                time.sleep(remaining - 2e-4)
        idx = i % len(inputs)
        late_ms.append((time.perf_counter() - t_due) * 1e3)
        fut = submit(inputs[idx])
        fut.add_done_callback(
            lambda f, t_due=t_due, idx=idx: done.append((t_due, time.perf_counter(), idx, f))
        )
    deadline = time.monotonic() + 60
    while len(done) < n:
        if time.monotonic() > deadline:
            raise RuntimeError("open-loop requests still unresolved after 60 s")
        time.sleep(0.005)
    records = [(t0, t1, idx, wl.settle(f)) for t0, t1, idx, f in done]
    latencies = _latencies_ms(records)
    return {
        "client.open1000_p50_ms": quantile(latencies, 0.50),
        "client.open1000_p99_ms": quantile(latencies, 0.99),
        "client.open1000_late_p99_ms": quantile(late_ms, 0.99),
    }, records


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
class Tally:
    """Requests attempted / failed across every checked phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, workload: wl.Workload, records) -> None:
        checked = workload.check(records)
        self.attempted += len(checked)
        self.failed += sum(1 for _, _, ok in checked if not ok)


def _blocks(targets: dict, unit: float, blocks: int, tally: Tally) -> dict:
    """Interleave closed-loop blocks over ``targets`` (name -> (workload,
    call)); returns the pooled median latency per target."""
    pooled: dict[str, list[float]] = {name: [] for name in targets}
    for _ in range(blocks):
        for name, (workload, call) in targets.items():
            phase = wl.closed_loop(call, len(workload.inputs), unit / blocks, 1, lambda: 0.0)
            tally.check(workload, phase.records)
            pooled[name] += _latencies_ms(phase.records)
    return {name: median(values) for name, values in pooled.items()}


def trace_direct(seed: int, plan: dict, unit: float, tally: Tally):
    """runtime.executor / ops / arena: ``profile_layers`` around ``direct_*``
    calls.  Returns ``(metrics, client, span_files)``."""
    shared, client, span_files = {}, {}, {}
    for batch, pool in ((1, 16), (8, 8)):
        direct = TracedDirect(seed, plan, batch=batch, pool=pool)
        direct.setup()
        try:
            direct.drive(unit / 2, 1)
            phase = direct.drive(1.5 * unit, 1)
            if batch == 8:
                arena = direct.session.arena
                reused = arena.reuses + arena.pad_reuses
                handed = reused + arena.allocations + arena.pad_allocations
                shared["arena.footprint_bytes"] = arena.footprint_bytes
                shared["arena.reuse_frac"] = reused / max(1, handed)
                shared["arena.evictions"] = arena.evictions
        finally:
            direct.teardown()
        tally.check(direct, phase.records)
        shared.update(executor_groups(direct.traces, f"b{batch}"))
        client[direct.name] = _client(phase)
        span_files[direct.name] = direct.traces
    return shared, client, span_files


def trace_serving(seed: int, plan: dict, unit: float, tally: Tally):
    """Everything above the session: four servers — the two serving
    configurations, traced and not — alive together so that whatever is
    compared runs in interleaved blocks.  Returns ``(metrics, client,
    span_files, error_counts)``."""
    shared, client, span_files = {}, {}, {}
    servers: dict[str, wl.ServeWorkload] = {}
    errors = dict.fromkeys(wl.CLUSTER_ERROR_KEYS, 0)
    try:
        servers["idle"] = wl.ServeWorkload(seed, plan, "serve_idle", "shm", 1)
        servers["sat"] = wl.ServeWorkload(seed, plan, "serve_sat", "tcp", wl.SAT_DEPTH)
        servers["idle_traced"] = TracedServe(seed, plan, "serve_idle", "shm", 1)
        servers["sat_traced"] = TracedServe(seed, plan, "serve_sat", "tcp", wl.SAT_DEPTH)
        for server in servers.values():
            server.setup()
        idle, sat = servers["idle"], servers["sat"]

        # runtime.session / serving / transport*: the same sample through
        # one more layer each time
        x = idle.inputs
        with idle.spec.build() as session:
            targets = {
                "ladder.session_run_ms": (idle, lambda i: session.run(x[i])),
                "ladder.inproc_submit_ms": (idle, lambda i: session.submit(x[i]).result(60)),
                "ladder.cluster_shm_ms": (idle, lambda i: idle.server.submit(x[i]).result(60)),
                "ladder.cluster_tcp_ms": (sat, lambda i: sat.server.submit(x[i]).result(60)),
            }
            for _, call in targets.values():  # warm each path
                for i in range(20):
                    call(i)
            ladder = _blocks(targets, unit, 5, tally)
        shared.update(ladder)
        shared["serving.overhead_ms"] = (
            ladder["ladder.inproc_submit_ms"] - ladder["ladder.session_run_ms"])
        for kind in ("shm", "tcp"):
            shared[f"transport_{kind}.overhead_ms"] = (
                ladder[f"ladder.cluster_{kind}_ms"] - ladder["ladder.inproc_submit_ms"])
        shared.update(codec_costs(x[0]))

        # idle and saturated regimes, untraced then traced, twice over
        latency: dict[str, list[float]] = {key: [] for key in servers}
        phases: dict[str, wl.Phase] = {}
        traced_spans: dict[str, list] = {"idle_traced": [], "sat_traced": []}
        incomplete = []
        for server in servers.values():
            server.drive(unit / 2, 1)
        for _ in range(2):
            for key, server in servers.items():
                phase = server.drive(0.75 * unit, 1)
                tally.check(server, phase.records)
                latency[key].append(median(_latencies_ms(phase.records)))
                phases[key] = phase
                if key in traced_spans:
                    traces, frac = server.collect_traces(phase)
                    traced_spans[key] += traces
                    incomplete.append(frac)
        for regime in ("idle", "sat"):
            traces = traced_spans[f"{regime}_traced"]
            shared[f"telemetry.trace_overhead_frac_{regime}"] = (
                median(latency[f"{regime}_traced"]) / median(latency[regime]) - 1.0)
            shared[f"serving.queue_wait_ms_{regime}"] = _span_median(traces, "queue_wait")
            for stage in STAGES:
                shared[f"cluster.{stage}_ms_{regime}"] = _span_median(traces, stage)
            client[servers[regime].name] = _client(phases[regime])
            span_files[servers[regime].name] = traces
        shared["telemetry.incomplete_trace_frac"] = max(incomplete)

        probe, records = open_loop_probe(sat, seed, 2 * unit)
        tally.check(sat, records)
        shared.update(probe)

        # batching regime as the workers' own counters report it; a pong
        # carries them to the router every health interval
        time.sleep(2 * idle.server.health_interval_s + 0.1)
        for regime in ("idle", "sat"):
            stats = servers[f"{regime}_traced"].server.cluster_stats
            shared[f"serving.mean_batch_{regime}"] = stats["mean_batch"]
            serving = stats["shards"][0]["serving"] or {}
            shared[f"serving.effective_wait_ms_{regime}"] = serving.get("effective_wait_ms", 0.0)
        for server in servers.values():
            for key, value in server.error_counts().items():
                errors[key] += value
    finally:
        for server in servers.values():
            server.teardown()
            server.close()
    for key, value in errors.items():
        if key != "errors":  # replies that failed are already in the tally
            shared[f"cluster.{key}"] = value
    return shared, client, span_files, errors


def run_traced(names, seed: int, plan: dict, seconds: float, fingerprint: dict):
    """Measure every per-layer metric and write the span files of
    ``names``; returns ``(shared, client, tally, error_counts)`` where
    ``client[name]`` holds the ungated p50/p99 of workload ``name`` and
    ``shared`` everything else."""
    unit = seconds / 20.0
    tally = Tally()
    shared = {**compile_stages(), **kernel_ladder(unit)}
    direct, client, span_files = trace_direct(seed, plan, unit, tally)
    serving, serve_client, serve_spans, errors = trace_serving(seed, plan, unit, tally)
    shared.update(direct)
    shared.update(serving)
    client.update(serve_client)
    span_files.update(serve_spans)

    host.OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        with open(host.OUT_DIR / f"trace_{name}.json", "w") as fh:
            json.dump({"fingerprint": fingerprint, "workload": name,
                       "traces": [nest_spans(spans) for spans in span_files[name]]}, fh)
    return shared, client, tally, errors


def _client(phase: wl.Phase) -> dict:
    latencies = _latencies_ms(phase.records)
    return {"client.p50_ms": quantile(latencies, 0.50),
            "client.p99_ms": quantile(latencies, 0.99)}
