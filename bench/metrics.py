"""What the benchmark reports and how each number is estimated.

Pure python on purpose (no numpy, no ``repro``): ``test_harness.py``
checks these estimators on synthetic samples inside the tier-1 run, and
``BENCHMARK.json`` is checked against the name tables below.

Vocabulary: a *round* is one cold set-up → warm-up → measurement phase →
tear-down of one workload; the measurement phase is cut into *windows*
(see :class:`Window`); a workload's end-to-end metrics are computed over
the windows of all its rounds pooled together.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from statistics import median

#: measured seconds per workload per run (``run_seconds`` in BENCHMARK.json)
RUN_SECONDS = 24
ROUNDS = 4
#: short windows on purpose: on a shared host a window is only useful to
#: the quiet estimators if *nothing* disturbed it, and the chance of that
#: falls with its length (0.2 s each at the default 24 s per run)
WINDOWS_PER_ROUND = 30
#: warm-up length before each round's measurement phase, in windows
WARMUP_WINDOWS = 4
#: the quiet estimators read this tail of the per-window values: with
#: 120 windows, 6 lie beyond it
QUIET = 0.05

#: name -> one-line reason; order is the order a full run visits them
WORKLOADS = {
    "direct_b1": "paper's per-frame case: InferenceSession.run on one 32x32 sample of a "
                 "pattern-pruned VGG-16 topology; codegen kernels, executor and arena only; "
                 "slo limit 11 ms",
    "direct_b8": "same session on a batch of 8: BLAS shapes, arena traffic and amortised "
                 "per-call overhead, so a batch-1 special case that costs batches shows; "
                 "slo limit 66 ms",
    "serve_idle": "one closed-loop client on a 1-shard shm cluster: the 2 ms batching timer, "
                  "router and shm transport dominate, kernels barely register; "
                  "slo limit 5.8 ms",
    "serve_sat": "16 requests kept outstanding on a 1-shard tcp cluster: batches fill without "
                 "the timer, router and codec CPU are the bottleneck; slo limit 8 ms",
}

#: frozen latency limit per workload for ``slo_ok_frac``: 2 x the seed's
#: ``latency_quiet_ms`` rounded to two figures.  Never re-derived from a
#: run — a later PR is judged against the limit the seed set.
SLO_LIMIT_MS = {"direct_b1": 11.0, "direct_b8": 66.0, "serve_idle": 5.8, "serve_sat": 8.0}

#: (name, unit, better, bound) — the gated metrics, same set on every workload.
#: The time-based bounds are 0.25, not the 0.10 first aimed for: within a
#: run the quiet estimators repeat to 1-3 %, but the host itself changes
#: speed for longer than a run (every workload 10 % faster for five
#: minutes; slow phases of +10 % latency / +30 % CPU that swallow whole
#: runs), so ten runs of one set spread up to 11-13 % in a noisy hour, and
#: the driver requires every set's spread to stay inside the bound.
END_TO_END = (
    ("latency_quiet_ms", "ms", "lower", 0.25),
    ("throughput_quiet_sps", "samples/s", "higher", 0.25),
    ("cpu_ms_per_sample", "ms", "lower", 0.25),
    ("slo_ok_frac", "fraction", "higher", 0.10),
    ("rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

#: serving stages the program publishes a span for, in request order
STAGES = ("admission", "dispatch", "transport", "worker_queue", "execute", "reply")
#: graph node time is reported summed by these op kinds
OP_GROUPS = ("conv", "pool", "linear", "other", "overhead")

#: (name, unit, better) — single-layer numbers from a ``--trace`` run; not gated
PER_LAYER = (
    ("core.project_ms", "ms", "lower"),
    ("core.kept_weight_frac", "fraction", "lower"),
    ("graph.build_ms", "ms", "lower"),
    ("graph.passes_ms", "ms", "lower"),
    ("graph.nodes", "count", "lower"),
    ("compiler.reorder_ms", "ms", "lower"),
    ("compiler.fkw_pack_ms", "ms", "lower"),
    ("compiler.fkw_bytes", "bytes", "lower"),
    ("compiler.fkw_overhead_frac", "fraction", "lower"),
    ("compiler.csr_bytes", "bytes", "lower"),
    ("compiler.kernel_gen_ms", "ms", "lower"),
    ("compiler.kernel_cache_hits", "count", "higher"),
    ("kernel.dense_b1_ms", "ms", "lower"),
    ("kernel.noopt_b1_ms", "ms", "lower"),
    ("kernel.reorder_b1_ms", "ms", "lower"),
    ("kernel.lre_b1_ms", "ms", "lower"),
    ("kernel.gemm_b1_ms", "ms", "lower"),
    ("kernel.gemm_b8_ms", "ms", "lower"),
    *((f"executor.{g}_ms_{b}", "ms", "lower") for b in ("b1", "b8") for g in OP_GROUPS),
    ("arena.footprint_bytes", "bytes", "lower"),
    ("arena.reuse_frac", "fraction", "higher"),
    ("arena.evictions", "count", "lower"),
    ("ladder.session_run_ms", "ms", "lower"),
    ("ladder.inproc_submit_ms", "ms", "lower"),
    ("ladder.cluster_shm_ms", "ms", "lower"),
    ("ladder.cluster_tcp_ms", "ms", "lower"),
    ("serving.overhead_ms", "ms", "lower"),
    ("transport_shm.overhead_ms", "ms", "lower"),
    ("transport_tcp.overhead_ms", "ms", "lower"),
    ("transport.pack_frame_us", "us", "lower"),
    ("transport.unpack_frame_us", "us", "lower"),
    *((f"serving.{m}_{r}", u, b) for r in ("idle", "sat") for m, u, b in (
        ("queue_wait_ms", "ms", "lower"),
        ("mean_batch", "samples", "higher"),
        ("effective_wait_ms", "ms", "lower"),
    )),
    *((f"cluster.{s}_ms_{r}", "ms", "lower") for r in ("idle", "sat") for s in STAGES),
    *((f"cluster.{c}", "count", "lower")
      for c in ("retries", "hedges", "shed", "timed_out", "corrupt", "respawns")),
    ("telemetry.trace_overhead_frac_idle", "fraction", "lower"),
    ("telemetry.trace_overhead_frac_sat", "fraction", "lower"),
    ("telemetry.incomplete_trace_frac", "fraction", "lower"),
    ("client.p50_ms", "ms", "lower"),
    ("client.p99_ms", "ms", "lower"),
    ("client.open1000_p50_ms", "ms", "lower"),
    ("client.open1000_p99_ms", "ms", "lower"),
    ("client.open1000_late_p99_ms", "ms", "lower"),
)

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (numpy's default rule), ``0 <= q <= 1``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Window:
    """What one measurement window saw.

    ``latencies_ms`` holds one entry per request answered *correctly*;
    ``attempted`` also counts requests that failed, raised a typed error
    or returned wrong bytes, so ``attempted - len(latencies_ms)`` are
    misses whatever their latency was.
    """

    seconds: float
    cpu_ms: float
    samples: int = 0
    attempted: int = 0
    latencies_ms: list = field(default_factory=list)


def cut_windows(records, boundaries, cpu_ms_at, samples_per_request=1):
    """Bucket request records into windows by completion time.

    ``records`` are ``(t_submit, t_done, ok)``; ``boundaries`` are the
    ``n + 1`` instants at which the generator sampled CPU time
    (``cpu_ms_at``, same length), so window ``k`` is
    ``[boundaries[k], boundaries[k + 1])``.  A record completing outside
    every window (the tail of an open pipeline) is dropped here — it is
    still output-checked by the caller.
    """
    windows = [
        Window(seconds=boundaries[k + 1] - boundaries[k],
               cpu_ms=cpu_ms_at[k + 1] - cpu_ms_at[k])
        for k in range(len(boundaries) - 1)
    ]
    k = 0
    for t_submit, t_done, ok in sorted(records, key=lambda r: r[1]):
        if t_done < boundaries[0]:
            continue
        while k < len(windows) and t_done >= boundaries[k + 1]:
            k += 1
        if k == len(windows):
            break
        w = windows[k]
        w.attempted += 1
        if ok:
            w.samples += samples_per_request
            w.latencies_ms.append((t_done - t_submit) * 1e3)
    return windows


def latency_quiet_ms(windows) -> float:
    """5th percentile over windows of each window's 10th-percentile latency.

    Interference from the host's other tenants only ever adds time, and
    on this class of host it does so most of the time (the pooled median
    sits 10 % above the floor and wanders with the neighbours), so what
    repeats between runs is the quiet requests of the quiet windows.  A
    slower program moves that floor exactly as it moves the median.
    """
    return quantile(
        [quantile(w.latencies_ms, 0.10) for w in windows if w.latencies_ms], QUIET)


def throughput_quiet_sps(windows) -> float:
    """95th percentile over windows of samples completed per second."""
    return quantile([w.samples / w.seconds for w in windows], 1.0 - QUIET)


def cpu_ms_per_sample(windows) -> float:
    """5th percentile over windows of CPU time (harness + workers) per sample."""
    return quantile([w.cpu_ms / w.samples for w in windows if w.samples], QUIET)


def slo_ok_frac(windows, limit_ms: float) -> float:
    """Requests answered correctly within ``limit_ms`` / requests attempted."""
    attempted = sum(w.attempted for w in windows)
    within = sum(1 for w in windows for ms in w.latencies_ms if ms <= limit_ms)
    return within / attempted if attempted else 0.0


def end_to_end(windows, limit_ms: float, setup_seconds, rss_mb_per_round) -> dict:
    """The six gated metrics from a workload's pooled windows and rounds."""
    return {
        "latency_quiet_ms": latency_quiet_ms(windows),
        "throughput_quiet_sps": throughput_quiet_sps(windows),
        "cpu_ms_per_sample": cpu_ms_per_sample(windows),
        "slo_ok_frac": slo_ok_frac(windows, limit_ms),
        "rss_mb": max(rss_mb_per_round),
        "setup_s": median(setup_seconds),
    }


def nest_spans(spans, slack_ms: float = 0.05) -> list:
    """Give each span of one request a ``parent`` index and a ``self_ms``.

    The program's traces are flat timelines, so parentage is recovered
    from containment: a span's parent is the tightest span whose interval
    covers it (``slack_ms`` forgives clock rebasing between processes).
    ``self_ms`` is the span's duration minus the part of it that its
    direct children cover (overlapping children are not counted twice).
    Returns new dicts in timeline order; input spans are not modified.
    """
    order = sorted(spans, key=lambda s: (s["t0_ms"], -s["dur_ms"]))
    out = [dict(s, parent=None) for s in order]
    stack: list[int] = []
    children: dict[int, list[int]] = {}
    for i, span in enumerate(out):
        end = span["t0_ms"] + span["dur_ms"]
        while stack:
            top = out[stack[-1]]
            if span["t0_ms"] >= top["t0_ms"] - slack_ms and \
                    end <= top["t0_ms"] + top["dur_ms"] + slack_ms:
                break
            stack.pop()
        if stack:
            span["parent"] = stack[-1]
            children.setdefault(stack[-1], []).append(i)
        stack.append(i)
    for i, span in enumerate(out):
        start, end = span["t0_ms"], span["t0_ms"] + span["dur_ms"]
        covered, cursor = 0.0, start
        for j in children.get(i, ()):  # already in start order
            c0 = max(out[j]["t0_ms"], cursor)
            c1 = min(out[j]["t0_ms"] + out[j]["dur_ms"], end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        span["self_ms"] = span["dur_ms"] - covered
    return out
