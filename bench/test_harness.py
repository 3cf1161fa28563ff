"""Tier-1 checks of the benchmark harness itself: the estimators on
synthetic samples, and that ``BENCHMARK.json`` names what the harness
emits.  No timing, no numpy, no ``repro`` import."""

import json
import os
import re
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import metrics  # noqa: E402
from metrics import Window, cut_windows, nest_spans, quantile  # noqa: E402


def test_quantile_interpolates_like_numpy():
    assert quantile([4, 1, 3, 2], 0.5) == 2.5
    assert quantile([1, 2, 3, 4, 5], 0.10) == pytest.approx(1.4)
    assert quantile([7], 0.9) == 7
    with pytest.raises(ValueError):
        quantile([], 0.5)


def test_cut_windows_buckets_by_completion_and_pools_across_rounds():
    # two 1-second windows; a request completing after the last boundary
    # (tail of an open pipeline) belongs to no window
    records = [(0.0, 0.4, True), (0.5, 0.9, True), (0.95, 1.2, True),
               (1.3, 1.9, False), (1.95, 2.3, True)]
    first = cut_windows(records, [0.0, 1.0, 2.0], [0.0, 30.0, 70.0], samples_per_request=8)
    assert [w.attempted for w in first] == [2, 2]
    assert [w.samples for w in first] == [16, 8]          # the failure adds no samples
    assert [w.cpu_ms for w in first] == [30.0, 40.0]
    assert first[1].latencies_ms == [pytest.approx(250.0)]
    second = cut_windows([(5.0, 5.5, True)], [5.0, 6.0], [0.0, 10.0])
    pooled = first + second                                # rounds pool by concatenation
    assert len(pooled) == 3
    assert metrics.throughput_quiet_sps(pooled) == pytest.approx(quantile([16, 8, 1], 1 - metrics.QUIET))


def _windows(floors, samples=10, seconds=1.0, cpu_ms=5.0):
    """Windows whose requests sit at ``floor`` except one straggler each."""
    return [Window(seconds=seconds, cpu_ms=cpu_ms, samples=samples, attempted=samples,
                   latencies_ms=[f] * (samples - 1) + [3 * f]) for f in floors]


def test_quiet_estimators_ignore_a_slow_phase():
    quiet = _windows([5.0 + 0.001 * i for i in range(90)])
    slow = _windows([5.6] * 30, samples=8)                 # a quarter of the run, 12% slower
    assert metrics.latency_quiet_ms(quiet + slow) == pytest.approx(
        metrics.latency_quiet_ms(quiet), rel=0.001)
    assert metrics.throughput_quiet_sps(quiet + slow) == 10.0
    # the floor of the quiet windows, not of raw samples: one lucky
    # request in a disturbed window moves nothing
    lucky = _windows([5.0] * 119) + [Window(1.0, 5.0, 10, 10, [1.0] + [9.0] * 9)]
    assert metrics.latency_quiet_ms(lucky) == 5.0
    # two-level by definition: outer QUIET quantile of each window's own p10
    mixed = [Window(1.0, 1.0, 3, 3, [1.0, 2.0, 3.0]), Window(1.0, 1.0, 3, 3, [4.0, 5.0, 6.0])]
    assert metrics.latency_quiet_ms(mixed) == pytest.approx(
        quantile([quantile([1.0, 2.0, 3.0], 0.1), quantile([4.0, 5.0, 6.0], 0.1)],
                 metrics.QUIET))


def test_cpu_ms_per_sample_is_the_quiet_tail_and_skips_empty_windows():
    windows = [Window(1.0, cpu, 10, 10, [1.0]) for cpu in (20.0, 10.0, 30.0)]
    windows.append(Window(1.0, 99.0, 0, 0, []))
    assert metrics.cpu_ms_per_sample(windows) == pytest.approx(
        quantile([2.0, 1.0, 3.0], metrics.QUIET))


def test_slo_ok_frac_counts_failures_as_misses():
    ok = Window(1.0, 1.0, samples=3, attempted=3, latencies_ms=[1.0, 2.0, 9.0])
    # 2 answered (one too slow), 2 failed / typed errors / wrong bytes
    bad = Window(1.0, 1.0, samples=2, attempted=4, latencies_ms=[1.0, 20.0])
    assert metrics.slo_ok_frac([ok], limit_ms=10.0) == 1.0
    assert metrics.slo_ok_frac([ok, bad], limit_ms=10.0) == pytest.approx(4 / 7)
    assert metrics.slo_ok_frac([], limit_ms=10.0) == 0.0


def test_end_to_end_takes_median_setup_and_max_rss():
    out = metrics.end_to_end(_windows([5.0] * 4), 10.0, [0.4, 0.2, 0.3, 0.9], [100.0, 120.0])
    assert out["setup_s"] == pytest.approx(0.35)
    assert out["rss_mb"] == 120.0
    assert set(out) == {m[0] for m in metrics.END_TO_END}


def test_span_self_time_is_duration_minus_children():
    spans = [
        {"name": "client.request", "t0_ms": 0.0, "dur_ms": 10.0},
        {"name": "admission", "t0_ms": 0.1, "dur_ms": 0.5},
        {"name": "dispatch", "t0_ms": 0.2, "dur_ms": 0.3},      # inside admission
        {"name": "transport", "t0_ms": 1.0, "dur_ms": 8.0},
        {"name": "queue_wait", "t0_ms": 1.5, "dur_ms": 2.0},
        {"name": "execute", "t0_ms": 3.5, "dur_ms": 4.0},
        {"name": "layer:a", "t0_ms": 3.6, "dur_ms": 1.0},
        {"name": "layer:b", "t0_ms": 4.4, "dur_ms": 1.6},       # overlaps layer:a by 0.2
    ]
    nested = {s["name"]: s for s in nest_spans(list(reversed(spans)))}
    order = [s["name"] for s in nest_spans(spans)]

    def parent(name):
        index = nested[name]["parent"]
        return None if index is None else order[index]

    assert parent("client.request") is None
    assert parent("dispatch") == "admission"
    assert parent("transport") == "client.request"
    assert parent("execute") == parent("queue_wait") == "transport"
    assert parent("layer:a") == parent("layer:b") == "execute"
    assert nested["client.request"]["self_ms"] == pytest.approx(10.0 - 0.5 - 8.0)
    assert nested["admission"]["self_ms"] == pytest.approx(0.2)
    assert nested["transport"]["self_ms"] == pytest.approx(2.0)
    assert nested["execute"]["self_ms"] == pytest.approx(4.0 - 2.4)  # overlap counted once
    assert nested["layer:a"]["self_ms"] == 1.0
    assert "parent" not in spans[0]                              # input left untouched


def test_span_nesting_forgives_clock_rebase_slack():
    spans = [{"name": "transport", "t0_ms": 1.0, "dur_ms": 2.0},
             {"name": "reply", "t0_ms": 2.9, "dur_ms": 0.12}]     # ends 0.02 ms past parent
    child = nest_spans(spans)[1]
    assert child["parent"] == 0


def test_benchmark_json_names_everything_the_harness_emits():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert doc["paths"] == ["bench"] and doc["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == list(metrics.WORKLOADS.items())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == \
        [tuple(m) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [tuple(m) for m in metrics.PER_LAYER]
    names = [w["name"] for w in doc["workloads"]] + \
        [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.match(name), name
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.\-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert sum(m["name"] == "setup_s" for m in doc["end_to_end"]) == 1
    assert doc["run_seconds"] == metrics.RUN_SECONDS and 1 <= doc["run_seconds"] <= 60
    # the frozen slo limits are part of each workload's one-line reason
    assert set(metrics.SLO_LIMIT_MS) == set(metrics.WORKLOADS)
    for name, limit in metrics.SLO_LIMIT_MS.items():
        assert len(metrics.WORKLOADS[name]) <= 200
        assert f"slo limit {limit:g} ms" in metrics.WORKLOADS[name]
