"""Batched FKW engine vs the seed per-sample path on a VGG-style stack.

The seed ``CompiledExecutor`` looped over batch samples in Python
(``np.stack([fn(sample) ...])``), scattered LRE partial sums through
``np.add.at``, re-padded every input, and ran bias/activation as two
extra array passes.  This bench reconstructs that engine faithfully (as
``SeedPerSampleExecutor``) and measures it against the reworked batched
executor — whole-batch kernels, scatter-free accumulation, fused
epilogue, and arena buffer reuse — at batch sizes 1 / 8 / 32.

Acceptance gate: batched execution at batch 8 is >= 3x the seed
per-sample path, with outputs matching ``ReferenceExecutor`` within
1e-4 across every opt level.
"""

import time

import numpy as np
import pytest
from conftest import emit

from repro.bench.reporting import ResultTable
from repro.core.patterns import PatternSet, enumerate_candidate_patterns
from repro.core.projections import project_connectivity, project_kernel_pattern
from repro.graph.ir import Graph, Node, OpKind, run_shape_inference
from repro.runtime import CompiledExecutor, ReferenceExecutor
from repro.runtime.ops import _apply_activation, eval_node

BATCH_SIZES = (1, 8, 32)
OPT_LEVELS = ("no-opt", "reorder", "lre", "gemm")

# VGG-style stack (CIFAR-scale blocks): two 32-wide convs, pool, two
# 64-wide convs, pool, classifier — every conv pattern+connectivity
# pruned and compiled through FKW.
_HW = 16
_CHANS = ((32, 3), (32, 32), (64, 32), (64, 64))


def _build_stack(seed=0):
    rng = np.random.default_rng(seed)
    ps = PatternSet(enumerate_candidate_patterns()[:8])
    g = Graph("vgg-style")
    g.add(Node("x", OpKind.INPUT, attrs={"shape": (_CHANS[0][1], _HW, _HW)}))
    prev = "x"
    assignments = {}
    hw = _HW
    for i, (f, c) in enumerate(_CHANS):
        w = (rng.standard_normal((f, c, 3, 3)) * np.sqrt(2.0 / (c * 9))).astype(np.float32)
        w, a = project_kernel_pattern(w, ps)
        w, m = project_connectivity(w, max(1, f * c // 4))
        name = f"conv{i}"
        g.add(
            Node(
                name,
                OpKind.CONV2D,
                inputs=[prev],
                attrs={"kernel_size": 3, "stride": 1, "padding": 1, "out_channels": f, "activation": "relu"},
                params={"weight": w, "bias": (rng.standard_normal(f) * 0.05).astype(np.float32)},
            )
        )
        assignments[name] = (a * m).astype(np.int32)
        prev = name
        if i in (1, 3):
            g.add(Node(f"pool{i}", OpKind.MAXPOOL, inputs=[prev], attrs={"kernel_size": 2}))
            prev = f"pool{i}"
            hw //= 2
    g.add(Node("flat", OpKind.FLATTEN, inputs=[prev]))
    feat = _CHANS[-1][0] * hw * hw
    g.add(
        Node(
            "fc",
            OpKind.LINEAR,
            inputs=["flat"],
            attrs={"out_features": 10},
            params={
                "weight": (rng.standard_normal((10, feat)) * 0.02).astype(np.float32),
                "bias": np.zeros(10, np.float32),
            },
        )
    )
    g.outputs = ["fc"]
    run_shape_inference(g)
    return g, ps, assignments


# ----------------------------------------------------------------------
# Faithful reconstruction of the seed engine (pre-batching rework)
# ----------------------------------------------------------------------
def _seed_lre_kernel(fkw, stride, padding):
    """The seed '+LRE' kernel: per-sample, np.add.at owner scatter."""
    f, c, kh, kw = fkw.shape
    k_total = fkw.num_kernels
    by_pattern = {}
    if k_total:
        kernel_owner = np.empty(k_total, dtype=np.int64)
        for pos in range(f):
            kernel_owner[fkw.filter_slice(pos)] = int(fkw.reorder[pos])
        for pid in range(1, len(fkw.pattern_set) + 1):
            sel = np.nonzero(fkw.pattern_ids == pid)[0]
            if len(sel) == 0:
                continue
            by_pattern[pid] = {
                "channels": fkw.index[sel].astype(np.int64),
                "owners": kernel_owner[sel],
                "weights": fkw.weights[sel],
                "coords": np.array(fkw.pattern_set[pid].coords, dtype=np.int64),
            }

    def fn(x):
        h, w = x.shape[1], x.shape[2]
        ho = (h + 2 * padding - kh) // stride + 1
        wo = (w + 2 * padding - kw) // stride + 1
        xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))  # unconditional
        out = np.zeros((f, ho, wo), dtype=np.float32)
        for _pid, meta in by_pattern.items():
            contrib = None
            for widx, (r, cc) in enumerate(meta["coords"]):
                patch = xp[meta["channels"], r : r + stride * ho : stride, cc : cc + stride * wo : stride]
                term = meta["weights"][:, widx][:, None, None] * patch
                contrib = term if contrib is None else contrib + term
            np.add.at(out, meta["owners"], contrib)
        return out

    return fn


class SeedPerSampleExecutor:
    """The seed CompiledExecutor: per-sample kernels, three-pass epilogue."""

    def __init__(self, graph, pattern_set, assignments):
        from repro.compiler.reorder import filter_kernel_reorder
        from repro.compiler.storage import FKWLayer

        self.graph = graph
        self._order = graph.toposort()
        self._compiled = {}
        for name, assignment in assignments.items():
            node = graph.nodes[name]
            fkw = FKWLayer.from_pruned(
                node.params["weight"], assignment, pattern_set, filter_kernel_reorder(assignment)
            )
            fn = _seed_lre_kernel(fkw, node.attrs.get("stride", 1), node.attrs.get("padding", 0))
            self._compiled[name] = (fn, node.params.get("bias"), node.attrs.get("activation"))

    def run(self, x):
        values = {}
        out = None
        for node in self._order:
            if node.op == OpKind.INPUT:
                values[node.name] = x.astype(np.float32)
                continue
            inputs = [values[i] for i in node.inputs]
            if node.name in self._compiled:
                fn, bias, activation = self._compiled[node.name]
                batch = np.stack([fn(sample) for sample in inputs[0]])
                if bias is not None:
                    batch += bias.reshape(1, -1, 1, 1)
                values[node.name] = _apply_activation(batch, activation)
            else:
                values[node.name] = eval_node(node, inputs)
            out = values[node.name]
        return values[self.graph.outputs[0]] if self.graph.outputs else out


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stack():
    g, ps, assignments = _build_stack()
    return g, ps, assignments


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(42)
    return {n: rng.standard_normal((n, _CHANS[0][1], _HW, _HW)).astype(np.float32) for n in BATCH_SIZES}


def _time(fn, reps=5):
    fn()  # warm-up (also warms kernel caches and the arena)
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_batched_executor_wallclock(benchmark, stack, inputs, batch):
    """pytest-benchmark timing of the batched engine per batch size."""
    g, ps, assignments = stack
    ex = CompiledExecutor(g, ps, assignments)
    x = inputs[batch]
    result = benchmark(ex.run, x)
    assert result.shape == (batch, 10)


def test_batched_beats_seed_per_sample(stack, inputs, request):
    """Acceptance gate: >= 3x over the seed engine at batch 8.

    Under ``--benchmark-disable`` (the scripts/check.sh fast pass) only
    the output-equality half runs: wallclock assertions on a loaded or
    BLAS-less CI box would fail spuriously and are benchmark-mode-only.
    """
    g, ps, assignments = stack
    seed_ex = SeedPerSampleExecutor(g, ps, assignments)
    new_ex = CompiledExecutor(g, ps, assignments)
    for batch in BATCH_SIZES:
        x = inputs[batch]
        np.testing.assert_allclose(seed_ex.run(x), new_ex.run(x), rtol=1e-4, atol=1e-4)
    if request.config.getoption("benchmark_disable"):
        pytest.skip("equality verified; wallclock gate needs benchmark mode")

    table = ResultTable(
        "executor-batched — batched FKW engine vs seed per-sample path",
        ["batch", "seed per-sample (ms)", "batched (ms)", "speedup"],
    )
    speedups = {}
    for batch in BATCH_SIZES:
        x = inputs[batch]
        t_seed = _time(lambda: seed_ex.run(x))
        t_new = _time(lambda: new_ex.run(x))
        speedups[batch] = t_seed / t_new
        table.add(batch, f"{t_seed * 1e3:.2f}", f"{t_new * 1e3:.2f}", f"{speedups[batch]:.2f}x")
    table.note("seed path: per-sample np.stack loop, np.add.at scatter, 3-pass epilogue")
    emit(table)
    assert speedups[8] >= 3.0, f"batch-8 speedup {speedups[8]:.2f}x < 3x"


def test_all_opt_levels_match_reference(stack, inputs):
    """Output parity with the reference interpreter across the matrix."""
    g, ps, assignments = stack
    ref = ReferenceExecutor(g)
    x = inputs[8]
    expected = ref.run(x)
    for opt_level in OPT_LEVELS:
        got = CompiledExecutor(g, ps, assignments, opt_level).run(x)
        np.testing.assert_allclose(
            got, expected, rtol=1e-4, atol=1e-4, err_msg=f"opt_level={opt_level}"
        )


def test_kernel_cache_and_arena_effective(stack, inputs):
    """Steady-state serving reuses buffers: after the first run nothing is
    allocated again — no output, scratch or pad buffer (the default
    native level pads inside C, so it takes no arena pads at all)."""
    g, ps, assignments = stack
    ex = CompiledExecutor(g, ps, assignments)
    ex.run(inputs[8])
    allocated = (ex.arena.allocations, ex.arena.pad_allocations)
    for _ in range(3):
        ex.run(inputs[8])
    assert (ex.arena.allocations, ex.arena.pad_allocations) == allocated
    assert ex.arena.reuses > 0
    # distinct shapes in this stack: every layer compiled exactly once
    assert ex.kernel_cache.misses == len(assignments)
