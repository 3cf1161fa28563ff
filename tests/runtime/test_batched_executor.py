"""Batched compiled execution: equality matrix, kernel cache, arena reuse.

The engine-level contract of the batched rework: for every opt level,
stride, padding, and batch size, ``CompiledExecutor.run`` on a whole
batch equals ``ReferenceExecutor.run`` — each sample's row bitwise equal
to running it alone — and repeated identical layers compile once while
scratch buffers recycle across calls.
"""

import sys
import threading

import numpy as np
import pytest

from repro.compiler.codegen import KernelCache
from repro.core.patterns import PatternSet, enumerate_candidate_patterns
from repro.core.projections import project_connectivity, project_kernel_pattern
from repro.graph.ir import Graph, Node, OpKind, run_shape_inference
from repro.runtime import BufferArena, CompiledExecutor, ReferenceExecutor

OPT_LEVELS = ["no-opt", "reorder", "lre", "gemm", "native"]


def _pruned_conv(rng, ps, f, c, scale=True):
    """Kaiming-scaled pattern+connectivity pruned weights and assignment."""
    w = rng.standard_normal((f, c, 3, 3)).astype(np.float32)
    if scale:
        w *= np.sqrt(2.0 / (c * 9))
    w, a = project_kernel_pattern(w, ps)
    w, m = project_connectivity(w, max(1, f * c // 2))
    return w, (a * m).astype(np.int32)


def _conv_graph(stride, padding, f=8, c=5, hw=9, seed=0, bias=True, activation="relu"):
    """One pruned conv node wrapped in a graph, plus its assignment."""
    rng = np.random.default_rng(seed)
    ps = PatternSet(enumerate_candidate_patterns()[:6])
    w, assignment = _pruned_conv(rng, ps, f, c)
    g = Graph("one-conv")
    g.add(Node("x", OpKind.INPUT, attrs={"shape": (c, hw, hw)}))
    params = {"weight": w}
    if bias:
        params["bias"] = (rng.standard_normal(f) * 0.05).astype(np.float32)
    g.add(
        Node(
            "conv",
            OpKind.CONV2D,
            inputs=["x"],
            attrs={
                "kernel_size": 3,
                "stride": stride,
                "padding": padding,
                "out_channels": f,
                "activation": activation,
            },
            params=params,
        )
    )
    g.outputs = ["conv"]
    run_shape_inference(g)
    return g, ps, {"conv": assignment}


def _stack_graph(seed=0, hw=8, chans=((16, 3), (16, 16), (32, 16), (32, 32))):
    """A VGG-style stack of pruned 3x3 convs (+ maxpool + flatten + linear)."""
    rng = np.random.default_rng(seed)
    ps = PatternSet(enumerate_candidate_patterns()[:6])
    g = Graph("stack")
    g.add(Node("x", OpKind.INPUT, attrs={"shape": (chans[0][1], hw, hw)}))
    prev = "x"
    assignments = {}
    for i, (f, c) in enumerate(chans):
        w, a = _pruned_conv(rng, ps, f, c)
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
        assignments[name] = a
        prev = name
    g.add(Node("pool", OpKind.MAXPOOL, inputs=[prev], attrs={"kernel_size": 2}))
    g.add(Node("flat", OpKind.FLATTEN, inputs=["pool"]))
    feat = chans[-1][0] * (hw // 2) ** 2
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


class TestBatchedEquality:
    @pytest.mark.parametrize("opt_level", OPT_LEVELS)
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("batch", [1, 4, 7])
    def test_compiled_equals_reference(self, opt_level, stride, padding, batch):
        g, ps, assignments = _conv_graph(stride, padding, seed=stride * 10 + padding)
        x = np.random.default_rng(99).standard_normal((batch, 5, 9, 9)).astype(np.float32)
        expected = ReferenceExecutor(g).run(x)
        got = CompiledExecutor(g, ps, assignments, opt_level).run(x)
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("opt_level", OPT_LEVELS)
    def test_multilayer_stack_matches_reference(self, opt_level):
        g, ps, assignments = _stack_graph()
        x = np.random.default_rng(7).standard_normal((4, 3, 8, 8)).astype(np.float32)
        expected = ReferenceExecutor(g).run(x)
        got = CompiledExecutor(g, ps, assignments, opt_level).run(x)
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("opt_level", OPT_LEVELS)
    def test_batch_invariant_bitwise(self, opt_level):
        """A sample's output must not depend on what it is batched with:
        2x2 layers with 64 channels are where BLAS switches kernels by
        batch size, so any batch-folded GEMM shape shows up here."""
        g, ps, assignments = _stack_graph(hw=2, chans=((64, 3), (64, 64)))
        ex = CompiledExecutor(g, ps, assignments, opt_level)
        x = np.random.default_rng(13).standard_normal((9, 3, 2, 2)).astype(np.float32)
        singles = [ex.run(x[i : i + 1])[0] for i in range(len(x))]
        for n in range(1, len(x) + 1):
            batched = ex.run(x[:n])
            for i in range(n):
                assert np.array_equal(batched[i], singles[i]), f"N={n}, sample {i}"

    def test_no_bias_no_activation(self):
        g, ps, assignments = _conv_graph(1, 1, bias=False, activation=None)
        x = np.random.default_rng(3).standard_normal((4, 5, 9, 9)).astype(np.float32)
        expected = ReferenceExecutor(g).run(x)
        got = CompiledExecutor(g, ps, assignments).run(x)
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-4)

    def test_repeated_runs_are_stable(self):
        """Arena reuse across calls must not change results."""
        g, ps, assignments = _stack_graph()
        ex = CompiledExecutor(g, ps, assignments)
        rng = np.random.default_rng(11)
        for batch in (2, 5, 2, 5):
            x = rng.standard_normal((batch, 3, 8, 8)).astype(np.float32)
            expected = ReferenceExecutor(g).run(x)
            np.testing.assert_allclose(ex.run(x), expected, rtol=1e-4, atol=1e-4)
        assert ex.arena.reuses > 0

    def test_view_aliased_buffers_reclaimed(self):
        """conv -> flatten (a view of the conv buffer) -> fc must not leak.

        Per-step retirement skips a buffer while a live view aliases it;
        the end-of-run reclaim has to return it to the pool anyway, so
        steady-state serving allocates nothing new after the first call.
        """
        rng = np.random.default_rng(0)
        ps = PatternSet(enumerate_candidate_patterns()[:6])
        w, assignment = _pruned_conv(rng, ps, 8, 3)
        g = Graph("conv-flat")
        g.add(Node("x", OpKind.INPUT, attrs={"shape": (3, 6, 6)}))
        g.add(
            Node(
                "conv",
                OpKind.CONV2D,
                inputs=["x"],
                attrs={"kernel_size": 3, "stride": 1, "padding": 1, "out_channels": 8},
                params={"weight": w},
            )
        )
        g.add(Node("flat", OpKind.FLATTEN, inputs=["conv"]))
        g.add(
            Node(
                "fc",
                OpKind.LINEAR,
                inputs=["flat"],
                attrs={"out_features": 4},
                params={"weight": (rng.standard_normal((4, 8 * 36)) * 0.02).astype(np.float32)},
            )
        )
        g.outputs = ["fc"]
        run_shape_inference(g)
        ex = CompiledExecutor(g, ps, {"conv": assignment})
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        ex.run(x)
        allocs_after_first = ex.arena.allocations
        for _ in range(5):
            ex.run(x)
        assert ex.arena.allocations == allocs_after_first
        assert ex.arena.reuses >= 5

    def _twin_conv_graph(self, output):
        """x -> convA -> flatA and x -> convB -> flatB (same shapes, other
        weights), joined by ``output``: 'add' of the two views, or 'flat'
        (flatA itself is the graph output)."""
        rng = np.random.default_rng(3)
        ps = PatternSet(enumerate_candidate_patterns()[:6])
        g = Graph("twin-conv")
        g.add(Node("x", OpKind.INPUT, attrs={"shape": (3, 6, 6)}))
        assignments = {}
        for tag in "AB":
            w, assignments[f"conv{tag}"] = _pruned_conv(rng, ps, 8, 3)
            attrs = {"kernel_size": 3, "stride": 1, "padding": 1, "out_channels": 8}
            g.add(Node(f"conv{tag}", OpKind.CONV2D, inputs=["x"], attrs=attrs, params={"weight": w}))
            g.add(Node(f"flat{tag}", OpKind.FLATTEN, inputs=[f"conv{tag}"]))
        if output == "add":
            g.add(Node("sum", OpKind.ADD, inputs=["flatA", "flatB"]))
            g.outputs = ["sum"]
        else:
            g.outputs = ["flatA"]
        run_shape_inference(g)
        return g, ps, assignments

    def test_live_view_keeps_its_buffer_out_of_the_pool(self):
        """convA dies at its FLATTEN while the view lives on; convB (same
        shape) runs next and must not be handed convA's buffer."""
        g, ps, assignments = self._twin_conv_graph("add")
        ex = CompiledExecutor(g, ps, assignments)
        x = np.random.default_rng(4).standard_normal((2, 3, 6, 6)).astype(np.float32)
        expected = ReferenceExecutor(g).run(x)
        for _ in range(3):
            np.testing.assert_allclose(ex.run(x), expected, rtol=1e-4, atol=1e-4)

    def test_view_output_detached_from_arena(self):
        """A graph output that is a view of a conv's arena buffer is copied
        before it escapes, so later runs cannot overwrite it."""
        g, ps, assignments = self._twin_conv_graph("flat")
        ex = CompiledExecutor(g, ps, assignments)
        rng = np.random.default_rng(6)
        out1 = ex.run(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
        snapshot = out1.copy()
        for _ in range(3):
            ex.run(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
        np.testing.assert_array_equal(out1, snapshot)

    def test_output_detached_from_arena(self):
        """A returned batch must survive subsequent runs unchanged."""
        g, ps, assignments = _stack_graph()
        ex = CompiledExecutor(g, ps, assignments)
        rng = np.random.default_rng(5)
        x1 = rng.standard_normal((3, 3, 8, 8)).astype(np.float32)
        out1 = ex.run(x1)
        snapshot = out1.copy()
        for _ in range(3):
            ex.run(rng.standard_normal((3, 3, 8, 8)).astype(np.float32))
        np.testing.assert_array_equal(out1, snapshot)


class TestStaticOwnership:
    """The executor hands back every arena buffer it holds — at the end of
    each run, also when a node raises — and the pool serves many threads."""

    def test_failed_run_leaks_no_buffer(self, monkeypatch):
        """``pool`` raises while conv3's buffer is live: the next run must
        find every buffer back in the pool."""
        g, ps, assignments = _stack_graph()
        ex = CompiledExecutor(g, ps, assignments)
        x = np.random.default_rng(8).standard_normal((2, 3, 8, 8)).astype(np.float32)
        expected = ex.run(x)
        ex.run(x)
        allocations, footprint = ex.arena.allocations, ex.arena.footprint_bytes
        dispatch = ex._dispatch

        def failing(node, inputs, arena):
            if node.name == "pool":
                raise RuntimeError("injected")
            return dispatch(node, inputs, arena)

        monkeypatch.setattr(ex, "_dispatch", failing)
        with pytest.raises(RuntimeError, match="injected"):
            ex.run(x)
        monkeypatch.undo()
        assert np.array_equal(ex.run(x), expected)
        assert ex.arena.allocations == allocations
        assert ex.arena.footprint_bytes == footprint

    @pytest.mark.parametrize("opt_level", ["native", "gemm"])
    def test_shared_executor_across_threads(self, opt_level):
        """8 threads share one executor: every output is bitwise its solo
        run, and a run after the threads join allocates nothing."""
        g, ps, assignments = _stack_graph()
        ex = CompiledExecutor(g, ps, assignments, opt_level)
        rng = np.random.default_rng(9)
        inputs = [rng.standard_normal((1 + t % 3, 3, 8, 8)).astype(np.float32) for t in range(8)]
        solo = [ex.run(x) for x in inputs]
        mismatches: list[int] = []
        start = threading.Barrier(len(inputs))

        def worker(t):
            start.wait(10)
            for _ in range(20):
                if not np.array_equal(ex.run(inputs[t]), solo[t]):
                    mismatches.append(t)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []
        counts = ex.arena.allocations, ex.arena.pad_allocations
        for x, want in zip(inputs, solo):
            assert np.array_equal(ex.run(x), want)
        assert (ex.arena.allocations, ex.arena.pad_allocations) == counts


    @pytest.mark.parametrize("opt_level", OPT_LEVELS)
    def test_bare_sample_call_hands_its_buffers_back(self, opt_level):
        """A bare (C, H, W) sample gets a copy of its output row, so the
        kernel returns the batch buffer to the arena with its scratch."""
        g, ps, assignments = _conv_graph(1, 1)
        fn = CompiledExecutor(g, ps, assignments, opt_level)._compiled["conv"]
        x = np.random.default_rng(10).standard_normal((5, 9, 9)).astype(np.float32)
        arena = BufferArena()
        first = fn(x, arena=arena)
        counts = arena.allocations, arena.pad_allocations
        assert np.array_equal(fn(x, arena=arena), first)
        assert (arena.allocations, arena.pad_allocations) == counts
        assert np.array_equal(first, fn(x))


class TestKernelCache:
    def _identical_layer_graph(self, repeats=3):
        """A chain of convs with *identical* weights/bias/attrs (c == f)."""
        rng = np.random.default_rng(0)
        ps = PatternSet(enumerate_candidate_patterns()[:6])
        f = c = 8
        w, assignment = _pruned_conv(rng, ps, f, c)
        bias = (rng.standard_normal(f) * 0.05).astype(np.float32)
        g = Graph("repeated")
        g.add(Node("x", OpKind.INPUT, attrs={"shape": (c, 8, 8)}))
        prev = "x"
        assignments = {}
        for i in range(repeats):
            name = f"conv{i}"
            g.add(
                Node(
                    name,
                    OpKind.CONV2D,
                    inputs=[prev],
                    attrs={"kernel_size": 3, "stride": 1, "padding": 1, "out_channels": f, "activation": "relu"},
                    params={"weight": w.copy(), "bias": bias.copy()},
                )
            )
            assignments[name] = assignment.copy()
            prev = name
        g.outputs = [prev]
        run_shape_inference(g)
        return g, ps, assignments

    def test_identical_layers_compile_once(self):
        g, ps, assignments = self._identical_layer_graph(repeats=3)
        ex = CompiledExecutor(g, ps, assignments)
        assert ex.kernel_cache.misses == 1
        assert ex.kernel_cache.hits == 2
        assert len(ex.kernel_cache) == 1
        # and the shared closure still computes the right thing
        x = np.random.default_rng(1).standard_normal((2, 8, 8, 8)).astype(np.float32)
        np.testing.assert_allclose(
            ex.run(x), ReferenceExecutor(g).run(x), rtol=1e-4, atol=1e-4
        )

    def test_distinct_layers_do_not_collide(self):
        g, ps, assignments = _stack_graph()  # all-distinct weights
        ex = CompiledExecutor(g, ps, assignments)
        assert ex.kernel_cache.hits == 0
        assert ex.kernel_cache.misses == len(assignments)

    def test_cache_shared_across_executors(self):
        g, ps, assignments = self._identical_layer_graph(repeats=2)
        cache = KernelCache()
        CompiledExecutor(g, ps, assignments, kernel_cache=cache)
        CompiledExecutor(g, ps, assignments, kernel_cache=cache)
        assert cache.misses == 1
        assert cache.hits == 3

    def test_opt_level_part_of_key(self):
        g, ps, assignments = self._identical_layer_graph(repeats=1)
        cache = KernelCache()
        CompiledExecutor(g, ps, assignments, "lre", kernel_cache=cache)
        CompiledExecutor(g, ps, assignments, "gemm", kernel_cache=cache)
        assert cache.misses == 2

    def test_external_arena_accepted(self):
        g, ps, assignments = self._identical_layer_graph(repeats=2)
        arena = BufferArena()
        ex = CompiledExecutor(g, ps, assignments, arena=arena)
        assert ex.arena is arena
        x = np.random.default_rng(2).standard_normal((2, 8, 8, 8)).astype(np.float32)
        ex.run(x)
        assert arena.allocations > 0
