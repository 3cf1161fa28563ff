"""Runtime executors: reference semantics and compiled equivalence."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, no_grad
from repro.compiler.codegen import KernelCache
from repro.core.masking import apply_masks, extract_masks
from repro.core.patterns import PatternSet, enumerate_candidate_patterns
from repro.graph.builder import build_graph
from repro.graph.pass_manager import default_pipeline
from repro.models import build_mobilenet_v2, build_resnet, build_small_cnn, build_vgg
from repro.runtime import CompiledExecutor, InferenceSession, ReferenceExecutor
from repro.utils.rng import make_rng


def _model_outputs(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


@pytest.fixture
def x8():
    return make_rng(2).standard_normal((3, 3, 8, 8)).astype(np.float32)


class TestReferenceExecutor:
    @pytest.mark.parametrize(
        "builder,kwargs",
        [
            (build_small_cnn, {"channels": (8, 16), "in_size": 8}),
            (build_resnet, {"blocks_per_stage": (1, 1)}),
            (build_mobilenet_v2, {}),
        ],
    )
    def test_matches_model_forward(self, builder, kwargs, x8):
        model = builder(**kwargs)
        expected = _model_outputs(model, x8)
        graph = build_graph(model, (3, 8, 8))
        got = ReferenceExecutor(graph).run(x8)
        np.testing.assert_allclose(got, expected, rtol=1e-3, atol=1e-4)

    def test_matches_after_graph_optimization(self, x8):
        model = build_small_cnn(channels=(8, 16), in_size=8)
        model.eval()
        expected = _model_outputs(model, x8)
        graph = build_graph(model, (3, 8, 8))
        default_pipeline().run(graph)
        got = ReferenceExecutor(graph).run(x8)
        np.testing.assert_allclose(got, expected, rtol=1e-3, atol=1e-4)


class TestCompiledExecutor:
    def _pruned_setup(self, x8):
        model = build_small_cnn(channels=(8, 16), in_size=8, seed=7)
        ps = PatternSet(enumerate_candidate_patterns()[:8])
        masks = extract_masks(model, ps, connectivity_rate=2.0)
        apply_masks(model, masks)
        model.eval()
        # assignments for conv layers after pruning
        from repro.core.projections import project_kernel_pattern

        assignments = {}
        for name, module in model.named_modules():
            if isinstance(module, nn.Conv2d):
                _, a = project_kernel_pattern(module.weight.data, ps)
                energy = (module.weight.data.reshape(a.shape[0], a.shape[1], -1) ** 2).sum(axis=2)
                assignments[name] = (a * (energy > 0)).astype(np.int32)
        return model, ps, assignments

    def test_compiled_equals_reference(self, x8):
        model, ps, assignments = self._pruned_setup(x8)
        expected = _model_outputs(model, x8)
        graph = build_graph(model, (3, 8, 8))
        default_pipeline().run(graph)
        conv_nodes = [n.name for n in graph.conv_nodes()]
        graph_assignments = dict(zip(conv_nodes, assignments.values()))
        compiled = CompiledExecutor(graph, ps, graph_assignments)
        got = compiled.run(x8)
        np.testing.assert_allclose(got, expected, rtol=1e-3, atol=1e-3)

    def test_rejects_non_conv_assignment(self, x8):
        model, ps, assignments = self._pruned_setup(x8)
        graph = build_graph(model, (3, 8, 8))
        with pytest.raises(KeyError):
            CompiledExecutor(graph, ps, {"nonexistent": next(iter(assignments.values()))})

    def test_failed_construction_releases_acquired_kernels(self, x8):
        """A bad node after some kernels were compiled (the worker's
        hot-load rollback path) must give those kernels back to the
        shared cache and leave other executors' entries alone."""
        model, ps, assignments = self._pruned_setup(x8)
        graph = build_graph(model, (3, 8, 8))
        default_pipeline().run(graph)
        conv_nodes = [n.name for n in graph.conv_nodes()]
        graph_assignments = dict(zip(conv_nodes, assignments.values()))
        bad = {**graph_assignments, "nonexistent": next(iter(assignments.values()))}
        cache = KernelCache()
        with pytest.raises(KeyError, match="nonexistent"):
            CompiledExecutor(graph, ps, bad, kernel_cache=cache)
        assert len(cache) == 0

        survivor = CompiledExecutor(graph, ps, graph_assignments, kernel_cache=cache)
        assert len(cache) == len(conv_nodes)
        with pytest.raises(KeyError, match="nonexistent"):
            CompiledExecutor(graph, ps, bad, kernel_cache=cache)
        assert len(cache) == len(conv_nodes)
        survivor.release_kernels()
        assert len(cache) == 0
        np.testing.assert_allclose(survivor.run(x8), _model_outputs(model, x8), rtol=1e-3, atol=1e-3)


class TestInferenceSession:
    def test_session_reference_mode(self, x8):
        model = build_small_cnn(channels=(8,), in_size=8)
        expected = _model_outputs(model, x8)
        session = InferenceSession(model, (3, 8, 8))
        np.testing.assert_allclose(session.run(x8), expected, rtol=1e-3, atol=1e-4)

    def test_session_single_sample_promoted(self):
        model = build_small_cnn(channels=(8,), in_size=8)
        session = InferenceSession(model, (3, 8, 8))
        out = session.run(np.zeros((3, 8, 8), dtype=np.float32))
        assert out.shape == (1, 10)

    def test_session_with_pruning_artifacts(self, x8):
        from repro.core import PatDNNPruner, PruningConfig
        from repro.data import DataLoader, make_cifar10_like

        ds = make_cifar10_like(samples_per_class=8, size=8)
        loader = DataLoader(ds, batch_size=16)
        model = build_small_cnn(channels=(8, 16), in_size=8)
        cfg = PruningConfig(num_patterns=6, connectivity_rate=2.0, retrain_epochs=0)
        cfg.admm.iterations = 1
        cfg.admm.epochs_per_iteration = 1
        result = PatDNNPruner(cfg).fit(model, loader)
        expected = _model_outputs(model, x8)
        session = InferenceSession(
            model, (3, 8, 8), pattern_set=result.pattern_set, assignments=result.assignments
        )
        np.testing.assert_allclose(session.run(x8), expected, rtol=1e-3, atol=1e-3)
        assert session.pass_report is not None


def _project_3x3(model, ps):
    """Pattern + connectivity projection of every dense 3x3 conv; returns
    the assignments a compiled session needs (depthwise and 1x1 convs
    stay on the reference kernel)."""
    from repro.core.projections import project_kernel_pattern

    apply_masks(model, extract_masks(model, ps, connectivity_rate=2.0))
    model.eval()
    assignments = {}
    for name, module in model.named_modules():
        if isinstance(module, nn.Conv2d) and module.kernel_size == 3 and module.groups == 1:
            _, a = project_kernel_pattern(module.weight.data, ps)
            energy = (module.weight.data.reshape(a.shape[0], a.shape[1], -1) ** 2).sum(axis=2)
            assignments[name] = (a * (energy > 0)).astype(np.int32)
    return assignments


class TestModelBatchInvariance:
    """Every model zoo topology serves a sample with the same bytes alone
    or inside a batch — MobileNet-V2's grouped (depthwise) and 1x1 convs
    run on the reference conv kernel, so that kernel must be
    batch-invariant too."""

    @pytest.mark.parametrize(
        "builder,kwargs",
        [
            (build_small_cnn, {"channels": (8, 16), "in_size": 8}),
            (build_resnet, {"blocks_per_stage": (1, 1)}),
            (build_mobilenet_v2, {}),
            (build_vgg, {"in_size": 8}),
        ],
        ids=["smallcnn", "resnet", "mobilenet_v2", "vgg"],
    )
    @pytest.mark.parametrize("compiled", [False, True], ids=["reference", "compiled"])
    def test_batched_run_equals_single_runs_bitwise(self, builder, kwargs, compiled):
        model = builder(**kwargs)
        if compiled:
            ps = PatternSet(enumerate_candidate_patterns()[:8])
            session = InferenceSession(model, (3, 8, 8), pattern_set=ps, assignments=_project_3x3(model, ps))
        else:
            session = InferenceSession(model, (3, 8, 8))
        x = make_rng(3).standard_normal((8, 3, 8, 8)).astype(np.float32)
        for n in (1, 3, 8):
            singles = np.concatenate([session.run(x[i : i + 1]) for i in range(n)])
            assert np.array_equal(session.run(x[:n]), singles), f"N={n}"


class TestSessionArtifactValidation:
    """The session must never silently fall back to dense execution."""

    def _artifacts(self):
        model = build_small_cnn(channels=(8, 16), in_size=8, seed=7)
        ps = PatternSet(enumerate_candidate_patterns()[:8])
        masks = extract_masks(model, ps, connectivity_rate=2.0)
        apply_masks(model, masks)
        from repro.core.projections import project_kernel_pattern

        assignments = {}
        for name, module in model.named_modules():
            if isinstance(module, nn.Conv2d):
                _, a = project_kernel_pattern(module.weight.data, ps)
                energy = (module.weight.data.reshape(a.shape[0], a.shape[1], -1) ** 2).sum(axis=2)
                assignments[name] = (a * (energy > 0)).astype(np.int32)
        return model, ps, assignments

    def test_pattern_set_with_empty_assignments_raises(self):
        """Regression: this combination used to silently build a dense
        ReferenceExecutor, masking broken pruning pipelines."""
        model, ps, _ = self._artifacts()
        with pytest.raises(ValueError, match="empty"):
            InferenceSession(model, (3, 8, 8), pattern_set=ps, assignments={})

    def test_pattern_set_without_assignments_raises(self):
        model, ps, _ = self._artifacts()
        with pytest.raises(ValueError, match="missing"):
            InferenceSession(model, (3, 8, 8), pattern_set=ps)

    def test_assignments_without_pattern_set_raises(self):
        model, _, assignments = self._artifacts()
        with pytest.raises(ValueError, match="pattern_set"):
            InferenceSession(model, (3, 8, 8), assignments=assignments)

    def test_both_artifacts_build_compiled_executor(self):
        model, ps, assignments = self._artifacts()
        session = InferenceSession(model, (3, 8, 8), pattern_set=ps, assignments=assignments)
        assert isinstance(session.executor, CompiledExecutor)

    def test_neither_artifact_builds_reference_executor(self):
        model, _, _ = self._artifacts()
        session = InferenceSession(model, (3, 8, 8))
        assert type(session.executor) is ReferenceExecutor


class TestAssignmentMapping:
    """_map_assignments must verify, not guess, when shapes are ambiguous."""

    def _artifacts(self, channels=(8, 16)):
        model = build_small_cnn(channels=channels, in_size=8, seed=7)
        ps = PatternSet(enumerate_candidate_patterns()[:8])
        masks = extract_masks(model, ps, connectivity_rate=2.0)
        apply_masks(model, masks)
        from repro.core.projections import project_kernel_pattern

        assignments = {}
        for name, module in model.named_modules():
            if isinstance(module, nn.Conv2d):
                _, a = project_kernel_pattern(module.weight.data, ps)
                energy = (module.weight.data.reshape(a.shape[0], a.shape[1], -1) ** 2).sum(axis=2)
                assignments[name] = (a * (energy > 0)).astype(np.int32)
        return model, ps, assignments

    def test_same_shaped_consecutive_convs_map_in_order(self, x8):
        """Two consecutive (8, 8) convs: positional mapping + sparsity
        verification together resolve what shape alone cannot."""
        model, ps, assignments = self._artifacts(channels=(8, 8, 8))
        expected = _model_outputs(model, x8)
        session = InferenceSession(model, (3, 8, 8), pattern_set=ps, assignments=assignments)
        np.testing.assert_allclose(session.run(x8), expected, rtol=1e-3, atol=1e-3)

    def test_contradicting_assignment_rejected(self):
        """An assignment whose patterns don't cover any candidate's
        nonzeros cannot be mapped — must raise, not mis-map."""
        model, ps, assignments = self._artifacts()
        bad = dict(assignments)
        key = list(bad)[1]
        # rotate every kernel to a different pattern id than the weights obey
        bad[key] = np.where(bad[key] == 0, 0, bad[key] % len(ps) + 1).astype(np.int32)
        with pytest.raises(ValueError, match="contradict"):
            InferenceSession(model, (3, 8, 8), pattern_set=ps, assignments=bad)

    def test_partially_pruned_model_skips_unpruned_same_shape_conv(self, x8):
        """Only the last of three convs is pruned; the two dense convs in
        front (one of them same-shaped) must be passed over, not block
        the mapping."""
        from repro.core.projections import project_kernel_pattern

        model = build_small_cnn(channels=(8, 8, 8), in_size=8, seed=7)
        ps = PatternSet(enumerate_candidate_patterns()[:8])
        convs = [(n, m) for n, m in model.named_modules() if isinstance(m, nn.Conv2d)]
        name, last = convs[-1]
        w, a = project_kernel_pattern(last.weight.data, ps)
        last.weight.data = w
        model.eval()
        expected = _model_outputs(model, x8)
        session = InferenceSession(
            model, (3, 8, 8), pattern_set=ps, assignments={name: a.astype(np.int32)}
        )
        assert isinstance(session.executor, CompiledExecutor)
        assert len(session.executor._compiled) == 1
        np.testing.assert_allclose(session.run(x8), expected, rtol=1e-3, atol=1e-3)

    def test_out_of_range_pattern_ids_rejected_cleanly(self):
        """Assignments from a larger pattern universe must raise the
        diagnostic ValueError, not a raw IndexError from masks_for."""
        model, ps, assignments = self._artifacts()
        bad = dict(assignments)
        key = list(bad)[0]
        bad[key] = np.full_like(bad[key], len(ps) + 5)
        with pytest.raises(ValueError, match="pattern ids span"):
            InferenceSession(model, (3, 8, 8), pattern_set=ps, assignments=bad)

    def test_unmappable_shape_rejected(self):
        model, ps, assignments = self._artifacts()
        bad = dict(assignments)
        bad["ghost"] = np.ones((99, 99), np.int32)
        with pytest.raises(ValueError, match="could not map"):
            InferenceSession(model, (3, 8, 8), pattern_set=ps, assignments=bad)

    def test_dense_weights_with_pruned_assignment_rejected(self):
        """Pruning artifacts against a model whose weights were never
        actually pruned (e.g. reloaded dense checkpoint) must raise."""
        model, ps, assignments = self._artifacts()
        dense = build_small_cnn(channels=(8, 16), in_size=8, seed=123)  # unpruned
        with pytest.raises(ValueError, match="contradict"):
            InferenceSession(dense, (3, 8, 8), pattern_set=ps, assignments=assignments)


def _reference_mismatch(weight, assignment, pattern_set):
    """The sparsity check spelled out on dense boolean masks."""
    lo, hi = int(assignment.min()), int(assignment.max())
    if lo < 0 or hi > len(pattern_set):
        return (
            f"pattern ids span {lo}..{hi} but this pattern set has only "
            f"{len(pattern_set)} patterns (ids 1..{len(pattern_set)}, 0 = pruned)"
        )
    allowed = pattern_set.masks_for(assignment) != 0
    allowed[assignment == 0] = False
    outside = (weight != 0) & ~allowed
    if not outside.any():
        return None
    f, c = np.argwhere(outside.reshape(*assignment.shape, -1).any(axis=-1))[0]
    n_bad = int(outside.sum())
    return (
        f"{n_bad} nonzero weight entr{'y lies' if n_bad == 1 else 'ies lie'} "
        f"outside the assigned pattern(s), first at kernel "
        f"(filter {int(f)}, channel {int(c)})"
    )


class TestSparsityMismatch:
    """InferenceSession._sparsity_mismatch: verdict and message (count,
    first kernel) exactly as the dense-mask definition gives them."""

    check = staticmethod(InferenceSession._sparsity_mismatch)

    def _layers(self):
        model, ps, assignments = TestAssignmentMapping()._artifacts(channels=(8, 16, 16))
        return model, ps, assignments

    def _pruned_weights(self, model):
        return [m.weight.data for m in model.modules() if isinstance(m, nn.Conv2d)]

    def test_consistent_layers_pass(self):
        model, ps, assignments = self._layers()
        for w, a in zip(self._pruned_weights(model), assignments.values()):
            assert self.check(w, a, ps) is None
            assert _reference_mismatch(w, a, ps) is None

    def test_bn_folded_layers_pass(self):
        model, ps, assignments = self._layers()
        model.eval()
        graph = build_graph(model, (3, 8, 8))
        default_pipeline().run(graph)
        folded = [n.params["weight"] for n in graph.conv_nodes()]
        assert any(
            not np.array_equal(w, m) for w, m in zip(folded, self._pruned_weights(model))
        ), "BN folding should have rescaled the conv weights"
        for w, a in zip(folded, assignments.values()):
            assert self.check(w, a, ps) is None

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("where", ["empty_kernel", "outside_pattern", "mixed"])
    def test_violations_match_the_definition(self, seed, where):
        model, ps, assignments = self._layers()
        rng = make_rng(seed)
        for w, a in zip(self._pruned_weights(model), assignments.values()):
            w = w.copy()
            allowed = ps.masks_for(a) != 0
            allowed[a == 0] = False
            empty = (a == 0)[:, :, None, None] & ~allowed
            free = ~allowed & ~empty
            pool = {"empty_kernel": empty, "outside_pattern": free, "mixed": ~allowed}[where]
            spots = np.argwhere(pool)
            picks = spots[rng.choice(len(spots), size=int(rng.integers(1, 6)), replace=False)]
            w[tuple(picks.T)] = rng.choice([-0.5, 1e-30, 3.0], size=len(picks))
            got = self.check(w, a, ps)
            assert got is not None
            assert got == _reference_mismatch(w, a, ps)

    @pytest.mark.parametrize("ids", [-1, 9, 13])
    def test_out_of_range_ids_match_the_definition(self, ids):
        model, ps, assignments = self._layers()
        w, a = self._pruned_weights(model)[0], next(iter(assignments.values())).copy()
        a[0, 0] = ids
        got = self.check(w, a, ps)
        assert got is not None and "pattern ids span" in got
        assert got == _reference_mismatch(w, a, ps)
