"""Code generation correctness + LRE load accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd.im2col import im2col
from repro.compiler.codegen import generate_kernel, generate_source
from repro.compiler.lre import count_register_loads, loads_without_patterns
from repro.compiler.storage import FKWLayer
from repro.core.patterns import PatternSet, enumerate_candidate_patterns
from repro.core.projections import project_connectivity, project_kernel_pattern


def _ref_conv(x, w, stride=1, pad=1):
    kh = w.shape[2]
    col, ho, wo = im2col(x[None], kh, kh, stride, pad)
    return (w.reshape(w.shape[0], -1) @ col[0]).reshape(w.shape[0], ho, wo)


def _fkw(seed=0, f=8, c=5, k=6, keep_frac=0.5):
    rng = np.random.default_rng(seed)
    ps = PatternSet(enumerate_candidate_patterns()[:k])
    w = rng.standard_normal((f, c, 3, 3)).astype(np.float32)
    w, a = project_kernel_pattern(w, ps)
    w, m = project_connectivity(w, max(1, int(f * c * keep_frac)))
    return w, FKWLayer.from_pruned(w, a * m, ps), rng


OPT_LEVELS = ["no-opt", "reorder", "lre", "gemm", "native"]


class TestCodegenCorrectness:
    @pytest.mark.parametrize("opt_level", OPT_LEVELS)
    def test_matches_reference(self, opt_level):
        w, fkw, rng = _fkw()
        x = rng.standard_normal((5, 9, 9)).astype(np.float32)
        fn = generate_kernel(fkw, 1, 1, opt_level)
        np.testing.assert_allclose(fn(x), _ref_conv(x, w), rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("opt_level", OPT_LEVELS)
    def test_stride2(self, opt_level):
        w, fkw, rng = _fkw(seed=1)
        x = rng.standard_normal((5, 9, 9)).astype(np.float32)
        fn = generate_kernel(fkw, 2, 1, opt_level)
        np.testing.assert_allclose(fn(x), _ref_conv(x, w, 2, 1), rtol=1e-4, atol=1e-4)

    def test_variants_agree(self):
        w, fkw, rng = _fkw(seed=2)
        x = rng.standard_normal((5, 7, 7)).astype(np.float32)
        outs = [generate_kernel(fkw, 1, 1, lvl)(x) for lvl in OPT_LEVELS]
        for a, b in zip(outs, outs[1:]):
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5)

    def test_bad_input_shape_raises(self):
        w, fkw, rng = _fkw()
        fn = generate_kernel(fkw)
        with pytest.raises(ValueError):
            fn(np.zeros((3, 9, 9), dtype=np.float32))

    def test_bad_opt_level_raises(self):
        w, fkw, _ = _fkw()
        with pytest.raises(ValueError):
            generate_kernel(fkw, opt_level="super")

    @pytest.mark.parametrize("opt_level", OPT_LEVELS)
    def test_fully_pruned_filter_outputs_zero(self, opt_level):
        rng = np.random.default_rng(3)
        ps = PatternSet(enumerate_candidate_patterns()[:4])
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        w, a = project_kernel_pattern(w, ps)
        a[2, :] = 0
        w[2] = 0.0
        fkw = FKWLayer.from_pruned(w, a, ps)
        out = generate_kernel(fkw, opt_level=opt_level)(rng.standard_normal((3, 6, 6)).astype(np.float32))
        assert np.all(out[2] == 0)


class TestBatchedKernels:
    """The batched contract: (N, C, H, W) in, (N, F, Ho, Wo) out."""

    @pytest.mark.parametrize("opt_level", OPT_LEVELS)
    def test_batch_equals_per_sample(self, opt_level):
        w, fkw, rng = _fkw(seed=8)
        x = rng.standard_normal((3, 5, 9, 9)).astype(np.float32)
        fn = generate_kernel(fkw, 1, 1, opt_level)
        batched = fn(x)
        per_sample = np.stack([fn(sample) for sample in x])
        assert batched.shape == per_sample.shape
        np.testing.assert_allclose(batched, per_sample, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("opt_level", OPT_LEVELS)
    def test_padding_zero_no_copy_path(self, opt_level):
        w, fkw, rng = _fkw(seed=9)
        x = rng.standard_normal((2, 5, 9, 9)).astype(np.float32)
        got = generate_kernel(fkw, 1, 0, opt_level)(x)
        expected = np.stack([_ref_conv(s, w, 1, 0) for s in x])
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("opt_level", OPT_LEVELS)
    def test_fused_bias_activation(self, opt_level):
        w, fkw, rng = _fkw(seed=10)
        bias = rng.standard_normal(w.shape[0]).astype(np.float32)
        x = rng.standard_normal((2, 5, 9, 9)).astype(np.float32)
        fn = generate_kernel(fkw, 1, 1, opt_level, bias=bias, activation="relu")
        plain = generate_kernel(fkw, 1, 1, opt_level)(x)
        expected = np.maximum(plain + bias.reshape(1, -1, 1, 1), 0.0)
        np.testing.assert_allclose(fn(x), expected, rtol=1e-5, atol=1e-6)

    def test_bad_activation_raises(self):
        _, fkw, _ = _fkw()
        with pytest.raises(ValueError):
            generate_kernel(fkw, activation="gelu")

    def test_bad_batched_shape_raises(self):
        _, fkw, _ = _fkw()
        fn = generate_kernel(fkw)
        with pytest.raises(ValueError):
            fn(np.zeros((2, 3, 9, 9), dtype=np.float32))  # wrong channel count


class TestGeneratedSource:
    def test_no_opt_contains_switch(self):
        _, fkw, _ = _fkw()
        src = generate_source(fkw, "no-opt")
        assert "switch (style[oc][ic])" in src
        assert "case 0" in src

    def test_reorder_is_branchless(self):
        _, fkw, _ = _fkw()
        src = generate_source(fkw, "reorder")
        assert "switch" not in src
        assert "stride[" in src

    def test_lre_reuses_row_registers(self):
        _, fkw, _ = _fkw()
        src = generate_source(fkw, "lre")
        assert "vload" in src and "vfma" in src
        assert "unroll_oc" in src

    def test_header_mentions_format(self):
        _, fkw, _ = _fkw()
        assert "format=FKW" in generate_source(fkw, "lre")

    def test_gemm_reuses_slices_across_filters(self):
        """im2col over the U union coordinates x C channels, then one
        sgemm per sample."""
        _, fkw, _ = _fkw()
        src = generate_source(fkw, "gemm")
        union = {coord for pid in set(fkw.pattern_ids.tolist()) for coord in fkw.pattern_set[pid].coords}
        c = fkw.shape[1]
        assert "pattern-union" in src
        assert f"im2col: {len(union)} union coordinates x {c} channels" in src
        assert src.count("vload_shifted(input[n]") == len(union)
        assert src.count("sgemm(") == 1
        lines = src.splitlines()
        loop = lines.index("for (n = 0; n < batch; n += 1) {")
        sgemm = next(i for i, line in enumerate(lines) if "sgemm(" in line)
        assert loop < sgemm < lines.index("}", loop)


class TestLRECounts:
    def test_ordering_invariant(self):
        _, fkw, _ = _fkw(seed=4)
        loads = count_register_loads(fkw, out_hw=8)
        assert loads.no_lre >= loads.kernel_lre >= loads.filter_lre > 0

    def test_no_lre_is_two_per_entry(self):
        _, fkw, _ = _fkw(seed=5)
        loads = count_register_loads(fkw, out_hw=8, simd_width=4)
        out_vectors = 8 * 8 // 4
        assert loads.no_lre == 2 * fkw.nnz * out_vectors

    def test_kernel_lre_counts_distinct_rows(self):
        """Hand-checked: single kernel with a 2-row pattern -> 2 loads/vec."""
        ps = PatternSet([enumerate_candidate_patterns()[0]])  # positions (4,0,1,2): rows {0,1}
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        a = np.ones((1, 1), dtype=np.int32)
        fkw = FKWLayer.from_pruned(w, a, ps)
        loads = count_register_loads(fkw, out_hw=4, simd_width=4)
        assert loads.kernel_lre == 2 * (4 * 4 // 4)

    def test_filter_lre_shares_across_unroll_group(self):
        """Identical filters in one unroll group pay loads once."""
        ps = PatternSet([enumerate_candidate_patterns()[0]])
        w = np.zeros((4, 1, 3, 3), dtype=np.float32)
        w[:, 0, 1, 1] = 1.0
        a = np.ones((4, 1), dtype=np.int32)
        fkw = FKWLayer.from_pruned(w, a, ps)
        loads = count_register_loads(fkw, out_hw=4, simd_width=4, unroll_oc=4)
        assert loads.filter_lre == loads.kernel_lre // 4

    def test_scaling_with_output_size(self):
        _, fkw, _ = _fkw(seed=6)
        small = count_register_loads(fkw, out_hw=8)
        large = count_register_loads(fkw, out_hw=16)
        assert large.no_lre == 4 * small.no_lre

    def test_loads_without_patterns_exceeds_fkw(self):
        _, fkw, _ = _fkw(seed=7)
        pattern_oblivious = loads_without_patterns(fkw.nnz, 8)
        loads = count_register_loads(fkw, out_hw=8)
        assert pattern_oblivious > loads.no_lre


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_codegen_property_random_layers(seed):
    """Property: compiled kernels equal the im2col reference conv."""
    rng = np.random.default_rng(seed)
    f = int(rng.integers(2, 6))
    c = int(rng.integers(2, 5))
    ps = PatternSet(enumerate_candidate_patterns()[: int(rng.integers(2, 9))])
    w = rng.standard_normal((f, c, 3, 3)).astype(np.float32)
    w, a = project_kernel_pattern(w, ps)
    keep = max(1, int(f * c * 0.6))
    w, m = project_connectivity(w, keep)
    fkw = FKWLayer.from_pruned(w, a * m, ps)
    x = rng.standard_normal((c, 6, 6)).astype(np.float32)
    got = generate_kernel(fkw, 1, 1, "lre")(x)
    np.testing.assert_allclose(got, _ref_conv(x, w), rtol=1e-3, atol=1e-3)
