"""The native FKW conv kernel: correctness sweep over every opt level,
the documented per-element operation order (byte for byte), writes
confined to its own buffers, bitwise batch invariance, reentrancy, the
build cache, the no-compiler fallback, and reference-counted
kernel-cache entries."""

import dataclasses
import logging
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import native
from repro.compiler.codegen import _OPT_LEVELS, KernelCache, generate_kernel, generate_source
from repro.compiler.reorder import filter_kernel_reorder
from repro.compiler.storage import FKWLayer
from repro.core.patterns import PatternSet, enumerate_candidate_patterns
from repro.core.projections import project_connectivity, project_kernel_pattern
from repro.runtime import BufferArena
from repro.runtime.ops import conv2d

pytestmark = pytest.mark.skipif(native.library() is None, reason="no C compiler for the native kernel")


def _layer(rng, f, c, num_patterns, keep_frac=0.4, pruned_filters=()):
    """Kaiming-scaled pattern + connectivity pruned (F, C, 3, 3) weights."""
    ps = PatternSet(enumerate_candidate_patterns()[:num_patterns])
    w = rng.standard_normal((f, c, 3, 3)).astype(np.float32)
    w *= np.float32(np.sqrt(2.0 / (c * 9)))
    w, a = project_kernel_pattern(w, ps)
    w, m = project_connectivity(w, max(1, int(f * c * keep_frac)))
    a = a * m
    for i in pruned_filters:
        a[i] = 0
        w[i] = 0.0
    return w, a.astype(np.int32), ps


def _activate(y, activation):
    if activation == "relu":
        return np.maximum(y, 0.0)
    if activation == "relu6":
        return np.clip(y, 0.0, 6.0)
    return y


@settings(max_examples=25, deadline=None)
@given(
    f=st.integers(1, 64),
    c=st.integers(1, 64),
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    stride=st.sampled_from([1, 2]),
    padding=st.integers(0, 2),
    num_patterns=st.integers(2, 12),
    pruning=st.sampled_from(["some", "filters", "layer"]),
    activation=st.sampled_from([None, "relu", "relu6"]),
    layout=st.sampled_from(["float32", "float64", "strided"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_opt_level_matches_dense_conv(
    f, c, h, w, stride, padding, num_patterns, pruning, activation, layout, seed
):
    """All opt levels equal ``ops.conv2d`` on the dense pruned weights —
    from 1x1 outputs up, any H != W, fully pruned filters and layers,
    float64 and non-contiguous inputs."""
    h, w = max(h, 3 - 2 * padding), max(w, 3 - 2 * padding)  # at least a 1x1 output
    rng = np.random.default_rng(seed)
    pruned = {"some": (), "filters": tuple(range(0, f, 3)), "layer": tuple(range(f))}[pruning]
    weight, assignment, ps = _layer(rng, f, c, num_patterns, pruned_filters=pruned)
    fkw = FKWLayer.from_pruned(weight, assignment, ps)
    bias = (rng.standard_normal(f) * 0.1).astype(np.float32)
    x = rng.standard_normal((2, c, h, w * (2 if layout == "strided" else 1)))
    x = x[..., ::2] if layout == "strided" else x
    x = x.astype(np.float32) if layout != "float64" else x
    expected = _activate(conv2d(x.astype(np.float32), weight, bias, stride, padding), activation)
    for level in _OPT_LEVELS:
        got = generate_kernel(fkw, stride, padding, level, bias=bias, activation=activation)(x)
        assert got.dtype == np.float32 and got.shape == expected.shape, level
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-4, err_msg=level)


def _emulate_native(fkw, x, stride, padding, bias, activation):
    """Pure-numpy float32 replay of the per-element operation sequence
    documented in ``fkw_conv.c``: acc = 0; per kernel in FKW order
    acc += ((w0*a + w1*b) + (w2*c + w3*d)) (other entry counts: s = w0*a,
    s += wt*tap, acc += s); + bias (0.0 without one); the activation as
    ``v < 0 ? 0 : v`` so that -0.0 survives as it does in C.  Every numpy
    op here rounds to float32, so no FMA or reassociation can hide."""
    f, _, kh, kw = fkw.shape
    n, _, h, w = x.shape
    ho, wo = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    xp = np.pad(x.astype(np.float32), pad)
    zero, six = np.float32(0.0), np.float32(6.0)
    out = np.empty((n, f, ho, wo), np.float32)
    for pos in range(f):
        acc = np.zeros((n, ho, wo), np.float32)
        for k in range(*fkw.filter_slice(pos).indices(fkw.num_kernels)):
            wk = fkw.weights[k]
            coords = fkw.pattern_set[int(fkw.pattern_ids[k])].coords
            t = [xp[:, fkw.index[k], r : r + stride * ho : stride, cc : cc + stride * wo : stride]
                 for r, cc in coords]
            if len(t) == 4:
                acc = acc + ((wk[0] * t[0] + wk[1] * t[1]) + (wk[2] * t[2] + wk[3] * t[3]))
            else:
                s = wk[0] * t[0]
                for i in range(1, len(t)):
                    s = s + wk[i] * t[i]
                acc = acc + s
        oc = int(fkw.reorder[pos])
        v = acc + (bias[oc] if bias is not None else zero)
        if activation == "relu":
            v = np.where(v < zero, zero, v)
        elif activation == "relu6":
            v = np.where(v < zero, zero, np.where(v > six, six, v))
        out[:, oc] = v
    return out


class _CanaryArena:
    """Arena stand-in that hands out every buffer embedded in a larger
    NaN-filled block, so a write outside the buffer (or an output element
    never written) shows."""

    MARGIN = 64  # floats on each side: more than one 64-byte vector

    def __init__(self):
        self.blocks = []

    def acquire(self, shape, dtype=np.float32, zero=False):
        size = int(np.prod(shape))
        block = np.full(size + 2 * self.MARGIN, np.nan, dtype)
        self.blocks.append((block, size))
        buf = block[self.MARGIN : self.MARGIN + size].reshape(shape)
        if zero:
            buf.fill(0)
        return buf

    def release(self, arr):
        pass

    def margins_intact(self):
        m = self.MARGIN
        return all(np.isnan(b[:m]).all() and np.isnan(b[m + size :]).all() for b, size in self.blocks)


@st.composite
def _conv_cases(draw):
    """A pruned layer (with FKR), an input and the fused epilogue: H and W
    up to 40, stride 1 and 2, padding 0-2, 3-5 entries per pattern, bias
    on and off, every activation.  Output widths favour the kernel's block
    boundaries (4, 8, 16 and 32 lanes, four-row blocks) and their tails."""
    stride, padding = draw(st.sampled_from([1, 2])), draw(st.integers(0, 2))

    def extent(out):  # an input extent (<= 40) giving `out` outputs
        return max(1, (out - 1) * stride + 3 - 2 * padding + draw(st.integers(0, stride - 1)))

    widths = st.sampled_from([1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 24, 31, 32, 33])
    h = extent(draw(st.integers(1, 19 if stride == 2 else 38)))
    w = extent(draw(st.one_of(widths, st.integers(1, 38)).filter(lambda o: o * stride <= 38)))
    f, c = draw(st.integers(1, 20)), draw(st.integers(1, 12))
    entries = draw(st.sampled_from([4, 4, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ps = PatternSet(enumerate_candidate_patterns(entries=entries)[: draw(st.integers(2, 8))])
    weight = rng.standard_normal((f, c, 3, 3)).astype(np.float32) * np.float32(np.sqrt(2 / (9 * c)))
    weight, assignment = project_kernel_pattern(weight, ps)
    weight, mask = project_connectivity(weight, max(1, int(f * c * 0.4)))
    assignment = (assignment * mask).astype(np.int32)
    fkw = FKWLayer.from_pruned(weight, assignment, ps, filter_kernel_reorder(assignment))
    bias = (rng.standard_normal(f) * 0.1).astype(np.float32) if draw(st.booleans()) else None
    activation = draw(st.sampled_from([None, "relu", "relu6"]))
    x = rng.standard_normal((draw(st.integers(1, 3)), c, h, w)).astype(np.float32)
    return fkw, x, stride, padding, bias, activation


@settings(max_examples=40, deadline=None)
@given(case=_conv_cases())
def test_native_follows_the_documented_operation_order(case):
    """``native`` equals the float32 emulation of its documented
    operation sequence byte for byte — so a block rewrite that reorders a
    sum fails here even when it stays within dense-conv tolerance."""
    fkw, x, stride, padding, bias, activation = case
    got = generate_kernel(fkw, stride, padding, "native", bias=bias, activation=activation)(x)
    want = _emulate_native(fkw, x, stride, padding, bias, activation)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(case=_conv_cases())
def test_native_writes_only_its_own_buffers(case):
    """With the output and the kernel scratch (the padded sample, or the
    im2col columns and their gather table) embedded in NaN canaries, the
    margins survive the call and every output element is written."""
    fkw, x, stride, padding, bias, activation = case
    arena = _CanaryArena()
    got = generate_kernel(fkw, stride, padding, "native", bias=bias, activation=activation)(
        x, arena=arena)
    assert arena.margins_intact()
    assert not np.isnan(got).any()


@pytest.mark.parametrize("use_arena", [False, True])
@pytest.mark.parametrize(
    "hw,stride,padding",
    [(32, 1, 1), (9, 1, 1), (4, 1, 1), (2, 1, 1), (9, 2, 1), (7, 1, 0),
     (16, 1, 1), (8, 1, 1), pytest.param((6, 8), 1, 1, id="6x8-1-1")],
)
def test_native_bitwise_batch_invariant(hw, stride, padding, use_arena):
    """A sample's bytes do not depend on the batch it runs in (N = 1..9),
    whichever span layout the kernel picks for the layer shape — 16- and
    8-wide rows, and four-row blocks with a row tail, included."""
    h, w = hw if isinstance(hw, tuple) else (hw, hw)
    rng = np.random.default_rng(h * 10 + stride)
    weight, assignment, ps = _layer(rng, 24, 16, 8)
    fkw = FKWLayer.from_pruned(weight, assignment, ps)
    bias = (rng.standard_normal(24) * 0.1).astype(np.float32)
    fn = generate_kernel(fkw, stride, padding, "native", bias=bias, activation="relu")
    arena = BufferArena() if use_arena else None
    x = rng.standard_normal((9, 16, h, w)).astype(np.float32)
    singles = [fn(x[i : i + 1], arena=arena)[0].copy() for i in range(9)]
    for n in range(1, 10):
        batched = fn(x[:n], arena=arena)
        for i in range(n):
            assert np.array_equal(batched[i], singles[i]), f"N={n}, sample {i}"


def test_native_accepts_read_only_input():
    """A read-only input (e.g. a frame decoded straight from a transport
    buffer) runs and gives the writable input's bytes."""
    rng = np.random.default_rng(6)
    weight, assignment, ps = _layer(rng, 8, 4, 6)
    fn = generate_kernel(FKWLayer.from_pruned(weight, assignment, ps), 1, 1, "native")
    x = rng.standard_normal((2, 4, 9, 9)).astype(np.float32)
    frozen = x.copy()
    frozen.setflags(write=False)
    for arena in (None, BufferArena()):
        assert fn(frozen, arena=arena).tobytes() == fn(x, arena=arena).tobytes()


def test_native_empty_batch_matches_gemm():
    rng = np.random.default_rng(4)
    weight, assignment, ps = _layer(rng, 6, 3, 4)
    fkw = FKWLayer.from_pruned(weight, assignment, ps)
    x = np.zeros((0, 3, 5, 5), np.float32)
    for arena in (None, BufferArena()):
        got = generate_kernel(fkw, 1, 1, "native")(x, arena=arena)
        assert got.shape == generate_kernel(fkw, 1, 1, "gemm")(x).shape == (0, 6, 5, 5)


def test_native_is_reentrant_across_threads():
    """Concurrent calls (ctypes drops the GIL) share no scratch: every
    thread gets exactly the single-threaded bytes."""
    rng = np.random.default_rng(5)
    weight, assignment, ps = _layer(rng, 32, 32, 8)
    fkw = FKWLayer.from_pruned(weight, assignment, ps)
    fns = {hw: generate_kernel(fkw, 1, 1, "native") for hw in (16, 4)}
    inputs = {hw: rng.standard_normal((3, 32, hw, hw)).astype(np.float32) for hw in fns}
    expected = {hw: fns[hw](inputs[hw]) for hw in fns}
    arena = BufferArena()
    mismatches: list[int] = []

    def worker(hw):
        for _ in range(40):
            if not np.array_equal(fns[hw](inputs[hw], arena=arena), expected[hw]):
                mismatches.append(hw)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(hw,)) for hw in (16, 4) * 4]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert mismatches == []


def test_native_keeps_no_dense_weight_matrix():
    """The native closure holds the FKW arrays, not gemm's (F, U*C) matrix."""
    rng = np.random.default_rng(2)
    weight, assignment, ps = _layer(rng, 64, 64, 8, keep_frac=0.28)
    fkw = FKWLayer.from_pruned(weight, assignment, ps)
    fn = generate_kernel(fkw, 1, 1, "native")
    held = sum(arr.nbytes for arr in fn.native_arrays.values())
    assert held < 0.5 * weight.nbytes
    assert fn.native_arrays["weights"].size == fkw.nnz


def test_generate_source_native_is_the_c_that_runs():
    rng = np.random.default_rng(3)
    weight, assignment, ps = _layer(rng, 8, 5, 6)
    src = generate_source(FKWLayer.from_pruned(weight, assignment, ps), "native")
    assert "opt=native" in src.splitlines()[1]
    assert src.endswith(native.SOURCE.read_text())
    assert "void fkw_conv(const fkw_layer *L" in src


def test_build_cache_lives_outside_the_package():
    path = native.library_path()
    assert path is not None and path.exists()
    package_root = Path(native.__file__).resolve().parents[2]
    assert package_root not in path.resolve().parents
    assert path.name.startswith("fkw_conv-") and path.suffix == ".so"


def test_cache_dir_skips_directories_others_can_write(tmp_path, monkeypatch):
    """Code is loaded from the cache, so a directory another user could
    write a library into is never used."""
    shared = tmp_path / "xdg" / "patdnn-repro"
    shared.mkdir(parents=True)
    shared.chmod(0o777)
    (tmp_path / "tmp").mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(native.tempfile, "gettempdir", lambda: str(tmp_path / "tmp"))
    assert native._cache_dir() == tmp_path / "tmp" / f"patdnn-repro-{os.getuid()}"


def test_fallback_serves_gemm_with_one_warning(monkeypatch, caplog, tmp_path):
    """When the library cannot be built, 'native' resolves to the numpy
    'gemm' closures — bitwise the explicit gemm outputs — and the process
    logs exactly one warning however many kernels are generated."""
    from repro.runtime.cluster import projected_smallcnn_spec

    spec = projected_smallcnn_spec(str(tmp_path / "m.npz"), opt_level="native")
    with dataclasses.replace(spec, opt_level="gemm").build() as gemm_session:
        x = np.random.default_rng(0).standard_normal((5, *spec.input_shape)).astype(np.float32)
        expected = gemm_session.run(x)

    monkeypatch.setattr(native, "_loader", native._Loader())
    monkeypatch.setattr(native, "_compiler", lambda: None)
    with caplog.at_level(logging.WARNING, logger="repro.compiler.native"):
        sessions = [spec.build(), spec.build(kernel_cache=KernelCache())]
    warnings = [r for r in caplog.records if r.name == "repro.compiler.native"]
    assert len(warnings) == 1 and "gemm" in warnings[0].getMessage()
    assert not native.loaded()
    for session in sessions:
        assert all(not hasattr(fn, "native_arrays") for fn in session.executor._compiled.values())
        assert np.array_equal(session.run(x), expected)
        session.close()


class TestKernelCacheRefcount:
    def _fkw(self, seed):
        weight, assignment, ps = _layer(np.random.default_rng(seed), 8, 6, 6)
        return FKWLayer.from_pruned(weight, assignment, ps)

    def test_entry_evicted_with_its_last_user(self):
        cache = KernelCache()
        fkw = self._fkw(0)
        k1, fn1 = cache.acquire(fkw, 1, 1, "native")
        k2, fn2 = cache.acquire(fkw, 1, 1, "native")
        assert k1 == k2 and fn1 is fn2 and len(cache) == 1 and cache.hits == 1
        cache.release(k1)
        assert len(cache) == 1
        cache.release(k2)
        assert len(cache) == 0
        cache.release(k2)  # releasing an evicted key is a no-op
        assert len(cache) == 0

    def test_closed_session_releases_but_still_runs(self, tmp_path):
        from repro.runtime.cluster import projected_smallcnn_spec

        spec = projected_smallcnn_spec(str(tmp_path / "m.npz"))
        cache = KernelCache()
        x = np.random.default_rng(1).standard_normal((2, *spec.input_shape)).astype(np.float32)
        keep = spec.build(kernel_cache=cache)
        before = len(cache)
        session = spec.build(kernel_cache=cache)  # same weights: shares every entry
        expected = session.run(x)
        session.close()
        session.close()  # idempotent: releases once
        assert len(cache) == before
        assert np.array_equal(session.run(x), expected)
        keep.close()
        assert len(cache) == 0
