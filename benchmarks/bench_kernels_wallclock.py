"""Wall-clock benchmarks of the *actual generated kernels*.

Everything else in this suite times the cost model; this module times
the executable conv closures the code generator produces, on the bench
VGG's layer shapes (one ``C -> C`` 3x3 conv per plane size 32, 16, 8, 4
and 2, batch 1, pruned by the bench recipe: 8 mined patterns,
connectivity 3.6):

* ``native`` — the production C kernel over the FKW arrays;
* ``gemm`` — the numpy pattern-union im2col fallback;
* ``dense`` — one im2col + one BLAS call on the *unpruned* weights, the
  baseline a dense framework would run.

``test_kernel_rungs`` prints microseconds per call (best of
``REPEATS``) and the sparsity dividend ``dense / native`` per layer.  It
asserts correctness only — never a timing ratio, which a noisy host
would turn into a flaky gate.  For a single-thread dividend run it with
``OPENBLAS_NUM_THREADS=1`` (the native kernel is single-threaded)::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_kernels_wallclock.py -q -o python_files='bench_*.py'
"""

import os
import time

import numpy as np
import pytest

from repro.autograd.im2col import im2col
from repro.compiler.codegen import generate_kernel
from repro.compiler.compile import prune_spec_layer
from repro.compiler.storage import FKWLayer
from repro.core.patterns import mine_pattern_set
from repro.models.spec import ConvSpec
from repro.runtime import BufferArena
from repro.runtime.ops import conv2d
from repro.utils.rng import make_rng

# (channels, plane) of the bench VGG (width 0.5, 32x32 input): the
# C -> C conv of each stage
LAYERS = [(32, 32), (64, 16), (128, 8), (256, 4), (256, 2)]
REPEATS = 100


@pytest.fixture(scope="module")
def layers():
    built = []
    for channels, hw in LAYERS:
        spec = ConvSpec(f"conv{channels}@{hw}", channels, channels, 3, padding=1, in_hw=hw)
        rng = make_rng(hw)
        dense = spec.make_weights(rng)
        ps = mine_pattern_set([dense], k=8)
        pruned, assignment = prune_spec_layer(spec, ps, 3.6, rng, weights=dense)
        fkw = FKWLayer.from_pruned(pruned, assignment, ps)
        x = rng.standard_normal((1, channels, hw, hw)).astype(np.float32)
        built.append((spec, dense, pruned, fkw, x))
    return built


def _dense_gemm(weight: np.ndarray):
    """One im2col + one BLAS call on the unpruned (F, C, 3, 3) weights."""
    matrix = weight.reshape(weight.shape[0], -1)

    def fn(x: np.ndarray) -> np.ndarray:
        col, ho, wo = im2col(x, 3, 3, 1, 1)
        return (matrix @ col[0]).reshape(1, -1, ho, wo)

    return fn


def _best_us(fn, x, arena=None) -> float:
    fn(x) if arena is None else arena.release(fn(x, arena=arena))  # warm-up
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn(x) if arena is None else fn(x, arena=arena)
        best = min(best, time.perf_counter() - t0)
        if arena is not None:
            arena.release(out)
    return best * 1e6


def test_kernel_rungs(layers):
    """native / gemm / dense GEMM per layer, with the sparsity dividend."""
    rows = []
    for spec, dense, pruned, fkw, x in layers:
        native = generate_kernel(fkw, 1, 1, "native")
        gemm = generate_kernel(fkw, 1, 1, "gemm")
        dense_fn = _dense_gemm(dense)
        expected = conv2d(x, pruned, None, 1, 1)
        np.testing.assert_allclose(native(x), expected, rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(gemm(x), expected, rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(dense_fn(x), conv2d(x, dense, None, 1, 1), rtol=1e-4, atol=1e-4)
        arena = BufferArena()
        us = {
            "native": _best_us(native, x, arena),
            "gemm": _best_us(gemm, x, arena),
            "dense": _best_us(dense_fn, x),
        }
        rows.append((spec.name, fkw.nnz / dense.size, us))
    print(f"\nkernel rungs, batch 1, best of {REPEATS} "
          f"(OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')})")
    print(f"{'layer':14s} {'kept':>6s} {'native us':>10s} {'gemm us':>10s} {'dense us':>10s} {'dividend':>9s}")
    for name, kept, us in rows:
        print(f"{name:14s} {kept:6.1%} {us['native']:10.1f} {us['gemm']:10.1f} "
              f"{us['dense']:10.1f} {us['dense'] / us['native']:8.2f}x")


@pytest.mark.parametrize("opt_level", ["no-opt", "reorder", "lre", "gemm", "native"])
def test_generated_kernel_wallclock(benchmark, layers, opt_level):
    """pytest-benchmark statistics for every opt level on the 16x16 layer."""
    spec, _, pruned, fkw, x = layers[1]
    fn = generate_kernel(fkw, 1, 1, opt_level)
    result = benchmark(fn, x)
    assert result.shape == (1, spec.out_channels, spec.out_hw, spec.out_hw)
    np.testing.assert_allclose(result, conv2d(x, pruned, None, 1, 1), rtol=1e-4, atol=1e-4)
