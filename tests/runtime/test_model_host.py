"""In-process ModelHost: hot unload gives its compiled kernels back, and
the native-backend gauge reports the kernels actually served."""

import dataclasses

import numpy as np

from repro.compiler import native
from repro.runtime.cluster import projected_smallcnn_spec
from repro.runtime.worker import ModelHost


def _gauge(snapshot: dict, name: str) -> float:
    (row,) = snapshot["metrics"][name]["series"]
    return row["value"]


def test_unload_frees_the_models_kernels(tmp_path):
    """Loading then unloading a model with distinct weights returns the
    shared kernel cache (and its exported gauge) to where it was, while
    the remaining tenant keeps serving its own bytes."""
    resident = projected_smallcnn_spec(str(tmp_path / "a.npz"), seed=1)
    guest = projected_smallcnn_spec(str(tmp_path / "b.npz"), seed=2)
    x = np.random.default_rng(0).standard_normal((1, *resident.input_shape)).astype(np.float32)
    with resident.build() as oracle:
        expected = oracle.run(x)

    host = ModelHost({"a": resident})
    try:
        entries = len(host.kernel_cache)
        assert entries > 0
        assert _gauge(host.snapshot(), "worker_kernel_cache_entries") == entries

        host.load("b", guest)
        assert len(host.kernel_cache) > entries
        assert host.submit(x, model="b").result(timeout=30).shape == expected.shape
        host.unload("b")

        assert len(host.kernel_cache) == entries
        snap = host.snapshot()
        assert _gauge(snap, "worker_kernel_cache_entries") == entries
        assert _gauge(snap, "worker_kernel_backend_native") == int(native.loaded())
        assert np.array_equal(host.submit(x, model="a").result(timeout=30), expected)
    finally:
        host.close()
    assert len(host.kernel_cache) == 0


def test_native_gauge_reports_the_kernels_served(tmp_path):
    """worker_kernel_backend_native reports what the worker runs: a
    model compiled at the numpy 'gemm' level exports 0 even in a process
    that has the native library, alone or next to a native tenant."""
    gemm = projected_smallcnn_spec(str(tmp_path / "g.npz"), seed=3, opt_level="gemm")
    host = ModelHost({"g": gemm})
    try:
        assert _gauge(host.snapshot(), "worker_kernel_backend_native") == 0
        host.load("n", dataclasses.replace(gemm, opt_level="native"))
        assert _gauge(host.snapshot(), "worker_kernel_backend_native") == 0
        host.unload("g")
        assert _gauge(host.snapshot(), "worker_kernel_backend_native") == int(native.loaded())
    finally:
        host.close()
