"""The four workloads: inputs from the seed, cold set-up, load generation,
output checking, tear-down.

The program under test is driven only through its public API
(``InferenceSession``, ``ShardedServer``, ``projected_smallcnn_spec`` and
the ``core`` projection functions) and receives only arrays generated
from ``--seed``.  Model weights are fixed (``MODEL_SEED``): the seed
varies what is asked, not what is served, so two seeds time the same
kernels.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from functools import partial

import numpy as np

import host
from repro import nn
from repro.compiler.codegen import KernelCache
from repro.core.masking import apply_masks, extract_masks
from repro.core.patterns import PatternSet, enumerate_candidate_patterns
from repro.core.projections import project_kernel_pattern
from repro.models import build_vgg
from repro.runtime import InferenceSession, ShardedServer, TelemetryConfig
from repro.runtime.cluster import projected_smallcnn_spec

MODEL_SEED = 7
NUM_PATTERNS = 8
CONNECTIVITY_RATE = 3.6
VGG_INPUT = (3, 32, 32)
SMALLCNN_CHANNELS = (16, 32)
SMALLCNN_IN_SIZE = 16
#: requests kept outstanding by ``serve_sat`` (= the default slots_per_shard)
SAT_DEPTH = 16
#: cluster counters that must stay 0 on these fault-free workloads
CLUSTER_ERROR_KEYS = ("retries", "hedges", "shed", "timed_out", "corrupt", "respawns", "errors")
REFERENCE_TOL = 1e-4


class OutputMismatch(RuntimeError):
    """The program returned bytes that differ from its own oracle."""


# ----------------------------------------------------------------------
# Load generators (one thread; return raw records for later checking)
# ----------------------------------------------------------------------
class Phase:
    """Raw result of one generator phase: ``records`` are
    ``(t_submit, t_done, input_index, output_or_exception)``;
    ``boundaries[k]`` / ``cpu_ms_at[k]`` are taken together."""

    def __init__(self) -> None:
        self.records: list = []
        self.boundaries: list[float] = []
        self.cpu_ms_at: list[float] = []

    def mark(self, cpu_now) -> None:
        self.boundaries.append(time.perf_counter())
        self.cpu_ms_at.append(cpu_now())


def closed_loop(call, n_inputs: int, seconds: float, n_windows: int, cpu_now) -> Phase:
    """One client: the next request is sent when the previous one returns."""
    phase = Phase()
    window = seconds / n_windows
    phase.mark(cpu_now)
    next_boundary = phase.boundaries[0] + window
    i = 0
    while len(phase.boundaries) <= n_windows:
        idx = i % n_inputs
        t0 = time.perf_counter()
        try:
            out = call(idx)
        except Exception as exc:  # a typed error is a miss, not a harness crash
            out = exc
        t1 = time.perf_counter()
        phase.records.append((t0, t1, idx, out))
        i += 1
        if t1 >= next_boundary:
            phase.mark(cpu_now)
            next_boundary += window
    return phase


def pipelined(submit, n_inputs: int, depth: int, seconds: float, n_windows: int,
              cpu_now) -> Phase:
    """One generator thread keeping ``depth`` requests outstanding; a
    permit is returned in each request's done-callback."""
    phase = Phase()
    permits = threading.Semaphore(depth)

    def done(fut, t0, idx):
        phase.records.append((t0, time.perf_counter(), idx, fut))
        permits.release()

    window = seconds / n_windows
    phase.mark(cpu_now)
    next_boundary = phase.boundaries[0] + window
    i = 0
    while len(phase.boundaries) <= n_windows:
        permits.acquire()
        idx = i % n_inputs
        i += 1
        t0 = time.perf_counter()
        if t0 >= next_boundary:
            phase.mark(cpu_now)
            next_boundary += window
            t0 = time.perf_counter()
        try:
            fut = submit(idx)
        except Exception as exc:
            phase.records.append((t0, time.perf_counter(), idx, exc))
            permits.release()
            continue
        fut.add_done_callback(partial(done, t0=t0, idx=idx))
    for _ in range(depth):  # wait for the tail; the program promises no hangs
        if not permits.acquire(timeout=60):
            raise RuntimeError("a request was still unresolved 60 s after the phase ended")
    phase.records = [
        (t0, t1, idx, settle(out)) for t0, t1, idx, out in phase.records
    ]
    return phase


def settle(out):
    """A done future's result, or the exception it resolved with."""
    if hasattr(out, "exception"):
        exc = out.exception()
        return exc if exc is not None else out.result()
    return out


def bitwise_equal(out, expected: np.ndarray) -> bool:
    return (
        isinstance(out, np.ndarray)
        and out.dtype == expected.dtype
        and out.shape == expected.shape
        and out.tobytes() == expected.tobytes()
    )


# ----------------------------------------------------------------------
# Models
# ----------------------------------------------------------------------
def project_model(model: nn.Module):
    """One-shot pattern + connectivity projection (what
    ``projected_smallcnn_spec`` does, for any model): returns the pattern
    set and the per-layer assignments the compiled session needs."""
    ps = PatternSet(enumerate_candidate_patterns()[:NUM_PATTERNS])
    apply_masks(model, extract_masks(model, ps, connectivity_rate=CONNECTIVITY_RATE))
    model.eval()
    assignments = {}
    for name, module in model.named_modules():
        if isinstance(module, nn.Conv2d):
            _, a = project_kernel_pattern(module.weight.data, ps)
            energy = (module.weight.data.reshape(a.shape[0], a.shape[1], -1) ** 2).sum(axis=2)
            assignments[name] = (a * (energy > 0)).astype(np.int32)
    return ps, assignments


def fresh_vgg() -> nn.Module:
    return build_vgg(depth="full", width_scale=0.5, in_size=VGG_INPUT[1], seed=MODEL_SEED)


def build_pruned_vgg():
    model = fresh_vgg()
    ps, assignments = project_model(model)
    return model, ps, assignments


def compiled_vgg_session() -> InferenceSession:
    """The ``direct_*`` cold set-up: build, project, compile with a fresh cache."""
    model, ps, assignments = build_pruned_vgg()
    return InferenceSession(model, VGG_INPUT, pattern_set=ps, assignments=assignments,
                            kernel_cache=KernelCache())


def smallcnn_spec():
    """The serving model, bundled under ``bench/out`` (the caller unlinks it)."""
    host.OUT_DIR.mkdir(exist_ok=True)
    fd, path = tempfile.mkstemp(dir=host.OUT_DIR, prefix="bundle_", suffix=".npz")
    os.close(fd)
    return projected_smallcnn_spec(
        path, channels=SMALLCNN_CHANNELS, in_size=SMALLCNN_IN_SIZE, seed=MODEL_SEED,
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One workload of one run.  Constructed once (inputs + oracle), then
    ``setup`` / ``drive`` / ``teardown`` once per round."""

    name: str
    samples_per_request = 1

    def __init__(self, plan: dict) -> None:
        self.plan = plan
        self.inputs: list[np.ndarray] = []
        self.expected: list[np.ndarray] = []

    def setup(self) -> None:
        """Cold set-up up to and including the first verified reply."""
        raise NotImplementedError

    def drive(self, seconds: float, n_windows: int) -> Phase:
        raise NotImplementedError

    def worker_pids(self) -> list[int]:
        return []

    def error_counts(self) -> dict:
        """The program's own failure counters (all expected 0)."""
        return {}

    def teardown(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the constructor made."""

    def _cpu_now(self) -> float:
        return host.cpu_ms(self.worker_pids())

    def _verify_first(self, out) -> None:
        if not bitwise_equal(out, self.expected[0]):
            raise OutputMismatch(f"{self.name}: first reply after set-up differs from the oracle")

    def check(self, records) -> list:
        """``(t_submit, t_done, ok)`` per record: ok = bitwise equal to the oracle."""
        return [
            (t0, t1, bitwise_equal(out, self.expected[idx]))
            for t0, t1, idx, out in records
        ]


class DirectWorkload(Workload):
    """``InferenceSession.run`` on the pruned VGG-16 topology, closed loop."""

    def __init__(self, seed: int, plan: dict, batch: int, pool: int) -> None:
        super().__init__(plan)
        self.name = f"direct_b{batch}"
        self.samples_per_request = batch
        rng = np.random.default_rng(seed)
        self.inputs = [
            rng.standard_normal((batch, *VGG_INPUT)).astype(np.float32) for _ in range(pool)
        ]
        # Oracles, built once and outside every timed region: the model's
        # own session.run (bitwise), itself held to the graph interpreter
        # on the same pruned weights — independent of codegen and arena.
        model, _, _ = build_pruned_vgg()
        reference = InferenceSession(model, VGG_INPUT)
        oracle = compiled_vgg_session()
        self.expected = [oracle.run(x) for x in self.inputs]
        self.reference_max_abs_err = 0.0
        for x, got in zip(self.inputs, self.expected):
            want = reference.run(x)
            err = float(np.max(np.abs(got - want)))
            self.reference_max_abs_err = max(self.reference_max_abs_err, err)
            if not np.allclose(got, want, rtol=REFERENCE_TOL, atol=REFERENCE_TOL):
                raise OutputMismatch(
                    f"{self.name}: compiled output differs from ReferenceExecutor by {err:.3g}"
                )
        self.session: InferenceSession | None = None

    def setup(self) -> None:
        self.session = compiled_vgg_session()
        self._verify_first(self.session.run(self.inputs[0]))

    def drive(self, seconds: float, n_windows: int) -> Phase:
        run, inputs = self.session.run, self.inputs
        return closed_loop(lambda i: run(inputs[i]), len(inputs), seconds, n_windows,
                           self._cpu_now)

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


class ServeWorkload(Workload):
    """A 1-shard ``ShardedServer`` on the projected small CNN.

    ``depth == 1`` is a closed loop of ``submit(x).result()``;
    ``depth > 1`` keeps that many requests outstanding.
    """

    def __init__(self, seed: int, plan: dict, name: str, transport: str, depth: int,
                 trace_sample_rate: float = 0.0, pool: int = 64) -> None:
        super().__init__(plan)
        self.name = name
        self.transport = transport
        self.depth = depth
        self.telemetry = TelemetryConfig(
            trace_sample_rate=trace_sample_rate,
            # a traced run keeps every span in memory until the run ends
            trace_capacity=1 << 17 if trace_sample_rate else 256,
        )
        rng = np.random.default_rng(seed)
        shape = (3, SMALLCNN_IN_SIZE, SMALLCNN_IN_SIZE)
        self.inputs = [rng.standard_normal(shape).astype(np.float32) for _ in range(pool)]
        self.spec = smallcnn_spec()
        with self.spec.build() as oracle:
            self.expected = [oracle.run(x) for x in self.inputs]
        self.server: ShardedServer | None = None

    def setup(self) -> None:
        self.server = ShardedServer(
            self.spec, num_shards=1, transport=self.transport,
            worker_env=host.THREAD_ENV, telemetry=self.telemetry,
        )
        host.pin_workers(self.worker_pids(), self.plan)
        self._verify_first(self.server.submit(self.inputs[0]).result(timeout=60))

    def worker_pids(self) -> list[int]:
        if self.server is None:
            return []
        return [pid for pid in self.server.worker_pids() if pid is not None]

    def drive(self, seconds: float, n_windows: int) -> Phase:
        submit, inputs = self.server.submit, self.inputs
        if self.depth == 1:
            return closed_loop(lambda i: submit(inputs[i]).result(timeout=60),
                               len(inputs), seconds, n_windows, self._cpu_now)
        return pipelined(lambda i: submit(inputs[i]), len(inputs), self.depth,
                         seconds, n_windows, self._cpu_now)

    def error_counts(self) -> dict:
        stats = self.server.cluster_stats
        return {key: int(stats[key]) for key in CLUSTER_ERROR_KEYS}

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def close(self) -> None:
        try:
            os.unlink(self.spec.bundle_path)
        except OSError:
            pass


def make_workload(name: str, seed: int, plan: dict) -> Workload:
    if name == "direct_b1":
        return DirectWorkload(seed, plan, batch=1, pool=16)
    if name == "direct_b8":
        return DirectWorkload(seed, plan, batch=8, pool=8)
    if name == "serve_idle":
        return ServeWorkload(seed, plan, name, transport="shm", depth=1)
    if name == "serve_sat":
        return ServeWorkload(seed, plan, name, transport="tcp", depth=SAT_DEPTH)
    raise KeyError(name)
