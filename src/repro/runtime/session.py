"""End-to-end inference session: nn model → optimized graph → executor.

``InferenceSession`` is the user-facing runtime entry: it exports the
model to graph IR, runs PatDNN's graph-optimization pipeline, optionally
swaps pruned conv layers to compiled FKW kernels, and executes batches.

Batches execute as batches all the way down: the compiled executor
dispatches whole ``(N, C, H, W)`` arrays to batched FKW kernels, reuses
scratch buffers across ``run()`` calls through its
:class:`~repro.runtime.arena.BufferArena`, and compiles each distinct
layer once via its :class:`~repro.compiler.codegen.KernelCache` — so a
session is cheap to construct for repeated-block networks and fast to
call under sustained traffic.

A session is safe to share across threads: ``run()`` may be called
concurrently (the executor stack is thread-safe), and
:meth:`InferenceSession.run_async` routes requests through a lazily
started micro-batching front-end
(:class:`~repro.runtime.serving.MicroBatchServer`) that coalesces
concurrent single-sample traffic into efficient micro-batches.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import asdict, dataclass, field, fields
from typing import Any

import numpy as np

from repro import nn
from repro.core.patterns import PatternSet
from repro.graph.builder import build_graph
from repro.graph.ir import OpKind
from repro.graph.pass_manager import default_pipeline
from repro.runtime.executor import CompiledExecutor, ReferenceExecutor
from repro.runtime.serving import MicroBatchServer, ServingConfig

#: registry name a single-model cluster serves under when the caller
#: never names one — keeps the one-spec construction path and every
#: pre-multi-tenant suite working unchanged
DEFAULT_MODEL = "default"


@dataclass(frozen=True)
class SessionSpec:
    """A picklable recipe for rebuilding an :class:`InferenceSession`.

    Sessions themselves cannot cross process boundaries — they hold
    compiled kernel closures, arenas, and locks — so multi-process
    serving (:class:`repro.runtime.cluster.ShardedServer`) ships this
    spec instead: the model is named by its registry entry, the weights
    and pruning artifacts live in an on-disk bundle written by
    :func:`repro.utils.serialize.save_session_bundle`, and every worker
    calls :meth:`build` to reconstruct an identical session.  Rebuilt
    sessions are bitwise-equivalent to the originating one: the bundle
    stores exact array bytes and graph optimization is deterministic.

    Attributes:
        model: name in :mod:`repro.models.registry` (e.g. ``smallcnn``).
        input_shape: (C, H, W) of one sample.
        bundle_path: ``.npz`` session bundle (state dict + optional
            pruning artifacts).
        model_kwargs: keyword arguments for the registry builder — must
            reproduce the architecture the bundle's state dict fits.
        output_shape: per-sample output shape, recorded at capture time
            so transports can size buffers without building a model;
            recomputed by :meth:`probe_output_shape` when ``None``.
    """

    model: str
    input_shape: tuple[int, int, int]
    bundle_path: str
    model_kwargs: dict[str, Any] = field(default_factory=dict)
    optimize_graph: bool = True
    opt_level: str = "native"
    arena_max_bytes: int | None = None
    serving_config: ServingConfig | None = None
    output_shape: tuple[int, ...] | None = None

    @classmethod
    def capture(
        cls,
        model_name: str,
        model: nn.Module,
        input_shape: tuple[int, int, int],
        bundle_path: str,
        pattern_set: PatternSet | None = None,
        assignments: dict[str, np.ndarray] | None = None,
        *,
        model_kwargs: dict[str, Any] | None = None,
        **spec_kwargs: Any,
    ) -> SessionSpec:
        """Snapshot a live (possibly pruned) model into a spec + bundle.

        Writes the session bundle to ``bundle_path`` and returns the
        spec pointing at it.  ``model_kwargs`` must rebuild the same
        architecture through the registry (weights come from the
        bundle, so initialization seeds do not matter).
        """
        from repro.models.registry import get_trainable
        from repro.utils.serialize import save_session_bundle

        get_trainable(model_name, **(model_kwargs or {}))  # fail fast on bad names/kwargs
        written = save_session_bundle(bundle_path, model.state_dict(), pattern_set, assignments)
        out_shape = spec_kwargs.pop("output_shape", None)
        if out_shape is None:
            out_shape = _graph_output_shape(build_graph(model, input_shape))
        return cls(
            model=model_name,
            input_shape=tuple(input_shape),
            bundle_path=str(written),
            model_kwargs=dict(model_kwargs or {}),
            output_shape=tuple(out_shape),
            **spec_kwargs,
        )

    def build(self, *, kernel_cache=None, arena=None) -> InferenceSession:
        """Reconstruct the session (registry model + bundle artifacts).

        ``kernel_cache`` / ``arena`` let a multi-tenant worker share one
        process-wide compile cache and scratch arena across every loaded
        model's session (both are thread-safe); omitted, the session
        owns private ones, exactly as before.
        """
        from repro.models.registry import get_trainable
        from repro.utils.serialize import load_session_bundle

        model = get_trainable(self.model, **self.model_kwargs)
        state, pattern_set, assignments = load_session_bundle(self.bundle_path)
        model.load_state_dict(state)
        return InferenceSession(
            model,
            self.input_shape,
            pattern_set=pattern_set,
            assignments=assignments or None,
            optimize_graph=self.optimize_graph,
            opt_level=self.opt_level,
            arena_max_bytes=self.arena_max_bytes,
            serving_config=self.serving_config,
            kernel_cache=kernel_cache,
            arena=arena,
        )

    def probe_output_shape(self) -> tuple[int, ...]:
        """Per-sample output shape (cheap graph-only probe when not
        recorded at capture time — no kernels are compiled)."""
        if self.output_shape is not None:
            return tuple(self.output_shape)
        from repro.models.registry import get_trainable

        model = get_trainable(self.model, **self.model_kwargs)
        return _graph_output_shape(build_graph(model, self.input_shape))


def spec_to_json(spec: SessionSpec) -> dict[str, Any]:
    """JSON-safe dict form of a spec (inverse of :func:`spec_from_json`),
    for admin-API payloads and on-disk spec files."""
    out: dict[str, Any] = {
        "model": spec.model,
        "input_shape": list(spec.input_shape),
        "bundle_path": spec.bundle_path,
        "model_kwargs": dict(spec.model_kwargs),
        "optimize_graph": spec.optimize_graph,
        "opt_level": spec.opt_level,
        "arena_max_bytes": spec.arena_max_bytes,
        "output_shape": None if spec.output_shape is None else list(spec.output_shape),
    }
    if spec.serving_config is not None:
        out["serving_config"] = asdict(spec.serving_config)
    return out


def spec_from_json(obj: dict[str, Any]) -> SessionSpec:
    """Build a :class:`SessionSpec` from a JSON object (the admin
    ``POST /models/load`` body, or a spec file the CLI points at).

    Required keys: ``model``, ``input_shape``, ``bundle_path``.
    Optional: ``model_kwargs``, ``optimize_graph``, ``opt_level``,
    ``arena_max_bytes``, ``output_shape``, ``serving_config`` (a dict of
    :class:`~repro.runtime.serving.ServingConfig` fields).  Unknown keys
    — top-level or inside ``serving_config`` — raise ``ValueError``
    naming them: a typo'd knob must not silently default, and a spec
    file carrying fields ``ServingConfig`` no longer has says which.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"spec must be a JSON object, got {type(obj).__name__}")
    known = {
        "model", "input_shape", "bundle_path", "model_kwargs", "optimize_graph",
        "opt_level", "arena_max_bytes", "output_shape", "serving_config",
    }
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ValueError(f"unknown spec key(s): {', '.join(unknown)}")
    missing = sorted({"model", "input_shape", "bundle_path"} - set(obj))
    if missing:
        raise ValueError(f"spec is missing required key(s): {', '.join(missing)}")
    kwargs: dict[str, Any] = {
        "model": str(obj["model"]),
        "input_shape": tuple(int(d) for d in obj["input_shape"]),
        "bundle_path": str(obj["bundle_path"]),
    }
    if "model_kwargs" in obj:
        kwargs["model_kwargs"] = dict(obj["model_kwargs"])
    if "optimize_graph" in obj:
        kwargs["optimize_graph"] = bool(obj["optimize_graph"])
    if "opt_level" in obj:
        kwargs["opt_level"] = str(obj["opt_level"])
    if obj.get("arena_max_bytes") is not None:
        kwargs["arena_max_bytes"] = int(obj["arena_max_bytes"])
    if obj.get("output_shape") is not None:
        kwargs["output_shape"] = tuple(int(d) for d in obj["output_shape"])
    if obj.get("serving_config") is not None:
        sc = obj["serving_config"]
        if not isinstance(sc, dict):
            raise ValueError(
                f"serving_config must be a JSON object, got {type(sc).__name__}")
        unknown = sorted(set(sc) - {f.name for f in fields(ServingConfig)})
        if unknown:
            raise ValueError(f"unknown serving_config key(s): {', '.join(unknown)}")
        kwargs["serving_config"] = ServingConfig(**sc)
    return SessionSpec(**kwargs)


def _graph_output_shape(graph) -> tuple[int, ...]:
    """Per-sample shape of a graph's (single) output value."""
    node = graph.nodes[graph.outputs[0]]
    while not node.out_shape and node.inputs:  # OUTPUT nodes mirror their producer
        node = graph.nodes[node.inputs[0]]
    if not node.out_shape:
        raise ValueError(f"graph {graph.name!r} has no inferred output shape")
    return tuple(node.out_shape)


class InferenceSession:
    """Run a (possibly pruned) model through the PatDNN execution stack.

    Args:
        model: trained ``repro.nn`` model (eval-mode statistics are used).
        input_shape: (C, H, W) of one sample.
        pattern_set / assignments: pass the pruning artifacts to execute
            pattern layers through compiled FKW kernels; omit *both* for
            the reference (dense) interpreter.  Passing one without the
            other (or with ``assignments`` empty) raises — the session
            never silently falls back to dense execution.
        optimize_graph: apply BN-fold / fusion / replacement passes.
        opt_level: codegen variant for compiled layers (``'no-opt'`` |
            ``'reorder'`` | ``'lre'`` | ``'gemm'`` | ``'native'``; the
            default ``'native'`` is the production C kernel, which falls
            back to the numpy ``'gemm'`` level when no C compiler is
            available).
        arena_max_bytes: optional cap on the compiled executor's retained
            scratch (LRU-evicted beyond it; see
            :class:`~repro.runtime.arena.BufferArena`).
        serving_config: batching knobs for the :meth:`run_async`
            front-end (defaults apply when omitted).
        kernel_cache / arena: share an existing compile cache / scratch
            arena with other sessions in this process (multi-tenant
            workers pass the process-wide ones); private when omitted.
    """

    def __init__(
        self,
        model: nn.Module,
        input_shape: tuple[int, int, int],
        pattern_set: PatternSet | None = None,
        assignments: dict[str, np.ndarray] | None = None,
        optimize_graph: bool = True,
        opt_level: str = "native",
        arena_max_bytes: int | None = None,
        serving_config: ServingConfig | None = None,
        kernel_cache=None,
        arena=None,
    ) -> None:
        model.eval()
        self.graph = build_graph(model, input_shape)
        self.pass_report = None
        if optimize_graph:
            self.pass_report = default_pipeline().run(self.graph)
        if (pattern_set is not None) != bool(assignments):
            # One pruning artifact without the other: the old behaviour
            # silently served dense, which masked broken pruning
            # pipelines.  Fail loudly instead.
            missing = "assignments" if pattern_set is not None else "pattern_set"
            given = "pattern_set" if pattern_set is not None else "assignments"
            raise ValueError(
                f"{given} was provided but {missing} is "
                f"{'empty' if assignments == {} else 'missing'}: compiled execution "
                "needs both pruning artifacts. Pass both to run FKW kernels, or "
                "omit both for the reference (dense) interpreter."
            )
        if pattern_set is not None and assignments:
            graph_assignments = self._map_assignments(assignments, pattern_set)
            self.executor: ReferenceExecutor = CompiledExecutor(
                self.graph,
                pattern_set,
                graph_assignments,
                opt_level,
                kernel_cache=kernel_cache,
                arena=arena,
                arena_max_bytes=arena_max_bytes,
            )
        else:
            self.executor = ReferenceExecutor(self.graph)
        self._serving_config = serving_config
        self._server: MicroBatchServer | None = None
        self._server_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _map_assignments(
        self, assignments: dict[str, np.ndarray], pattern_set: PatternSet
    ) -> dict[str, np.ndarray]:
        """Match pruner layer names (module paths) to graph conv nodes.

        Convs are emitted in module traversal order, which matches the
        pruner's ``named_modules`` order, so candidates are consumed
        positionally — but a candidate must match by (F, C) shape *and*
        kernel size, **and** its weight sparsity must be consistent with
        the assignment (every nonzero weight entry inside the assigned
        pattern; id-0 kernels fully zero).  Shape alone is ambiguous —
        consecutive same-shaped convs, or a conv the pruner skipped,
        would silently mis-map — so shape matches whose sparsity
        contradicts the assignment are passed over (that is exactly the
        pruner-skipped-conv case), and if *no* consistent candidate
        remains the mapping errors instead of guessing.  A consistent
        match is numerically safe by construction: consistency means the
        FKW packing of that node's weights under this assignment is
        exact.  Graph passes that rescale weights per output channel (BN
        folding) preserve sparsity, so the check is robust to the
        optimization pipeline.
        """
        conv_nodes = [n for n in self.graph.toposort() if n.op == OpKind.CONV2D]
        k = pattern_set.kernel_size
        mapped: dict[str, np.ndarray] = {}
        node_idx = 0
        for name, assignment in assignments.items():
            shape = tuple(assignment.shape)
            rejected: list[str] = []
            while node_idx < len(conv_nodes):
                node = conv_nodes[node_idx]
                node_idx += 1
                w = node.params["weight"]
                if w.shape[:2] != shape or w.shape[2:] != (k, k):
                    continue
                mismatch = self._sparsity_mismatch(w, assignment, pattern_set)
                if mismatch is None:
                    mapped[node.name] = assignment
                    break
                rejected.append(f"{node.name!r} ({mismatch})")
            else:
                detail = (
                    "; shape-matching candidates rejected because their weights "
                    "contradict the assignment: " + ", ".join(rejected)
                    if rejected
                    else ""
                )
                raise ValueError(
                    f"could not map pruned layer {name!r} to a graph conv node: no "
                    f"remaining conv has {shape[0]} filters x {shape[1]} channels "
                    f"with {k}x{k} kernels whose sparsity is consistent with the "
                    f"assignment{detail}. Either the assignment order does not follow "
                    "module traversal order, or the model's weights were not actually "
                    "pattern-pruned; refusing to guess."
                )
        return mapped

    @staticmethod
    def _sparsity_mismatch(
        weight: np.ndarray, assignment: np.ndarray, pattern_set: PatternSet
    ) -> str | None:
        """Explain why ``weight`` cannot carry ``assignment`` (None = ok).

        A pattern-pruned weight tensor has nonzeros only inside each
        kernel's assigned pattern, and connectivity-pruned kernels
        (id 0) are fully zero.  Per-output-channel rescaling (BN fold)
        keeps zeros zero, so consistency survives graph optimization.
        """
        lo, hi = int(assignment.min()), int(assignment.max())
        if lo < 0 or hi > len(pattern_set):
            # e.g. assignments produced against a larger pattern universe
            return (
                f"pattern ids span {lo}..{hi} but this pattern set has only "
                f"{len(pattern_set)} patterns (ids 1..{len(pattern_set)}, 0 = pruned)"
            )
        # One bitmask per kernel (bit i = flat position i, as in
        # Pattern.bitmask) of its nonzero entries, against the bits its
        # pattern allows (none for id 0).
        f, c = assignment.shape
        nonzero = (weight != 0).reshape(f * c, -1)
        bits = np.zeros(f * c, dtype=np.int64)
        for i in range(nonzero.shape[1]):
            bits |= nonzero[:, i].astype(np.int64) << i
        allowed = np.array([0] + [p.bitmask for p in pattern_set], dtype=np.int64)
        outside = bits & ~np.take(allowed, assignment.reshape(-1))
        if not outside.any():
            return None
        first = int(np.flatnonzero(outside)[0])
        n_bad = int(np.unpackbits(outside.view(np.uint8)).sum())
        return (
            f"{n_bad} nonzero weight entr{'y lies' if n_bad == 1 else 'ies lie'} "
            f"outside the assigned pattern(s), first at kernel "
            f"(filter {first // c}, channel {first % c})"
        )

    # ------------------------------------------------------------------
    @property
    def kernel_cache(self):
        """Compile-once kernel cache of the compiled executor (or None)."""
        return getattr(self.executor, "kernel_cache", None)

    @property
    def arena(self):
        """Scratch-buffer arena of the compiled executor (or None)."""
        return getattr(self.executor, "arena", None)

    def run(self, x: np.ndarray) -> np.ndarray:
        """Inference on a batched NCHW array; returns logits."""
        if x.ndim == 3:
            x = x[None]
        return self.executor.run(x)

    # ------------------------------------------------------------------
    def run_async(self, x: np.ndarray, **submit_kwargs: Any) -> Future:
        """Submit a request to the micro-batching front-end.

        Lazily starts one :class:`~repro.runtime.serving.MicroBatchServer`
        over this session's executor on first use; concurrent callers
        from many threads are coalesced into shared micro-batches.
        Returns a future of the ``(N, ...)`` logits (``N == 1`` for a
        bare ``(C, H, W)`` sample).

        Keyword arguments (``timeout``, ``deadline``, ``deadline_at``)
        pass through to :meth:`MicroBatchServer.submit` — deadline-aware
        admission sheds over-budget requests with typed errors instead
        of executing them (see :mod:`repro.runtime.resilience`).
        """
        while True:
            server = self._server
            if server is None:
                with self._server_lock:
                    if self._server is None:
                        self._server = MicroBatchServer(self.executor.run, self._serving_config)
                    server = self._server
            try:
                return server.submit(x, **submit_kwargs)
            except RuntimeError as exc:
                if type(exc) is not RuntimeError:
                    raise  # typed shed/deadline errors are for the caller
                # raced a concurrent close(): the session itself is still
                # open (close + run_async restarting is supported), so
                # retire the closed server and retry on a fresh one
                with self._server_lock:
                    if self._server is server:
                        self._server = None

    #: alias matching the queue vocabulary of :class:`MicroBatchServer`
    submit = run_async

    @property
    def serving_stats(self):
        """Batching stats of the async front-end (None before first use)."""
        server = self._server
        return server.stats if server is not None else None

    def close(self) -> None:
        """Shut down the async front-end and give the compiled kernels
        back to the (possibly shared) kernel cache.  Idempotent; ``run``
        still works — the executor keeps its own kernel references."""
        with self._server_lock:
            if self._server is not None:
                self._server.close()
                self._server = None
            if isinstance(self.executor, CompiledExecutor):
                self.executor.release_kernels()

    def __enter__(self) -> InferenceSession:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
