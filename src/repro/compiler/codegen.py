"""Execution code generation (paper Figure 7).

Two products per layer:

* :func:`generate_kernel` — an executable convolution closure over the
  FKW arrays, in five variants: four numpy levels and the native C
  kernel that serves production traffic.  All variants are
  **batched**: they consume an
  ``(N, C, H, W)`` input natively and return ``(N, F, Ho, Wo)`` (a bare
  ``(C, H, W)`` sample is promoted and squeezed back for convenience).
  The opt-level matrix:

  ============  =====================================================
  level         execution strategy
  ============  =====================================================
  ``no-opt``    per-kernel ``switch (style[oc][ic])`` dispatch in the
                innermost loop (correct, branchy, slow)
  ``reorder``   branchless pattern runs after FKR, grouped filters
  ``lre``       each pattern's kernels computed as one vectorised
                shifted-slice gather over the whole batch, accumulated
                scatter-free: kernels are owner-sorted at compile time
                so runtime accumulation is a contiguous
                ``np.add.reduceat`` segment reduction instead of an
                ``np.add.at`` scatter
  ``gemm``      load-redundancy elimination taken to its numpy limit:
                the FKW arrays are written (at compile time) into one
                dense (F, U·C) matrix over the U kernel coordinates of
                the *pattern union*; at run time each sample's U shifted
                input slices are copied once into an (U·C, Ho·Wo)
                im2col buffer and reused across every filter by a single
                2-D BLAS call — coordinates absent from all patterns are
                never loaded.  Every BLAS call has the same shape at any
                batch size, so outputs are bitwise batch-invariant.
                The fallback when no C compiler is available.
  ``native``    the production level: the C kernel of ``fkw_conv.c``
                (built once per machine by :mod:`repro.compiler.native`)
                runs straight from the FKW arrays — only non-zero
                weights are stored or multiplied, connectivity-pruned
                kernels are never visited.  Filters are walked in FKR
                order; each output block is accumulated in vector
                registers over a branch-free 4-tap body, with bias and
                activation fused, then stored once.  Stride-1 layers
                with rows of >= 8 outputs read taps straight from the
                zero-padded sample, two or four rows per pass; the rest
                go through a pattern-union im2col.  The kernel pads the
                input itself.  A fixed per-sample operation order keeps
                outputs bitwise batch-invariant.  Resolves to ``gemm``
                (one logged warning) when the library cannot be built.
  ============  =====================================================

  The numpy levels ``no-opt`` / ``reorder`` / ``lre`` mirror the
  paper's Figure 7 ladder structurally.

  The epilogue (bias add + fused activation) is baked into the closure
  when ``bias`` / ``activation`` are given, so a compiled conv node is
  one kernel call instead of three array passes.  When ``padding == 0``
  the input is used in place — no ``np.pad`` copy is made at any level.

  Kernels optionally cooperate with a
  :class:`repro.runtime.arena.BufferArena` (``fn(x, arena=...)``): the
  output and the scratch then come from the arena's reusable pools
  instead of fresh allocations.  The output belongs to the caller; every
  scratch buffer goes back to the arena before the kernel returns, so no
  kernel keeps per-thread state.  The numpy levels take a pooled padded
  input from :meth:`~repro.runtime.arena.BufferArena.padded` and release
  it as soon as the conv has read it; ``gemm`` also acquires and
  releases its im2col buffer.  ``native`` pads inside C, so its closure
  makes one output acquire, one acquire/release of a per-sample scratch
  (the padded sample or its im2col columns, sized by
  ``fkw_conv_scratch``) and one ctypes call.

* :class:`KernelCache` — memoises compiled closures by FKW signature +
  ``(stride, padding, opt_level, bias, activation)`` so repeated
  identical layers (e.g. VGG's stacked same-shape blocks) compile once;
  entries are reference-counted and evicted with their last user.

* :func:`generate_source` — for ``native``, the C source that runs; for
  the other levels, C-like text of the same structure as Figure 7's
  skeletons, used by docs, the LR example, and golden tests.
"""

from __future__ import annotations

import ctypes
import hashlib
import threading
from collections.abc import Callable

import numpy as np

from repro.compiler import native
from repro.compiler.storage import FKWLayer

KernelFn = Callable[..., np.ndarray]

_OPT_LEVELS = ("no-opt", "reorder", "lre", "gemm", "native")
_ACTIVATIONS = (None, "relu", "relu6")


def _normalize_input(x: np.ndarray, c: int) -> tuple[np.ndarray, bool]:
    """Promote (C, H, W) to (1, C, H, W); validate the channel count."""
    squeeze = x.ndim == 3
    if squeeze:
        x = x[None]
    if x.ndim != 4 or x.shape[1] != c:
        raise ValueError(f"expected (N, C={c}, H, W) or (C={c}, H, W) input, got shape {x.shape}")
    return x, squeeze


def _padded(x: np.ndarray, padding: int, arena) -> np.ndarray:
    """Zero-pad H/W — skipping the copy entirely when padding == 0."""
    if padding == 0:
        return x
    if arena is not None:
        return arena.padded(x, padding)
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _release_pad(xp: np.ndarray, x: np.ndarray, arena) -> None:
    """Hand a pooled pad back once the conv has read it (``xp is x`` when
    there is no padding: the input is not the kernel's to release)."""
    if arena is not None and xp is not x:
        arena.release(xp)


def _alloc_out(shape: tuple[int, ...], arena, zero: bool = True) -> np.ndarray:
    if arena is not None:
        return arena.acquire(shape, zero=zero)
    return np.zeros(shape, dtype=np.float32) if zero else np.empty(shape, dtype=np.float32)


def _epilogue(out: np.ndarray, bias: np.ndarray | None, activation: str | None) -> np.ndarray:
    """Fused bias + activation, in place on the accumulator."""
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    elif activation == "relu6":
        np.clip(out, 0.0, 6.0, out=out)
    return out


def _address(arr: np.ndarray) -> int:
    """Data address of a C-contiguous array, without the ~2 us
    ``arr.ctypes`` object (read-only or empty arrays take that path)."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    except (TypeError, ValueError):
        return arr.ctypes.data


def _finish(out: np.ndarray, squeeze: bool, arena) -> np.ndarray:
    if not squeeze:
        return out
    if arena is None:
        return out[0]
    # a squeezed result escapes as a copy, so the buffer is scratch
    sample = out[0].copy()
    arena.release(out)
    return sample


def generate_kernel(
    fkw: FKWLayer,
    stride: int = 1,
    padding: int = 1,
    opt_level: str = "lre",
    bias: np.ndarray | None = None,
    activation: str | None = None,
) -> KernelFn:
    """Build an executable batched conv closure for one FKW layer.

    Args:
        fkw: packed layer.
        opt_level: ``'no-opt'`` | ``'reorder'`` | ``'lre'`` | ``'gemm'`` |
            ``'native'``.
        bias: optional (F,) bias fused into the kernel epilogue.
        activation: optional fused activation (``'relu'`` | ``'relu6'``).

    Returns:
        ``fn(x, arena=None)`` mapping ``(N, C, H, W) -> (N, F, Ho, Wo)``
        float32 (``(C, H, W) -> (F, Ho, Wo)`` for a bare sample),
        accumulating to the *original* output-channel order via the
        reorder array.  ``arena`` is an optional
        :class:`repro.runtime.arena.BufferArena` supplying reusable
        padded-input and output scratch.
    """
    if opt_level not in _OPT_LEVELS:
        raise ValueError(f"opt_level must be one of {_OPT_LEVELS}, got {opt_level!r}")
    if activation not in _ACTIVATIONS:
        raise ValueError(f"activation must be one of {_ACTIVATIONS}, got {activation!r}")
    if opt_level == "no-opt":
        return _kernel_no_opt(fkw, stride, padding, bias, activation)
    if opt_level == "reorder":
        return _kernel_reorder(fkw, stride, padding, bias, activation)
    if opt_level == "lre":
        return _kernel_lre(fkw, stride, padding, bias, activation)
    if opt_level == "native" and native.library() is not None:
        return _kernel_native(fkw, stride, padding, bias, activation)
    return _kernel_gemm(fkw, stride, padding, bias, activation)


def _out_hw(h: int, k: int, stride: int, padding: int) -> int:
    return (h + 2 * padding - k) // stride + 1


def _kernel_no_opt(
    fkw: FKWLayer, stride: int, padding: int, bias: np.ndarray | None, activation: str | None
) -> KernelFn:
    """Figure 7 '+No-opt': per-kernel switch on pattern style.

    Kernels iterate in original channel order (identity reorder not
    required — FKW already stores an order; dispatch is per kernel).
    """
    f, c, kh, kw = fkw.shape
    pattern_coords = {
        pid: fkw.pattern_set[pid].coords for pid in range(1, len(fkw.pattern_set) + 1)
    }

    def fn(x: np.ndarray, arena=None) -> np.ndarray:
        x, squeeze = _normalize_input(x, c)
        n, _, h, w = x.shape
        ho, wo = _out_hw(h, kh, stride, padding), _out_hw(w, kw, stride, padding)
        xp = _padded(x, padding, arena)
        out = _alloc_out((n, f, ho, wo), arena)
        for pos in range(f):
            oc = int(fkw.reorder[pos])
            for k in range(*fkw.filter_slice(pos).indices(fkw.num_kernels)):
                pid = int(fkw.pattern_ids[k])
                ic = int(fkw.index[k])
                weights = fkw.weights[k]
                # the switch(style) — one branch per kernel instance
                coords = pattern_coords[pid]
                for widx, (r, cc) in enumerate(coords):
                    out[:, oc] += weights[widx] * xp[:, ic, r : r + stride * ho : stride, cc : cc + stride * wo : stride]
        _release_pad(xp, x, arena)
        _epilogue(out, bias, activation)
        return _finish(out, squeeze, arena)

    return fn


def _kernel_reorder(
    fkw: FKWLayer, stride: int, padding: int, bias: np.ndarray | None, activation: str | None
) -> KernelFn:
    """Figure 7 '+Reorder': branchless pattern runs inside each filter."""
    f, c, kh, kw = fkw.shape
    pattern_coords = {
        pid: fkw.pattern_set[pid].coords for pid in range(1, len(fkw.pattern_set) + 1)
    }
    runs = [fkw.pattern_runs(pos) for pos in range(f)]

    def fn(x: np.ndarray, arena=None) -> np.ndarray:
        x, squeeze = _normalize_input(x, c)
        n, _, h, w = x.shape
        ho, wo = _out_hw(h, kh, stride, padding), _out_hw(w, kw, stride, padding)
        xp = _padded(x, padding, arena)
        out = _alloc_out((n, f, ho, wo), arena)
        for pos in range(f):
            oc = int(fkw.reorder[pos])
            acc = out[:, oc]
            for pid, start, end in runs[pos]:
                coords = pattern_coords[pid]  # hoisted: one dispatch per run
                for k in range(start, end):
                    ic = int(fkw.index[k])
                    weights = fkw.weights[k]
                    for widx, (r, cc) in enumerate(coords):
                        acc += weights[widx] * xp[:, ic, r : r + stride * ho : stride, cc : cc + stride * wo : stride]
        _release_pad(xp, x, arena)
        _epilogue(out, bias, activation)
        return _finish(out, squeeze, arena)

    return fn


def _kernel_owner_map(fkw: FKWLayer) -> np.ndarray:
    """(K,) original output channel owning each kernel (via reorder)."""
    owners = np.empty(fkw.num_kernels, dtype=np.int64)
    for pos in range(fkw.shape[0]):
        owners[fkw.filter_slice(pos)] = int(fkw.reorder[pos])
    return owners


def _iter_pattern_selections(fkw: FKWLayer):
    """Yield ``(pid, sel, owners, channels)`` per non-empty pattern id.

    Shared compile-time preamble of the ``lre`` and ``gemm`` variants:
    ``sel`` indexes the kernels of pattern ``pid``; ``owners`` /
    ``channels`` are their original output channels and input channels.
    """
    if not fkw.num_kernels:
        return
    owner_map = _kernel_owner_map(fkw)
    for pid in range(1, len(fkw.pattern_set) + 1):
        sel = np.nonzero(fkw.pattern_ids == pid)[0]
        if len(sel) == 0:
            continue
        yield pid, sel, owner_map[sel], fkw.index[sel].astype(np.int64)


def _pattern_union(fkw: FKWLayer) -> list[tuple[int, int]]:
    """Sorted kernel coordinates used by at least one stored kernel."""
    pids = set(fkw.pattern_ids.tolist())  # not np.unique: its first call costs a lazy import
    return sorted({coord for pid in pids for coord in fkw.pattern_set[pid].coords})


def _kernel_lre(
    fkw: FKWLayer, stride: int, padding: int, bias: np.ndarray | None, activation: str | None
) -> KernelFn:
    """'+LRE': per pattern id, all kernels of the whole batch computed as
    shifted slices — inputs gathered once per (pattern, shift), the numpy
    analogue of register reuse across kernels and unrolled filters.

    Accumulation is scatter-free: kernels are sorted by owning output
    channel at compile time, so the runtime reduction is a contiguous
    ``np.add.reduceat`` over owner segments followed by a unique-index
    add — no ``np.add.at`` scatter in the hot path.
    """
    f, c, kh, kw = fkw.shape
    # Precompute owner-sorted gather/segment metadata per pattern id.
    plans: list[dict] = []
    for pid, sel, owners, channels in _iter_pattern_selections(fkw):
        order = np.argsort(owners, kind="stable")
        sel, owners, channels = sel[order], owners[order], channels[order]
        seg_starts = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])
        plans.append(
            {
                "channels": channels,
                "weights": np.ascontiguousarray(fkw.weights[sel]),  # (n_k, entries)
                "coords": fkw.pattern_set[pid].coords,
                "seg_starts": seg_starts,
                "seg_owners": owners[seg_starts],
                # every kernel its own segment -> reduction is the identity
                "trivial_segments": len(seg_starts) == len(owners),
            }
        )

    def fn(x: np.ndarray, arena=None) -> np.ndarray:
        x, squeeze = _normalize_input(x, c)
        n, _, h, w = x.shape
        ho, wo = _out_hw(h, kh, stride, padding), _out_hw(w, kw, stride, padding)
        xp = _padded(x, padding, arena)
        out = _alloc_out((n, f, ho, wo), arena)
        for plan in plans:
            channels = plan["channels"]
            weights = plan["weights"]
            # contributions (n, n_kernels, ho, wo), built entry by entry
            # from shifted input slices shared across every kernel of this
            # pattern and every batch sample — the load-once semantics of
            # LRE, amortised over the batch.
            contrib = None
            for widx, (r, cc) in enumerate(plan["coords"]):
                patch = xp[:, channels, r : r + stride * ho : stride, cc : cc + stride * wo : stride]
                term = weights[:, widx][None, :, None, None] * patch
                if contrib is None:
                    contrib = term  # freshly allocated by the multiply — ours
                else:
                    contrib += term
            if plan["trivial_segments"]:
                reduced = contrib
            else:
                reduced = np.add.reduceat(contrib, plan["seg_starts"], axis=1)
            out[:, plan["seg_owners"]] += reduced
        _release_pad(xp, x, arena)
        _epilogue(out, bias, activation)
        return _finish(out, squeeze, arena)

    return fn


def _kernel_gemm(
    fkw: FKWLayer, stride: int, padding: int, bias: np.ndarray | None, activation: str | None
) -> KernelFn:
    """'+GEMM': pattern-union im2col, one BLAS call per sample.

    The LRE idea — load each input once and reuse it across every filter
    — taken to its limit in the numpy substrate.  At compile time the FKW
    arrays are written into one dense ``(F, U·C)`` weight matrix over the
    U kernel coordinates appearing in *any* pattern (the pattern union);
    coordinates outside the union are never loaded, and
    connectivity-pruned kernels are zero columns.  At run time each
    sample's U shifted input slices are copied into one ``(U·C, Ho·Wo)``
    im2col buffer, which a single 2-D ``np.matmul`` multiplies straight
    into the sample's output rows.

    The per-sample loop is deliberate: every BLAS call has the same
    shape at any batch size, so a sample's output is bitwise identical
    whether it runs alone or inside a coalesced batch (a batch-folded or
    stacked matmul lets BLAS pick a different kernel per batch size).
    Trades the per-kernel sparse structure of ``'lre'`` for GEMM
    throughput.
    """
    f, c, kh, kw = fkw.shape
    union = _pattern_union(fkw)
    slot = {coord: u for u, coord in enumerate(union)}
    weight = np.zeros((f, len(union), c), np.float32)
    for pid, sel, owners, channels in _iter_pattern_selections(fkw):
        taps = np.array([slot[coord] for coord in fkw.pattern_set[pid].coords])
        # each (filter, channel) kernel occurs exactly once across all
        # patterns, so plain assignment never overwrites a weight
        weight[owners[:, None], taps[None, :], channels[:, None]] = fkw.weights[sel]
    weight = weight.reshape(f, len(union) * c)

    def fn(x: np.ndarray, arena=None) -> np.ndarray:
        x, squeeze = _normalize_input(x, c)
        n, _, h, w = x.shape
        ho, wo = _out_hw(h, kh, stride, padding), _out_hw(w, kw, stride, padding)
        xp = _padded(x, padding, arena)
        out = _alloc_out((n, f, ho, wo), arena, zero=False)  # every row is overwritten
        col = _alloc_out((len(union) * c, ho * wo), arena, zero=False)
        col_taps = col.reshape(len(union), c, ho, wo)
        rows = out.reshape(n, f, ho * wo)
        for s in range(n):
            xs = xp[s]
            for u, (r, cc) in enumerate(union):
                col_taps[u] = xs[:, r : r + stride * ho : stride, cc : cc + stride * wo : stride]
            np.matmul(weight, col, out=rows[s])
        _release_pad(xp, x, arena)
        if arena is not None:
            arena.release(col)
        _epilogue(out, bias, activation)
        return _finish(out, squeeze, arena)

    return fn


def _kernel_native(
    fkw: FKWLayer, stride: int, padding: int, bias: np.ndarray | None, activation: str | None
) -> KernelFn:
    """'native': the C kernel of ``fkw_conv.c`` run straight from the FKW
    arrays — only the non-zeros are stored or multiplied.

    The closure holds the FKW arrays (no dense weight matrix) plus a
    per-pattern tap table and the pattern-union slot map, described to C
    by one :class:`~repro.compiler.native.FKWLayerStruct` built here
    (stride, padding and the fused epilogue included), so a call passes
    just the unpadded input, the output and one scratch pointer.  The
    kernel pads each sample itself into that scratch — or gathers its
    im2col columns into it — so the Python side is one output acquire,
    one scratch acquire/release and one ctypes call.  Scratch holds one
    sample whatever the batch size and comes from the caller's arena, so
    concurrent calls never share memory; ``ctypes`` drops the GIL for
    the call.
    """
    lib = native.library()
    f, c, kh, kw = fkw.shape
    entries = fkw.entries
    ps = fkw.pattern_set
    union = _pattern_union(fkw)
    taps = np.zeros((len(ps) + 1, entries), np.int32)  # row 0: pattern id 0 is never stored
    for pid in range(1, len(ps) + 1):
        taps[pid] = [r * kw + cc for r, cc in ps[pid].coords]
    slots = np.full(kh * kw, -1, np.int32)
    for u, (r, cc) in enumerate(union):
        slots[r * kw + cc] = u
    # the FKW arrays themselves, in the dtypes FKWLayer stores them in
    arrays = {
        "offset": np.ascontiguousarray(fkw.offset, np.int32),
        "reorder": np.ascontiguousarray(fkw.reorder, np.uint16),
        "index": np.ascontiguousarray(fkw.index, np.uint16),
        "pattern": np.ascontiguousarray(fkw.pattern_ids, np.uint8),
        "weights": np.ascontiguousarray(fkw.weights, np.float32),
        "taps": taps,
        "slots": slots,
        "union_taps": np.array([r * kw + cc for r, cc in union], np.int32),
    }
    if bias is not None:
        arrays["bias"] = np.ascontiguousarray(bias, np.float32).reshape(f)
    layer = native.FKWLayerStruct(
        filters=f, channels=c, kh=kh, kw=kw, entries=entries, stride=stride, padding=padding,
        activation=_ACTIVATIONS.index(activation), num_patterns=len(ps), union_size=len(union),
        **{name: arr.ctypes.data for name, arr in arrays.items()},
    )
    layer_ref = ctypes.byref(layer)
    conv, scratch_size = lib.fkw_conv, lib.fkw_conv_scratch
    scratch_floats: dict[tuple[int, int], int] = {}

    def fn(x: np.ndarray, arena=None) -> np.ndarray:
        x, squeeze = _normalize_input(x, c)
        x = np.ascontiguousarray(x, np.float32)  # the kernel pads it itself
        n, _, h, w = x.shape
        out = _alloc_out((n, f, _out_hw(h, kh, stride, padding), _out_hw(w, kw, stride, padding)),
                         arena, zero=False)  # every element is written
        if not out.size:  # empty batch or zero-width output: nothing to compute
            return _finish(out, squeeze, arena)
        need = scratch_floats.get((h, w))
        if need is None:
            need = scratch_floats[(h, w)] = scratch_size(layer_ref, h, w)
        scratch = _alloc_out((need,), arena, zero=False) if need else None
        conv(layer_ref, _address(x), n, h, w, _address(out),
             None if scratch is None else _address(scratch))
        if scratch is not None and arena is not None:
            arena.release(scratch)
        return _finish(out, squeeze, arena)

    fn.native_arrays = arrays  # keeps every buffer the struct points at alive
    return fn


# ----------------------------------------------------------------------
# Kernel cache
# ----------------------------------------------------------------------
def _bias_digest(bias: np.ndarray | None) -> str | None:
    if bias is None:
        return None
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{bias.dtype.str}{bias.shape}".encode())
    h.update(np.ascontiguousarray(bias).tobytes())
    return h.hexdigest()


class KernelCache:
    """Compile-once cache for generated kernels.

    Keys combine the layer's :meth:`FKWLayer.signature` (structure *and*
    values) with the schedule knobs and fused epilogue, so two graph
    nodes with identical pruned weights, stride/padding, bias, and
    activation share one closure — repeated VGG-style blocks compile
    once per distinct layer.  ``hits`` / ``misses`` expose the effect.

    Entries are reference-counted: every :meth:`acquire` (and
    :meth:`get`) counts one user of its key, and :meth:`release` drops
    one; the entry — and the weight copies its closure pins — is evicted
    when its last user releases it.  A process-wide cache shared by
    hot-loaded models therefore holds exactly the kernels of the models
    still loaded.

    Thread-safe: lookups, compiles, and counter updates run under an
    internal lock, so one cache may back executors shared across
    threads (compilation of a given key happens exactly once).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kernels: dict[tuple, KernelFn] = {}
        self._users: dict[tuple, int] = {}
        self.hits = 0
        self.misses = 0

    def acquire(
        self,
        fkw: FKWLayer,
        stride: int = 1,
        padding: int = 1,
        opt_level: str = "lre",
        bias: np.ndarray | None = None,
        activation: str | None = None,
    ) -> tuple[tuple, KernelFn]:
        """The layer's kernel (compiled on a miss) and the key to
        :meth:`release` it by; counts one user of that key."""
        key = (fkw.signature(), stride, padding, opt_level, _bias_digest(bias), activation)
        with self._lock:
            fn = self._kernels.get(key)
            if fn is not None:
                self.hits += 1
            else:
                self.misses += 1
                fn = generate_kernel(fkw, stride, padding, opt_level, bias=bias, activation=activation)
                self._kernels[key] = fn
            self._users[key] = self._users.get(key, 0) + 1
            return key, fn

    def get(self, *args, **kwargs) -> KernelFn:
        """:meth:`acquire` for callers that never release (the entry then
        lives as long as the cache)."""
        return self.acquire(*args, **kwargs)[1]

    def release(self, key: tuple) -> None:
        """Drop one user of ``key``; evict the entry with its last user."""
        with self._lock:
            users = self._users.get(key, 0) - 1
            if users > 0:
                self._users[key] = users
            elif users == 0:
                del self._users[key]
                del self._kernels[key]

    def native_only(self) -> bool:
        """Whether the cache holds kernels and every one is the native C
        kernel (an ``opt_level='native'`` key that fell back to ``gemm``,
        or any other level, makes this False)."""
        with self._lock:
            kernels = list(self._kernels.values())
        return bool(kernels) and all(hasattr(fn, "native_arrays") for fn in kernels)

    def clear(self) -> None:
        with self._lock:
            self._kernels.clear()
            self._users.clear()
            self.hits = self.misses = 0

    def __len__(self) -> int:
        return len(self._kernels)


# ----------------------------------------------------------------------
# C-like source emission
# ----------------------------------------------------------------------
def generate_source(fkw: FKWLayer, opt_level: str = "lre", unroll_oc: int = 4, device: str = "cpu") -> str:
    """Emit the kernel source for one layer.

    For ``'native'`` this is the C that runs: the generic FKW kernel of
    ``fkw_conv.c``, which takes the layer's FKW arrays as data, under a
    header naming the layer.  For the numpy levels it is C-like text
    with the structure of Figure 7's skeletons (the real PatDNN emits
    vectorised C++/OpenCL); tests assert its structural properties —
    e.g. the reorder variant contains no ``switch``.
    """
    if opt_level not in _OPT_LEVELS:
        raise ValueError(f"opt_level must be one of {_OPT_LEVELS}, got {opt_level!r}")
    f, c, kh, kw = fkw.shape
    k = len(fkw.pattern_set)
    header = [
        f"// PatDNN generated {device.upper()} kernel: conv {f}x{c}x{kh}x{kw}",
        f"// format=FKW kernels={fkw.num_kernels} patterns={k} opt={opt_level}",
    ]
    if opt_level == "native":
        return "\n".join(header) + "\n" + native.SOURCE.read_text()
    body: list[str] = []
    if opt_level == "no-opt":
        body += [
            "for (oc = 0; oc < tile_oc; oc += 1)",
            "  for (oh = 0; oh < tile_oh; oh += unroll_h)",
            "    for (ow = 0; ow < tile_ow; ow += unroll_w)",
            "      for (ic = 0; ic < in_channel; ic += 1) {",
            "        switch (style[oc][ic]) {",
            "          case 0: break; // skip empty kernel",
        ]
        for pid in range(1, k + 1):
            coords = ", ".join(f"({r},{cc})" for r, cc in fkw.pattern_set[pid].coords)
            body.append(f"          case {pid}: /* pattern {pid}: {coords} */ break;")
        body += ["        }", "      }"]
    elif opt_level == "gemm":
        union = _pattern_union(fkw)
        u = len(union)
        body += [
            f"// pattern-union coordinates: {u}/{kh * kw}; W_union[{f}][{u}*{c}] packed at compile time",
            "for (n = 0; n < batch; n += 1) {",
            f"  // im2col: {u} union coordinates x {c} channels -> col[{u}*{c}][out_h*out_w]",
        ]
        for slot, (r, cc) in enumerate(union):
            body.append(f"  col[{slot}] = vload_shifted(input[n], {r}, {cc}); // slice loaded once")
        body += [
            "  sgemm(W_union, col, output[n]); // one call per sample, reused across all filters",
            "}",
        ]
    else:
        body += [
            "for (oc = 0; oc < tile_oc; oc += unroll_oc)" if opt_level == "lre" else "for (oc = 0; oc < tile_oc; oc += 1)",
            "  for (oh = 0; oh < tile_oh; oh += unroll_h)",
            "    for (ow = 0; ow < tile_ow; ow += unroll_w) {",
        ]
        for pid in range(1, k + 1):
            coords = fkw.pattern_set[pid].coords
            rows = sorted({r for r, _ in coords})
            body.append(f"      for (ic = stride[{pid - 1}]; ic < stride[{pid}]; ic += unroll_ic) {{")
            if opt_level == "lre":
                for r in rows:
                    body.append(f"        vin_r{r} = vload(input, index[ic], oh + {r}, ow); // reused across entries")
                for widx, (r, cc) in enumerate(coords):
                    body.append(f"        acc = vfma(acc, w[ic][{widx}], vshift(vin_r{r}, {cc}));")
            else:
                body.append(f"        // compute pattern {pid} here")
            body.append("      }")
        body.append("    }")
    footer = ["// accumulate via reorder[] to original output channels"]
    return "\n".join(header + body + footer)
