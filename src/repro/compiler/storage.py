"""Compressed weight storage formats (paper §5.3, Figures 10 and 16).

**FKW (Filter-Kernel-Weight)** stores a pattern-pruned layer after FKR
with five arrays (Figure 10):

=============  =========  ==================================================
array          level      contents
=============  =========  ==================================================
offset         filter     start of each filter's kernels (cumulative count)
reorder        filter     original filter index per execution position
index          kernel     input channel of each surviving kernel
stride         kernel     per filter, cumulative kernel count after each
                          pattern run (so pattern boundaries need no tags)
weight         weight     non-zero values, ``entries`` per kernel
=============  =========  ==================================================

Because indices are *kernel-level* (one entry per kernel of 4 weights,
uint16) instead of *weight-level* (one int32 column per non-zero as in
CSR), FKW's extra-structure overhead is a small fraction of CSR's —
exactly the Figure 16 comparison, measured here in bytes.

``CSRLayer`` / ``COOLayer`` implement the classic formats over the
flattened (F, C·KH·KW) weight matrix for that comparison and for the
paper's "CSR implementation runs at dense speed" experiment.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.compiler.reorder import FKRResult, filter_kernel_reorder
from repro.core.patterns import PatternSet


@dataclass
class FKWLayer:
    """One conv layer in FKW format (plus enough metadata to execute).

    Per Figure 10, pattern ids are *implicit*: each filter's kernels are
    sorted by pattern id (FKR's kernel reorder) and the fixed-size
    ``stride`` row gives cumulative kernel counts per pattern, so run
    ``p`` of filter ``f`` occupies kernels ``[stride[f, p-1], stride[f, p])``
    — no per-kernel pattern tag is stored.
    """

    shape: tuple[int, int, int, int]  # original (F, C, KH, KW)
    entries: int
    offset: np.ndarray  # (F+1,) int32 — kernels before each filter
    reorder: np.ndarray  # (F,) uint16 — original filter index
    index: np.ndarray  # (K,) uint16 — input channel per kernel
    stride: np.ndarray  # (F, k_patterns+1) uint16 — cumulative counts
    weights: np.ndarray  # (K, entries) float32
    pattern_set: PatternSet = field(repr=False)
    _pattern_ids: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def pattern_ids(self) -> np.ndarray:
        """(K,) per-kernel pattern ids, reconstructed from ``stride``."""
        if self._pattern_ids is None:
            per_filter_counts = np.diff(self.stride.astype(np.int64), axis=1)  # (F, k)
            ids = np.tile(np.arange(1, per_filter_counts.shape[1] + 1), (per_filter_counts.shape[0], 1))
            self._pattern_ids = np.repeat(ids.reshape(-1), per_filter_counts.reshape(-1)).astype(np.uint8)
        return self._pattern_ids

    # ------------------------------------------------------------------
    @classmethod
    def from_pruned(
        cls,
        weights: np.ndarray,
        assignment: np.ndarray,
        pattern_set: PatternSet,
        fkr: FKRResult | None = None,
    ) -> "FKWLayer":
        """Pack pruned weights + pattern assignment into FKW.

        Args:
            weights: (F, C, KH, KW) pruned weights (zeros outside
                patterns; values *inside* a kernel's pattern may be any
                float including zero).
            assignment: (F, C) pattern ids, 0 = empty kernel.
            fkr: reorder metadata; computed here when omitted.
        """
        if fkr is None:
            fkr = filter_kernel_reorder(assignment)
        f, c, kh, kw = weights.shape
        entries = pattern_set.entries

        counts = np.array([len(k) for k in fkr.kernel_orders], dtype=np.int64)
        offset = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        k_total = int(counts.sum())
        if k_total:
            kernels = np.concatenate([k for k in fkr.kernel_orders if len(k)])
            channels = kernels[:, 0].astype(np.int64)
            pids = kernels[:, 1].astype(np.int64)
            owners = np.repeat(fkr.filter_order, counts)
            pos_table = np.zeros((len(pattern_set) + 1, entries), dtype=np.int64)
            for pid in range(1, len(pattern_set) + 1):
                pos_table[pid] = pattern_set[pid].positions
            # One gather of every kept weight: kernel row * KH*KW + position.
            kept = (owners * c + channels)[:, None] * (kh * kw) + np.take(pos_table, pids, axis=0)
            packed = np.take(weights.reshape(-1), kept).astype(np.float32, copy=False)
        else:
            channels = np.empty(0, dtype=np.int64)
            pids = np.empty(0, dtype=np.int64)
            packed = np.empty((0, entries), dtype=np.float32)

        # Figure 10's stride array: per filter, cumulative kernel count
        # after each pattern id (kernels are already pattern-sorted).
        k_patterns = len(pattern_set)
        filter_of_kernel = np.repeat(np.arange(f), counts)
        counts_fp = np.bincount(
            filter_of_kernel * (k_patterns + 1) + pids, minlength=f * (k_patterns + 1)
        ).reshape(f, k_patterns + 1)
        stride = np.cumsum(counts_fp, axis=1).astype(np.uint16)
        return cls(
            shape=(f, c, kh, kw),
            entries=entries,
            offset=offset,
            reorder=fkr.filter_order.astype(np.uint16),
            index=channels.astype(np.uint16),
            stride=stride,
            weights=packed,
            pattern_set=pattern_set,
            _pattern_ids=pids.astype(np.uint8) if k_total else np.empty(0, np.uint8),
        )

    # ------------------------------------------------------------------
    @property
    def num_kernels(self) -> int:
        return int(self.offset[-1])

    @property
    def nnz(self) -> int:
        return self.weights.size

    def signature(self) -> str:
        """Stable content digest of the packed layer.

        Covers structure *and* values (all five Figure 10 arrays plus the
        pattern coordinate table), so two layers share a signature iff
        their generated kernels would be identical.  Used as the
        :class:`repro.compiler.codegen.KernelCache` key; cached on first
        use — FKW layers are immutable once packed.
        """
        if getattr(self, "_signature", None) is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(repr((self.shape, self.entries)).encode())
            for arr in (self.offset, self.reorder, self.index, self.stride, self.weights):
                h.update(f"{arr.dtype.str}{arr.shape}".encode())
                h.update(np.ascontiguousarray(arr).tobytes())
            coords = [tuple(self.pattern_set[pid].coords) for pid in range(1, len(self.pattern_set) + 1)]
            h.update(repr(coords).encode())
            self._signature = h.hexdigest()
        return self._signature

    def filter_slice(self, position: int) -> slice:
        """Kernel range of the filter executed at ``position``."""
        return slice(int(self.offset[position]), int(self.offset[position + 1]))

    def pattern_runs(self, position: int) -> list[tuple[int, int, int]]:
        """(pattern_id, kernel_start, kernel_end) non-empty runs of a filter."""
        base = int(self.offset[position])
        row = self.stride[position].astype(np.int64)
        runs = []
        for pid in range(1, len(row)):
            start, end = base + int(row[pid - 1]), base + int(row[pid])
            if end > start:
                runs.append((pid, start, end))
        return runs

    def overhead_bytes(self) -> int:
        """Extra-structure bytes: everything except the weight values.

        Pattern ids are derived from ``stride`` at load time, so only the
        five Figure 10 arrays count.
        """
        return (
            self.offset.nbytes
            + self.reorder.nbytes
            + self.index.nbytes
            + self.stride.nbytes
        )

    def total_bytes(self) -> int:
        return self.overhead_bytes() + self.weights.nbytes

    def to_dense(self) -> np.ndarray:
        """Reconstruct the (F, C, KH, KW) dense weights (for verification)."""
        f, c, kh, kw = self.shape
        dense = np.zeros((f, c, kh, kw), dtype=np.float32)
        for pos in range(f):
            orig = int(self.reorder[pos])
            for k in range(*self.filter_slice(pos).indices(self.num_kernels)):
                pid = int(self.pattern_ids[k])
                channel = int(self.index[k])
                positions = list(self.pattern_set[pid].positions)
                kernel = np.zeros(kh * kw, dtype=np.float32)
                kernel[positions] = self.weights[k]
                dense[orig, channel] = kernel.reshape(kh, kw)
        return dense


@dataclass
class CSRLayer:
    """Compressed sparse row over the (F, C·KH·KW) weight matrix."""

    shape: tuple[int, int, int, int]
    indptr: np.ndarray  # (F+1,) int32
    indices: np.ndarray  # (nnz,) int32 — flattened (c, kh, kw) column
    data: np.ndarray  # (nnz,) float32

    @classmethod
    def from_dense(cls, weights: np.ndarray) -> "CSRLayer":
        f = weights.shape[0]
        mat = weights.reshape(f, -1)
        indptr = [0]
        indices: list[np.ndarray] = []
        data: list[np.ndarray] = []
        for row in mat:
            nz = np.nonzero(row)[0]
            indices.append(nz)
            data.append(row[nz])
            indptr.append(indptr[-1] + len(nz))
        return cls(
            shape=tuple(weights.shape),
            indptr=np.asarray(indptr, dtype=np.int32),
            indices=np.concatenate(indices).astype(np.int32) if indices else np.empty(0, np.int32),
            data=np.concatenate(data).astype(np.float32) if data else np.empty(0, np.float32),
        )

    @property
    def nnz(self) -> int:
        return len(self.data)

    def overhead_bytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes

    def total_bytes(self) -> int:
        return self.overhead_bytes() + self.data.nbytes

    def to_dense(self) -> np.ndarray:
        f = self.shape[0]
        mat = np.zeros((f, int(np.prod(self.shape[1:]))), dtype=np.float32)
        for i in range(f):
            cols = self.indices[self.indptr[i] : self.indptr[i + 1]]
            mat[i, cols] = self.data[self.indptr[i] : self.indptr[i + 1]]
        return mat.reshape(self.shape)


@dataclass
class COOLayer:
    """Coordinate format (row, col, value) — the loosest comparator."""

    shape: tuple[int, int, int, int]
    rows: np.ndarray  # (nnz,) int32
    cols: np.ndarray  # (nnz,) int32
    data: np.ndarray  # (nnz,) float32

    @classmethod
    def from_dense(cls, weights: np.ndarray) -> "COOLayer":
        f = weights.shape[0]
        mat = weights.reshape(f, -1)
        rows, cols = np.nonzero(mat)
        return cls(
            shape=tuple(weights.shape),
            rows=rows.astype(np.int32),
            cols=cols.astype(np.int32),
            data=mat[rows, cols].astype(np.float32),
        )

    @property
    def nnz(self) -> int:
        return len(self.data)

    def overhead_bytes(self) -> int:
        return self.rows.nbytes + self.cols.nbytes

    def total_bytes(self) -> int:
        return self.overhead_bytes() + self.data.nbytes
