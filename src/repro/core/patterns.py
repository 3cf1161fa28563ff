"""Kernel patterns and pattern-set design (paper §3.1 and §4.1).

A *pattern* is a fixed sparsity shape for one 2-D convolution kernel:
``entries`` positions survive, the rest are pruned.  For the common 3×3
kernel with 4 entries, the paper's design rules are:

* the central weight is never pruned (visual-system prior, §4.1);
* the *natural pattern* of a kernel is the shape formed by its
  ``entries`` largest-magnitude weights (centre included);
* the candidate set is the top-k most frequent natural patterns across
  all kernels of a pre-trained network — there are C(8,3) = 56 possible
  4-entry shapes for 3×3 kernels.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Pattern:
    """One kernel sparsity shape.

    Attributes:
        kernel_size: side of the square kernel (3 for the paper's focus).
        positions: sorted tuple of flat indices kept (row-major).
    """

    kernel_size: int
    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.kernel_size * self.kernel_size
        if any(not 0 <= p < n for p in self.positions):
            raise ValueError(f"pattern positions {self.positions} out of range for {self.kernel_size}x{self.kernel_size}")
        if len(set(self.positions)) != len(self.positions):
            raise ValueError(f"duplicate positions in pattern: {self.positions}")
        object.__setattr__(self, "positions", tuple(sorted(self.positions)))

    @property
    def entries(self) -> int:
        return len(self.positions)

    @property
    def mask(self) -> np.ndarray:
        """Boolean (k, k) mask, True where weights survive."""
        m = np.zeros(self.kernel_size * self.kernel_size, dtype=bool)
        m[list(self.positions)] = True
        return m.reshape(self.kernel_size, self.kernel_size)

    @property
    def bitmask(self) -> int:
        """Integer encoding (bit i set iff flat position i kept)."""
        bits = 0
        for p in self.positions:
            bits |= 1 << p
        return bits

    @property
    def coords(self) -> tuple[tuple[int, int], ...]:
        """(row, col) coordinates of surviving weights."""
        k = self.kernel_size
        return tuple((p // k, p % k) for p in self.positions)

    def includes_center(self) -> bool:
        center = (self.kernel_size * self.kernel_size) // 2
        return center in self.positions

    def distortion(self, kernel: np.ndarray) -> float:
        """Squared L2 of the weights this pattern would prune.

        The Euclidean projection onto "kernel matches this pattern" zeroes
        the complement, so the projection distance is exactly this value.
        """
        flat = kernel.reshape(-1)
        keep = np.zeros_like(flat, dtype=bool)
        keep[list(self.positions)] = True
        return float(np.sum(flat[~keep] ** 2))

    def retained_energy(self, kernel: np.ndarray) -> float:
        """Squared L2 of the weights this pattern keeps (the L2 metric of §4.2)."""
        flat = kernel.reshape(-1)
        return float(np.sum(flat[list(self.positions)] ** 2))

    def __repr__(self) -> str:
        rows = ["".join("x" if self.mask[r, c] else "." for c in range(self.kernel_size)) for r in range(self.kernel_size)]
        return f"Pattern({'|'.join(rows)})"


def enumerate_candidate_patterns(kernel_size: int = 3, entries: int = 4) -> list[Pattern]:
    """All patterns that keep the centre plus ``entries - 1`` other positions.

    For (3, 4) this is the paper's 56-element natural-pattern universe.
    """
    n = kernel_size * kernel_size
    center = n // 2
    others = [p for p in range(n) if p != center]
    combos = itertools.combinations(others, entries - 1)
    return [Pattern(kernel_size, (center, *combo)) for combo in combos]


def natural_pattern_of(kernel: np.ndarray, entries: int = 4) -> Pattern:
    """The kernel's natural pattern: top-|entries| magnitudes incl. centre.

    The centre weight is forced in (paper: "the central weight ... shall
    not be pruned"); the remaining ``entries - 1`` slots go to the largest
    magnitudes among the rest.
    """
    k = kernel.shape[-1]
    if kernel.shape != (k, k):
        raise ValueError(f"expected a square 2-D kernel, got shape {kernel.shape}")
    flat = np.abs(kernel.reshape(-1)).astype(np.float64)
    center = flat.size // 2
    flat_no_center = flat.copy()
    flat_no_center[center] = -np.inf
    top = np.argpartition(-flat_no_center, entries - 1)[: entries - 1]
    return Pattern(k, (center, *map(int, top)))


class PatternSet:
    """An ordered candidate set of patterns with 1-based ids.

    Id 0 is reserved for "empty kernel" (connectivity-pruned) in the
    compiler's FKW format, so patterns are numbered 1..k.
    """

    def __init__(self, patterns: Sequence[Pattern]) -> None:
        if not patterns:
            raise ValueError("pattern set must not be empty")
        sizes = {p.kernel_size for p in patterns}
        if len(sizes) != 1:
            raise ValueError(f"mixed kernel sizes in pattern set: {sizes}")
        entry_counts = {p.entries for p in patterns}
        if len(entry_counts) != 1:
            raise ValueError(f"mixed entry counts in pattern set: {entry_counts}")
        if len({p.bitmask for p in patterns}) != len(patterns):
            raise ValueError("duplicate patterns in set")
        self.patterns = list(patterns)
        self.kernel_size = patterns[0].kernel_size
        self.entries = patterns[0].entries
        self._by_bitmask = {p.bitmask: i + 1 for i, p in enumerate(self.patterns)}
        # Stacked boolean masks (k_patterns, kh*kw) for vectorised selection.
        self._mask_matrix = np.stack([p.mask.reshape(-1) for p in self.patterns]).astype(np.float32)

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)

    def __getitem__(self, pattern_id: int) -> Pattern:
        """Look up by 1-based pattern id."""
        if not 1 <= pattern_id <= len(self.patterns):
            raise KeyError(f"pattern id {pattern_id} out of range 1..{len(self.patterns)}")
        return self.patterns[pattern_id - 1]

    def id_of(self, pattern: Pattern) -> int:
        try:
            return self._by_bitmask[pattern.bitmask]
        except KeyError:
            raise KeyError(f"{pattern!r} not in this pattern set") from None

    def assign(self, weights: np.ndarray) -> np.ndarray:
        """Best pattern id for every kernel of a conv weight tensor.

        Args:
            weights: (F, C, kh, kw) conv weights.

        Returns:
            int array (F, C) of 1-based pattern ids maximising retained L2
            energy (equivalently minimising projection distortion).
        """
        f, c, kh, kw = weights.shape
        if kh != self.kernel_size or kw != self.kernel_size:
            raise ValueError(f"weights kernel {kh}x{kw} != pattern set {self.kernel_size}")
        sq = (weights.reshape(f * c, kh * kw) ** 2).astype(np.float32, copy=False)
        energy = sq @ self._mask_matrix.T  # (F*C, k_patterns)
        best = np.argmax(energy, axis=1).astype(np.int32)
        best += 1
        return best.reshape(f, c)

    def masks_for(self, assignment: np.ndarray) -> np.ndarray:
        """Expand an (F, C) id assignment into an (F, C, kh, kw) float mask."""
        table = self._mask_matrix.reshape(len(self.patterns), self.kernel_size, self.kernel_size)
        return np.take(table, assignment - 1, axis=0)

    def __repr__(self) -> str:
        return f"PatternSet(k={len(self)}, {self.kernel_size}x{self.kernel_size}, {self.entries}-entry)"


def count_natural_patterns(
    weight_tensors: Iterable[np.ndarray], entries: int = 4
) -> Counter:
    """Histogram of natural patterns over all kernels of all given tensors."""
    counts: Counter = Counter()
    for w in weight_tensors:
        if w.ndim != 4:
            raise ValueError(f"expected 4-D conv weights, got shape {w.shape}")
        f, c, kh, kw = w.shape
        if kh != kw:
            raise ValueError("non-square kernels are not supported")
        flat = np.abs(w.reshape(f * c, kh * kw)).astype(np.float64)
        center = (kh * kw) // 2
        flat[:, center] = np.inf  # force centre into the top-|entries|
        top = np.argpartition(-flat, entries - 1, axis=1)[:, :entries]
        for row in top:
            bits = 0
            for p in row:
                bits |= 1 << int(p)
            counts[bits] += 1
    return counts


def mine_pattern_set(
    weight_tensors: Iterable[np.ndarray], k: int = 8, entries: int = 4
) -> PatternSet:
    """Design the candidate pattern set (paper §4.1 heuristic).

    Scans every kernel, computes its natural pattern, and keeps the top-k
    most frequent shapes.  Ties break deterministically by bitmask.

    Args:
        weight_tensors: conv weights (F, C, kh, kw) of the pre-trained net
            (pass only the 3×3 layers).
        k: candidate-set size; the paper finds 6–8 ideal for 3×3 kernels.
    """
    tensors = list(weight_tensors)
    if not tensors:
        raise ValueError("no weight tensors supplied to mine_pattern_set")
    kernel_size = tensors[0].shape[-1]
    counts = count_natural_patterns(tensors, entries)
    universe = enumerate_candidate_patterns(kernel_size, entries)
    by_bitmask = {p.bitmask: p for p in universe}
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    chosen = [by_bitmask[bits] for bits, _ in ranked[:k] if bits in by_bitmask]
    # If the model is too small to exhibit k distinct natural patterns,
    # pad from the canonical universe so the set always has k members.
    if len(chosen) < k:
        have = {p.bitmask for p in chosen}
        for p in universe:
            if len(chosen) == k:
                break
            if p.bitmask not in have:
                chosen.append(p)
    return PatternSet(chosen[:k])
