"""Euclidean projections onto the pruning constraint sets (paper §4.2).

ADMM's subproblems 2 and 3 are projections onto combinatorial sets; for
every constraint the paper uses, the optimal projection has a closed
form implemented here:

* kernel-pattern set  — per kernel, keep the candidate pattern retaining
  maximal L2 energy, zero the complement;
* connectivity       — per layer, keep the α kernels with largest L2
  norms, zero whole kernels otherwise;
* filter / channel   — structured-pruning baselines;
* magnitude          — non-structured baseline (ADMM-NN).

The ``project_*`` functions are pure: they take a weight array and
return ``(projected_copy, metadata)``.  :func:`connectivity_keep_mask`
is the metadata half of :func:`project_connectivity` alone, for callers
that only need the decision (mask extraction).
"""

from __future__ import annotations

import numpy as np

from repro.core.patterns import PatternSet


def project_kernel_pattern(
    weights: np.ndarray, pattern_set: PatternSet
) -> tuple[np.ndarray, np.ndarray]:
    """Project conv weights onto the kernel-pattern constraint set.

    Args:
        weights: (F, C, kh, kw) array.
        pattern_set: candidate patterns.

    Returns:
        (projected weights, (F, C) int32 array of assigned pattern ids).
    """
    assignment = pattern_set.assign(weights)
    masks = pattern_set.masks_for(assignment)
    return (weights * masks).astype(weights.dtype, copy=False), assignment


def _kernel_norms(weights: np.ndarray) -> np.ndarray:
    f, c = weights.shape[:2]
    return np.sqrt((weights.reshape(f, c, -1) ** 2).sum(axis=2))


def connectivity_keep_mask(weights: np.ndarray, keep_kernels: int) -> np.ndarray:
    """(F, C) boolean mask of the ``keep_kernels`` kernels with largest L2 norm."""
    f, c = weights.shape[:2]
    total = f * c
    if not 1 <= keep_kernels <= total:
        raise ValueError(f"keep_kernels={keep_kernels} out of range 1..{total}")
    norms = _kernel_norms(weights).reshape(-1)
    keep_idx = np.argpartition(-norms, keep_kernels - 1)[:keep_kernels]
    mask = np.zeros(total, dtype=bool)
    mask[keep_idx] = True
    return mask.reshape(f, c)


def project_connectivity(
    weights: np.ndarray, keep_kernels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Keep the ``keep_kernels`` kernels with largest L2 norm, zero the rest.

    Returns:
        (projected weights, (F, C) boolean keep-mask).
    """
    mask = connectivity_keep_mask(weights, keep_kernels)
    projected = weights * mask[:, :, None, None]
    return projected.astype(weights.dtype, copy=False), mask


def connectivity_budget(weights_shape: tuple[int, ...], rate: float) -> int:
    """Kernels to keep for a connectivity pruning rate (e.g. 3.6×)."""
    f, c = weights_shape[:2]
    if rate < 1.0:
        raise ValueError(f"connectivity pruning rate must be >= 1, got {rate}")
    return max(1, int(round(f * c / rate)))


def project_filters(weights: np.ndarray, keep_filters: int) -> tuple[np.ndarray, np.ndarray]:
    """Structured baseline: keep whole filters with largest L2 norms."""
    f = weights.shape[0]
    if not 1 <= keep_filters <= f:
        raise ValueError(f"keep_filters={keep_filters} out of range 1..{f}")
    norms = np.sqrt((weights.reshape(f, -1) ** 2).sum(axis=1))
    keep_idx = np.argpartition(-norms, keep_filters - 1)[:keep_filters]
    mask = np.zeros(f, dtype=bool)
    mask[keep_idx] = True
    projected = weights * mask[:, None, None, None]
    return projected.astype(weights.dtype), mask


def project_channels(weights: np.ndarray, keep_channels: int) -> tuple[np.ndarray, np.ndarray]:
    """Structured baseline: keep whole input channels with largest L2 norms."""
    c = weights.shape[1]
    if not 1 <= keep_channels <= c:
        raise ValueError(f"keep_channels={keep_channels} out of range 1..{c}")
    norms = np.sqrt((weights.transpose(1, 0, 2, 3).reshape(c, -1) ** 2).sum(axis=1))
    keep_idx = np.argpartition(-norms, keep_channels - 1)[:keep_channels]
    mask = np.zeros(c, dtype=bool)
    mask[keep_idx] = True
    projected = weights * mask[None, :, None, None]
    return projected.astype(weights.dtype), mask


def project_magnitude(weights: np.ndarray, keep_weights: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-structured baseline: keep the top-|keep_weights| magnitudes."""
    total = weights.size
    if not 1 <= keep_weights <= total:
        raise ValueError(f"keep_weights={keep_weights} out of range 1..{total}")
    flat = np.abs(weights.reshape(-1))
    keep_idx = np.argpartition(-flat, keep_weights - 1)[:keep_weights]
    mask = np.zeros(total, dtype=bool)
    mask[keep_idx] = True
    mask = mask.reshape(weights.shape)
    return (weights * mask).astype(weights.dtype), mask
