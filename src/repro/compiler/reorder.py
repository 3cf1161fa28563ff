"""Filter kernel reorder — FKR (paper §5.2, Figure 9).

Two steps:

1. **Filter reorder** groups filters by *length* (number of non-empty
   kernels); inside each group, filters are greedily chained by
   *similarity* — the number of positions whose pattern ids match once
   each filter's kernels are sorted by pattern id.  Similar filters land
   in the same thread group → balanced threads, no divergence.
2. **Kernel reorder** sorts each filter's surviving kernels by pattern
   id so execution visits each pattern exactly once as a contiguous run
   → the branchless ``+Reorder`` code of Figure 7.

The result is pure metadata (permutations); the FKW storage applies it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class FKRResult:
    """Outcome of filter kernel reorder for one layer.

    Attributes:
        filter_order: (F,) permutation; ``filter_order[i]`` is the
            original filter index executed at position ``i`` (this is the
            FKW *reorder array*).
        groups: [(start, end)) ranges of equal-length filters in the new
            order — thread-group boundaries.
        kernel_orders: per *reordered* filter, the surviving kernels as
            an (n_i, 2) int array of (input_channel, pattern_id), sorted
            by pattern id then channel.
        lengths_before / lengths_after: filter lengths in original vs.
            reordered positions (Figure 14a's distributions).
    """

    filter_order: np.ndarray
    groups: list[tuple[int, int]]
    kernel_orders: list[np.ndarray]
    lengths_before: np.ndarray
    lengths_after: np.ndarray

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def pattern_runs_per_filter(self) -> float:
        """Mean count of contiguous same-pattern runs per filter.

        After kernel reorder this equals the number of *distinct*
        patterns per filter — the branch count of the generated code.
        """
        runs = []
        for order in self.kernel_orders:
            if len(order) == 0:
                runs.append(0)
                continue
            ids = order[:, 1]
            runs.append(1 + int(np.count_nonzero(ids[1:] != ids[:-1])))
        return float(np.mean(runs)) if runs else 0.0


def _kernels_by_filter(
    assignment: np.ndarray, by_pattern: bool
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Every filter's surviving kernels as (channel, pattern id) rows.

    Kernels come in channel order, or with ``by_pattern`` sorted by
    (pattern id, channel) through one stable argsort of an int64
    (filter, pattern, channel) key over the whole layer.  Returns the
    per-filter int32 views, the (F,) int64 lengths, and the owning
    filter and pattern id of every kernel in that order.
    """
    c = assignment.shape[1]
    flat = np.flatnonzero(assignment)
    filters, channels = np.divmod(flat, c)
    ids = assignment.reshape(-1)[flat].astype(np.int64)
    if by_pattern and len(ids):
        lo = int(ids.min())
        span = int(ids.max()) - lo + 1
        order = np.argsort((filters * span + (ids - lo)) * c + channels, kind="stable")
        channels, ids = channels[order], ids[order]
    kernels = np.stack([channels, ids], axis=1).astype(np.int32)
    lengths = np.bincount(filters, minlength=assignment.shape[0])
    bounds = np.concatenate([[0], np.cumsum(lengths)]).tolist()
    per_filter = [kernels[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return per_filter, lengths, filters, ids


def _greedy_chain(similarity: np.ndarray, start: int) -> np.ndarray:
    """Greedy chain over an (m, m) similarity matrix (consumed).

    From ``start``, each step takes the remaining row most similar to
    the current one; ties go to the lowest row, so with rows in
    ascending filter order the lowest original index wins.
    """
    chain = [start]
    similarity[:, start] = -1
    current = start
    for _ in range(len(similarity) - 1):
        current = int(similarity[current].argmax())
        similarity[:, current] = -1
        chain.append(current)
    return np.array(chain)


def filter_kernel_reorder(assignment: np.ndarray, greedy_limit: int = 256) -> FKRResult:
    """Run FKR on an (F, C) pattern-id assignment (0 = empty kernel).

    Greedy similarity chaining is O(n²) per length group; groups larger
    than ``greedy_limit`` fall back to lexicographic signature sort,
    which clusters identical pattern sequences just as effectively at
    O(n log n) (the paper does not fix the intra-group algorithm).

    Both work on per-filter pattern *counts*, never on the signatures
    themselves.  A signature is sorted, so id ``p`` fills one run
    ``[start_p, end_p)`` of positions: two signatures match at exactly
    the overlap of their runs, summed over ids, and of two equal-length
    signatures the lexicographically smaller one has more of the first
    id whose counts differ.

    Cost: one argsort over the layer's surviving kernels (kernel
    reorder), one lexsort of the filters over their P id counts (length
    groups and lexicographic order), then per greedy group of m filters
    one (m, m, P) overlap reduction and m argmax steps.  The 13 layers
    of the bench VGG-16 (width 0.5, ~114 k surviving kernels) reorder
    in ~25 ms on a 2-core x86 host, ~40 % of it the kernel sort.
    """
    if assignment.ndim != 2:
        raise ValueError(f"assignment must be (F, C), got shape {assignment.shape}")
    f = assignment.shape[0]

    # Kernel reorder: surviving kernels sorted by (pattern id, channel).
    per_filter, lengths, filters, ids = _kernels_by_filter(assignment, by_pattern=True)
    lo = int(ids.min()) if len(ids) else 0
    span = int(ids.max()) - lo + 1 if len(ids) else 1
    counts = np.bincount(filters * span + (ids - lo), minlength=f * span).reshape(f, span)
    ends = np.cumsum(counts, axis=1)
    starts = ends - counts

    # Filter reorder step 1: group by length, descending (long filters
    # first keeps thread chunks monotone).  One lexsort orders every
    # filter by (length descending, signature, index): the length groups
    # are its runs, each already in lexicographic signature order.
    by_signature = np.lexsort(np.vstack([-counts.T[::-1], -lengths]))
    cuts = (np.flatnonzero(np.diff(lengths[by_signature])) + 1).tolist()
    edges = [0, *cuts, f] if f else [0]
    new_order: list[np.ndarray] = []
    groups: list[tuple[int, int]] = []
    for start, end in zip(edges[:-1], edges[1:]):
        members = by_signature[start:end]
        if 1 < len(members) <= greedy_limit:
            # Step 2: greedy similarity chain inside the group, from the
            # lexicographically first filter, rows in ascending index.
            first = members[0]
            members = np.sort(members)
            s, e = starts[members], ends[members]
            overlap = np.minimum(e[:, None], e[None]) - np.maximum(s[:, None], s[None])
            similarity = np.maximum(overlap, 0).sum(axis=2)
            members = members[_greedy_chain(similarity, int(np.searchsorted(members, first)))]
        # Otherwise (one filter, or more than greedy_limit) the
        # lexicographic order stands: it clusters equal signatures
        # adjacently, which is all the wavefront needs.
        new_order.append(members)
        groups.append((start, end))

    filter_order = np.concatenate(new_order) if new_order else np.empty(0, dtype=np.int64)
    return FKRResult(
        filter_order=filter_order,
        groups=groups,
        kernel_orders=[per_filter[i] for i in filter_order],
        lengths_before=lengths,
        lengths_after=lengths[filter_order],
    )


def identity_reorder(assignment: np.ndarray) -> FKRResult:
    """The no-FKR baseline: original filter order, kernels by channel.

    Used by the ``No-opt`` codegen variant and as the Figure 14a
    'before' distribution.
    """
    per_filter, lengths, _, _ = _kernels_by_filter(assignment, by_pattern=False)
    f = assignment.shape[0]
    return FKRResult(
        filter_order=np.arange(f, dtype=np.int64),
        groups=[(0, f)],
        kernel_orders=per_filter,
        lengths_before=lengths,
        lengths_after=lengths,
    )
