"""Filter kernel reorder invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.reorder import filter_kernel_reorder, identity_reorder


def _random_assignment(rng, f=12, c=8, k=6, empty_frac=0.4):
    a = rng.integers(1, k + 1, size=(f, c)).astype(np.int32)
    a[rng.random((f, c)) < empty_frac] = 0
    return a


class TestFKR:
    def test_filter_order_is_permutation(self, rng):
        fkr = filter_kernel_reorder(_random_assignment(rng))
        assert sorted(fkr.filter_order.tolist()) == list(range(12))

    def test_groups_partition_filters(self, rng):
        fkr = filter_kernel_reorder(_random_assignment(rng))
        covered = []
        for start, end in fkr.groups:
            covered.extend(range(start, end))
        assert covered == list(range(12))

    def test_lengths_within_group_equal(self, rng):
        fkr = filter_kernel_reorder(_random_assignment(rng))
        for start, end in fkr.groups:
            lengths = fkr.lengths_after[start:end]
            assert len(set(lengths.tolist())) == 1

    def test_lengths_descending_across_groups(self, rng):
        fkr = filter_kernel_reorder(_random_assignment(rng))
        assert np.all(np.diff(fkr.lengths_after) <= 0)

    def test_kernels_sorted_by_pattern_id(self, rng):
        fkr = filter_kernel_reorder(_random_assignment(rng))
        for order in fkr.kernel_orders:
            if len(order) > 1:
                assert np.all(np.diff(order[:, 1]) >= 0)

    def test_kernel_sets_preserved(self, rng):
        a = _random_assignment(rng)
        fkr = filter_kernel_reorder(a)
        for pos, orig in enumerate(fkr.filter_order):
            expected = {(c, a[orig, c]) for c in np.nonzero(a[orig])[0]}
            got = {(int(ch), int(pid)) for ch, pid in fkr.kernel_orders[pos]}
            assert got == expected

    def test_runs_never_exceed_pattern_count(self, rng):
        a = _random_assignment(rng, k=6)
        fkr = filter_kernel_reorder(a)
        assert fkr.pattern_runs_per_filter() <= 6

    def test_reorder_reduces_runs_vs_identity(self, rng):
        a = _random_assignment(rng, f=24, c=24, k=8, empty_frac=0.2)
        before = identity_reorder(a).pattern_runs_per_filter()
        after = filter_kernel_reorder(a).pattern_runs_per_filter()
        assert after < before

    def test_identity_reorder_keeps_order(self, rng):
        a = _random_assignment(rng)
        fkr = identity_reorder(a)
        np.testing.assert_array_equal(fkr.filter_order, np.arange(12))
        np.testing.assert_array_equal(fkr.lengths_before, fkr.lengths_after)

    def test_empty_filter_supported(self):
        a = np.zeros((4, 4), dtype=np.int32)
        a[0, 0] = 1
        fkr = filter_kernel_reorder(a)
        assert fkr.lengths_after[0] == 1
        assert fkr.lengths_after[1:].sum() == 0

    def test_1d_input_rejected(self):
        with pytest.raises(ValueError):
            filter_kernel_reorder(np.zeros(4, dtype=np.int32))

    def test_large_group_fallback_matches_invariants(self, rng):
        a = _random_assignment(rng, f=64, c=4, k=2, empty_frac=0.0)
        fkr = filter_kernel_reorder(a, greedy_limit=8)  # force fallback
        assert sorted(fkr.filter_order.tolist()) == list(range(64))
        for start, end in fkr.groups:
            assert len(set(fkr.lengths_after[start:end].tolist())) == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 16), st.integers(2, 12))
def test_fkr_permutation_property(seed, f, c):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 5, size=(f, c)).astype(np.int32)
    fkr = filter_kernel_reorder(a)
    assert sorted(fkr.filter_order.tolist()) == list(range(f))
    assert int(fkr.lengths_after.sum()) == int((a > 0).sum())


# ----------------------------------------------------------------------
# Spec: FKR against a direct transcription of the greedy chain
# ----------------------------------------------------------------------
def _signature(a, i):
    """Filter ``i``'s pattern ids in kernel order (sorted)."""
    return tuple(sorted(a[i][a[i] != 0].tolist()))


def _similarity(s, t):
    return sum(x == y for x, y in zip(s, t))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    f=st.integers(1, 64),
    c=st.integers(1, 64),
    k=st.integers(1, 8),
    empty_frac=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    duplicates=st.integers(0, 32),
    empty_filters=st.integers(0, 8),
    greedy_limit=st.sampled_from([0, 2, 5, 256]),
)
def test_fkr_follows_the_greedy_chain_spec(
    seed, f, c, k, empty_frac, duplicates, empty_filters, greedy_limit
):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, k + 1, size=(f, c)).astype(np.int32)
    a[rng.random((f, c)) < empty_frac] = 0
    a[rng.integers(0, f, duplicates)] = a[rng.integers(0, f, duplicates)]  # identical filters
    a[rng.integers(0, f, empty_filters)] = 0
    fkr = filter_kernel_reorder(a, greedy_limit=greedy_limit)
    sig = [_signature(a, i) for i in range(f)]
    order = fkr.filter_order.tolist()
    assert sorted(order) == list(range(f))

    # Length groups partition the order and run in descending length.
    assert fkr.groups[0][0] == 0 and fkr.groups[-1][1] == f
    assert all(prev[1] == nxt[0] for prev, nxt in zip(fkr.groups, fkr.groups[1:]))
    group_lengths = []
    for start, end in fkr.groups:
        lengths = {len(sig[i]) for i in order[start:end]}
        assert len(lengths) == 1
        group_lengths.extend(lengths)
    assert group_lengths == sorted(group_lengths, reverse=True)
    assert len(set(group_lengths)) == len(group_lengths)

    for start, end in fkr.groups:
        members = order[start:end]
        if len(members) > greedy_limit:
            # Lexicographic signature order, equal signatures by index.
            assert members == sorted(members, key=lambda i: (sig[i], i))
            continue
        # Chain starts at the lexicographically first filter; each next
        # filter is the most similar of the remaining ones to its
        # predecessor, ties to the lowest original index.
        assert members[0] == min(members, key=lambda i: (sig[i], i))
        remaining = set(members[1:])
        for prev, nxt in zip(members, members[1:]):
            best = max(remaining, key=lambda j: (_similarity(sig[prev], sig[j]), -j))
            assert nxt == best
            remaining.remove(nxt)

    # Kernel orders: int32 (channel, id) rows sorted by (id, channel).
    for pos, orig in enumerate(order):
        kernels = fkr.kernel_orders[pos]
        assert kernels.dtype == np.int32 and kernels.shape == (len(sig[orig]), 2)
        rows = [(int(pid), int(ch)) for ch, pid in kernels]
        assert rows == sorted((int(a[orig, ch]), int(ch)) for ch in np.nonzero(a[orig])[0])
    np.testing.assert_array_equal(fkr.lengths_after, fkr.lengths_before[fkr.filter_order])
