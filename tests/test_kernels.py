"""Inversion-count kernel agrees with a brute-force pair count."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlens import kernels


def brute_inversions(values):
    # O(n^2) reference: pairs i < j with values[i] > values[j]
    n = len(values)
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if values[i] > values[j]:
                count += 1
    return count


@pytest.mark.parametrize(
    "values,expected",
    [
        ([], 0),
        ([7.0], 0),
        ([1.0, 2.0, 3.0, 4.0], 0),
        ([4.0, 3.0, 2.0, 1.0], 6),
        ([5.0, 5.0, 5.0], 0),
        ([3.0, 1.0, 2.0], 2),
        ([2.0, 1.0, 2.0, 1.0], 3),
    ],
)
def test_known_counts(values, expected):
    assert kernels.count_inversions(np.array(values, dtype=np.float64)) == expected


def test_reverse_sorted_is_max():
    n = 257
    arr = np.arange(n, dtype=np.float64)[::-1]
    assert kernels.count_inversions(arr) == n * (n - 1) // 2


def test_random_against_brute_force():
    rng = np.random.default_rng(42)
    for trial in range(200):
        n = int(rng.integers(0, 60))
        if trial % 2:
            arr = rng.normal(size=n)
        else:
            # heavy ties
            arr = rng.integers(0, 5, size=n).astype(np.float64)
        assert kernels.count_inversions(arr) == brute_inversions(arr)


def test_paths_agree_on_large_input():
    # the kernel against a vectorized pair matrix, at a size where the
    # kernel runs twelve merge scales with many ties per block
    rng = np.random.default_rng(7)
    arr = rng.integers(0, 1000, size=3000).astype(np.float64)
    expected = int(np.triu(arr[:, None] > arr[None, :], k=1).sum())
    assert kernels.count_inversions(arr) == expected


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(min_value=-10, max_value=10), max_size=40))
def test_property_matches_brute_force(values):
    arr = np.array(values, dtype=np.float64)
    assert kernels.count_inversions(arr) == brute_inversions(arr)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=30))
def test_property_reversal_identity(values):
    # inversions(a) + inversions(reversed(a)) == discordant-free pair count:
    # every non-tied pair is an inversion in exactly one direction
    arr = np.array(values, dtype=np.float64)
    n = len(arr)
    ties = brute_pairs_tied(arr)
    total = n * (n - 1) // 2
    fwd = kernels.count_inversions(arr)
    rev = kernels.count_inversions(arr[::-1].copy())
    assert fwd + rev == total - ties


def brute_pairs_tied(values):
    n = len(values)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if values[i] == values[j]
    )


def test_dispatcher_accepts_non_contiguous_and_int_input():
    base = np.arange(40)[::-2]  # non-contiguous, descending ints
    expected = brute_inversions(base.astype(np.float64))
    assert kernels.count_inversions(base) == expected
