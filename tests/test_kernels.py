"""Kernels against slow references: the inversion count against a
brute-force pair count, the shortest digits against ``repr``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlens import kernels
from oracles import is_tie


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


def assert_repr_digits(values: np.ndarray) -> None:
    digits, exponent, settled = kernels.shortest_digits(values)
    # repr's significant digits; with those equal, the exponent is the
    # one that puts them at the value's magnitude
    want = [
        text.partition("e")[0].replace(".", "").strip("0")
        for text in map(repr, values[settled].tolist())
    ]
    assert list(map(str, digits[settled].tolist())) == want
    magnitude = np.log10(digits[settled].astype(np.float64)) + exponent[settled]
    assert np.all(np.abs(magnitude - np.log10(values[settled])) < 1e-9)
    # left to repr: zero, subnormals and exact ties only
    for value in values[~settled].tolist():
        assert value < 2.2250738585072014e-308 or is_tie(value), value


def finite_bit_patterns(rng, n):
    bits = rng.integers(0, 1 << 63, size=n, dtype=np.uint64)  # sign bit clear
    values = bits.view(np.float64)
    return values[np.isfinite(values)]


def test_shortest_digits_on_random_bit_patterns():
    values = finite_bit_patterns(np.random.default_rng(20), 200_400)[:200_000]
    assert values.size == 200_000
    assert_repr_digits(values)
    _, _, settled = kernels.shortest_digits(values)
    # every biased exponent is drawn; one in 2048 is a subnormal
    assert np.count_nonzero(~settled) < values.size // 500


def test_shortest_digits_over_every_exponent():
    rng = np.random.default_rng(21)
    biased = np.repeat(np.arange(1, 2047, dtype=np.uint64), 24)
    mantissa = rng.integers(0, 1 << 52, size=biased.size, dtype=np.uint64)
    mantissa[::24] = 0  # powers of two: the lower neighbour is nearer
    mantissa[1::24] = (1 << 52) - 1
    assert_repr_digits(((biased << np.uint64(52)) | mantissa).view(np.float64))


EDGES = [
    1e-4,
    math.nextafter(1e-4, 0),
    math.nextafter(1e-4, 1),
    1e16,
    math.nextafter(1e16, 0),
    math.nextafter(1e16, math.inf),
    5e-324,
    2.5e-323,
    math.nextafter(2.2250738585072014e-308, 0),
    2.2250738585072014e-308,
    1.1754943508222875e-38,
    2.0**52 - 0.5,
    2.0**52 + 0.5,
    2.0**53 - 2,
    2.0**53 + 2,
    2.0**63,
    1e20,
    1.7976931348623157e308,
    0.1,
    0.3,
    1.5,
    12.25,
    742190215483.6562,  # exactly ...65625: a tie, left to repr
    0.0,
]


def test_shortest_digits_at_edges_and_powers_of_two():
    assert_repr_digits(np.array(EDGES + [2.0**e for e in range(-1074, 1024)]))


def test_shortest_digits_leaves_subnormals_ties_and_signs():
    values = np.array([5e-324, 742190215483.6562, -1.5, math.inf, 0.0, 1.5])
    _, _, settled = kernels.shortest_digits(values)
    assert settled.tolist() == [False, False, False, False, False, True]


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0, allow_nan=False, allow_infinity=False))
def test_property_shortest_digits_match_repr(value):
    assert_repr_digits(np.array([value]))
