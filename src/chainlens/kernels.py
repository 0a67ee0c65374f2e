"""Hot numeric kernels.

The inversion counter below is the inner loop of the tau-b rank
correlation and the reason it runs in O(n log n) instead of O(n^2).
The shortest-digits kernel gives ``repr``'s digits of whole arrays of
doubles, for the panel CSV writer. Both are vectorized numpy
throughout; there is no compiled backend.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# No JIT backend exists; perfbench/run.py still reads this flag in its
# environment probe, so it stays defined.
JIT_ENABLED = False


def count_inversions(values: np.ndarray) -> int:
    """Number of pairs i < j with values[i] > values[j].

    Runs the merge-sort recurrence one scale at a time: at scale ``w``
    every window of ``2w`` original positions contributes the number of
    (left-half, right-half) pairs that are out of order, and the sum
    over scales is the total inversion count. Each scale is a single
    integer sort plus O(n) bookkeeping.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if n < 2:
        return 0
    # dense value ranks keep the composite sort key inside int64
    _, ranks = np.unique(values, return_inverse=True)
    ranks = ranks.astype(np.int64)
    stride = np.int64(2 * n + 2)  # even, and > 2*max_rank + 1
    idx = np.arange(n, dtype=np.int64)
    total = 0
    width = 1
    while width < n:
        block = idx // (2 * width)
        side = (idx // width) & 1  # 0 = left half, 1 = right half
        # sort by (block, value, side); side last so that on equal
        # values the left half drains first and ties are not counted
        key = block * stride + 2 * ranks + side
        key.sort()
        sorted_side = key & 1
        sorted_block = key // stride
        n_blocks = int(block[-1]) + 1
        left_sizes = np.bincount(block[side == 0], minlength=n_blocks)
        left_before_block = np.concatenate(
            ([0], np.cumsum(left_sizes)[:-1])
        )
        left_running = np.cumsum(sorted_side == 0)
        right_pos = np.flatnonzero(sorted_side == 1)
        right_block = sorted_block[right_pos]
        left_seen = left_running[right_pos] - left_before_block[right_block]
        total += int(np.sum(left_sizes[right_block] - left_seen))
        width *= 2
    return total


# Decimal exponents whose 126-bit approximations shortest_digits needs:
# 10**e for e = -k, where k = floor(log10(2**q)) over every normal double.
_E_MIN, _E_MAX = -292, 324
_LIMB = np.uint64(31)
_LIMB_MASK = np.uint64((1 << 31) - 1)


@cache
def _pow10_limbs() -> tuple[np.ndarray, ...]:
    """``g(e) = floor(10**e * 2**(125 - floor(log2(10**e)))) + 1`` for
    ``e`` in ``[_E_MIN, _E_MAX]``, each in ``[2**125, 2**126]``, as five
    uint64 arrays of 31-bit limbs, least significant first."""
    rows = []
    for e in range(_E_MIN, _E_MAX + 1):
        # 2**r <= 10**e < 2**(r + 1); 10**e is a power of two only at e = 0
        r = (10**e).bit_length() - 1 if e >= 0 else -((10**-e).bit_length())
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        if r <= 125:
            num <<= 125 - r
        else:
            den <<= r - 125
        g = num // den + 1
        rows.append([(g >> (31 * i)) & ((1 << 31) - 1) for i in range(5)])
    return tuple(np.array(rows, dtype=np.uint64).T.copy())


def _round_to_odd(g: list[np.ndarray], cp: np.ndarray) -> np.ndarray:
    """``floor(g * cp / 2**127)``, with its lowest bit set when bits
    64 to 126 of ``g * cp`` are not all zero; ``g`` as five 31-bit
    limbs, ``cp < 2**60``.

    The lower 64 bits are left out of that test, as Schubfach's ``rop``
    leaves them out: ``g`` exceeds ``10**e * 2**(125 - r)`` by at most
    1, so when ``cp`` times the exact power is a whole multiple of
    ``2**127`` (an exact decimal midpoint or end), the excess stays
    below ``cp < 2**60`` and the result is even, as it must be."""
    c0, c1 = cp & _LIMB_MASK, cp >> _LIMB
    g0, g1, g2, g3, g4 = g
    # limb products are below 2**62, so a column of two and a carry fit
    acc = (g0 * c0) >> _LIMB
    acc = (acc + g1 * c0 + g0 * c1) >> _LIMB  # bits 31 to 61 are not needed
    limbs = []
    for high, low in ((g2, g1), (g3, g2), (g4, g3)):
        acc += high * c0 + low * c1
        limbs.append(acc & _LIMB_MASK)
        acc >>= _LIMB
    acc += g4 * c1  # the product's bits from 155 up
    bits_62, bits_93, bits_124 = limbs
    inexact = ((bits_62 >> np.uint64(2)) | bits_93 | (bits_124 & np.uint64(7))) != 0
    return (acc << np.uint64(28)) | (bits_124 >> np.uint64(3)) | inexact


def shortest_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``repr``'s digits of each double: ``(digits, exponent, settled)``.

    Where ``settled``, ``digits * 10**exponent`` is the shortest decimal
    that reads back as the value, the one nearest it among the shortest,
    and ``digits`` has no trailing zero: ``repr`` prints exactly these
    digits. The value must be positive and normal and the nearest
    shortest decimal unique; elsewhere ``settled`` is False and the
    other two hold no meaning. Only integer arithmetic is used.

    This is Giulietti's Schubfach ("The Schubfach way to render doubles",
    2020). For ``v = c * 2**q`` it scales ``4 * v`` and the two ends of
    the interval of decimals that read back as ``v`` by ``10**-k``,
    chosen so that ``s = floor(v * 10**-k)`` has 16 or 17 digits. Each
    is a round-to-odd product of ``c`` with ``g(-k)``, a 126-bit
    approximation of ``10**-k`` close enough to decide every comparison
    below exactly. The result is ``s // 10`` or the next number up, one
    digit shorter, when exactly one of them lies in the interval; else
    whichever of ``s`` and ``s + 1`` lies in it, the nearer when both do.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    biased = (bits >> np.uint64(52)).astype(np.int64)  # the sign bit too
    settled = (biased > 0) & (biased < 2047)
    biased[~settled] = 1075  # any normal value keeps the arithmetic in range
    fraction = bits & np.uint64((1 << 52) - 1)
    c = fraction | np.uint64(1 << 52)
    q = biased - 1075
    # below a power of two the lower neighbour is half as far
    irregular = (fraction == 0) & (biased > 1)
    # k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) when irregular
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    # h = q + floor(log2(10**-k)) + 2, in 2..5, so cp < 2**60 below
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    at = -k - _E_MIN
    g = [limb[at] for limb in _pow10_limbs()]
    cb = c << np.uint64(2)
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - np.uint64(2) + irregular.astype(np.uint64)) << h)
    vbr = _round_to_odd(g, (cb + np.uint64(2)) << h)
    # an odd c rounds to even, so its interval excludes its ends
    odd = c & np.uint64(1)
    lower, upper = vbl + odd, vbr - odd

    s = vb >> np.uint64(2)
    shorter_s = s // np.uint64(10)
    shorter = shorter_s * np.uint64(40)
    up_in = lower <= shorter
    wp_in = shorter + np.uint64(40) <= upper
    # at most one of the shorter candidates lies in the interval
    short = (s >= 10) & (up_in != wp_in)
    u_in = lower <= s << np.uint64(2)
    w_in = (s << np.uint64(2)) + np.uint64(4) <= upper
    middle = (s << np.uint64(2)) + np.uint64(2)
    settled &= short | ((u_in | w_in) & (~(u_in & w_in) | (vb != middle)))
    up = np.where(u_in & w_in, vb > middle, w_in)
    digits = np.where(short, shorter_s + wp_in, s + up)
    exponent = k + short
    # strip trailing zeros: only a decimal with one digit fewer than s
    # (at most 16) has them, when it is short like 1.5
    ends = np.flatnonzero(digits // np.uint64(10) * np.uint64(10) == digits)
    if ends.size:
        tail, tail_exponent = digits[ends], exponent[ends]
        for zeros in (8, 4, 2, 1):
            scale = np.uint64(10**zeros)
            quotient = tail // scale
            whole = quotient * scale == tail
            tail = np.where(whole, quotient, tail)
            tail_exponent += whole * zeros
        digits[ends], exponent[ends] = tail, tail_exponent
    return digits, exponent, settled
