"""Hot numeric kernels.

The inversion counter below is the inner loop of the tau-b rank
correlation and the reason it runs in O(n log n) instead of O(n^2).
It is vectorized numpy throughout; there is no compiled backend.
"""

from __future__ import annotations

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
