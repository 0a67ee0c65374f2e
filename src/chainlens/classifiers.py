"""Six from-scratch binary classifiers over numeric feature matrices.

All of them consume float64 matrices X of shape (n, d) and integer
label vectors y in {0, 1}, and predict hard labels. Determinism rules:
every random choice flows from an explicit seed, prediction ties break
toward the smaller label, and KNN breaks distance ties toward the
smaller training index.

The trees are CART with Gini impurity and midpoint thresholds. Among
equally good splits of a node the smaller feature index wins, then the
smaller threshold. Trees grow one level at a time. Each random-forest
tree takes its bootstrap sample and, once per level, one feature subset
for every node of that level from its own generator, seeded by
``[seed, tree]``.

The tree builder is presorted in the SLIQ/SPRINT style. A fit sorts each
feature once (``_presort``, a stable row order); a forest shares that
sort, and each tree keeps the rows of nonzero bootstrap weight from it.
Each feature's row list stays grouped by frontier node and sorted within
it, so a level finds every node's cuts where the feature value changes
along its lists, and cuts each feature's list in place into the children
with two ``np.compress`` calls into one list of scratch. Besides that
one buffer of row lists, a level holds only arrays with one entry per
node or per (feature, node) pair, one block of ``_SCAN_CELLS`` rows, as
it scores the cuts a block at a time, and arrays as long as one list
while it marks each row's side and cuts the lists. A forest grows its
trees in batches, one level of a whole batch per pass, each CPU's share
but the first in a forked child; a batch draws only from its own trees'
generators, so the trees depend on neither the batch size nor the CPU
count. The per-node arithmetic (Gini, midpoint thresholds, tie-breaks)
is that of a plain CART, so the trees are those that re-sort at every
node would grow. A tree is held as format 2 stores it, dtypes included:
``feature`` for every node in level order (-1 for a leaf), ``threshold``
for the split nodes only and ``label`` for the leaves only; the k-th
split node has children 2k + 1 and 2k + 2.

A model is saved as a document of its fields, which ``json.dump``
writes with ``jsonable`` as its ``default``, and rebuilt from one
(``from_doc``). Format 2 stores each array as the base64 of its exact
little-endian bytes.

``fit_classifier`` is the one checked way to fit a kind: it checks the
settings (``resolve_hyperparameters``) and the data, then calls the
kind's fitter, which only fits. The discriminative kinds (logistic
regression, linear SVM, decision tree, random forest) refuse
single-class training sets; Gaussian NB and KNN degenerate gracefully
to constant / majority behavior.
"""

from __future__ import annotations

import base64
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from .errors import ChainlensError
from .rules import CLASSIFIER_KINDS

def _validate_xy(X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.size == 0:
        raise ChainlensError("training features must be a nonempty 2-d matrix")
    if y.shape != (X.shape[0],):
        raise ChainlensError(
            f"labels shape {y.shape} does not match {X.shape[0]} rows"
        )
    if not np.all(np.isfinite(X)):
        raise ChainlensError("training features must be finite")
    if not np.all((y == 0) | (y == 1)):
        raise ChainlensError("labels must be 0 or 1")
    return X, y.astype(np.int64)


def _validate_matrix(X, n_features):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ChainlensError("prediction input must be a 2-d matrix")
    if X.shape[1] != n_features:
        raise ChainlensError(
            f"expected {n_features} features, got {X.shape[1]}"
        )
    if not np.all(np.isfinite(X)):
        raise ChainlensError("prediction input must be finite")
    return X


def _sigmoid(z: np.ndarray) -> np.ndarray:
    ez = np.exp(-np.abs(z))  # never overflows
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def logistic_loss_and_gradient(params: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float):
    """Mean log-loss with L2 penalty on the weights (bias unpenalized).

    ``params`` packs the weight vector followed by the bias, so the
    whole gradient is checkable against finite differences in one go.
    """
    params = np.asarray(params, dtype=np.float64)
    w = params[:-1]
    z = X @ w + params[-1]
    # log(1 + exp(±z)) without overflow
    loss_terms = np.logaddexp(0.0, z) - y * z
    loss = float(loss_terms.mean()) + 0.5 * l2 * float(w @ w)
    return loss, _logistic_gradient(w, z, X, y, l2)


def _logistic_gradient(w, z, X, y, l2):
    """The gradient of that loss at margins ``z = X @ w + bias``, bias last."""
    residual = _sigmoid(z) - y
    grad_w = X.T @ residual / X.shape[0] + l2 * w
    return np.append(grad_w, float(residual.mean()))


@dataclass(frozen=True, eq=False)
class LinearModel:
    """A separating hyperplane: logistic regression or linear SVM."""

    weights: np.ndarray
    bias: float
    hyperparameters: dict

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _validate_matrix(X, self.n_features)
        return (X @ self.weights + self.bias >= 0.0).astype(np.int64)


def _fit_logistic_regression(X, y, hp, seed) -> LinearModel:
    params = np.zeros(X.shape[1] + 1, dtype=np.float64)
    for _ in range(hp["iterations"]):
        w = params[:-1]
        grad = _logistic_gradient(w, X @ w + params[-1], X, y, hp["l2"])
        params -= hp["learning_rate"] * grad
    return LinearModel(weights=params[:-1], bias=float(params[-1]), hyperparameters=hp)


def _fit_linear_svm(X, y, hp, seed) -> LinearModel:
    # full-batch subgradient descent on mean hinge loss + L2
    signs = np.where(y == 1, 1.0, -1.0)
    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    n = X.shape[0]
    for _ in range(hp["iterations"]):
        margins = signs * (X @ w + b)
        violating = margins < 1.0
        # np.compress: boolean indexing with an irregular mask is 3-6x slower
        violating_signs = np.compress(violating, signs)
        grad_w = hp["l2"] * w - (violating_signs @ np.compress(violating, X, axis=0)) / n
        grad_b = -float(violating_signs.sum()) / n
        w -= hp["learning_rate"] * grad_w
        b -= hp["learning_rate"] * grad_b
    return LinearModel(weights=w, bias=float(b), hyperparameters=hp)


def _gini_pair(pos: np.ndarray, total: np.ndarray, out=None) -> np.ndarray:
    # binary Gini impurity from positive counts, vectorized over splits:
    # 1 - p * p - (1 - p) * (1 - p), into ``out`` if given
    p = np.divide(pos, total, out=out)
    q = 1.0 - p
    q *= q
    p *= p
    np.subtract(1.0, p, out=p)
    p -= q
    return p


class _Presorted(NamedTuple):
    """A training matrix as the tree builder reads it, made once per fit."""

    XT: np.ndarray  # (d, n) float64, the features as rows
    order: np.ndarray  # (d, n) int32: each feature's rows by value, ties by row


def _presort(X: np.ndarray) -> _Presorted:
    if X.size >= 2**31:  # int32 row ids and packed weight sums
        raise ChainlensError(f"a {X.shape} matrix is too large for the tree builder")
    XT = np.ascontiguousarray(X.T)
    return _Presorted(XT, np.argsort(XT, axis=1, kind="stable").astype(np.int32))


# A packed weight holds a row's weight in its high 32 bits and, for a
# positive row, the same weight in its low 32 bits, so one running sum
# counts both. A level sums at most trees x features x rows weights; as
# each tree's weights (bootstrap counts or ones) sum to the row count,
# the sums, like the int32 row ids, stay exact while that product stays
# below 2**31, which ``_presort`` and the forest's batches ensure.
_LOW = 0xFFFFFFFF

# Trees grown together by one call of ``_build_trees``: as many as fit
# in this many cells (trees x rows x features), at least one. A worker
# holds one batch's row lists at a time, and a level costs a fixed run
# of numpy calls however many trees it holds: 11 trees a call on the
# README demo's 13,515 x 7 training matrix (one at 1000 coins) beat five
# a call in 10 of 10 pairs. A forest forks min(CPUs, batches) - 1 children.
_BATCH_CELLS = 1 << 20

# Rows a level of the tree builder scores at a time: its scan arrays
# take ~118 bytes a row, 2 MB a block. On the demo forest 2**14 beat
# 2**13, which spends more Python per row, and 2**15, whose 256 KB
# arrays malloc maps and unmaps on every call (4x the page faults).
_SCAN_CELLS = 1 << 14


def _blocks(bounds, src):
    """The runs of ``_runs``, ``_SCAN_CELLS`` positions at a time.

    Yields, per block, its first position, the first and one past the
    last run it meets, how many of its positions each of them holds, and
    each position's entry; each block but the first starts one position
    inside the one before.
    """
    end = int(bounds[-1])
    for a in range(0, end, _SCAN_CELLS):
        a0, b = max(a - 1, 0), min(a + _SCAN_CELLS, end)
        i0 = int(np.searchsorted(bounds, a0, "right")) - 1
        i1 = int(np.searchsorted(bounds, b))
        lens = np.minimum(bounds[i0 + 1 : i1 + 1], b) - np.maximum(bounds[i0:i1], a0)
        entry = np.repeat(src[i0:i1], lens)
        entry += np.arange(a0, b)
        yield a0, i0, i1, lens, entry


def _runs(R, starts, counts, feature, node):
    """The runs of the (``feature``, ``node``) pairs in the row lists
    ``R``, laid end to end: run i takes positions
    ``bounds[i]:bounds[i + 1]``, and its position p is entry
    ``p + src[i]`` of ``R.ravel()``."""
    bounds = np.zeros(node.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts[node], out=bounds[1:])
    return bounds, feature * R.shape[1] + starts[node] - bounds[:-1]


def _best_splits(data, R, starts, counts, tree_of, packed, sums, allowed):
    """Best midpoint split of every frontier node, scored a block at a time.

    ``R`` holds one row list per feature, each grouped by frontier node
    (``counts`` rows per node from ``starts``; ``tree_of`` names each
    node's tree) and sorted by that feature within the node. Rows are
    ids into the ``tree x row`` arrays ``packed`` and ``side``: tree * n
    + row; ``sums`` is each node's packed weight. A node scores only the
    features ``allowed`` (features x nodes) marks for it. Each allowed
    (feature, node) pair is one run of rows, in the order of
    ``np.nonzero(allowed)``; a cut falls where the feature value changes
    inside a run. The runs are scanned end to end in blocks of
    ``_SCAN_CELLS`` rows, each block one row into the last so that a cut
    may straddle two, and a run may span many: a running packed sum
    carried across the blocks gives each cut its left child's weight.
    The lowest weighted child Gini wins; ties break toward the smaller
    feature index, then the smaller threshold, so a pair keeps the first
    cut at its lowest score. Returns per-node (score, feature,
    threshold, left rows, left packed weight), with score inf where no
    feature separates the node's rows.
    """
    m = allowed.shape[1]
    n = data.XT.shape[1]
    flat = R.ravel()
    pair_f, pair_s = np.nonzero(allowed)  # (feature, node) pairs, by feature
    n_pairs = pair_f.shape[0]
    bounds, src = _runs(R, starts, counts, pair_f, pair_s)
    shift = (pair_f - tree_of[pair_s]) * n  # row id -> (feature, row) in (d, n)
    pair_sum = sums[pair_s]
    base = np.cumsum(pair_sum) - pair_sum  # the running sum before each run
    pair_tot = (pair_sum >> 32).astype(np.float64)
    pair_pos = (pair_sum & _LOW).astype(np.float64)
    values = data.XT.ravel()
    best = np.full(n_pairs, np.inf)
    best_at = np.zeros(n_pairs, dtype=np.int64)  # its cut's last left position
    best_left = np.zeros(n_pairs, dtype=np.int64)  # its left child's packed weight
    carry = 0  # the running sum before the block
    # per cut (at most one a block row): its children's sizes and Ginis
    sizes_buf, gini_buf = np.empty((2, 2, min(_SCAN_CELLS, int(bounds[-1]))))
    for a0, i0, i1, lens, entry in _blocks(bounds, src):
        rows = flat.take(entry)
        weight = packed.take(rows)
        running = np.cumsum(weight)
        running += carry
        carry = int(running[-1] - weight[-1])
        cell = np.repeat(shift[i0:i1], lens)
        cell += rows
        value = values.take(cell)
        differ = value[1:] != value[:-1]
        differ[bounds[i0 + 1 : i1] - (a0 + 1)] = False  # never across runs
        cut = np.flatnonzero(differ)
        k = cut.shape[0]
        if not k:
            continue
        edges = np.searchsorted(cut, bounds[i0 : i1 + 1] - a0)  # each run's cuts
        seg, n_cuts = edges[:-1], edges[1:] - edges[:-1]
        left = running.take(cut)
        left -= np.repeat(base[i0:i1], n_cuts)
        total = np.repeat(pair_tot[i0:i1], n_cuts)
        sizes, gini = sizes_buf[:, :k], gini_buf[:, :k]  # left child, then right
        sizes[0] = left >> 32
        np.subtract(total, sizes[0], out=sizes[1])
        gini[0] = left & _LOW
        np.subtract(np.repeat(pair_pos[i0:i1], n_cuts), gini[0], out=gini[1])
        _gini_pair(gini, sizes, out=gini)
        gini *= sizes
        weighted = np.add(gini[0], gini[1], out=sizes[0])
        weighted /= total
        # each run's lowest score in the block, and its first cut there
        has = n_cuts > 0
        seg, n_cuts = seg[has], n_cuts[has]
        low = np.minimum.reduceat(weighted, seg)
        pair = np.flatnonzero(has) + i0
        better = low < best[pair]
        if better.any():
            hit = np.flatnonzero(weighted == np.repeat(low, n_cuts))
            j = hit[np.searchsorted(hit, seg[better])]
            pair = pair[better]
            best[pair] = low[better]
            best_at[pair] = a0 + cut[j]
            best_left[pair] = left[j]
    score = np.full(m, np.inf)
    np.minimum.at(score, pair_s, best)
    # pairs run by feature: a node's first pair at its score is the tie winner
    tied = np.flatnonzero((best < np.inf) & (best == score[pair_s]))
    winner = np.full(m, n_pairs)
    np.minimum.at(winner, pair_s[tied], tied)
    found = winner < n_pairs
    won = winner[found]
    feature = np.zeros(m, dtype=np.int64)
    threshold = np.zeros(m, dtype=np.float64)
    n_left = np.zeros(m, dtype=np.int64)
    left_weight = np.zeros(m, dtype=np.int64)
    feature[found] = pair_f[won]
    n_left[found] = best_at[won] - bounds[won] + 1
    left_weight[found] = best_left[won]
    at = best_at[won] + src[won]
    below, above = values[flat[at] + shift[won]], values[flat[at + 1] + shift[won]]
    middle = (below + above) / 2.0
    # between adjacent floats the midpoint can round up to ``above``,
    # which would send every row left; cut at ``below`` then
    threshold[found] = np.where(middle < above, middle, below)
    return score, feature, threshold, n_left, left_weight


def _partition(R, side, n_left, n_right):
    """Each row list of the contiguous ``R`` cut by ``side`` in place,
    one list at a time: its rows of side 0, then those of side 1, each
    in list order; rows of side 2 drop out. A list holds ``n_left`` rows
    of side 0 and ``n_right`` of side 1. New list f fills ``[f * m, (f +
    1) * m)`` of ``R``'s buffer, which ends before old list f + 1 starts,
    as m is at most the old length; returns that front of the buffer."""
    d, m = R.shape[0], n_left + n_right
    flat, scratch = R.reshape(-1), np.empty(m, dtype=R.dtype)
    for f, rows in enumerate(R):
        code = side.take(rows)
        np.compress(code == 0, rows, out=scratch[:n_left])
        np.compress(code == 1, rows, out=scratch[n_left:])
        flat[f * m : (f + 1) * m] = scratch
    return flat[: d * m].reshape(d, m)


def _build_trees(data, y, weights, min_samples_split, max_depth, max_features, rngs):
    """CART trees with Gini impurity, one per row of ``weights``, grown
    together one level at a time.

    Each tree comes back as its ``feature`` per node (-1 for a leaf),
    ``threshold`` per split node and ``label`` per leaf, in the dtypes
    format 2 stores them as. ``data`` is the ``_presort`` of the
    training matrix, shared by every tree of a
    forest. ``weights`` (trees x rows) are integer row multiplicities
    (the forest's bootstrap counts); a row of weight 0 takes no part in
    its tree. Each feature's presorted order, less a tree's rows of
    weight 0, is that feature's row list in the tree; it stays grouped
    by frontier node and sorted within each node, so a level scores the
    whole frontier of all the trees in one pass of fixed-size blocks
    (``_best_splits``), finding cuts where the value changes. A split
    node's left child is the head of its run in the winning feature's
    list, up to the cut, which also gives the child's row count and
    weight. Each level marks every row's side from those runs in one
    pass, then cuts each feature's list in turn, in place, into the next
    level's (``_partition``), so the next frontier holds all left children, then
    all right ones. Levels are recorded, and the per-node feature
    subsets drawn, in level order instead, tree by tree (the k-th split
    node's children are 2k and 2k + 1 of the next level): with
    ``max_features`` below the dimensionality, each level draws one
    subset per open node of tree t from ``rngs[t]``, in that order, so a
    tree does not depend on the trees grown with it. Node ids are that level order: node 0 is
    the root, and the k-th split node of a tree, counted level by level,
    has children 2k + 1 and 2k + 2.
    """
    d, n = data.XT.shape
    n_trees = weights.shape[0]
    w = np.asarray(weights, dtype=np.int64)
    packed = ((w << 32) | (w * y)).ravel()
    sums = packed.reshape(n_trees, n).sum(axis=1)  # each frontier node's packed weight
    present = w > 0
    # a forest passes its only reference to the weights: free them
    del weights, w
    counts = np.count_nonzero(present, axis=1)
    R = np.empty((d, counts.sum()), dtype=np.int32)
    first = (np.arange(n_trees, dtype=np.int32) * n)[:, None]
    for order, into in zip(data.order, R):
        np.compress(present[:, order].ravel(), (order + first).ravel(), out=into)
    del present
    tree_of = np.arange(n_trees)  # each frontier node's tree
    place = np.arange(n_trees)  # its index in level order, tree by tree
    side = np.empty(n_trees * n, dtype=np.int8)  # per row: 0 left, 1 right, 2 in a leaf
    levels = []  # per level: tree, feature, threshold, label of its nodes
    depth = 0
    while counts.shape[0]:
        m = counts.shape[0]
        at = np.empty(m, dtype=np.int64)  # the frontier node at each place
        at[place] = np.arange(m)
        starts = np.cumsum(counts) - counts
        tot, pos = sums >> 32, sums & _LOW
        is_open = (pos > 0) & (pos < tot) & (tot >= min_samples_split)
        if max_depth is not None and depth >= max_depth:
            is_open[:] = False
        allowed = np.zeros((d, m), dtype=bool)  # features x nodes
        if max_features is None or max_features >= d:
            allowed[:, is_open] = True
        else:
            n_open = np.bincount(tree_of[is_open], minlength=n_trees)
            # an empty draw leaves a generator as it was
            keys = np.concatenate([rng.random((c, d)) for rng, c in zip(rngs, n_open)])
            # a node draws the features its keys' argsort puts first
            drawn = np.argsort(np.argsort(keys, axis=1), axis=1) < max_features
            allowed[:, at[is_open[at]]] = drawn.T
        score, feature, threshold, n_left, left_weight = _best_splits(
            data, R, starts, counts, tree_of, packed, sums, allowed
        )
        # demand a real impurity decrease, not float noise
        split = is_open & ~(score > _gini_pair(pos, tot) - 1e-12)
        levels.append(
            (
                tree_of[at],
                np.where(split, feature, -1)[at],
                np.where(split, threshold, 0.0)[at],
                np.where(split, 0, 2 * pos > tot).astype(np.int8)[at],  # 0 or 1: format 2's <i1
            )
        )
        # a split node's run in its winning feature's list goes left up
        # to the cut and right after it; positions, like row ids, fit int32
        n_left, n_right = n_left[split], counts[split] - n_left[split]
        side.fill(2)
        bounds, src = _runs(R, starts, counts, feature[split], np.flatnonzero(split))
        position = np.arange(bounds[-1], dtype=np.int32)
        first_right = (bounds[:-1] + n_left).astype(np.int32)
        is_right = position >= np.repeat(first_right, counts[split])
        position += np.repeat(src.astype(np.int32), counts[split])  # each position's entry
        side[R.ravel().take(position)] = is_right
        R = _partition(R, side, int(n_left.sum()), int(n_right.sum()))
        k = (np.cumsum(split[at]) - 1)[place[split]]  # rank among split nodes
        place = np.concatenate([2 * k, 2 * k + 1])
        tree_of = np.concatenate([tree_of[split], tree_of[split]])
        counts = np.concatenate([n_left, n_right])
        left_weight = left_weight[split]
        sums = np.concatenate([left_weight, sums[split] - left_weight])
        depth += 1
    # free the row-sized arrays before making the trees, which outlive
    # the call: this lowered the demo classify stage's median peak RSS
    # by ~1 MB over 36 heap layouts (checkout paths; 2-core Xeon)
    del packed, side
    tree_of, feature, threshold, label = (np.concatenate(a) for a in zip(*levels))
    # each tree's nodes, level by level
    nodes = np.split(
        np.argsort(tree_of, kind="stable"),
        np.cumsum(np.bincount(tree_of, minlength=n_trees))[:-1],
    )
    trees = []
    for i in nodes:
        split = feature[i] >= 0
        f = feature[i].astype(_int_dtype(feature[i]))
        trees.append(dict(feature=f, threshold=threshold[i][split], label=label[i][~split]))
    return trees


def _check_tree(tree: dict, n_features: int, field: str) -> None:
    """Raise ChainlensError unless ``tree``, the value (or one of the
    values) of the model's ``field``, is a tree over ``n_features``
    features that ``_tree_predict`` can walk: a threshold per split node
    and a label per leaf, the thresholds finite, each feature below
    ``n_features`` (-1 for a leaf), each split node's implied children
    after it, so every path ends at a leaf, and two nodes more per split
    node than the root, so each node but the root is the child of
    exactly one split node."""
    feature = tree["feature"]
    split = feature >= 0
    n_splits = int(np.count_nonzero(split))
    for name, count, what in (
        ("threshold", n_splits, "split nodes"),
        ("label", split.shape[0] - n_splits, "leaves"),
    ):
        if tree[name].shape[0] != count:
            raise ChainlensError(
                f"field {field!r} holds {tree[name].shape[0]} {name}s for {count} {what}"
            )
    if not np.all(np.isfinite(tree["threshold"])):
        raise ChainlensError(f"field {field!r} array 'threshold' must be finite")
    # the k-th split node's first child, 2k + 1, must come after it
    first_child = 2 * np.arange(n_splits) + 1
    if np.any((feature < -1) | (feature >= n_features)) or np.any(
        first_child <= np.flatnonzero(split)
    ):
        raise ChainlensError("a tree names a feature or child node out of range")
    if split.shape[0] != 2 * n_splits + 1:
        raise ChainlensError("each node of a tree but the root must have exactly one parent")


def _tree_predict(tree: dict, X: np.ndarray) -> np.ndarray:
    feature = tree["feature"]
    split = feature >= 0
    # each node's place among the split nodes, or among the leaves; the
    # k-th split node's children are 2k + 1 and 2k + 2
    place = np.where(split, np.cumsum(split), np.cumsum(~split)) - 1
    node = np.zeros(X.shape[0], dtype=np.int64)
    pending = np.flatnonzero(split[node])
    while pending.size:
        cur = node[pending]
        go_left = X[pending, feature[cur]] <= tree["threshold"][place[cur]]
        node[pending] = 2 * place[cur] + np.where(go_left, 1, 2)
        pending = pending[split[node[pending]]]
    return tree["label"][place[node]].astype(np.int64)


@dataclass(frozen=True, eq=False)
class DecisionTreeModel:
    tree: dict
    n_features: int
    hyperparameters: dict

    def __post_init__(self):
        _check_tree(self.tree, self.n_features, "tree")

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _validate_matrix(X, self.n_features)
        return _tree_predict(self.tree, X)


def _fit_decision_tree(X, y, hp, seed) -> DecisionTreeModel:
    (tree,) = _build_trees(
        _presort(X),
        y,
        np.ones((1, X.shape[0]), dtype=np.int64),
        min_samples_split=hp["min_samples_split"],
        max_depth=hp["max_depth"],
        max_features=None,
        rngs=None,
    )
    return DecisionTreeModel(tree=tree, n_features=X.shape[1], hyperparameters=hp)


@dataclass(frozen=True, eq=False)
class RandomForestModel:
    trees: tuple
    n_features: int
    hyperparameters: dict

    def __post_init__(self):
        n_trees = self.hyperparameters.get("n_trees")
        if len(self.trees) != n_trees:
            raise ChainlensError(
                f"random_forest holds {len(self.trees)} trees, but n_trees is {n_trees!r}"
            )
        for tree in self.trees:
            _check_tree(tree, self.n_features, "trees")

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _validate_matrix(X, self.n_features)
        votes = np.zeros(X.shape[0], dtype=np.int64)
        for tree in self.trees:
            votes += _tree_predict(tree, X)
        # strict majority; an exact tie goes to label 0
        return (votes * 2 > len(self.trees)).astype(np.int64)


def _forest_max_features(setting, d: int) -> int | None:
    if setting == "sqrt":
        return max(1, int(math.isqrt(d)))
    return None if setting in ("all", None) else setting


def _fit_random_forest(X, y, hp, seed) -> RandomForestModel:
    n_trees, bootstrap = hp["n_trees"], hp["bootstrap"]
    max_features = _forest_max_features(hp["max_features"], X.shape[1])
    data, n = _presort(X), X.shape[0]
    batch = max(1, _BATCH_CELLS // X.size)

    def grow(share):  # the share's trees, a list a batch
        for first in range(0, len(share), batch):
            rngs = [np.random.default_rng([seed, t]) for t in share[first : first + batch]]
            # the weights' only reference goes to _build_trees, which drops it once packed
            yield _build_trees(
                data,
                y,
                np.array([np.bincount(rng.integers(0, n, size=n), minlength=n) for rng in rngs])
                if bootstrap
                else np.ones((len(rngs), n), dtype=np.int64),
                min_samples_split=hp["min_samples_split"],
                max_depth=hp["max_depth"],
                max_features=max_features,
                rngs=rngs,
            )

    workers = min(_cpus(), -(-n_trees // batch)) if hasattr(os, "fork") else 1
    shares = [range(n_trees * w // workers, n_trees * (w + 1) // workers) for w in range(workers)]
    return RandomForestModel(tuple(_grow_shares(grow, shares)), X.shape[1], hp)


def _cpus() -> int:  # the CPUs this process may run on
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _grow_shares(grow, shares) -> list:
    """Every share's trees, in order; each but the first grows in a forked child, which runs no
    BLAS, the one library here whose threads the fork leaves behind."""
    parent, children = os.getpid(), {}  # pid -> the read end of its pipe
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # the child leaves only through os._exit
                try:
                    os.close(read)
                    try:
                        result = []
                        for trees in grow(share):
                            if os.getppid() != parent:  # orphaned: nobody reads the trees
                                os._exit(1)
                            result += trees
                    except BaseException as exc:
                        result = exc
                    with open(write, "wb") as pipe:
                        pickle.dump(result, pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children[pid] = open(read, "rb")
        trees = [tree for built in grow(shares[0]) for tree in built]
        for pid, pipe in list(children.items()):
            data, status = pipe.read(), os.waitpid(pid, 0)[1]
            children.pop(pid).close()
            if code := os.waitstatus_to_exitcode(status):
                cause = f"signal {-code} ({signal.strsignal(-code)})" if code < 0 else f"exit {code}"
                raise ChainlensError(f"a random_forest worker ended by {cause} without its trees")
            if isinstance(result := pickle.loads(data), BaseException):
                raise result
            trees += result
        return trees
    finally:  # an error or interrupt here: no child outlives the call
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


@dataclass(frozen=True, eq=False)
class GaussianNBModel:
    classes: np.ndarray = field(metadata={"integer": True})
    priors: np.ndarray = field(metadata={"positive": True})
    means: np.ndarray = field(metadata={"ndim": 2})  # (n_classes, d)
    # (n_classes, d), smoothed
    variances: np.ndarray = field(metadata={"ndim": 2, "positive": True})
    hyperparameters: dict

    def __post_init__(self):
        k = self.classes.shape[0]
        if self.priors.shape != (k,) or self.means.shape[0] != k or (
            self.variances.shape != self.means.shape
        ):
            raise ChainlensError("gaussian_nb needs a prior, means and variances per class")

    @property
    def n_features(self) -> int:
        return self.means.shape[1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _validate_matrix(X, self.n_features)
        scores = np.empty((X.shape[0], self.classes.shape[0]), dtype=np.float64)
        for c in range(self.classes.shape[0]):
            diff = X - self.means[c]
            log_like = -0.5 * np.sum(
                np.log(2.0 * np.pi * self.variances[c]) + diff * diff / self.variances[c],
                axis=1,
            )
            scores[:, c] = math.log(self.priors[c]) + log_like
        # argmax ties resolve to the first (smaller) class label
        return self.classes[np.argmax(scores, axis=1)]


def _fit_gaussian_nb(X, y, hp, seed) -> GaussianNBModel:
    classes = np.unique(y)
    # smoothing floor keyed to the largest feature variance, so scale
    # invariance of the decision rule is preserved
    smoothing = hp["var_smoothing"] * float(np.max(X.var(axis=0), initial=0.0))
    priors = np.empty(classes.shape[0])
    means = np.empty((classes.shape[0], X.shape[1]))
    variances = np.empty_like(means)
    for c, cls in enumerate(classes):
        rows = X[y == cls]
        priors[c] = rows.shape[0] / X.shape[0]
        means[c] = rows.mean(axis=0)
        variances[c] = rows.var(axis=0) + smoothing
    if np.any(variances <= 0):
        variances = variances + 1e-300  # fully degenerate training data
    return GaussianNBModel(
        classes=classes.astype(np.int64),
        priors=priors,
        means=means,
        variances=variances,
        hyperparameters=hp,
    )


@dataclass(frozen=True, eq=False)
class KNNModel:
    train_X: np.ndarray = field(metadata={"ndim": 2})
    train_y: np.ndarray = field(metadata={"integer": True})
    hyperparameters: dict

    def __post_init__(self):
        if self.train_y.shape != (self.train_X.shape[0],):
            raise ChainlensError("knn needs one label per training row")

    @property
    def n_features(self) -> int:
        return self.train_X.shape[1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _validate_matrix(X, self.n_features)
        k = min(self.hyperparameters["k"], self.train_X.shape[0])
        out = np.empty(X.shape[0], dtype=np.int64)
        # chunked to bound the n_test x n_train distance block to 2 MB
        chunk = max(1, (1 << 18) // max(1, self.train_X.shape[0]))
        positive = self.train_y == 1
        # in-process: forked, OpenBLAS's spinning threads took the cores (0.37 -> 0.82 s)
        train_sq = (self.train_X * self.train_X).sum(axis=1)
        for start in range(0, X.shape[0], chunk):
            block = X[start : start + chunk]
            # |a|^2 - 2 a.b + |b|^2, in place in one distance block
            d2 = block @ self.train_X.T
            d2 *= 2.0
            np.subtract((block * block).sum(axis=1)[:, None], d2, out=d2)
            d2 += train_sq[None, :]
            # the k nearest: all strictly inside the k-th distance, then
            # the earliest training indices among those tied at it
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
            inside = d2 < kth
            tied = d2 == kth
            room = k - np.count_nonzero(inside, axis=1)
            nearest = inside | tied
            crowded = np.flatnonzero(np.count_nonzero(tied, axis=1) > room)
            ties = tied[crowded]
            nearest[crowded] = inside[crowded] | (
                ties & (np.cumsum(ties, axis=1) <= room[crowded, None])
            )
            votes = np.count_nonzero(nearest & positive, axis=1)
            # majority of k; exact tie goes to the smaller label
            out[start : start + chunk] = (votes * 2 > k).astype(np.int64)
        return out


def _fit_knn(X, y, hp, seed) -> KNNModel:
    return KNNModel(train_X=X, train_y=y, hyperparameters=hp)


class Kind(NamedTuple):
    fit: Callable  # (X, y, hyperparameters, seed) -> model; fit_classifier checks them
    model: type
    defaults: dict
    one_class: bool  # whether it fits a training set of one class


_LINEAR = {"learning_rate": 0.1, "iterations": 1000, "l2": 1e-4}
_CART = {"min_samples_split": 2, "max_depth": None}
_FOREST = {"n_trees": 100, **_CART, "bootstrap": True, "max_features": "sqrt"}

# kind -> fitter, model class and default hyperparameters, in the
# order of CLASSIFIER_KINDS
KINDS: dict[str, Kind] = dict(zip(CLASSIFIER_KINDS, (
    Kind(_fit_logistic_regression, LinearModel, _LINEAR, False),
    Kind(_fit_linear_svm, LinearModel, _LINEAR, False),
    Kind(_fit_decision_tree, DecisionTreeModel, _CART, False),
    Kind(_fit_random_forest, RandomForestModel, _FOREST, False),
    Kind(_fit_gaussian_nb, GaussianNBModel, {"var_smoothing": 1e-9}, True),
    Kind(_fit_knn, KNNModel, {"k": 5}, True),
), strict=True))


def _finite(value) -> bool:
    """A Python int or float (a bool is neither) that a float64 holds finitely."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# hyperparameter -> (what it needs, its test)
_SETTINGS = {
    "learning_rate": ("learning_rate finite and > 0", lambda v: _finite(v) and v > 0),
    "iterations": ("an integer iterations >= 0", lambda v: type(v) is int and v >= 0),
    "l2": ("l2 finite and >= 0", lambda v: _finite(v) and v >= 0),
    "min_samples_split": ("an integer min_samples_split", lambda v: type(v) is int),
    "max_depth": ("max_depth None or >= 0", lambda v: v is None or type(v) is int and v >= 0),
    "n_trees": ("n_trees >= 1", lambda v: type(v) is int and v >= 1),
    "bootstrap": ("bootstrap true or false", lambda v: type(v) is bool),
    "max_features": (
        "max_features >= 1, 'sqrt', 'all' or None",
        lambda v: v in ("sqrt", "all", None) or type(v) is int and v >= 1,
    ),
    "var_smoothing": ("var_smoothing finite and >= 0", lambda v: _finite(v) and v >= 0),
    "k": ("k >= 1", lambda v: type(v) is int and v >= 1),
}


def resolve_hyperparameters(kind: str, overrides: dict | None = None) -> dict:
    """The kind's defaults with ``overrides`` applied: a ChainlensError
    names an unknown kind or setting, or the first setting that fails
    its test."""
    if kind not in KINDS:
        raise ChainlensError(
            f"unknown classifier kind {kind!r}; expected one of {CLASSIFIER_KINDS}"
        )
    hp = dict(KINDS[kind].defaults)
    for name, value in (overrides or {}).items():
        if name not in hp:
            raise ChainlensError(
                f"{kind} has no hyperparameter {name!r}; valid: {sorted(hp)}"
            )
        hp[name] = value
    for name, value in hp.items():
        wants, ok = _SETTINGS[name]
        if not ok(value):
            raise ChainlensError(f"{kind} needs {wants}, got {value!r}")
    return hp


def fit_classifier(kind: str, X, y, hyperparameters: dict | None = None, seed: int = 0):
    """A ``kind`` model fit to features ``X`` and 0/1 labels ``y``, once
    the settings, the data and, for a kind that needs them, both classes
    pass their checks."""
    hp = resolve_hyperparameters(kind, hyperparameters)
    X, y = _validate_xy(X, y)
    if not KINDS[kind].one_class and np.unique(y).shape[0] < 2:
        raise ChainlensError(f"{kind} needs both classes in the training set")
    return KINDS[kind].fit(X, y, hp, seed)


MODEL_FORMAT_VERSION = 2  # format 1 (arrays as number lists) is no longer read

# the dtypes of a format-2 array: floats as <f8, integers as the
# narrowest <iN that holds their range
_FLOAT = "<f8"
_INTS = ("<i1", "<i2", "<i4", "<i8")


def _int_dtype(array: np.ndarray) -> str:
    """The narrowest of ``_INTS`` that holds the integer ``array``'s range."""
    low, high = (int(array.min()), int(array.max())) if array.size else (0, 0)
    return next(t for t in _INTS if np.iinfo(t).min <= low and high <= np.iinfo(t).max)


def jsonable(value):
    """``default`` for ``json.dump``: a model or normalizer as an object
    of its fields but ``hyperparameters``, an array as its ``_blob``.

    ``json.dump`` encodes in pure Python and calls this one value at a
    time, so a forest file is written a blob at a time, never held
    whole as one string.
    """
    if isinstance(value, np.ndarray):
        return _blob(value)
    if is_dataclass(value):
        return {
            f.name: getattr(value, f.name) for f in fields(value) if f.name != "hyperparameters"
        }
    raise TypeError(f"{type(value).__name__} is not a model document value")


def _blob(array: np.ndarray) -> dict:
    """``array`` as a format-2 array object; its bytes do not depend on
    the machine."""
    dtype = _FLOAT if array.dtype.kind == "f" else _int_dtype(array)
    data = base64.b64encode(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return {"data": data.decode("ascii"), "dtype": dtype, "shape": list(array.shape)}


class _Unfit(Exception):
    """Why a document value does not fit its field, said after the
    field's name."""


def from_doc(cls, doc, **given):
    """Rebuild ``cls`` from a decoded format-2 document holding exactly
    its fields but the ``given`` ones.

    Each value must fit its field's type. An array field takes an
    ``_blob`` object of the field's ``ndim`` (metadata, default 1). It
    becomes an int64 array if the field's metadata marks it ``integer``,
    else a float64 one; every value must be finite, and > 0 where the
    metadata marks the field ``positive``. A ``dict`` field (a tree)
    takes a tree, a ``tuple`` field (trees) a nonempty list of them
    (``_tree_from_json``; the model checks them), an ``int`` field an
    integer and a ``float`` field a finite number. Anything else is a
    ChainlensError naming the field, as is a missing or unknown field.
    """
    if not isinstance(doc, dict):
        raise ChainlensError(f"{cls.__name__} document must be an object")
    expected = {f.name for f in fields(cls)} - given.keys()
    problems = [f"missing field {name!r}" for name in sorted(expected - doc.keys())]
    problems += [f"unknown field {name!r}" for name in sorted(doc.keys() - expected)]
    if problems:
        raise ChainlensError(f"{cls.__name__} document: {', '.join(problems)}")
    types = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.name in expected:
            try:
                values[f.name] = _from_json(doc[f.name], types[f.name], f.metadata)
            except _Unfit as exc:
                problems.append(f"field {f.name!r} {exc}")
    if problems:
        raise ChainlensError(f"{cls.__name__} document: {', '.join(problems)}")
    return cls(**values, **given)


def _from_json(value, kind, metadata):
    """``value`` decoded as a field of type ``kind``; raises _Unfit."""
    if kind is np.ndarray:
        array = _unblob(value, metadata.get("ndim", 1), metadata.get("integer", False))
        if not np.all(np.isfinite(array)):
            raise _Unfit("must be finite")
        if metadata.get("positive") and not np.all(array > 0):
            raise _Unfit("must be > 0")
        return array
    if kind is dict:
        return _tree_from_json(value)
    if kind is tuple:
        if not isinstance(value, list) or not value:
            raise _Unfit("must be a nonempty list of trees")
        return tuple(_tree_from_json(tree) for tree in value)
    if kind is int:
        if type(value) is not int:
            raise _Unfit("must be an integer")
        return value
    if type(value) not in (int, float):
        raise _Unfit("must be a number")
    if not math.isfinite(value):
        raise _Unfit("must be finite")
    return value


def _unblob(value, ndim, integer, narrow=False) -> np.ndarray:
    """A format-2 array object, as float64 if not ``integer``, else in
    its stored dtype if ``narrow``, else as int64."""
    if not isinstance(value, dict) or sorted(value) != ["data", "dtype", "shape"]:
        raise _Unfit("must be an array object of data, dtype and shape")
    dtype, shape = value["dtype"], value["shape"]
    if dtype != _FLOAT and dtype not in _INTS:
        raise _Unfit(f"has unknown dtype {dtype!r}")
    if (dtype in _INTS) != integer:
        raise _Unfit(f"must hold {'integers' if integer else 'floats'}, not {dtype!r}")
    if not isinstance(shape, list) or len(shape) != ndim or any(
        type(n) is not int or n < 0 for n in shape
    ):
        raise _Unfit(f"must be a {ndim}-d array")
    try:
        data = base64.b64decode(value["data"], validate=True)
    except (TypeError, ValueError):  # not a string, or not base64
        raise _Unfit("data is not base64") from None
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if len(data) != size:
        raise _Unfit(f"holds {len(data)} bytes where its shape needs {size}")
    array = np.frombuffer(data, dtype=dtype).reshape(shape)
    return array.astype(np.int64 if integer and not narrow else dtype)


def _tree_from_json(value) -> dict:
    """A tree as format 2 stores it (``feature``, ``threshold`` for its
    split nodes and ``label`` for its leaves, the integers in their
    stored dtype, as ``_build_trees`` makes them), for the model to
    check with ``_check_tree``."""
    if not isinstance(value, dict) or sorted(value) != ["feature", "label", "threshold"]:
        raise _Unfit("must be a tree of the arrays feature, label and threshold")
    tree = {}
    for name in ("feature", "threshold", "label"):
        try:
            tree[name] = _unblob(value[name], 1, integer=name != "threshold", narrow=True)
        except _Unfit as exc:
            raise _Unfit(f"array {name!r} {exc}") from None
    return tree
