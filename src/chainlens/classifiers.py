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

The discriminative kinds (logistic regression, linear SVM, decision
tree, random forest) refuse single-class training sets; Gaussian NB
and KNN degenerate gracefully to constant / majority behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import ChainlensError

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


def _require_both_classes(y, kind):
    if np.unique(y).shape[0] < 2:
        raise ChainlensError(
            f"{kind} needs both classes in the training set"
        )


def _validate_matrix(X, n_features):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ChainlensError("prediction input must be a 2-d matrix")
    if X.shape[0] and X.shape[1] != n_features:
        raise ChainlensError(
            f"expected {n_features} features, got {X.shape[1]}"
        )
    return X


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss_and_gradient(params: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float):
    """Mean log-loss with L2 penalty on the weights (bias unpenalized).

    ``params`` packs the weight vector followed by the bias, so the
    whole gradient is checkable against finite differences in one go.
    """
    params = np.asarray(params, dtype=np.float64)
    w = params[:-1]
    b = params[-1]
    z = X @ w + b
    # log(1 + exp(±z)) without overflow
    loss_terms = np.logaddexp(0.0, z) - y * z
    loss = float(loss_terms.mean()) + 0.5 * l2 * float(w @ w)
    residual = _sigmoid(z) - y
    grad_w = X.T @ residual / X.shape[0] + l2 * w
    grad_b = float(residual.mean())
    return loss, np.append(grad_w, grad_b)


@dataclass(frozen=True, eq=False)
class LinearModel:
    """A separating hyperplane: logistic regression or linear SVM."""

    weights: np.ndarray
    bias: float
    hyperparameters: dict

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _validate_matrix(X, self.weights.shape[0])
        return (X @ self.weights + self.bias >= 0.0).astype(np.int64)


def fit_logistic_regression(X, y, hyperparameters, seed: int = 0) -> LinearModel:
    X, y = _validate_xy(X, y)
    _require_both_classes(y, "logistic_regression")
    hp = hyperparameters
    params = np.zeros(X.shape[1] + 1, dtype=np.float64)
    for _ in range(hp["iterations"]):
        _, grad = logistic_loss_and_gradient(params, X, y, hp["l2"])
        params -= hp["learning_rate"] * grad
    return LinearModel(
        weights=params[:-1], bias=float(params[-1]), hyperparameters=dict(hp)
    )


def fit_linear_svm(X, y, hyperparameters, seed: int = 0) -> LinearModel:
    # full-batch subgradient descent on mean hinge loss + L2
    X, y = _validate_xy(X, y)
    _require_both_classes(y, "linear_svm")
    hp = hyperparameters
    signs = np.where(y == 1, 1.0, -1.0)
    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    n = X.shape[0]
    for _ in range(hp["iterations"]):
        margins = signs * (X @ w + b)
        violating = margins < 1.0
        grad_w = hp["l2"] * w - (signs[violating] @ X[violating]) / n
        grad_b = -float(signs[violating].sum()) / n
        w -= hp["learning_rate"] * grad_w
        b -= hp["learning_rate"] * grad_b
    return LinearModel(weights=w, bias=float(b), hyperparameters=dict(hp))


def _gini_pair(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    # binary Gini impurity from positive counts, vectorized over splits
    p = pos / total
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _best_splits(XT, R, node, counts, w, wy, tot, pos, allowed):
    """Best midpoint split of every frontier node, scored in one pass.

    ``R`` holds one row list per feature, each grouped by frontier node
    (``counts`` entries per node; ``node`` names the node of each list
    position) and sorted by that feature within the node. A node scores
    only the features ``allowed`` marks for it. The lowest weighted
    child Gini wins; ties break toward the smaller feature index, then
    the smaller threshold. Returns per-node (score, feature, threshold),
    with score inf where no feature separates the node's rows.
    """
    m = counts.shape[0]
    pair_f, pair_s = np.nonzero(allowed.T)  # (feature, node), by feature
    pair_n = counts[pair_s]
    rows = R[allowed.T[:, node]]
    values = XT[np.repeat(pair_f, pair_n), rows]
    pair_start = np.cumsum(pair_n) - pair_n
    cw = np.cumsum(w[rows])
    cy = np.cumsum(wy[rows])
    base_w = cw[pair_start] - w[rows[pair_start]]
    base_y = cy[pair_start] - wy[rows[pair_start]]
    differ = values[1:] != values[:-1]
    differ[(pair_start + pair_n - 1)[:-1]] = False  # never across nodes
    cut = np.flatnonzero(differ)
    pair = np.repeat(np.arange(pair_f.shape[0]), pair_n)[cut]
    cut_node = pair_s[pair]
    n = tot[cut_node]
    left_n = (cw[cut] - base_w[pair]).astype(np.float64)
    right_n = n - left_n
    left_pos = (cy[cut] - base_y[pair]).astype(np.float64)
    right_pos = pos[cut_node].astype(np.float64) - left_pos
    weighted = (
        left_n * _gini_pair(left_pos, left_n)
        + right_n * _gini_pair(right_pos, right_n)
    ) / n
    score = np.full(m, np.inf)
    np.minimum.at(score, cut_node, weighted)
    # cuts run by feature, then position: the first minimum is the tie winner
    tied = np.flatnonzero(weighted == score[cut_node])
    first = np.full(m, cut.shape[0])
    np.minimum.at(first, cut_node[tied], tied)
    found = first < cut.shape[0]
    feature = np.zeros(m, dtype=np.int64)
    threshold = np.zeros(m, dtype=np.float64)
    j = first[found]
    feature[found] = pair_f[pair[j]]
    below, above = values[cut[j]], values[cut[j] + 1]
    middle = (below + above) / 2.0
    # between adjacent floats the midpoint can round up to ``above``,
    # which would send every row left; cut at ``below`` then
    threshold[found] = np.where(middle < above, middle, below)
    return score, feature, threshold


def _partition(R, counts, split, goes_left):
    """Drop leaf nodes' rows and split the rest stably into children.

    ``R`` holds one row list per feature, grouped by node (``counts``
    rows each); ``goes_left`` is a per-row mask. The children of a split
    node take over its span: left rows first, then right rows, each
    side in the list's previous order. Returns the new lists and the
    children's row counts, left and right alternating.
    """
    kept = np.repeat(split, counts)
    R = R[:, kept]
    sizes = counts[split]
    node = np.repeat(np.arange(sizes.shape[0]), sizes)
    left = goes_left[R]
    n_left = np.bincount(node[left[0]], minlength=sizes.shape[0])
    left_before = np.cumsum(n_left) - n_left
    right_before = np.cumsum(sizes - n_left) - (sizes - n_left)
    # a node keeps its span [start, start + size): a left row moves to
    # start + (lefts before it in the node), a right row to
    # start + n_left + (rights before it in the node)
    seen = np.cumsum(left, axis=1)
    dest = np.where(
        left,
        seen + (right_before - 1)[node],
        np.arange(R.shape[1]) - seen + (n_left + left_before)[node],
    )
    out = np.empty_like(R)
    np.put_along_axis(out, dest, R, axis=1)
    return out, np.column_stack([n_left, sizes - n_left]).ravel()


def _build_tree(X, y, weights, min_samples_split, max_depth, max_features, rng):
    """CART with Gini impurity, grown one level at a time.

    Nodes are parallel arrays: feature == -1 marks a leaf. ``weights``
    are integer row multiplicities (the forest's bootstrap counts); a
    row of weight 0 takes no part. Each feature is sorted once; its row
    list stays grouped by frontier node and is partitioned stably into
    the children at each split, so every level scores the whole frontier
    in one vectorized pass. With ``max_features`` below the
    dimensionality, each level draws one feature subset per open node
    from ``rng``. Node ids follow depth-first creation order (see
    ``_depth_first_ids``).
    """
    n, d = X.shape
    XT = np.ascontiguousarray(X.T)
    w = np.asarray(weights, dtype=np.int64)
    wy = w * y
    present = np.flatnonzero(w)
    R = present[np.argsort(XT[:, present], axis=1, kind="stable")]
    counts = np.array([present.shape[0]])
    goes_left = np.zeros(n, dtype=bool)
    levels = []  # per level: feature, threshold, label of its nodes
    depth = 0
    while counts.shape[0]:
        m = counts.shape[0]
        starts = np.cumsum(counts) - counts
        tot = np.add.reduceat(w[R[0]], starts)
        pos = np.add.reduceat(wy[R[0]], starts)
        is_open = (pos > 0) & (pos < tot) & (tot >= min_samples_split)
        if max_depth is not None and depth >= max_depth:
            is_open[:] = False
        allowed = np.zeros((m, d), dtype=bool)
        if max_features is None or max_features >= d:
            allowed[is_open] = True
        else:
            keys = rng.random((int(is_open.sum()), d))
            picks = np.argsort(keys, axis=1)[:, :max_features]
            drawn = np.zeros(keys.shape, dtype=bool)
            np.put_along_axis(drawn, picks, True, axis=1)
            allowed[is_open] = drawn
        node = np.repeat(np.arange(m), counts)
        score, feature, threshold = _best_splits(
            XT, R, node, counts, w, wy, tot, pos, allowed
        )
        # demand a real impurity decrease, not float noise
        split = is_open & ~(score > _gini_pair(pos, tot) - 1e-12)
        levels.append(
            (
                np.where(split, feature, -1),
                np.where(split, threshold, 0.0),
                np.where(split, 0, (2 * pos > tot).astype(np.int64)),
            )
        )
        rows = R[0]
        goes_left[rows] = XT[feature[node], rows] <= threshold[node]
        R, counts = _partition(R, counts, split, goes_left)
        depth += 1
    feature, threshold, label = (np.concatenate(a) for a in zip(*levels))
    return _depth_first_ids(feature, threshold, label)


def _depth_first_ids(feature, threshold, label):
    """Renumber a level-order tree into depth-first creation order.

    In level order the k-th split node's children are 2k + 1 and
    2k + 2. Depth-first creation gives a node's two children the next
    two ids when the node is split, and visits right subtrees first.
    """
    internal = feature >= 0
    left = np.full(feature.shape[0], -1, dtype=np.int64)
    left[internal] = 1 + 2 * np.arange(int(internal.sum()))
    children = left.tolist()
    new_id = [0] * feature.shape[0]
    next_id = 1
    stack = [0]
    while stack:
        node = stack.pop()
        first = children[node]
        if first >= 0:
            new_id[first] = next_id
            new_id[first + 1] = next_id + 1
            next_id += 2
            stack.append(first)
            stack.append(first + 1)
    new_id = np.array(new_id, dtype=np.int64)
    tree = {
        "feature": np.empty_like(feature),
        "threshold": np.empty_like(threshold),
        "left": np.full_like(left, -1),
        "right": np.full_like(left, -1),
        "label": np.empty_like(label),
    }
    tree["feature"][new_id] = feature
    tree["threshold"][new_id] = threshold
    tree["label"][new_id] = label
    tree["left"][new_id[internal]] = new_id[left[internal]]
    tree["right"][new_id[internal]] = new_id[left[internal] + 1]
    return tree


def _tree_predict(tree: dict, X: np.ndarray) -> np.ndarray:
    n = X.shape[0]
    node = np.zeros(n, dtype=np.int64)
    pending = np.flatnonzero(tree["feature"][node] >= 0)
    while pending.size:
        cur = node[pending]
        f = tree["feature"][cur]
        go_left = X[pending, f] <= tree["threshold"][cur]
        node[pending] = np.where(go_left, tree["left"][cur], tree["right"][cur])
        pending = pending[tree["feature"][node[pending]] >= 0]
    return tree["label"][node]


@dataclass(frozen=True, eq=False)
class DecisionTreeModel:
    tree: dict
    n_features: int
    hyperparameters: dict

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _validate_matrix(X, self.n_features)
        return _tree_predict(self.tree, X)


def fit_decision_tree(X, y, hyperparameters, seed: int = 0) -> DecisionTreeModel:
    X, y = _validate_xy(X, y)
    _require_both_classes(y, "decision_tree")
    hp = hyperparameters
    tree = _build_tree(
        X,
        y,
        np.ones(X.shape[0], dtype=np.int64),
        min_samples_split=hp["min_samples_split"],
        max_depth=hp["max_depth"],
        max_features=None,
        rng=None,
    )
    return DecisionTreeModel(
        tree=tree, n_features=X.shape[1], hyperparameters=dict(hp)
    )


@dataclass(frozen=True, eq=False)
class RandomForestModel:
    trees: tuple
    n_features: int
    hyperparameters: dict

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
    if setting == "all" or setting is None:
        return None
    if int(setting) < 1:
        raise ChainlensError(f"random_forest needs max_features >= 1, got {setting}")
    return int(setting)


def fit_random_forest(X, y, hyperparameters, seed: int = 0) -> RandomForestModel:
    X, y = _validate_xy(X, y)
    _require_both_classes(y, "random_forest")
    hp = hyperparameters
    if hp["n_trees"] < 1:
        raise ChainlensError(f"random_forest needs n_trees >= 1, got {hp['n_trees']}")
    max_features = _forest_max_features(hp["max_features"], X.shape[1])
    trees = []
    for t in range(hp["n_trees"]):
        rng = np.random.default_rng([seed, t])
        if hp["bootstrap"]:
            idx = rng.integers(0, X.shape[0], size=X.shape[0])
            weights = np.bincount(idx, minlength=X.shape[0])
        else:
            weights = np.ones(X.shape[0], dtype=np.int64)
        trees.append(
            _build_tree(
                X,
                y,
                weights,
                min_samples_split=hp["min_samples_split"],
                max_depth=hp["max_depth"],
                max_features=max_features,
                rng=rng,
            )
        )
    return RandomForestModel(
        trees=tuple(trees), n_features=X.shape[1], hyperparameters=dict(hp)
    )


@dataclass(frozen=True, eq=False)
class GaussianNBModel:
    classes: np.ndarray
    priors: np.ndarray
    means: np.ndarray  # (n_classes, d)
    variances: np.ndarray  # (n_classes, d), smoothed
    hyperparameters: dict

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _validate_matrix(X, self.means.shape[1])
        if X.shape[0] == 0:  # of any width, which would not broadcast
            return np.empty(0, dtype=np.int64)
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


def fit_gaussian_nb(X, y, hyperparameters, seed: int = 0) -> GaussianNBModel:
    X, y = _validate_xy(X, y)
    hp = hyperparameters
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
        hyperparameters=dict(hp),
    )


@dataclass(frozen=True, eq=False)
class KNNModel:
    train_X: np.ndarray
    train_y: np.ndarray
    hyperparameters: dict

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _validate_matrix(X, self.train_X.shape[1])
        k = min(self.hyperparameters["k"], self.train_X.shape[0])
        out = np.empty(X.shape[0], dtype=np.int64)
        # chunked to bound the n_test x n_train distance block
        chunk = max(1, int(2_000_000 // max(1, self.train_X.shape[0])))
        positive = self.train_y == 1
        for start in range(0, X.shape[0], chunk):
            block = X[start : start + chunk]
            d2 = (
                (block * block).sum(axis=1)[:, None]
                - 2.0 * block @ self.train_X.T
                + (self.train_X * self.train_X).sum(axis=1)[None, :]
            )
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


def fit_knn(X, y, hyperparameters, seed: int = 0) -> KNNModel:
    X, y = _validate_xy(X, y)
    if hyperparameters["k"] < 1:
        raise ChainlensError(f"knn needs k >= 1, got {hyperparameters['k']}")
    return KNNModel(train_X=X, train_y=y, hyperparameters=dict(hyperparameters))


class Kind(NamedTuple):
    fit: Callable  # (X, y, hyperparameters, seed) -> model
    model: type
    defaults: dict


_LINEAR = {"learning_rate": 0.1, "iterations": 1000, "l2": 1e-4}
_CART = {"min_samples_split": 2, "max_depth": None}
_FOREST = {"n_trees": 100, **_CART, "bootstrap": True, "max_features": "sqrt"}

# kind -> fitter, model class and default hyperparameters
KINDS: dict[str, Kind] = {
    "logistic_regression": Kind(fit_logistic_regression, LinearModel, _LINEAR),
    "linear_svm": Kind(fit_linear_svm, LinearModel, _LINEAR),
    "decision_tree": Kind(fit_decision_tree, DecisionTreeModel, _CART),
    "random_forest": Kind(fit_random_forest, RandomForestModel, _FOREST),
    "gaussian_nb": Kind(fit_gaussian_nb, GaussianNBModel, {"var_smoothing": 1e-9}),
    "knn": Kind(fit_knn, KNNModel, {"k": 5}),
}
CLASSIFIER_KINDS = tuple(KINDS)
KIND_DEFAULTS = {kind: entry.defaults for kind, entry in KINDS.items()}


def resolve_hyperparameters(kind: str, overrides: dict | None = None) -> dict:
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
    return hp


def fit_classifier(kind: str, X, y, hyperparameters: dict | None = None, seed: int = 0):
    hp = resolve_hyperparameters(kind, hyperparameters)
    return KINDS[kind].fit(X, y, hp, seed)


def to_doc(obj) -> dict:
    """The JSON document of a model or normalizer: every field but
    ``hyperparameters`` under its own name, arrays as (nested) lists,
    a tuple of tree dicts as a list."""
    return {
        f.name: _to_json(getattr(obj, f.name))
        for f in fields(obj)
        if f.name != "hyperparameters"
    }


def _to_json(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {name: _to_json(v) for name, v in value.items()}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def from_doc(cls, doc, **given):
    """Rebuild ``cls`` from a ``to_doc`` document holding exactly its
    fields but the ``given`` ones. Number lists become int64 or float64
    arrays as their values are, a list of dicts a tuple."""
    if not isinstance(doc, dict):
        raise ChainlensError(f"{cls.__name__} document must be an object")
    expected = {f.name for f in fields(cls)} - given.keys()
    problems = [f"missing field {name!r}" for name in sorted(expected - doc.keys())]
    problems += [f"unknown field {name!r}" for name in sorted(doc.keys() - expected)]
    if problems:
        raise ChainlensError(f"{cls.__name__} document: {', '.join(problems)}")
    return cls(**{name: _from_json(doc[name]) for name in expected}, **given)


def _from_json(value):
    if isinstance(value, dict):
        return {name: _from_json(v) for name, v in value.items()}
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return tuple(_from_json(v) for v in value)
    if isinstance(value, list):
        return np.array(value)
    return value
