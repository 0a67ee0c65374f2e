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
from dataclasses import dataclass, field

import numpy as np

from .errors import ChainlensError

CLASSIFIER_KINDS = (
    "logistic_regression",
    "linear_svm",
    "decision_tree",
    "random_forest",
    "gaussian_nb",
    "knn",
)

KIND_DEFAULTS: dict[str, dict] = {
    "logistic_regression": {"learning_rate": 0.1, "iterations": 1000, "l2": 1e-4},
    "linear_svm": {"learning_rate": 0.1, "iterations": 1000, "l2": 1e-4},
    "decision_tree": {"min_samples_split": 2, "max_depth": None},
    "random_forest": {
        "n_trees": 100,
        "min_samples_split": 2,
        "max_depth": None,
        "bootstrap": True,
        "max_features": "sqrt",
    },
    "gaussian_nb": {"var_smoothing": 1e-9},
    "knn": {"k": 5},
}


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
class LogisticRegressionModel:
    weights: np.ndarray
    bias: float
    hyperparameters: dict

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _validate_matrix(X, self.weights.shape[0])
        return (X @ self.weights + self.bias >= 0.0).astype(np.int64)

    def parameters_doc(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias}


def fit_logistic_regression(X, y, hyperparameters) -> LogisticRegressionModel:
    X, y = _validate_xy(X, y)
    _require_both_classes(y, "logistic_regression")
    hp = hyperparameters
    params = np.zeros(X.shape[1] + 1, dtype=np.float64)
    for _ in range(hp["iterations"]):
        _, grad = logistic_loss_and_gradient(params, X, y, hp["l2"])
        params -= hp["learning_rate"] * grad
    return LogisticRegressionModel(
        weights=params[:-1], bias=float(params[-1]), hyperparameters=dict(hp)
    )


@dataclass(frozen=True, eq=False)
class LinearSVMModel:
    weights: np.ndarray
    bias: float
    hyperparameters: dict

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _validate_matrix(X, self.weights.shape[0])
        return (X @ self.weights + self.bias >= 0.0).astype(np.int64)

    def parameters_doc(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias}


def fit_linear_svm(X, y, hyperparameters) -> LinearSVMModel:
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
    return LinearSVMModel(weights=w, bias=float(b), hyperparameters=dict(hp))


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


def _tree_doc(tree: dict) -> dict:
    return {name: arr.tolist() for name, arr in tree.items()}


def _tree_from_doc(doc: dict) -> dict:
    return {
        "feature": np.array(doc["feature"], dtype=np.int64),
        "threshold": np.array(doc["threshold"], dtype=np.float64),
        "left": np.array(doc["left"], dtype=np.int64),
        "right": np.array(doc["right"], dtype=np.int64),
        "label": np.array(doc["label"], dtype=np.int64),
    }


@dataclass(frozen=True, eq=False)
class DecisionTreeModel:
    tree: dict
    n_features: int
    hyperparameters: dict

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _validate_matrix(X, self.n_features)
        if X.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        return _tree_predict(self.tree, X)

    def parameters_doc(self) -> dict:
        return {"n_features": self.n_features, "tree": _tree_doc(self.tree)}


def fit_decision_tree(X, y, hyperparameters) -> DecisionTreeModel:
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
        if X.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        votes = np.zeros(X.shape[0], dtype=np.int64)
        for tree in self.trees:
            votes += _tree_predict(tree, X)
        # strict majority; an exact tie goes to label 0
        return (votes * 2 > len(self.trees)).astype(np.int64)

    def parameters_doc(self) -> dict:
        return {
            "n_features": self.n_features,
            "trees": [_tree_doc(t) for t in self.trees],
        }


def _forest_max_features(setting, d: int) -> int | None:
    if setting == "sqrt":
        return max(1, int(math.isqrt(d)))
    if setting == "all" or setting is None:
        return None
    return int(setting)


def fit_random_forest(X, y, hyperparameters, seed: int = 0) -> RandomForestModel:
    X, y = _validate_xy(X, y)
    _require_both_classes(y, "random_forest")
    hp = hyperparameters
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
        if X.shape[0] == 0:
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

    def parameters_doc(self) -> dict:
        return {
            "classes": self.classes.tolist(),
            "priors": self.priors.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
        }


def fit_gaussian_nb(X, y, hyperparameters) -> GaussianNBModel:
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
        if X.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
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

    def parameters_doc(self) -> dict:
        return {
            "train_X": self.train_X.tolist(),
            "train_y": self.train_y.tolist(),
        }


def fit_knn(X, y, hyperparameters) -> KNNModel:
    X, y = _validate_xy(X, y)
    if hyperparameters["k"] < 1:
        raise ChainlensError(f"knn needs k >= 1, got {hyperparameters['k']}")
    return KNNModel(train_X=X, train_y=y, hyperparameters=dict(hyperparameters))


_FITTERS = {
    "logistic_regression": lambda X, y, hp, seed: fit_logistic_regression(X, y, hp),
    "linear_svm": lambda X, y, hp, seed: fit_linear_svm(X, y, hp),
    "decision_tree": lambda X, y, hp, seed: fit_decision_tree(X, y, hp),
    "random_forest": fit_random_forest,
    "gaussian_nb": lambda X, y, hp, seed: fit_gaussian_nb(X, y, hp),
    "knn": lambda X, y, hp, seed: fit_knn(X, y, hp),
}


def resolve_hyperparameters(kind: str, overrides: dict | None = None) -> dict:
    if kind not in KIND_DEFAULTS:
        raise ChainlensError(
            f"unknown classifier kind {kind!r}; expected one of {CLASSIFIER_KINDS}"
        )
    hp = dict(KIND_DEFAULTS[kind])
    for name, value in (overrides or {}).items():
        if name not in hp:
            raise ChainlensError(
                f"{kind} has no hyperparameter {name!r}; valid: {sorted(hp)}"
            )
        hp[name] = value
    return hp


def fit_classifier(kind: str, X, y, hyperparameters: dict | None = None, seed: int = 0):
    hp = resolve_hyperparameters(kind, hyperparameters)
    return _FITTERS[kind](X, y, hp, seed)


def model_parameters_from_doc(kind: str, doc: dict, hyperparameters: dict):
    """Rebuild a model object from its JSON parameter document."""
    if kind == "logistic_regression":
        return LogisticRegressionModel(
            weights=np.array(doc["weights"], dtype=np.float64),
            bias=float(doc["bias"]),
            hyperparameters=hyperparameters,
        )
    if kind == "linear_svm":
        return LinearSVMModel(
            weights=np.array(doc["weights"], dtype=np.float64),
            bias=float(doc["bias"]),
            hyperparameters=hyperparameters,
        )
    if kind == "decision_tree":
        return DecisionTreeModel(
            tree=_tree_from_doc(doc["tree"]),
            n_features=int(doc["n_features"]),
            hyperparameters=hyperparameters,
        )
    if kind == "random_forest":
        return RandomForestModel(
            trees=tuple(_tree_from_doc(t) for t in doc["trees"]),
            n_features=int(doc["n_features"]),
            hyperparameters=hyperparameters,
        )
    if kind == "gaussian_nb":
        return GaussianNBModel(
            classes=np.array(doc["classes"], dtype=np.int64),
            priors=np.array(doc["priors"], dtype=np.float64),
            means=np.array(doc["means"], dtype=np.float64),
            variances=np.array(doc["variances"], dtype=np.float64),
            hyperparameters=hyperparameters,
        )
    if kind == "knn":
        return KNNModel(
            train_X=np.array(doc["train_X"], dtype=np.float64),
            train_y=np.array(doc["train_y"], dtype=np.int64),
            hyperparameters=hyperparameters,
        )
    raise ChainlensError(f"unknown classifier kind {kind!r}")
