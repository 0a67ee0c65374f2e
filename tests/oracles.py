"""Slow reference implementations the fast paths must match.

``oracle_build_tree`` is the original depth-first CART builder: it
re-sorts every candidate feature at every node and numbers nodes in
creation order (a node's two children get consecutive ids when it is
split; the stack pops the right child first); ``level_order``
renumbers such a tree breadth-first, and ``oracle_compact`` cuts a
level-order tree to the three arrays that models and model files hold.
``oracle_level_tree`` is the first level-wise builder: a stable
argsort of every feature per tree, float64 value comparisons for the
cuts, two ``np.minimum.at`` scatters for each level's winners and a
cumsum + ``put_along_axis`` partition of all feature lists, with node
ids in level order; ``oracle_forest_trees`` grows a forest with it.
``oracle_knn_predict`` is the original full stable argsort of each
distance block. ``oracle_lloyd`` is the original Lloyd loop, which
recenters each cluster on the mean of a boolean mask of its rows.
``oracle_save_model`` is the one-shot model writer: the whole format-2
document built by ``to_doc``, then one ``json.dumps``.

``oracle_load_csv``, ``oracle_fetch_pages``, ``oracle_build`` and
``oracle_save_csv`` are the original row-by-row dataset paths: one
validated ``CoinSnapshot`` per row (``snapshot_from_mapping``, the
original row parser), sorted with ``sorted``, duplicates
and circulating > total rows found by walking the sorted rows, and one
``csv.writer`` row per snapshot, each cell by ``_format_cell``.
``repr_digits`` reads ``repr``'s digits back as an integer and an
exponent, and ``is_tie`` tells with exact fractions whether a value lies
halfway between two decimals of that length.

``oracle_aggregate_stats`` and ``oracle_manipulability_flags`` are the
original per-coin paths: one coin's snapshots at a time, a statistic
absent (None) below its observation floor, and a set of flag names for
one ``CoinSnapshot``.

``oracle_lifetimes``, ``oracle_survival_summary`` and ``oracle_pareto``
are the original record-based survival path: one validated
``LifetimeRecord`` per coin, read back field by field.

``oracle_correlation_matrix`` is the original matrix report: each
upper-triangle cell split into a float64 coefficient matrix (NaN where
undefined), an int64 sample-size matrix and a label grid, and every
cell rebuilt from those three on the way out.
"""

import base64
import csv
import datetime as dt
import json
import math
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from chainlens.classifiers import _forest_max_features
from chainlens.clustering import MAX_ITERATIONS, _assign, _check_monotone
from chainlens.classify import MODEL_FORMAT_VERSION
from chainlens.correlation import PairCorrelation, _pair
from chainlens.dataset import (
    CSV_HEADER,
    EXTENDED_COLUMNS,
    NUMERIC_COLUMNS,
    VALUE_COLUMNS,
    CoinSnapshot,
    _cell,
    coin_key,
    split_coin_key,
)
from chainlens.errors import (
    ApiError,
    ChainlensError,
    DataQualityWarning,
    DuplicateCoinDayError,
    MalformedRowError,
    SchemaDriftError,
)
from chainlens.rules import parse_day
from chainlens.survival import PARETO_BUCKET_DAYS, ParetoBucket, SurvivalSummary


def _gini_pair(pos, total):
    p = pos / total
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def oracle_best_split(X, y, feature_indices):
    """Lowest weighted child Gini over midpoint thresholds.

    Ties break toward the earlier feature, then the smaller threshold.
    Returns (feature, threshold, score) or None when no split separates
    rows.
    """
    n = y.shape[0]
    best = None
    for f in feature_indices:
        values = X[:, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        sy = y[order]
        boundary = np.flatnonzero(sv[1:] != sv[:-1])
        if boundary.size == 0:
            continue
        pos_prefix = np.cumsum(sy)
        left_n = (boundary + 1).astype(np.float64)
        right_n = n - left_n
        left_pos = pos_prefix[boundary].astype(np.float64)
        right_pos = float(pos_prefix[-1]) - left_pos
        weighted = (
            left_n * _gini_pair(left_pos, left_n)
            + right_n * _gini_pair(right_pos, right_n)
        ) / n
        j = int(np.argmin(weighted))
        score = float(weighted[j])
        if best is None or score < best[0]:
            cut = boundary[j]
            best = (score, f, (sv[cut] + sv[cut + 1]) / 2.0)
    if best is None:
        return None
    return best[1], best[2], best[0]


def oracle_build_tree(X, y, min_samples_split=2, max_depth=None):
    """Depth-first CART over all features, as parallel node arrays."""
    n, d = X.shape
    feature, threshold = [], []
    left, right, label = [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        label.append(0)
        return len(feature) - 1

    root = new_node()
    stack = [(np.arange(n), root, 0)]
    while stack:
        idx, node, depth = stack.pop()
        ys = y[idx]
        counts = np.bincount(ys, minlength=2)
        pure = counts[0] == 0 or counts[1] == 0
        stop = (
            pure
            or idx.shape[0] < min_samples_split
            or (max_depth is not None and depth >= max_depth)
        )
        split = None
        if not stop:
            split = oracle_best_split(X[idx], ys, range(d))
            if split is not None:
                p = counts[1] / idx.shape[0]
                parent_gini = 1.0 - p * p - (1.0 - p) * (1.0 - p)
                if split[2] > parent_gini - 1e-12:
                    split = None
        if split is None:
            label[node] = int(np.argmax(counts))
            continue
        f, thr, _ = split
        mask = X[idx, f] <= thr
        left_id = new_node()
        right_id = new_node()
        feature[node] = int(f)
        threshold[node] = float(thr)
        left[node] = left_id
        right[node] = right_id
        stack.append((idx[mask], left_id, depth + 1))
        stack.append((idx[~mask], right_id, depth + 1))
    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold, dtype=np.float64),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "label": np.array(label, dtype=np.int64),
    }


def level_order(tree):
    """``tree`` with its nodes renumbered by a breadth-first walk from
    the root that visits a node's left child before its right one."""
    order = [0]
    for node in order:  # the walk appends as it goes
        if tree["feature"][node] >= 0:
            order += [int(tree["left"][node]), int(tree["right"][node])]
    order = np.array(order, dtype=np.int64)
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.shape[0])
    out = {name: values[order] for name, values in tree.items()}
    split = out["feature"] >= 0
    for child in ("left", "right"):
        out[child] = np.where(split, new_id[out[child]], -1)
    return out


def oracle_compact(tree):
    """A level-order five-array tree cut to the arrays format 2 stores:
    ``feature`` of every node, ``threshold`` of the split nodes and
    ``label`` of the leaves."""
    split = tree["feature"] >= 0
    return {
        "feature": tree["feature"],
        "threshold": tree["threshold"][split],
        "label": tree["label"][~split],
    }


def _level_best_splits(XT, R, node, counts, w, wy, tot, pos, allowed):
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


def _level_partition(R, counts, split, goes_left):
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


def oracle_level_tree(X, y, weights, min_samples_split, max_depth, max_features, rng):
    """CART with Gini impurity, grown one level at a time.

    Nodes are parallel arrays: feature == -1 marks a leaf. ``weights``
    are integer row multiplicities (the forest's bootstrap counts); a
    row of weight 0 takes no part. Each feature is sorted once; its row
    list stays grouped by frontier node and is partitioned stably into
    the children at each split, so every level scores the whole frontier
    in one vectorized pass. With ``max_features`` below the
    dimensionality, each level draws one feature subset per open node
    from ``rng``. Node ids follow level order: node 0 is the root, and
    the k-th split node's children are 2k + 1 and 2k + 2.
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
        score, feature, threshold = _level_best_splits(
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
        R, counts = _level_partition(R, counts, split, goes_left)
        depth += 1
    feature, threshold, label = (np.concatenate(a) for a in zip(*levels))
    split = feature >= 0
    left = np.full(feature.shape[0], -1, dtype=np.int64)
    left[split] = 1 + 2 * np.arange(int(split.sum()))
    right = np.where(split, left + 1, -1)
    return {
        "feature": feature,
        "threshold": threshold,
        "left": left,
        "right": right,
        "label": label,
    }


def oracle_forest_trees(X, y, hyperparameters, seed=0):
    """The trees ``fit_classifier("random_forest", ...)`` grew with ``oracle_level_tree``."""
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
            oracle_level_tree(
                X,
                y,
                weights,
                min_samples_split=hp["min_samples_split"],
                max_depth=hp["max_depth"],
                max_features=max_features,
                rng=rng,
            )
        )
    return trees


def oracle_knn_predict(train_X, train_y, k, X):
    """Majority of the k nearest by a full stable sort of the distances.

    Blocks are cut as in ``KNNModel.predict``, so both compute each
    distance with the same matrix products.
    """
    k = min(k, train_X.shape[0])
    out = np.empty(X.shape[0], dtype=np.int64)
    chunk = max(1, int(2_000_000 // max(1, train_X.shape[0])))
    for start in range(0, X.shape[0], chunk):
        block = X[start : start + chunk]
        d2 = (
            (block * block).sum(axis=1)[:, None]
            - 2.0 * block @ train_X.T
            + (train_X * train_X).sum(axis=1)[None, :]
        )
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        votes = train_y[nearest].sum(axis=1)
        out[start : start + chunk] = (votes * 2 > k).astype(np.int64)
    return out


def oracle_lloyd(points, centroids):
    """``(centroids, assignments, wcss, iterations)`` as ``_lloyd`` returns them."""
    assignments, cost = _assign(points, centroids)
    iterations = 0
    for _ in range(MAX_ITERATIONS):
        iterations += 1
        new_centroids = centroids.copy()
        for cluster in range(centroids.shape[0]):
            members = assignments == cluster
            if members.any():
                new_centroids[cluster] = points[members].mean(axis=0)
            else:
                # reseed an emptied cluster at the worst-fit point
                per_point = ((points - centroids[assignments]) ** 2).sum(axis=1)
                new_centroids[cluster] = points[int(np.argmax(per_point))]
        diff = points - new_centroids[assignments]
        update_cost = float((diff * diff).sum())
        _check_monotone(cost, update_cost)
        new_assignments, assign_cost = _assign(points, new_centroids)
        _check_monotone(update_cost, assign_cost)
        centroids = new_centroids
        converged = bool(np.array_equal(new_assignments, assignments))
        assignments = new_assignments
        cost = assign_cost
        if converged:
            break
    return centroids, assignments, cost, iterations


def oracle_build(snapshots):
    """Sorted snapshots and quality notes, as ``Dataset.build`` made them."""
    rows = sorted(snapshots, key=lambda s: (s.key, s.date))
    duplicates = [
        (rows[i].key, rows[i].date.isoformat())
        for i in range(1, len(rows))
        if rows[i].key == rows[i - 1].key and rows[i].date == rows[i - 1].date
    ]
    if duplicates:
        raise DuplicateCoinDayError(duplicates)
    notes = [
        f"{s.key} {s.date.isoformat()}: circulating_supply "
        f"{s.circulating_supply} exceeds total_supply {s.total_supply}"
        for s in rows
        if s.circulating_supply is not None
        and s.total_supply is not None
        and s.circulating_supply > s.total_supply
    ]
    if notes:
        warnings.warn(
            f"{len(notes)} row(s) have circulating_supply > total_supply",
            DataQualityWarning,
            stacklevel=2,
        )
    return tuple(rows), tuple(notes)


def snapshot_from_mapping(record):
    """Build a snapshot from string-keyed cells (CSV row or API record).

    Values may be strings (CSV) or already-typed (JSON); missing keys
    and empty strings / None are treated as absent numeric fields.
    """
    name = str(record["name"])
    symbol = str(record["symbol"])
    date = record["date"]
    if not isinstance(date, dt.date):
        date = parse_day(str(date))
    numbers = {c: _cell(c, record[c]) for c in VALUE_COLUMNS if c in record}
    return CoinSnapshot(key=coin_key(name, symbol), date=date, **numbers)


def oracle_load_csv(path):
    """Row-by-row CSV load: ``(snapshots, quality_notes)``."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRowError(f"{path}: empty file, header row required") from None
        columns = [h.strip() for h in header]
        known = set(CSV_HEADER) | set(EXTENDED_COLUMNS)
        unknown = [c for c in columns if c not in known]
        if unknown:
            raise MalformedRowError(f"{path}: unknown column(s) {unknown}")
        missing = [c for c in CSV_HEADER if c not in columns]
        if missing:
            raise MalformedRowError(f"{path}: missing column(s) {missing}")
        snapshots = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != len(columns):
                raise MalformedRowError(
                    f"{path}: line {line_no}: expected {len(columns)} cells, got {len(row)}"
                )
            record = dict(zip(columns, row))
            try:
                snapshots.append(snapshot_from_mapping(record))
            except (ValueError, KeyError) as exc:
                raise MalformedRowError(f"{path}: line {line_no}: {exc}") from exc
    return oracle_build(snapshots)


def oracle_rows_to_snapshots(rows, page):
    """One API page's rows, checked and parsed one at a time."""
    snapshots = []
    for row in rows:
        if type(row) is not dict:
            raise ApiError(f"page {page} row is not a JSON object: {row!r:.80}")
        for field in CSV_HEADER:
            if field not in row:
                raise SchemaDriftError(field, f"page {page} row")
        try:
            snapshots.append(snapshot_from_mapping(row))
        except (ValueError, KeyError) as exc:
            raise ApiError(f"bad value in page {page} row: {exc}") from exc
    return snapshots


def oracle_fetch_pages(pages):
    """The parsed ``data`` lists of successive API pages, merged as
    ``fetch_history`` merged them: ``(snapshots, quality_notes)``."""
    snapshots = []
    for page, rows in enumerate(pages, start=1):
        snapshots.extend(oracle_rows_to_snapshots(rows, page))
    return oracle_build(snapshots)


def repr_digits(value: float) -> tuple[int, int]:
    """``repr(value)`` as ``(digits, exponent)`` with no trailing zero
    in ``digits``: the text reads ``digits * 10**exponent``."""
    mantissa, _, power = repr(value).partition("e")
    whole, _, fraction = mantissa.partition(".")
    fraction = fraction.rstrip("0")
    digits, exponent = int(whole + fraction), int(power or 0) - len(fraction)
    while digits and digits % 10 == 0:
        digits, exponent = digits // 10, exponent + 1
    return digits, exponent


def is_tie(value: float) -> bool:
    """Whether two decimals of ``repr``'s length lie equally near the
    value, exactly, which ``shortest_digits`` leaves to ``repr``."""
    digits, exponent = repr_digits(value)
    unit = Fraction(10) ** exponent
    near = abs(Fraction(value) - digits * unit)
    return near * 2 == unit


def _format_cell(value):
    if value is None:
        return ""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def oracle_save_csv(snapshots, path):
    """One ``csv.writer`` row per snapshot."""
    columns = list(NUMERIC_COLUMNS)
    if any(
        getattr(s, name) is not None for s in snapshots for name in EXTENDED_COLUMNS
    ):
        columns += list(EXTENDED_COLUMNS)
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "symbol", "date"] + columns)
        for snap in snapshots:
            name, symbol = split_coin_key(snap.key)
            row = [name, symbol, snap.date.isoformat()]
            row += [_format_cell(getattr(snap, c)) for c in columns]
            writer.writerow(row)


def to_doc(obj) -> dict:
    """The whole format-2 document of a model or normalizer: every field
    but ``hyperparameters`` under its own name, each array (a tree's
    three too) as an ``oracle_blob``, a tuple of trees as a list."""
    return {
        f.name: _to_json(getattr(obj, f.name))
        for f in fields(obj)
        if f.name != "hyperparameters"
    }


def oracle_blob(array):
    """An array as a format-2 object: floats as ``<f8``, integers as the
    first of ``<i1``..``<i8`` that gives every value back, and the
    base64 of those bytes."""
    if array.dtype.kind == "f":
        dtype = "<f8"
    else:
        dtype = next(
            t for t in ("<i1", "<i2", "<i4", "<i8")
            if np.array_equal(array.astype(t).astype(np.int64), array)
        )
    data = base64.b64encode(array.astype(dtype).tobytes()).decode("ascii")
    return {"data": data, "dtype": dtype, "shape": list(array.shape)}


def _to_json(value):
    if isinstance(value, np.ndarray):
        return oracle_blob(value)
    if isinstance(value, dict):
        return {name: oracle_blob(array) for name, array in value.items()}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def oracle_save_model(trained, path):
    """The model file as one compact, sorted ``json.dumps`` of the
    whole document (``to_doc``)."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": trained.spec.kind,
        "hyperparameters": trained.spec.hyperparameters,
        "feature_names": list(trained.feature_names),
        "seed": trained.seed,
        "normalizer": to_doc(trained.normalizer),
        "parameters": to_doc(trained.model),
    }
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    Path(path).write_text(text, encoding="utf-8")


def _oracle_ptsc(snapshot):
    """Circulating over total supply, NaN when either is absent, the
    total is not positive or the ratio overflows."""
    circulating, total = snapshot.circulating_supply, snapshot.total_supply
    if circulating is None or total is None or not total > 0:
        return float("nan")
    ratio = circulating / total
    return ratio if math.isfinite(ratio) else float("nan")


def _oracle_column_stats(values):
    present = values[~np.isnan(values)]
    n = present.shape[0]
    mean = _oracle_stat(present, "mean") if n >= 1 else None
    std = _oracle_stat(present, "std") if n >= 2 else None
    return mean, std


def _oracle_stat(present, method):
    """``present.mean()`` or ``present.std()``; where that overflows,
    the same of the values over their largest magnitude, times it."""
    with np.errstate(over="ignore"):
        value = float(getattr(present, method)())
        if math.isfinite(value):
            return value
        scale = float(np.max(np.abs(present)))
        return scale * float(getattr(present / scale, method)())


def oracle_aggregate_stats(dataset, date_range=None):
    """Per coin key, each aggregate column's (mean, population std) over
    the coin's snapshots in the inclusive range; None without a present
    value (mean) or without two (std)."""
    lo, hi = date_range if date_range is not None else (None, None)
    by_key = {key: [] for key in dataset.keys}
    for snap in dataset.snapshots:
        if (lo is None or snap.date >= lo) and (hi is None or snap.date <= hi):
            by_key[snap.key].append(snap)
    out = {}
    for key, snaps in by_key.items():
        columns = {
            name: [getattr(s, name) for s in snaps]
            for name in ("price", "max_supply", "total_supply", "volume_24h")
        }
        columns["ptsc"] = [_oracle_ptsc(s) for s in snaps]
        out[key] = {
            name: _oracle_column_stats(np.array(values, dtype=np.float64))
            for name, values in columns.items()
        }
    return out


def oracle_manipulability_flags(snapshot, volume):
    """The flag names of one coin: its ``CoinSnapshot`` at the cutoff and
    its volume (mean, std), each None when absent."""
    flags = set()
    if snapshot.max_supply is None:
        flags.add("unlimited_issuance")
    ptsc = _oracle_ptsc(snapshot)
    if np.isnan(ptsc):
        flags.add("insufficient_data_circulation")
    elif ptsc < 0.5:
        flags.add("low_circulation")
    mean, std = volume
    if mean is None or std is None or mean == 0:
        flags.add("insufficient_data_volume")
    elif std / mean > 1.0:
        flags.add("volatile_volume")
    return frozenset(flags)


@dataclass(frozen=True)
class LifetimeRecord:
    key: str
    first_day: dt.date
    last_day: dt.date
    lifetime_days: int
    disappeared: bool

    def __post_init__(self):
        if self.first_day > self.last_day:
            raise ValueError(f"{self.key}: first_day after last_day")
        if self.lifetime_days != (self.last_day - self.first_day).days:
            raise ValueError(f"{self.key}: lifetime_days inconsistent with dates")


def oracle_lifetimes(dataset, cutoff=None):
    """One record per coin series; disappeared iff last day < cutoff."""
    if not len(dataset):
        return []
    cutoff = dataset.resolve_cutoff(cutoff)
    firsts = dataset.days[dataset.offsets[:-1]].tolist()
    lasts = dataset.days[dataset.last_rows()].tolist()
    records = []
    for key, first, last in zip(dataset.keys, firsts, lasts):
        last_day = dt.date.fromordinal(last)
        records.append(
            LifetimeRecord(
                key=key,
                first_day=dt.date.fromordinal(first),
                last_day=last_day,
                lifetime_days=last - first,
                disappeared=last_day < cutoff,
            )
        )
    return records


def oracle_survival_summary(records):
    """Disappearance fraction plus the lifetime-threshold fractions."""
    if not records:
        raise ChainlensError("survival_summary needs at least one record")
    gone = [r for r in records if r.disappeared]
    alive = [r for r in records if not r.disappeared]

    def fraction(subset, predicate):
        if not subset:
            return None
        return sum(1 for r in subset if predicate(r)) / len(subset)

    return SurvivalSummary(
        total=len(records),
        disappeared_count=len(gone),
        disappeared_fraction=len(gone) / len(records),
        disappeared_lt_80_days=fraction(gone, lambda r: r.lifetime_days < 80),
        disappeared_lt_365_days=fraction(gone, lambda r: r.lifetime_days < 365),
        surviving_gt_1000_days=fraction(alive, lambda r: r.lifetime_days > 1000),
    )


def oracle_pareto(records):
    """Bucket the disappeared coins' lifetimes, order by descending
    count (ties toward the earlier bucket), accumulate percent."""
    counts = {}
    for record in records:
        if record.disappeared:
            start = record.lifetime_days // PARETO_BUCKET_DAYS * PARETO_BUCKET_DAYS
            counts[start] = counts.get(start, 0) + 1
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    total = sum(counts.values())
    buckets = []
    running = 0
    for start, count in ordered:
        running += count
        buckets.append(
            ParetoBucket(
                start=start,
                end=start + PARETO_BUCKET_DAYS,
                count=count,
                cumulative_pct=100.0 * running / total,
            )
        )
    return tuple(buckets)


@dataclass(frozen=True, eq=False)
class OracleCorrelationReport:
    method: str
    variables: tuple
    coefficients: np.ndarray
    sample_sizes: np.ndarray
    labels: tuple

    def cell(self, var_a, var_b):
        i = self.variables.index(var_a)
        j = self.variables.index(var_b)
        value = float(self.coefficients[i, j])
        return PairCorrelation(
            var_a=var_a,
            var_b=var_b,
            method=self.method,
            coefficient=None if math.isnan(value) else value,
            n=int(self.sample_sizes[i, j]),
            label=self.labels[i][j],
        )

    def pairs(self):
        out = []
        for i, a in enumerate(self.variables):
            for b in self.variables[i + 1 :]:
                out.append(self.cell(a, b))
        return out

    def as_dict(self):
        coefs = [
            [None if math.isnan(v) else v for v in row]
            for row in self.coefficients.tolist()
        ]
        return {
            "method": self.method,
            "variables": list(self.variables),
            "coefficients": coefs,
            "sample_sizes": self.sample_sizes.tolist(),
            "labels": [list(row) for row in self.labels],
        }


def oracle_correlation_matrix(method, columns, names):
    """All pairwise coefficients among ``names``, each a column of the
    ``columns`` dict."""
    names = tuple(names)
    if len(names) < 2:
        raise ChainlensError("correlation_matrix needs at least 2 columns")
    k = len(names)
    coefficients = np.full((k, k), np.nan, dtype=np.float64)
    sizes = np.zeros((k, k), dtype=np.int64)
    labels = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            cell = _pair(names[i], names[j], method, columns[names[i]], columns[names[j]])
            value = np.nan if cell.coefficient is None else cell.coefficient
            coefficients[i, j] = coefficients[j, i] = value
            sizes[i, j] = sizes[j, i] = cell.n
            labels[i][j] = labels[j][i] = cell.label
    return OracleCorrelationReport(
        method=method,
        variables=names,
        coefficients=coefficients,
        sample_sizes=sizes,
        labels=tuple(tuple(row) for row in labels),
    )
