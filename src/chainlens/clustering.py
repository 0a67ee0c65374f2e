"""K-means clustering with k-means++ seeding and elbow k selection.

Determinism contract: identical (points, k, seed) give an identical
model. Each of the ``RESTARTS`` restarts draws from an independent
generator seeded with (seed, restart index), restarts are compared by
WCSS with ties going to the earliest restart, and assignment ties go
to the lowest cluster id. Cluster ids carry no ordinal meaning.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cleaning import feature_values, max_normalize
from .dataset import EXTENDED_COLUMNS, Dataset
from .errors import ChainlensError

# daily on-chain feature set for the cluster report; it ends with the
# optional extended CSV columns, and a feature that holds no value on
# the day is left out
CLUSTER_FEATURES = ("market_cap", "volume_24h", "num_market_pairs", "ptsc") + EXTENDED_COLUMNS

MAX_ITERATIONS = 300
RESTARTS = 10

# monotonicity guard: float rounding can wiggle WCSS by ~1e-16
# relative, a genuine Lloyd bug moves it at data scale
_WCSS_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class ClusterModel:
    k: int
    centroids: np.ndarray  # (k, dim)
    assignments: np.ndarray  # (n,) cluster ids
    wcss: float
    iterations_run: int


@dataclass(frozen=True)
class ElbowCurve:
    ks: tuple[int, ...]
    wcss: tuple[float, ...]
    chosen_k: int
    model: ClusterModel = field(compare=False)  # the fit at chosen_k


def _validate_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ChainlensError("points must be a nonempty 2-d array")
    if not np.all(np.isfinite(pts)):
        raise ChainlensError("points must be finite")
    return pts


def _assign(points: np.ndarray, centroids: np.ndarray):
    # argmin breaks ties toward the lowest cluster id
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assignments = np.argmin(d2, axis=1)
    cost = float(d2[np.arange(points.shape[0]), assignments].sum())
    return assignments, cost


def _plusplus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[int(rng.integers(n))]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # remaining points coincide with chosen centroids
            idx = int(rng.integers(n))
        centroids[i] = points[idx]
        np.minimum(d2, ((points - centroids[i]) ** 2).sum(axis=1), out=d2)
    return centroids


def _check_monotone(previous: float, current: float) -> None:
    if current > previous + _WCSS_SLACK * (1.0 + previous):
        raise ChainlensError(
            f"WCSS increased within a Lloyd run: {previous} -> {current}"
        )


def _lloyd(points: np.ndarray, centroids: np.ndarray):
    assignments, cost = _assign(points, centroids)
    for iterations in range(1, MAX_ITERATIONS + 1):
        new_centroids = centroids.copy()
        # a stable sort keeps each cluster's rows in index order, so each
        # mean adds the same rows in the same order as a masked mean does
        order = np.argsort(assignments, kind="stable")
        bounds = np.cumsum(np.bincount(assignments, minlength=len(centroids)))[:-1]
        for cluster, group in enumerate(np.split(points[order], bounds)):
            if len(group):
                new_centroids[cluster] = group.mean(axis=0)
            else:
                # reseed an emptied cluster at the worst-fit point
                per_point = ((points - centroids[assignments]) ** 2).sum(axis=1)
                new_centroids[cluster] = points[int(np.argmax(per_point))]
        # update step: same assignments, recentered centroids
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


def kmeans_fit(points, k: int, seed: int = 0) -> ClusterModel:
    """Best-WCSS model over ``RESTARTS`` independent k-means++ restarts.

    Each restart runs Lloyd iterations to an assignment fixpoint (or
    the iteration cap); WCSS is checked nonincreasing at every half
    step and a violation raises rather than returning a bad model.
    """
    pts = _validate_points(points)
    if k < 1:
        raise ChainlensError(f"k must be >= 1, got {k}")
    if k > pts.shape[0]:
        raise ChainlensError(f"k={k} exceeds the {pts.shape[0]} available points")
    best = None
    for restart in range(RESTARTS):
        rng = np.random.default_rng([seed, restart])
        centroids = _plusplus_init(pts, k, rng)
        centroids, assignments, cost, iterations = _lloyd(pts, centroids)
        if best is None or cost < best[0]:
            best = (cost, centroids, assignments, iterations)
    # _lloyd's loop runs at least once, so both arrays are its own fresh ones
    cost, centroids, assignments, iterations = best
    centroids.flags.writeable = False
    assignments.flags.writeable = False
    return ClusterModel(
        k=k,
        centroids=centroids,
        assignments=assignments,
        wcss=cost,
        iterations_run=iterations,
    )


def elbow(points, k_range: tuple[int, int] = (1, 30), seed: int = 0) -> ElbowCurve:
    """WCSS curve over a k range plus the elbow's k and its model.

    The elbow is the interior point of the curve (both axes scaled to
    [0, 1]) farthest from the chord joining the endpoints; ties take
    the smallest k, so a featureless straight-line curve yields
    k_min + 1.
    """
    pts = _validate_points(points)
    k_min, k_max = k_range
    if k_min < 1 or k_max <= k_min:
        raise ChainlensError(f"degenerate k range {k_range}")
    if k_max > pts.shape[0]:
        raise ChainlensError(
            f"k_max={k_max} exceeds the {pts.shape[0]} available points"
        )
    ks = tuple(range(k_min, k_max + 1))
    models = [kmeans_fit(pts, k, seed=seed) for k in ks]
    costs = tuple(model.wcss for model in models)
    chosen_k = _pick_elbow(ks, costs)
    return ElbowCurve(ks=ks, wcss=costs, chosen_k=chosen_k, model=models[chosen_k - k_min])


def _pick_elbow(ks: Sequence[int], costs: Sequence[float]) -> int:
    xs = np.asarray(ks, dtype=np.float64)
    ys = np.asarray(costs, dtype=np.float64)
    xs = (xs - xs[0]) / (xs[-1] - xs[0])
    spread = ys.max() - ys.min()
    ys = (ys - ys.min()) / spread if spread > 0 else np.zeros_like(ys)
    # |cross product| against the endpoint chord, interior points only
    x0, y0 = xs[0], ys[0]
    x1, y1 = xs[-1], ys[-1]
    distances = np.abs((x1 - x0) * (ys - y0) - (y1 - y0) * (xs - x0))
    interior = distances[1:-1]
    if interior.size == 0:
        return int(ks[1])
    return int(ks[1 + int(np.argmax(interior))])


@dataclass(frozen=True)
class ClusterReport:
    """Daily clustering outcome: which coins, which clusters, and the
    elbow curve when k was chosen automatically."""

    date: dt.date
    feature_columns: tuple[str, ...]
    keys: tuple[str, ...]
    excluded: tuple[str, ...]
    model: ClusterModel
    elbow_curve: ElbowCurve | None


def _daily_feature_matrix(dataset: Dataset, date: dt.date):
    # the coins alive on the date, each at its last row on or before it
    rows = dataset.last_rows(date)
    rows = rows[(rows >= 0) & (dataset.days[dataset.last_rows()] >= date.toordinal())]
    if not rows.size:
        raise ChainlensError(f"no coins alive on {date.isoformat()}")
    matrix = np.column_stack([feature_values(dataset, name, rows) for name in CLUSTER_FEATURES])
    present = (np.nan_to_num(matrix) > 0).any(axis=0)  # absent or 0 for all: left out
    if not present.any():
        raise ChainlensError(f"no cluster feature has a value on {date.isoformat()}")
    names = tuple(name for name, kept in zip(CLUSTER_FEATURES, present) if kept)
    matrix = matrix[:, present]
    complete = ~np.isnan(matrix).any(axis=1)
    keys = dataset.row_keys(rows)
    included = [key for key, ok in zip(keys, complete) if ok]
    excluded = [key for key, ok in zip(keys, complete) if not ok]
    return names, included, matrix[complete], excluded


def cluster_report(
    dataset: Dataset, date: dt.date, k: int | None = None, seed: int = 0
) -> ClusterReport:
    """Cluster the coins alive on one day (first day <= date <= last
    day), each at its last row on or before it.

    The features are the CLUSTER_FEATURES positive on at least one of
    those rows, and coins with any of them absent are excluded.
    Every feature column is scaled by its maximum, then k-means runs
    with the given k, or with the elbow's choice over k = 1..30 when k
    is None.
    """
    names, keys, matrix, excluded = _daily_feature_matrix(dataset, date)
    if not keys:
        raise ChainlensError(
            f"no coins on {date.isoformat()} have all of {list(names)} present"
        )
    if k is not None and k > len(keys):
        raise ChainlensError(
            f"k={k} exceeds the {len(keys)} coins remaining after exclusion"
        )
    normalized = np.column_stack(
        [max_normalize(matrix[:, j]) for j in range(matrix.shape[1])]
    )
    curve = None
    if k is None:
        k_max = min(30, len(keys))
        if k_max < 2:
            raise ChainlensError("too few coins to run elbow selection")
        curve = elbow(normalized, (1, k_max), seed=seed)
        model = curve.model
    else:
        model = kmeans_fit(normalized, k, seed=seed)
    return ClusterReport(
        date=date,
        feature_columns=names,
        keys=tuple(keys),
        excluded=tuple(excluded),
        model=model,
        elbow_curve=curve,
    )
