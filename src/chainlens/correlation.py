"""Pearson, Spearman, and Kendall tau-b correlation with reports.

Method conventions:

* Kendall is the tau-b (tie-corrected) variant, computed in
  O(n log n) by sorting on one side and counting inversions of the
  other with :mod:`chainlens.kernels`. Supply columns are heavily
  tied, so the tie correction matters.
* Spearman uses average ("mid") ranks, making it exactly the Pearson
  coefficient of the rank vectors, ties included.
* Absent values are deleted pairwise per coefficient; nothing is
  imputed here. Each report cell carries its effective sample size.
* Coefficients that are undefined (fewer than two pairs, a constant
  side, an all-tied side, Pearson over an infinite value) are
  reported as absent, never as zero.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .cleaning import FeatureTable, aggregate_stats, row_feature_table
from .dataset import NUMERIC_COLUMNS, Dataset
from .errors import ChainlensError, UndefinedCorrelationError
from .kernels import count_inversions
from .rules import METHODS

# row-level price factors (pooled over every coin-day)
PRICE_FACTORS = ("max_supply", "total_supply", "circulating_supply", "volume_24h", "ptsc")

# the six variables of the full pairwise matrix
MATRIX_VARIABLES = (
    "max_supply",
    "total_supply",
    "circulating_supply",
    "volume_24h",
    "market_cap",
    "num_market_pairs",
)

# per-coin aggregate statistics correlated against mean/std of price
AGGREGATE_FACTORS = ("max_supply", "total_supply", "volume_24h", "ptsc")


@dataclass(frozen=True)
class Interpretation:
    """Strength band of |coefficient| plus the sign, kept separate."""

    strength: str
    sign: str  # "positive", "negative", or "none" for exactly zero

    def __str__(self) -> str:
        if self.sign == "none":
            return self.strength
        return f"{self.strength} {self.sign}"


_BANDS = (
    (0.20, "very weak"),
    (0.40, "weak"),
    (0.60, "medium"),
    (0.80, "strong"),
    (math.inf, "very strong"),
)


def interpret(coefficient: float) -> Interpretation:
    """Map a coefficient to its strength band.

    Bands on |c|: [0, 0.20) very weak, [0.20, 0.40) weak,
    [0.40, 0.60) medium, [0.60, 0.80) strong, [0.80, 1] very strong.
    """
    c = float(coefficient)
    if math.isnan(c) or abs(c) > 1.0:
        raise ValueError(f"coefficient must be in [-1, 1], got {coefficient!r}")
    magnitude = abs(c)
    for upper, name in _BANDS:
        if magnitude < upper:
            strength = name
            break
    sign = "positive" if c > 0 else "negative" if c < 0 else "none"
    return Interpretation(strength=strength, sign=sign)


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average (mid) rank."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    new_group = np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1]))
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], n)
    # run occupying sorted slots [s, e) gets rank (s+1 + e) / 2
    group_rank = (starts + ends + 1) / 2.0
    ranks_sorted = group_rank[np.cumsum(new_group) - 1]
    out = np.empty(n, dtype=np.float64)
    out[order] = ranks_sorted
    return out


def _tie_pairs(new_group: np.ndarray) -> int:
    # sum of t*(t-1)/2 over runs delimited by new_group flags
    starts = np.flatnonzero(new_group)
    lengths = np.diff(np.append(starts, new_group.shape[0])).astype(np.int64)
    return int(np.sum(lengths * (lengths - 1) // 2))


def _pearson_sums(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """The cross sum and the root of the two squared sums of the centred sides."""
    # np.sum, not np.dot: BLAS's summation order depends on its thread count
    with np.errstate(over="ignore", invalid="ignore"):
        xc = x - x.mean()
        yc = y - y.mean()
        cross = float(np.sum(xc * yc))
        sxx, syy = float(np.sum(xc * xc)), float(np.sum(yc * yc))
    product = sxx * syy
    # finite sums whose product overflows: the product of their roots
    denom = math.sqrt(product) if math.isfinite(product) else math.sqrt(sxx) * math.sqrt(syy)
    return cross, denom


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    if np.all(x == x[0]):
        raise UndefinedCorrelationError("pearson undefined: x side is constant")
    if np.all(y == y[0]):
        raise UndefinedCorrelationError("pearson undefined: y side is constant")
    cross, denom = _pearson_sums(x, y)
    defined = math.isfinite(cross) and math.isfinite(denom) and denom > 0.0
    if not defined and np.isfinite(x).all() and np.isfinite(y).all():
        # sums that over- or underflow: again over each side scaled exactly, by a
        # power of two, to a largest magnitude in [0.5, 1) (Blue 1978's scaled norm)
        cross, denom = _pearson_sums(*(np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (x, y)))
    if not (math.isfinite(cross) and math.isfinite(denom)):
        raise UndefinedCorrelationError("pearson undefined: its sums are not finite")
    if denom == 0.0:
        raise UndefinedCorrelationError("pearson undefined: zero variance")
    return min(1.0, max(-1.0, cross / denom))


def _kendall_tau_b(x: np.ndarray, y: np.ndarray) -> float:
    n = x.shape[0]
    order = np.lexsort((y, x))  # by x, then y within equal x
    xs = x[order]
    ys = y[order]
    n0 = n * (n - 1) // 2
    x_new = np.concatenate(([True], xs[1:] != xs[:-1]))
    joint_new = x_new | np.concatenate(([True], ys[1:] != ys[:-1]))
    n1 = _tie_pairs(x_new)  # pairs tied in x
    n3 = _tie_pairs(joint_new)  # pairs tied in both
    y_sorted = np.sort(y)
    n2 = _tie_pairs(np.concatenate(([True], y_sorted[1:] != y_sorted[:-1])))
    if n1 == n0:
        raise UndefinedCorrelationError("kendall undefined: x side is all tied")
    if n2 == n0:
        raise UndefinedCorrelationError("kendall undefined: y side is all tied")
    # after the lexsort, every y-inversion crosses two distinct x
    # values, so the inversion count is exactly the discordant count
    discordant = count_inversions(ys)
    numerator = n0 - n1 - n2 + n3 - 2 * discordant
    denominator = math.sqrt(float(n0 - n1) * float(n0 - n2))
    return min(1.0, max(-1.0, numerator / denominator))


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    if np.all(x == x[0]):
        raise UndefinedCorrelationError("spearman undefined: x side is all tied")
    if np.all(y == y[0]):
        raise UndefinedCorrelationError("spearman undefined: y side is all tied")
    return _pearson(average_ranks(x), average_ranks(y))


def correlate(method: str, x, y) -> float:
    """Correlation coefficient of two vectors after pairwise deletion.

    ``method`` is one of ``pearson``, ``kendall``, ``spearman``.
    Raises UndefinedCorrelationError when fewer than two pairs remain
    or the surviving data cannot support the method (constant side for
    pearson, all-tied side for the rank methods).
    """
    if method not in METHODS:
        raise ChainlensError(f"unknown correlation method {method!r}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ChainlensError(
            f"correlate needs two equal-length vectors, got {x.shape} and {y.shape}"
        )
    mask = ~np.isnan(x) & ~np.isnan(y)
    xs = x[mask]
    ys = y[mask]
    if xs.shape[0] < 2:
        raise UndefinedCorrelationError(
            f"only {xs.shape[0]} pairwise-present pair(s); need at least 2"
        )
    if method == "pearson":
        return _pearson(xs, ys)
    if method == "spearman":
        return _spearman(xs, ys)
    return _kendall_tau_b(xs, ys)


@dataclass(frozen=True)
class PairCorrelation:
    """One report cell: a coefficient (absent when undefined) with its
    effective sample size and interpretation label."""

    var_a: str
    var_b: str
    method: str
    coefficient: float | None
    n: int
    label: str | None


def _pair(var_a: str, var_b: str, method: str, x, y) -> PairCorrelation:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = int(np.sum(~np.isnan(x) & ~np.isnan(y)))
    try:
        coefficient = correlate(method, x, y)
        label = str(interpret(coefficient))
    except UndefinedCorrelationError:
        coefficient = None
        label = None
    return PairCorrelation(var_a, var_b, method, coefficient, n, label)


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """Symmetric coefficient matrix with per-cell sample sizes.

    Undefined cells hold NaN in ``coefficients`` and None in
    ``labels``; the diagonal is 1 wherever the variable is nonconstant.
    """

    method: str
    variables: tuple[str, ...]
    coefficients: np.ndarray
    sample_sizes: np.ndarray
    labels: tuple[tuple[str | None, ...], ...]

    def cell(self, var_a: str, var_b: str) -> PairCorrelation:
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

    def pairs(self) -> list[PairCorrelation]:
        """Upper-triangle cells (diagonal excluded), row-major."""
        out = []
        for i, a in enumerate(self.variables):
            for b in self.variables[i + 1 :]:
                out.append(self.cell(a, b))
        return out

    def as_dict(self) -> dict:
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


def correlation_matrix(
    method: str, table: FeatureTable, columns: Sequence[str]
) -> CorrelationReport:
    """All pairwise coefficients among the named columns.

    Each cell is computed independently with pairwise deletion, so one
    undefined pair never poisons the rest of the matrix.
    """
    names = tuple(columns)
    if len(names) < 2:
        raise ChainlensError("correlation_matrix needs at least 2 columns")
    k = len(names)
    coefficients = np.full((k, k), np.nan, dtype=np.float64)
    sizes = np.zeros((k, k), dtype=np.int64)
    labels: list[list[str | None]] = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            cell = _pair(
                names[i], names[j], method, table.column(names[i]), table.column(names[j])
            )
            value = np.nan if cell.coefficient is None else cell.coefficient
            coefficients[i, j] = coefficients[j, i] = value
            sizes[i, j] = sizes[j, i] = cell.n
            labels[i][j] = labels[j][i] = cell.label
    coefficients.flags.writeable = False
    sizes.flags.writeable = False
    return CorrelationReport(
        method=method,
        variables=names,
        coefficients=coefficients,
        sample_sizes=sizes,
        labels=tuple(tuple(row) for row in labels),
    )


@dataclass(frozen=True)
class PriceFactorReport:
    """Three views of price-vs-parameter association:

    ``pooled``     row-level price against each factor, every method;
    ``aggregate``  per-coin mean/std of price against mean/std of the
                   other parameters, every method;
    ``matrix``     full pairwise rank-correlation matrix among the six
                   market variables.
    """

    pooled: tuple[PairCorrelation, ...]
    aggregate: tuple[PairCorrelation, ...]
    matrix: CorrelationReport

    def as_dict(self) -> dict:
        return {
            "pooled": [asdict(p) for p in self.pooled],
            "aggregate": [asdict(p) for p in self.aggregate],
            "matrix": self.matrix.as_dict(),
        }


def price_factor_report(
    dataset: Dataset,
    date_range: tuple[dt.date | None, dt.date | None] | None = None,
) -> PriceFactorReport:
    table = row_feature_table(dataset, NUMERIC_COLUMNS + ("ptsc",), date_range)
    pooled = tuple(
        _pair("price", factor, method, table.column("price"), table.column(factor))
        for method in METHODS
        for factor in PRICE_FACTORS
    )

    # per coin, each column's (means, stds)
    stats = aggregate_stats(dataset, ("price",) + AGGREGATE_FACTORS, date_range)
    aggregate = tuple(
        _pair(f"{base}_price", f"{which}_{factor}", method, price_stat, factor_stat)
        for method in METHODS
        for base, price_stat in zip(("mean", "std"), stats["price"])
        for factor in AGGREGATE_FACTORS
        for which, factor_stat in zip(("mean", "std"), stats[factor])
    )

    matrix = correlation_matrix("spearman", table, MATRIX_VARIABLES)
    return PriceFactorReport(pooled=pooled, aggregate=aggregate, matrix=matrix)
