"""Imputation, normalization, and derived features.

Conventions used throughout this module (and everywhere downstream):

* Absent values are NaN inside numeric arrays; a presence mask is
  always derivable as ``~isnan``.
* Standard deviation is the population form (divide by n). This one
  convention is used both by the mean normalizer and by per-coin
  aggregate statistics.
* Imputation order matters: ``impute_max_supply`` runs before
  ``impute_mean`` so its large sentinel values never contaminate a
  column mean.
* Correlation analysis never sees imputed values; it deletes absent
  entries pairwise instead (see the correlation module).
* ``ptsc`` (circulating over total supply) is read by name like a
  panel column; :func:`feature_values` derives it for every stage.
* Results stay columns: a :class:`FeatureTable` names its rows by their
  panel positions, and :func:`aggregate_stats` gives each per-coin
  statistic as one array over the coins.
"""

from __future__ import annotations

import datetime as dt
import math
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import Dataset
from .errors import ChainlensError


class FeatureTable(NamedTuple):
    """Each row's position in the panel it came from (``rows``, int64)
    and one float64 array per named column over those rows, NaN marking
    absence. Transforms return a new table and leave their input unchanged."""

    rows: np.ndarray
    columns: dict[str, np.ndarray]


def derive_ptsc(circulating_supply, total_supply) -> np.ndarray:
    """Public token supply coverage: circulating over total supply.

    Absent (NaN) wherever total supply is absent or not positive, or
    the ratio overflows (a tiny positive total). Ratios above 1 (dirty
    data, which ``Dataset.build`` already flags) are kept; dropping
    them would bias any downstream survival statistic.
    """
    circ = np.asarray(circulating_supply, dtype=np.float64)
    tot = np.asarray(total_supply, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = circ / tot
    return np.where((tot > 0) & np.isfinite(ratio), ratio, np.nan)


def feature_values(dataset: Dataset, name: str, rows) -> np.ndarray:
    """One feature over the given rows: a panel column, or ``ptsc``
    derived from the two supply columns. Raises KeyError for any other
    name."""
    if name == "ptsc":
        return derive_ptsc(
            dataset.column("circulating_supply")[rows],
            dataset.column("total_supply")[rows],
        )
    return dataset.column(name)[rows]


def impute_mean(table: FeatureTable, columns: Sequence[str]) -> FeatureTable:
    """Replace absent cells with the pre-imputation column mean.

    Idempotent, and the column mean is unchanged by the pass. A column
    with no present values cannot define a mean and is an error.
    """
    replacements = {}
    for name in columns:
        col = table.columns[name]
        mask = ~np.isnan(col)
        if not mask.any():
            raise ChainlensError(
                f"cannot mean-impute column {name!r}: no present values"
            )
        if mask.all():
            continue
        filled = col.copy()
        filled[~mask] = col[mask].mean()
        replacements[name] = filled
    if not replacements:
        return table
    return table._replace(columns={**table.columns, **replacements})


def impute_max_supply(table: FeatureTable) -> FeatureTable:
    """Fill absent max_supply with 1000x the column's present maximum.

    The multiplier deliberately overshoots: a coin that never declared
    a supply cap behaves like one with an effectively unlimited cap,
    and a mean fill would instead make it look typical.
    """
    col = table.columns["max_supply"]
    mask = ~np.isnan(col)
    if not mask.any():
        raise ChainlensError(
            "cannot impute column 'max_supply': no present values"
        )
    if mask.all():
        return table
    top = float(col[mask].max())  # a Python float overflows to inf without a warning
    if math.isinf(top * 1000.0):
        raise ChainlensError(f"cannot impute column 'max_supply': 1000x its max {top} overflows")
    filled = col.copy()
    filled[~mask] = top * 1000.0
    return table._replace(columns={**table.columns, "max_supply": filled})


def mean_normalize(column: np.ndarray) -> np.ndarray:
    """Center and scale to mean 0, population std 1."""
    col = np.asarray(column, dtype=np.float64)
    if col.ndim != 1 or col.shape[0] < 2:
        raise ChainlensError("mean_normalize needs a 1-d column of length >= 2")
    if np.isnan(col).any():
        raise ChainlensError("mean_normalize requires a fully present column")
    std = col.std()  # population (divide by n)
    # a constant column's std can round above 0, so test equality too
    if std == 0 or np.all(col == col[0]):
        raise ChainlensError("cannot mean-normalize a constant column")
    out = (col - col.mean()) / std
    # one polish pass: an exact-arithmetic no-op that mops up float
    # cancellation so the mean-0 / std-1 postcondition holds tightly
    # even for near-constant columns at large magnitude
    out = out - out.mean()
    return out / out.std()


def max_normalize(column: np.ndarray) -> np.ndarray:
    """Scale so the column maximum is exactly 1."""
    col = np.asarray(column, dtype=np.float64)
    if col.ndim != 1 or col.shape[0] == 0:
        raise ChainlensError("max_normalize needs a non-empty 1-d column")
    if np.isnan(col).any():
        raise ChainlensError("max_normalize requires a fully present column")
    top = col.max()
    if top <= 0:
        raise ChainlensError(f"cannot max-normalize: column max is {top}")
    with np.errstate(over="ignore"):
        out = col / top
    if not np.isfinite(out).all():
        raise ChainlensError(f"cannot max-normalize: dividing by max {top} overflows")
    return out


def aggregate_stats(
    dataset: Dataset,
    columns: Sequence[str],
    date_range: tuple[dt.date | None, dt.date | None] | None = None,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-coin mean and population std of each of ``columns`` (panel
    columns or ``ptsc``, as in :func:`feature_values`).

    Each column maps to a (means, stds) pair of arrays in
    ``dataset.keys`` order. ``date_range`` is an inclusive (start, end)
    pair; either side may be None for open-ended. Statistics use the
    present values in range only: a coin with none gets NaN for both,
    a coin with one gets NaN for its std. Both stay finite where the
    values are (:func:`_finite_stat`).
    """
    in_range = dataset.in_range(date_range)
    offsets = dataset.offsets
    n_coins = len(dataset.keys)
    out = {}
    for name in columns:
        values = feature_values(dataset, name, slice(None))
        keep = in_range & ~np.isnan(values)
        means = np.full(n_coins, np.nan)
        stds = np.full(n_coins, np.nan)
        with np.errstate(over="ignore"):
            for index in range(n_coins):
                rows = slice(offsets[index], offsets[index + 1])
                present = values[rows][keep[rows]]
                if present.shape[0] >= 1:
                    means[index] = _finite_stat(present, np.mean)
                if present.shape[0] >= 2:
                    stds[index] = _finite_stat(present, np.std)
        out[name] = (means, stds)
    return out


def _finite_stat(present: np.ndarray, stat) -> float:
    """``stat`` (``np.mean`` or ``np.std``) of the finite ``present``.
    Where a sum or a square overflows, it is taken over the values
    divided by their largest magnitude and scaled back."""
    value = stat(present)
    if math.isfinite(value):
        return value
    scale = np.abs(present).max()
    return scale * stat(present / scale)


def row_feature_table(
    dataset: Dataset,
    columns: Sequence[str],
    date_range: tuple[dt.date | None, dt.date | None] | None = None,
) -> FeatureTable:
    """One table row per panel row, in panel order.

    ``columns`` are panel columns or ``ptsc`` (:func:`feature_values`).
    ``date_range`` keeps the rows inside an inclusive (start, end)
    pair, as in :func:`aggregate_stats`.
    """
    rows = np.flatnonzero(dataset.in_range(date_range))
    return FeatureTable(rows, {name: feature_values(dataset, name, rows) for name in columns})
