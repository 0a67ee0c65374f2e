"""Coin lifetimes, disappearance status, and Pareto-chart data.

A coin counts as disappeared when its last observed day is strictly
before the cutoff; a coin observed on the cutoff day itself is alive.
The cutoff is a parameter (default: the dataset's last observed day)
because listing feeds disagree about when a coin truly stopped
trading. Lifetime is whole calendar days between first and last
observation, so a single-day coin has lifetime 0. The Pareto chart
buckets the disappeared coins' lifetimes by ``PARETO_BUCKET_DAYS``.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset
from .errors import ChainlensError

# the Pareto chart's bucket width, in days of lifetime
PARETO_BUCKET_DAYS = 80


class Lifetimes(NamedTuple):
    """Per coin, in ``dataset.keys`` order: the ordinals of its first and
    last observed days, and whether it disappeared."""

    first_days: np.ndarray
    last_days: np.ndarray
    disappeared: np.ndarray

    @property
    def lifetime_days(self) -> np.ndarray:
        return self.last_days - self.first_days


@dataclass(frozen=True)
class ParetoBucket:
    start: int  # inclusive, in days
    end: int  # exclusive
    count: int
    cumulative_pct: float


@dataclass(frozen=True)
class SurvivalSummary:
    total: int
    disappeared_count: int
    disappeared_fraction: float
    # among disappeared coins (absent when none disappeared)
    disappeared_lt_80_days: float | None
    disappeared_lt_365_days: float | None
    # among surviving coins (absent when none survive)
    surviving_gt_1000_days: float | None


def lifetimes(dataset: Dataset, cutoff: dt.date | None = None) -> Lifetimes:
    """Each coin's first and last day; disappeared iff last day < cutoff."""
    last_days = dataset.days[dataset.last_rows()]
    # an empty panel has no cutoff to resolve, and no coin to compare with it
    cutoff = dataset.resolve_cutoff(cutoff).toordinal() if len(dataset) else 0
    return Lifetimes(dataset.days[dataset.offsets[:-1]], last_days, last_days < cutoff)


def survival_summary(coins: Lifetimes) -> SurvivalSummary:
    """Disappearance fraction plus the lifetime-threshold fractions."""
    if not coins.disappeared.size:
        raise ChainlensError("survival_summary needs at least one coin")
    gone = coins.lifetime_days[coins.disappeared]
    alive = coins.lifetime_days[~coins.disappeared]

    def fraction(hits: np.ndarray) -> float | None:
        return int(np.count_nonzero(hits)) / hits.size if hits.size else None

    return SurvivalSummary(
        total=coins.disappeared.size,
        disappeared_count=gone.size,
        disappeared_fraction=fraction(coins.disappeared),
        disappeared_lt_80_days=fraction(gone < 80),
        disappeared_lt_365_days=fraction(gone < 365),
        surviving_gt_1000_days=fraction(alive > 1000),
    )


def pareto(coins: Lifetimes) -> tuple[ParetoBucket, ...]:
    """Bucket the disappeared coins' lifetimes, order by descending
    count, accumulate percent.

    Ties in count break toward the earlier bucket so the ordering is
    deterministic. No disappeared coin yields no buckets.
    """
    life = coins.lifetime_days[coins.disappeared]
    starts, counts = np.unique(life // PARETO_BUCKET_DAYS * PARETO_BUCKET_DAYS, return_counts=True)
    order = np.argsort(-counts, kind="stable")  # equal counts keep ascending starts
    return tuple(
        ParetoBucket(start, start + PARETO_BUCKET_DAYS, count, 100.0 * running / life.size)
        for start, count, running in zip(
            starts[order].tolist(), counts[order].tolist(), np.cumsum(counts[order]).tolist()
        )
    )
