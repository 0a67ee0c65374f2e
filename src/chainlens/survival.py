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
from typing import Sequence

from .dataset import Dataset
from .errors import ChainlensError

# the Pareto chart's bucket width, in days of lifetime
PARETO_BUCKET_DAYS = 80


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


def lifetimes(dataset: Dataset, cutoff: dt.date | None = None) -> list[LifetimeRecord]:
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


def survival_summary(records: Sequence[LifetimeRecord]) -> SurvivalSummary:
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


def pareto(records: Sequence[LifetimeRecord]) -> tuple[ParetoBucket, ...]:
    """Bucket the disappeared coins' lifetimes, order by descending
    count, accumulate percent.

    Ties in count break toward the earlier bucket so the ordering is
    deterministic. No disappeared coin yields no buckets.
    """
    counts: dict[int, int] = {}
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
