"""Synthetic market-history generator with planted structure.

Real exchange listings are proprietary, so every end-to-end demo and
fixture in this package runs on generated data. The generator plants
structure exactly rather than sampling it:

* the disappeared share of coins is an exact count, not an expectation;
* optional lifetime-bucket shares (under 80 days, under 365 days,
  survivors past 1000 days) are exact counts as well;
* price can be coupled to total supply with tunable strength, where
  strength 1 means a perfect inverse monotone relation;
* coins fall into ``planted_clusters`` blobs across the clustering
  feature columns, so the elbow heuristic has a recoverable answer.

Every requested fraction must resolve to a whole number of coins;
anything else raises InfeasibleSpecError rather than silently rounding.

One lifetime plan turns the fractions into coins: a random permutation
orders the coins, the first ``disappeared_count`` of them disappear,
and the plan gives each of those, in that order, the ``[lo, hi)`` range
its lifetime in days is drawn from: ``[0, 80)``, then ``[80, 365)``,
then ``[365, horizon)`` for the bucket counts, or ``[0, horizon)`` for
every one when no bucket is set (ranges are capped at the horizon). The
next ``surviving_gt_1000`` coins of the order are the survivors that
outlive 1000 days. Spec validation rejects a plan with an empty range,
and the generator draws from the same plan.

Surviving coins all hold their last row on the spec's end day, so the
default cutoff (the dataset's maximum date) reproduces the planted
disappearance split whenever at least one coin survives. A spec that
makes every coin disappear needs the cutoff passed explicitly as
``spec.end_day`` when analyzing the result.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import InfeasibleSpecError


@dataclass(frozen=True)
class SyntheticSpec:
    """Declarative description of one generated dataset.

    The three lifetime-bucket fractions are measured the same way the
    survival summary reports them: the first two against the
    disappeared population (cumulative, so the under-365 share includes
    the under-80 share), the third against the survivors. Leaving a
    fraction as None samples that part of the lifetime law uniformly.
    """

    n_coins: int
    disappeared_fraction: float = 0.0
    disappeared_lt_80_fraction: float | None = None
    disappeared_lt_365_fraction: float | None = None
    surviving_gt_1000_fraction: float | None = None
    price_supply_coupling: float = 0.0
    planted_clusters: int = 1
    snapshot_interval_days: int = 7
    missing_max_supply_rate: float = 0.0
    include_extended_columns: bool = True
    start_day: dt.date = dt.date(2017, 1, 1)
    horizon_days: int = 1460
    seed: int = 0

    def __post_init__(self):
        for name in ("n_coins", "planted_clusters", "snapshot_interval_days", "horizon_days"):
            if getattr(self, name) < 1:
                raise InfeasibleSpecError(f"{name} must be at least 1")
        if self.planted_clusters > self.n_coins:
            raise InfeasibleSpecError(
                f"cannot plant {self.planted_clusters} clusters in {self.n_coins} coins"
            )
        for name in (
            "disappeared_fraction",
            "disappeared_lt_80_fraction",
            "disappeared_lt_365_fraction",
            "surviving_gt_1000_fraction",
            "missing_max_supply_rate",
            "price_supply_coupling",
        ):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise InfeasibleSpecError(f"{name} must be in [0, 1], got {value}")
        ranges, long_survivors = self._lifetime_plan()
        for lo, hi in ranges:
            if lo >= hi:
                raise InfeasibleSpecError(
                    f"planting lifetimes of {lo}+ days needs horizon_days >= {lo + 1}"
                )
        if long_survivors and self.horizon_days < 1001:
            raise InfeasibleSpecError(
                "planting survivor lifetimes over 1000 days needs horizon_days >= 1001"
            )

    @property
    def end_day(self) -> dt.date:
        return self.start_day + dt.timedelta(days=self.horizon_days)

    @property
    def disappeared_count(self) -> int:
        return self._count("disappeared_fraction", self.n_coins)

    def _count(self, name: str, base: int) -> int | None:
        """The fraction ``name`` of ``base`` coins, None when it is unset;
        InfeasibleSpecError unless it is a whole number of coins."""
        fraction = getattr(self, name)
        if fraction is None:
            return None
        value = fraction * base
        count = round(value)
        if abs(value - count) > 1e-9:
            raise InfeasibleSpecError(
                f"{name} {fraction} of {base} is not a whole number of coins ({value})"
            )
        return int(count)

    def _lifetime_plan(self) -> tuple[list[tuple[int, int]], int | None]:
        """For each disappeared coin in draw order, the ``[lo, hi)`` range
        its lifetime is drawn from; and how many survivors outlive 1000
        days, None when ``surviving_gt_1000_fraction`` is unset. Raises
        InfeasibleSpecError when a fraction misses a whole number of
        coins or the under-365 count is below the under-80 count."""
        disappeared = self.disappeared_count
        lt80 = self._count("disappeared_lt_80_fraction", disappeared)
        lt365 = self._count("disappeared_lt_365_fraction", disappeared)
        gt1000 = self._count("surviving_gt_1000_fraction", self.n_coins - disappeared)
        horizon = self.horizon_days
        if lt80 is None and lt365 is None:
            return [(0, horizon)] * disappeared, gt1000
        cut80 = lt80 or 0
        cut365 = disappeared if lt365 is None else lt365
        if cut365 < cut80:
            raise InfeasibleSpecError(
                "disappeared_lt_365_fraction is cumulative and cannot be below "
                "disappeared_lt_80_fraction"
            )
        return (
            [(0, min(80, horizon))] * cut80
            + [(80, min(365, horizon))] * (cut365 - cut80)
            + [(365, horizon)] * (disappeared - cut365)
        ), gt1000


def _blob_center(lo: float, hi: float, blob: int, k: int) -> float:
    if k == 1:
        return (lo + hi) / 2.0
    return lo + (hi - lo) * blob / (k - 1)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Build a dataset honoring every planted property of the spec.

    Deterministic per seed: identical specs produce identical datasets.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_coins
    k = spec.planted_clusters
    horizon = spec.horizon_days
    coupling = spec.price_supply_coupling

    # each coin's place in the draw order the lifetime plan follows
    place = np.argsort(rng.permutation(n))
    ranges, long_survivors = spec._lifetime_plan()
    codes, days = [], []
    columns: dict[str, list[np.ndarray]] = {}
    for i in range(n):
        blob = i % k
        rank = int(place[i])
        if rank < len(ranges):
            lifetime = int(rng.integers(*ranges[rank]))
            first_off = int(rng.integers(0, horizon - lifetime))
        elif long_survivors is None:
            # no survivor structure requested: full-span panel, which
            # keeps every calendar day fully populated
            lifetime = horizon
            first_off = 0
        elif rank < len(ranges) + long_survivors:
            first_off = int(rng.integers(0, horizon - 1000))
            lifetime = horizon - first_off
        else:
            first_off = int(rng.integers(max(0, horizon - 1000), horizon + 1))
            lifetime = horizon - first_off

        offsets = np.arange(0, lifetime + 1, spec.snapshot_interval_days)
        if offsets[-1] != lifetime:
            offsets = np.append(offsets, lifetime)
        t = offsets.shape[0]

        total_center = _blob_center(1e6, 1e7, blob, k)
        total = np.maximum(total_center * (1.0 + 0.02 * rng.standard_normal(t)), 1.0)
        ptsc = np.clip(
            _blob_center(0.15, 0.90, blob, k) + 0.01 * rng.standard_normal(t),
            0.01,
            1.0,
        )
        circulating = ptsc * total
        # coupling 1 collapses the noise term exactly, leaving a strict
        # inverse monotone map from total supply to price
        price = (1e6 / total) ** coupling * np.exp(
            (1.0 - coupling) * rng.standard_normal(t)
        )
        volume = _blob_center(1e4, 1e6, blob, k) * np.exp(
            0.05 * rng.standard_normal(t)
        )
        pairs = np.maximum(
            np.round(_blob_center(2.0, 100.0, blob, k) + 2.0 * rng.standard_normal(t)),
            1.0,
        )
        has_cap = float(rng.random()) >= spec.missing_max_supply_rate
        coin = {
            "price": price,
            "max_supply": np.full(t, total_center * 1.5 if has_cap else np.nan),
            "total_supply": total,
            "circulating_supply": circulating,
            "volume_24h": volume,
            "market_cap": price * circulating,
            "num_market_pairs": pairs,
        }
        if spec.include_extended_columns:
            coin["total_value_locked"] = _blob_center(1e5, 1e7, blob, k) * np.exp(
                0.05 * rng.standard_normal(t)
            )
            coin["staking_reward"] = np.maximum(
                _blob_center(0.5, 20.0, blob, k) + 0.2 * rng.standard_normal(t),
                0.01,
            )
            coin["total_staking_percentage"] = np.clip(
                _blob_center(0.05, 0.85, blob, k) + 0.01 * rng.standard_normal(t),
                0.0,
                1.0,
            )
            coin["whales_percentage"] = np.clip(
                _blob_center(0.10, 0.80, blob, k) + 0.01 * rng.standard_normal(t),
                0.0,
                1.0,
            )
        for name, values in coin.items():
            columns.setdefault(name, []).append(values)
        codes.append(np.full(t, i, dtype=np.int64))
        days.append(spec.start_day.toordinal() + first_off + offsets)
    return Dataset(
        [f"S{i:05d}_coin{i:05d}" for i in range(n)],
        np.concatenate(codes),
        np.concatenate(days),
        {name: np.concatenate(parts) for name, parts in columns.items()},
    )
