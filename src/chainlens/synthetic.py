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


def _exact_count(fraction: float, base: int, what: str) -> int:
    value = fraction * base
    count = round(value)
    if abs(value - count) > 1e-9:
        raise InfeasibleSpecError(
            f"{what} {fraction} of {base} is not a whole number of coins ({value})"
        )
    return int(count)


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
        if self.n_coins < 1:
            raise InfeasibleSpecError("n_coins must be at least 1")
        if self.planted_clusters < 1:
            raise InfeasibleSpecError("planted_clusters must be at least 1")
        if self.planted_clusters > self.n_coins:
            raise InfeasibleSpecError(
                f"cannot plant {self.planted_clusters} clusters in {self.n_coins} coins"
            )
        if self.snapshot_interval_days < 1:
            raise InfeasibleSpecError("snapshot_interval_days must be at least 1")
        if self.horizon_days < 1:
            raise InfeasibleSpecError("horizon_days must be at least 1")
        for name in (
            "disappeared_fraction",
            "disappeared_lt_80_fraction",
            "disappeared_lt_365_fraction",
            "surviving_gt_1000_fraction",
            "missing_max_supply_rate",
        ):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise InfeasibleSpecError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 <= self.price_supply_coupling <= 1.0:
            raise InfeasibleSpecError(
                f"price_supply_coupling must be in [0, 1], got {self.price_supply_coupling}"
            )
        # force every planted fraction to an exact coin count up front
        disappeared = self.disappeared_count
        lt80 = self.disappeared_lt_80_count
        lt365 = self.disappeared_lt_365_count
        gt1000 = self.surviving_gt_1000_count
        if lt80 is not None and lt365 is not None and lt365 < lt80:
            raise InfeasibleSpecError(
                "disappeared_lt_365_fraction is cumulative and cannot be below "
                "disappeared_lt_80_fraction"
            )
        # bucket lifetimes must fit strictly inside the horizon
        if lt80 is not None or lt365 is not None:
            cut80 = lt80 if lt80 is not None else 0
            cut365 = lt365 if lt365 is not None else disappeared
            if cut365 - cut80 > 0 and self.horizon_days < 81:
                raise InfeasibleSpecError(
                    "planting lifetimes of 80+ days needs horizon_days >= 81"
                )
            if disappeared - cut365 > 0 and self.horizon_days < 366:
                raise InfeasibleSpecError(
                    "planting lifetimes of 365+ days needs horizon_days >= 366"
                )
        if gt1000 is not None and gt1000 > 0 and self.horizon_days < 1001:
            raise InfeasibleSpecError(
                "planting survivor lifetimes over 1000 days needs horizon_days >= 1001"
            )

    @property
    def end_day(self) -> dt.date:
        return self.start_day + dt.timedelta(days=self.horizon_days)

    @property
    def disappeared_count(self) -> int:
        return _exact_count(
            self.disappeared_fraction, self.n_coins, "disappeared_fraction"
        )

    @property
    def surviving_count(self) -> int:
        return self.n_coins - self.disappeared_count

    @property
    def disappeared_lt_80_count(self) -> int | None:
        if self.disappeared_lt_80_fraction is None:
            return None
        return _exact_count(
            self.disappeared_lt_80_fraction,
            self.disappeared_count,
            "disappeared_lt_80_fraction",
        )

    @property
    def disappeared_lt_365_count(self) -> int | None:
        if self.disappeared_lt_365_fraction is None:
            return None
        return _exact_count(
            self.disappeared_lt_365_fraction,
            self.disappeared_count,
            "disappeared_lt_365_fraction",
        )

    @property
    def surviving_gt_1000_count(self) -> int | None:
        if self.surviving_gt_1000_fraction is None:
            return None
        return _exact_count(
            self.surviving_gt_1000_fraction,
            self.surviving_count,
            "surviving_gt_1000_fraction",
        )


def _blob_center(lo: float, hi: float, blob: int, k: int) -> float:
    if k == 1:
        return (lo + hi) / 2.0
    return lo + (hi - lo) * blob / (k - 1)


def _lifetime_for(bucket: str | None, horizon: int, rng) -> int:
    if bucket == "lt80":
        return int(rng.integers(0, min(80, horizon)))
    if bucket == "lt365":
        return int(rng.integers(80, min(365, horizon)))
    if bucket == "ge365":
        return int(rng.integers(365, horizon))
    return int(rng.integers(0, horizon))


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Build a dataset honoring every planted property of the spec.

    Deterministic per seed: identical specs produce identical datasets.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_coins
    k = spec.planted_clusters
    horizon = spec.horizon_days
    coupling = spec.price_supply_coupling

    order = rng.permutation(n)
    n_disappeared = spec.disappeared_count
    disappeared_ids = order[:n_disappeared]
    surviving_ids = order[n_disappeared:]

    bucket: dict[int, str | None] = {int(i): None for i in range(n)}
    lt80 = spec.disappeared_lt_80_count
    lt365 = spec.disappeared_lt_365_count
    if lt80 is not None or lt365 is not None:
        cut80 = lt80 if lt80 is not None else 0
        cut365 = lt365 if lt365 is not None else n_disappeared
        for pos, coin in enumerate(disappeared_ids):
            if pos < cut80:
                bucket[int(coin)] = "lt80"
            elif pos < cut365:
                bucket[int(coin)] = "lt365"
            else:
                bucket[int(coin)] = "ge365"
    long_survivors = set()
    gt1000 = spec.surviving_gt_1000_count
    if gt1000 is not None:
        long_survivors = {int(c) for c in surviving_ids[:gt1000]}

    disappeared_set = {int(c) for c in disappeared_ids}
    codes, days = [], []
    columns: dict[str, list[np.ndarray]] = {}
    for i in range(n):
        blob = i % k
        if i in disappeared_set:
            lifetime = _lifetime_for(bucket[i], horizon, rng)
            first_off = int(rng.integers(0, horizon - lifetime))
        elif gt1000 is None:
            # no survivor structure requested: full-span panel, which
            # keeps every calendar day fully populated
            lifetime = horizon
            first_off = 0
        elif i in long_survivors:
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
        market_cap = price * circulating
        has_cap = float(rng.random()) >= spec.missing_max_supply_rate
        max_supply = total_center * 1.5 if has_cap else np.nan

        if spec.include_extended_columns:
            tvl = _blob_center(1e5, 1e7, blob, k) * np.exp(
                0.05 * rng.standard_normal(t)
            )
            reward = np.maximum(
                _blob_center(0.5, 20.0, blob, k) + 0.2 * rng.standard_normal(t),
                0.01,
            )
            staking_pct = np.clip(
                _blob_center(0.05, 0.85, blob, k) + 0.01 * rng.standard_normal(t),
                0.0,
                1.0,
            )
            whales = np.clip(
                _blob_center(0.10, 0.80, blob, k) + 0.01 * rng.standard_normal(t),
                0.0,
                1.0,
            )
        coin = {
            "price": price,
            "max_supply": np.full(t, max_supply),
            "total_supply": total,
            "circulating_supply": circulating,
            "volume_24h": volume,
            "market_cap": market_cap,
            "num_market_pairs": pairs,
        }
        if spec.include_extended_columns:
            coin.update(
                total_value_locked=tvl,
                staking_reward=reward,
                total_staking_percentage=staking_pct,
                whales_percentage=whales,
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
