"""Planted-structure guarantees of the synthetic generator."""

import datetime as dt
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from chainlens.cli import GENERATE_DEFAULTS
from chainlens.clustering import cluster_report
from chainlens.correlation import correlate
from chainlens.dataset import parse_day, save_csv
from chainlens.errors import InfeasibleSpecError
from chainlens.survival import lifetimes, survival_summary
from chainlens.synthetic import SyntheticSpec, generate_synthetic

# sha256 of save_csv(generate_synthetic(spec)) for small specs covering
# every lifetime path; an intended change to the panels updates it too
GOLDEN_PANELS = json.loads(
    (Path(__file__).parent / "fixtures" / "synthetic_sha256.json").read_text(
        encoding="utf-8"
    )
)


class TestSpecValidation:
    def test_fraction_must_give_whole_coins(self):
        with pytest.raises(InfeasibleSpecError):
            SyntheticSpec(n_coins=1, disappeared_fraction=0.5)
        with pytest.raises(InfeasibleSpecError):
            SyntheticSpec(n_coins=10, disappeared_fraction=0.39)

    def test_single_coin_allows_all_or_nothing(self):
        assert SyntheticSpec(n_coins=1, disappeared_fraction=0.0).disappeared_count == 0
        assert SyntheticSpec(n_coins=1, disappeared_fraction=1.0).disappeared_count == 1

    def test_bucket_fractions_must_give_whole_coins(self):
        with pytest.raises(InfeasibleSpecError):
            SyntheticSpec(
                n_coins=100,
                disappeared_fraction=0.39,
                disappeared_lt_80_fraction=0.40,  # 15.6 coins
            )

    def test_cumulative_bucket_ordering(self):
        with pytest.raises(InfeasibleSpecError):
            SyntheticSpec(
                n_coins=100,
                disappeared_fraction=0.5,
                disappeared_lt_80_fraction=0.8,
                disappeared_lt_365_fraction=0.5,
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_coins=0),
            dict(n_coins=10, disappeared_fraction=-0.1),
            dict(n_coins=10, disappeared_fraction=1.5),
            dict(n_coins=10, planted_clusters=0),
            dict(n_coins=3, planted_clusters=4),
            dict(n_coins=10, snapshot_interval_days=0),
            dict(n_coins=10, horizon_days=0),
            dict(n_coins=10, price_supply_coupling=1.2),
            dict(n_coins=10, missing_max_supply_rate=2.0),
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(InfeasibleSpecError):
            SyntheticSpec(**kwargs)

    def test_horizon_too_short_for_planted_lifetimes(self):
        with pytest.raises(InfeasibleSpecError):
            SyntheticSpec(
                n_coins=10,
                disappeared_fraction=0.5,
                disappeared_lt_365_fraction=0.2,
                horizon_days=300,  # needs 366 for the 365+ remainder
            )
        with pytest.raises(InfeasibleSpecError):
            SyntheticSpec(
                n_coins=10,
                disappeared_fraction=0.5,
                surviving_gt_1000_fraction=0.2,
                horizon_days=900,
            )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (
                dict(
                    n_coins=100,
                    disappeared_fraction=0.5,
                    disappeared_lt_80_fraction=0.8,
                    disappeared_lt_365_fraction=0.5,
                ),
                "disappeared_lt_365_fraction is cumulative and cannot be below "
                "disappeared_lt_80_fraction",
            ),
            (
                dict(
                    n_coins=10,
                    disappeared_fraction=0.5,
                    disappeared_lt_80_fraction=0.4,
                    horizon_days=80,
                ),
                "planting lifetimes of 80+ days needs horizon_days >= 81",
            ),
            (
                dict(
                    n_coins=10,
                    disappeared_fraction=0.5,
                    disappeared_lt_365_fraction=0.2,
                    horizon_days=300,
                ),
                "planting lifetimes of 365+ days needs horizon_days >= 366",
            ),
            (
                dict(
                    n_coins=10,
                    disappeared_fraction=0.5,
                    disappeared_lt_80_fraction=0.2,
                    disappeared_lt_365_fraction=0.2,
                    horizon_days=365,
                ),
                "planting lifetimes of 365+ days needs horizon_days >= 366",
            ),
            (
                dict(
                    n_coins=10,
                    disappeared_fraction=0.5,
                    surviving_gt_1000_fraction=0.2,
                    horizon_days=1000,
                ),
                "planting survivor lifetimes over 1000 days needs horizon_days >= 1001",
            ),
            (
                dict(
                    n_coins=10,
                    disappeared_fraction=0.5,
                    disappeared_lt_80_fraction=0.4,
                    surviving_gt_1000_fraction=0.3,
                ),
                "surviving_gt_1000_fraction 0.3 of 5 is not a whole number of coins"
                " (1.5)",
            ),
            (
                # of two fractions that miss a whole count, the bucket
                # fraction is named first
                dict(
                    n_coins=10,
                    disappeared_fraction=0.5,
                    disappeared_lt_80_fraction=0.5,
                    surviving_gt_1000_fraction=0.3,
                ),
                "disappeared_lt_80_fraction 0.5 of 5 is not a whole number of coins"
                " (2.5)",
            ),
            (
                dict(n_coins=10, price_supply_coupling=-0.5),
                "price_supply_coupling must be in [0, 1], got -0.5",
            ),
        ],
    )
    def test_rejection_messages(self, kwargs, message):
        with pytest.raises(InfeasibleSpecError) as caught:
            SyntheticSpec(**kwargs)
        assert str(caught.value) == message

    def test_end_day(self):
        spec = SyntheticSpec(n_coins=1, start_day=dt.date(2020, 1, 1), horizon_days=10)
        assert spec.end_day == dt.date(2020, 1, 11)


class TestDisappearancePlanting:
    def test_exactly_39_of_100(self):
        ds = generate_synthetic(
            SyntheticSpec(n_coins=100, disappeared_fraction=0.39, seed=5)
        )
        records = lifetimes(ds)
        assert sum(r.disappeared for r in records) == 39

    def test_survivors_share_the_end_day(self):
        spec = SyntheticSpec(n_coins=40, disappeared_fraction=0.25, seed=2)
        ds = generate_synthetic(spec)
        for record in lifetimes(ds):
            if record.disappeared:
                assert record.last_day < spec.end_day
            else:
                assert record.last_day == spec.end_day

    def test_planted_lifetime_buckets_recovered_exactly(self):
        spec = SyntheticSpec(
            n_coins=2000,
            disappeared_fraction=0.39,
            disappeared_lt_80_fraction=0.40,
            disappeared_lt_365_fraction=0.75,
            surviving_gt_1000_fraction=0.10,
            snapshot_interval_days=400,
            seed=8,
        )
        summary = survival_summary(lifetimes(generate_synthetic(spec)))
        assert summary.total == 2000
        assert summary.disappeared_count == 780
        assert summary.disappeared_fraction == 0.39
        assert summary.disappeared_lt_80_days == 0.40
        assert summary.disappeared_lt_365_days == 0.75
        assert summary.surviving_gt_1000_days == 0.10


class TestGoldenPanels:
    def test_defaults_case_is_the_demo_spec(self):
        assert GOLDEN_PANELS["generate_defaults_seed_7"]["spec"] == {
            **GENERATE_DEFAULTS,
            "seed": 7,
        }

    @pytest.mark.parametrize("name", sorted(GOLDEN_PANELS))
    def test_panel_bytes_match_golden_digest(self, name, tmp_path):
        settings = dict(GOLDEN_PANELS[name]["spec"])
        if "start_day" in settings:
            settings["start_day"] = parse_day(settings["start_day"])
        path = tmp_path / "dataset.csv"
        save_csv(generate_synthetic(SyntheticSpec(**settings)), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_PANELS[name]["sha256"]


class TestFeatureLaws:
    def test_full_coupling_gives_perfect_inverse_spearman(self):
        ds = generate_synthetic(
            SyntheticSpec(n_coins=30, price_supply_coupling=1.0, seed=3)
        )
        price = ds.column("price")
        total = ds.column("total_supply")
        assert correlate("spearman", price, total) == -1.0

    def test_zero_coupling_is_near_independent(self):
        ds = generate_synthetic(
            SyntheticSpec(n_coins=60, price_supply_coupling=0.0, seed=4)
        )
        price = ds.column("price")
        total = ds.column("total_supply")
        assert abs(correlate("spearman", price, total)) < 0.1

    def test_missing_rate_controls_max_supply(self):
        none_missing = generate_synthetic(SyntheticSpec(n_coins=20, seed=1))
        assert not np.any(np.isnan(none_missing.column("max_supply")))
        all_missing = generate_synthetic(
            SyntheticSpec(n_coins=20, missing_max_supply_rate=1.0, seed=1)
        )
        assert np.all(np.isnan(all_missing.column("max_supply")))

    def test_extended_columns_toggle(self):
        with_ext = generate_synthetic(SyntheticSpec(n_coins=5, seed=0))
        assert with_ext.has_extended_columns()
        without = generate_synthetic(
            SyntheticSpec(n_coins=5, include_extended_columns=False, seed=0)
        )
        assert not without.has_extended_columns()

    def test_percent_columns_stay_in_unit_range(self):
        ds = generate_synthetic(SyntheticSpec(n_coins=25, planted_clusters=5, seed=6))
        for snap in ds.snapshots:
            assert 0.0 <= snap.total_staking_percentage <= 1.0
            assert 0.0 <= snap.whales_percentage <= 1.0
            assert snap.circulating_supply <= snap.total_supply

    def test_snapshot_cadence(self):
        spec = SyntheticSpec(n_coins=3, snapshot_interval_days=10, seed=7)
        ds = generate_synthetic(spec)
        for start, end in zip(ds.offsets[:-1], ds.offsets[1:]):
            days = [s.date for s in ds.snapshots[start:end]]
            gaps = [(b - a).days for a, b in zip(days, days[1:])]
            assert all(g == 10 for g in gaps[:-1])
            assert gaps[-1] <= 10


class TestPlantedClusters:
    def test_elbow_recovers_five_blobs_across_seeds(self):
        hits = 0
        for seed in range(10):
            ds = generate_synthetic(
                SyntheticSpec(
                    n_coins=100,
                    planted_clusters=5,
                    snapshot_interval_days=365,
                    horizon_days=730,
                    seed=seed,
                )
            )
            report = cluster_report(ds, ds.date_range[1], k=None, seed=seed)
            hits += report.elbow_curve.chosen_k == 5
        assert hits >= 9


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        spec = SyntheticSpec(n_coins=15, disappeared_fraction=0.2, seed=9)
        assert generate_synthetic(spec) == generate_synthetic(spec)

    def test_different_seed_differs(self):
        a = generate_synthetic(SyntheticSpec(n_coins=15, seed=0))
        b = generate_synthetic(SyntheticSpec(n_coins=15, seed=1))
        assert a != b
