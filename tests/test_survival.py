"""Lifetime records, survival summaries, Pareto bucketing."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlens.cli import run
from chainlens.config import RunConfig
from chainlens.dataset import CoinSnapshot, Dataset, save_csv
from chainlens.errors import ChainlensError
from chainlens.survival import (
    PARETO_BUCKET_DAYS,
    LifetimeRecord,
    lifetimes,
    pareto,
    survival_summary,
)


def d(text):
    return dt.date.fromisoformat(text)


def record(key="X_X", first="2021-01-01", life=10, disappeared=True):
    first_day = d(first)
    last_day = first_day + dt.timedelta(days=life)
    return LifetimeRecord(
        key=key,
        first_day=first_day,
        last_day=last_day,
        lifetime_days=life,
        disappeared=disappeared,
    )


def span_dataset(key, first, last):
    return [
        CoinSnapshot(key, d(first)),
        CoinSnapshot(key, d(last)),
    ]


class TestLifetimes:
    def test_calendar_day_subtraction(self):
        ds = Dataset.build(span_dataset("A_A", "2021-01-01", "2021-03-01"))
        [rec] = lifetimes(ds, cutoff=d("2022-01-01"))
        assert rec.lifetime_days == 59
        assert rec.disappeared is True

    def test_last_day_equal_to_cutoff_is_alive(self):
        ds = Dataset.build(span_dataset("A_A", "2021-01-01", "2021-03-01"))
        [rec] = lifetimes(ds, cutoff=d("2021-03-01"))
        assert rec.disappeared is False

    def test_single_day_coin(self):
        ds = Dataset.build([CoinSnapshot("A_A", d("2021-05-05"))])
        [rec] = lifetimes(ds, cutoff=d("2021-06-01"))
        assert rec.lifetime_days == 0
        assert rec.first_day == rec.last_day

    def test_default_cutoff_is_last_observed_day(self):
        ds = Dataset.build(
            span_dataset("A_A", "2021-01-01", "2021-02-01")
            + span_dataset("B_B", "2021-01-01", "2021-06-01")
        )
        recs = {r.key: r for r in lifetimes(ds)}
        assert recs["A_A"].disappeared is True
        assert recs["B_B"].disappeared is False

    def test_cutoff_before_dataset_errors(self):
        ds = Dataset.build(span_dataset("A_A", "2021-01-01", "2021-02-01"))
        with pytest.raises(ChainlensError):
            lifetimes(ds, cutoff=d("2020-01-01"))

    def test_empty_dataset(self):
        assert lifetimes(Dataset.build([])) == []

    def test_record_invariant_enforced(self):
        with pytest.raises(ValueError):
            LifetimeRecord("X_X", d("2021-01-02"), d("2021-01-01"), -1, True)
        with pytest.raises(ValueError):
            LifetimeRecord("X_X", d("2021-01-01"), d("2021-01-03"), 5, True)


class TestSurvivalSummary:
    def test_planted_fraction(self):
        records = [record(key=f"C{i}_S{i}", disappeared=i < 39) for i in range(100)]
        summary = survival_summary(records)
        assert summary.disappeared_fraction == 0.39
        assert summary.disappeared_count == 39
        assert summary.total == 100

    def test_all_surviving_leaves_disappeared_stats_absent(self):
        records = [record(key=f"C{i}_S{i}", disappeared=False) for i in range(5)]
        summary = survival_summary(records)
        assert summary.disappeared_fraction == 0.0
        assert summary.disappeared_lt_80_days is None
        assert summary.disappeared_lt_365_days is None

    def test_threshold_fractions_are_strict(self):
        records = [
            record(key="A_A", life=79, disappeared=True),
            record(key="B_B", life=80, disappeared=True),
            record(key="C_C", life=364, disappeared=True),
            record(key="D_D", life=365, disappeared=True),
            record(key="E_E", life=1000, disappeared=False),
            record(key="F_F", life=1001, disappeared=False),
        ]
        summary = survival_summary(records)
        assert summary.disappeared_lt_80_days == 0.25
        assert summary.disappeared_lt_365_days == 0.75
        assert summary.surviving_gt_1000_days == 0.5

    def test_empty_list_errors(self):
        with pytest.raises(ChainlensError):
            survival_summary([])


class TestPareto:
    def test_hand_bucketing(self):
        records = [
            record(key="A_A", life=10),
            record(key="B_B", life=15),
            record(key="C_C", life=100),
        ]
        buckets = pareto(records)
        assert [(b.start, b.end, b.count) for b in buckets] == [
            (0, 80, 2),
            (80, 160, 1),
        ]
        assert buckets[0].cumulative_pct == pytest.approx(66.66666666666667)
        assert buckets[1].cumulative_pct == 100.0

    def test_single_record(self):
        buckets = pareto([record(life=5)])
        assert len(buckets) == 1
        assert buckets[0].cumulative_pct == 100.0

    def test_tie_broken_by_ascending_start(self):
        records = [
            record(key="A_A", life=90),
            record(key="B_B", life=95),
            record(key="C_C", life=10),
            record(key="D_D", life=15),
        ]
        assert [b.start for b in pareto(records)] == [0, 80]

    def test_no_disappeared_record_gives_no_buckets(self):
        assert pareto([record(disappeared=False)]) == ()

    def test_csv_shape(self, tmp_path):
        # the lifetimes stage's pareto.csv: lifetimes 10 and 100 disappeared
        snaps = (
            span_dataset("A_A", "2021-01-01", "2021-01-11")
            + span_dataset("B_B", "2021-01-01", "2021-04-11")
            + span_dataset("C_C", "2021-01-01", "2021-12-31")
        )
        save_csv(Dataset.build(snaps), tmp_path / "dataset.csv")
        run("lifetimes", RunConfig(out=str(tmp_path), format="csv"))
        lines = (tmp_path / "pareto.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "bucket_start,bucket_end,count,cumulative_pct"
        assert len(lines) == 3
        assert lines[1:] == ["0,80,1,50.0", "80,160,1,100.0"]


@settings(deadline=None, max_examples=100)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=3000), st.booleans()),
        min_size=1,
        max_size=80,
    ),
)
def test_property_pareto_invariants(rows):
    records = [
        record(key=f"C{i}_S{i}", life=life, disappeared=gone)
        for i, (life, gone) in enumerate(rows)
    ]
    buckets = pareto(records)
    assert sum(b.count for b in buckets) == sum(1 for _, gone in rows if gone)
    assert all(
        b.start % PARETO_BUCKET_DAYS == 0 and b.end == b.start + PARETO_BUCKET_DAYS
        for b in buckets
    )
    cps = [b.cumulative_pct for b in buckets]
    assert all(a <= b + 1e-9 for a, b in zip(cps, cps[1:]))
    if cps:
        assert abs(cps[-1] - 100.0) <= 1e-9
    counts = [b.count for b in buckets]
    assert counts == sorted(counts, reverse=True)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=500), st.booleans()),
        min_size=1,
        max_size=60,
    )
)
def test_property_summary_counts(rows):
    records = [
        record(key=f"C{i}_S{i}", life=life, disappeared=gone)
        for i, (life, gone) in enumerate(rows)
    ]
    summary = survival_summary(records)
    assert summary.total == len(rows)
    assert summary.disappeared_count == sum(1 for _, gone in rows if gone)
    for frac in (
        summary.disappeared_fraction,
        summary.disappeared_lt_80_days,
        summary.disappeared_lt_365_days,
        summary.surviving_gt_1000_days,
    ):
        assert frac is None or 0.0 <= frac <= 1.0
