"""Per-coin lifetime arrays, survival summaries, Pareto bucketing."""

import datetime as dt
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlens.cli import run
from chainlens.config import RunConfig
from chainlens.dataset import Dataset, save_csv
from chainlens.errors import ChainlensError
from chainlens.survival import (
    PARETO_BUCKET_DAYS,
    Lifetimes,
    lifetimes,
    pareto,
    survival_summary,
)
from oracles import CoinSnapshot, oracle_lifetimes, oracle_pareto, oracle_survival_summary


def d(text):
    return dt.date.fromisoformat(text)


def record(first="2021-01-01", life=10, disappeared=True):
    """One coin's first day, last day and disappearance."""
    first_day = d(first).toordinal()
    return first_day, first_day + life, disappeared


def coins(records):
    """The Lifetimes of the given coins, in order."""
    firsts, lasts, gone = zip(*records) if records else ((), (), ())
    return Lifetimes(
        np.array(firsts, dtype=np.int64),
        np.array(lasts, dtype=np.int64),
        np.array(gone, dtype=bool),
    )


def span_dataset(key, first, last):
    return [
        CoinSnapshot(key, d(first)),
        CoinSnapshot(key, d(last)),
    ]


class TestLifetimes:
    def test_calendar_day_subtraction(self):
        ds = Dataset.build(span_dataset("A_A", "2021-01-01", "2021-03-01"))
        got = lifetimes(ds, cutoff=d("2022-01-01"))
        assert got.lifetime_days.tolist() == [59]
        assert got.disappeared.tolist() == [True]

    def test_last_day_equal_to_cutoff_is_alive(self):
        ds = Dataset.build(span_dataset("A_A", "2021-01-01", "2021-03-01"))
        got = lifetimes(ds, cutoff=d("2021-03-01"))
        assert got.disappeared.tolist() == [False]

    def test_single_day_coin(self):
        ds = Dataset.build([CoinSnapshot("A_A", d("2021-05-05"))])
        got = lifetimes(ds, cutoff=d("2021-06-01"))
        assert got.lifetime_days.tolist() == [0]
        assert got.first_days.tolist() == got.last_days.tolist() == [d("2021-05-05").toordinal()]

    def test_default_cutoff_is_last_observed_day(self):
        ds = Dataset.build(
            span_dataset("A_A", "2021-01-01", "2021-02-01")
            + span_dataset("B_B", "2021-01-01", "2021-06-01")
        )
        gone = dict(zip(ds.keys, lifetimes(ds).disappeared.tolist()))
        assert gone == {"A_A": True, "B_B": False}

    def test_cutoff_before_dataset_errors(self):
        ds = Dataset.build(span_dataset("A_A", "2021-01-01", "2021-02-01"))
        with pytest.raises(ChainlensError):
            lifetimes(ds, cutoff=d("2020-01-01"))

    def test_empty_dataset(self):
        got = lifetimes(Dataset.build([]))
        assert [array.size for array in got] == [0, 0, 0]


class TestSurvivalSummary:
    def test_planted_fraction(self):
        records = [record(disappeared=i < 39) for i in range(100)]
        summary = survival_summary(coins(records))
        assert summary.disappeared_fraction == 0.39
        assert summary.disappeared_count == 39
        assert summary.total == 100

    def test_all_surviving_leaves_disappeared_stats_absent(self):
        records = [record(disappeared=False) for i in range(5)]
        summary = survival_summary(coins(records))
        assert summary.disappeared_fraction == 0.0
        assert summary.disappeared_lt_80_days is None
        assert summary.disappeared_lt_365_days is None

    def test_threshold_fractions_are_strict(self):
        records = [
            record(life=79, disappeared=True),
            record(life=80, disappeared=True),
            record(life=364, disappeared=True),
            record(life=365, disappeared=True),
            record(life=1000, disappeared=False),
            record(life=1001, disappeared=False),
        ]
        summary = survival_summary(coins(records))
        assert summary.disappeared_lt_80_days == 0.25
        assert summary.disappeared_lt_365_days == 0.75
        assert summary.surviving_gt_1000_days == 0.5

    def test_empty_list_errors(self):
        with pytest.raises(ChainlensError):
            survival_summary(coins([]))


class TestPareto:
    def test_hand_bucketing(self):
        records = [record(life=10), record(life=15), record(life=100)]
        buckets = pareto(coins(records))
        assert [(b.start, b.end, b.count) for b in buckets] == [
            (0, 80, 2),
            (80, 160, 1),
        ]
        assert buckets[0].cumulative_pct == pytest.approx(66.66666666666667)
        assert buckets[1].cumulative_pct == 100.0

    def test_single_record(self):
        buckets = pareto(coins([record(life=5)]))
        assert len(buckets) == 1
        assert buckets[0].cumulative_pct == 100.0

    def test_tie_broken_by_ascending_start(self):
        records = [record(life=90), record(life=95), record(life=10), record(life=15)]
        assert [b.start for b in pareto(coins(records))] == [0, 80]

    def test_no_disappeared_record_gives_no_buckets(self):
        assert pareto(coins([record(disappeared=False)])) == ()

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
    records = [record(life=life, disappeared=gone) for life, gone in rows]
    buckets = pareto(coins(records))
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
    records = [record(life=life, disappeared=gone) for life, gone in rows]
    summary = survival_summary(coins(records))
    assert summary.total == len(rows)
    assert summary.disappeared_count == sum(1 for _, gone in rows if gone)
    for frac in (
        summary.disappeared_fraction,
        summary.disappeared_lt_80_days,
        summary.disappeared_lt_365_days,
        summary.surviving_gt_1000_days,
    ):
        assert frac is None or 0.0 <= frac <= 1.0


@st.composite
def panels(draw):
    """1-30 coins, each observed on a sorted set of days in a 400-day
    horizon, and a cutoff before the panel's last day, on it or after it."""
    n_coins = draw(st.integers(min_value=1, max_value=30))
    start = d("2020-01-01").toordinal()
    snaps = []
    for i in range(n_coins):
        offsets = draw(st.sets(st.integers(min_value=0, max_value=400), min_size=1, max_size=6))
        snaps += [
            CoinSnapshot(f"C{i}_S{i}", dt.date.fromordinal(start + o)) for o in offsets
        ]
    ds = Dataset.build(snaps)
    first, last = ds.date_range
    where = draw(st.sampled_from(["before", "on", "after", "default"]))
    if where == "before" and first < last:
        cutoff = first + dt.timedelta(draw(st.integers(0, (last - first).days - 1)))
    elif where == "after":
        cutoff = last + dt.timedelta(draw(st.integers(1, 500)))
    elif where == "on":
        cutoff = last
    else:
        cutoff = None
    return ds, cutoff


@settings(deadline=None, max_examples=150)
@given(panels())
def test_property_matches_the_record_oracle(panel):
    ds, cutoff = panel
    got = lifetimes(ds, cutoff)
    records = oracle_lifetimes(ds, cutoff)
    assert got.first_days.tolist() == [r.first_day.toordinal() for r in records]
    assert got.last_days.tolist() == [r.last_day.toordinal() for r in records]
    assert got.lifetime_days.tolist() == [r.lifetime_days for r in records]
    assert got.disappeared.tolist() == [r.disappeared for r in records]
    # repr tells every float's bits apart, and a numpy scalar from an int
    summary = asdict(survival_summary(got))
    assert repr(summary) == repr(asdict(oracle_survival_summary(records)))
    assert repr(pareto(got)) == repr(oracle_pareto(records))
