"""Cleaning transforms: derived features, imputation, normalization."""

import datetime as dt
import decimal
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainlens.cleaning import (
    FeatureTable,
    aggregate_stats,
    derive_ptsc,
    feature_values,
    impute_max_supply,
    impute_mean,
    max_normalize,
    mean_normalize,
    row_feature_table,
)
from chainlens.dataset import CoinSnapshot, Dataset
from chainlens.errors import ChainlensError, DataQualityWarning


def table(**columns):
    n = len(next(iter(columns.values())))
    return FeatureTable.from_columns(range(n), columns)


class TestDerivePtsc:
    def test_mostly_circulating(self):
        assert derive_ptsc([19e6], [20e6])[0] == pytest.approx(0.95)

    def test_identity_when_fully_circulating(self):
        x = np.array([1.0, 7.5, 19e6])
        assert derive_ptsc(x, x).tolist() == [1.0, 1.0, 1.0]

    def test_low_circulation(self):
        assert derive_ptsc([19e6], [100e6])[0] == pytest.approx(0.19)

    def test_zero_total_returns_absent(self):
        assert np.isnan(derive_ptsc([5.0], [0.0])[0])

    def test_absent_total_returns_absent(self):
        assert np.isnan(derive_ptsc([5.0], [np.nan])[0])

    def test_overflowing_ratio_returns_absent(self):
        # a tiny positive total passes every loader but overflows the ratio
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = derive_ptsc([5.0, 5.0], [1e-310, 1e-300])
        assert np.isnan(out[0])
        assert out[1] == pytest.approx(5e300)

    def test_ratio_above_one_kept(self):
        # circulating > total is flagged once, by Dataset.build
        assert derive_ptsc([30.0], [20.0])[0] == pytest.approx(1.5)

    def test_vectorized(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = derive_ptsc(
                np.array([19e6, 5.0, 1.0]), np.array([20e6, 0.0, np.nan])
            )
        assert out[0] == pytest.approx(0.95)
        assert np.isnan(out[1]) and np.isnan(out[2])


class TestImputeMean:
    def test_fills_with_mean_of_present(self):
        t = impute_mean(table(a=[1.0, None, 3.0]), ["a"])
        assert list(t.column("a")) == [1.0, 2.0, 3.0]

    def test_no_op_when_fully_present(self):
        src = table(a=[5.0])
        assert impute_mean(src, ["a"]) == src

    def test_two_holes(self):
        t = impute_mean(table(a=[1.0, None, None, 7.0]), ["a"])
        assert list(t.column("a")) == [1.0, 4.0, 4.0, 7.0]

    def test_idempotent_and_mean_preserving(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(50, 10, size=200)
        vals[rng.random(200) < 0.3] = np.nan
        src = table(a=vals)
        before = np.nanmean(vals)
        once = impute_mean(src, ["a"])
        twice = impute_mean(once, ["a"])
        assert once == twice
        after = once.column("a").mean()
        assert abs(after - before) <= 1e-12 * abs(before)
        assert not np.isnan(once.column("a")).any()

    def test_all_absent_column_errors_with_name(self):
        with pytest.raises(ChainlensError, match="'a'"):
            impute_mean(table(a=[None, None]), ["a"])

    def test_untouched_columns_preserved(self):
        t = impute_mean(table(a=[1.0, None], b=[None, 2.0]), ["a"])
        assert np.isnan(t.column("b")[0])


class TestImputeMaxSupply:
    def test_thousandfold_max_rule(self):
        t = impute_max_supply(table(max_supply=[100.0, None, 50.0]))
        assert list(t.column("max_supply")) == [100.0, 100000.0, 50.0]

    def test_single_present_value(self):
        t = impute_max_supply(table(max_supply=[None, 1.0]))
        assert list(t.column("max_supply")) == [1000.0, 1.0]

    def test_no_op_when_fully_present(self):
        src = table(max_supply=[3.0, 4.0])
        assert impute_max_supply(src) == src

    def test_all_absent_errors(self):
        with pytest.raises(ChainlensError, match="max_supply"):
            impute_max_supply(table(max_supply=[None]))

    def test_fill_that_overflows_errors(self):
        # 1000x of a max above ~1.8e305 is not a float
        with pytest.raises(ChainlensError, match=r"1000x its max 1e\+306 overflows"):
            impute_max_supply(table(max_supply=[1e306, None]))
        t = impute_max_supply(table(max_supply=[1e305, None]))
        assert t.column("max_supply")[1] == 1e305 * 1000.0

    def test_runs_before_mean_imputation_in_pipeline_order(self):
        # sentinel must already be present when the mean is taken
        t = table(max_supply=[100.0, None], price=[1.0, None])
        t = impute_mean(impute_max_supply(t), ["max_supply", "price"])
        assert t.column("max_supply")[1] == 100000.0
        assert t.column("price")[1] == 1.0


class TestMeanNormalize:
    def test_hand_example(self):
        out = mean_normalize(np.array([1.0, 2.0, 3.0]))
        root = math.sqrt(2.0 / 3.0)  # population std of [1,2,3]
        assert out == pytest.approx([-1.0 / root, 0.0, 1.0 / root])
        assert out[0] == pytest.approx(-1.224744871391589)

    def test_value_at_mean_maps_to_zero(self):
        out = mean_normalize(np.array([2.0, 4.0, 6.0]))
        assert out[1] == 0.0

    def test_constant_column_errors(self):
        with pytest.raises(ChainlensError, match="constant"):
            mean_normalize(np.array([7.0, 7.0, 7.0]))

    def test_too_short_errors(self):
        with pytest.raises(ChainlensError):
            mean_normalize(np.array([1.0]))

    def test_absent_values_rejected(self):
        with pytest.raises(ChainlensError):
            mean_normalize(np.array([1.0, np.nan]))

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=50,
        ).filter(lambda v: float(np.std(v)) > 0)
    )
    @example([699051.2107638393] * 3)  # constant, yet np.std rounds above 0
    def test_postconditions(self, values):
        col = np.array(values)
        if np.all(col == col[0]):
            with pytest.raises(ChainlensError, match="constant"):
                mean_normalize(col)
            return
        out = mean_normalize(col)
        assert abs(out.mean()) <= 1e-12
        assert abs(out.std() - 1.0) <= 1e-12


class TestMaxNormalize:
    def test_examples(self):
        assert list(max_normalize(np.array([2.0, 4.0, 8.0]))) == [0.25, 0.5, 1.0]
        assert list(max_normalize(np.array([1.0]))) == [1.0]
        assert list(max_normalize(np.array([0.0, 5.0]))) == [0.0, 1.0]

    def test_nonpositive_max_errors(self):
        with pytest.raises(ChainlensError):
            max_normalize(np.array([0.0, 0.0]))
        with pytest.raises(ChainlensError):
            max_normalize(np.array([-3.0, -1.0]))

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=50,
        ).filter(lambda v: max(v) > 0)
    )
    @example([5e-324, 0.0, 2.0])  # the subnormal underflows to 0 / 2
    @example([2.2250738585e-313, -1.0, -1.0])  # -1 / subnormal overflows
    def test_max_is_one_and_order_preserved(self, values):
        arr = np.array(values)
        with np.errstate(over="ignore"):
            finite = np.isfinite(arr / arr.max()).all()
        if not finite:
            with pytest.raises(ChainlensError, match="overflows"):
                max_normalize(arr)
            return
        # float64 division can merge neighbours by underflow, so order
        # is preserved weakly: sorted by the input, the output never falls
        out = max_normalize(arr)
        assert out.max() == 1.0
        assert np.all(np.diff(out[np.argsort(arr, kind="stable")]) >= 0)


def day(i):
    return dt.date(2021, 1, 1) + dt.timedelta(days=i)


class TestAggregateStats:
    def make(self):
        return Dataset.build(
            [
                CoinSnapshot("A_A", day(0), price=1.0, circulating_supply=10.0, total_supply=20.0),
                CoinSnapshot("A_A", day(1), price=3.0, circulating_supply=10.0, total_supply=40.0),
                CoinSnapshot("B_B", day(0), price=5.0),
            ]
        )

    def test_population_std_convention(self):
        stats = aggregate_stats(self.make(), ("price", "ptsc"))
        means, stds = stats["price"]
        assert means[0] == 2.0
        assert stds[0] == 1.0  # population std of [1, 3]
        assert stats["ptsc"][0][0] == pytest.approx((0.5 + 0.25) / 2)

    def test_arrays_follow_the_coin_keys(self):
        ds = self.make()
        stats = aggregate_stats(ds, ("ptsc", "price", "max_supply"))
        assert ds.keys == ("A_A", "B_B")
        assert list(stats) == ["ptsc", "price", "max_supply"]  # the named ones only
        for means, stds in stats.values():
            assert means.shape == stds.shape == (2,)

    def test_single_observation_has_mean_but_absent_std(self):
        means, stds = aggregate_stats(self.make(), ("price",))["price"]
        assert means[1] == 5.0
        assert np.isnan(stds[1])

    def test_no_observations_absent_entries(self):
        means, stds = aggregate_stats(self.make(), ("volume_24h",))["volume_24h"]
        assert np.isnan(means[1]) and np.isnan(stds[1])

    def test_date_range_filters(self):
        means, _ = aggregate_stats(self.make(), ("price",), (day(1), day(1)))["price"]
        assert means[0] == 3.0
        assert np.isnan(means[1])

    def test_empty_range_errors(self):
        with pytest.raises(ChainlensError):
            aggregate_stats(self.make(), ("price",), (day(2), day(1)))

    def test_disjoint_coins_independent(self):
        means, _ = aggregate_stats(self.make(), ("price",))["price"]
        assert means[0] != means[1]


def exact_mean_std(values):
    """The mean and population std of ``values``: the mean and variance
    as exact fractions, the root taken in 40-digit decimal."""
    xs = [Fraction(v) for v in values]
    mean = sum(xs) / len(xs)
    variance = sum((x - mean) ** 2 for x in xs) / len(xs)
    with decimal.localcontext() as context:
        context.prec = 40
        std = (Decimal(variance.numerator) / Decimal(variance.denominator)).sqrt()
    return float(mean), float(std)


class TestAggregateStatsOfHugeValues:
    """A coin whose finite values overflow numpy's sum or squares still
    gets a finite mean and std."""

    @pytest.mark.parametrize(
        "name, cells",
        [
            ("price", [{"price": 0.0}, {"price": 1.5625e308}]),  # found by hypothesis
            ("price", [{"price": 1.5e308}, {"price": 1.6e308}]),
            ("price", [{"price": 1.0}, {"price": 1.6e308}, {"price": 1.7e308}]),
            ("price", [{"price": 1.7e308}] * 3),
            (
                "ptsc",
                [
                    {"circulating_supply": 1e-3, "total_supply": 1e-310},
                    {"circulating_supply": 1e-4, "total_supply": 1e-310},
                ],
            ),
        ],
    )
    def test_matches_exact_arithmetic(self, name, cells):
        with warnings.catch_warnings():  # circulating over total is only a note
            warnings.simplefilter("ignore", DataQualityWarning)
            ds = Dataset.build([CoinSnapshot("A_A", day(i), **c) for i, c in enumerate(cells)])
        values = feature_values(ds, name, slice(None))
        with np.errstate(over="ignore"):  # numpy's own statistics overflow here
            assert not (np.isfinite(values.mean()) and np.isfinite(values.std()))
        means, stds = aggregate_stats(ds, (name,))[name]
        for got, want in zip((means[0], stds[0]), exact_mean_std(values.tolist())):
            assert math.isfinite(got)
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (got, want)


class TestRowFeatureTable:
    def test_rows_and_ids(self):
        ds = Dataset.build(
            [
                CoinSnapshot("A_A", day(0), price=1.0),
                CoinSnapshot("A_A", day(1), price=2.0),
            ]
        )
        t = row_feature_table(ds, ["price", "volume_24h"])
        assert t.rows.dtype == np.int64
        assert t.rows.tolist() == [0, 1]
        assert list(t.column("price")) == [1.0, 2.0]
        assert np.isnan(t.column("volume_24h")).all()

    def test_unknown_column_rejected(self):
        ds = Dataset.build([CoinSnapshot("A_A", day(0))])
        with pytest.raises(KeyError):
            row_feature_table(ds, ["bogus"])
        with pytest.raises(KeyError):
            row_feature_table(ds, ["price", "ptsc", "bogus"])

    def test_ptsc_by_name_is_derive_ptsc_of_the_supplies(self):
        supplies = [(95.0, 100.0), (5.0, None), (5.0, 0.0), (None, 10.0), (12.0, 8.0)]
        with pytest.warns(DataQualityWarning):  # the last row: 12 > 8
            ds = Dataset.build(
                CoinSnapshot("A_A", day(i), circulating_supply=c, total_supply=t)
                for i, (c, t) in enumerate(supplies)
            )
        ptsc = row_feature_table(ds, ("ptsc",)).column("ptsc")
        expected = derive_ptsc(
            ds.column("circulating_supply"), ds.column("total_supply")
        )
        assert np.array_equal(ptsc, expected, equal_nan=True)
        assert ptsc[0] == 0.95 and ptsc[4] == 1.5
        assert np.isnan(ptsc[1:4]).all()

    def test_date_range_filters_and_reversed_range_errors(self):
        ds = Dataset.build(
            [CoinSnapshot("A_A", day(i), price=float(i)) for i in range(3)]
        )
        t = row_feature_table(ds, ["price"], (day(1), None))
        assert t.rows.tolist() == [1, 2]
        with pytest.raises(ChainlensError, match="empty date range"):
            row_feature_table(ds, ["price"], (day(2), day(1)))


class TestFeatureTable:
    def test_columns_are_read_only(self):
        t = table(a=[1.0, 2.0])
        with pytest.raises(ValueError):
            t.column("a")[0] = 9.0

    def test_matrix_stacks_in_order(self):
        t = table(a=[1.0, 2.0], b=[3.0, 4.0])
        assert t.matrix(["b", "a"]).tolist() == [[3.0, 1.0], [4.0, 2.0]]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FeatureTable.from_columns([0], {"a": [1.0, 2.0]})

    def test_none_cells_are_absent(self):
        t = table(a=[1.0, None])
        assert t.column("a")[0] == 1.0 and np.isnan(t.column("a")[1])

    def test_rows_are_read_only_and_kept_by_transforms(self):
        t = FeatureTable.from_columns([4, 9], {"a": [1.0, np.nan]})
        with pytest.raises(ValueError):
            t.rows[0] = 0
        assert impute_mean(t, ("a",)).rows.tolist() == [4, 9]
