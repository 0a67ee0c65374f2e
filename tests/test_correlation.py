"""Correlation methods against brute-force and scipy oracles."""

import datetime as dt
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainlens.correlation import (
    MATRIX_VARIABLES,
    METHODS,
    PRICE_FACTORS,
    average_ranks,
    correlate,
    correlation_matrix,
    interpret,
    price_factor_report,
)
from chainlens.cleaning import FeatureTable
from chainlens.cli import run
from chainlens.config import RunConfig
from chainlens.dataset import CoinSnapshot, Dataset, save_csv
from chainlens.errors import ChainlensError, UndefinedCorrelationError
from oracles import oracle_correlation_matrix

SRC = Path(__file__).resolve().parents[1] / "src"


def brute_tau_b(x, y):
    """O(n^2) pair-counting reference for tie-corrected Kendall."""
    n = len(x)
    concordant = discordant = tied_x = tied_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = np.sign(x[i] - x[j])
            dy = np.sign(y[i] - y[j])
            if dx == 0:
                tied_x += 1
            if dy == 0:
                tied_y += 1
            if dx != 0 and dy != 0:
                if dx == dy:
                    concordant += 1
                else:
                    discordant += 1
    n0 = n * (n - 1) // 2
    denom = math.sqrt(float(n0 - tied_x) * float(n0 - tied_y))
    return (concordant - discordant) / denom


def rank_then_pearson(x, y):
    """Independent spearman reference: scipy ranks + scipy pearson."""
    rx = scipy.stats.rankdata(x)
    ry = scipy.stats.rankdata(y)
    return scipy.stats.pearsonr(rx, ry).statistic


class TestAverageRanks:
    def test_mid_ranks(self):
        out = average_ranks(np.array([10.0, 20.0, 20.0, 30.0]))
        assert list(out) == [1.0, 2.5, 2.5, 4.0]

    def test_matches_scipy_rankdata(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            arr = rng.integers(0, 10, size=30).astype(float)
            assert np.array_equal(average_ranks(arr), scipy.stats.rankdata(arr))


class TestCorrelateExamples:
    def test_pearson_exact_affine(self):
        assert correlate("pearson", [1, 2, 3], [2, 4, 6]) == 1.0

    def test_kendall_hand_example(self):
        got = correlate("kendall", [1, 2, 3], [3, 1, 2])
        assert abs(got - (-1.0 / 3.0)) <= 1e-15

    def test_spearman_strictly_monotone(self):
        assert correlate("spearman", [1, 2, 3], [10, 100, 1000]) == 1.0

    def test_spearman_with_ties_equals_pearson_of_avg_ranks(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.integers(0, 6, size=40).astype(float)
            y = rng.integers(0, 6, size=40).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            ours = correlate("spearman", x, y)
            theirs = correlate("pearson", average_ranks(x), average_ranks(y))
            assert abs(ours - theirs) <= 1e-12
            assert abs(ours - rank_then_pearson(x, y)) <= 1e-12

    def test_unknown_method(self):
        with pytest.raises(ChainlensError):
            correlate("cosine", [1, 2], [3, 4])

    def test_length_mismatch(self):
        with pytest.raises(ChainlensError):
            correlate("pearson", [1, 2, 3], [1, 2])


class TestKendallAgainstOracles:
    def test_brute_force_sweep(self):
        rng = np.random.default_rng(11)
        for trial in range(150):
            n = int(rng.integers(2, 40))
            if trial % 2:
                x = rng.normal(size=n)
                y = rng.normal(size=n)
            else:
                x = rng.integers(0, 5, size=n).astype(float)
                y = rng.integers(0, 5, size=n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert abs(correlate("kendall", x, y) - brute_tau_b(x, y)) <= 1e-12

    def test_matches_scipy_tau_b(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rng.integers(0, 8, size=100).astype(float)
            y = rng.integers(0, 8, size=100).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            expected = scipy.stats.kendalltau(x, y).statistic
            assert abs(correlate("kendall", x, y) - expected) <= 1e-12

    def test_large_input_against_scipy(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=30000)
        y = 0.5 * x + rng.normal(size=30000)
        expected = scipy.stats.kendalltau(x, y).statistic
        assert abs(correlate("kendall", x, y) - expected) <= 1e-12


class TestPearsonAgainstScipy:
    def test_random_sweep(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            x = rng.normal(size=60)
            y = rng.normal(size=60)
            expected = scipy.stats.pearsonr(x, y).statistic
            assert abs(correlate("pearson", x, y) - expected) <= 1e-12


class TestUndefinedCases:
    def test_too_few_pairs(self):
        with pytest.raises(UndefinedCorrelationError):
            correlate("pearson", [1.0], [2.0])

    def test_too_few_after_deletion(self):
        x = [1.0, np.nan, 3.0]
        y = [np.nan, 2.0, 4.0]
        with pytest.raises(UndefinedCorrelationError):
            correlate("pearson", x, y)

    @pytest.mark.parametrize("method", METHODS)
    def test_constant_side(self, method):
        with pytest.raises(UndefinedCorrelationError):
            correlate(method, [5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
        with pytest.raises(UndefinedCorrelationError):
            correlate(method, [1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_pearson_sums_that_are_not_finite(self):
        # inf - inf in the centring is NaN
        with pytest.raises(UndefinedCorrelationError, match="not finite"):
            correlate("pearson", [1.0, 2.0, 3.0], [1.0, 2.0, math.inf])

    def test_pearson_of_finite_values_whose_squares_overflow(self):
        assert correlate("pearson", [1.0, 2.0, 3.0], [1e200, 2e200, 3e200]) == 1.0
        huge = correlate("pearson", [1e200, 2e200, 3e200], [1e200, 2e200, 4e200])
        assert huge == 0.9819805060619656

    def test_pearson_of_finite_values_whose_squares_underflow(self):
        # each squared sum of the tiny side is 0, though the side is not constant
        tiny = correlate("pearson", [1e-300, 2e-300, 3e-300], [1.0, 2.0, 4.0])
        assert tiny == 0.9819805060619657
        assert correlate("pearson", [1e-300, 2e-300, 3e-300], [1e-300, 2e-300, 3e-300]) == 1.0

    def test_pearson_of_finite_sums_whose_product_overflows(self):
        # sxx = 2e200 and syy ~ 4.7e200: each finite, their product not
        huge = correlate("pearson", [1e100, 2e100, 3e100], [1e100, 2e100, 4e100])
        assert huge == 0.9819805060619656
        unscaled = correlate("pearson", [1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert unscaled == 0.9819805060619659
        assert math.isclose(huge, unscaled, rel_tol=1e-15)

    @pytest.mark.parametrize("method", ["spearman", "kendall"])
    def test_rank_methods_read_the_order_of_huge_values(self, method):
        assert correlate(method, [1.0, 2.0, 3.0], [1e200, 2e200, 3e200]) == 1.0
        assert correlate(method, [1.0, 2.0, 3.0], [1.0, 2.0, math.inf]) == 1.0


class TestPairwiseDeletion:
    @pytest.mark.parametrize("method", METHODS)
    def test_equals_explicit_deletion(self, method):
        rng = np.random.default_rng(15)
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        x[rng.random(200) < 0.2] = np.nan
        y[rng.random(200) < 0.2] = np.nan
        mask = ~np.isnan(x) & ~np.isnan(y)
        assert correlate(method, x, y) == correlate(method, x[mask], y[mask])


class TestMethodProperties:
    @settings(deadline=None, max_examples=80)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-50, max_value=50),
                st.integers(min_value=-50, max_value=50),
            ),
            min_size=2,
            max_size=40,
        ).filter(
            lambda pairs: len({a for a, _ in pairs}) > 1
            and len({b for _, b in pairs}) > 1
        ),
        st.sampled_from(METHODS),
    )
    def test_symmetry_and_range(self, pairs, method):
        x = np.array([float(a) for a, _ in pairs])
        y = np.array([float(b) for _, b in pairs])
        r_xy = correlate(method, x, y)
        r_yx = correlate(method, y, x)
        assert abs(r_xy - r_yx) <= 1e-12
        assert -1.0 <= r_xy <= 1.0
        assert correlate(method, x, x) == 1.0

    def test_pearson_affine_invariance(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=80)
        y = rng.normal(size=80)
        base = correlate("pearson", x, y)
        assert abs(correlate("pearson", 3.5 * x + 11.0, y) - base) <= 1e-12
        assert abs(correlate("pearson", x, 0.25 * y - 4.0) - base) <= 1e-12
        assert abs(correlate("pearson", -x, y) + base) <= 1e-12

    @settings(deadline=None, max_examples=100)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=-900, max_value=1000),
        st.integers(min_value=-900, max_value=1000),
    )
    @example(seed=0, kx=-530, ky=400)  # one subnormal sum, a normal product
    @example(seed=0, kx=-118, ky=-400)  # normal sums, a subnormal product
    def test_pearson_invariant_under_power_of_two_scaling(self, seed, kx, ky):
        # 2**1000 makes the squares overflow; below about 2**-250 the
        # product of the squared sums, and below 2**-510 a sum itself,
        # leaves the normal range
        rng = np.random.default_rng(seed)
        x = rng.normal(size=int(rng.integers(3, 40)))
        y = x + rng.normal(size=x.size)
        base = correlate("pearson", x, y)
        scaled = correlate("pearson", np.ldexp(x, kx), np.ldexp(y, ky))
        # exact, but for the roots' product taken where the product overflows
        assert abs(scaled - base) <= 4 * math.ulp(base)

    @pytest.mark.parametrize("method", ["spearman", "kendall"])
    def test_rank_methods_invariant_under_monotone_transform(self, method):
        rng = np.random.default_rng(17)
        x = rng.normal(size=60)
        y = rng.normal(size=60)
        base = correlate(method, x, y)
        assert correlate(method, np.exp(x), y) == base
        assert correlate(method, x, y**3) == base
        assert correlate(method, x, -y) == -base


class TestInterpret:
    @pytest.mark.parametrize(
        "value,strength,sign",
        [
            (-0.63634, "strong", "negative"),
            (-0.63254, "strong", "negative"),
            (0.40029, "medium", "positive"),
            (0.0, "very weak", "none"),
            (0.19999, "very weak", "positive"),
            (0.20, "weak", "positive"),
            (0.40, "medium", "positive"),
            (0.60, "strong", "positive"),
            (0.80, "very strong", "positive"),
            (-1.0, "very strong", "negative"),
            (1.0, "very strong", "positive"),
        ],
    )
    def test_bands(self, value, strength, sign):
        label = interpret(value)
        assert label.strength == strength
        assert label.sign == sign

    def test_str_form(self):
        assert str(interpret(-0.63634)) == "strong negative"
        assert str(interpret(0.0)) == "very weak"

    @pytest.mark.parametrize("bad", [1.0001, -1.5, float("nan")])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            interpret(bad)


def toy_table():
    rng = np.random.default_rng(21)
    a = rng.normal(size=50)
    b = 2.0 * a + rng.normal(scale=0.1, size=50)
    c = rng.normal(size=50)
    return FeatureTable(np.arange(50), {"a": a, "b": b, "c": c})


class TestCorrelationMatrix:
    def test_diagonal_is_one(self):
        report = correlation_matrix("pearson", toy_table(), ["a", "b", "c"])
        assert [report.grid[i][i].coefficient for i in range(3)] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("method", METHODS)
    def test_duplicated_column_gives_unit_off_diagonal(self, method):
        t = FeatureTable(
            np.arange(3), {"u": np.array([1.0, 2.0, 3.0]), "v": np.array([1.0, 2.0, 3.0])}
        )
        report = correlation_matrix(method, t, ["u", "v"])
        assert report.grid[0][1].coefficient == 1.0

    @pytest.mark.parametrize("method", METHODS)
    def test_cells_match_scalar_calls(self, method):
        t = toy_table()
        report = correlation_matrix(method, t, ["a", "b", "c"])
        for i, a in enumerate(("a", "b", "c")):
            for j, b in enumerate(("a", "b", "c")):
                expected = correlate(method, t.columns[a], t.columns[b])
                assert report.grid[i][j].coefficient == pytest.approx(expected, abs=1e-15)

    def test_symmetry_and_sample_sizes(self):
        t = toy_table()
        report = correlation_matrix("spearman", t, ["a", "b", "c"])
        for i in range(3):
            for j in range(3):
                assert report.grid[i][j] is report.grid[j][i]
                assert report.grid[i][j].n == 50

    def test_constant_column_marked_absent_not_zero(self):
        t = FeatureTable(
            np.arange(3), {"u": np.array([1.0, 2.0, 3.0]), "k": np.array([7.0, 7.0, 7.0])}
        )
        report = correlation_matrix("pearson", t, ["u", "k"])
        assert report.grid[0][1].coefficient is None
        assert report.grid[1][1].coefficient is None  # constant diagonal too
        assert report.grid[0][1].label is None
        assert report.as_dict()["coefficients"][0][1] is None

    def test_needs_two_columns(self):
        with pytest.raises(ChainlensError):
            correlation_matrix("pearson", toy_table(), ["a"])

    def test_pairs_cover_upper_triangle(self):
        report = correlation_matrix("pearson", toy_table(), ["a", "b", "c"])
        got = [(p.var_a, p.var_b) for p in report.pairs()]
        assert got == [("a", "b"), ("a", "c"), ("b", "c")]


@st.composite
def holey_tables(draw):
    """2-6 columns of up to 25 rows: small integers (heavy ties), a few
    wide floats, NaN holes, and one constant column (holes too)."""
    n = draw(st.integers(min_value=0, max_value=25))
    k = draw(st.integers(min_value=2, max_value=6))
    cell = st.one_of(
        st.integers(min_value=-3, max_value=3).map(float),
        st.just(math.nan),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    columns = {
        f"v{i}": np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=np.float64)
        for i in range(k)
    }
    constant = f"v{draw(st.integers(min_value=0, max_value=k - 1))}"
    columns[constant] = np.where(np.isnan(columns[constant]), np.nan, 7.0)
    return FeatureTable(np.arange(n), columns)


class TestCorrelationMatrixAgainstOracle:
    @settings(deadline=None, max_examples=150)
    @given(holey_tables(), st.sampled_from(METHODS))
    def test_report_matches_the_split_matrix_report(self, table, method):
        names = list(table.columns)
        report = correlation_matrix(method, table, names)
        oracle = oracle_correlation_matrix(method, table.columns, names)
        assert json.dumps(report.as_dict(), sort_keys=True) == json.dumps(
            oracle.as_dict(), sort_keys=True
        )
        assert report.pairs() == oracle.pairs()


def day(i):
    return dt.date(2021, 1, 1) + dt.timedelta(days=i)


def inverse_price_dataset(n_coins=8, n_days=12):
    """price := 1 / total_supply, so their rank relation is exactly -1."""
    rng = np.random.default_rng(22)
    snaps = []
    for c in range(n_coins):
        for t in range(n_days):
            total = float(rng.integers(1, 10_000_000))
            snaps.append(
                CoinSnapshot(
                    key=f"Coin{c}_C{c}",
                    date=day(t),
                    price=1.0 / total,
                    total_supply=total,
                    circulating_supply=total / 2.0,
                    max_supply=total * 2.0,
                    volume_24h=float(rng.integers(1, 1000)),
                    market_cap=total / 2.0 * (1.0 / total),
                    num_market_pairs=float(rng.integers(1, 50)),
                )
            )
    return Dataset.build(snaps)


class TestPriceFactorReport:
    def test_perfect_inverse_monotone(self):
        report = price_factor_report(inverse_price_dataset())
        [cell] = [
            p
            for p in report.pooled
            if p.method == "spearman" and p.var_b == "total_supply"
        ]
        assert cell.coefficient == -1.0
        assert cell.label == "very strong negative"

    def test_structure(self):
        report = price_factor_report(inverse_price_dataset())
        assert len(report.pooled) == len(METHODS) * len(PRICE_FACTORS)
        assert {p.var_a for p in report.pooled} == {"price"}
        assert len(report.aggregate) == len(METHODS) * 2 * 4 * 2
        assert report.matrix.variables == MATRIX_VARIABLES
        bases = {p.var_a for p in report.aggregate}
        assert bases == {"mean_price", "std_price"}

    def test_independent_columns_stay_weak(self):
        rng = np.random.default_rng(23)
        snaps = []
        for c in range(40):
            for t in range(25):
                snaps.append(
                    CoinSnapshot(
                        key=f"Coin{c}_C{c}",
                        date=day(t),
                        price=float(rng.random()),
                        volume_24h=float(rng.random()),
                        total_supply=1000.0,
                        circulating_supply=500.0,
                    )
                )
        report = price_factor_report(Dataset.build(snaps))
        for method in METHODS:
            [cell] = [
                p
                for p in report.pooled
                if p.method == method and p.var_b == "volume_24h"
            ]
            assert abs(cell.coefficient) < 0.1
            assert cell.n == 1000

    def test_empty_range_errors(self):
        with pytest.raises(ChainlensError):
            price_factor_report(inverse_price_dataset(), (day(5), day(1)))

    def test_undefined_cells_propagate_as_absent(self):
        snaps = [
            CoinSnapshot(key="A_A", date=day(t), price=float(t))
            for t in range(5)
        ]
        report = price_factor_report(Dataset.build(snaps))
        volume_cells = [p for p in report.pooled if p.var_b == "volume_24h"]
        assert all(p.coefficient is None and p.n == 0 for p in volume_cells)

    def test_csv_export(self, tmp_path):
        # the correlate stage's correlations.csv: pooled, aggregate, matrix
        ds = inverse_price_dataset()
        save_csv(ds, tmp_path / "dataset.csv")
        run("correlate", RunConfig(out=str(tmp_path), format="csv"))
        report = price_factor_report(ds)
        pairs = list(report.pooled + report.aggregate) + report.matrix.pairs()
        path = tmp_path / "correlations.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "var_a,var_b,method,coefficient,n,label"
        assert len(lines) == 1 + len(pairs)
        assert any(",spearman," in line and "very strong negative" in line for line in lines)
        assert [line.split(",")[:3] for line in lines[1:]] == [
            [p.var_a, p.var_b, p.method] for p in pairs
        ]

    def test_as_dict_round_trips_through_json(self):
        report = price_factor_report(inverse_price_dataset())
        blob = json.dumps(report.as_dict(), sort_keys=True)
        assert json.loads(blob)["matrix"]["variables"] == list(MATRIX_VARIABLES)
        assert list(json.loads(blob)["pooled"][0]) == [
            "coefficient", "label", "method", "n", "var_a", "var_b"
        ]

    def test_report_does_not_depend_on_the_blas_thread_count(self):
        # the README demo panel; its pooled vectors (~17k pairs) are long
        # enough for a multithreaded BLAS to split a dot product
        code = (
            "import json\n"
            "from chainlens.cli import GENERATE_DEFAULTS\n"
            "from chainlens.correlation import price_factor_report\n"
            "from chainlens.synthetic import SyntheticSpec, generate_synthetic\n"
            "ds = generate_synthetic(SyntheticSpec(seed=7, **GENERATE_DEFAULTS))\n"
            "print(json.dumps(price_factor_report(ds).as_dict()))\n"
        )
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(json.loads(proc.stdout))
        assert reports[0] == reports[1]
