"""Labeling, splitting, training, evaluation, and flag heuristics."""

import base64
import dataclasses
import datetime as dt
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from chainlens.classify import (
    CLASSIFY_FEATURES,
    ClassifierSpec,
    ConfusionCounts,
    LabeledTable,
    Normalizer,
    evaluate,
    fit,
    label_risky,
    load_model,
    manipulability_flags,
    metrics_from_counts,
    predict,
    prepare_features,
    save_model,
    train_test_split,
)
from chainlens.classifiers import (
    CLASSIFIER_KINDS,
    DecisionTreeModel,
    KNNModel,
    RandomForestModel,
    from_doc,
    jsonable,
)
from chainlens.cli import GENERATE_DEFAULTS, run
from chainlens.config import RunConfig
from chainlens.dataset import Dataset, save_csv
from chainlens.errors import ChainlensError, DataQualityWarning
from chainlens.synthetic import SyntheticSpec, generate_synthetic
from oracles import CoinSnapshot, oracle_blob, oracle_save_model, to_doc

# model files of format 2, written by the one-shot writer
MODEL_FIXTURES = Path(__file__).parent / "fixtures" / "models_v2"


def d(text):
    return dt.date.fromisoformat(text)


def unblob(blob):
    """A format-2 array object's values, as int64 or float64."""
    values = np.frombuffer(base64.b64decode(blob["data"]), dtype=blob["dtype"])
    return values.reshape(blob["shape"]).astype(np.float64 if blob["dtype"] == "<f8" else np.int64)


def compact_tree(feature, threshold, label):
    """A tree from its three arrays, its integers as int64: a model takes
    any integer dtype, though a fitted or loaded one holds the narrowest."""
    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold, dtype=np.float64),
        "label": np.array(label, dtype=np.int64),
    }


def tree_doc(tree):
    """A tree as a format-2 file holds it."""
    return {name: oracle_blob(array) for name, array in tree.items()}


def set_int(array, index, value):
    """A copy of an integer array with ``index`` set to ``value``."""
    array = array.copy()
    array[index] = value
    return array


def at(index, value):
    """A change to an array that sets ``index`` to ``value``."""

    def change(array):
        array = np.array(array, dtype=np.float64)
        array[index] = value
        return array

    return change


def assert_same_value(got, want):
    """Equal values of the same type; arrays also of the same dtype."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    elif isinstance(want, (dict, tuple)):
        items = want.items() if isinstance(want, dict) else enumerate(want)
        assert len(got) == len(want)
        for key, value in items:
            assert_same_value(got[key], value)
    else:
        assert got == want


def make_table(n=80, seed=0, n_coins=8, n_features=3, separation=5.0):
    """Blob-labeled table: label 1 rows sit `separation` away from label 0."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    X = rng.normal(size=(n, n_features)) + separation * y[:, None]
    return LabeledTable(
        feature_names=tuple(f"f{j}" for j in range(n_features)),
        rows=np.arange(n) + 100,
        coins=np.arange(n) % n_coins,
        X=X,
        y=y.astype(np.int64),
    )


def labeled_fixture_dataset():
    rows = [
        CoinSnapshot(
            "AAA_alpha", d("2021-01-01"),
            price=10.0, total_supply=100.0, circulating_supply=50.0,
            volume_24h=5.0, market_cap=500.0,
        ),
        CoinSnapshot(
            "AAA_alpha", d("2021-01-02"),
            total_supply=100.0, circulating_supply=50.0,
            volume_24h=5.0, market_cap=500.0,
        ),
        CoinSnapshot(
            "BBB_beta", d("2021-01-01"),
            price=20.0, max_supply=400.0, total_supply=200.0,
            circulating_supply=200.0, volume_24h=8.0, market_cap=4000.0,
        ),
        CoinSnapshot(
            "BBB_beta", d("2021-03-01"),
            price=30.0, total_supply=200.0, circulating_supply=100.0,
            volume_24h=12.0, market_cap=6000.0,
        ),
    ]
    return Dataset.build(rows)


class TestLabelRisky:
    def test_labels_follow_disappearance(self):
        ds = labeled_fixture_dataset()
        table = label_risky(ds, cutoff=d("2021-03-01"))
        assert table.rows.tolist() == [0, 1, 2, 3]
        assert ds.row_keys(table.rows) == ["AAA_alpha", "AAA_alpha", "BBB_beta", "BBB_beta"]
        assert table.coins.tolist() == [0, 0, 1, 1]
        assert table.y.tolist() == [1, 1, 0, 0]
        assert table.feature_names == CLASSIFY_FEATURES

    def test_imputation_applied_at_labeling_time(self):
        table = label_risky(labeled_fixture_dataset(), cutoff=d("2021-03-01"))
        col = {name: i for i, name in enumerate(table.feature_names)}
        # absent price on AAA's second row gets the column mean of 10, 20, 30
        assert table.X[1, col["price"]] == 20.0
        # one declared max supply of 400; the rest get the thousandfold rule
        assert table.X[2, col["max_supply"]] == 400.0
        assert table.X[0, col["max_supply"]] == 400_000.0
        # ptsc is derived before imputation
        assert table.X[:, col["ptsc"]].tolist() == [0.5, 0.5, 1.0, 0.5]
        assert np.all(np.isfinite(table.X))

    def test_default_cutoff_is_last_observed_day(self):
        table = label_risky(labeled_fixture_dataset())
        assert table.y.tolist() == [1, 1, 0, 0]

    def test_labels_use_full_history_even_when_range_trims_rows(self):
        table = label_risky(
            labeled_fixture_dataset(),
            cutoff=d("2021-03-01"),
            date_range=(d("2021-01-01"), d("2021-01-31")),
        )
        # BBB's March row falls outside the range but BBB stays non-risky
        assert table.rows.tolist() == [0, 1, 2]
        assert table.y.tolist() == [1, 1, 0]

    def test_keys_hold_any_text_the_coin_names_hold(self):
        renamed = {"AAA_alpha": 'A@2021-01-01,"_alpha', "BBB_beta": 'B"B@x,_be@ta'}
        ds = Dataset.build(
            s._replace(key=renamed[s.key])
            for s in labeled_fixture_dataset().snapshots
        )
        table = label_risky(
            ds, cutoff=d("2021-03-01"), date_range=(None, d("2021-01-31"))
        )
        a, b = renamed["AAA_alpha"], renamed["BBB_beta"]
        assert ds.row_keys(table.rows) == [a, a, b]
        assert ds.days[table.rows].tolist() == [
            d("2021-01-01").toordinal(), d("2021-01-02").toordinal(), d("2021-01-01").toordinal()
        ]
        assert table.y.tolist() == [1, 1, 0]

    def test_everything_alive_at_early_cutoff(self):
        table = label_risky(labeled_fixture_dataset(), cutoff=d("2021-01-02"))
        assert table.y.tolist() == [0, 0, 0, 0]

    def test_empty_range_rejected(self):
        with pytest.raises(ChainlensError):
            label_risky(
                labeled_fixture_dataset(),
                date_range=(d("2025-01-01"), d("2025-12-31")),
            )


class TestPrepareFeatures:
    def test_missing_counts_at_each_step(self):
        rows, X, (before, after_rule, after) = prepare_features(
            labeled_fixture_dataset()
        )
        assert X.shape == (len(rows), len(CLASSIFY_FEATURES))
        assert list(before) == list(CLASSIFY_FEATURES)
        assert before["price"] == 1 and before["max_supply"] == 3
        assert after_rule["price"] == 1 and after_rule["max_supply"] == 0
        assert set(after.values()) == {0}

    def test_absent_or_zero_total_warns_once(self):
        full = dict(price=1.0, max_supply=9.0, volume_24h=1.0, market_cap=5.0)
        rows = [
            CoinSnapshot("AAA_alpha", d("2021-01-01"), circulating_supply=5.0,
                         total_supply=0.0, **full),
            CoinSnapshot("AAA_alpha", d("2021-01-02"), circulating_supply=5.0,
                         **full),
            CoinSnapshot("AAA_alpha", d("2021-01-03"), circulating_supply=5.0,
                         total_supply=10.0, **full),
        ]
        # zero total with circulating present is also a supply violation
        with pytest.warns(DataQualityWarning, match="circulating_supply > total"):
            ds = Dataset.build(rows)
        with pytest.warns(DataQualityWarning, match="absent or zero") as caught:
            _, X, (before, _, _) = prepare_features(ds)
        assert len(caught) == 1 and "2 value(s)" in str(caught[0].message)
        assert before["ptsc"] == 2
        # the two holes take the mean of the one defined ratio
        assert X[:, CLASSIFY_FEATURES.index("ptsc")].tolist() == [0.5, 0.5, 0.5]

    def test_mean_fill_is_finite_where_the_sum_overflows(self):
        full = dict(max_supply=9.0, total_supply=8.0, circulating_supply=4.0,
                    volume_24h=1.0, market_cap=5.0)
        ds = Dataset.build(
            CoinSnapshot("AAA_alpha", d(f"2021-01-0{i + 1}"), price=price, **full)
            for i, price in enumerate([1e308, 1.5e308, None])
        )
        _, X, _ = prepare_features(ds)
        fill = 1.5e308 * np.mean(np.array([1e308, 1.5e308]) / 1.5e308)
        assert X[:, CLASSIFY_FEATURES.index("price")].tolist() == [1e308, 1.5e308, fill]
        assert np.isfinite(X).all()


class TestLabeledTable:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ChainlensError):
            LabeledTable(
                feature_names=("a", "b"),
                rows=np.zeros(1, dtype=np.int64),
                coins=np.zeros(1, dtype=np.int64),
                X=np.zeros((1, 3)),
                y=np.zeros(1, dtype=np.int64),
            )

    def test_nan_rows_rejected(self):
        with pytest.raises(ChainlensError):
            LabeledTable(
                feature_names=("a",),
                rows=np.zeros(1, dtype=np.int64),
                coins=np.zeros(1, dtype=np.int64),
                X=np.array([[np.nan]]),
                y=np.zeros(1, dtype=np.int64),
            )

    def test_take_preserves_alignment(self):
        table = make_table(n=10)
        sub = table.take([1, 4, 7])
        assert sub.rows.tolist() == [table.rows[i] for i in (1, 4, 7)]
        assert sub.coins.tolist() == [table.coins[i] for i in (1, 4, 7)]
        assert sub.y.tolist() == [table.y[i] for i in (1, 4, 7)]
        assert np.array_equal(sub.X, table.X[[1, 4, 7]])


class TestTrainTestSplit:
    def test_sizes_disjoint_exhaustive(self):
        table = make_table(n=10)
        train, test = train_test_split(table, 0.8, seed=3)
        assert train.n_rows == 8 and test.n_rows == 2
        assert set(train.rows.tolist()) | set(test.rows.tolist()) == set(table.rows.tolist())
        assert set(train.rows.tolist()) & set(test.rows.tolist()) == set()

    def test_row_order_is_preserved_within_sides(self):
        table = make_table(n=30)
        train, test = train_test_split(table, 0.5, seed=1)
        assert np.all(np.diff(train.rows) > 0)
        assert np.all(np.diff(test.rows) > 0)

    def test_same_seed_same_split(self):
        table = make_table(n=40)
        a_train, _ = train_test_split(table, 0.7, seed=11)
        b_train, _ = train_test_split(table, 0.7, seed=11)
        assert np.array_equal(a_train.rows, b_train.rows)

    def test_different_seeds_differ(self):
        table = make_table(n=100)
        a_train, _ = train_test_split(table, 0.5, seed=0)
        b_train, _ = train_test_split(table, 0.5, seed=1)
        assert not np.array_equal(a_train.rows, b_train.rows)

    def test_half_of_five_rounds_to_even(self):
        # round-half-even: round(0.5 * 5) == 2
        table = make_table(n=5)
        train, test = train_test_split(table, 0.5)
        assert (train.n_rows, test.n_rows) == (2, 3)

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.2, 1.5])
    def test_out_of_range_ratio_rejected(self, ratio):
        with pytest.raises(ChainlensError):
            train_test_split(make_table(n=10), ratio)

    def test_ratio_that_empties_a_side_rejected(self):
        with pytest.raises(ChainlensError):
            train_test_split(make_table(n=4), 0.05)
        with pytest.raises(ChainlensError):
            train_test_split(make_table(n=4), 0.95)

    def test_group_split_keeps_coins_whole(self):
        table = make_table(n=80, n_coins=10)
        train, test = train_test_split(table, 0.8, seed=7, group_by_coin=True)
        assert set(train.coins.tolist()) & set(test.coins.tolist()) == set()
        assert len(set(train.coins.tolist())) == 8 and len(set(test.coins.tolist())) == 2
        assert train.n_rows + test.n_rows == 80

    def test_group_split_takes_coins_in_first_appearance_order(self):
        # the same coins in the same order of first appearance, coded apart
        table = make_table(n=40, n_coins=5)
        recoded = dataclasses.replace(table, coins=np.array([7, 2, 9, 0, 4])[table.coins])
        for seed in range(5):
            train, test = train_test_split(table, 0.6, seed=seed, group_by_coin=True)
            again, _ = train_test_split(recoded, 0.6, seed=seed, group_by_coin=True)
            assert np.array_equal(train.rows, again.rows)
            assert train.n_rows + test.n_rows == 40

    def test_group_split_needs_multiple_coins(self):
        table = make_table(n=10, n_coins=1)
        with pytest.raises(ChainlensError):
            train_test_split(table, 0.5, group_by_coin=True)

    @staticmethod
    def coin_table(labels, rows_per_coin=3):
        """Each coin i carries ``labels[i]`` on every row; the rows of the
        coins interleave, so first appearance is coin order."""
        n = len(labels) * rows_per_coin
        coins = np.arange(n) % len(labels)
        return LabeledTable(
            feature_names=("f0",), rows=np.arange(n), coins=coins,
            X=np.zeros((n, 1)), y=np.array(labels, dtype=np.int64)[coins],
        )

    @staticmethod
    def drawn_by_loop(table, ratio, seed):
        """The stratified coin draw as a plain loop: one permutation per
        label in label order, of that label's coins in first-appearance
        order, each coin labelled by its first row."""
        rng = np.random.default_rng(seed)
        label_of = {}
        for coin, label in zip(table.coins.tolist(), table.y.tolist()):
            label_of.setdefault(coin, label)
        train = set()
        for label in sorted(set(label_of.values())):
            members = [coin for coin in label_of if label_of[coin] == label]
            order = rng.permutation(len(members))
            train |= {members[i] for i in order[: round(ratio * len(members))]}
        return train

    @pytest.mark.parametrize("ratio, n_risky, n_safe, risky_train, safe_train", [
        (0.8, 3, 7, 2, 6),  # round(2.4), round(5.6)
        (0.5, 5, 4, 2, 2),  # round-half-even: round(2.5) == 2, round(2.0)
        (0.7, 1, 9, 1, 6),  # round(0.7), round(6.3)
    ])
    def test_group_split_draws_each_label_by_the_ratio(
        self, ratio, n_risky, n_safe, risky_train, safe_train
    ):
        table = self.coin_table([1] * n_risky + [0] * n_safe)
        for seed in range(4):
            train, test = train_test_split(table, ratio, seed=seed, group_by_coin=True)
            train_coins, test_coins = set(train.coins.tolist()), set(test.coins.tolist())
            assert train_coins.isdisjoint(test_coins)
            assert train_coins | test_coins == set(range(n_risky + n_safe))
            risky = set(range(n_risky))
            assert (len(train_coins & risky), len(train_coins - risky)) == (risky_train, safe_train)
            assert train_coins == self.drawn_by_loop(table, ratio, seed)

    @pytest.mark.parametrize("labels, ratio", [
        ([1, 0, 0], 0.8),  # round(0.8) + round(1.6) == 3 of 3 coins
        ([1, 0, 0], 0.2),  # round(0.2) + round(0.4) == 0 of 3 coins
    ])
    def test_group_split_refuses_label_rounds_that_empty_a_side(self, labels, ratio):
        with pytest.raises(ChainlensError, match="leaves one side of the coin split empty"):
            train_test_split(self.coin_table(labels), ratio, group_by_coin=True)

    def test_group_split_labels_a_coin_by_its_first_row(self):
        table = self.coin_table([1, 1, 0, 0, 0, 0])
        # coin 0's first row says safe, so it draws with the five safe coins
        y = table.y.copy()
        y[0] = 0
        table = dataclasses.replace(table, y=y)
        for seed in range(8):
            train, _ = train_test_split(table, 0.5, seed=seed, group_by_coin=True)
            train_coins = set(train.coins.tolist())
            # round(0.5 * 5) == 2 safe coins, round(0.5 * 1) == 0 risky ones
            assert len(train_coins) == 2 and 1 not in train_coins
            assert train_coins == self.drawn_by_loop(table, 0.5, seed)

    def test_group_split_of_the_readme_demo_holds_risky_test_coins(self):
        # seed 7, ratio 0.8: an unstratified draw left no risky coin in test
        spec = SyntheticSpec(seed=7, **GENERATE_DEFAULTS)
        table = label_risky(generate_synthetic(spec))
        train, test = train_test_split(table, 0.8, seed=7, group_by_coin=True)
        label_of = dict(zip(table.coins.tolist(), table.y.tolist()))
        risky_test = {coin for coin in test.coins.tolist() if label_of[coin]}
        assert set(train.coins.tolist()).isdisjoint(test.coins.tolist())
        assert len(set(test.coins.tolist())) == 20  # 12 of 61 safe, 8 of 39 risky
        assert len(risky_test) == 39 - round(0.8 * 39) == 8
        assert set(train.coins.tolist()) == self.drawn_by_loop(table, 0.8, 7)


class TestNormalizer:
    def test_fit_uses_population_std(self):
        X = np.array([[1.0], [3.0]])
        norm = Normalizer.fit(X)
        assert norm.means[0] == 2.0
        assert norm.scales[0] == 1.0  # population std of {1, 3}

    def test_constant_column_maps_to_zeros(self):
        X = np.full((4, 2), 7.0)
        norm = Normalizer.fit(X)
        assert np.array_equal(norm.scales, np.ones(2))
        assert np.array_equal(norm.transform(X), np.zeros((4, 2)))

    def test_column_whose_squares_overflow_keeps_finite_stats(self):
        # numpy's std of 1e200..3e200 overflows; the column is scaled first
        X = np.array([[1e200, 1.0], [2e200, 2.0], [3e200, 4.0]])
        norm = Normalizer.fit(X)
        tame = Normalizer.fit(X / [1e200, 1.0])
        assert np.allclose(norm.means / [1e200, 1.0], tame.means, rtol=1e-15)
        assert np.allclose(norm.scales / [1e200, 1.0], tame.scales, rtol=1e-15)
        assert np.allclose(norm.transform(X), tame.transform(X / [1e200, 1.0]), rtol=1e-14)

    def test_column_whose_sum_overflows_keeps_finite_stats(self):
        X = np.array([[1.2e308], [1.6e308], [1.7e308]])
        norm = Normalizer.fit(X)
        assert np.isfinite(norm.means).all() and np.isfinite(norm.scales).all()
        assert np.allclose(norm.transform(X).mean(), 0.0, atol=1e-15)

    def test_huge_feature_model_saves_and_loads(self, tmp_path):
        table = make_table(n=40, seed=3)
        table = dataclasses.replace(table, X=table.X * [1.0, 1.0, 1e200] + [0.0, 0.0, 2e200])
        trained = fit(ClassifierSpec.make("logistic_regression"), table, seed=1)
        path = tmp_path / "huge.json"
        save_model(trained, path)
        loaded = load_model(path)
        assert np.array_equal(predict(loaded, table.X), predict(trained, table.X))

    def test_doc_round_trip(self):
        norm = Normalizer.fit(np.random.default_rng(0).normal(size=(10, 3)))
        doc = to_doc(norm)
        assert set(doc) == {"means", "scales"}
        again = from_doc(Normalizer, json.loads(json.dumps(doc)))
        for name in ("means", "scales"):
            assert getattr(again, name).dtype == np.float64
            assert np.array_equal(getattr(again, name), getattr(norm, name))


class TestFitPredict:
    def test_statistics_come_from_training_split_only(self):
        table = make_table(n=60, seed=5)
        train, _ = train_test_split(table, 0.5, seed=5)
        trained = fit(ClassifierSpec.make("knn"), train)
        assert np.allclose(trained.normalizer.means, train.X.mean(axis=0))
        assert not np.allclose(trained.normalizer.means, table.X.mean(axis=0))

    @pytest.mark.parametrize("kind", sorted(CLASSIFIER_KINDS))
    def test_each_kind_learns_blobs(self, kind):
        table = make_table(n=80, seed=6)
        train, test = train_test_split(table, 0.75, seed=6)
        overrides = {"n_trees": 9} if kind == "random_forest" else None
        trained = fit(ClassifierSpec.make(kind, overrides), train, seed=2)
        m = evaluate(predict(trained, test), test.y)
        assert m.accuracy >= 0.9

    def test_predict_accepts_raw_matrix(self):
        table = make_table(n=40, seed=7)
        trained = fit(ClassifierSpec.make("knn"), table)
        out = predict(trained, table.X.copy())
        assert np.array_equal(out, predict(trained, table))

    def test_predict_rejects_wrong_width(self):
        trained = fit(ClassifierSpec.make("knn"), make_table(n=20))
        with pytest.raises(ChainlensError):
            predict(trained, np.zeros((2, 9)))
        with pytest.raises(ChainlensError):
            predict(trained, np.empty((0, 9)))

    def test_predict_rejects_1d(self):
        trained = fit(ClassifierSpec.make("knn"), make_table(n=20))
        with pytest.raises(ChainlensError):
            predict(trained, np.zeros(3))

    @pytest.mark.parametrize(
        "bad", [np.zeros(3), np.zeros((2, 9)), np.full((1, 3), np.inf)]
    )
    def test_predict_checks_input_as_the_model_does(self, bad):
        trained = fit(ClassifierSpec.make("knn"), make_table(n=20))
        with pytest.raises(ChainlensError) as by_model:
            trained.model.predict(bad)
        with pytest.raises(ChainlensError) as by_predict:
            predict(trained, bad)
        assert str(by_predict.value) == str(by_model.value)

    def test_predict_empty_is_empty(self):
        trained = fit(ClassifierSpec.make("knn"), make_table(n=20))
        assert predict(trained, np.empty((0, 3))).shape == (0,)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ChainlensError):
            ClassifierSpec.make("nearest_centroid")

    def test_bad_setting_rejected_when_the_spec_is_made(self):
        with pytest.raises(ChainlensError, match=r"^random_forest needs n_trees >= 1, got 0$"):
            ClassifierSpec.make("random_forest", {"n_trees": 0})


class TestEvaluate:
    def test_hand_confusion_table(self):
        # TP=3, FP=1, TN=5, FN=1
        predicted = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        truth = np.array([1, 1, 1, 0, 1, 0, 0, 0, 0, 0])
        m = evaluate(predicted, truth)
        assert m.counts == ConfusionCounts(tp=3, tn=5, fp=1, fn=1)
        assert m.precision == 0.75
        assert m.recall == 0.75
        assert m.accuracy == 0.8
        assert m.f1 == 0.75
        assert not m.zero_division_hit

    def test_never_positive_predictor_zeroes_out(self):
        predicted = np.zeros(10, dtype=int)
        truth = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
        m = evaluate(predicted, truth)
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
        assert m.zero_division_hit
        assert m.accuracy == 0.8

    def test_perfect_predictions(self):
        truth = np.array([0, 1, 1, 0, 1])
        m = evaluate(truth.copy(), truth)
        assert (m.precision, m.recall, m.accuracy, m.f1) == (1.0, 1.0, 1.0, 1.0)
        assert not m.zero_division_hit

    def test_metric_identities_on_random_tables(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 20, size=4))
            if tp + tn + fp + fn == 0:
                continue
            m = metrics_from_counts(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
            assert m.precision == (tp / (tp + fp) if tp + fp else 0.0)
            assert m.recall == (tp / (tp + fn) if tp + fn else 0.0)
            assert m.accuracy == (tp + tn) / (tp + tn + fp + fn)
            if m.precision + m.recall > 0:
                expected_f1 = 2 * m.precision * m.recall / (m.precision + m.recall)
                assert m.f1 == expected_f1
            else:
                assert m.f1 == 0.0 and m.zero_division_hit

    def test_empty_and_mismatched_inputs_rejected(self):
        with pytest.raises(ChainlensError):
            evaluate(np.array([]), np.array([]))
        with pytest.raises(ChainlensError):
            evaluate(np.array([1, 0]), np.array([1]))
        with pytest.raises(ChainlensError):
            metrics_from_counts(ConfusionCounts(tp=0, tn=0, fp=0, fn=0))


def volume_stats(mean, std):
    """One coin's volume (means, stds) pair; None is absent."""
    return (np.array([mean], dtype=np.float64), np.array([std], dtype=np.float64))


def flags_of(snapshot, volume=None):
    """The flags raised on a one-row panel holding ``snapshot``."""
    with warnings.catch_warnings():  # circulating over a zero total is a supply note
        warnings.simplefilter("ignore", DataQualityWarning)
        ds = Dataset.build([snapshot])
    masks = manipulability_flags(ds, np.array([0]), volume or volume_stats(None, None))
    return {name for name, mask in masks.items() if mask[0]}


class TestManipulabilityFlags:
    def snapshot(self, **overrides):
        fields = dict(
            max_supply=1000.0,
            total_supply=100.0,
            circulating_supply=95.0,
        )
        fields.update(overrides)
        return CoinSnapshot("X_x", d("2021-06-01"), **fields)

    def test_clean_coin_has_no_flags(self):
        flags = flags_of(self.snapshot(), volume_stats(10.0, 2.0))
        assert flags == set()

    def test_low_circulating_share(self):
        snap = self.snapshot(circulating_supply=19.0)
        flags = flags_of(snap, volume_stats(10.0, 2.0))
        assert flags == {"low_circulation"}

    def test_missing_max_supply(self):
        snap = self.snapshot(max_supply=None)
        flags = flags_of(snap, volume_stats(10.0, 2.0))
        assert flags == {"unlimited_issuance"}

    def test_missing_supply_data(self):
        snap = self.snapshot(total_supply=None)
        flags = flags_of(snap, volume_stats(10.0, 2.0))
        assert flags == {"insufficient_data_circulation"}

    @pytest.mark.parametrize(
        "overrides",
        [{"total_supply": 0.0}, {"circulating_supply": None}],
        ids=["total-zero", "circulating-absent"],
    )
    def test_no_supply_ratio(self, overrides):
        snap = self.snapshot(**overrides)
        flags = flags_of(snap, volume_stats(10.0, 2.0))
        assert flags == {"insufficient_data_circulation"}

    def test_volatile_volume(self):
        flags = flags_of(self.snapshot(), volume_stats(10.0, 15.0))
        assert flags == {"volatile_volume"}

    def test_missing_volume_stats(self):
        assert flags_of(self.snapshot()) == {"insufficient_data_volume"}
        flags = flags_of(self.snapshot(), volume_stats(10.0, None))
        assert flags == {"insufficient_data_volume"}

    def test_flags_combine(self):
        snap = self.snapshot(max_supply=None, circulating_supply=10.0)
        flags = flags_of(snap, volume_stats(10.0, 50.0))
        assert flags == {"unlimited_issuance", "low_circulation", "volatile_volume"}

    def test_every_flag_has_a_mask_over_the_rows(self):
        ds = Dataset.build(
            [self.snapshot(), self.snapshot()._replace(key="Y_y", max_supply=None)]
        )
        volume = (np.array([10.0, 10.0]), np.array([2.0, 50.0]))
        masks = manipulability_flags(ds, np.array([1, 0]), volume)
        assert set(masks) == {
            "unlimited_issuance",
            "low_circulation",
            "insufficient_data_circulation",
            "volatile_volume",
            "insufficient_data_volume",
        }
        assert all(mask.dtype == bool and mask.shape == (2,) for mask in masks.values())
        assert masks["unlimited_issuance"].tolist() == [True, False]
        assert masks["volatile_volume"].tolist() == [True, False]

    def test_thresholds_are_strict(self):
        # a ptsc of exactly 0.5 and a volume std of exactly the mean flag nothing
        snap = self.snapshot(circulating_supply=50.0)
        assert flags_of(snap, volume_stats(10.0, 10.0)) == set()


class TestModelPersistence:
    @pytest.mark.parametrize("kind", sorted(CLASSIFIER_KINDS))
    def test_round_trip_predictions(self, kind, tmp_path):
        table = make_table(n=50, seed=9)
        overrides = {"n_trees": 5} if kind == "random_forest" else None
        trained = fit(ClassifierSpec.make(kind, overrides), table, seed=4)
        path = tmp_path / f"{kind}.json"
        save_model(trained, path)
        loaded = load_model(path)
        probe = np.random.default_rng(10).normal(2.5, 3.0, size=(40, 3))
        assert np.array_equal(predict(loaded, probe), predict(trained, probe))
        assert loaded.spec.kind == kind
        assert loaded.feature_names == trained.feature_names
        assert loaded.seed == 4
        assert type(loaded.model) is type(trained.model)
        for name, value in vars(trained.model).items():
            assert_same_value(getattr(loaded.model, name), value)
        for name in ("means", "scales"):
            assert_same_value(
                getattr(loaded.normalizer, name), getattr(trained.normalizer, name)
            )
        again = tmp_path / f"{kind}.again.json"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("kind", ["decision_tree", "random_forest"])
    def test_trees_keep_their_narrow_dtypes_through_a_file(self, kind, tmp_path):
        # a fitted tree holds format 2's arrays, dtype included, and
        # loads back as it was fitted; both still predict int64 labels
        table = make_table(n=50, seed=9)
        overrides = {"n_trees": 5} if kind == "random_forest" else None
        trained = fit(ClassifierSpec.make(kind, overrides), table, seed=4)
        path = tmp_path / f"{kind}.json"
        save_model(trained, path)
        loaded = load_model(path)
        doc = json.loads(path.read_text())["parameters"]
        fitted_trees = trained.model.trees if kind == "random_forest" else (trained.model.tree,)
        loaded_trees = loaded.model.trees if kind == "random_forest" else (loaded.model.tree,)
        stored_trees = doc["trees"] if kind == "random_forest" else [doc["tree"]]
        for fitted, again, stored in zip(fitted_trees, loaded_trees, stored_trees, strict=True):
            assert_same_value(again, fitted)
            assert fitted["feature"].dtype == fitted["label"].dtype == np.int8
            for name, array in fitted.items():
                assert array.dtype == np.dtype(stored[name]["dtype"])
        probe = np.random.default_rng(10).normal(2.5, 3.0, size=(40, 3))
        for model in (trained.model, loaded.model):
            assert model.predict(probe).dtype == np.int64

    @pytest.mark.parametrize("kind", ["decision_tree", "random_forest"])
    def test_tree_fixtures_load_their_stored_values_and_dtypes(self, kind):
        doc = json.loads((MODEL_FIXTURES / f"{kind}.json").read_text())["parameters"]
        model = load_model(MODEL_FIXTURES / f"{kind}.json").model
        stored_trees = doc["trees"] if kind == "random_forest" else [doc["tree"]]
        trees = model.trees if kind == "random_forest" else (model.tree,)
        for tree, stored in zip(trees, stored_trees, strict=True):
            for name, blob in stored.items():
                assert np.array_equal(tree[name], unblob(blob))
                assert tree[name].dtype == np.dtype(blob["dtype"])
        X = np.random.default_rng(12).normal(size=(20, model.n_features))
        assert model.predict(X).dtype == np.int64

    @pytest.mark.parametrize("kind", sorted(CLASSIFIER_KINDS))
    def test_streamed_file_equals_one_shot_dump(self, kind, tmp_path):
        table = make_table(n=60, seed=13, separation=1.0)
        overrides = {"n_trees": 7} if kind == "random_forest" else None
        trained = fit(ClassifierSpec.make(kind, overrides), table, seed=2)
        save_model(trained, tmp_path / "streamed.json")
        oracle_save_model(trained, tmp_path / "one_shot.json")
        streamed = (tmp_path / "streamed.json").read_bytes()
        assert streamed == (tmp_path / "one_shot.json").read_bytes()

    @pytest.mark.parametrize("kind", sorted(CLASSIFIER_KINDS))
    def test_file_of_the_one_shot_writer_saves_again_unchanged(self, kind, tmp_path):
        source = MODEL_FIXTURES / f"{kind}.json"
        path = tmp_path / f"{kind}.json"
        save_model(load_model(source), path)
        assert path.read_bytes() == source.read_bytes()

    def test_file_is_compact_canonical_json(self, tmp_path):
        trained = fit(ClassifierSpec.make("decision_tree"), make_table(n=30))
        path = tmp_path / "model.json"
        save_model(trained, path)
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert text == json.dumps(doc, separators=(",", ":"), sort_keys=True)

    def test_indented_file_of_the_previous_writer_loads(self, tmp_path):
        trained = fit(ClassifierSpec.make("decision_tree"), make_table(n=30))
        path = tmp_path / "model.json"
        save_model(trained, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
        loaded = load_model(path)
        probe = np.random.default_rng(11).normal(2.5, 3.0, size=(40, 3))
        assert np.array_equal(predict(loaded, probe), predict(trained, probe))

    def test_unsupported_version_rejected(self, tmp_path):
        trained = fit(ClassifierSpec.make("knn"), make_table(n=20))
        path = tmp_path / "model.json"
        save_model(trained, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ChainlensError) as raised:
            load_model(path)
        assert str(raised.value) == (
            f"model file {path}: unsupported model format version 99; expected 2"
        )

    # 1.0 and "1" are not format 1: only the integer 1 is refused as it
    @pytest.mark.parametrize("version", [True, 1.0, "1", 2.0, "2", None])
    def test_format_version_must_be_an_integer(self, tmp_path, version):
        doc = json.loads((MODEL_FIXTURES / "knn.json").read_text())
        doc["format_version"] = version
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ChainlensError, match="unsupported model format version"):
            load_model(path)

    @pytest.mark.parametrize("kind", sorted(CLASSIFIER_KINDS))
    def test_format_1_file_refused(self, tmp_path, kind):
        doc = json.loads((MODEL_FIXTURES / f"{kind}.json").read_text())
        doc["format_version"] = 1
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ChainlensError) as raised:
            load_model(path)
        assert str(raised.value) == (
            f"model file {path}: model format 1 is no longer read; rerun classify"
        )

    # a format-1 file is refused as such whatever else is wrong with it
    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.pop("seed"),
            lambda d: d.update(left=[]),
            lambda d: d["parameters"].update(tree={"left": [1], "right": [2]}),
        ],
    )
    def test_format_1_refused_before_other_checks(self, tmp_path, edit):
        doc = json.loads((MODEL_FIXTURES / "decision_tree.json").read_text())
        doc["format_version"] = 1
        edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ChainlensError, match="model format 1 is no longer read"):
            load_model(path)

    def test_unknown_kind_in_file_rejected(self, tmp_path):
        trained = fit(ClassifierSpec.make("knn"), make_table(n=20))
        path = tmp_path / "model.json"
        save_model(trained, path)
        doc = json.loads(path.read_text())
        doc["kind"] = "oracle"
        path.write_text(json.dumps(doc))
        with pytest.raises(ChainlensError, match="unknown classifier kind 'oracle' in model file"):
            load_model(path)

    @pytest.mark.parametrize(
        "section, edit, message",
        [
            ("parameters", lambda d: d.pop("train_y"), "missing field 'train_y'"),
            ("parameters", lambda d: d.update(bias=0.0), "unknown field 'bias'"),
            ("normalizer", lambda d: d.pop("scales"), "missing field 'scales'"),
            ("normalizer", lambda d: d.update(shift=[1.0]), "unknown field 'shift'"),
            (None, lambda d: d.pop("parameters"), "lacks parameters"),
            (None, lambda d: d.pop("feature_names"), "lacks feature_names"),
            (None, lambda d: d.pop("seed"), "lacks seed"),
            (None, lambda d: d.pop("kind"), "lacks kind"),
            (None, lambda d: d.pop("hyperparameters"), "lacks hyperparameters"),
            (None, lambda d: d.pop("normalizer"), "lacks normalizer"),
            (None, lambda d: d.pop("format_version"), "unsupported model format version None"),
            (None, lambda d: d.update(extra=1), "has unknown keys extra"),
            (None, lambda d: d.update(zeta=1, alpha=2), "has unknown keys alpha, zeta"),
        ],
    )
    def test_bad_field_set_in_file_rejected(self, tmp_path, section, edit, message):
        trained = fit(ClassifierSpec.make("knn"), make_table(n=20))
        path = tmp_path / "model.json"
        save_model(trained, path)
        doc = json.loads(path.read_text())
        edit(doc[section] if section else doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ChainlensError, match=message) as raised:
            load_model(path)
        assert str(path) in str(raised.value)

    @pytest.mark.parametrize(
        "kind, where, value, message",
        [
            ("decision_tree", ("parameters", "tree", "label"),
             lambda b: oracle_blob(unblob(b).astype(float)),
             "field 'tree' array 'label' must hold integers, not '<f8'"),
            ("decision_tree", ("parameters", "tree", "threshold"), "0.5",
             "field 'tree' array 'threshold' must be an array object"),
            ("decision_tree", ("parameters", "n_features"), 3.0,
             "field 'n_features' must be an integer"),
            ("random_forest", ("parameters", "trees"), [],
             "field 'trees' must be a nonempty list"),
            ("random_forest", ("parameters", "trees"), {"0": 1},
             "field 'trees' must be a nonempty list"),
            ("random_forest", ("parameters", "trees", 1), 0.5,
             "field 'trees' must be a tree of the arrays"),
            ("decision_tree", ("parameters", "n_features"), True,
             "field 'n_features' must be an integer"),
            ("linear_svm", ("parameters", "bias"), True, "field 'bias' must be a number"),
            ("knn", ("normalizer",), [1.0], "Normalizer document must be an object"),
            ("knn", ("parameters",), [], "KNNModel document must be an object"),
            ("logistic_regression", ("parameters", "bias"), [0.0],
             "field 'bias' must be a number"),
            ("logistic_regression", ("normalizer", "scales"), oracle_blob(np.ones(2)),
             "one mean and scale per feature"),
            ("knn", ("feature_names",), "f0f1f2", "feature_names must be a list of strings"),
            ("knn", ("feature_names", 0), 0, "feature_names must be a list of strings"),
            ("knn", ("hyperparameters",), [5], "hyperparameters must be an object"),
            ("knn", ("hyperparameters", "k"), None, "hyperparameters must be an object"),
            ("knn", ("hyperparameters", "p"), 2, "hyperparameters must be an object"),
            ("knn", ("hyperparameters", "k"), "5", "knn needs k >= 1"),
            ("knn", ("hyperparameters", "k"), 0, "knn needs k >= 1"),
            ("knn", ("parameters", "train_y"), lambda b: oracle_blob(unblob(b)[1:]),
             "one label per training row"),
            ("gaussian_nb", ("parameters", "priors"), lambda b: oracle_blob(unblob(b)[1:]),
             "a prior, means and variances"),
            ("knn", ("seed",), "4", "seed must be an integer"),
            ("knn", ("seed",), 4.0, "seed must be an integer"),
        ],
    )
    def test_bad_field_value_in_file_rejected(self, tmp_path, kind, where, value, message):
        # the value at ``where`` in a saved file is replaced (None: deleted;
        # a callable: applied to the value)
        overrides = {"n_trees": 3} if kind == "random_forest" else None
        trained = fit(ClassifierSpec.make(kind, overrides), make_table(n=30))
        path = tmp_path / "model.json"
        save_model(trained, path)
        doc = json.loads(path.read_text())
        *parents, last = where
        target = doc
        for key in parents:
            target = target[key]
        if value is None:
            del target[last]
        else:
            target[last] = value(target[last]) if callable(value) else value
        path.write_text(json.dumps(doc))
        with pytest.raises(ChainlensError, match=message) as raised:
            load_model(path)
        assert str(path) in str(raised.value)

    @pytest.mark.parametrize(
        "content", [b"{not json", b"", b"\xff\xfe{}", b"[1, 2]", b'"model"']
    )
    def test_non_json_or_non_object_file_rejected(self, tmp_path, content):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(ChainlensError, match="model file"):
            load_model(path)

    @pytest.mark.parametrize(
        "kind, where, edit, message",
        [
            ("knn", ("parameters", "train_X"), lambda b: {**b, "dtype": "<f4"},
             "field 'train_X' has unknown dtype '<f4'"),
            ("knn", ("parameters", "train_y"), lambda b: oracle_blob(unblob(b).astype(float)),
             "field 'train_y' must hold integers, not '<f8'"),
            ("logistic_regression", ("parameters", "weights"), lambda b: {**b, "dtype": "<i8"},
             "field 'weights' must hold floats, not '<i8'"),
            ("knn", ("parameters", "train_X"), lambda b: {**b, "shape": [50, 2]},
             "field 'train_X' holds 1200 bytes where its shape needs 800"),
            ("gaussian_nb", ("parameters", "priors"), lambda b: {**b, "data": "not base64!"},
             "field 'priors' data is not base64"),
            ("gaussian_nb", ("parameters", "priors"), lambda b: {**b, "data": 7},
             "field 'priors' data is not base64"),
            ("knn", ("parameters", "train_X"), lambda b: {**b, "shape": [150]},
             "field 'train_X' must be a 2-d array"),
            ("knn", ("parameters", "train_X"), lambda b: {**b, "shape": [-50, -3]},
             "field 'train_X' must be a 2-d array"),
            ("knn", ("parameters", "train_X"), lambda b: {**b, "shape": [50.0, 3]},
             "field 'train_X' must be a 2-d array"),
            ("knn", ("parameters", "train_X"), lambda b: {**b, "shape": "50x3"},
             "field 'train_X' must be a 2-d array"),
            ("logistic_regression", ("normalizer", "means"), lambda b: {**b, "shape": [3, 1]},
             "field 'means' must be a 1-d array"),
            ("gaussian_nb", ("parameters", "priors"), lambda b: {**b, "dtype": None},
             "field 'priors' has unknown dtype None"),
            ("knn", ("parameters", "train_X"), lambda b: unblob(b).tolist(),
             "field 'train_X' must be an array object"),
            ("logistic_regression", ("normalizer", "means"), lambda b: {**b, "order": "C"},
             "field 'means' must be an array object"),
            ("decision_tree", ("parameters", "tree", "threshold"), lambda b: {**b, "dtype": "<i8"},
             "field 'tree' array 'threshold' must hold floats, not '<i8'"),
            ("random_forest", ("parameters", "trees", 1, "label"), lambda b: {**b, "dtype": "<u1"},
             "field 'trees' array 'label' has unknown dtype '<u1'"),
            ("random_forest", ("parameters", "trees", 0, "feature"),
             lambda b: oracle_blob(unblob(b).astype(float)),
             "field 'trees' array 'feature' must hold integers, not '<f8'"),
            ("decision_tree", ("parameters", "tree", "threshold"),
             lambda b: oracle_blob(unblob(b)[:-1]), "holds 6 thresholds for 7 split nodes"),
            ("random_forest", ("parameters", "trees", 2, "label"),
             lambda b: oracle_blob(np.append(unblob(b), 1)), "holds 10 labels for 9 leaves"),
            ("decision_tree", ("parameters", "tree"), lambda t: {**t, "left": t["label"]},
             "field 'tree' must be a tree of the arrays feature, label and threshold"),
            # node 1 is the first split node, so its implied children are 1 and 2
            ("decision_tree", ("parameters", "tree"),
             lambda t: tree_doc(compact_tree([-1, 0, -1], [0.5], [0, 1])), "out of range"),
            # node 3 is no node's child
            ("decision_tree", ("parameters", "tree"),
             lambda t: tree_doc(compact_tree([0, -1, -1, -1], [0.5], [0, 1, 0])),
             "exactly one parent"),
        ],
    )
    def test_bad_array_in_format_2_file_rejected(self, tmp_path, kind, where, edit, message):
        doc = json.loads((MODEL_FIXTURES / f"{kind}.json").read_text())
        *parents, last = where
        target = doc
        for key in parents:
            target = target[key]
        target[last] = edit(target[last])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ChainlensError, match=message) as raised:
            load_model(path)
        assert str(path) in str(raised.value)

    @pytest.mark.parametrize("kind", ["decision_tree", "random_forest"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: {**t, "threshold": t["threshold"][:-1]},
             r"field 'trees?' holds \d+ thresholds for \d+ split nodes"),
            (lambda t: {**t, "label": np.append(t["label"], 1)},
             r"field 'trees?' holds \d+ labels for \d+ leaves"),
            (lambda t: {**t, "threshold": at(0, np.inf)(t["threshold"])},
             r"field 'trees?' array 'threshold' must be finite"),
            (lambda t: {**t, "feature": set_int(t["feature"], 0, 3)}, "out of range"),
            (lambda t: {**t, "feature": set_int(t["feature"], -1, -2)}, "out of range"),
            # node 1 is the first split node, so its implied children are 1 and 2
            (lambda t: compact_tree([-1, 0, -1], [0.5], [0, 1]), "out of range"),
            # node 3 is no node's child
            (lambda t: compact_tree([0, -1, -1, -1], [0.5], [0, 1, 0]), "exactly one parent"),
            (lambda t: compact_tree([], [], []), "exactly one parent"),
        ],
    )
    def test_malformed_tree_in_memory_rejected_as_in_format_2_file(
        self, tmp_path, kind, edit, message
    ):
        source = MODEL_FIXTURES / f"{kind}.json"
        model = load_model(source).model
        doc = json.loads(source.read_text())
        if kind == "random_forest":
            trees = model.trees[:-1] + (edit(model.trees[-1]),)
            doc["parameters"]["trees"][-1] = tree_doc(trees[-1])
        else:
            tree = edit(model.tree)
            doc["parameters"]["tree"] = tree_doc(tree)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ChainlensError, match=message) as from_file:
            load_model(path)
        with pytest.raises(ChainlensError) as in_memory:
            if kind == "random_forest":
                RandomForestModel(trees, model.n_features, model.hyperparameters)
            else:
                DecisionTreeModel(tree, model.n_features, model.hyperparameters)
        assert str(from_file.value) == f"model file {path}: {in_memory.value}"

    @pytest.mark.parametrize(
        "kind, where, change, message",
        [
            ("decision_tree", ("parameters", "tree", "threshold"), at(0, np.nan),
             "field 'tree' array 'threshold' must be finite"),
            ("random_forest", ("parameters", "trees", 4, "threshold"), at(0, -np.inf),
             "field 'trees' array 'threshold' must be finite"),
            ("knn", ("parameters", "train_X"), at((0, 1), np.inf),
             "field 'train_X' must be finite"),
            ("linear_svm", ("parameters", "weights"), at(2, np.nan),
             "field 'weights' must be finite"),
            ("linear_svm", ("parameters", "bias"), lambda bias: np.inf,
             "field 'bias' must be finite"),
            ("gaussian_nb", ("parameters", "variances"), at((1, 0), -1.0),
             "field 'variances' must be > 0"),
            ("gaussian_nb", ("parameters", "priors"), at(0, 0.0),
             "field 'priors' must be > 0"),
            ("gaussian_nb", ("parameters", "means"), at((0, 2), np.nan),
             "field 'means' must be finite"),
            ("logistic_regression", ("normalizer", "scales"), at(2, 0.0),
             "field 'scales' must be > 0"),
            ("logistic_regression", ("normalizer", "means"), at(0, -np.inf),
             "field 'means' must be finite"),
            # the model is wider or narrower than its feature names
            ("knn", ("parameters", "train_X"), lambda a: a[:, :2],
             "the model takes 2 features, but feature_names names 3"),
            ("logistic_regression", ("parameters", "weights"), lambda a: np.append(a, 1.0),
             "the model takes 4 features, but feature_names names 3"),
            ("decision_tree", ("parameters", "n_features"), lambda n: 4,
             "the model takes 4 features, but feature_names names 3"),
            ("random_forest", ("parameters", "trees"), lambda trees: trees[:2],
             "random_forest holds 2 trees, but n_trees is 5"),
        ],
    )
    def test_bad_value_in_fixture_rejected(self, tmp_path, kind, where, change, message):
        # ``change`` takes and gives an array, decoded from a blob, or
        # else the JSON value
        doc = json.loads((MODEL_FIXTURES / f"{kind}.json").read_text())
        *parents, last = where
        target = doc
        for key in parents:
            target = target[key]
        value = target[last]
        if isinstance(value, dict):
            target[last] = oracle_blob(change(unblob(value)))
        else:
            target[last] = change(value)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ChainlensError, match=message) as raised:
            load_model(path)
        assert str(path) in str(raised.value)

    @pytest.mark.parametrize(
        "kind, where, change, message",
        [
            # from_doc rejects a field value
            ("knn", ("parameters", "train_X"), lambda blob: [1.0],
             "KNNModel document: field 'train_X' must be an array object of data, dtype and shape"),
            # the model's __post_init__ rejects the values
            ("random_forest", ("parameters", "trees"), lambda trees: trees[:2],
             "random_forest holds 2 trees, but n_trees is 5"),
            # a hyperparameter that the fitters would have rejected
            ("logistic_regression", ("hyperparameters", "learning_rate"), lambda v: -1,
             "logistic_regression needs learning_rate finite and > 0, got -1"),
            ("linear_svm", ("hyperparameters", "iterations"), lambda v: "x",
             "linear_svm needs an integer iterations >= 0, got 'x'"),
            ("decision_tree", ("hyperparameters", "max_depth"), lambda v: -2,
             "decision_tree needs max_depth None or >= 0, got -2"),
            ("random_forest", ("hyperparameters", "bootstrap"), lambda v: 1,
             "random_forest needs bootstrap true or false, got 1"),
            ("gaussian_nb", ("hyperparameters", "var_smoothing"), lambda v: 1e400,
             "gaussian_nb needs var_smoothing finite and >= 0, got inf"),
        ],
    )
    def test_errors_under_load_model_name_the_file(self, tmp_path, kind, where, change, message):
        doc = json.loads((MODEL_FIXTURES / f"{kind}.json").read_text())
        section, name = where
        doc[section][name] = change(doc[section][name])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ChainlensError) as raised:
            load_model(path)
        assert str(raised.value) == f"model file {path}: {message}"

    @pytest.mark.parametrize(
        "values, dtype",
        [
            ([], "<i1"),
            ([0, 1, 1], "<i1"),
            ([-128, 127], "<i1"),
            ([-129, 0], "<i2"),
            ([32767, 32768], "<i4"),
            ([-(2**31) - 1], "<i8"),
            ([2**63 - 1, -(2**63)], "<i8"),
        ],
    )
    def test_integers_take_the_narrowest_dtype_and_load_back(self, values, dtype):
        labels = np.array(values, dtype=np.int64)
        blob = json.loads(json.dumps(labels, default=jsonable))
        assert blob == oracle_blob(labels)
        assert blob["dtype"] == dtype
        doc = {"train_X": oracle_blob(np.zeros((len(values), 2))), "train_y": blob}
        model = from_doc(KNNModel, doc, hyperparameters={"k": 1})
        assert_same_value(model.train_y, labels)

    def test_floats_load_back_bit_for_bit(self):
        train_X = np.array(
            [[-0.0, 5e-324], [1.7976931348623157e308, -2.2250738585072014e-308], [0.1, 1 / 3]]
        )
        text = json.dumps(KNNModel(train_X, np.array([0, 1, 1]), {"k": 1}), default=jsonable)
        model = from_doc(KNNModel, json.loads(text), hyperparameters={"k": 1})
        assert model.train_X.dtype == np.float64
        assert model.train_X.tobytes() == train_X.tobytes()

    def test_gaussian_nb_means_narrower_than_feature_names_rejected(self, tmp_path):
        doc = json.loads((MODEL_FIXTURES / "gaussian_nb.json").read_text())
        for name in ("means", "variances"):
            doc["parameters"][name] = oracle_blob(unblob(doc["parameters"][name])[:, 1:])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ChainlensError, match="takes 2 features, but feature_names names 3"):
            load_model(path)


class TestMetricsCsv:
    def test_header_and_rows(self, tmp_path, monkeypatch):
        # the classify stage's metrics.csv, with every score fixed to m
        m = evaluate(np.array([1, 0, 1]), np.array([1, 0, 0]))
        monkeypatch.setattr("chainlens.cli.evaluate", lambda predicted, truth: m)
        save_csv(
            generate_synthetic(
                SyntheticSpec(n_coins=20, disappeared_fraction=0.4, horizon_days=200)
            ),
            tmp_path / "dataset.csv",
        )
        run("classify", RunConfig(out=str(tmp_path), classifier="knn", format="csv"))
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "classifier,precision,recall,f1,accuracy"
        assert len(lines) == 2
        # predicted [1,0,1] vs truth [1,0,0]: precision 1/2, recall 1/1
        assert lines[1] == "knn,0.5,1.0,0.6666666666666666,0.6666666666666666"
