"""Labeling, splitting, training, evaluation, and flag heuristics."""

import datetime as dt
import json

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
    save_metrics_csv,
    save_model,
    train_test_split,
)
from chainlens.classifiers import CLASSIFIER_KINDS
from chainlens.cleaning import AggregateFeatures, ColumnStats
from chainlens.dataset import CoinSnapshot, Dataset
from chainlens.errors import ChainlensError, DataQualityWarning


def d(text):
    return dt.date.fromisoformat(text)


def make_table(n=80, seed=0, n_coins=8, n_features=3, separation=5.0):
    """Blob-labeled table: label 1 rows sit `separation` away from label 0."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    X = rng.normal(size=(n, n_features)) + separation * y[:, None]
    keys = tuple(f"K{i % n_coins}_coin" for i in range(n))
    row_ids = tuple(f"{keys[i]}@2021-01-{(i % 28) + 1:02d}" for i in range(n))
    return LabeledTable(
        feature_names=tuple(f"f{j}" for j in range(n_features)),
        row_ids=row_ids,
        keys=keys,
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
        table = label_risky(labeled_fixture_dataset(), cutoff=d("2021-03-01"))
        assert table.row_ids == (
            "AAA_alpha@2021-01-01",
            "AAA_alpha@2021-01-02",
            "BBB_beta@2021-01-01",
            "BBB_beta@2021-03-01",
        )
        assert table.keys == ("AAA_alpha", "AAA_alpha", "BBB_beta", "BBB_beta")
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
        assert table.row_ids == (
            "AAA_alpha@2021-01-01",
            "AAA_alpha@2021-01-02",
            "BBB_beta@2021-01-01",
        )
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
        table, (before, after_rule, after) = prepare_features(
            labeled_fixture_dataset()
        )
        assert table.column_names == CLASSIFY_FEATURES
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
            table, (before, _, _) = prepare_features(ds)
        assert len(caught) == 1 and "2 value(s)" in str(caught[0].message)
        assert before["ptsc"] == 2
        # the two holes take the mean of the one defined ratio
        assert table.column("ptsc").tolist() == [0.5, 0.5, 0.5]


class TestLabeledTable:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ChainlensError):
            LabeledTable(
                feature_names=("a", "b"),
                row_ids=("r1",),
                keys=("k",),
                X=np.zeros((1, 3)),
                y=np.zeros(1, dtype=np.int64),
            )

    def test_nan_rows_rejected(self):
        with pytest.raises(ChainlensError):
            LabeledTable(
                feature_names=("a",),
                row_ids=("r1",),
                keys=("k",),
                X=np.array([[np.nan]]),
                y=np.zeros(1, dtype=np.int64),
            )

    def test_take_preserves_alignment(self):
        table = make_table(n=10)
        sub = table.take([1, 4, 7])
        assert sub.row_ids == tuple(table.row_ids[i] for i in (1, 4, 7))
        assert sub.y.tolist() == [table.y[i] for i in (1, 4, 7)]
        assert np.array_equal(sub.X, table.X[[1, 4, 7]])


class TestTrainTestSplit:
    def test_sizes_disjoint_exhaustive(self):
        table = make_table(n=10)
        train, test = train_test_split(table, 0.8, seed=3)
        assert train.n_rows == 8 and test.n_rows == 2
        assert set(train.row_ids) | set(test.row_ids) == set(table.row_ids)
        assert set(train.row_ids) & set(test.row_ids) == set()

    def test_row_order_is_preserved_within_sides(self):
        table = make_table(n=30)
        train, test = train_test_split(table, 0.5, seed=1)
        position = {rid: i for i, rid in enumerate(table.row_ids)}
        assert sorted(train.row_ids, key=position.get) == list(train.row_ids)
        assert sorted(test.row_ids, key=position.get) == list(test.row_ids)

    def test_same_seed_same_split(self):
        table = make_table(n=40)
        a_train, _ = train_test_split(table, 0.7, seed=11)
        b_train, _ = train_test_split(table, 0.7, seed=11)
        assert a_train.row_ids == b_train.row_ids

    def test_different_seeds_differ(self):
        table = make_table(n=100)
        a_train, _ = train_test_split(table, 0.5, seed=0)
        b_train, _ = train_test_split(table, 0.5, seed=1)
        assert a_train.row_ids != b_train.row_ids

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
        assert set(train.keys) & set(test.keys) == set()
        assert len(set(train.keys)) == 8 and len(set(test.keys)) == 2
        assert train.n_rows + test.n_rows == 80

    def test_group_split_needs_multiple_coins(self):
        table = make_table(n=10, n_coins=1)
        with pytest.raises(ChainlensError):
            train_test_split(table, 0.5, group_by_coin=True)


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

    def test_doc_round_trip(self):
        norm = Normalizer.fit(np.random.default_rng(0).normal(size=(10, 3)))
        again = Normalizer.from_doc(json.loads(json.dumps(norm.as_doc())))
        assert np.array_equal(norm.means, again.means)
        assert np.array_equal(norm.scales, again.scales)


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

    def test_predict_rejects_1d(self):
        trained = fit(ClassifierSpec.make("knn"), make_table(n=20))
        with pytest.raises(ChainlensError):
            predict(trained, np.zeros(3))

    def test_predict_empty_is_empty(self):
        trained = fit(ClassifierSpec.make("knn"), make_table(n=20))
        assert predict(trained, np.empty((0, 3))).shape == (0,)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ChainlensError):
            ClassifierSpec.make("nearest_centroid")


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


def volume_stats(mean, std, count=30):
    filler = ColumnStats(mean=None, std=None, count=0)
    return AggregateFeatures(
        key="X_x",
        price=filler,
        max_supply=filler,
        total_supply=filler,
        volume_24h=ColumnStats(mean=mean, std=std, count=count),
        ptsc=filler,
    )


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
        flags = manipulability_flags(self.snapshot(), volume_stats(10.0, 2.0))
        assert flags == frozenset()

    def test_low_circulating_share(self):
        snap = self.snapshot(circulating_supply=19.0)
        flags = manipulability_flags(snap, volume_stats(10.0, 2.0))
        assert flags == {"low_circulation"}

    def test_missing_max_supply(self):
        snap = self.snapshot(max_supply=None)
        flags = manipulability_flags(snap, volume_stats(10.0, 2.0))
        assert flags == {"unlimited_issuance"}

    def test_missing_supply_data(self):
        snap = self.snapshot(total_supply=None)
        flags = manipulability_flags(snap, volume_stats(10.0, 2.0))
        assert flags == {"insufficient_data_circulation"}

    def test_volatile_volume(self):
        flags = manipulability_flags(self.snapshot(), volume_stats(10.0, 15.0))
        assert flags == {"volatile_volume"}

    def test_missing_volume_stats(self):
        assert manipulability_flags(self.snapshot()) == {"insufficient_data_volume"}
        flags = manipulability_flags(self.snapshot(), volume_stats(10.0, None))
        assert flags == {"insufficient_data_volume"}

    def test_flags_combine(self):
        snap = self.snapshot(max_supply=None, circulating_supply=10.0)
        flags = manipulability_flags(snap, volume_stats(10.0, 50.0))
        assert flags == {"unlimited_issuance", "low_circulation", "volatile_volume"}

    def test_thresholds_are_tunable(self):
        snap = self.snapshot(circulating_supply=60.0)
        strict = manipulability_flags(
            snap, volume_stats(10.0, 2.0), ptsc_threshold=0.7
        )
        assert strict == {"low_circulation"}
        loose = manipulability_flags(
            self.snapshot(), volume_stats(10.0, 2.0), volume_ratio_threshold=0.1
        )
        assert loose == {"volatile_volume"}


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
        with pytest.raises(ChainlensError):
            load_model(path)

    def test_unknown_kind_in_file_rejected(self, tmp_path):
        trained = fit(ClassifierSpec.make("knn"), make_table(n=20))
        path = tmp_path / "model.json"
        save_model(trained, path)
        doc = json.loads(path.read_text())
        doc["kind"] = "oracle"
        path.write_text(json.dumps(doc))
        with pytest.raises(ChainlensError):
            load_model(path)


class TestMetricsCsv:
    def test_header_and_rows(self, tmp_path):
        m = evaluate(np.array([1, 0, 1]), np.array([1, 0, 0]))
        path = tmp_path / "metrics.csv"
        save_metrics_csv([("knn", m), ("linear_svm", m)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "classifier,precision,recall,f1,accuracy"
        assert len(lines) == 3
        # predicted [1,0,1] vs truth [1,0,0]: precision 1/2, recall 1/1
        assert lines[1] == "knn,0.5,1.0,0.6666666666666666,0.6666666666666666"
