"""Algorithm-level checks for the six classifiers."""

import json
import tracemalloc

import numpy as np
import pytest

from chainlens import classifiers
from chainlens.classifiers import (
    KINDS,
    _build_trees,
    _presort,
    fit_classifier,
    fit_decision_tree,
    fit_gaussian_nb,
    fit_knn,
    fit_random_forest,
    jsonable,
    logistic_loss_and_gradient,
    resolve_hyperparameters,
)
from chainlens.errors import ChainlensError
from oracles import (
    level_order,
    oracle_blob,
    oracle_build_tree,
    oracle_compact,
    oracle_forest_trees,
    oracle_knn_predict,
    oracle_level_tree,
)


LINEAR_KINDS = ("logistic_regression", "linear_svm")


def two_blobs(rng, n_per=60, separation=6.0, d=4):
    a = rng.normal(loc=0.0, size=(n_per, d))
    b = rng.normal(loc=separation, size=(n_per, d))
    X = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per)
    return X, y


def central_difference_gradient(params, X, y, l2, h=1e-6):
    grad = np.empty_like(params)
    for i in range(params.shape[0]):
        plus = params.copy()
        minus = params.copy()
        plus[i] += h
        minus[i] -= h
        loss_plus, _ = logistic_loss_and_gradient(plus, X, y, l2)
        loss_minus, _ = logistic_loss_and_gradient(minus, X, y, l2)
        grad[i] = (loss_plus - loss_minus) / (2.0 * h)
    return grad


class TestLogisticRegression:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            d = int(rng.integers(1, 7))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n)
            params = rng.normal(size=d + 1)
            _, analytic = logistic_loss_and_gradient(params, X, y, 1e-4)
            numeric = central_difference_gradient(params, X, y, 1e-4)
            denom = max(np.linalg.norm(analytic), 1e-12)
            assert np.linalg.norm(analytic - numeric) / denom <= 1e-6

    def test_learns_separable_blobs(self):
        rng = np.random.default_rng(2)
        X, y = two_blobs(rng)
        model = fit_classifier("logistic_regression", X, y)
        assert np.mean(model.predict(X) == y) >= 0.99

    def test_single_class_rejected(self):
        X = np.zeros((5, 2))
        with pytest.raises(ChainlensError):
            fit_classifier("logistic_regression", X, np.ones(5, dtype=int))


class TestLinearSVM:
    def test_learns_separable_blobs(self):
        rng = np.random.default_rng(3)
        X, y = two_blobs(rng)
        model = fit_classifier("linear_svm", X, y)
        assert np.mean(model.predict(X) == y) >= 0.99

    def test_single_class_rejected(self):
        with pytest.raises(ChainlensError):
            fit_classifier("linear_svm", np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X, y = two_blobs(rng, n_per=30)
        a = fit_classifier("linear_svm", X, y)
        b = fit_classifier("linear_svm", X, y)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias


class TestDecisionTree:
    def test_single_split_on_1d_separable(self):
        X = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        model = fit_decision_tree(X, y, KINDS["decision_tree"].defaults)
        assert np.array_equal(model.predict(X), y)
        # one internal node splitting at the midpoint of -1 and 1
        internal = model.tree["feature"] >= 0
        assert internal.sum() == 1
        assert model.tree["threshold"].tolist() == [0.0]

    def test_grows_two_levels_when_first_split_gains(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([0, 0, 1, 1, 0, 0])
        model = fit_decision_tree(X, y, KINDS["decision_tree"].defaults)
        assert np.array_equal(model.predict(X), y)
        assert (model.tree["feature"] >= 0).sum() == 2

    def test_zero_gain_split_becomes_majority_leaf(self):
        # XOR: no single axis split lowers Gini, so the root stays a leaf
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        model = fit_decision_tree(X, y, KINDS["decision_tree"].defaults)
        assert np.all(model.tree["feature"] == -1)
        assert np.array_equal(model.predict(X), np.zeros(4, dtype=int))

    def test_min_samples_split_stops_growth(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0, 1])
        hp = dict(KINDS["decision_tree"].defaults, min_samples_split=10)
        model = fit_decision_tree(X, y, hp)
        assert np.all(model.tree["feature"] == -1)  # a single leaf
        # majority tie between the classes resolves to label 0
        assert np.array_equal(model.predict(X), np.zeros(4, dtype=int))

    def test_max_depth_cap(self):
        # y = 1 on the middle band; depth 1 allows only the first cut
        rng = np.random.default_rng(5)
        X = rng.uniform(-3.0, 3.0, size=(200, 1))
        y = (np.abs(X[:, 0]) < 1.0).astype(int)
        stump = fit_decision_tree(X, y, dict(KINDS["decision_tree"].defaults, max_depth=1))
        assert (stump.tree["feature"] >= 0).sum() == 1
        assert np.mean(stump.predict(X) == y) < 1.0
        full = fit_decision_tree(X, y, KINDS["decision_tree"].defaults)
        assert np.array_equal(full.predict(X), y)

    def test_single_class_rejected(self):
        with pytest.raises(ChainlensError):
            fit_decision_tree(np.zeros((4, 2)), np.ones(4, dtype=int), KINDS["decision_tree"].defaults)

    def test_adjacent_float_values_split_apart(self):
        # the midpoint of these two rounds up to the larger one
        low = np.nextafter(1.0, 2.0)
        X = np.array([[low], [np.nextafter(low, 2.0)]])
        y = np.array([0, 1])
        hp = dict(KINDS["decision_tree"].defaults, max_depth=1)
        model = fit_decision_tree(X, y, hp)
        assert np.array_equal(model.predict(X), y)

    def test_duplicate_feature_rows_fall_back_to_majority(self):
        X = np.array([[1.0], [1.0], [1.0]])
        y = np.array([0, 1, 1])
        model = fit_decision_tree(X, y, KINDS["decision_tree"].defaults)
        assert np.array_equal(model.predict(X), np.array([1, 1, 1]))


def tied_matrix(rng):
    """Small-integer features (heavy value ties), often with duplicate rows."""
    n = int(rng.integers(2, 60))
    d = int(rng.integers(1, 5))
    X = rng.integers(0, int(rng.integers(1, 5)), size=(n, d)).astype(np.float64)
    if rng.random() < 0.5:
        X = X[rng.integers(0, n, size=n)]
    y = rng.integers(0, 2, size=n)
    y[:2] = [0, 1]
    return X, y


def stored_dtype(array):
    """The dtype format 2 stores ``array`` as: float64, or the narrowest
    signed int that holds its values."""
    return np.dtype(oracle_blob(array)["dtype"])


def assert_same_tree(tree, expected):
    """``tree`` holds ``expected``'s values, each array in its stored dtype."""
    assert tree.keys() == expected.keys()
    for name, arr in expected.items():
        assert np.array_equal(tree[name], arr), name
        assert tree[name].dtype == stored_dtype(arr), name


def assert_compact(tree):
    """``tree`` holds exactly what format 2 stores: a feature per node, a
    threshold per split node and a label per leaf."""
    assert sorted(tree) == ["feature", "label", "threshold"]
    split = tree["feature"] >= 0
    assert tree["feature"].dtype == stored_dtype(tree["feature"]) and tree["feature"].ndim == 1
    assert tree["threshold"].dtype == np.float64
    assert tree["threshold"].shape == (split.sum(),)
    assert tree["label"].dtype == stored_dtype(tree["label"])
    assert tree["label"].shape == ((~split).sum(),)
    assert split.shape[0] == 2 * split.sum() + 1


class TestCompactTrees:
    """Every fitted tree holds format 2's three arrays and nothing more."""

    def test_decision_trees(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            X, y = tied_matrix(rng)
            assert_compact(fit_decision_tree(X, y, KINDS["decision_tree"].defaults).tree)

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_forest_trees(self, bootstrap):
        X, y = continuous_blobs(np.random.default_rng(25))
        hp = dict(KINDS["random_forest"].defaults, n_trees=6, bootstrap=bootstrap)
        forest = fit_random_forest(X, y, hp, seed=5)
        assert len(forest.trees) == 6
        for tree in forest.trees:
            assert_compact(tree)
            # fewer than 128 features: node features and leaf labels fit int8
            assert tree["feature"].dtype == tree["label"].dtype == np.int8

    def test_features_past_int8_take_int16(self):
        # feature 130 splits the root: its tree needs int16, its labels int8
        X = np.zeros((4, 131))
        X[:, 130] = [0.0, 0.0, 1.0, 1.0]
        y = np.array([0, 0, 1, 1])
        tree = fit_decision_tree(X, y, KINDS["decision_tree"].defaults).tree
        assert tree["feature"].tolist() == [130, -1, -1]
        assert tree["feature"].dtype == np.int16 and tree["label"].dtype == np.int8


class TestCartAgainstOracle:
    """The level-wise builder grows the depth-first one's trees exactly,
    numbered in level order."""

    def test_decision_tree_arrays_match(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            X, y = tied_matrix(rng)
            hp = dict(
                KINDS["decision_tree"].defaults,
                min_samples_split=int(rng.integers(2, 6)),
                max_depth=None if rng.random() < 0.5 else int(rng.integers(0, 5)),
            )
            model = fit_decision_tree(X, y, hp)
            assert_same_tree(
                model.tree,
                oracle_compact(
                    level_order(
                        oracle_build_tree(X, y, hp["min_samples_split"], hp["max_depth"])
                    )
                ),
            )

    def test_continuous_features_match(self):
        rng = np.random.default_rng(22)
        X, y = two_blobs(rng, n_per=150, separation=1.0, d=3)
        model = fit_decision_tree(X, y, KINDS["decision_tree"].defaults)
        assert_same_tree(model.tree, oracle_compact(level_order(oracle_build_tree(X, y))))

    def test_weighted_build_matches_duplicated_rows(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            X, y = tied_matrix(rng)
            weights = rng.integers(0, 4, size=X.shape[0])
            weights[:2] = 1  # keep both classes present
            min_split = int(rng.integers(2, 6))
            (tree,) = _build_trees(_presort(X), y, weights[None], min_split, None, None, None)
            rows = np.repeat(np.arange(X.shape[0]), weights)
            assert_same_tree(
                tree,
                oracle_compact(level_order(oracle_build_tree(X[rows], y[rows], min_split))),
            )


def signed_zero_matrix(rng):
    """Feature 0 mixes -0.0 and +0.0 with the floats next to them."""
    tiny = np.nextafter(0.0, 1.0)
    n = int(rng.integers(4, 40))
    X = rng.integers(0, 3, size=(n, int(rng.integers(1, 4)))).astype(np.float64)
    X[:, 0] = rng.choice([-2 * tiny, -tiny, -0.0, 0.0, tiny, 2 * tiny], size=n)
    y = rng.integers(0, 2, size=n)
    y[:2] = [0, 1]
    return X, y


class TestSignedZeros:
    """-0.0 equals +0.0, so a cut never falls between them: rows holding
    either reach the same child, and the trees match the oracles', which
    compare the float values."""

    def test_zeros_of_both_signs_stay_together(self):
        X = np.array([[-0.0], [0.0]] * 3)
        y = np.array([0, 1] * 3)
        model = fit_decision_tree(X, y, KINDS["decision_tree"].defaults)
        assert model.tree["feature"].tolist() == [-1]

    def test_trees_match_the_oracles(self):
        rng = np.random.default_rng(26)
        hp = KINDS["decision_tree"].defaults
        forest_hp = dict(KINDS["random_forest"].defaults, n_trees=3, max_features=1)
        both = 0  # cases whose feature 0 holds zeros of both signs
        for _ in range(40):
            X, y = signed_zero_matrix(rng)
            zero = X[:, 0] == 0
            both += np.any(zero & np.signbit(X[:, 0])) and np.any(zero & ~np.signbit(X[:, 0]))
            ones = np.ones(X.shape[0], dtype=np.int64)
            tree = fit_decision_tree(X, y, hp).tree
            assert_same_tree(
                tree, oracle_compact(oracle_level_tree(X, y, ones, 2, None, None, None))
            )
            forest = fit_random_forest(X, y, forest_hp, seed=5)
            for got, want in zip(forest.trees, oracle_forest_trees(X, y, forest_hp, seed=5)):
                assert_same_tree(got, oracle_compact(want))
            # every -0.0 made +0.0: the same trees, so no row changed child
            unsigned = X + 0.0
            assert not np.any(np.signbit(unsigned) & (unsigned == 0))
            assert_same_tree(fit_decision_tree(unsigned, y, hp).tree, tree)
            unsigned_forest = fit_random_forest(unsigned, y, forest_hp, seed=5)
            for got, want in zip(unsigned_forest.trees, forest.trees):
                assert_same_tree(got, want)
        assert both >= 20


def continuous_blobs(rng):
    """Overlapping Gaussian blobs: distinct values, deep trees."""
    d = int(rng.integers(1, 6))
    return two_blobs(rng, n_per=int(rng.integers(5, 60)), separation=1.0, d=d)


class TestForestAgainstOracle:
    """Every forest tree equals the one the first level-wise builder grew."""

    @pytest.mark.parametrize("make", [tied_matrix, continuous_blobs])
    @pytest.mark.parametrize("max_features", [1, 2, "sqrt", "all"])
    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_tree_arrays_match(self, make, max_features, bootstrap):
        rng = np.random.default_rng(31)
        for _ in range(12):
            X, y = make(rng)
            hp = dict(
                KINDS["random_forest"].defaults,
                n_trees=3,
                bootstrap=bootstrap,
                max_features=max_features,
                min_samples_split=int(rng.integers(2, 6)),
                max_depth=None if rng.random() < 0.5 else int(rng.integers(0, 6)),
            )
            seed = int(rng.integers(0, 2**31))
            forest = fit_random_forest(X, y, hp, seed=seed)
            expected = oracle_forest_trees(X, y, hp, seed=seed)
            assert len(forest.trees) == len(expected)
            for tree, oracle_tree in zip(forest.trees, expected):
                assert_same_tree(tree, oracle_compact(oracle_tree))

    @pytest.mark.parametrize("batch", [1, 2])
    def test_trees_do_not_depend_on_the_batch(self, monkeypatch, batch):
        rng = np.random.default_rng(32)
        for _ in range(10):
            X, y = continuous_blobs(rng)
            monkeypatch.setattr(classifiers, "_BATCH_CELLS", batch * X.size)
            hp = dict(KINDS["random_forest"].defaults, n_trees=5, max_features=1)
            forest = fit_random_forest(X, y, hp, seed=7)
            for tree, oracle_tree in zip(forest.trees, oracle_forest_trees(X, y, hp, 7)):
                assert_same_tree(tree, oracle_compact(oracle_tree))


def forest_text(forest):
    return json.dumps(forest, sort_keys=True, default=jsonable)


class TestForestBatches:
    """A forest grows its batches one after another, in tree order."""

    @pytest.mark.parametrize("failing", [1, 2, 6])
    def test_batch_error_surfaces(self, monkeypatch, failing):
        X, y = two_blobs(np.random.default_rng(34), n_per=30, d=3)
        monkeypatch.setattr(classifiers, "_BATCH_CELLS", X.size)  # 1 tree a batch
        build, calls = classifiers._build_trees, []
        error = ChainlensError(f"batch {failing} failed")

        def failing_build(*args, **kwargs):
            calls.append(None)
            if len(calls) == failing:
                raise error
            return build(*args, **kwargs)

        monkeypatch.setattr(classifiers, "_build_trees", failing_build)
        hp = dict(KINDS["random_forest"].defaults, n_trees=6)
        with pytest.raises(ChainlensError) as raised:
            fit_random_forest(X, y, hp, seed=0)
        assert raised.value is error
        assert len(calls) == failing  # no later batch starts


class TestScanBlocks:
    """A level is scored ``_SCAN_CELLS`` rows at a time, and the trees do
    not depend on that block size: a run of rows may span blocks and a
    cut may straddle two."""

    @pytest.mark.parametrize("cells", [1, 2, 5, 10**6])
    def test_decision_trees_match_oracle(self, monkeypatch, cells):
        rng = np.random.default_rng(51)
        cases = [make(rng) for make in (tied_matrix, continuous_blobs) for _ in range(8)]
        hp = KINDS["decision_tree"].defaults
        baseline = [forest_text(fit_decision_tree(X, y, hp)) for X, y in cases]
        monkeypatch.setattr(classifiers, "_SCAN_CELLS", cells)
        for (X, y), text in zip(cases, baseline):
            model = fit_decision_tree(X, y, hp)
            ones = np.ones(X.shape[0], dtype=np.int64)
            assert_same_tree(
                model.tree, oracle_compact(oracle_level_tree(X, y, ones, 2, None, None, None))
            )
            assert forest_text(model) == text

    @pytest.mark.parametrize("cells", [1, 2, 5, 10**6])
    def test_forests_match_oracle_in_batches(self, monkeypatch, cells):
        X, y = two_blobs(np.random.default_rng(52), n_per=20, separation=1.0, d=3)
        hp = dict(KINDS["random_forest"].defaults, n_trees=6)
        expected = [oracle_compact(tree) for tree in oracle_forest_trees(X, y, hp, seed=3)]
        baseline = forest_text(fit_random_forest(X, y, hp, seed=3))
        monkeypatch.setattr(classifiers, "_SCAN_CELLS", cells)
        monkeypatch.setattr(classifiers, "_BATCH_CELLS", 2 * X.size)  # 2 trees a batch
        forest = fit_random_forest(X, y, hp, seed=3)
        assert len(forest.trees) == len(expected)
        for tree, want in zip(forest.trees, expected):
            assert_same_tree(tree, want)
        assert forest_text(forest) == baseline

    def test_runs_spanning_blocks_at_every_alignment(self, monkeypatch):
        # weighted rows, so the running sums carried across blocks count
        rng = np.random.default_rng(53)
        X = rng.integers(0, 5, size=(13, 2)).astype(np.float64)
        y = rng.integers(0, 2, size=13)
        y[:2] = [0, 1]
        weights = rng.integers(1, 4, size=13)
        expected = oracle_compact(oracle_level_tree(X, y, weights, 2, None, None, None))
        assert expected["feature"].shape[0] > 3
        for cells in range(1, 2 * X.size + 2):  # every block edge, then one block
            monkeypatch.setattr(classifiers, "_SCAN_CELLS", cells)
            (tree,) = _build_trees(_presort(X), y, weights[None], 2, None, None, None)
            assert_same_tree(tree, expected)

    @pytest.mark.parametrize("cells", [1, 2, 3, 4])
    def test_equal_scores_in_later_blocks_lose(self, monkeypatch, cells):
        # the cuts after row 0 and after row 4 both score 5 * gini(1/5) / 6,
        # and feature 1 repeats both in later blocks: the first cut of
        # feature 0 wins
        column = np.arange(6.0)
        X = np.column_stack([column, column])
        y = np.array([1, 0, 0, 0, 0, 1])
        monkeypatch.setattr(classifiers, "_SCAN_CELLS", cells)
        model = fit_decision_tree(X, y, dict(KINDS["decision_tree"].defaults, max_depth=1))
        assert model.tree["feature"].tolist() == [0, -1, -1]
        assert model.tree["threshold"].tolist() == [0.5]
        assert model.tree["label"].tolist() == [1, 0]


class TestBuilderMemory:
    """A level holds one buffer of row lists, which each level cuts in
    place, arrays with one entry per node or per (feature, node) pair,
    one scan block and, while it marks sides and cuts the lists, arrays
    as long as one list; not arrays as long as the level, nor a second
    set of lists. The ceiling is 2.5 times the bytes of the root's row
    lists (int32, one per feature and present row: the lists, and room
    for the per-node and per-pair arrays, the one-list scratch and the
    grown trees) plus 9 bytes a tree row (the packed weights and the
    side marks) and 160 bytes a scan row (~118 in use). With 2**10 scan
    rows the lists set the peak: beyond the tree rows and scan rows,
    these cases measured 1.91-2.01 times the root's lists there (0.83-1.53
    with 2**14 scan rows), against 3.34-3.58 for the builder that cut
    each level's lists into a second buffer and kept the root's alive.
    On these matrices the builder that held the level whole peaked at
    19.3 MB (34x the row lists) and 24.3 MB (14x)."""

    @staticmethod
    def matrix():
        rng = np.random.default_rng(61)
        y = rng.integers(0, 2, size=20_000)
        return rng.normal(size=(20_000, 7)) + 0.5 * y[:, None], y

    @staticmethod
    def ceiling(row_lists, tree_rows):
        return 2.5 * row_lists + 9 * tree_rows + 160 * classifiers._SCAN_CELLS

    @pytest.mark.parametrize("cells", [1 << 10, 1 << 14])
    @pytest.mark.parametrize("n_trees", [1, 5])
    def test_peak_stays_within_the_row_lists(self, monkeypatch, n_trees, cells):
        monkeypatch.setattr(classifiers, "_SCAN_CELLS", cells)
        X, y = self.matrix()
        n, d = X.shape
        data = _presort(X)
        if n_trees == 1:
            weights, max_features, rngs = np.ones((1, n), dtype=np.int64), None, None
        else:
            rngs = [np.random.default_rng([3, t]) for t in range(n_trees)]
            weights = np.array([np.bincount(r.integers(0, n, size=n), minlength=n) for r in rngs])
            max_features = 2
        row_lists = 4 * d * np.count_nonzero(weights)
        tracemalloc.start()
        try:
            trees = _build_trees(data, y, weights, 2, None, max_features, rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trees) == n_trees
        assert peak <= self.ceiling(row_lists, n_trees * n)

    @pytest.mark.parametrize("cells", [1 << 10, 1 << 14])
    @pytest.mark.parametrize("batch", [2, 3])
    def test_forest_holds_one_batch_at_a_time(self, monkeypatch, batch, cells):
        # a forest of three batches holds one batch's ceiling, the presort
        # and, until they are packed, the batch's bootstrap weights
        X, y = self.matrix()
        n, d = X.shape
        n_trees, seed = 3 * batch, 3
        monkeypatch.setattr(classifiers, "_BATCH_CELLS", batch * X.size)
        monkeypatch.setattr(classifiers, "_SCAN_CELLS", cells)
        present = [
            np.unique(np.random.default_rng([seed, t]).integers(0, n, size=n)).shape[0]
            for t in range(n_trees)
        ]
        row_lists = 4 * d * max(sum(present[t : t + batch]) for t in range(0, n_trees, batch))
        presort = sum(a.nbytes for a in _presort(X))
        hp = dict(KINDS["random_forest"].defaults, n_trees=n_trees)
        tracemalloc.start()
        try:
            forest = fit_random_forest(X, y, hp, seed=seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(forest.trees) == n_trees
        weights = 8 * batch * n
        assert peak <= self.ceiling(row_lists, batch * n) + presort + weights

    def test_lists_are_cut_in_place(self):
        # the new lists are a view of the old buffer, and the cut holds
        # temporaries for one list at a time: 12.7 bytes a row of a list,
        # against 28.7 when the lists were cut into a second buffer
        rng = np.random.default_rng(62)
        d, length = 7, 50_000
        R = np.array([rng.permutation(length) for _ in range(d)], dtype=np.int32)
        side = rng.integers(0, 3, size=length).astype(np.int8)
        want = [np.concatenate([rows[side[rows] == 0], rows[side[rows] == 1]]) for rows in R]
        n_left, n_right = int(np.sum(side == 0)), int(np.sum(side == 1))
        tracemalloc.start()
        try:
            cut = classifiers._partition(R, side, n_left, n_right)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(cut, R)
        assert np.array_equal(cut, np.array(want))
        assert peak <= 16 * length


class TestRandomForest:
    def test_degenerates_to_single_tree(self):
        rng = np.random.default_rng(6)
        X, y = two_blobs(rng, n_per=40, separation=3.0)
        hp = dict(
            KINDS["random_forest"].defaults,
            n_trees=1,
            bootstrap=False,
            max_features="all",
        )
        forest = fit_random_forest(X, y, hp, seed=0)
        tree = fit_decision_tree(X, y, KINDS["decision_tree"].defaults)
        probe = rng.normal(loc=1.5, size=(300, X.shape[1]))
        assert np.array_equal(forest.predict(probe), tree.predict(probe))

    def test_learns_blobs(self):
        rng = np.random.default_rng(7)
        X, y = two_blobs(rng, n_per=50, separation=4.0)
        hp = dict(KINDS["random_forest"].defaults, n_trees=15)
        model = fit_random_forest(X, y, hp, seed=1)
        assert np.mean(model.predict(X) == y) >= 0.99

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(8)
        X, y = two_blobs(rng, n_per=25, separation=2.0)
        hp = dict(KINDS["random_forest"].defaults, n_trees=7)
        probe = rng.normal(size=(50, X.shape[1]))
        a = fit_random_forest(X, y, hp, seed=5).predict(probe)
        b = fit_random_forest(X, y, hp, seed=5).predict(probe)
        assert np.array_equal(a, b)

    def test_single_class_rejected(self):
        with pytest.raises(ChainlensError):
            fit_random_forest(
                np.zeros((4, 2)), np.zeros(4, dtype=int), KINDS["random_forest"].defaults
            )

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"n_trees": 0}, "n_trees >= 1"),
            ({"n_trees": -3}, "n_trees >= 1"),
            ({"max_features": 0}, "max_features >= 1"),
            ({"max_features": -1}, "max_features >= 1"),
            ({"max_features": 2.5}, "max_features >= 1, 'sqrt', 'all' or None, got 2.5"),
            ({"max_features": True}, "max_features >= 1, 'sqrt', 'all' or None, got True"),
            ({"max_features": "abc"}, "max_features >= 1, 'sqrt', 'all' or None, got 'abc'"),
            ({"n_trees": 2.5}, "n_trees >= 1, got 2.5"),
            ({"n_trees": True}, "n_trees >= 1, got True"),
            ({"bootstrap": "no"}, "bootstrap true or false, got 'no'"),
            ({"bootstrap": 1}, "bootstrap true or false, got 1"),
        ],
    )
    def test_empty_forest_settings_rejected(self, override, message):
        X, y = two_blobs(np.random.default_rng(8), n_per=10, d=3)
        hp = dict(KINDS["random_forest"].defaults, **override)
        with pytest.raises(ChainlensError, match=message):
            fit_random_forest(X, y, hp)

    @pytest.mark.parametrize("kind", ["decision_tree", "random_forest"])
    @pytest.mark.parametrize(
        "override, message",
        [
            ({"min_samples_split": "2"}, "an integer min_samples_split, got '2'"),
            ({"min_samples_split": 2.0}, "an integer min_samples_split, got 2.0"),
            ({"min_samples_split": False}, "an integer min_samples_split, got False"),
            ({"max_depth": -1}, "max_depth None or >= 0, got -1"),
            ({"max_depth": 3.0}, "max_depth None or >= 0, got 3.0"),
            ({"max_depth": "3"}, "max_depth None or >= 0, got '3'"),
        ],
    )
    def test_tree_settings_of_the_wrong_type_rejected(self, kind, override, message):
        X, y = two_blobs(np.random.default_rng(8), n_per=10, d=3)
        with pytest.raises(ChainlensError, match=f"^{kind} needs {message}$"):
            fit_classifier(kind, X, y, override)


@pytest.mark.parametrize(
    "kinds, override, message",
    [
        (LINEAR_KINDS, {"learning_rate": 0}, "learning_rate finite and > 0, got 0"),
        (LINEAR_KINDS, {"learning_rate": -0.1}, "learning_rate finite and > 0, got -0.1"),
        (LINEAR_KINDS, {"learning_rate": None}, "learning_rate finite and > 0, got None"),
        (LINEAR_KINDS, {"learning_rate": True}, "learning_rate finite and > 0, got True"),
        (LINEAR_KINDS, {"learning_rate": float("inf")}, "learning_rate finite and > 0, got inf"),
        (LINEAR_KINDS, {"learning_rate": float("nan")}, "learning_rate finite and > 0, got nan"),
        (LINEAR_KINDS, {"learning_rate": 10**400}, r"learning_rate finite and > 0, got 10+"),
        (LINEAR_KINDS, {"iterations": "10"}, "an integer iterations >= 0, got '10'"),
        (LINEAR_KINDS, {"iterations": -1}, "an integer iterations >= 0, got -1"),
        (LINEAR_KINDS, {"iterations": 10.0}, "an integer iterations >= 0, got 10.0"),
        (LINEAR_KINDS, {"iterations": False}, "an integer iterations >= 0, got False"),
        (LINEAR_KINDS, {"l2": "x"}, "l2 finite and >= 0, got 'x'"),
        (LINEAR_KINDS, {"l2": -1e-4}, "l2 finite and >= 0, got -0.0001"),
        (LINEAR_KINDS, {"l2": float("nan")}, "l2 finite and >= 0, got nan"),
        (LINEAR_KINDS, {"l2": True}, "l2 finite and >= 0, got True"),
        (("gaussian_nb",), {"var_smoothing": -10.0}, "var_smoothing finite and >= 0, got -10.0"),
        (("gaussian_nb",), {"var_smoothing": None}, "var_smoothing finite and >= 0, got None"),
        (("gaussian_nb",), {"var_smoothing": "1"}, "var_smoothing finite and >= 0, got '1'"),
        (("gaussian_nb",), {"var_smoothing": True}, "var_smoothing finite and >= 0, got True"),
        (("gaussian_nb",), {"var_smoothing": float("inf")}, "var_smoothing finite and >= 0, got inf"),
    ],
)
def test_numeric_settings_rejected(kinds, override, message):
    X, y = two_blobs(np.random.default_rng(8), n_per=10, d=3)
    for kind in kinds:
        with pytest.raises(ChainlensError, match=f"^{kind} needs {message}$"):
            fit_classifier(kind, X, y, override)


@pytest.mark.parametrize(
    "kind, override",
    [
        ("logistic_regression", {"learning_rate": 1, "iterations": 0, "l2": 0}),
        ("linear_svm", {"learning_rate": 1, "iterations": 0, "l2": 0}),
        ("gaussian_nb", {"var_smoothing": 0}),
        ("random_forest", {"n_trees": 2, "max_features": None}),
    ],
)
def test_boundary_settings_accepted(kind, override):
    X, y = two_blobs(np.random.default_rng(8), n_per=10, d=3)
    assert fit_classifier(kind, X, y, override).predict(X).shape == y.shape


class TestGaussianNB:
    def test_boundary_at_midpoint_of_symmetric_classes(self):
        rng = np.random.default_rng(9)
        X = np.concatenate([rng.normal(-3.0, 1.0, 500), rng.normal(3.0, 1.0, 500)])
        y = np.array([0] * 500 + [1] * 500)
        model = fit_gaussian_nb(X.reshape(-1, 1), y, KINDS["gaussian_nb"].defaults)
        grid = np.linspace(-1.0, 1.0, 2001).reshape(-1, 1)
        predictions = model.predict(grid)
        switches = np.flatnonzero(np.diff(predictions) != 0)
        assert switches.size == 1
        boundary = float(grid[switches[0], 0])
        assert abs(boundary) <= 0.1

    def test_single_class_degrades_to_constant(self):
        X = np.random.default_rng(10).normal(size=(10, 3))
        model = fit_gaussian_nb(X, np.ones(10, dtype=int), KINDS["gaussian_nb"].defaults)
        assert np.array_equal(model.predict(X), np.ones(10, dtype=int))

    def test_constant_features_do_not_crash(self):
        X = np.ones((8, 2))
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        model = fit_gaussian_nb(X, y, KINDS["gaussian_nb"].defaults)
        out = model.predict(np.ones((3, 2)))
        assert out.shape == (3,)


class TestKNN:
    def test_k1_recovers_training_labels(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 2, size=30)
        model = fit_knn(X, y, {"k": 1})
        assert np.array_equal(model.predict(X), y)

    def test_k2_tie_goes_to_smaller_label(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([0, 1])
        model = fit_knn(X, y, {"k": 2})
        assert model.predict(np.array([[1.0]]))[0] == 0

    def test_distance_tie_goes_to_smaller_training_index(self):
        # both training points at distance 1; k=1 must take index 0
        X = np.array([[1.0], [-1.0]])
        y = np.array([1, 0])
        model = fit_knn(X, y, {"k": 1})
        assert model.predict(np.array([[0.0]]))[0] == 1

    def test_k_equals_n_predicts_majority(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(9, 2))
        y = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0])
        model = fit_knn(X, y, {"k": 9})
        probe = rng.normal(size=(20, 2))
        assert np.array_equal(model.predict(probe), np.ones(20, dtype=int))

    def test_k_below_one_rejected(self):
        with pytest.raises(ChainlensError):
            fit_knn(np.zeros((4, 2)), np.array([0, 1, 0, 1]), {"k": 0})

    def test_single_class_degrades_gracefully(self):
        X = np.zeros((4, 2))
        model = fit_knn(X, np.zeros(4, dtype=int), {"k": 5})
        assert np.array_equal(model.predict(np.ones((2, 2))), np.zeros(2, dtype=int))


class TestKNNAgainstOracle:
    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_labels_match_full_sort(self, k):
        # integer grids put many training rows at the k-th distance
        rng = np.random.default_rng(24 + k)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            d = int(rng.integers(1, 4))
            X = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
            y = rng.integers(0, 2, size=n)
            probe = rng.integers(-2, 3, size=(int(rng.integers(1, 30)), d))
            probe = probe.astype(np.float64)
            model = fit_knn(X, y, {"k": k})
            assert np.array_equal(
                model.predict(probe), oracle_knn_predict(X, y, k, probe)
            )

    @pytest.mark.parametrize("offset", [0.0, 1e7])
    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_duplicated_rows_match_full_sort(self, k, offset):
        # each training row repeated in shuffled order: continuous values
        # whose distances tie exactly, probed also at the rows themselves.
        # Far from the origin |a|^2 - 2 a.b + |b|^2 keeps few digits, so
        # only the same float operations give the oracle's neighbours.
        rng = np.random.default_rng(40 + k)
        for _ in range(30):
            d = int(rng.integers(1, 5))
            base = offset + rng.normal(size=(int(rng.integers(1, 12)), d))
            copies = rng.integers(1, 6, size=base.shape[0])
            X = base[rng.permutation(np.repeat(np.arange(base.shape[0]), copies))]
            y = rng.integers(0, 2, size=X.shape[0])
            probe = np.vstack([offset + rng.normal(size=(20, d)), base])
            model = fit_knn(X, y, {"k": k})
            assert np.array_equal(
                model.predict(probe), oracle_knn_predict(X, y, k, probe)
            )


class TestCommonBehavior:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_empty_prediction_input(self, kind):
        rng = np.random.default_rng(13)
        X, y = two_blobs(rng, n_per=15, separation=3.0, d=3)
        hp = {"n_trees": 3} if kind == "random_forest" else None
        model = fit_classifier(kind, X, y, hyperparameters=hp)
        out = model.predict(np.empty((0, 3)))
        assert out.shape == (0,)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_dimension_mismatch_rejected(self, kind):
        rng = np.random.default_rng(14)
        X, y = two_blobs(rng, n_per=15, separation=3.0, d=3)
        hp = {"n_trees": 3} if kind == "random_forest" else None
        model = fit_classifier(kind, X, y, hyperparameters=hp)
        with pytest.raises(ChainlensError):
            model.predict(np.zeros((2, 5)))
        with pytest.raises(ChainlensError, match="expected 3 features, got 5"):
            model.predict(np.empty((0, 5)))

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_nonfinite_prediction_input_rejected(self, kind):
        rng = np.random.default_rng(15)
        X, y = two_blobs(rng, n_per=15, separation=3.0, d=3)
        hp = {"n_trees": 3} if kind == "random_forest" else None
        model = fit_classifier(kind, X, y, hyperparameters=hp)
        for value in (np.nan, np.inf, -np.inf):
            probe = X[:4].copy()
            probe[2, 1] = value
            with pytest.raises(ChainlensError, match="prediction input must be finite"):
                model.predict(probe)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ChainlensError):
            resolve_hyperparameters("perceptron")

    def test_unknown_hyperparameter_rejected(self):
        with pytest.raises(ChainlensError):
            resolve_hyperparameters("knn", {"neighbors": 3})

    def test_overrides_apply(self):
        hp = resolve_hyperparameters("knn", {"k": 9})
        assert hp == {"k": 9}

    def test_bad_labels_rejected(self):
        with pytest.raises(ChainlensError):
            fit_classifier("knn", np.zeros((3, 1)), np.array([0, 1, 2]))

    def test_featureless_matrix_rejected(self):
        with pytest.raises(ChainlensError):
            fit_classifier("decision_tree", np.zeros((3, 0)), np.array([0, 1, 0]))

    def test_nonfinite_features_rejected(self):
        with pytest.raises(ChainlensError):
            fit_classifier("knn", np.array([[np.nan]]), np.array([0]))
