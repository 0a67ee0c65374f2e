"""K-means, WCSS, elbow selection, and the daily cluster report."""

import datetime as dt
import json

import numpy as np
import pytest

from chainlens.cli import main, run
from chainlens.clustering import (
    CLUSTER_FEATURES,
    _lloyd,
    _plusplus_init,
    cluster_report,
    elbow,
    kmeans_fit,
)
from chainlens.config import RunConfig
from chainlens.dataset import Dataset, save_csv
from chainlens.errors import ChainlensError
from oracles import CoinSnapshot, oracle_lloyd


def blob_points(rng, centers, per_blob=40, std=0.05):
    points, labels = [], []
    for label, center in enumerate(centers):
        points.append(rng.normal(loc=center, scale=std, size=(per_blob, len(center))))
        labels += [label] * per_blob
    return np.vstack(points), np.array(labels)


def brute_wcss(points, centroids, assignments):
    total = 0.0
    for point, cluster in zip(points, assignments):
        diff = point - centroids[cluster]
        total += float(diff @ diff)
    return total


class TestKmeansFit:
    def test_symmetric_pairs(self):
        points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        model = kmeans_fit(points, k=2, seed=1)
        assert model.wcss == pytest.approx(1.0)
        got = sorted(model.centroids.tolist())
        assert got == [[0.0, 0.5], [10.0, 0.5]]

    def test_k_equals_point_count(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(6, 3))
        model = kmeans_fit(points, k=6, seed=0)
        assert model.wcss == pytest.approx(0.0, abs=1e-24)

    def test_k_one_is_mean_and_variance(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(50, 4))
        model = kmeans_fit(points, k=1, seed=0)
        assert model.centroids[0] == pytest.approx(points.mean(axis=0))
        expected = float(((points - points.mean(axis=0)) ** 2).sum())
        assert model.wcss == pytest.approx(expected)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(60, 2))
        a = kmeans_fit(points, k=4, seed=9)
        b = kmeans_fit(points, k=4, seed=9)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.wcss == b.wcss

    def test_nearest_centroid_invariant(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(80, 3))
        model = kmeans_fit(points, k=5, seed=2)
        d2 = ((points[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(model.assignments, np.argmin(d2, axis=1))

    def test_all_points_equal(self):
        points = np.ones((10, 2))
        model = kmeans_fit(points, k=3, seed=0)
        assert model.wcss == 0.0

    def test_validation_errors(self):
        points = np.zeros((3, 2))
        with pytest.raises(ChainlensError):
            kmeans_fit(points, k=0)
        with pytest.raises(ChainlensError):
            kmeans_fit(points, k=4)
        with pytest.raises(ChainlensError):
            kmeans_fit(np.array([[np.inf, 0.0]]), k=1)
        with pytest.raises(ChainlensError):
            kmeans_fit(np.empty((0, 2)), k=1)

    def test_first_lowest_wcss_of_the_ten_restarts(self):
        points = np.random.default_rng(0).normal(size=(60, 2))
        runs = [
            _lloyd(points, _plusplus_init(points, 4, np.random.default_rng([9, restart])))
            for restart in range(10)
        ]
        costs = [cost for _, _, cost, _ in runs]
        first = costs.index(min(costs))
        # restarts 4 and 8 tie at the lowest WCSS
        assert first == 4 and costs[8] == costs[4]
        centroids, assignments, cost, iterations = runs[first]
        model = kmeans_fit(points, k=4, seed=9)
        assert model.wcss == cost
        assert np.array_equal(model.centroids, centroids)
        assert np.array_equal(model.assignments, assignments)
        assert model.iterations_run == iterations


class TestLloydAgainstOracle:
    @staticmethod
    def assert_same_run(points, centroids):
        got = _lloyd(points, centroids.copy())
        expected = oracle_lloyd(points, centroids.copy())
        assert got[0].tobytes() == expected[0].tobytes()
        assert np.array_equal(got[1], expected[1])
        assert got[2:] == expected[2:]
        return got[0]

    @pytest.mark.parametrize("d", range(1, 10))
    def test_bit_identical_to_masked_means(self, d):
        rng = np.random.default_rng([25, d])
        for k in range(1, 31):
            n = int(rng.integers(k, 3 * k + 20))
            if k % 2:
                points = rng.normal(size=(n, d)) * rng.uniform(0.1, 1e3, size=d)
            else:
                # a coarse grid: coinciding points and tied distances
                points = rng.integers(0, 4, size=(n, d)).astype(np.float64)
            centroids = _plusplus_init(points, k, rng)
            self.assert_same_run(points, centroids)
            # one centroid far from every point starts empty and is reseeded
            centroids[int(rng.integers(k))] = 1e6
            final = self.assert_same_run(points, centroids)
            assert k == 1 or not (final == 1e6).any()


class TestWcss:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(40, 3))
        model = kmeans_fit(points, k=4, seed=1)
        diff = points - model.centroids[model.assignments]
        assert model.wcss == pytest.approx(float((diff * diff).sum()))
        assert model.wcss == pytest.approx(
            brute_wcss(points, model.centroids, model.assignments)
        )


class TestElbow:
    def test_hand_curve_picks_two(self):
        # feed a synthetic curve through the chord rule via a stub of
        # points whose per-k WCSS we control is awkward; test the
        # selection rule directly instead
        from chainlens.clustering import _pick_elbow

        assert _pick_elbow([1, 2, 3, 4, 5], [100.0, 20.0, 10.0, 9.5, 9.2]) == 2

    def test_linear_decay_ties_to_k_min_plus_one(self):
        from chainlens.clustering import _pick_elbow

        assert _pick_elbow([1, 2, 3, 4, 5], [100.0, 80.0, 60.0, 40.0, 20.0]) == 2

    def test_flat_curve_ties_to_k_min_plus_one(self):
        from chainlens.clustering import _pick_elbow

        assert _pick_elbow([3, 4, 5, 6], [7.0, 7.0, 7.0, 7.0]) == 4

    def test_five_blobs_selects_five(self):
        rng = np.random.default_rng(8)
        centers = [(0, 0), (10, 0), (0, 10), (10, 10), (5, 18)]
        points, _ = blob_points(rng, centers, per_blob=40, std=0.2)
        curve = elbow(points, (1, 10), seed=0)
        assert curve.chosen_k == 5
        assert curve.ks == tuple(range(1, 11))
        assert len(curve.wcss) == 10

    def test_model_is_the_fit_at_the_chosen_k(self):
        rng = np.random.default_rng(10)
        points, _ = blob_points(rng, [(0, 0), (6, 0), (0, 6)], per_blob=15)
        curve = elbow(points, (1, 8), seed=4)
        refit = kmeans_fit(points, curve.chosen_k, seed=4)
        assert curve.model.k == curve.chosen_k
        assert curve.model.wcss == refit.wcss == curve.wcss[curve.chosen_k - 1]
        assert np.array_equal(curve.model.centroids, refit.centroids)
        assert np.array_equal(curve.model.assignments, refit.assignments)
        assert curve.model.iterations_run == refit.iterations_run

    def test_curve_is_nonincreasing_on_blobs(self):
        rng = np.random.default_rng(9)
        points, _ = blob_points(rng, [(0, 0), (8, 8)], per_blob=30)
        curve = elbow(points, (1, 6), seed=1)
        assert all(
            later <= earlier + 1e-9
            for earlier, later in zip(curve.wcss, curve.wcss[1:])
        )

    def test_degenerate_ranges_rejected(self):
        points = np.zeros((5, 2))
        with pytest.raises(ChainlensError):
            elbow(points, (0, 3))
        with pytest.raises(ChainlensError):
            elbow(points, (3, 3))
        with pytest.raises(ChainlensError):
            elbow(points, (1, 6))  # k_max > n


def day_one():
    return dt.date(2022, 1, 1)


def full_snapshot(key, seed, date=None, **overrides):
    rng = np.random.default_rng(seed)
    values = dict(
        market_cap=float(rng.integers(1, 10**9)),
        volume_24h=float(rng.integers(1, 10**7)),
        num_market_pairs=float(rng.integers(1, 500)),
        circulating_supply=float(rng.integers(1, 10**6)),
        total_supply=float(rng.integers(10**6, 10**7)),
        total_value_locked=float(rng.integers(1, 10**8)),
        staking_reward=float(rng.uniform(0.1, 20.0)),
        total_staking_percentage=float(rng.uniform(1.0, 90.0)),
        whales_percentage=float(rng.uniform(1.0, 60.0)),
    )
    values.update(overrides)
    return CoinSnapshot(key=key, date=date or day_one(), **values)


class TestClusterReport:
    def test_excludes_coins_with_absent_features(self):
        snaps = [full_snapshot(f"Coin{i}_C{i}", seed=i) for i in range(8)]
        snaps.append(
            full_snapshot("NoStake_NS", seed=50, staking_reward=None)
        )
        snaps.append(
            full_snapshot("NoTvl_NT", seed=51, total_value_locked=None)
        )
        report = cluster_report(Dataset.build(snaps), day_one(), k=2)
        assert len(report.keys) == 8
        assert set(report.excluded) == {"NoStake_NS", "NoTvl_NT"}
        assert report.model.assignments.shape == (8,)
        assert report.feature_columns == CLUSTER_FEATURES

    def test_three_tight_groups_are_pure(self):
        snaps = []
        group_of = {}
        for i in range(12):
            group = i % 3
            scale = 10.0 ** (3 * group + 1)
            key = f"Coin{i}_C{i}"
            group_of[key] = group
            snaps.append(
                full_snapshot(
                    key,
                    seed=100 + i,
                    market_cap=scale * (1 + 0.01 * i),
                    volume_24h=scale * (1 + 0.005 * i),
                    num_market_pairs=float(group + 1),
                    total_value_locked=scale,
                    staking_reward=float(group + 1),
                    total_staking_percentage=10.0 * (group + 1),
                    whales_percentage=5.0 * (group + 1),
                )
            )
        report = cluster_report(Dataset.build(snaps), day_one(), k=3)
        by_cluster = {}
        for key, cluster in zip(report.keys, report.model.assignments.tolist()):
            by_cluster.setdefault(cluster, set()).add(group_of[key])
        assert all(len(groups) == 1 for groups in by_cluster.values())

    def test_feature_subset(self):
        snaps = [
            CoinSnapshot(
                key=f"Coin{i}_C{i}",
                date=day_one(),
                market_cap=float(1 + i),
                volume_24h=float(10 + i),
            )
            for i in range(6)
        ]
        report = cluster_report(Dataset.build(snaps), day_one(), k=2)
        assert report.feature_columns == ("market_cap", "volume_24h")
        assert len(report.keys) == 6

    def test_a_feature_held_by_some_coins_excludes_the_others(self):
        snaps = [
            CoinSnapshot(f"Coin{i}_C{i}", day_one(), market_cap=float(1 + i)) for i in range(4)
        ]
        snaps.append(
            CoinSnapshot("Pairs_P", day_one(), market_cap=9.0, num_market_pairs=3.0)
        )
        report = cluster_report(Dataset.build(snaps), day_one(), k=1)
        assert report.feature_columns == ("market_cap", "num_market_pairs")
        assert report.keys == ("Pairs_P",)
        assert len(report.excluded) == 4

    def test_cutoff_off_the_weekly_grid_clusters_the_alive_coins(self):
        # each coin's rows, as days after day one; the cutoff is day 3
        weeks = {
            "Alive_A": [0, 7, 14],  # last row on or before the cutoff: day 0
            "Late_B": [7, 14],  # first row after the cutoff
            "Gone_C": [-7, 0],  # last row before the cutoff
            "Shifted_D": [2, 9],  # on another weekday: day 2
            "Gap_E": [-14, -7, 7],  # day -7
        }
        snaps = [
            CoinSnapshot(
                key,
                day_one() + dt.timedelta(days=offset),
                market_cap=float(100 * i + offset + 20),
            )
            for i, (key, offsets) in enumerate(weeks.items())
            for offset in offsets
        ]
        report = cluster_report(Dataset.build(snaps), day_one() + dt.timedelta(days=3), k=3)
        assert report.feature_columns == ("market_cap",)
        assert report.keys == ("Alive_A", "Gap_E", "Shifted_D")
        # with k equal to the coin count every coin is its own centroid
        rows = np.array([20.0, 413.0, 322.0])
        assert sorted(report.model.centroids.ravel()) == sorted(rows / rows.max())

    def test_missing_day_rejected(self):
        snaps = [full_snapshot("Coin0_C0", seed=0)]
        with pytest.raises(ChainlensError):
            cluster_report(Dataset.build(snaps), dt.date(1999, 1, 1), k=1)

    def test_k_larger_than_survivors_rejected(self):
        snaps = [full_snapshot(f"Coin{i}_C{i}", seed=i) for i in range(3)]
        with pytest.raises(ChainlensError):
            cluster_report(Dataset.build(snaps), day_one(), k=5)

    def test_automatic_k_uses_elbow(self):
        snaps = []
        for i in range(24):
            group = i % 2
            snaps.append(
                full_snapshot(
                    f"Coin{i}_C{i}",
                    seed=200 + i,
                    market_cap=1e3 if group == 0 else 1e9,
                    volume_24h=1e2 if group == 0 else 1e8,
                    num_market_pairs=2.0 if group == 0 else 400.0,
                    total_value_locked=1e3 if group == 0 else 1e9,
                    staking_reward=1.0 if group == 0 else 15.0,
                    total_staking_percentage=5.0 if group == 0 else 80.0,
                    whales_percentage=3.0 if group == 0 else 50.0,
                )
            )
        report = cluster_report(Dataset.build(snaps), day_one())
        assert report.elbow_curve is not None
        assert report.model is report.elbow_curve.model
        assert report.model.k == report.elbow_curve.chosen_k

    def test_csv_exports(self, tmp_path):
        # the cluster stage's assignments.csv and elbow.csv
        snaps = [full_snapshot(f"Coin{i}_C{i}", seed=i) for i in range(6)]
        ds = Dataset.build(snaps)
        save_csv(ds, tmp_path / "dataset.csv")
        run("cluster", RunConfig(out=str(tmp_path), k=2, format="csv"))
        report = cluster_report(ds, day_one(), k=2)
        lines = (tmp_path / "assignments.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "coin_key,cluster_id"
        assert len(lines) == 7
        assert lines[1:] == [
            f"{key},{cluster}"
            for key, cluster in zip(report.keys, report.model.assignments.tolist())
        ]

        run("cluster", RunConfig(out=str(tmp_path), format="csv"))
        curve = cluster_report(ds, day_one()).elbow_curve
        lines = (tmp_path / "elbow.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "k,wcss"
        assert len(lines) == 7
        assert lines[1:] == [f"{k},{cost!r}" for k, cost in zip(curve.ks, curve.wcss)]

    def test_default_features_are_the_daily_eight(self):
        assert CLUSTER_FEATURES == (
            "market_cap",
            "volume_24h",
            "num_market_pairs",
            "ptsc",
            "total_value_locked",
            "staking_reward",
            "total_staking_percentage",
            "whales_percentage",
        )


class TestClusterStage:
    def test_panel_without_extended_columns_clusters_on_the_base_features(
        self, tmp_path, capsys
    ):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "generate": {
                        "n_coins": 20,
                        "disappeared_fraction": 0.4,
                        "include_extended_columns": False,
                    }
                }
            ),
            encoding="utf-8",
        )
        assert main(["generate", "--config", str(config), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cluster", "--out", str(tmp_path)]) == 0
        summary = capsys.readouterr().out
        assert "(features market_cap, volume_24h, num_market_pairs, ptsc) ->" in summary
        doc = json.loads((tmp_path / "cluster_summary.json").read_text(encoding="utf-8"))
        assert doc["excluded"] == []
        assert doc["features"] == ["market_cap", "volume_24h", "num_market_pairs", "ptsc"]
        assert doc["coins"] == sum(doc["sizes"].values()) > 0

    def test_panel_without_any_feature_on_the_day_exits_1(self, tmp_path, capsys):
        snaps = [CoinSnapshot(f"Coin{i}_C{i}", day_one(), price=1.0 + i) for i in range(3)]
        save_csv(Dataset.build(snaps), tmp_path / "dataset.csv")
        assert main(["cluster", "--out", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ChainlensError",
            "message": "no cluster feature has a value on 2022-01-01",
        }
        assert [p.name for p in tmp_path.iterdir()] == ["dataset.csv"]
