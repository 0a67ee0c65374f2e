"""Release gate: the nine headline guarantees, one test each.

Every test prints (and the run summary repeats) a single
``criterion N: PASS/FAIL`` line. Oracles here are deliberately
written from definitions - O(n^2) pair counting, central differences,
contingency-table ARI - never by calling the code under test twice.
"""

import datetime as dt
import json
import math
import time
from math import comb
from pathlib import Path

import numpy as np
import pytest

from chainlens.classify import (
    CLASSIFY_FEATURES,
    ClassifierSpec,
    ConfusionCounts,
    LabeledTable,
    evaluate,
    fit,
    metrics_from_counts,
    predict,
    train_test_split,
)
from chainlens.classifiers import logistic_loss_and_gradient
from chainlens.cleaning import (
    FeatureTable,
    impute_max_supply,
    impute_mean,
    max_normalize,
    mean_normalize,
)
from chainlens.cli import main
from chainlens.clustering import elbow, kmeans_fit
from chainlens.correlation import average_ranks, correlate, interpret
from chainlens.survival import lifetimes, pareto, survival_summary
from chainlens.synthetic import SyntheticSpec, generate_synthetic


def check(number: int, body, report) -> None:
    """Run one criterion body, reporting PASS/FAIL even on a crash."""
    failures: list[str] = []
    note = ""
    try:
        note = body(failures) or ""
    except Exception as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
    detail = note if not failures else "; ".join(failures)[:400]
    report(number, not failures, detail)


# ---------------------------------------------------------------- oracles


def brute_kendall_tau_b(x: np.ndarray, y: np.ndarray) -> float:
    """Tau-b from the O(n^2) pair definition: walk every (i, j) pair."""
    n = x.shape[0]
    sx = np.sign(np.subtract.outer(x, x))
    sy = np.sign(np.subtract.outer(y, y))
    upper = np.triu_indices(n, 1)
    products = sx[upper] * sy[upper]
    s = float(np.sum(products))
    n0 = n * (n - 1) // 2
    ties_x = int(np.sum(sx[upper] == 0))
    ties_y = int(np.sum(sy[upper] == 0))
    denominator = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    return s / denominator


def brute_average_ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks straight from the definition, one value at a time."""
    less = (values[None, :] < values[:, None]).sum(axis=1)
    equal = (values[None, :] == values[:, None]).sum(axis=1) - 1
    return 1.0 + less + equal / 2.0


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    return float(np.dot(xc, yc) / math.sqrt(np.dot(xc, xc) * np.dot(yc, yc)))


def random_tied_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    style = rng.integers(0, 3)
    if style == 0:
        values = rng.normal(size=n)
    elif style == 1:
        values = rng.integers(0, max(2, n // 8), size=n).astype(np.float64)
    else:
        values = np.round(rng.normal(size=n), 1)
    while np.unique(values).size < 2:
        values = rng.normal(size=n)
    return values


def adjusted_rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """ARI from the contingency table; pure counting, no shortcuts."""
    labels_a = np.unique(a)
    labels_b = np.unique(b)
    table = np.zeros((labels_a.size, labels_b.size), dtype=np.int64)
    for i, la in enumerate(labels_a):
        for j, lb in enumerate(labels_b):
            table[i, j] = int(np.sum((a == la) & (b == lb)))
    n = a.shape[0]
    sum_cells = sum(comb(int(v), 2) for v in table.ravel())
    sum_rows = sum(comb(int(v), 2) for v in table.sum(axis=1))
    sum_cols = sum(comb(int(v), 2) for v in table.sum(axis=0))
    total = comb(n, 2)
    expected = sum_rows * sum_cols / total
    maximum = (sum_rows + sum_cols) / 2.0
    if maximum == expected:
        return 1.0
    return (sum_cells - expected) / (maximum - expected)


# --------------------------------------------------------------- criteria


def test_criterion_1_rank_correlation_oracle(criterion_report):
    def body(failures):
        rng = np.random.default_rng(20250815)
        started = time.perf_counter()
        worst_tau = 0.0
        worst_rho = 0.0
        for trial in range(1000):
            n = int(rng.integers(2, 201))
            x = random_tied_vector(rng, n)
            y = random_tied_vector(rng, n)
            tau_fast = correlate("kendall", x, y)
            tau_brute = brute_kendall_tau_b(x, y)
            worst_tau = max(worst_tau, abs(tau_fast - tau_brute))
            if abs(tau_fast - tau_brute) > 1e-12:
                failures.append(
                    f"trial {trial}: kendall {tau_fast!r} vs brute {tau_brute!r}"
                )
                break
            rho_fast = correlate("spearman", x, y)
            ranks_x = brute_average_ranks(x)
            ranks_y = brute_average_ranks(y)
            if np.unique(ranks_x).size < 2 or np.unique(ranks_y).size < 2:
                continue
            rho_brute = pearson(ranks_x, ranks_y)
            worst_rho = max(worst_rho, abs(rho_fast - rho_brute))
            if abs(rho_fast - rho_brute) > 1e-12:
                failures.append(
                    f"trial {trial}: spearman {rho_fast!r} vs brute {rho_brute!r}"
                )
                break
        elapsed = time.perf_counter() - started
        if elapsed >= 60.0:
            failures.append(f"took {elapsed:.1f}s, budget 60s")
        return (
            f"1000 vectors, max |tau err| {worst_tau:.2e},"
            f" max |rho err| {worst_rho:.2e}, {elapsed:.1f}s"
        )

    check(1, body, criterion_report)


def test_criterion_2_kendall_scales_to_a_million(criterion_report):
    def body(failures):
        rng = np.random.default_rng(2)
        n = 1_000_000
        x = rng.normal(size=n)
        y = 0.9 * x + math.sqrt(1.0 - 0.81) * rng.normal(size=n)
        correlate("kendall", x[:512], y[:512])  # compile before the clock starts
        started = time.perf_counter()
        tau = correlate("kendall", x, y)
        elapsed = time.perf_counter() - started
        if elapsed >= 10.0:
            failures.append(f"{elapsed:.2f}s for n=1e6, budget 10s")
        subsample = rng.choice(n, size=2000, replace=False)
        tau_brute = brute_kendall_tau_b(x[subsample], y[subsample])
        if math.copysign(1, tau) != math.copysign(1, tau_brute):
            failures.append(f"sign mismatch: {tau} vs subsampled {tau_brute}")
        band_fast = interpret(tau).strength
        band_brute = interpret(tau_brute).strength
        if band_fast != band_brute:
            failures.append(f"band mismatch: {band_fast} vs {band_brute}")
        return f"tau {tau:.4f} in {elapsed:.2f}s; 2000-row brute {tau_brute:.4f} ({band_brute})"

    check(2, body, criterion_report)


def test_criterion_3_interpretation_bands(criterion_report):
    def body(failures):
        reference = [(-0.63634, "strong"), (-0.63254, "strong"), (0.40029, "medium")]
        for value, expected in reference:
            got = interpret(value).strength
            if got != expected:
                failures.append(f"{value} -> {got}, expected {expected}")
        return "three reference coefficients land in their bands"

    check(3, body, criterion_report)


def test_criterion_4_elbow_recovers_planted_blobs(criterion_report):
    def body(failures):
        started = time.perf_counter()
        # regular pentagon, radius 15: min center distance 2*15*sin(36deg)
        # = 17.6, comfortably >= 10x the unit within-blob std
        angles = 2.0 * math.pi * np.arange(5) / 5.0
        centers = 15.0 * np.column_stack([np.cos(angles), np.sin(angles)])
        gaps = [
            float(np.linalg.norm(centers[i] - centers[j]))
            for i in range(5)
            for j in range(i + 1, 5)
        ]
        if min(gaps) < 10.0:
            failures.append(f"fixture separation {min(gaps):.1f} < 10x std")
        hits = 0
        worst_ari = 1.0
        for seed in range(10):
            rng = np.random.default_rng([4, seed])
            truth = np.repeat(np.arange(5), 40)
            points = centers[truth] + rng.normal(size=(200, 2))
            curve = elbow(points, k_range=(1, 10), seed=seed)
            if curve.chosen_k == 5:
                hits += 1
            model = kmeans_fit(points, 5, seed=seed)
            ari = adjusted_rand_index(truth, model.assignments)
            worst_ari = min(worst_ari, ari)
            if ari < 0.95:
                failures.append(f"seed {seed}: ARI {ari:.3f} < 0.95")
        if hits < 9:
            failures.append(f"elbow chose 5 on only {hits}/10 seeds")
        elapsed = time.perf_counter() - started
        if elapsed >= 30.0:
            failures.append(f"took {elapsed:.1f}s, budget 30s")
        return (
            f"elbow 5 on {hits}/10 seeds, min ARI {worst_ari:.3f},"
            f" WCSS monotonicity asserted inside every Lloyd run, {elapsed:.1f}s"
        )

    check(4, body, criterion_report)


def _planted_table(rng: np.random.Generator, n_rows: int, risky_share: float):
    n_risky = int(round(risky_share * n_rows))
    y = np.zeros(n_rows, dtype=np.int64)
    y[:n_risky] = 1
    rng.shuffle(y)
    centers = np.where(y[:, None] == 1, 3.0, -3.0)
    X = centers + rng.normal(size=(n_rows, len(CLASSIFY_FEATURES)))
    return LabeledTable(
        feature_names=CLASSIFY_FEATURES,
        rows=np.arange(n_rows),
        coins=np.arange(n_rows),
        X=X,
        y=y,
    )


def test_criterion_5_classification_floor_and_metric_identities(criterion_report):
    def body(failures):
        rng = np.random.default_rng(5)
        table = _planted_table(rng, 10_000, risky_share=0.20)
        train, test = train_test_split(table, 0.8, seed=5)
        trained = fit(ClassifierSpec.make("knn"), train, seed=5)
        knn_metrics = evaluate(predict(trained, test), test.y)
        baseline = evaluate(np.zeros(test.n_rows, dtype=np.int64), test.y)
        if knn_metrics.f1 < 0.95:
            failures.append(f"knn f1 {knn_metrics.f1:.4f} < 0.95")
        if baseline.f1 != 0.0 or not baseline.zero_division_hit:
            failures.append(f"majority baseline f1 {baseline.f1}, expected 0")
        if not knn_metrics.f1 > baseline.f1:
            failures.append("knn did not beat the majority baseline")
        # constant-negative classifier: zero P/R/F1 yet nonzero accuracy
        if (baseline.precision, baseline.recall, baseline.f1) != (0.0, 0.0, 0.0):
            failures.append("constant-negative metrics not all zero")
        if not 0.0 < baseline.accuracy < 1.0:
            failures.append(f"constant-negative accuracy {baseline.accuracy}")

        for trial in range(1000):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 30, size=4))
            if tp + tn + fp + fn == 0:
                tp = 1
            m = metrics_from_counts(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = (
                2.0 * precision * recall / (precision + recall)
                if precision + recall > 0
                else 0.0
            )
            accuracy = (tp + tn) / (tp + tn + fp + fn)
            if (m.precision, m.recall, m.f1, m.accuracy) != (
                precision,
                recall,
                f1,
                accuracy,
            ):
                failures.append(f"identity broke on table {(tp, tn, fp, fn)}")
                break
        return (
            f"knn f1 {knn_metrics.f1:.4f} vs baseline 0.0 (accuracy"
            f" {baseline.accuracy:.2f}); identities exact on 1000 tables"
        )

    check(5, body, criterion_report)


def test_criterion_6_logistic_gradient_check(criterion_report):
    def body(failures):
        rng = np.random.default_rng(6)
        worst = 0.0
        for trial in range(100):
            n = int(rng.integers(2, 21))
            d = int(rng.integers(1, 8))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n)
            params = rng.normal(size=d + 1)
            l2 = float(rng.choice([0.0, 1e-4, 1e-2]))
            _, analytic = logistic_loss_and_gradient(params, X, y, l2)
            numeric = np.empty_like(params)
            h = 1e-6
            for i in range(params.shape[0]):
                plus, minus = params.copy(), params.copy()
                plus[i] += h
                minus[i] -= h
                numeric[i] = (
                    logistic_loss_and_gradient(plus, X, y, l2)[0]
                    - logistic_loss_and_gradient(minus, X, y, l2)[0]
                ) / (2.0 * h)
            relative = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(analytic), 1e-12
            )
            worst = max(worst, relative)
            if relative > 1e-6:
                failures.append(f"trial {trial}: relative error {relative:.2e}")
                break
        return f"100 instances <= 20x7, worst relative error {worst:.2e}"

    check(6, body, criterion_report)


def test_criterion_7_cleaning_contracts(criterion_report):
    def body(failures):
        rng = np.random.default_rng(7)
        worst_mean = 0.0
        for _ in range(200):
            n = int(rng.integers(3, 60))
            values = rng.normal(size=n) * 10
            holes = rng.random(size=n) < 0.3
            if holes.all():
                holes[0] = False
            column = values.copy()
            column[holes] = np.nan
            table = FeatureTable(np.arange(n), {"price": column})
            once = impute_mean(table, ("price",))
            twice = impute_mean(once, ("price",))
            if not np.array_equal(once.columns["price"], twice.columns["price"]):
                failures.append("impute_mean not idempotent")
                break
            drift = abs(
                float(once.columns["price"].mean()) - float(values[~holes].mean())
            )
            worst_mean = max(worst_mean, drift)
            if drift > 1e-12:
                failures.append(f"imputed mean drifted by {drift:.2e}")
                break

        listed = [
            ([100.0, np.nan, 50.0], [100.0, 100000.0, 50.0]),
            ([np.nan, 1.0], [1000.0, 1.0]),
            ([3.0, 2.0, 1.0], [3.0, 2.0, 1.0]),
        ]
        for raw, expected in listed:
            table = FeatureTable(np.arange(len(raw)), {"max_supply": np.array(raw)})
            got = impute_max_supply(table).columns["max_supply"]
            if not np.array_equal(got, np.array(expected)):
                failures.append(f"x1000 rule: {raw} -> {got.tolist()}")

        worst_norm = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 80))
            column = rng.normal(size=n) * rng.uniform(0.1, 100)
            while np.unique(column).size < 2 or column.max() <= 0:
                column = rng.normal(size=n) + 1.0
            centered = mean_normalize(column)
            worst_norm = max(
                worst_norm,
                abs(float(centered.mean())),
                abs(float(centered.std()) - 1.0),
            )
            scaled = max_normalize(column)
            if float(scaled.max()) != 1.0:
                failures.append("max_normalize max != 1")
                break
        if worst_norm > 1e-12:
            failures.append(f"mean_normalize postcondition off by {worst_norm:.2e}")
        return (
            f"impute_mean exact on 200 tables (drift {worst_mean:.1e}),"
            f" x1000 rule on 3 examples, norms on 1000 columns ({worst_norm:.1e})"
        )

    check(7, body, criterion_report)


def test_criterion_8_planted_survival_fractions(criterion_report):
    def body(failures):
        spec = SyntheticSpec(
            n_coins=2000,
            disappeared_fraction=0.39,
            disappeared_lt_80_fraction=0.40,
            disappeared_lt_365_fraction=0.75,
            surviving_gt_1000_fraction=0.10,
            snapshot_interval_days=365,
            horizon_days=1460,
            seed=8,
        )
        ds = generate_synthetic(spec)
        coins = lifetimes(ds, cutoff=spec.end_day)
        summary = survival_summary(coins)
        planted = {
            "disappeared_fraction": (summary.disappeared_fraction, 0.39),
            "disappeared_lt_80_days": (summary.disappeared_lt_80_days, 0.40),
            "disappeared_lt_365_days": (summary.disappeared_lt_365_days, 0.75),
            "surviving_gt_1000_days": (summary.surviving_gt_1000_days, 0.10),
        }
        for name, (got, expected) in planted.items():
            if got != expected:
                failures.append(f"{name}: {got!r} != {expected!r}")
        tail = pareto(coins)[-1].cumulative_pct
        if abs(tail - 100.0) > 1e-9:
            failures.append(f"pareto cumulative ends at {tail!r}")
        return (
            f"2000 coins: fractions 0.39/0.40/0.75/0.10 recovered exactly,"
            f" pareto tail {tail:.1f}%"
        )

    check(8, body, criterion_report)


def test_criterion_9_pipeline_determinism(criterion_report, tmp_path):
    stages = (
        "generate",
        "clean",
        "lifetimes",
        "correlate",
        "cluster",
        "classify",
        "report",
    )

    def run_pipeline(out: Path) -> None:
        for stage in stages:
            rc = main([stage, "--out", str(out), "--seed", "9"])
            assert rc == 0, f"{stage} exited {rc}"

    def snapshot(out: Path) -> dict[str, bytes]:
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    def body(failures):
        out = tmp_path / "run"
        started = time.perf_counter()
        run_pipeline(out)
        elapsed = time.perf_counter() - started
        first = snapshot(out)
        run_pipeline(out)
        second = snapshot(out)
        if first.keys() != second.keys():
            failures.append("rerun changed the artifact set")
        else:
            changed = [name for name in first if first[name] != second[name]]
            if changed:
                failures.append(f"rerun changed bytes of {changed}")
        if elapsed >= 60.0:
            failures.append(f"pipeline took {elapsed:.1f}s, budget 60s")
        return (
            f"{len(first)} artifacts byte-identical across reruns,"
            f" 100-coin pipeline {elapsed:.1f}s"
        )

    check(9, body, criterion_report)
