"""Risk labeling, splitting, training, and evaluation.

A coin that disappeared before the cutoff is risky (label 1); every
historical row of a coin carries that coin's label, so the classifier
sees individual coin-days. The split is row-random by default, which
mirrors the source methodology but lets rows of one coin straddle the
split; pass ``group_by_coin=True`` for the honest variant that keeps
each coin entirely on one side.

Feature preparation: ``prepare_features`` is the one path from a
dataset to the seven columns {price, max_supply, total_supply,
circulating_supply, volume_24h, market_cap, ptsc} that both the clean
stage (``features.csv``) and ``label_risky`` use. It tabulates the six
market columns per snapshot row, derives ptsc, then imputes (max-supply
thousandfold rule first, then column means) and reports the missing
cells at each step. Mean/std normalization statistics are computed
from the training split only and merely applied to the test split.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .classifiers import (
    CLASSIFIER_KINDS,
    fit_classifier,
    model_parameters_from_doc,
    resolve_hyperparameters,
)
from .cleaning import (
    AggregateFeatures,
    FeatureTable,
    derive_ptsc,
    impute_max_supply,
    impute_mean,
    row_feature_table,
)
from .dataset import CoinSnapshot, Dataset
from .errors import ChainlensError, DataQualityWarning
from .survival import lifetimes

CLASSIFY_FEATURES = (
    "price",
    "max_supply",
    "total_supply",
    "circulating_supply",
    "volume_24h",
    "market_cap",
    "ptsc",
)

MODEL_FORMAT_VERSION = 1


def _missing_counts(table: FeatureTable) -> dict[str, int]:
    return {
        name: int(np.isnan(table.column(name)).sum()) for name in CLASSIFY_FEATURES
    }


def prepare_features(
    dataset: Dataset,
    date_range: tuple[dt.date | None, dt.date | None] | None = None,
) -> tuple[FeatureTable, tuple[dict[str, int], dict[str, int], dict[str, int]]]:
    """The CLASSIFY_FEATURES of every snapshot row in range, imputed.

    Returns the fully imputed table and the per-feature missing-cell
    counts at three points: before imputation, after the max-supply
    rule, and after the column-mean fill. Rows whose circulating
    supply is present but whose total supply is absent or zero get an
    absent ptsc (later mean-filled), with one data-quality warning.
    """
    base = row_feature_table(
        dataset,
        columns=tuple(c for c in CLASSIFY_FEATURES if c != "ptsc"),
        date_range=date_range,
    )
    if base.n_rows == 0:
        raise ChainlensError("no rows in the requested date range")
    circulating = base.column("circulating_supply")
    total = base.column("total_supply")
    bad_total = int(np.sum(~(total > 0) & ~np.isnan(circulating)))
    if bad_total:
        warnings.warn(
            f"{bad_total} value(s) have absent or zero total_supply; "
            "ratio left absent",
            DataQualityWarning,
            stacklevel=2,
        )
    table = base.with_columns(ptsc=derive_ptsc(circulating, total))
    before = _missing_counts(table)
    table = impute_max_supply(table)
    after_rule = _missing_counts(table)
    table = impute_mean(table, CLASSIFY_FEATURES)
    return table, (before, after_rule, _missing_counts(table))


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str
    hyperparameters: dict

    @classmethod
    def make(cls, kind: str, overrides: dict | None = None) -> "ClassifierSpec":
        return cls(kind=kind, hyperparameters=resolve_hyperparameters(kind, overrides))


@dataclass(frozen=True, eq=False)
class LabeledTable:
    """Row-level features plus 0/1 risk labels, one row per coin-day."""

    feature_names: tuple[str, ...]
    row_ids: tuple[str, ...]
    keys: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.X.shape != (len(self.row_ids), len(self.feature_names)):
            raise ChainlensError("feature matrix shape mismatch")
        if self.y.shape != (len(self.row_ids),):
            raise ChainlensError("label vector shape mismatch")
        if not np.all(np.isfinite(self.X)):
            raise ChainlensError("labeled rows must be fully imputed and finite")

    @property
    def n_rows(self) -> int:
        return len(self.row_ids)

    def take(self, indices) -> "LabeledTable":
        indices = np.asarray(indices)
        return LabeledTable(
            feature_names=self.feature_names,
            row_ids=tuple(self.row_ids[i] for i in indices),
            keys=tuple(self.keys[i] for i in indices),
            X=self.X[indices],
            y=self.y[indices],
        )


def label_risky(
    dataset: Dataset,
    cutoff: dt.date | None = None,
    date_range: tuple[dt.date | None, dt.date | None] | None = None,
) -> LabeledTable:
    """Label every snapshot row with its coin's disappearance status.

    ``date_range`` optionally restricts which rows become training
    data; labels always reflect each coin's full observed history
    against the cutoff.
    """
    records = lifetimes(dataset, cutoff)
    risky = {r.key: int(r.disappeared) for r in records}
    table, _ = prepare_features(dataset, date_range)
    keys = tuple(row_id.split("@", 1)[0] for row_id in table.row_ids)
    return LabeledTable(
        feature_names=CLASSIFY_FEATURES,
        row_ids=table.row_ids,
        keys=keys,
        X=table.matrix(CLASSIFY_FEATURES),
        y=np.array([risky[key] for key in keys], dtype=np.int64),
    )


def train_test_split(
    table: LabeledTable,
    ratio: float,
    seed: int = 0,
    group_by_coin: bool = False,
) -> tuple[LabeledTable, LabeledTable]:
    """Disjoint, exhaustive random partition with |train| = round(ratio n).

    ``group_by_coin`` partitions coins instead of rows, so no coin's
    history straddles the split.
    """
    if not 0.0 < ratio < 1.0:
        raise ChainlensError(f"split ratio must be in (0, 1), got {ratio}")
    if table.n_rows < 2:
        raise ChainlensError("need at least 2 rows to split")
    rng = np.random.default_rng(seed)
    if group_by_coin:
        coins = list(dict.fromkeys(table.keys))
        if len(coins) < 2:
            raise ChainlensError("group split needs at least 2 coins")
        n_train = round(ratio * len(coins))
        if n_train == 0 or n_train == len(coins):
            raise ChainlensError(
                f"ratio {ratio} leaves one side of the coin split empty"
            )
        order = rng.permutation(len(coins))
        train_coins = {coins[i] for i in order[:n_train]}
        keys = np.array(table.keys)
        train_idx = np.flatnonzero(np.isin(keys, sorted(train_coins)))
        test_idx = np.flatnonzero(~np.isin(keys, sorted(train_coins)))
    else:
        n_train = round(ratio * table.n_rows)
        if n_train == 0 or n_train == table.n_rows:
            raise ChainlensError(
                f"ratio {ratio} leaves one side of the {table.n_rows}-row split empty"
            )
        order = rng.permutation(table.n_rows)
        train_idx = np.sort(order[:n_train])
        test_idx = np.sort(order[n_train:])
    return table.take(train_idx), table.take(test_idx)


@dataclass(frozen=True, eq=False)
class Normalizer:
    """Column-wise mean/std transform frozen from the training split.

    A constant training column gets scale 1 (it carries no signal and
    maps to zeros); that rule is the standard graceful degradation,
    documented here because the strict normalizer refuses constants.
    """

    means: np.ndarray
    scales: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Normalizer":
        means = X.mean(axis=0)
        scales = X.std(axis=0)  # population convention, as everywhere
        scales = np.where(scales == 0.0, 1.0, scales)
        return cls(means=means, scales=scales)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.means) / self.scales

    def as_doc(self) -> dict:
        return {"means": self.means.tolist(), "scales": self.scales.tolist()}

    @classmethod
    def from_doc(cls, doc: dict) -> "Normalizer":
        return cls(
            means=np.array(doc["means"], dtype=np.float64),
            scales=np.array(doc["scales"], dtype=np.float64),
        )


@dataclass(frozen=True, eq=False)
class TrainedModel:
    spec: ClassifierSpec
    feature_names: tuple[str, ...]
    normalizer: Normalizer
    model: object
    seed: int


def fit(spec: ClassifierSpec, train: LabeledTable, seed: int = 0) -> TrainedModel:
    if train.n_rows == 0:
        raise ChainlensError("training table is empty")
    normalizer = Normalizer.fit(train.X)
    model = fit_classifier(
        spec.kind,
        normalizer.transform(train.X),
        train.y,
        hyperparameters=spec.hyperparameters,
        seed=seed,
    )
    return TrainedModel(
        spec=spec,
        feature_names=train.feature_names,
        normalizer=normalizer,
        model=model,
        seed=seed,
    )


def predict(trained: TrainedModel, rows) -> np.ndarray:
    """Hard labels for a LabeledTable or a raw feature matrix."""
    X = rows.X if isinstance(rows, LabeledTable) else np.asarray(rows, dtype=np.float64)
    if X.ndim != 2:
        raise ChainlensError("prediction input must be 2-d")
    if X.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    if X.shape[1] != len(trained.feature_names):
        raise ChainlensError(
            f"expected {len(trained.feature_names)} features, got {X.shape[1]}"
        )
    return trained.model.predict(trained.normalizer.transform(X))


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class EvalMetrics:
    precision: float
    recall: float
    accuracy: float
    f1: float
    zero_division_hit: bool
    counts: ConfusionCounts


def metrics_from_counts(counts: ConfusionCounts) -> EvalMetrics:
    """Precision, recall, accuracy, F1 with the zero-denominator -> 0
    policy; the flag records that the policy fired."""
    zero_hit = False

    def safe(numerator: int, denominator: int) -> float:
        nonlocal zero_hit
        if denominator == 0:
            zero_hit = True
            return 0.0
        return numerator / denominator

    precision = safe(counts.tp, counts.tp + counts.fp)
    recall = safe(counts.tp, counts.tp + counts.fn)
    if counts.total == 0:
        raise ChainlensError("cannot evaluate an empty confusion table")
    accuracy = (counts.tp + counts.tn) / counts.total
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        zero_hit = True
        f1 = 0.0
    return EvalMetrics(
        precision=precision,
        recall=recall,
        accuracy=accuracy,
        f1=f1,
        zero_division_hit=zero_hit,
        counts=counts,
    )


def evaluate(predicted, truth) -> EvalMetrics:
    """Metrics with risky (1) as the positive class."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise ChainlensError(
            f"prediction/truth shapes differ: {predicted.shape} vs {truth.shape}"
        )
    if predicted.shape[0] == 0:
        raise ChainlensError("cannot evaluate zero predictions")
    counts = ConfusionCounts(
        tp=int(np.sum((predicted == 1) & (truth == 1))),
        tn=int(np.sum((predicted == 0) & (truth == 0))),
        fp=int(np.sum((predicted == 1) & (truth == 0))),
        fn=int(np.sum((predicted == 0) & (truth == 1))),
    )
    return metrics_from_counts(counts)


# every flag manipulability_flags can emit
FLAG_NAMES = frozenset(
    {
        "unlimited_issuance",
        "low_circulation",
        "insufficient_data_circulation",
        "volatile_volume",
        "insufficient_data_volume",
    }
)


def manipulability_flags(
    snapshot: CoinSnapshot,
    series_stats: AggregateFeatures | None = None,
    ptsc_threshold: float = 0.5,
    volume_ratio_threshold: float = 1.0,
) -> frozenset[str]:
    """Heuristic manipulation-risk flags for one coin.

    * ``unlimited_issuance``: no declared max supply, so the issuer
      can mint indefinitely.
    * ``low_circulation``: the circulating share of total supply is
      below the threshold, leaving insiders a large undistributed
      stake.
    * ``volatile_volume``: the coin's volume std exceeds
      ``volume_ratio_threshold`` times its mean volume, a pattern
      associated with pump-and-dump bursts.

    Missing inputs never raise; they produce ``insufficient_data_*``
    flags instead.
    """
    flags = set()
    if snapshot.max_supply is None:
        flags.add("unlimited_issuance")
    if (
        snapshot.circulating_supply is None
        or snapshot.total_supply is None
        or snapshot.total_supply <= 0
    ):
        flags.add("insufficient_data_circulation")
    else:
        if snapshot.circulating_supply / snapshot.total_supply < ptsc_threshold:
            flags.add("low_circulation")
    volume = series_stats.volume_24h if series_stats is not None else None
    if (
        volume is None
        or volume.mean is None
        or volume.std is None
        or volume.mean == 0
    ):
        flags.add("insufficient_data_volume")
    else:
        if volume.std / volume.mean > volume_ratio_threshold:
            flags.add("volatile_volume")
    return frozenset(flags)


def save_model(trained: TrainedModel, path: str | Path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": trained.spec.kind,
        "hyperparameters": trained.spec.hyperparameters,
        "feature_names": list(trained.feature_names),
        "seed": trained.seed,
        "normalizer": trained.normalizer.as_doc(),
        "parameters": trained.model.parameters_doc(),
    }
    # compact separators: a forest file holds millions of numbers
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    Path(path).write_text(text, encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ChainlensError(
            f"unsupported model format version {version!r}; expected {MODEL_FORMAT_VERSION}"
        )
    kind = doc["kind"]
    if kind not in CLASSIFIER_KINDS:
        raise ChainlensError(f"unknown classifier kind {kind!r} in model file")
    hyperparameters = doc["hyperparameters"]
    return TrainedModel(
        spec=ClassifierSpec(kind=kind, hyperparameters=hyperparameters),
        feature_names=tuple(doc["feature_names"]),
        normalizer=Normalizer.from_doc(doc["normalizer"]),
        model=model_parameters_from_doc(kind, doc["parameters"], hyperparameters),
        seed=int(doc.get("seed", 0)),
    )


def save_metrics_csv(
    named_metrics: Iterable[tuple[str, EvalMetrics]], path: str | Path
) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["classifier", "precision", "recall", "f1", "accuracy"])
        for name, m in named_metrics:
            writer.writerow(
                [name, repr(m.precision), repr(m.recall), repr(m.f1), repr(m.accuracy)]
            )
