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
stage (``features.csv``) and ``label_risky`` use. It tabulates them per
snapshot row, asking for ptsc by name like the other six (the ratio is
derived in ``cleaning.feature_values``), then imputes (max-supply
thousandfold rule first, then column means) and reports the missing
cells at each step. Mean/std normalization statistics are computed
from the training split only and merely applied to the test split.

A ``LabeledTable`` carries each row's panel position and coin code as
int64 arrays, and ``manipulability_flags`` gives one boolean mask per
flag over the rows it is given.
"""

from __future__ import annotations

import datetime as dt
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classifiers import (
    CLASSIFIER_KINDS,
    KINDS,
    MODEL_FORMAT_VERSION,
    _validate_matrix,
    fit_classifier,
    from_doc,
    jsonable,
    resolve_hyperparameters,
)
from .cleaning import (
    _finite_stat,
    feature_values,
    impute_max_supply,
    impute_mean,
    row_feature_table,
)
from .dataset import Dataset
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

def _missing_counts(columns: dict[str, np.ndarray]) -> dict[str, int]:
    return {name: int(np.isnan(columns[name]).sum()) for name in CLASSIFY_FEATURES}


def prepare_features(
    dataset: Dataset,
    date_range: tuple[dt.date | None, dt.date | None] | None = None,
) -> tuple[np.ndarray, np.ndarray, tuple[dict[str, int], dict[str, int], dict[str, int]]]:
    """The CLASSIFY_FEATURES of every snapshot row in range, imputed.

    Returns the rows' panel positions, the fully imputed matrix with one
    column per feature in CLASSIFY_FEATURES order, and the per-feature
    missing-cell counts at three points: before imputation, after the
    max-supply rule, and after the column-mean fill. Rows whose
    circulating supply is present but whose total supply is absent or
    zero get an absent ptsc (later mean-filled), with one data-quality
    warning.
    """
    table = row_feature_table(dataset, CLASSIFY_FEATURES, date_range)
    if not table.rows.size:
        raise ChainlensError("no rows in the requested date range")
    circulating = table.columns["circulating_supply"]
    total = table.columns["total_supply"]
    bad_total = int(np.sum(~(total > 0) & ~np.isnan(circulating)))
    if bad_total:
        warnings.warn(
            f"{bad_total} value(s) have absent or zero total_supply; "
            "ratio left absent",
            DataQualityWarning,
            stacklevel=2,
        )
    before = _missing_counts(table.columns)
    table = impute_max_supply(table)
    after_rule = _missing_counts(table.columns)
    table = impute_mean(table, CLASSIFY_FEATURES)
    X = np.column_stack([table.columns[name] for name in CLASSIFY_FEATURES])
    return table.rows, X, (before, after_rule, _missing_counts(table.columns))


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str
    hyperparameters: dict

    @classmethod
    def make(cls, kind: str, overrides: dict | None = None) -> "ClassifierSpec":
        return cls(kind=kind, hyperparameters=resolve_hyperparameters(kind, overrides))


@dataclass(frozen=True, eq=False)
class LabeledTable:
    """Row-level features plus 0/1 risk labels, one row per coin-day:
    ``rows`` are panel positions, ``coins`` codes into ``Dataset.keys``."""

    feature_names: tuple[str, ...]
    rows: np.ndarray
    coins: np.ndarray
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.X.shape != (len(self.rows), len(self.feature_names)):
            raise ChainlensError("feature matrix shape mismatch")
        if self.y.shape != (len(self.rows),):
            raise ChainlensError("label vector shape mismatch")
        if not np.all(np.isfinite(self.X)):
            raise ChainlensError("labeled rows must be fully imputed and finite")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def take(self, indices) -> "LabeledTable":
        indices = np.asarray(indices)
        return LabeledTable(
            feature_names=self.feature_names,
            rows=self.rows[indices],
            coins=self.coins[indices],
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
    risky = lifetimes(dataset, cutoff).disappeared.astype(np.int64)
    rows, X, _ = prepare_features(dataset, date_range)
    coins = dataset.codes[rows]
    return LabeledTable(
        feature_names=CLASSIFY_FEATURES, rows=rows, coins=coins, X=X, y=risky[coins]
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
        # the distinct coins in first-appearance order
        coins = np.array(list(dict.fromkeys(table.coins.tolist())))
        if len(coins) < 2:
            raise ChainlensError("group split needs at least 2 coins")
        n_train = round(ratio * len(coins))
        if n_train == 0 or n_train == len(coins):
            raise ChainlensError(
                f"ratio {ratio} leaves one side of the coin split empty"
            )
        order = rng.permutation(len(coins))
        in_train = np.isin(table.coins, coins[order[:n_train]])
        train_idx = np.flatnonzero(in_train)
        test_idx = np.flatnonzero(~in_train)
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
    scales: np.ndarray = field(metadata={"positive": True})

    @classmethod
    def fit(cls, X: np.ndarray) -> "Normalizer":
        with np.errstate(over="ignore"):
            means, scales = X.mean(axis=0), X.std(axis=0)  # population std, as everywhere
            for stats, stat in ((means, np.mean), (scales, np.std)):
                for j in np.flatnonzero(~np.isfinite(stats)):  # its sums overflow
                    stats[j] = _finite_stat(X[:, j], stat)
        scales = np.where(scales == 0.0, 1.0, scales)
        return cls(means=means, scales=scales)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.means) / self.scales


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
    X = _validate_matrix(
        rows.X if isinstance(rows, LabeledTable) else rows, len(trained.feature_names)
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


# the thresholds of low_circulation and volatile_volume
LOW_CIRCULATION_PTSC = 0.5
VOLATILE_VOLUME_RATIO = 1.0


def manipulability_flags(
    dataset: Dataset, rows, volume: tuple[np.ndarray, np.ndarray]
) -> dict[str, np.ndarray]:
    """Heuristic manipulation-risk flags at the given panel rows.

    Returns one boolean mask over ``rows`` per flag; the keys are
    every flag there is. ``volume`` is the (means, stds) pair of
    per-coin volume statistics in ``dataset.keys`` order that
    :func:`~chainlens.cleaning.aggregate_stats` gives for
    ``volume_24h``; each row reads its coin's.

    * ``unlimited_issuance``: no declared max supply, so the issuer
      can mint indefinitely.
    * ``low_circulation``: the circulating share of total supply is
      below ``LOW_CIRCULATION_PTSC``, leaving insiders a large
      undistributed stake.
    * ``volatile_volume``: the coin's volume std exceeds
      ``VOLATILE_VOLUME_RATIO`` times its mean volume, a pattern
      associated with pump-and-dump bursts.

    Missing inputs never raise; they produce ``insufficient_data_*``
    flags instead.
    """
    # NaN when either supply is absent or the total is not positive
    ptsc = feature_values(dataset, "ptsc", rows)
    means, stds = (stat[dataset.codes[rows]] for stat in volume)
    no_volume = np.isnan(means) | np.isnan(stds) | (means == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        volatile = stds / means > VOLATILE_VOLUME_RATIO
    return {
        "unlimited_issuance": np.isnan(dataset.column("max_supply")[rows]),
        "low_circulation": ptsc < LOW_CIRCULATION_PTSC,
        "insufficient_data_circulation": np.isnan(ptsc),
        "volatile_volume": volatile & ~no_volume,
        "insufficient_data_volume": no_volume,
    }


def save_model(trained: TrainedModel, path: str | Path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": trained.spec.kind,
        "hyperparameters": trained.spec.hyperparameters,
        "feature_names": list(trained.feature_names),
        "seed": trained.seed,
        "normalizer": trained.normalizer,
        "parameters": trained.model,
    }
    # compact, and written a blob at a time: ``json.dump`` calls
    # ``jsonable`` for one model field or array at a time
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, separators=(",", ":"), sort_keys=True, default=jsonable)


_MODEL_KEYS = (
    "format_version", "kind", "hyperparameters", "feature_names", "seed", "normalizer", "parameters"
)


def load_model(path: str | Path) -> TrainedModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise ChainlensError(f"model file {path} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ChainlensError(f"model file {path} must hold a JSON object")
    version = doc.get("format_version")
    if version == 1 and type(version) is int:
        raise ChainlensError(f"model file {path}: model format 1 is no longer read; rerun classify")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ChainlensError(
            f"model file {path}: unsupported model format version {version!r}; "
            f"expected {MODEL_FORMAT_VERSION}"
        )
    missing = [key for key in _MODEL_KEYS if key not in doc]
    if missing:
        raise ChainlensError(f"model file {path} lacks {', '.join(missing)}")
    unknown = sorted(doc.keys() - set(_MODEL_KEYS))
    if unknown:
        raise ChainlensError(f"model file {path} has unknown keys {', '.join(unknown)}")
    kind = doc["kind"]
    if kind not in CLASSIFIER_KINDS:
        raise ChainlensError(f"unknown classifier kind {kind!r} in model file {path}")
    hyperparameters = doc["hyperparameters"]
    expected = KINDS[kind].defaults.keys()
    if not isinstance(hyperparameters, dict) or hyperparameters.keys() != expected:
        raise ChainlensError(
            f"model file {path}: hyperparameters must be an object of {sorted(expected)}"
        )
    names = doc["feature_names"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ChainlensError(f"model file {path}: feature_names must be a list of strings")
    seed = doc["seed"]
    if type(seed) is not int:
        raise ChainlensError(f"model file {path}: seed must be an integer")
    try:
        hyperparameters = resolve_hyperparameters(kind, hyperparameters)
        normalizer = from_doc(Normalizer, doc["normalizer"])
        model = from_doc(KINDS[kind].model, doc["parameters"], hyperparameters=hyperparameters)
    except ChainlensError as exc:  # a hyperparameter or field value, or a model check
        raise ChainlensError(f"model file {path}: {exc}") from None
    if normalizer.means.shape != (len(names),) or normalizer.scales.shape != (len(names),):
        raise ChainlensError(
            f"model file {path}: the normalizer must hold one mean and scale per feature"
        )
    if model.n_features != len(names):
        raise ChainlensError(
            f"model file {path}: the model takes {model.n_features} features, "
            f"but feature_names names {len(names)}"
        )
    return TrainedModel(
        spec=ClassifierSpec(kind=kind, hyperparameters=hyperparameters),
        feature_names=tuple(names),
        normalizer=normalizer,
        model=model,
        seed=seed,
    )
