"""Chainlens: cryptocurrency snapshot analytics.

Survival statistics, rank correlations, k-means clustering, and
risk classification over daily coin snapshots. The usual flow:

    >>> from chainlens import SyntheticSpec, generate_synthetic, lifetimes
    >>> ds = generate_synthetic(SyntheticSpec(n_coins=10, seed=1))
    >>> len(lifetimes(ds))
    10

Each stage also exists as a CLI subcommand (``chainlens --help``).
"""

from .classify import (
    CLASSIFY_FEATURES,
    ClassifierSpec,
    LabeledTable,
    evaluate,
    fit,
    label_risky,
    load_model,
    manipulability_flags,
    metrics_from_counts,
    predict,
    save_model,
    train_test_split,
)
from .classifiers import CLASSIFIER_KINDS, fit_classifier
from .cleaning import (
    FeatureTable,
    aggregate_stats,
    derive_ptsc,
    impute_max_supply,
    impute_mean,
    max_normalize,
    mean_normalize,
    row_feature_table,
)
from .clustering import ClusterModel, cluster_report, elbow, kmeans_fit, wcss
from .config import RunConfig, build_config
from .correlation import (
    METHODS,
    correlate,
    correlation_matrix,
    interpret,
    price_factor_report,
)
from .dataset import (
    CoinSnapshot,
    Dataset,
    coin_key,
    load_csv,
    parse_day,
    save_csv,
)
from .errors import (
    ApiError,
    AuthenticationError,
    ChainlensError,
    DataQualityWarning,
    InfeasibleSpecError,
    RateLimitError,
    SchemaDriftError,
    UndefinedCorrelationError,
)
from .survival import lifetimes, pareto, survival_summary
from .synthetic import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "ApiError",
    "AuthenticationError",
    "CLASSIFIER_KINDS",
    "CLASSIFY_FEATURES",
    "ChainlensError",
    "ClassifierSpec",
    "ClusterModel",
    "CoinSnapshot",
    "DataQualityWarning",
    "Dataset",
    "FeatureTable",
    "InfeasibleSpecError",
    "LabeledTable",
    "METHODS",
    "RateLimitError",
    "RunConfig",
    "SchemaDriftError",
    "SyntheticSpec",
    "UndefinedCorrelationError",
    "aggregate_stats",
    "build_config",
    "cluster_report",
    "coin_key",
    "correlate",
    "correlation_matrix",
    "derive_ptsc",
    "elbow",
    "evaluate",
    "fit",
    "fit_classifier",
    "impute_max_supply",
    "impute_mean",
    "interpret",
    "kmeans_fit",
    "label_risky",
    "lifetimes",
    "load_csv",
    "load_model",
    "manipulability_flags",
    "max_normalize",
    "mean_normalize",
    "metrics_from_counts",
    "pareto",
    "parse_day",
    "predict",
    "price_factor_report",
    "row_feature_table",
    "save_csv",
    "save_model",
    "survival_summary",
    "train_test_split",
    "wcss",
]
