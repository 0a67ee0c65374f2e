"""Chainlens: cryptocurrency snapshot analytics.

Survival statistics, rank correlations, k-means clustering, and
risk classification over daily coin snapshots. The usual flow:

    >>> from chainlens import SyntheticSpec, generate_synthetic, lifetimes
    >>> ds = generate_synthetic(SyntheticSpec(n_coins=10, seed=1))
    >>> lifetimes(ds).disappeared.size
    10

Each stage also exists as a CLI subcommand (``chainlens --help``).

The public names below are imported from their modules on first use,
so importing the package (as every CLI stage does) loads none of them.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_EXPORTS = {
    "classify": (
        "CLASSIFY_FEATURES", "ClassifierSpec", "LabeledTable", "evaluate", "fit", "label_risky",
        "load_model", "manipulability_flags", "metrics_from_counts", "predict", "save_model",
        "train_test_split",
    ),
    "classifiers": ("fit_classifier",),
    "cleaning": (
        "FeatureTable", "aggregate_stats", "derive_ptsc", "impute_max_supply", "impute_mean",
        "max_normalize", "mean_normalize", "row_feature_table",
    ),
    "clustering": ("ClusterModel", "cluster_report", "elbow", "kmeans_fit"),
    "config": ("RunConfig", "build_config"),
    "correlation": ("correlate", "correlation_matrix", "interpret", "price_factor_report"),
    "dataset": ("Dataset", "coin_key", "load_csv", "save_csv"),
    "errors": (
        "ApiError", "AuthenticationError", "ChainlensError", "DataQualityWarning",
        "InfeasibleSpecError", "RateLimitError", "SchemaDriftError", "UndefinedCorrelationError",
    ),
    "rules": ("CLASSIFIER_KINDS", "METHODS", "parse_day"),
    "survival": ("lifetimes", "pareto", "survival_summary"),
    "synthetic": ("SyntheticSpec", "generate_synthetic"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
