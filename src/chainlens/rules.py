"""Names and date rules that the run config and the stages share.

This module imports no numpy and no other chainlens module but
``errors``, so checking a command line loads nothing a stage does not
run.
"""

from __future__ import annotations

import datetime as dt

from .errors import ChainlensError

METHODS = ("pearson", "kendall", "spearman")

CLASSIFIER_KINDS = (
    "logistic_regression",
    "linear_svm",
    "decision_tree",
    "random_forest",
    "gaussian_nb",
    "knn",
)


def check_date_range(lo, hi, error: type[Exception] = ChainlensError) -> None:
    """Raise ``error`` when the inclusive day range ``lo``..``hi`` is
    empty; a None end is open."""
    if lo is not None and hi is not None and lo > hi:
        raise error(f"empty date range: {lo} > {hi}")


def parse_day(text: str) -> dt.date:
    """Parse a UTC calendar day, truncating any intraday part."""
    text = text.strip()
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        pass
    try:
        stamp = dt.datetime.fromisoformat(text.replace("Z", "+00:00"))
        if stamp.tzinfo is not None:
            stamp = stamp.astimezone(dt.timezone.utc)
    except (ValueError, OverflowError):  # the latter: UTC day off the calendar
        raise ValueError(f"invalid date {text!r}") from None
    return stamp.date()
