"""Tracing bootstrap: run one chainlens CLI stage with its layer calls timed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py SPANS.json STAGE [CLI ARGS...]

The stage runs exactly as ``python -m chainlens.cli STAGE ...`` would,
in its own process, except that the public functions listed in
``TARGETS`` are replaced, under the names their callers bind them to,
by wrappers that record a span (name, start, end, parent, counts).
Spans stay in memory and are written to SPANS.json when the stage
returns; the process then exits with the stage's exit code. Nothing
under ``src/`` is changed.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from functools import wraps


class Tracer:
    """In-memory span recorder. A span is ``[name, start, end, parent,
    counts]`` with ``perf_counter`` times and ``parent`` the index of
    the enclosing span, or None for a top-level call."""

    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []

    def wrap(self, name, fn, measure=None):
        """Wrap ``fn`` so each call records one span.

        ``name`` is a string or a function of the call's positional
        arguments returning one. ``measure(args, result)`` returns a
        dict of counts stored on the span of a call that returned.
        Return values and exceptions pass through unchanged.
        """

        @wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            parent = self._open[-1] if self._open else None
            index = len(self.spans)
            span = [label, time.perf_counter(), None, parent, {}]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if measure is not None:
                span[4] = measure(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _kind(args) -> str:
    return args[0].spec.kind


def _rows(args, result):
    return {"rows": len(result)}


def _elements(args, result):
    return {"elements": int(len(args[0]))}


def _lloyd_iterations(args, result):
    return {"iterations": int(result[3])}


def _model_bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, span name, measure). A function imported into
# several modules is wrapped under each binding, with one span name.
TARGETS = (
    ("chainlens.cli", "load_csv", "dataset.load_csv", _rows),
    ("chainlens.cli", "save_csv", "dataset.save_csv", None),
    ("chainlens.cli", "generate_synthetic", "synthetic.generate_synthetic", None),
    ("chainlens.cli", "fetch_history", "api.fetch_history", _rows),
    ("chainlens.cli", "row_feature_table", "cleaning.row_feature_table", None),
    ("chainlens.classify", "row_feature_table", "cleaning.row_feature_table", None),
    ("chainlens.correlation", "row_feature_table", "cleaning.row_feature_table", None),
    ("chainlens.cli", "aggregate_stats", "cleaning.aggregate_stats", None),
    ("chainlens.correlation", "aggregate_stats", "cleaning.aggregate_stats", None),
    ("chainlens.cli", "impute_mean", "cleaning.impute_mean", None),
    ("chainlens.classify", "impute_mean", "cleaning.impute_mean", None),
    ("chainlens.cli", "impute_max_supply", "cleaning.impute_max_supply", None),
    ("chainlens.classify", "impute_max_supply", "cleaning.impute_max_supply", None),
    ("chainlens.cli", "lifetimes", "survival.lifetimes", None),
    ("chainlens.classify", "lifetimes", "survival.lifetimes", None),
    ("chainlens.cli", "price_factor_report", "correlation.price_factor_report", None),
    ("chainlens.correlation", "correlate", "correlation.correlate", None),
    ("chainlens.correlation", "count_inversions", "kernels.count_inversions", _elements),
    ("chainlens.cli", "cluster_report", "clustering.cluster_report", None),
    ("chainlens.clustering", "elbow", "clustering.elbow", None),
    ("chainlens.clustering", "kmeans_fit", "clustering.kmeans_fit", None),
    ("chainlens.clustering", "_lloyd", "clustering.lloyd", _lloyd_iterations),
    ("chainlens.cli", "label_risky", "classify.label_risky", None),
    ("chainlens.cli", "train_test_split", "classify.train_test_split", None),
    ("chainlens.cli", "fit", lambda args: f"classify.fit.{args[0].kind}", None),
    ("chainlens.cli", "predict", lambda args: f"classify.predict.{_kind(args)}", None),
    (
        "chainlens.cli",
        "save_model",
        lambda args: f"classify.save_model.{_kind(args)}",
        _model_bytes,
    ),
    ("chainlens.cli", "pareto_chart", "svgcharts.pareto_chart", None),
    ("chainlens.cli", "elbow_chart", "svgcharts.elbow_chart", None),
    ("chainlens.cli", "metrics_chart", "svgcharts.metrics_chart", None),
)


def install(tracer: Tracer) -> None:
    """Replace every target binding, and ``Dataset.build``, with a
    traced wrapper."""
    wrapped: dict = {}
    for module_name, attribute, name, measure in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)
        if original not in wrapped:
            wrapped[original] = tracer.wrap(name, original, measure)
        setattr(module, attribute, wrapped[original])
    dataset = importlib.import_module("chainlens.dataset")
    build = dataset.Dataset.build.__func__
    dataset.Dataset.build = classmethod(
        tracer.wrap("dataset.Dataset.build", build)
    )


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json STAGE [ARGS...]", file=sys.stderr)
        return 2
    spans_path, stage_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("chainlens.cli")
    try:
        return cli.main(stage_argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
