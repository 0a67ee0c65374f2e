"""Dependency-free SVG figures for the pipeline's artifacts.

Three chart shapes cover every figure the reports need: a Pareto chart
(bars plus a cumulative-percent line), an elbow curve (k vs WCSS), and
grouped metric bars (four bars per classifier). Charts are emitted as
plain SVG text with inline styling only, so the files stand alone, diff
cleanly, and can be checked by an XML parser in tests.

``emit_plot_data`` is the artifact-facing entry point: it takes rows as
parsed from a prior subcommand's CSV artifact and returns the SVG plus
exactly the numbers that were plotted, as a header and rows.
"""

from __future__ import annotations

import math
from html import escape
from typing import Sequence

from .errors import ChainlensError

METRIC_SERIES = ("precision", "recall", "f1", "accuracy")
_SERIES_COLORS = ("#4878a8", "#e49444", "#5aa469", "#d1605e")

_WIDTH = 800
_HEIGHT = 420
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 70
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 70


def _fmt(value: float) -> str:
    # fixed short decimal form keeps files small and byte-stable
    text = f"{value:.2f}"
    return text


def _svg_open(title: str) -> list[str]:
    """A chart's frame: the canvas, its title and the two axes."""
    x0, y0 = _MARGIN_LEFT, _HEIGHT - _MARGIN_BOTTOM
    x1, y1 = _WIDTH - _MARGIN_RIGHT, _MARGIN_TOP
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'width="{_WIDTH}" height="{_HEIGHT}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black" stroke-width="1"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1"/>',
    ]


def _scale_label(text: str) -> str:
    """The value at the top of the left axis."""
    return (
        f'<text x="{_MARGIN_LEFT - 8}" y="{_MARGIN_TOP + 4}" text-anchor="end" '
        f'font-size="10">{text}</text>'
    )


def _plot_geometry(n_slots: int):
    """Even slot layout across the plot area; returns (slot_width, x_of, y_of)."""
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    slot = plot_w / max(1, n_slots)

    def x_of(i: float) -> float:
        return _MARGIN_LEFT + slot * i

    def y_of(frac: float) -> float:
        return _HEIGHT - _MARGIN_BOTTOM - plot_h * frac

    return slot, x_of, y_of


def pareto_label(start, end) -> str:
    """Axis label of the lifetime bucket [start, end) days."""
    return f"{start}-{end}d"


def pareto_chart(buckets: Sequence[tuple[str, float, float]]) -> str:
    """Bars of bucket counts with the cumulative-percent line overlaid.

    ``buckets`` rows are (label, count, cumulative_pct); order is kept.
    """
    if not buckets:
        raise ChainlensError("cannot draw a pareto chart with no buckets")
    parts = _svg_open("Disappearance Pareto")
    slot, x_of, y_of = _plot_geometry(len(buckets))
    top = max(count for _, count, _ in buckets)
    top = top if top > 0 else 1.0
    bar_w = slot * 0.7
    for i, (label, count, _) in enumerate(buckets):
        x = x_of(i) + (slot - bar_w) / 2
        y = y_of(count / top)
        h = (_HEIGHT - _MARGIN_BOTTOM) - y
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" '
            f'height="{_fmt(h)}" fill="{_SERIES_COLORS[0]}"/>'
        )
        parts.append(
            f'<text x="{_fmt(x_of(i) + slot / 2)}" y="{_HEIGHT - _MARGIN_BOTTOM + 16}" '
            f'text-anchor="middle" font-size="9" transform="rotate(30 '
            f'{_fmt(x_of(i) + slot / 2)} {_HEIGHT - _MARGIN_BOTTOM + 16})">'
            f"{escape(label, quote=False)}</text>"
        )
    points = " ".join(
        f"{_fmt(x_of(i) + slot / 2)},{_fmt(y_of(pct / 100.0))}"
        for i, (_, _, pct) in enumerate(buckets)
    )
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="{_SERIES_COLORS[3]}" '
        f'stroke-width="2"/>'
    )
    for i, (_, _, pct) in enumerate(buckets):
        parts.append(
            f'<circle cx="{_fmt(x_of(i) + slot / 2)}" cy="{_fmt(y_of(pct / 100.0))}" '
            f'r="3" fill="{_SERIES_COLORS[3]}"/>'
        )
    parts.append(_scale_label(_fmt(top)))
    parts.append(
        f'<text x="{_WIDTH - _MARGIN_RIGHT + 8}" y="{_MARGIN_TOP + 4}" '
        f'font-size="10">100%</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def elbow_chart(points: Sequence[tuple[int, float]]) -> str:
    """WCSS-vs-k line with one marker per evaluated k."""
    if not points:
        raise ChainlensError("cannot draw an elbow chart with no points")
    parts = _svg_open("Cluster Count Selection")
    slot, x_of, y_of = _plot_geometry(max(1, len(points) - 1))
    top = max(w for _, w in points)
    top = top if top > 0 else 1.0
    coords = [
        (x_of(i), y_of(w / top)) for i, (_, w) in enumerate(points)
    ]
    line = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in coords)
    parts.append(
        f'<polyline points="{line}" fill="none" stroke="{_SERIES_COLORS[0]}" '
        f'stroke-width="2"/>'
    )
    for (x, y), (k, _) in zip(coords, points):
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{_SERIES_COLORS[0]}"/>')
        parts.append(
            f'<text x="{_fmt(x)}" y="{_HEIGHT - _MARGIN_BOTTOM + 16}" '
            f'text-anchor="middle" font-size="10">{k}</text>'
        )
    parts.append(_scale_label(_fmt(top)))
    parts.append("</svg>")
    return "\n".join(parts)


def metrics_chart(rows: Sequence[tuple]) -> str:
    """Grouped bars: precision, recall, f1, accuracy per classifier.

    ``rows`` are (classifier, precision, recall, f1, accuracy).
    """
    if not rows:
        raise ChainlensError("cannot draw a metrics chart with no classifiers")
    parts = _svg_open("Classifier Scores")
    slot, x_of, y_of = _plot_geometry(len(rows))
    bar_w = slot * 0.8 / len(METRIC_SERIES)
    for i, (name, *values) in enumerate(rows):
        for j, value in enumerate(values):
            x = x_of(i) + slot * 0.1 + j * bar_w
            y = y_of(value)
            h = (_HEIGHT - _MARGIN_BOTTOM) - y
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w * 0.9)}" '
                f'height="{_fmt(h)}" fill="{_SERIES_COLORS[j]}"/>'
            )
        parts.append(
            f'<text x="{_fmt(x_of(i) + slot / 2)}" y="{_HEIGHT - _MARGIN_BOTTOM + 16}" '
            f'text-anchor="middle" font-size="10">{escape(name, quote=False)}</text>'
        )
    for j, series in enumerate(METRIC_SERIES):
        lx = _MARGIN_LEFT + 10 + j * 110
        parts.append(
            f'<rect x="{lx}" y="{_MARGIN_TOP - 14}" width="10" height="10" '
            f'fill="{_SERIES_COLORS[j]}"/>'
        )
        parts.append(
            f'<text x="{lx + 14}" y="{_MARGIN_TOP - 5}" font-size="10">{series}</text>'
        )
    parts.append(_scale_label("1.0"))
    parts.append("</svg>")
    return "\n".join(parts)


# Each plot kind: the values plotted from one artifact row, the chart
# drawing them and their header.
_PLOTS = {
    "pareto": (
        lambda row: (pareto_label(row["bucket_start"], row["bucket_end"]),
                     float(row["count"]), float(row["cumulative_pct"])),
        pareto_chart, ("bucket", "count", "cumulative_pct"),
    ),
    "elbow": (lambda row: (int(row["k"]), float(row["wcss"])), elbow_chart, ("k", "wcss")),
    "metrics": (
        lambda row: (row["classifier"], *(float(row[name]) for name in METRIC_SERIES)),
        metrics_chart, ("classifier",) + METRIC_SERIES,
    ),
}


def emit_plot_data(kind: str, rows: Sequence[dict]) -> tuple[str, tuple, list]:
    """Chart plus the plotted numbers for one artifact's parsed rows.

    ``rows`` map the artifact's header to each row's cells. Returns
    (svg_text, header, plotted_rows). Raises ChainlensError on an
    unknown artifact kind, a missing column or a cell that is not a
    finite number (an integer for elbow's ``k``).
    """
    if kind not in _PLOTS:
        raise ChainlensError(
            f"unknown plot artifact kind {kind!r}; expected one of {tuple(_PLOTS)}"
        )
    read, chart, header = _PLOTS[kind]
    try:
        plotted = [read(row) for row in rows]
    except KeyError as exc:
        raise ChainlensError(f"{kind} artifact lacks the column {exc}") from None
    except (TypeError, ValueError) as exc:  # a cell missing or not a number
        raise ChainlensError(f"{kind} artifact has a bad cell: {exc}") from None
    for row in plotted:
        for value in row:
            if isinstance(value, float) and not math.isfinite(value):
                raise ChainlensError(f"{kind} artifact has a non-finite cell: {value}")
    return chart(plotted), header, plotted
