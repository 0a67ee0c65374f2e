"""Structure checks on emitted SVG figures."""

import xml.etree.ElementTree as ET

import pytest

from chainlens.errors import ChainlensError
from chainlens.svgcharts import (
    elbow_chart,
    emit_plot_data,
    metrics_chart,
    pareto_chart,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg_text):
    return ET.fromstring(svg_text)


def tags(root, name):
    return root.findall(f".//{SVG_NS}{name}")


class TestParetoChart:
    BUCKETS = [("0-79", 39.0, 52.0), ("80-159", 21.0, 80.0), ("160-239", 15.0, 100.0)]

    def test_one_bar_per_bucket_plus_background(self):
        root = parse(pareto_chart(self.BUCKETS))
        rects = tags(root, "rect")
        assert len(rects) == 1 + len(self.BUCKETS)  # background + bars

    def test_cumulative_line_present(self):
        root = parse(pareto_chart(self.BUCKETS))
        polylines = tags(root, "polyline")
        assert len(polylines) == 1
        assert len(polylines[0].get("points").split()) == len(self.BUCKETS)

    def test_empty_rejected(self):
        with pytest.raises(ChainlensError):
            pareto_chart([])

    def test_no_external_references(self):
        svg = pareto_chart(self.BUCKETS)
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")
        assert "href" not in svg


class TestElbowChart:
    POINTS = [(1, 100.0), (2, 20.0), (3, 10.0), (4, 9.5)]

    def test_line_runs_through_every_k(self):
        root = parse(elbow_chart(self.POINTS))
        polylines = tags(root, "polyline")
        assert len(polylines) == 1
        assert len(polylines[0].get("points").split()) == len(self.POINTS)
        assert len(tags(root, "circle")) == len(self.POINTS)

    def test_empty_rejected(self):
        with pytest.raises(ChainlensError):
            elbow_chart([])


class TestMetricsChart:
    # (classifier, precision, recall, f1, accuracy)
    ROWS = [
        ("knn", 0.9, 0.8, 0.85, 0.95),
        ("gaussian_nb", 0.5, 0.4, 0.44, 0.7),
    ]

    def test_four_bars_per_classifier(self):
        root = parse(metrics_chart(self.ROWS))
        rects = tags(root, "rect")
        # background + 4 bars per classifier + 4 legend swatches
        assert len(rects) == 1 + 4 * len(self.ROWS) + 4

    def test_empty_rejected(self):
        with pytest.raises(ChainlensError):
            metrics_chart([])


class TestEmitPlotData:
    def test_pareto_round_trip(self):
        rows = [
            {"bucket_start": "0", "bucket_end": "79", "count": "39", "cumulative_pct": "52.0"},
            {"bucket_start": "80", "bucket_end": "159", "count": "36", "cumulative_pct": "100.0"},
        ]
        svg, header, plotted = emit_plot_data("pareto", rows)
        parse(svg)
        assert header == ("bucket", "count", "cumulative_pct")
        # the lifetimes stage's label rule, so a re-render matches pareto.svg
        assert [r[0] for r in plotted] == ["0-79d", "80-159d"]
        assert [r[1] for r in plotted] == [39.0, 36.0]

    def test_elbow_round_trip(self):
        rows = [{"k": "1", "wcss": "50.0"}, {"k": "2", "wcss": "10.0"}]
        svg, header, plotted = emit_plot_data("elbow", rows)
        parse(svg)
        assert header == ("k", "wcss")
        assert plotted[0] == (1, 50.0)

    def test_metrics_round_trip(self):
        rows = [
            {
                "classifier": "knn",
                "precision": "1.0",
                "recall": "0.5",
                "f1": "0.6666666666666666",
                "accuracy": "0.75",
            }
        ]
        svg, header, plotted = emit_plot_data("metrics", rows)
        parse(svg)
        assert header == ("classifier", "precision", "recall", "f1", "accuracy")
        assert plotted == [("knn", 1.0, 0.5, 0.6666666666666666, 0.75)]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ChainlensError):
            emit_plot_data("histogram", [])

    def test_deterministic_output(self):
        rows = [{"k": "1", "wcss": "50.0"}, {"k": "2", "wcss": "10.0"}]
        assert emit_plot_data("elbow", rows) == emit_plot_data("elbow", rows)

    @pytest.mark.parametrize(
        "kind, row, label",
        [
            (
                "pareto",
                {"bucket_start": "<0", "bucket_end": "&1", "count": "3", "cumulative_pct": "100"},
                "<0-&1d",
            ),
            (
                "metrics",
                {"classifier": "a<b&c", "precision": "1", "recall": "1", "f1": "1", "accuracy": "1"},
                "a<b&c",
            ),
        ],
    )
    def test_markup_in_labels_is_escaped(self, kind, row, label):
        svg, _, _ = emit_plot_data(kind, [row])
        assert label in [node.text for node in tags(parse(svg), "text")]

    @pytest.mark.parametrize(
        "kind, row",
        [
            ("pareto", {"bucket_start": "0", "bucket_end": "1", "count": "nan", "cumulative_pct": "100"}),
            ("elbow", {"k": "1", "wcss": "inf"}),
            ("metrics", {"classifier": "knn", "precision": "1", "recall": "1", "f1": "-inf", "accuracy": "1"}),
        ],
    )
    def test_non_finite_cell_rejected(self, kind, row):
        with pytest.raises(ChainlensError, match="non-finite"):
            emit_plot_data(kind, [row])
