"""Structure checks on emitted SVG figures."""

import xml.etree.ElementTree as ET

import pytest

from chainlens.errors import ChainlensError
from chainlens.svgcharts import elbow_chart, metrics_chart, pareto_chart

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


@pytest.mark.parametrize(
    "svg, label",
    [
        (pareto_chart([("<0-&1d", 3.0, 100.0)]), "<0-&1d"),
        (metrics_chart([("a<b&c", 1.0, 1.0, 1.0, 1.0)]), "a<b&c"),
    ],
    ids=["pareto", "metrics"],
)
def test_markup_in_labels_is_escaped(svg, label):
    assert label in [node.text for node in tags(parse(svg), "text")]
