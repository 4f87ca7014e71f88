"""render_line_plot on degenerate data: a flat curve and a single time point."""

import math
import re

import pytest

from lmmpf.svg_plot import render_line_plot

NUMBER_ATTRS = re.compile(r'\b(?:x|y|x1|y1|x2|y2|width|height|points)="([^"]*)"')


def numbers(svg):
    """Every number in the SVG's coordinate attributes."""
    out = []
    for value in NUMBER_ATTRS.findall(svg):
        out.extend(float(v) for v in re.split(r"[ ,]", value) if v)
    return out


@pytest.mark.parametrize(
    "x, curves",
    [
        ([0.0, 0.5, 1.0], [("flat", "black", [2.0, 2.0, 2.0])]),
        ([0.3], [("computed", "black", [1.0]), ("exact", "blue", [1.5])]),
        ([0.3], [("computed", "black", [1.0])]),
    ],
    ids=["constant-curve", "single-time-point", "single-point-constant"],
)
def test_degenerate_data_renders_finite_repeatable_svg(x, curves):
    svg = render_line_plot("degenerate", x, curves)
    assert svg == render_line_plot("degenerate", x, curves)
    values = numbers(svg)
    assert values and all(math.isfinite(v) for v in values)
    polylines = re.findall(r'<polyline points="([^"]*)"', svg)
    assert [len(p.split()) for p in polylines] == [len(x)] * len(curves)
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
