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


def test_a_flat_curve_too_large_for_a_unit_spread_renders_finite_coordinates():
    svg = render_line_plot("flat", [0.0, 1.0], [("big", "black", [1e17, 1e17])])
    assert all(math.isfinite(v) for v in numbers(svg))
    assert re.findall(r'<polyline points="([^"]*)"', svg) == ["62.00,204.00 622.00,204.00"]


def y_tick_labels(svg):
    return re.findall(r'text-anchor="end"[^>]*>([^<]*)<', svg)


def test_non_finite_values_break_the_line_and_leave_the_axes_to_the_finite_ones():
    x = [0.0, 1.0, 2.0, 3.0]
    nan, inf = float("nan"), float("inf")
    svg = render_line_plot("gap", x, [("a", "black", [1.0, nan, 2.0, 3.0])])
    assert "nan" not in svg and "inf" not in svg
    polylines = re.findall(r'<polyline points="([^"]*)"', svg)
    assert [len(p.split()) for p in polylines] == [1, 2]
    # the same finite values in another order, among nan and inf, give the same y axis
    finite = y_tick_labels(render_line_plot("gap", x, [("a", "black", [1.0, 2.0, 3.0, 2.0])]))
    for values in ([nan, 1.0, 3.0, inf], [3.0, -inf, 1.0, nan]):
        assert y_tick_labels(render_line_plot("gap", x, [("a", "black", values)])) == finite


@pytest.mark.parametrize(
    "values",
    [[1.7e308, -1.7e308], [1.7976931348623157e308] * 2, [-1.7976931348623157e308] * 2],
    ids=["range-wider-than-a-float", "flat-at-max", "flat-at-minus-max"],
)
def test_a_y_range_whose_padded_span_overflows_renders_finite_ticks_and_a_line(values):
    svg = render_line_plot("huge", [0.0, 1.0], [("a", "black", values)])
    assert "nan" not in svg and "inf" not in svg
    assert all(math.isfinite(v) for v in numbers(svg))
    assert len(y_tick_labels(svg)) == 5
    polylines = re.findall(r'<polyline points="([^"]*)"', svg)
    assert [len(p.split()) for p in polylines] == [2]
