"""Minimal static SVG line plots (no plotting-toolkit dependency).

Output is a deterministic function of the input data, so files are
byte-identical across runs.
"""

import math
import sys
from typing import List, Sequence, Tuple

import numpy as np

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 18, 34, 46
X_LABEL, Y_LABEL, X_TICKS, Y_TICKS = "t", "value", 6, 5


def _ticks(lo: float, hi: float, count: int) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    return [lo + span * i / (count - 1) for i in range(count)]


def _axis(v_lo: float, v_hi: float, reach: float, pad: bool) -> Tuple[float, float, float]:
    """Axis bounds and the unit they are in: the first of 1, 16, 16^2, 16^3 in
    which ``reach`` times the span is finite.

    With ``pad`` a flat range widens by max(1, ulp) on each side and then by
    5% of its span. In units of 16^3 any finite span, padded, times 560
    stays finite. The bounds are clamped so that the tick labels (tick times
    unit) do too.
    """
    for unit in (1.0, 16.0, 256.0, 4096.0):
        lo, hi = v_lo / unit, v_hi / unit
        if pad:
            if hi == lo:
                spread = max(1.0, math.ulp(lo))
                lo, hi = lo - spread, hi + spread
            margin = 0.05 * (hi - lo)
            lo, hi = lo - margin, hi + margin
        if (hi - lo) * reach < math.inf:
            break
    top = sys.float_info.max / unit
    return max(lo, -top), min(hi, top), unit


def _finite_range(values: np.ndarray) -> Tuple[float, float]:
    """(min, max) of the finite values, (0.0, 0.0) when there is none."""
    finite = values[np.isfinite(values)]
    return (float(finite.min()), float(finite.max())) if finite.size else (0.0, 0.0)


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def render_line_plot(
    title: str, x: Sequence[float], curves: List[Tuple[str, str, Sequence[float]]]
) -> str:
    """Render labelled curves [(label, color, values)] over a shared x axis.

    The axis bounds come from the finite values only; a flat y range is
    widened by 1 on each side, or by one ulp of the value where 1 does not
    change it; a y range too wide for its padded span to be a float is
    drawn in units of 16, and an x range whose span times the plot width
    overflows in the first power of 16 where it does not (see `_axis`). A
    point that does not map to finite coordinates (nan or inf) is left out
    and breaks its curve into separate polylines.
    """
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    x = np.array(x, dtype=float)
    # px scales a span by plot_w before dividing; py divides first
    x_lo, x_hi, x_unit = _axis(*_finite_range(x), max(plot_w, X_TICKS - 1), pad=False)
    y_lo, y_hi, y_unit = _axis(
        *_finite_range(np.concatenate([np.asarray(v, dtype=float) for _, _, v in curves])),
        Y_TICKS - 1, pad=True,
    )

    # px and py map floats and float arrays alike, with the same IEEE operations
    def px(v):  # v in units of x_unit
        return MARGIN_L + plot_w * (v - x_lo) / (x_hi - x_lo if x_hi > x_lo else 1.0)

    def py(v):  # v in units of y_unit
        return MARGIN_T + plot_h * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#888"/>',
    ]
    for tx in _ticks(x_lo, x_hi, X_TICKS):
        xp = px(tx)
        parts.append(
            f'<line x1="{xp:.2f}" y1="{MARGIN_T + plot_h}" x2="{xp:.2f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{xp:.2f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{_fmt(tx * x_unit)}</text>'
        )
    for ty in _ticks(y_lo, y_hi, Y_TICKS):
        yp = py(ty)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{yp:.2f}" x2="{MARGIN_L}" y2="{yp:.2f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 9}" y="{yp + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{_fmt(ty * y_unit)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{X_LABEL}</text>'
    )
    parts.append(
        f'<text x="16" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.1f})">'
        f"{Y_LABEL}</text>"
    )
    with np.errstate(all="ignore"):  # inf and nan map as Python floats do, silently
        xp = px(x / x_unit)
    for _label, color, values in curves:
        n = min(len(x), len(values))
        with np.errstate(all="ignore"):
            xy = np.column_stack([xp[:n], py(np.array(values[:n], dtype=float) / y_unit)])
        # one polyline per run of finite points: [start, stop) between run edges
        finite = np.isfinite(xy).all(axis=1)
        edges = [0, n] if finite.all() else np.flatnonzero(
            np.diff(finite, prepend=False, append=False)
        ).tolist()
        for start, stop in zip(edges[::2], edges[1::2]):
            # one %-template per polyline: the text of f"{c:.2f}" per coordinate
            pts = " ".join(["%.2f,%.2f"] * (stop - start)) % tuple(xy[start:stop].ravel().tolist())
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
    for i, (label, color, _) in enumerate(curves):
        ly = MARGIN_T + 14 + 16 * i
        lx = WIDTH - MARGIN_R - 130
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="11" font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
