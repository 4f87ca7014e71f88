"""Minimal static SVG line plots (no plotting-toolkit dependency).

Output is a deterministic function of the input data, so files are
byte-identical across runs.
"""

from typing import List, Sequence, Tuple

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 18, 34, 46
X_LABEL, Y_LABEL, X_TICKS, Y_TICKS = "t", "value", 6, 5


def _ticks(lo: float, hi: float, count: int) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    return [lo + span * i / (count - 1) for i in range(count)]


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def render_line_plot(
    title: str, x: Sequence[float], curves: List[Tuple[str, str, Sequence[float]]]
) -> str:
    """Render labelled curves [(label, color, values)] over a shared x axis."""
    x = list(map(float, x))
    x_lo, x_hi = min(x), max(x)
    ys = [float(v) for _, _, vals in curves for v in vals]
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(v: float) -> float:
        return MARGIN_L + plot_w * (v - x_lo) / (x_hi - x_lo if x_hi > x_lo else 1.0)

    def py(v: float) -> float:
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
            f'font-size="11" font-family="sans-serif">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi, Y_TICKS):
        yp = py(ty)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{yp:.2f}" x2="{MARGIN_L}" y2="{yp:.2f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 9}" y="{yp + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{_fmt(ty)}</text>'
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
    for _label, color, values in curves:
        pts = " ".join(f"{px(vx):.2f},{py(float(vy)):.2f}" for vx, vy in zip(x, values))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
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
