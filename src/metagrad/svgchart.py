"""Tiny static SVG line charts.

Charts are derived views over the CSV tables and carry no extra data: one
<polyline> element per curve, axis lines, tick labels, and a text legend.
Output is plain XML built by hand so its structure is easy to assert on.
"""

import math
from xml.sax.saxutils import escape

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

LOG_FLOOR = 1e-17  # log-scale clamp for exact zeros


def _span(lo: float, hi: float):
    """(lo, hi) widened to a non-empty range when flat: up by 1, or, where lo + 1
    rounds back to lo, halfway toward zero (which cannot overflow)."""
    if hi > lo:
        return lo, hi
    if lo + 1.0 > lo:
        return lo, lo + 1.0
    return (lo / 2, hi) if lo > 0 else (lo, hi / 2)


def _ticks(lo: float, hi: float, n: int = 5):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def line_chart(curves, title: str, xlabel: str, ylabel: str, log_y: bool = False) -> str:
    """Render curves [(label, xs, ys), ...] to an SVG document string."""
    if not curves:
        raise ValueError("need at least one curve")
    xs_all = [x for _, xs, _ in curves for x in xs]
    ys_all = [y for _, _, ys in curves for y in ys]
    if log_y:
        ys_all = [max(y, LOG_FLOOR) for y in ys_all]
        ys_all = [math.log10(y) for y in ys_all]
    x_lo, x_hi = _span(min(xs_all), max(xs_all))
    y_lo, y_hi = _span(min(ys_all), max(ys_all))

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        if log_y:
            y = math.log10(max(y, LOG_FLOOR))
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{escape(title)}</text>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T + plot_h}" x2="{MARGIN_L + plot_w}" '
        f'y2="{MARGIN_T + plot_h}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{MARGIN_T + plot_h}" '
        f'stroke="black"/>',
        f'<text x="{MARGIN_L + plot_w // 2}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{escape(xlabel)}</text>',
        f'<text x="16" y="{MARGIN_T + plot_h // 2}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {MARGIN_T + plot_h // 2})">'
        f'{escape(ylabel)}</text>',
    ]

    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<text x="{px(tx):.2f}" y="{MARGIN_T + plot_h + 16}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        label = 10.0**ty if log_y else ty
        ypix = MARGIN_T + plot_h - (ty - y_lo) / (y_hi - y_lo) * plot_h
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{ypix:.2f}" text-anchor="end" font-size="10" '
            f'font-family="sans-serif">{_fmt(label)}</text>'
        )

    for i, (label, xs, ys) in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{points}"/>')
        ly = MARGIN_T + 14 + 16 * i
        lx = MARGIN_L + plot_w - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" stroke="{color}" stroke-width="1.8"/>')
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-size="11" font-family="sans-serif">{escape(str(label))}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
