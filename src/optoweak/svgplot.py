"""Minimal deterministic SVG rendering: line plots and diverging heatmaps.

Output is plain text built only from the input data, so identical data
yields byte-identical files.  Undefined samples (NaN) split polylines
instead of being drawn at zero.
"""

from __future__ import annotations

import math
from pathlib import Path

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_POS_COLOR = (178, 24, 43)    # strong red
_NEG_COLOR = (33, 102, 172)   # strong blue
_WIDTH, _HEIGHT = 660, 460
_ML, _MR, _MT, _MB = 78, 24, 28, 56
_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
    f'viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
    f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#fff"/>'
)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _write_svg(body: list[str], path) -> Path:
    """Write ``body`` elements between the document head and ``</svg>``."""
    path = Path(path)
    path.write_text("\n".join([_HEAD, *body, "</svg>"]) + "\n", encoding="utf-8")
    return path


def _finite(values):
    return [v for v in values if isinstance(v, (int, float)) and math.isfinite(v)]


def _axis_ticks(lo: float, hi: float, n: int = 5):
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


def _frame(parts, x0, x1, y0, y1, xlabel, ylabel, title, plot_w, plot_h):
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#000" stroke-width="1"/>'
    )
    for tx in _axis_ticks(x0, x1):
        px = _ML + (tx - x0) / (x1 - x0) * plot_w
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_MT + plot_h}" x2="{_fmt(px)}" '
            f'y2="{_MT + plot_h + 5}" stroke="#000"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_MT + plot_h + 20}" font-size="12" '
            f'text-anchor="middle">{_fmt(tx)}</text>'
        )
    for ty in _axis_ticks(y0, y1):
        py = _MT + (1 - (ty - y0) / (y1 - y0)) * plot_h
        parts.append(
            f'<line x1="{_ML - 5}" y1="{_fmt(py)}" x2="{_ML}" y2="{_fmt(py)}" stroke="#000"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{_fmt(py + 4)}" font-size="12" '
            f'text-anchor="end">{_fmt(ty)}</text>'
        )
    parts.append(
        f'<text x="{_ML + plot_w / 2}" y="{_HEIGHT - 12}" font-size="14" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="20" y="{_MT + plot_h / 2}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 20 {_MT + plot_h / 2})">{ylabel}</text>'
    )
    if title:
        parts.append(
            f'<text x="{_ML + plot_w / 2}" y="18" font-size="14" '
            f'text-anchor="middle">{title}</text>'
        )


def line_plot(series, path, xlabel: str = "", ylabel: str = "", title: str = "") -> Path:
    """Write a multi-series line plot.

    ``series`` is an iterable of (xs, ys, label, dashed) tuples; NaN samples
    break the polyline.
    """
    series = list(series)
    all_x = [v for s in series for v in _finite(s[0])]
    pairs = [
        (x, y)
        for s in series
        for x, y in zip(s[0], s[1])
        if math.isfinite(x) and math.isfinite(y)
    ]
    if not pairs:
        raise ValueError("nothing to plot: all samples are undefined")
    x0, x1 = min(all_x), max(all_x)
    ys_fin = [y for _, y in pairs]
    y0, y1 = min(ys_fin), max(ys_fin)
    if x1 == x0:
        x0, x1 = x0 - 1, x1 + 1
    if y1 == y0:
        y0, y1 = y0 - 1, y1 + 1
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def to_px(x, y):
        return (
            _ML + (x - x0) / (x1 - x0) * plot_w,
            _MT + (1 - (y - y0) / (y1 - y0)) * plot_h,
        )

    parts: list[str] = []
    _frame(parts, x0, x1, y0, y1, xlabel, ylabel, title, plot_w, plot_h)

    for i, (xs, ys, label, dashed) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        dash = ' stroke-dasharray="7,4"' if dashed else ""
        run: list[str] = []
        runs: list[list[str]] = []
        for x, y in zip(xs, ys):
            if math.isfinite(x) and math.isfinite(y):
                px, py = to_px(x, y)
                run.append(f"{_fmt(px)},{_fmt(py)}")
            elif run:
                runs.append(run)
                run = []
        if run:
            runs.append(run)
        for run in runs:
            if len(run) == 1:
                px, py = run[0].split(",")
                parts.append(f'<circle cx="{px}" cy="{py}" r="2" fill="{color}"/>')
            else:
                parts.append(
                    f'<polyline points="{" ".join(run)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"{dash}/>'
                )
        ly = _MT + 16 + 18 * i
        lx = _ML + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        parts.append(f'<text x="{lx + 32}" y="{ly}" font-size="12">{label}</text>')

    return _write_svg(parts, path)


def _diverging_color(v: float, vmax: float) -> str:
    # white at zero, saturating toward red (positive) or blue (negative)
    if vmax <= 0:
        vmax = 1.0
    t = max(-1.0, min(1.0, v / vmax))
    target = _POS_COLOR if t >= 0 else _NEG_COLOR
    a = abs(t)
    r, g, b = (round(255 + (ch - 255) * a) for ch in target)
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap(values, xs, ys, path, xlabel: str = "", ylabel: str = "", title: str = "") -> Path:
    """Write a heatmap of ``values[iy, ix]`` with a diverging scale centered at 0."""
    ny, nx = len(ys), len(xs)
    x0, x1, y0, y1 = xs[0], xs[-1], ys[0], ys[-1]
    vmax = max(abs(v) for row in values for v in row)
    plot_w = _WIDTH - _ML - _MR - 60  # reserve room for the colorbar
    plot_h = _HEIGHT - _MT - _MB
    px = [_fmt(_ML + ix / nx * plot_w) for ix in range(nx)]
    size = f'width="{_fmt(plot_w / nx + 0.5)}" height="{_fmt(plot_h / ny + 0.5)}"'
    parts: list[str] = []
    for iy in range(ny):
        py = _fmt(_MT + (1 - (iy + 1) / ny) * plot_h)
        parts += [
            f'<rect x="{x}" y="{py}" {size} fill="{_diverging_color(v, vmax)}"/>'
            for x, v in zip(px, values[iy])
        ]
    _frame(parts, x0, x1, y0, y1, xlabel, ylabel, title, plot_w, plot_h)

    bar_x = _ML + plot_w + 18
    bar_n = 32
    for i in range(bar_n):
        frac = 1 - (i + 0.5) / bar_n
        v = (2 * frac - 1) * vmax
        py = _MT + i / bar_n * plot_h
        parts.append(
            f'<rect x="{bar_x}" y="{_fmt(py)}" width="16" height="{_fmt(plot_h / bar_n + 0.5)}" '
            f'fill="{_diverging_color(v, vmax)}"/>'
        )
    for frac, v in ((0.0, vmax), (0.5, 0.0), (1.0, -vmax)):
        py = _MT + frac * plot_h
        parts.append(
            f'<text x="{bar_x + 20}" y="{_fmt(py + 4)}" font-size="11">{_fmt(v)}</text>'
        )
    return _write_svg(parts, path)
