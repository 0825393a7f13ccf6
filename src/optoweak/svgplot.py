"""Minimal deterministic SVG rendering: line plots and diverging heatmaps.

Output is plain text built only from the input data, so identical data
yields byte-identical files.  Undefined samples (NaN) split polylines
instead of being drawn at zero.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path

import numpy as np

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


# "x,y" of one polyline point in _fmt's format, for one % per run of points
_POINT = "%.6g,%.6g"


def _write_svg(chunks, path) -> Path:
    """Write the document head, each of ``chunks`` on lines of its own, and
    ``</svg>``.

    A chunk is one element, or several joined by newlines.  Each is written
    as the iterable yields it, so a body built row by row (the heatmap's
    cells) is never held whole.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as out:
        out.write(_HEAD)
        for chunk in chunks:
            out.write("\n")
            out.write(chunk)
        out.write("\n</svg>\n")
    return path


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
    break the polyline.  Raises ValueError when xs and ys differ in shape.
    """
    series = [(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), label, dashed)
              for xs, ys, label, dashed in series]
    if any(xs.shape != ys.shape for xs, ys, _, _ in series):
        raise ValueError("each series needs as many ys as xs")
    masks = [np.isfinite(xs) & np.isfinite(ys) for xs, ys, _, _ in series]
    if not any(ok.any() for ok in masks):
        raise ValueError("nothing to plot: all samples are undefined")
    all_x = np.concatenate([xs[np.isfinite(xs)] for xs, _, _, _ in series])
    drawn_y = np.concatenate([ys[ok] for (_, ys, _, _), ok in zip(series, masks)])
    x0, x1 = float(all_x.min()), float(all_x.max())
    y0, y1 = float(drawn_y.min()), float(drawn_y.max())
    if x1 == x0:
        x0, x1 = x0 - 1, x1 + 1
    if y1 == y0:
        y0, y1 = y0 - 1, y1 + 1
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    parts: list[str] = []
    _frame(parts, x0, x1, y0, y1, xlabel, ylabel, title, plot_w, plot_h)

    for i, ((xs, ys, label, dashed), ok) in enumerate(zip(series, masks)):
        color = _PALETTE[i % len(_PALETTE)]
        dash = ' stroke-dasharray="7,4"' if dashed else ""
        # (px, py) pairs, interleaved for the % template
        pxy = np.column_stack((_ML + (xs - x0) / (x1 - x0) * plot_w,
                               _MT + (1 - (ys - y0) / (y1 - y0)) * plot_h))
        edges = np.flatnonzero(np.diff(ok, prepend=False, append=False)).tolist()
        for start, end in zip(edges[::2], edges[1::2]):
            points = " ".join([_POINT] * (end - start)) % tuple(pxy[start:end].ravel().tolist())
            if end - start == 1:
                cx, cy = points.split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>')
            else:
                parts.append(
                    f'<polyline points="{points}" fill="none" '
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


def _diverging_colors(values, vmax: float) -> list[str]:
    """Hex colours of ``values``: white at zero, saturating toward red
    (positive) or blue (negative) at |v| = vmax.

    Each distinct colour is formatted once, and every value of that colour
    shares its string: the fig3 grid has 576 colours over 40 401 cells.
    """
    if vmax <= 0:
        vmax = 1.0
    t = np.clip(np.asarray(values, dtype=float) / vmax, -1.0, 1.0)
    target = np.where((t >= 0)[:, None], _POS_COLOR, _NEG_COLOR)
    # np.rint, like round, takes halves to even
    rgb = np.rint(255 + (target - 255) * np.abs(t)[:, None]).astype(np.int64)
    codes, at = np.unique(rgb @ [1 << 16, 1 << 8, 1], return_inverse=True)
    return np.array([f"#{code:06x}" for code in codes.tolist()], dtype=object)[at].tolist()


def heatmap(values, xs, ys, path, xlabel: str = "", ylabel: str = "", title: str = "") -> Path:
    """Write a heatmap of ``values[iy, ix]`` with a diverging scale centered at 0.

    Raises ValueError when any value is not finite or the shape is not
    (len(ys), len(xs)).
    """
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("heatmap values must all be finite")
    ny, nx = len(ys), len(xs)
    if values.shape != (ny, nx):
        raise ValueError(f"heatmap values have shape {values.shape}, not {(ny, nx)}")
    x0, x1, y0, y1 = xs[0], xs[-1], ys[0], ys[-1]
    vmax = float(np.max(np.abs(values)))
    plot_w = _WIDTH - _ML - _MR - 60  # reserve room for the colorbar
    plot_h = _HEIGHT - _MT - _MB
    px = [_fmt(_ML + ix / nx * plot_w) for ix in range(nx)]
    size = f'width="{_fmt(plot_w / nx + 0.5)}" height="{_fmt(plot_h / ny + 0.5)}"'
    colors = _diverging_colors(values.ravel(), vmax)

    def cells():  # one chunk per grid row, formed only when _write_svg reaches it
        for iy in range(ny):
            py = _fmt(_MT + (1 - (iy + 1) / ny) * plot_h)
            yield "\n".join([f'<rect x="{x}" y="{py}" {size} fill="{color}"/>'
                             for x, color in zip(px, colors[iy * nx:(iy + 1) * nx])])

    parts: list[str] = []
    _frame(parts, x0, x1, y0, y1, xlabel, ylabel, title, plot_w, plot_h)

    bar_x = _ML + plot_w + 18
    bar_n = 32
    bar = [(2 * (1 - (i + 0.5) / bar_n) - 1) * vmax for i in range(bar_n)]
    for i, color in enumerate(_diverging_colors(bar, vmax)):
        py = _MT + i / bar_n * plot_h
        parts.append(
            f'<rect x="{bar_x}" y="{_fmt(py)}" width="16" height="{_fmt(plot_h / bar_n + 0.5)}" '
            f'fill="{color}"/>'
        )
    for frac, v in ((0.0, vmax), (0.5, 0.0), (1.0, -vmax)):
        py = _MT + frac * plot_h
        parts.append(
            f'<text x="{bar_x + 20}" y="{_fmt(py + 4)}" font-size="11">{_fmt(v)}</text>'
        )
    return _write_svg(chain(cells(), parts), path)
