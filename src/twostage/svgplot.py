"""Minimal SVG line charts: axes, optional log-x scale, legend, error bands.

Only what the report figures need; no external plotting dependency.  Output
is a static standalone SVG document.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

__all__ = ["Series", "line_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 64, 16, 28, 46


class Series(NamedTuple):
    """One polyline: optional ``band`` gives symmetric half-widths around y."""

    label: str
    x: Sequence[float]
    y: Sequence[float]
    band: Sequence[float] | None = None


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw_step = (hi - lo) / target
    magnitude = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * magnitude
        if step >= raw_step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}".replace("e+0", "e").replace("e-0", "e-").replace("e+", "e")
    return f"{v:g}"


def line_plot(
    path: str,
    series: Sequence[Series],
    *,
    x_label: str = "",
    y_label: str = "",
    title: str | None = None,
    log_x: bool = False,
    width: int = 720,
    height: int = 460,
) -> None:
    """Write a line chart of the series (with optional error bands) to ``path``."""
    if not series:
        raise ValueError("need at least one series")
    xs = [float(v) for s in series for v in s.x]
    ys = []
    for s in series:
        band = s.band if s.band is not None else [0.0] * len(s.y)
        if not (len(s.x) == len(s.y) == len(band)):
            raise ValueError(f"series {s.label!r} has mismatched lengths")
        for y, b in zip(s.y, band):
            ys.extend([float(y) - float(b), float(y) + float(b)])
    if log_x and min(xs) <= 0:
        raise ValueError("log-x requires positive x values")

    def tx(v: float) -> float:
        return math.log10(v) if log_x else v

    x_lo, x_hi = min(map(tx, xs)), max(map(tx, xs))
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo, y_hi = min(ys), max(ys)
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(v: float) -> float:
        return _MARGIN_LEFT + (tx(v) - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    # gridlines + ticks
    if log_x:
        lo_dec, hi_dec = math.floor(x_lo), math.ceil(x_hi)
        x_ticks = [10.0**d for d in range(lo_dec, hi_dec + 1) if x_lo - 1e-9 <= d <= x_hi + 1e-9]
    else:
        x_ticks = _nice_ticks(x_lo, x_hi)
    y_ticks = _nice_ticks(y_lo, y_hi)
    for t in x_ticks:
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_TOP}" x2="{x:.1f}" '
            f'y2="{_MARGIN_TOP + plot_h}" stroke="#dddddd"/>'
        )
        label = f"1e{int(round(math.log10(t)))}" if log_x else _fmt(t)
        parts.append(
            f'<text x="{x:.1f}" y="{_MARGIN_TOP + plot_h + 16}" text-anchor="middle">{label}</text>'
        )
    for t in y_ticks:
        y = py(t)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{y:.1f}" x2="{_MARGIN_LEFT + plot_w}" '
            f'y2="{y:.1f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{y + 4:.1f}" text-anchor="end">{_fmt(t)}</text>'
        )

    # axes frame
    parts.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333"/>'
    )

    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = sorted(zip(s.x, s.y, s.band if s.band is not None else [0.0] * len(s.y)))
        if s.band is not None:
            upper = [(px(x), py(y + b)) for x, y, b in pts]
            lower = [(px(x), py(y - b)) for x, y, b in reversed(pts)]
            poly = " ".join(f"{x:.2f},{y:.2f}" for x, y in upper + lower)
            parts.append(f'<polygon points="{poly}" fill="{color}" fill-opacity="0.18" stroke="none"/>')
        line = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y, _ in pts)
        parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        for x, y, _ in pts:
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.4" fill="{color}"/>')

    # legend, top-right inside the frame
    legend_x = _MARGIN_LEFT + plot_w - 150
    legend_y = _MARGIN_TOP + 10
    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        y = legend_y + 16 * idx
        parts.append(f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 22}" y2="{y}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{legend_x + 28}" y="{y + 4}">{_escape(s.label)}</text>')

    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" font-size="13">{_escape(title)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{_MARGIN_LEFT + plot_w / 2:.0f}" y="{height - 10}" text-anchor="middle">{_escape(x_label)}</text>'
        )
    if y_label:
        y_mid = _MARGIN_TOP + plot_h / 2
        parts.append(
            f'<text x="16" y="{y_mid:.0f}" text-anchor="middle" transform="rotate(-90 16 {y_mid:.0f})">{_escape(y_label)}</text>'
        )
    parts.append("</svg>")

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
