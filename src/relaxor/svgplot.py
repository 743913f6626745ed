"""Minimal deterministic SVG emission for time series and phase planes.

Hand-rolled on purpose: no rendering dependencies, byte-stable output for
given data, so plots can be diffed in tests.  Line styles follow the
house convention for the model variables: solid prey 1, dashed prey 2,
dotted predator, dash-dotted trait.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Series", "line_plot", "scatter_plot", "time_series_svg",
           "dual_phase_plane_svg", "VARIABLE_STYLES"]

_DASHES = {
    "solid": None,
    "dashed": "8,5",
    "dotted": "2,4",
    "dashdot": "9,4,2,4",
}

VARIABLE_STYLES = {
    "p1": ("#1f5fa8", "solid"),
    "p2": ("#1f5fa8", "dashed"),
    "z": ("#c23b22", "dotted"),
    "q": ("#222222", "dashdot"),
}


@dataclass
class Series:
    x: np.ndarray
    y: np.ndarray
    label: str
    color: str = "#1f5fa8"
    style: str = "solid"
    marker: bool = False


@dataclass
class _Panel:
    series: list[Series]
    xlabel: str
    ylabel: str
    title: str = ""
    points: list[tuple[float, float, str]] = field(default_factory=list)


def _fmt(v: float) -> str:
    return f"{v:.4f}".rstrip("0").rstrip(".")


def _strip(text: str, end: str) -> str:
    """Strip ``_fmt``'s zeros from every ``%.4f`` number of ``text`` that ``end`` closes.

    An all-zero fraction first becomes a mark, so that the zeros of an
    integer part such as 1000 survive the passes that trim one to three
    zeros off a fraction.
    """
    text = text.replace(".0000" + end, "!" + end)
    for zeros in ("000", "00", "0"):
        text = text.replace(zeros + end, end)
    return text.replace("!", "")


@functools.lru_cache(maxsize=1)
def _x_template(x_bytes: bytes) -> str:
    """``_fmt(x),%.4f `` for each float64 x in ``x_bytes``, to be filled with the y values.

    Keyed by the bytes of the x column, so the series of a figure that
    share one x array (all four of ``time_series_svg``) format it once.
    """
    xs = np.frombuffer(x_bytes).tolist()
    return _strip("%.4f,%%.4f " * len(xs) % tuple(xs), ",")


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """Polyline ``points`` text: ``_fmt(x),_fmt(y)`` pairs joined by spaces."""
    text = _x_template(np.asarray(xs, dtype=float).tobytes()) % tuple(ys.tolist())
    return _strip(text, " ")[:-1]


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 2.5 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _panel_svg(panel: _Panel, x0: float, y0: float, width: float, height: float) -> str:
    pad_l, pad_r, pad_t, pad_b = 52.0, 12.0, 22.0, 40.0
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b
    xs = np.concatenate([np.asarray(s.x, dtype=float) for s in panel.series])
    ys = np.concatenate([np.asarray(s.y, dtype=float) for s in panel.series])
    if panel.points:
        xs = np.concatenate([xs, [p[0] for p in panel.points]])
        ys = np.concatenate([ys, [p[1] for p in panel.points]])
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo -= y_pad
    y_hi += y_pad

    def sx(v):
        return x0 + pad_l + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return y0 + pad_t + (1.0 - (v - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [f'<rect x="{_fmt(x0 + pad_l)}" y="{_fmt(y0 + pad_t)}" '
             f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
             'fill="none" stroke="#888888" stroke-width="1"/>']
    for t in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{_fmt(sx(t))}" y1="{_fmt(y0 + pad_t + plot_h)}" '
                     f'x2="{_fmt(sx(t))}" y2="{_fmt(y0 + pad_t + plot_h + 4)}" '
                     'stroke="#444444" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(sx(t))}" y="{_fmt(y0 + pad_t + plot_h + 16)}" '
                     f'font-size="10" text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{_fmt(x0 + pad_l - 4)}" y1="{_fmt(sy(t))}" '
                     f'x2="{_fmt(x0 + pad_l)}" y2="{_fmt(sy(t))}" '
                     'stroke="#444444" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(x0 + pad_l - 7)}" y="{_fmt(sy(t) + 3.5)}" '
                     f'font-size="10" text-anchor="end">{_fmt(t)}</text>')
    parts.append(f'<text x="{_fmt(x0 + pad_l + plot_w / 2)}" '
                 f'y="{_fmt(y0 + height - 8)}" font-size="12" '
                 f'text-anchor="middle">{panel.xlabel}</text>')
    parts.append(f'<text x="{_fmt(x0 + 14)}" y="{_fmt(y0 + pad_t + plot_h / 2)}" '
                 f'font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 {_fmt(x0 + 14)} {_fmt(y0 + pad_t + plot_h / 2)})">'
                 f'{panel.ylabel}</text>')
    if panel.title:
        parts.append(f'<text x="{_fmt(x0 + pad_l + plot_w / 2)}" y="{_fmt(y0 + 14)}" '
                     f'font-size="12" text-anchor="middle">{panel.title}</text>')

    for s in panel.series:
        dash = _DASHES.get(s.style)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        if s.marker:
            for xv, yv in zip(s.x, s.y):
                parts.append(f'<circle cx="{_fmt(sx(xv))}" cy="{_fmt(sy(yv))}" r="2.2" '
                             f'fill="{s.color}"/>')
        else:
            pts = _points(sx(np.asarray(s.x, dtype=float)), sy(np.asarray(s.y, dtype=float)))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{s.color}" '
                         f'stroke-width="1.5"{dash_attr}/>')
    for xv, yv, label in panel.points:
        parts.append(f'<circle cx="{_fmt(sx(xv))}" cy="{_fmt(sy(yv))}" r="3.5" fill="#000000"/>')
        parts.append(f'<text x="{_fmt(sx(xv) + 6)}" y="{_fmt(sy(yv) - 6)}" '
                     f'font-size="11">{label}</text>')
    return "\n".join(parts)


def _legend_svg(series: list[Series], x: float, y: float) -> str:
    parts = []
    for i, s in enumerate(series):
        yy = y + 16 * i
        dash = _DASHES.get(s.style)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(yy)}" x2="{_fmt(x + 26)}" '
                     f'y2="{_fmt(yy)}" stroke="{s.color}" stroke-width="2"{dash_attr}/>')
        parts.append(f'<text x="{_fmt(x + 32)}" y="{_fmt(yy + 4)}" font-size="11">{s.label}</text>')
    return "\n".join(parts)


def _document(body: str, width: float, height: float) -> str:
    return ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
            '<rect width="100%" height="100%" fill="#ffffff"/>\n'
            f"{body}\n</svg>\n")


def line_plot(series: list[Series], xlabel: str, ylabel: str, title: str = "") -> str:
    panel = _Panel(series=series, xlabel=xlabel, ylabel=ylabel, title=title)
    body = _panel_svg(panel, 0.0, 0.0, 640.0, 420.0)
    body += "\n" + _legend_svg(series, 64.0, 34.0)
    return _document(body, 640.0, 420.0)


def scatter_plot(x, y, xlabel: str, ylabel: str, title: str = "") -> str:
    s = Series(np.asarray(x), np.asarray(y), label="", marker=True)
    panel = _Panel(series=[s], xlabel=xlabel, ylabel=ylabel, title=title)
    return _document(_panel_svg(panel, 0.0, 0.0, 460.0, 420.0), 460.0, 420.0)


def time_series_svg(times, states, title: str = "") -> str:
    """Standard four-variable time-series figure."""
    times = np.asarray(times)
    states = np.asarray(states)
    series = [Series(times, states[:, i], label, *VARIABLE_STYLES[label])
              for i, label in enumerate(("p1", "p2", "z", "q"))]
    return line_plot(series, xlabel="t", ylabel="rescaled abundance", title=title)


def dual_phase_plane_svg(orbit) -> str:
    """Two-panel phase-plane picture of a singular orbit.

    Left panel (p1, z): the q=1 segment interacts there, drawn solid; the
    q=0 segment is the exponential stretch, drawn dashed.  Right panel
    (p2, z): roles swapped.  Jump points are marked A and B.
    """
    y1, y0 = orbit.y_m1, orbit.y_m0
    j = orbit.jumps
    width, height = 920.0, 430.0
    left = _Panel(
        series=[Series(y1[:, 0], y1[:, 2], "q=1 segment", "#1f5fa8", "solid"),
                Series(y0[:, 0], y0[:, 2], "q=0 segment", "#2e8b57", "dashed")],
        xlabel="p1", ylabel="z",
        points=[(j.p1a, j.za, "A"), (j.p1b, j.zb, "B")])
    right = _Panel(
        series=[Series(y0[:, 1], y0[:, 2], "q=0 segment", "#2e8b57", "solid"),
                Series(y1[:, 1], y1[:, 2], "q=1 segment", "#1f5fa8", "dashed")],
        xlabel="p2", ylabel="z",
        points=[(j.p2a, j.za, "A"), (j.p2b, j.zb, "B")])
    body = _panel_svg(left, 0.0, 0.0, width / 2, height)
    body += "\n" + _panel_svg(right, width / 2, 0.0, width / 2, height)
    return _document(body, width, height)
