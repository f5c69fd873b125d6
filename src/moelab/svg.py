"""Minimal SVG scatter plots for performance-versus-compute studies.

Hand-rolled on purpose: the plots needed here are a log-x scatter with
series lines and a highlighted frontier polyline, and emitting the couple
of dozen SVG elements directly keeps the package free of plotting
dependencies.  One function, scatter, draws every plot the analyze
subcommand writes and returns plain UTF-8 ``.svg`` bytes that any browser
renders.
"""

from __future__ import annotations

import math

from .errors import ConfigError

__all__ = ["scatter"]

# Colorblind-safe cycle (Okabe-Ito, minus black which is used for axes).
PALETTE = (
    "#0072b2",
    "#d55e00",
    "#009e73",
    "#cc79a7",
    "#e69f00",
    "#56b4e9",
    "#f0e442",
)

MARKERS = ("circle", "square", "diamond", "triangle")

WIDTH, HEIGHT = 640, 440

X_LABEL = "training GFLOPs"


def _esc(text):
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _fmt(v):
    # Short stable float formatting for coordinates.
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _nice_ticks(lo, hi, target=5):
    """Round tick positions covering [lo, hi], hi > lo, on a linear
    scale."""
    raw = (hi - lo) / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mag * mult
        if step >= raw:
            break
    first = math.floor(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 0.5 * step:
        if t >= lo - 0.5 * step:
            ticks.append(round(t, 12))
        t += step
    return ticks


def _log_ticks(lo, hi):
    """Decade ticks (1eN) covering [lo, hi] in log10 space."""
    ticks = []
    for p in range(math.floor(lo), math.ceil(hi) + 1):
        ticks.append(float(p))
    return ticks


def _log_tick_label(v):
    """Label of the decade tick at log10 value v."""
    p = int(round(v))
    if -3 <= p <= 4:
        return _fmt(10.0 ** p)
    return f"1e{p}"


def _tick_label(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:g}"


def _marker(kind, x, y, color, r=4.0):
    if kind == "circle":
        return (
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" '
            f'fill="{color}" />'
        )
    if kind == "square":
        s = r * 1.7
        return (
            f'<rect x="{_fmt(x - s / 2)}" y="{_fmt(y - s / 2)}" '
            f'width="{_fmt(s)}" height="{_fmt(s)}" fill="{color}" />'
        )
    if kind == "diamond":
        pts = f"{_fmt(x)},{_fmt(y - r * 1.3)} {_fmt(x + r * 1.3)},{_fmt(y)} " \
              f"{_fmt(x)},{_fmt(y + r * 1.3)} {_fmt(x - r * 1.3)},{_fmt(y)}"
        return f'<polygon points="{pts}" fill="{color}" />'
    # triangle
    pts = f"{_fmt(x)},{_fmt(y - r * 1.3)} {_fmt(x + r * 1.2)},{_fmt(y + r)} " \
          f"{_fmt(x - r * 1.2)},{_fmt(y + r)}"
    return f'<polygon points="{pts}" fill="{color}" />'


def scatter(series: dict, y_label: str, frontier=()) -> bytes:
    """Log-x scatter chart as UTF-8 SVG bytes.

    series maps each name to (xs, ys, labels), one of each per point: x
    values are compute costs (positive: the x axis is logarithmic), y
    values the metric, and every point carries a text label.  The series
    are drawn and listed in the legend in name order, and a series of two
    or more points is joined in x order.  frontier lists (x, y) points
    drawn as a dashed polyline under the markers.
    """
    names = sorted(series)
    pts = [(x, y) for name in names
           for x, y in zip(series[name][0], series[name][1])]
    pts.extend(frontier)
    for x, _ in pts:
        if x <= 0:
            raise ConfigError(
                f"log-scale x axis requires positive costs, got {x}"
            )
    log_xs = [math.log10(x) for x, _ in pts]
    all_ys = [y for _, y in pts]

    x_lo, x_hi = min(log_xs), max(log_xs)
    y_lo, y_hi = min(all_ys), max(all_ys)
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    # a y range below a part in 10^9 of the values is widened by 0.5, or by
    # a part in 10^3 of them where that is more: 0.5 is below the float
    # spacing of values past about 10^16, and each tick step must move a
    # float and change its %g label
    y_mag = max(1.0, abs(y_lo), abs(y_hi))
    if y_hi - y_lo < 1e-9 * y_mag:
        half = max(0.5, 1e-3 * y_mag)
        y_lo, y_hi = y_lo - half, y_hi + half
    # 6% padding so markers do not clip at the box edge
    xpad = 0.06 * (x_hi - x_lo)
    ypad = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - xpad, x_hi + xpad
    y_lo, y_hi = y_lo - ypad, y_hi + ypad
    if not math.isfinite(y_hi - y_lo):
        raise ConfigError("the metric values span more than a float holds")

    m_left, m_right, m_top, m_bot = 64, 16, 36, 48
    pw = WIDTH - m_left - m_right
    ph = HEIGHT - m_top - m_bot

    def px(x):
        return m_left + (math.log10(x) - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return m_top + (y_hi - y) / (y_hi - y_lo) * ph

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'font-family="sans-serif" font-size="12">'
    )
    out.append(
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" '
        f'fill="white" />'
    )

    # plot box
    out.append(
        f'<rect x="{m_left}" y="{m_top}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#333" />'
    )

    for t in _log_ticks(x_lo, x_hi):
        if t < x_lo or t > x_hi:
            continue
        tx = m_left + (t - x_lo) / (x_hi - x_lo) * pw
        out.append(
            f'<line x1="{_fmt(tx)}" y1="{m_top}" x2="{_fmt(tx)}" '
            f'y2="{m_top + ph}" stroke="#ddd" />'
        )
        out.append(
            f'<text x="{_fmt(tx)}" y="{m_top + ph + 16}" '
            f'text-anchor="middle">{_esc(_log_tick_label(t))}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        if t < y_lo or t > y_hi:
            continue
        ty = m_top + (y_hi - t) / (y_hi - y_lo) * ph
        out.append(
            f'<line x1="{m_left}" y1="{_fmt(ty)}" x2="{m_left + pw}" '
            f'y2="{_fmt(ty)}" stroke="#ddd" />'
        )
        out.append(
            f'<text x="{m_left - 6}" y="{_fmt(ty + 4)}" '
            f'text-anchor="end">{_esc(_tick_label(t))}</text>'
        )

    out.append(
        f'<text x="{m_left + pw // 2}" y="{HEIGHT - 10}" '
        f'text-anchor="middle">{_esc(X_LABEL)}</text>'
    )
    out.append(
        f'<text x="16" y="{m_top + ph // 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {m_top + ph // 2})">'
        f"{_esc(y_label)}</text>"
    )

    # frontier under the data markers
    if frontier:
        fr = sorted(frontier)
        path = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in fr)
        out.append(
            f'<polyline points="{path}" fill="none" stroke="#999" '
            f'stroke-width="2" stroke-dasharray="6 4" />'
        )

    for i, name in enumerate(names):
        xs, ys, labels = series[name]
        color = PALETTE[i % len(PALETTE)]
        marker = MARKERS[i % len(MARKERS)]
        if len(xs) > 1:
            order = sorted(range(len(xs)), key=lambda j: xs[j])
            path = " ".join(
                f"{_fmt(px(xs[j]))},{_fmt(py(ys[j]))}" for j in order
            )
            out.append(
                f'<polyline points="{path}" fill="none" '
                f'stroke="{color}" stroke-width="1.5" />'
            )
        for x, y, label in zip(xs, ys, labels):
            out.append(_marker(marker, px(x), py(y), color))
            out.append(
                f'<text x="{_fmt(px(x) + 6)}" y="{_fmt(py(y) - 6)}" '
                f'font-size="10" fill="#555">{_esc(label)}</text>'
            )

    # legend, top-right inside the box
    ly = m_top + 14
    for i, name in enumerate(names):
        color = PALETTE[i % len(PALETTE)]
        marker = MARKERS[i % len(MARKERS)]
        lx = m_left + pw - 130
        out.append(_marker(marker, lx, ly - 4, color, r=4.0))
        out.append(
            f'<text x="{_fmt(lx + 10)}" y="{_fmt(ly)}">{_esc(name)}</text>'
        )
        ly += 16

    out.append("</svg>")
    return ("\n".join(out) + "\n").encode()

