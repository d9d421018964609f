"""Self-contained SVG renderings of simulation results.

Two chart kinds cover all report figures: violin plots (a mirrored Gaussian
kernel density outline with median and 5%/95% tick marks per group) and bar
charts. Both are drawn in one frame, ``_frame``: the page, the title, a y axis
with six ticks and its label, and one slot per group with its rotated x label;
a chart kind gives only the marks of each slot. The SVG text is assembled with
fixed numeric formatting ("%.2f" pixels) and holds no timestamps, so identical
inputs produce identical bytes. Each violin outline is computed as float64
arrays and formatted in one pass. Kernel bandwidths (Silverman's rule,
h = (3N/4) ** (-1/5) * sd with ddof=1) are recorded in the SVG metadata.
"""

from __future__ import annotations

import numpy as np

__all__ = ["violin_svg", "bar_svg"]

_PLOT_TOP = 48.0
_PLOT_HEIGHT = 300.0
_SLOT_WIDTH = 96.0
_MARGIN_LEFT = 72.0
_MARGIN_RIGHT = 24.0
_LABEL_SPACE = 150.0
_HALF_VIOLIN = 34.0
_KDE_POINTS = 81  # density grid points per violin


def _px(value: float) -> str:
    return f"{value:.2f}"


def _escape(text: str) -> str:
    """XML character data: &, then > and <, as xml.sax.saxutils.escape does; quotes stay as they are."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _kde_outline(samples: np.ndarray):
    """Density curve for one violin, or None when the samples are degenerate.

    Returns (grid, density, bandwidth). A sample set with zero spread has no
    density estimate and is drawn as a flat bar instead.
    """
    sd = float(np.std(samples, ddof=1)) if samples.size > 1 else 0.0
    if sd == 0.0:
        return None
    bandwidth = (0.75 * samples.size) ** -0.2 * sd
    lo = float(np.min(samples)) - 2.0 * bandwidth
    hi = float(np.max(samples)) + 2.0 * bandwidth
    grid = np.linspace(lo, hi, _KDE_POINTS)
    z = (grid - samples[:, None]) / bandwidth
    norm = samples.size * bandwidth * np.sqrt(2 * np.pi)
    return grid, np.exp(-0.5 * z * z).sum(axis=0) / norm, bandwidth


def _y_of(value, lo: float, span: float):
    """Pixel y of a data value, or of an array of them, on an axis from lo to lo + span."""
    return _PLOT_TOP + _PLOT_HEIGHT * (1.0 - (value - lo) / span)


def _outline_points(cx: float, grid: np.ndarray, density: np.ndarray, lo: float, span: float) -> str:
    """The polygon points of one violin: down the right half, back up the left.

    Each coordinate is computed elementwise in float64, so it rounds exactly as
    the same expression on Python floats; all points are formatted in one pass.
    """
    peak = float(np.max(density))
    scale = _HALF_VIOLIN / peak if peak > 0 else 0.0
    y = _y_of(grid, lo, span)
    xy = np.empty((2, grid.size, 2))
    xy[0, :, 0] = cx + density * scale
    xy[1, :, 0] = (cx - density * scale)[::-1]
    xy[0, :, 1] = y
    xy[1, :, 1] = y[::-1]
    return ("%.2f,%.2f " * (2 * grid.size) % tuple(xy.ravel().tolist()))[:-1]


def _frame(labels: list[str], lo: float, hi: float, title: str, ylabel: str, metadata: str, marks) -> str:
    """One chart's SVG document, its y axis from lo to hi and one slot per label.

    ``marks(index, cx, lo, span)`` gives the elements of slot ``index``, centred at x = cx.
    """
    width = _MARGIN_LEFT + _SLOT_WIDTH * len(labels) + _MARGIN_RIGHT
    height = _PLOT_TOP + _PLOT_HEIGHT + _LABEL_SPACE
    span = hi - lo
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_px(width)}" '
        f'height="{_px(height)}" viewBox="0 0 {_px(width)} {_px(height)}">',
        f"<metadata>{_escape(metadata)}</metadata>",
        f'<rect x="0" y="0" width="{_px(width)}" height="{_px(height)}" fill="white"/>',
        f'<text x="{_px(width / 2)}" y="24" font-family="sans-serif" font-size="15" '
        f'text-anchor="middle">{_escape(title)}</text>',
        f'<line x1="{_px(_MARGIN_LEFT)}" y1="{_px(_PLOT_TOP)}" x2="{_px(_MARGIN_LEFT)}" '
        f'y2="{_px(_PLOT_TOP + _PLOT_HEIGHT)}" stroke="black" stroke-width="1"/>',
    ]
    for tick in (lo + span * i / 5 for i in range(6)):
        y = _y_of(tick, lo, span)
        parts.append(
            f'<line x1="{_px(_MARGIN_LEFT - 4)}" y1="{_px(y)}" x2="{_px(width - _MARGIN_RIGHT)}" '
            f'y2="{_px(y)}" stroke="#cccccc" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{_px(_MARGIN_LEFT - 8)}" y="{_px(y + 3)}" font-family="sans-serif" '
            f'font-size="10" text-anchor="end">{tick:.3g}</text>'
        )
    parts.append(
        f'<text x="14" y="{_px(_PLOT_TOP + _PLOT_HEIGHT / 2)}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {_px(_PLOT_TOP + _PLOT_HEIGHT / 2)})">{_escape(ylabel)}</text>'
    )
    y = _px(_PLOT_TOP + _PLOT_HEIGHT + 14)
    for index, label in enumerate(labels):
        cx = _MARGIN_LEFT + _SLOT_WIDTH * (index + 0.5)
        parts += marks(index, cx, lo, span)
        parts.append(
            f'<text x="{_px(cx)}" y="{y}" font-family="sans-serif" font-size="10" '
            f'text-anchor="end" transform="rotate(-55 {_px(cx)} {y})">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def violin_svg(groups: list[tuple[str, np.ndarray]], title: str, ylabel: str) -> str:
    """Render one violin per (label, samples) group.

    Each violin is a mirrored kernel density outline with a wide median tick
    and narrower 5% and 95% quantile ticks; degenerate groups (zero spread)
    are drawn as a flat bar at their value.
    """
    if not groups:
        raise ValueError("violin_svg needs at least one group")
    prepared = []
    lo = np.inf
    hi = -np.inf
    distinct = {}  # sample bytes -> outline and quantiles, so identical groups are computed once
    for label, samples in groups:
        samples = np.asarray(samples, dtype=float)
        if (key := samples.tobytes()) not in distinct:
            distinct[key] = (_kde_outline(samples), *np.quantile(samples, [0.05, 0.5, 0.95]).tolist())
        outline, q05, median, q95 = distinct[key]
        prepared.append((label, samples, outline, q05, median, q95))
        if outline is None:
            lo = min(lo, float(np.min(samples)))
            hi = max(hi, float(np.max(samples)))
        else:
            lo = min(lo, float(outline[0][0]))
            hi = max(hi, float(outline[0][-1]))
    if hi <= lo:
        lo, hi = lo - 0.05, hi + 0.05
    pad = 0.02 * (hi - lo)
    lo -= pad
    hi += pad
    metadata = "silverman bandwidths: " + "; ".join(
        f"{label}={0.0 if outline is None else outline[2]!r}" for label, _, outline, *_ in prepared
    )

    def marks(index, cx, lo, span):
        _, samples, outline, *quantiles = prepared[index]
        if outline is None:
            y = _y_of(float(samples[0]), lo, span)
            shape = (
                f'<rect x="{_px(cx - _HALF_VIOLIN)}" y="{_px(y - 1.5)}" '
                f'width="{_px(2 * _HALF_VIOLIN)}" height="3" fill="#4878a8"/>'
            )
        else:
            points = _outline_points(cx, outline[0], outline[1], lo, span)
            shape = f'<polygon points="{points}" fill="#a8c4e0" stroke="#4878a8" stroke-width="1"/>'
        ticks = []
        for value, half in zip(quantiles, (12.0, 20.0, 12.0)):  # q05, median, q95
            y = _y_of(value, lo, span)
            ticks.append(
                f'<line x1="{_px(cx - half)}" y1="{_px(y)}" x2="{_px(cx + half)}" '
                f'y2="{_px(y)}" stroke="#222222" stroke-width="1.5"/>'
            )
        return [shape, *ticks]

    return _frame([label for label, *_ in prepared], lo, hi, title, ylabel, metadata, marks)


def bar_svg(items: list[tuple[str, float]], title: str, ylabel: str) -> str:
    """Render one labeled bar per (label, value) item, value printed on top."""
    if not items:
        raise ValueError("bar_svg needs at least one item")
    values = [float(v) for _, v in items]
    lo = min(0.0, min(values))
    hi = max(max(values), 1e-9)
    hi += 0.05 * (hi - lo)

    def marks(index, cx, lo, span):
        top = _y_of(values[index], lo, span)
        bar_height = max(_y_of(0.0, lo, span) - top, 0.0)
        return [
            f'<rect x="{_px(cx - 28)}" y="{_px(top)}" width="56" '
            f'height="{_px(bar_height)}" fill="#a8c4e0" stroke="#4878a8" stroke-width="1"/>',
            f'<text x="{_px(cx)}" y="{_px(top - 4)}" font-family="sans-serif" font-size="10" '
            f'text-anchor="middle">{values[index]:.4f}</text>',
        ]

    return _frame([label for label, _ in items], lo, hi, title, ylabel, f"values: {len(items)} bars", marks)
