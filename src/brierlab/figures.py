"""Self-contained SVG renderings of simulation results.

Two chart kinds cover all report figures: violin plots (a mirrored Gaussian
kernel density outline with median and 5%/95% tick marks per group) and bar
charts. Both are drawn in one frame, ``_frame``: the page, the title, a y axis
with six ticks and its label, and one slot per group with its rotated x label;
a chart kind gives only the marks of each slot. The SVG text is assembled with
fixed numeric formatting ("%.2f" pixels) and holds no timestamps, so identical
inputs produce identical bytes. A violin figure has one path: ``_violin_rows``
gives each distinct sample set's statistics row, one numpy call per table of
the sets of one sample count (only the Gaussian sum runs per set), and a set
with zero spread is drawn flat at its row's low, its value. Outlines are
float64 arrays formatted in one pass; Silverman bandwidths, h = (3N/4) **
(-1/5) * sd with ddof=1, go in the metadata. A ValueError naming the label
refuses text XML 1.0 cannot hold, a violin whose samples, spread or extent are
not finite, a bar that is not finite and a y axis float64 cannot span.
"""

from __future__ import annotations

import math

import numpy as np

from .validation import NOT_XML_CHAR

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


@np.errstate(over="ignore", invalid="ignore")  # a row that is not finite is left for the caller to refuse
def _violin_rows(table: np.ndarray) -> list:
    """The statistics of each violin of a (G, N) table, one sample set per row.

    Row i gives (outline, low, high, q05, median, q95). The outline is (grid,
    density, bandwidth), or None for a sample set with zero spread, which has no
    density estimate and is drawn as a flat bar instead; from low to high is the
    extent drawn. The quantiles, sd, bandwidth, range and grid of all rows come
    from one call each along axis 1 and round as those of one row alone; only
    the Gaussian sum runs row by row (one (G, N, 81) tensor is slower and larger).
    """
    size = table.shape[1]
    sd = np.std(table, axis=1, ddof=1) if size > 1 else np.zeros(len(table))
    bandwidth = (0.75 * size) ** -0.2 * sd
    low = np.min(table, axis=1)
    high = np.max(table, axis=1)
    lo = low - 2.0 * bandwidth
    hi = high + 2.0 * bandwidth
    # np.linspace(lo, hi, _KDE_POINTS) of each row: i * step + lo, the last point hi itself
    grids = np.arange(_KDE_POINTS, dtype=float) * ((hi - lo) / (_KDE_POINTS - 1))[:, None] + lo[:, None]
    grids[:, -1] = hi
    norm = size * bandwidth * np.sqrt(2 * np.pi)
    quantiles = np.quantile(table, [0.05, 0.5, 0.95], axis=1).T.tolist()
    rows = []
    for samples, grid, h, scale, ends, q in zip(
        table, grids, bandwidth.tolist(), norm.tolist(), zip(low.tolist(), high.tolist()), quantiles
    ):
        if h == 0.0:  # zero spread
            rows.append((None, *ends, *q))
            continue
        z = (grid - samples[:, None]) / h
        outline = (grid, np.exp(-0.5 * z * z).sum(axis=0) / scale, h)
        rows.append((outline, float(grid[0]), float(grid[-1]), *q))
    return rows


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
    for text in (title, ylabel, *labels):
        if NOT_XML_CHAR.search(text):
            raise ValueError(f"figure text must be text that XML 1.0 can hold, got {text!r}")
    width = _MARGIN_LEFT + _SLOT_WIDTH * len(labels) + _MARGIN_RIGHT
    height = _PLOT_TOP + _PLOT_HEIGHT + _LABEL_SPACE
    span = hi - lo
    ticks = [lo + span * i / 5 for i in range(6)]
    if not ticks[0] < ticks[-1] < math.inf:  # a span that is NaN, overflows or vanishes beside lo
        raise ValueError(f"a y axis from {lo!r} to {hi!r} cannot be drawn, for {', '.join(map(repr, labels))}")
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
    for tick in ticks:
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
    labels, keys = [], []
    distinct = {}  # sample bytes -> samples, so identical groups are computed once
    for label, samples in groups:
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError(f"violin group {label!r} needs a non-empty 1-D sample array, got shape {samples.shape}")
        distinct.setdefault(key := samples.tobytes(), samples)
        labels.append(label)
        keys.append(key)
    stats = {}  # sample bytes -> (outline, low, high, q05, median, q95)
    for size in dict.fromkeys(samples.size for samples in distinct.values()):  # one table per sample count
        size_keys = [key for key, samples in distinct.items() if samples.size == size]
        stats.update(zip(size_keys, _violin_rows(np.stack([distinct[key] for key in size_keys]))))
    rows = [stats[key] for key in keys]
    for label, (_, low, high, *_) in zip(labels, rows):
        if not math.isfinite(high - low):  # a NaN or infinite sample, or an sd or extent that overflows
            raise ValueError(f"violin group {label!r} has a sample, spread or extent that is not finite")
    lo = min(row[1] for row in rows)
    hi = max(row[2] for row in rows)
    if hi <= lo:
        lo, hi = lo - 0.05, hi + 0.05
    pad = 0.02 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    metadata = "silverman bandwidths: " + "; ".join(
        f"{label}={0.0 if outline is None else outline[2]!r}" for label, (outline, *_) in zip(labels, rows)
    )

    def marks(index, cx, lo, span):
        outline, low, _, *quantiles = rows[index]
        if outline is None:  # zero spread: low is the value itself
            y = _y_of(low, lo, span)
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

    return _frame(labels, lo, hi, title, ylabel, metadata, marks)


def bar_svg(items: list[tuple[str, float]], title: str, ylabel: str) -> str:
    """Render one labeled bar per (label, value) item, value printed on top."""
    if not items:
        raise ValueError("bar_svg needs at least one item")
    values = [float(v) for _, v in items]
    for (label, _), value in zip(items, values):
        if not math.isfinite(value):
            raise ValueError(f"bar {label!r} has a value that is not finite: {value!r}")
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
