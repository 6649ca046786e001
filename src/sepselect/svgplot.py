"""Minimal dependency-free SVG charts: polyline curves and scatter plots,
both drawn by one Chart.

Plots are artifacts (written once per run), not an interactive UI, so the
feature set is intentionally tiny: axes with tick labels, line series,
point series, a vertical marker, and a legend. All floats are formatted
with fixed precision so output is byte-deterministic.
"""

import numpy as np

_PALETTE = ["#1f6fb2", "#d1495b", "#3a9e5f", "#8d6cab", "#c47f2a", "#5b5b5b"]


def _fmt(v):
    return f"{v:.2f}"


class _Frame:
    """Maps data coordinates into a padded pixel viewport."""

    def __init__(self, xs, ys, width, height, margin=52):
        self.width, self.height, self.margin = width, height, margin
        self.x_min, self.x_max = _padded_range(xs)
        self.y_min, self.y_max = _padded_range(ys)

    def px(self, x):
        frac = (x - self.x_min) / (self.x_max - self.x_min)
        return self.margin + frac * (self.width - 2 * self.margin)

    def py(self, y):
        frac = (y - self.y_min) / (self.y_max - self.y_min)
        return self.height - self.margin - frac * (self.height - 2 * self.margin)


def _padded_range(values, pad_fraction=0.05):
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = (hi - lo) * pad_fraction
    return lo - pad, hi + pad


def _ticks(lo, hi, count=6):
    raw = np.linspace(lo, hi, count)
    return [float(f"{v:.4g}") for v in raw]


class Chart:
    """Line series, point groups and vertical markers on shared axes."""

    def __init__(self, title="", x_label="", y_label="", width=720, height=440):
        self.title, self.x_label, self.y_label = title, x_label, y_label
        self.width, self.height = width, height
        self.series = []
        self.groups = []
        self.vlines = []

    def add_series(self, xs, ys, label=""):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(ys)
        self.series.append((xs[keep], ys[keep], label))

    def add_points(self, xs, ys, label="", radius=3.0, filled=True):
        self.groups.append(
            (np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), label, radius, filled)
        )

    def add_vline(self, x, label=""):
        self.vlines.append((float(x), label))

    def render(self):
        layers = self.series + self.groups
        all_x = np.concatenate([layer[0] for layer in layers])
        all_y = np.concatenate([layer[1] for layer in layers])
        frame = _Frame(all_x, all_y, self.width, self.height)
        parts = [_svg_open(self.width, self.height)]
        parts.extend(_axes(frame, self.x_label, self.y_label, self.title))
        # colors and legend rows run on from the series through the groups
        for i, (xs, ys, label) in enumerate(self.series):
            color = _PALETTE[i % len(_PALETTE)]
            pts = " ".join(f"{_fmt(frame.px(x))},{_fmt(frame.py(y))}" for x, y in zip(xs, ys))
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>'
            )
            if label:
                y_leg = 18 + 16 * i
                parts.append(
                    f'<line x1="{self.width - 150}" y1="{y_leg}" x2="{self.width - 126}" '
                    f'y2="{y_leg}" stroke="{color}" stroke-width="2"/>'
                )
                parts.append(_text(self.width - 120, y_leg + 4, label))
        for i, (xs, ys, label, radius, filled) in enumerate(self.groups, len(self.series)):
            color = _PALETTE[i % len(_PALETTE)]
            fill = color if filled else "none"
            for x, y in zip(xs, ys):
                parts.append(
                    f'<circle cx="{_fmt(frame.px(x))}" cy="{_fmt(frame.py(y))}" '
                    f'r="{_fmt(radius)}" fill="{fill}" stroke="{color}" stroke-width="1.2"/>'
                )
            if label:
                y_leg = 18 + 16 * i
                parts.append(
                    f'<circle cx="{self.width - 144}" cy="{y_leg}" r="4" '
                    f'fill="{fill}" stroke="{color}"/>'
                )
                parts.append(_text(self.width - 134, y_leg + 4, label))
        for x, label in self.vlines:
            px = _fmt(frame.px(x))
            parts.append(
                f'<line x1="{px}" y1="{frame.margin}" x2="{px}" '
                f'y2="{self.height - frame.margin}" stroke="#444444" '
                f'stroke-width="1" stroke-dasharray="5,4"/>'
            )
            if label:
                parts.append(_text(frame.px(x) + 4, frame.margin + 12, label))
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def save(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.render())


def _svg_open(width, height):
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>'
    )


def _text(x, y, content, size=11, anchor="start"):
    return (
        f'<text x="{_fmt(float(x))}" y="{_fmt(float(y))}" font-size="{size}" '
        f'font-family="sans-serif" text-anchor="{anchor}">{content}</text>'
    )


def _axes(frame, x_label, y_label, title):
    w, h, m = frame.width, frame.height, frame.margin
    parts = [
        f'<line x1="{m}" y1="{h - m}" x2="{w - m}" y2="{h - m}" stroke="#222222"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h - m}" stroke="#222222"/>',
    ]
    for tx in _ticks(frame.x_min, frame.x_max):
        px = frame.px(tx)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{h - m}" x2="{_fmt(px)}" y2="{h - m + 5}" stroke="#222222"/>'
        )
        parts.append(_text(px, h - m + 18, f"{tx:g}", anchor="middle"))
    for ty in _ticks(frame.y_min, frame.y_max):
        py = frame.py(ty)
        parts.append(
            f'<line x1="{m - 5}" y1="{_fmt(py)}" x2="{m}" y2="{_fmt(py)}" stroke="#222222"/>'
        )
        parts.append(_text(m - 8, py + 4, f"{ty:g}", anchor="end"))
    if title:
        parts.append(_text(w / 2, 16, title, size=13, anchor="middle"))
    if x_label:
        parts.append(_text(w / 2, h - 8, x_label, anchor="middle"))
    if y_label:
        parts.append(_text(14, m - 10, y_label))
    return parts
