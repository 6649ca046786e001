"""Knee-point detection on discrete curves via the chord-difference transform.

A knee is the point where a curve pulls away most from the straight line
joining its endpoints. After normalizing both axes to [0, 1] and flipping
the curve into increasing-concave orientation, the difference between the
normalized curve and the diagonal peaks at the knee. Kneedle's sensitivity
is fixed at its default, 1, and the curve is not smoothed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass
class Curve:
    """A discrete curve: strictly increasing xs, matching ys."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.xs.ndim != 1 or self.xs.shape != self.ys.shape:
            raise DataError("xs and ys must be 1-D arrays of equal length")
        if len(self.xs) < 3:
            raise DataError(f"need at least 3 points, got {len(self.xs)}")
        if np.any(np.diff(self.xs) <= 0.0):
            raise DataError("xs must be strictly increasing")


def _normalize(v):
    span = v.max() - v.min()
    if span == 0.0:
        return np.zeros_like(v)
    return (v - v.min()) / span


def _orient(xn, yn):
    """Flip axes until the curve is increasing-concave.

    Direction comes from the endpoint values, curvature from the sign of
    the mean residual against the endpoint chord. Returns (x, y, flip_x)
    where flip_x records whether indices must be mirrored back.
    """
    increasing = yn[-1] >= yn[0]
    chord = yn[0] + (yn[-1] - yn[0]) * xn
    concave = float(np.mean(yn - chord)) >= 0.0

    # flip a convex curve vertically, then mirror the curve horizontally
    # if it decreases
    y_used = yn if concave else 1.0 - yn
    flip_x = bool(increasing != concave)
    if flip_x:
        return (1.0 - xn)[::-1], y_used[::-1], flip_x
    return xn, y_used, flip_x


def _difference_curve(curve):
    xn = _normalize(curve.xs)
    yn = _normalize(curve.ys)
    x_used, y_used, flip_x = _orient(xn, yn)
    return x_used, y_used - x_used, flip_x


def _local_maxima(d):
    # first index of each plateau; endpoints excluded (difference is zero there)
    idx = []
    for i in range(1, len(d) - 1):
        if d[i] > d[i - 1] and d[i] >= d[i + 1]:
            idx.append(i)
    return idx


def kneedle(curve):
    """Knee x-value, or None when no pronounced knee exists.

    A candidate local maximum of the difference curve is confirmed when
    the difference drops below (maximum value - mean normalized x-gap)
    before the next candidate is reached; the first confirmed candidate
    wins. Straight lines yield no candidates.
    """
    x_used, d, flip_x = _difference_curve(curve)
    maxima = _local_maxima(d)
    if not maxima:
        return None
    n = len(d)
    mean_gap = float(np.mean(np.diff(x_used)))
    for pos, i in enumerate(maxima):
        threshold = d[i] - mean_gap
        stop = maxima[pos + 1] if pos + 1 < len(maxima) else n
        for j in range(i + 1, stop):
            if d[j] < threshold:
                knee_idx = n - 1 - i if flip_x else i
                return float(curve.xs[knee_idx])
    return None


def chord_difference_argmax(curve):
    """Fallback selector: x at the maximum of the difference curve.

    Always defined (unlike kneedle, which can reject every candidate);
    used when a knee must be produced regardless.
    """
    x_used, d, flip_x = _difference_curve(curve)
    i = int(np.argmax(d))
    knee_idx = len(d) - 1 - i if flip_x else i
    return float(curve.xs[knee_idx])
