"""Clustering validity indices: Silhouette, Simplified Silhouette, and the
mean-of-other-medoids variant used for feature selection.

All three score a clustering of points (here: features in an embedding or
in the raw separability space). The full Silhouette uses all pairwise
distances; the simplified form replaces cluster members with the medoid;
the mean-simplified form (mss) replaces "nearest other medoid" with the
average distance to all other medoids and drops singleton-cluster points
from the aggregate, so the score keeps rewarding subsets whose medoids
cover the whole space instead of decaying to zero as k grows.

Per-point values: Silhouette and SS lie in [-1, 1]; mss lies in [0, 1]
whenever the assignment is nearest-medoid. Aggregates are plain means over
the included points, reduced in index order.
"""

from dataclasses import dataclass

import numpy as np

from .distances import cross, squared_pairwise
from .errors import DataError


@dataclass
class IndexReport:
    """Per-point coefficients plus their mean.

    Excluded points carry NaN in per_point and False in included; the
    aggregate is None when no point is included (distinct "undefined"
    outcome, so curve code can skip it).
    """

    per_point: np.ndarray
    included: np.ndarray
    aggregate: float | None


@dataclass
class DistanceCounter:
    """Counts point-to-medoid distance evaluations (complexity contract)."""

    evaluations: int = 0


def _check_clustering(points, clustering):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if clustering.k < 2:
        raise DataError("validity indices need at least 2 clusters")
    if len(clustering.assignment) != pts.shape[0]:
        raise DataError("assignment length does not match point count")
    return pts


def silhouette(points, clustering):
    """Full-pairwise Silhouette; singleton-cluster points score 0.

    Each point's distance sum to a cluster is the row sum of one
    C-contiguous column block holding the cluster's members in index
    order, so it adds the same terms in the same order as the sum of the
    point's masked distance row; a cluster's mean is that sum over its
    size, as np.mean computes it.
    """
    pts = _check_clustering(points, clustering)
    m = pts.shape[0]
    k = clustering.k
    assign = clustering.assignment
    sizes = clustering.cluster_sizes()

    dist = np.sqrt(squared_pairwise(pts))
    order = np.argsort(assign, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    sums = np.empty((m, k))
    for h in range(k):
        block = np.ascontiguousarray(dist[:, order[bounds[h] : bounds[h + 1]]])
        sums[:, h] = block.sum(axis=1)

    rows = np.arange(m)
    own_size = sizes[assign]
    a = sums[rows, assign] / np.maximum(own_size - 1, 1)  # excludes self (d=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(sizes > 0, sums / sizes, np.inf)  # empty clusters never nearest
        means[rows, assign] = np.inf
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        values = np.where(denom > 0.0, (b - a) / denom, 0.0)
    # sole member of its cluster, or every other cluster empty: boundary value 0
    values[(own_size <= 1) | ~np.isfinite(b)] = 0.0
    included = np.ones(m, dtype=bool)
    return IndexReport(values, included, float(values.mean()))


def simplified_silhouette(points, clustering):
    """Medoid-based silhouette: 1 - (own-medoid distance / nearest-other-medoid
    distance). Singleton-cluster points score 0."""
    pts = _check_clustering(points, clustering)
    m = pts.shape[0]
    assign = clustering.assignment
    sizes = clustering.cluster_sizes()

    dm = cross(pts, pts[clustering.medoids])
    own = dm[np.arange(m), assign]
    masked = dm.copy()
    masked[np.arange(m), assign] = np.inf
    nearest_other = masked.min(axis=1)

    with np.errstate(invalid="ignore"):
        values = np.where(nearest_other > 0.0, 1.0 - own / nearest_other, 0.0)
    values[sizes[assign] <= 1] = 0.0
    included = np.ones(m, dtype=bool)
    return IndexReport(values, included, float(values.mean()))


def mss(points, clustering, counter=None):
    """Mean-simplified-silhouette: 1 - a/b with b the average distance to all
    other medoids; singleton-cluster points are excluded from the aggregate
    (their medoids still count in every other point's b).

    Evaluates exactly M*k point-to-medoid distances; pass a DistanceCounter
    to verify. Returns aggregate None when every cluster is a singleton.
    """
    pts = _check_clustering(points, clustering)
    dm = cross(pts, pts[clustering.medoids])
    if counter is not None:
        counter.evaluations += dm.size
    return mss_from_distances(dm, clustering.assignment)


def mss_from_distances(dist_cols, assignment):
    """mss from the (M, k) point-to-medoid distances and each point's
    cluster position. The row sums are part of the result and their
    rounding follows the memory order, so a column slice (F-ordered) is
    first copied to C order; C-ordered input is used as is."""
    dist_cols = np.ascontiguousarray(dist_cols)
    m, k = dist_cols.shape
    sizes = np.bincount(assignment, minlength=k)
    own = dist_cols[np.arange(m), assignment]
    other_mean = (dist_cols.sum(axis=1) - own) / (k - 1)

    with np.errstate(invalid="ignore"):
        values = np.where(other_mean > 0.0, 1.0 - own / other_mean, 0.0)
    included = sizes[assignment] > 1
    per_point = np.where(included, values, np.nan)
    if not included.any():
        return IndexReport(per_point, included, None)
    return IndexReport(per_point, included, float(values[included].mean()))
