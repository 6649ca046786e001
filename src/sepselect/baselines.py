"""Comparison filter selectors: Fisher score, ReliefF, correlation-based
forward selection, and seeded random choice. Each returns (or ranks down
to) an exact requested subset size so method comparisons use equal-sized
subsets.
"""

from dataclasses import dataclass

import numpy as np

from .distances import nearest
from .errors import DataError
from .separability import VAR_FLOOR

DEFAULT_RELIEFF_NEIGHBORS = 10


@dataclass
class RankedFeatures:
    """Per-feature scores plus the descending-score order (ties: ascending index)."""

    scores: np.ndarray
    order: np.ndarray

    def top(self, k):
        if not 1 <= k <= len(self.order):
            raise DataError(f"k must be in [1, {len(self.order)}], got {k}")
        return self.order[:k].tolist()


def _ranked(scores):
    scores = np.asarray(scores, dtype=float)
    order = np.lexsort((np.arange(len(scores)), -scores))
    return RankedFeatures(scores=scores, order=order)


def fisher_scores(d):
    """Ratio of between-class scatter to within-class scatter, per feature."""
    codes = d.label_codes()
    x = d.instances
    overall = x.mean(axis=0)
    numer = np.zeros(d.n_features)
    denom = np.zeros(d.n_features)
    for c in range(d.n_classes):
        sub = x[codes == c]
        n_c = sub.shape[0]
        if n_c == 0:
            continue
        numer += n_c * (sub.mean(axis=0) - overall) ** 2
        denom += n_c * np.maximum(sub.var(axis=0), VAR_FLOOR)
    return _ranked(numer / denom)


def check_relieff_neighbors(d, neighbors):
    """DataError unless neighbors >= 1 and every class of d has more than
    neighbors rows, so each pick has that many hits."""
    if neighbors < 1:
        raise DataError("neighbors must be >= 1")
    counts = np.bincount(d.label_codes(), minlength=d.n_classes)
    small = [d.class_ids[c] for c in range(d.n_classes) if counts[c] <= neighbors]
    if small:
        raise DataError(
            f"every class needs more than {neighbors} samples; too small: {small}"
        )


def relieff_weights(d, neighbors=DEFAULT_RELIEFF_NEIGHBORS, seed=0):
    """ReliefF weights: reward features that differ on nearest other-class
    instances (misses, prior-weighted per class) and penalize differences
    on nearest same-class instances (hits).

    Feature differences are normalized by the feature's range, so weights
    are scale-invariant. Every row is picked once, in a seeded order, so
    the weights are deterministic. Distance ties go to the lower row index.

    Each pick sums its (rows, features) differences row by row into
    distances: that reduction fixes the bits of the distances, and summing
    a transposed layout over its first axis rounds differently once there
    are 8 or more features. It is most of the cost of a pick. The nearest
    rows of every class then come from one selection over a
    (classes, largest class) matrix of member rows, and the pick's terms are
    folded into the weights in one sequential accumulation, bitwise the
    update "weights -= hit term, then += each miss term by ascending
    class".
    """
    check_relieff_neighbors(d, neighbors)
    codes = d.label_codes()
    x = d.instances
    n, m = x.shape
    counts = np.bincount(codes, minlength=d.n_classes)

    ranges = x.max(axis=0) - x.min(axis=0)
    xn = x / np.where(ranges > 0.0, ranges, 1.0)
    xn[:, ranges == 0.0] = 0.0  # constant features contribute no differences

    priors = counts / n
    rng = np.random.default_rng(seed)
    picks = rng.choice(n, size=n, replace=False)

    # (classes, largest class) member rows in ascending order, padded with
    # the sentinel row n, whose distance is +inf
    members = np.full((d.n_classes, counts.max()), n)
    for c in range(d.n_classes):
        members[c, : counts[c]] = np.flatnonzero(codes == c)
    dist = np.empty(n + 1)
    dist[n] = np.inf
    # row y: the hit class y, then the miss classes in ascending order; the
    # coefficient of the hit is -1, of a miss class c priors[c] / (1 - priors[y])
    update_order = np.array(
        [[y] + [c for c in range(d.n_classes) if c != y] for y in range(d.n_classes)]
    )
    coefs = priors[update_order] / (1.0 - priors[:, None])
    coefs[:, 0] = -1.0

    weights = np.zeros(m)
    scale = 1.0 / (n * neighbors)
    for a in picks:
        diffs = np.abs(xn - xn[a])
        dist[:n] = diffs.sum(axis=1)
        dist[a] = np.inf  # a pick is not its own hit
        y = codes[a]
        near = np.take_along_axis(members, nearest(dist[members], neighbors), axis=1)
        terms = coefs[y][:, None] * diffs[near[update_order[y]]].sum(axis=1) * scale
        weights = np.add.accumulate(np.vstack([weights, terms]), axis=0)[-1]
    return _ranked(weights)


def cfs_select(d, k):
    """Greedy forward selection on the correlation merit
    n * mean|corr(feature, label)| / sqrt(n + n(n-1) * mean|corr(feature, feature)|),
    grown to exactly k features. Zero-variance columns correlate 0.
    """
    m = d.n_features
    if not 1 <= k <= m:
        raise DataError(f"k must be in [1, {m}], got {k}")
    x = d.instances
    label = d.label_codes().astype(float)

    def corr(u, v):
        su, sv = u.std(), v.std()
        if su == 0.0 or sv == 0.0:
            return 0.0
        return float(np.mean((u - u.mean()) * (v - v.mean())) / (su * sv))

    r_cf = np.array([abs(corr(x[:, j], label)) for j in range(m)])
    with np.errstate(invalid="ignore", divide="ignore"):
        r_ff = np.abs(np.corrcoef(x, rowvar=False))
    r_ff = np.nan_to_num(r_ff, nan=0.0)  # zero-variance columns

    selected = []
    remaining = list(range(m))
    while len(selected) < k:
        best_j, best_merit = None, -np.inf
        for j in remaining:
            trial = selected + [j]
            nsel = len(trial)
            mean_cf = r_cf[trial].mean()
            if nsel == 1:
                merit = mean_cf
            else:
                pair_sum = sum(
                    r_ff[a, b] for i, a in enumerate(trial) for b in trial[i + 1 :]
                )
                mean_ff = pair_sum / (nsel * (nsel - 1) / 2)
                merit = nsel * mean_cf / np.sqrt(nsel + nsel * (nsel - 1) * mean_ff)
            if merit > best_merit:  # ties keep the earlier (lower) index
                best_merit, best_j = merit, j
        selected.append(best_j)
        remaining.remove(best_j)
    return selected


def random_select(m, k, seed):
    """Uniform sample of k distinct feature indices, seeded."""
    if not 1 <= k <= m:
        raise DataError(f"k must be in [1, {m}], got {k}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(m, size=k, replace=False)).tolist()
