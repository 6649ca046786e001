"""Comparison filter selectors: Fisher score, ReliefF, correlation-based
forward selection, and seeded random choice. Each returns (or ranks down
to) an exact requested subset size so method comparisons use equal-sized
subsets.
"""

from dataclasses import dataclass

import numpy as np

from .distances import absolute_blocks, assembled, nearest, row_blocks
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

    Two passes give, bit for bit, the weights of the per-pick loop: for
    each pick in turn, the L1 distance to every row as the sum of its row
    of differences, the neighbors nearest rows of each class by (distance,
    row), then "weights -= hit term, then += each miss term by ascending
    class".

    1. _nearest_table finds every row's nearest rows in each class. As
       every row is picked once, it computes each pair's distance once,
       not once from each end. Both ends read the same bits: |u - v| =
       |v - u|, and each distance is the same sum of m terms in the same
       order, numpy's pairwise order over a C-ordered row of differences
       (the normalized rows are C-ordered whatever the input's layout).
    2. The picks are walked in distances.row_blocks. Each pick's hit and
       miss rows are gathered from the table in update order, their
       differences are summed over the neighbors as one pick's were, and
       all terms are folded into the weights by one sequential
       accumulation, in the order of the per-pick loop.

    Cost: about n^2 m / 2 differences for n rows and m features, and about
    C^2 nearest() selections for C classes. Memory: the (n, C, neighbors)
    int32 table, and the blocks of distances.row_blocks whatever the class
    sizes, so it grows linearly in n.
    """
    check_relieff_neighbors(d, neighbors)
    codes = d.label_codes()
    x = d.instances
    n, m = x.shape
    counts = np.bincount(codes, minlength=d.n_classes)

    ranges = x.max(axis=0) - x.min(axis=0)
    xn = np.divide(x, np.where(ranges > 0.0, ranges, 1.0), order="C")
    xn[:, ranges == 0.0] = 0.0  # constant features contribute no differences

    priors = counts / n
    rng = np.random.default_rng(seed)
    picks = rng.choice(n, size=n, replace=False)
    table = _nearest_table(xn, codes, d.n_classes, neighbors)

    # row y: the hit class y, then the miss classes in ascending order; the
    # coefficient of the hit is -1, of a miss class c priors[c] / (1 - priors[y])
    update_order = np.array(
        [[y] + [c for c in range(d.n_classes) if c != y] for y in range(d.n_classes)]
    )
    coefs = priors[update_order] / (1.0 - priors[:, None])
    coefs[:, 0] = -1.0

    weights = np.zeros(m)
    scale = 1.0 / (n * neighbors)
    for part in row_blocks(n, d.n_classes * neighbors * m * 8):
        a = picks[part]
        y = codes[a]
        near = table[a[:, None], update_order[y]]  # (picks, classes, neighbors)
        diffs = xn[near]
        diffs -= xn[a][:, None, None]
        np.abs(diffs, out=diffs)
        terms = coefs[y][:, :, None] * diffs.sum(axis=2) * scale
        weights = np.add.accumulate(np.vstack([weights, terms.reshape(-1, m)]), axis=0)[-1]
    return _ranked(weights)


def _nearest_table(xn, codes, n_classes, neighbors):
    """(rows, classes, neighbors) int32: the neighbors nearest rows of each
    class to each row by (L1 distance, row), a row not counting as its own.

    Each class pair c1 <= c2 goes in the row_blocks of c1's rows: a
    (block, |c2|) distance matrix from absolute_blocks. A c1 row
    takes its nearest c2 rows from its row of the block; within c1 (c1 ==
    c2) its own entry is +inf. If c1 < c2, a c2 row takes its nearest c1
    rows from its column of the block, merged with those it kept from the
    earlier blocks by one nearest() over [kept, new]: every kept row is
    lower than every new one, so ties still go to the lower row.
    """
    # each class's rows in ascending order, int32 like the table
    members = [np.flatnonzero(codes == c).astype(np.int32) for c in range(n_classes)]
    table = np.empty((len(xn), n_classes, neighbors), dtype=np.int32)
    for c1, rows1 in enumerate(members):
        for c2 in range(c1, n_classes):
            rows2 = members[c2]
            x2 = xn[rows2]
            kept_d = np.empty((len(rows2), 0))  # each c2 row's nearest c1 rows so far
            kept_r = np.empty((len(rows2), 0), dtype=np.int32)
            for part in row_blocks(len(rows1), len(x2) * 8):
                block_rows = rows1[part]
                block = assembled(absolute_blocks(xn[block_rows], x2), (len(block_rows), len(x2)))
                if c1 == c2:
                    block[np.arange(len(block)), np.arange(part.start, part.stop)] = np.inf
                table[block_rows, c2] = rows2[nearest(block, neighbors)]
                if c1 < c2:
                    kept_d, kept_r = _merge_nearest(kept_d, kept_r, block.T, block_rows, neighbors)
                del block  # freed before the next one is made
            if c1 < c2:
                table[rows2, c1] = kept_r
    return table


def _merge_nearest(kept_d, kept_r, new_d, new_r, count):
    """The count nearest of the columns [kept, new] of each row, as
    (distances, rows); new_r holds the row of each column of new_d."""
    d = np.hstack([kept_d, new_d])
    r = np.hstack([kept_r, np.broadcast_to(new_r, new_d.shape)])
    near = nearest(d, min(count, d.shape[1]))
    return np.take_along_axis(d, near, axis=1), np.take_along_axis(r, near, axis=1)


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
