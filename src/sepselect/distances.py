"""Pairwise Euclidean distance matrices between point rows, and the
nearest-first selection of row entries that neighbour searches share."""

import numpy as np

# Two forms: the Gram expansion is fast; explicit differences give exact 0 for coincident rows.


def squared_pairwise(x, out=None, scratch=None):
    """(M, M) squared distances among the rows of x by Gram expansion;
    clipped at 0, with an exact zero diagonal.

    out and scratch are optional C-contiguous float (M, M) buffers: the
    result is written to out and the Gram product to scratch, so a caller
    in a loop allocates nothing. The outer sum of squared norms is built
    in place (every row set to the norms, then each row's own norm
    added), with the same bits as sq[:, None] + sq[None, :], since
    addition is commutative.
    """
    m = x.shape[0]
    sq = np.sum(x ** 2, axis=1)
    d2 = np.empty((m, m)) if out is None else out
    d2[...] = sq
    d2 += sq[:, None]
    d2 -= np.matmul(2.0 * x, x.T, out=scratch)
    np.maximum(d2, 0.0, out=d2)
    d2.ravel()[:: m + 1] = 0.0
    return d2


def cross(a, b):
    """(len(a), len(b)) distances between the rows of a and the rows of b
    by explicit differences; exact 0 for coincident rows."""
    diffs = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diffs ** 2, axis=2))


def nearest(d, count):
    """Column indices of the count smallest entries of each row of d,
    ordered by (value, index): exactly np.argsort(d, axis=1,
    kind="stable")[:, :count], without sorting whole rows. d is 2-D and
    holds no NaN; 1 <= count <= d.shape[1].

    np.partition finds each row's count-th smallest value. Only the entries
    up to it are sorted, by (row, value) with np.lexsort, which is stable:
    np.flatnonzero lists them row by row in ascending index, so ties at the
    cut go to the lower index whatever the partition did.
    """
    d = np.asarray(d)
    n_rows, n_cols = d.shape
    kth = np.partition(d, count - 1, axis=1)[:, count - 1 : count]
    flat = np.flatnonzero(d <= kth)
    rows = flat // n_cols
    flat = flat[np.lexsort((d.ravel()[flat], rows))]
    starts = np.searchsorted(rows, np.arange(n_rows))
    return flat[starts[:, None] + np.arange(count)] % n_cols
