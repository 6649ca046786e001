"""Pairwise Euclidean distance matrices between point rows."""

import numpy as np

# Two forms: the Gram expansion is fast; explicit differences give exact 0 for coincident rows.


def squared_pairwise(x):
    """(M, M) squared distances among the rows of x by Gram expansion;
    clipped at 0, with an exact zero diagonal."""
    sq = np.sum(x ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * x @ x.T
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def cross(a, b):
    """(len(a), len(b)) distances between the rows of a and the rows of b
    by explicit differences; exact 0 for coincident rows."""
    diffs = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diffs ** 2, axis=2))
