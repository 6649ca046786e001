"""Pairwise Euclidean (and, for ReliefF, L1) distances between point rows,
and the nearest-first selection of row entries that neighbour searches
share.

One form, explicit differences: coincident rows are exactly 0, and no
BLAS product is formed, so the bits do not depend on the thread count.
_difference_blocks is its one implementation: squared_blocks squares the
differences, absolute_blocks takes their absolute values. It takes the
rows of a against every row of b in the blocks of row_blocks, the one
block rule of every blocked loop in the package, one (block rows, len(b),
d) temporary at a time. Making it takes numpy's broadcasting buffers
besides, a fixed 67-119 KB (tracemalloc) whatever the block's size.

Layout rule: the temporary takes the memory order of the inputs, as the
per-row difference b - row does, and that order fixes the bits of the sums
over the d columns. Each distance is bitwise the per-row
np.sum((b - row) ** 2, axis=1) for inputs of any order, and, for C-ordered
inputs, the one-shot np.sum((a[:, None] - b[None]) ** 2, axis=2); the same
holds for np.abs in place of the square. For C-ordered inputs, a distance
has the same bits from either end: |u - v| = |v - u| and (u - v)^2 =
(v - u)^2 bit for bit, and both sums run over the same d terms in order.
"""

import numpy as np

_BLOCK_BYTES = 256 * 1024


def row_blocks(n, row_bytes):
    """The slices of range(n), max(1, _BLOCK_BYTES // row_bytes) rows each
    (the last fewer), in which every blocked loop walks rows of row_bytes:
    larger blocks fall out of cache and measured slower. The loops work
    row by row, so block bounds never reach the bits."""
    step = max(1, _BLOCK_BYTES // max(row_bytes, 1))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def squared_pairwise(x):
    """(M, M) squared distances among the rows of x, whose square roots
    are cross(x, x) bit for bit. Each block of rows goes against the rows
    up to its last only, and the rest is mirrored, exactly: (a - b)^2 =
    (b - a)^2, and a pair's d terms are summed in the same order."""
    m = len(x)
    d2 = np.empty((m, m))
    for rows in row_blocks(m, x.nbytes):
        # one block: the rows up to rows.stop take no more bytes than x
        (block,) = squared_blocks(x[rows], x[: rows.stop])
        d2[rows, : rows.stop] = block
        d2[: rows.start, rows] = block[:, : rows.start].T
    return d2


def squared_blocks(a, b):
    """Squared distances from consecutive blocks of the rows of a to every
    row of b by explicit differences, one (block rows, len(b)) array at a
    time."""
    return _difference_blocks(a, b, np.square)


def absolute_blocks(a, b):
    """L1 distances from consecutive blocks of the rows of a to every row
    of b, as squared_blocks: each is the sum of the row of |b - row|."""
    return _difference_blocks(a, b, np.abs)


def _difference_blocks(a, b, op):
    for rows in row_blocks(len(a), b.nbytes):
        t = b[None] - a[rows, None]
        op(t, out=t)
        block = t.sum(axis=2)
        del t  # freed before the next block's temporary is made
        yield block


def assembled(blocks, shape):
    """The array of shape whose consecutive row blocks are blocks, each
    written into it as it comes, so no list of blocks is held."""
    out = np.empty(shape)
    done = 0
    for block in blocks:
        out[done : done + len(block)] = block
        done += len(block)
    return out


def cross(a, b):
    """(len(a), len(b)) distances between the rows of a and the rows of b
    by explicit differences (squared_blocks); exact 0 for coincident rows."""
    d = assembled(squared_blocks(a, b), (len(a), len(b)))
    return np.sqrt(d, out=d)


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
