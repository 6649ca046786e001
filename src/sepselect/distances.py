"""Pairwise Euclidean (and, for ReliefF, L1) distances between point rows,
and the nearest-first selection of row entries that neighbour searches
share.

One form, explicit differences: coincident rows are exactly 0, and no
BLAS product is formed, so the bits do not depend on the thread count.
difference_sums is the one writer: it walks the rows of a in the blocks
of row_blocks, the one block rule of every blocked loop in the package,
and sums op(b - a), op being np.square or np.abs, one feature column at
a time into each block's rows of the result. No (rows, len(b), d)
temporary is made.

Order rule: the distance between a[i] and b[k] is the sum of
op(b[k, j] - a[i, j]) added for j = 0, 1, ..., d - 1 in index order,
whatever the layout of a and b, the block bounds, or the end it is
computed from, since |u - v| = |v - u| and (u - v)^2 = (v - u)^2 bit for
bit.

Block rule: while a block is summed, 2 (rows, len(b)) arrays are alive:
the sum, which is the block's own rows of the array that keeps it, and
the term being added; no earlier block is held beside them. A block
takes the row_blocks of 2 arrays of len(b) values, so its working set
stays within the 256 KiB of every blocked loop.
"""

import numpy as np

_BLOCK_BYTES = 256 * 1024
_LIVE = 2  # (rows, len(b)) arrays alive while a block is summed: the sum and one term


def row_blocks(n, row_bytes):
    """The slices of range(n), max(1, _BLOCK_BYTES // row_bytes) rows each
    (the last fewer), in which every blocked loop walks rows of row_bytes.
    The loops work row by row, so block bounds never reach the bits. On
    one CPU, 512 KiB and 1 MiB blocks measured faster than 256 KiB for
    KNN and ReliefF, and 1 MiB slower for squared_pairwise of a (203, 66)
    array."""
    step = max(1, _BLOCK_BYTES // max(row_bytes, 1))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def squared_pairwise(x):
    """(M, M) squared distances among the rows of x, whose square roots
    are cross(x, x) bit for bit. Each block of rows goes against the rows
    up to its last only, and the rest is mirrored, exactly: (a - b)^2 =
    (b - a)^2, and a pair's d terms are summed in the same order. Blocks
    are summed contiguous and copied, faster than into d2's strided rows."""
    m = len(x)
    columns = np.ascontiguousarray(x.T)
    d2 = np.empty((m, m))
    for rows in row_blocks(m, _LIVE * m * 8):
        block = np.empty((rows.stop - rows.start, rows.stop))
        _summed(x[rows], columns[:, : rows.stop], np.square, block)
        d2[rows, : rows.stop] = block
        d2[: rows.start, rows] = block[:, : rows.start].T
    return d2


def difference_sums(a, b, op):
    """(len(a), len(b)) sums of op(b[k, j] - a[i, j]) over the features j
    in index order: squared distances for op np.square, L1 distances for
    np.abs. Each block of a's rows is summed into its rows of the result."""
    columns = np.ascontiguousarray(b.T)
    out = np.empty((len(a), len(b)))
    for rows in row_blocks(len(a), _LIVE * len(b) * 8):
        _summed(a[rows], columns, op, out[rows])
    return out


def _summed(a, columns, op, acc):
    """acc, a C-contiguous (len(a), columns.shape[1]) array, filled with
    the sums of op(b[:, j] - a[:, j]) added for j = 0, 1, ..., d - 1 in
    index order, where columns holds the columns of b as rows."""
    if a.shape[1] == 0:
        acc.fill(0.0)  # the empty sum, as np.sum gives it
        return
    _terms(a, columns, op, 0, acc)
    t = np.empty_like(acc)
    for j in range(1, a.shape[1]):
        acc += _terms(a, columns, op, j, t)


def _terms(a, columns, op, j, out):
    """op(b[:, j] - a[:, j]) in out, one row per row of a."""
    np.copyto(out, columns[j])  # then subtracting measured faster than one broadcast subtract
    out -= a[:, j, None]
    return op(out, out=out)


def cross(a, b):
    """(len(a), len(b)) distances between the rows of a and the rows of b
    by explicit differences; exact 0 for coincident rows."""
    d = difference_sums(a, b, np.square)
    return np.sqrt(d, out=d)


def nearest(d, count):
    """Column indices of the count smallest entries of each row of d,
    ordered by (value, index): exactly np.argsort(d, axis=1,
    kind="stable")[:, :count], without sorting whole rows. d is 2-D and
    holds no NaN; 1 <= count <= d.shape[1].

    np.partition finds each row's count-th smallest value, and
    np.flatnonzero lists the entries up to it row by row in ascending index.
    If every row has exactly count of them, each row's are sorted by value
    with a stable np.argsort. Otherwise some row ties at its cut, and all of
    them are sorted by (row, value) with np.lexsort, which is stable too, so
    ties at the cut go to the lower index whatever the partition did.
    """
    d = np.asarray(d)
    n_rows, n_cols = d.shape
    kth = np.partition(d, count - 1, axis=1)[:, count - 1 : count]
    flat = np.flatnonzero(d <= kth)
    if len(flat) == n_rows * count:  # no row ties at its cut
        cols = flat.reshape(n_rows, count) % n_cols
        order = np.argsort(np.take_along_axis(d, cols, axis=1), axis=1, kind="stable")
        return np.take_along_axis(cols, order, axis=1)
    rows = flat // n_cols
    flat = flat[np.lexsort((d.ravel()[flat], rows))]
    starts = np.searchsorted(rows, np.arange(n_rows))
    return flat[starts[:, None] + np.arange(count)] % n_cols
