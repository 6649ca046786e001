"""Pairwise Euclidean (and, for ReliefF, L1) distances between point rows,
and the nearest-first selection of row entries that neighbour searches
share.

One form, explicit differences: coincident rows are exactly 0, and no
BLAS product is formed, so the bits do not depend on the thread count.
_difference_blocks is its one implementation: squared_blocks squares the
differences, absolute_blocks takes their absolute values. It takes the
rows of a against every row of b in the blocks of row_blocks, the one
block rule of every blocked loop in the package, and builds each (block
rows, len(b)) block one feature column at a time. No (rows, len(b), d)
temporary is made.

Order rule: the distance between a[i] and b[k] is the sum of
op(b[k, j] - a[i, j]) added for j = 0, 1, ..., d - 1 in index order,
whatever the layout of a and b, the block bounds, or the end it is
computed from, since |u - v| = |v - u| and (u - v)^2 = (v - u)^2 bit for
bit.

Block rule: while a block is summed, 3 (rows, len(b)) arrays are alive:
the sum, the term being added, and the previous block, which the loop
that takes the blocks still holds. A block takes the row_blocks of 3
arrays of len(b) values, so its working set stays within the 256 KiB of
every blocked loop.
"""

import numpy as np

_BLOCK_BYTES = 256 * 1024
_LIVE = 3  # (rows, len(b)) arrays alive while a block is summed


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
    (b - a)^2, and a pair's d terms are summed in the same order."""
    m = len(x)
    columns = np.ascontiguousarray(x.T)
    d2 = np.empty((m, m))
    for rows in row_blocks(m, _LIVE * m * 8):
        block = _summed(x[rows], columns[:, : rows.stop], np.square)
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
    columns = np.ascontiguousarray(b.T)
    for rows in row_blocks(len(a), _LIVE * len(b) * 8):
        yield _summed(a[rows], columns, op)


def _summed(a, columns, op):
    """The (len(a), columns.shape[1]) sums of op(b[:, j] - a[:, j]) added
    for j = 0, 1, ..., d - 1 in index order, where columns holds the
    columns of b as rows."""
    if a.shape[1] == 0:
        return np.zeros((len(a), columns.shape[1]))  # the empty sum, as np.sum gives it
    acc = _terms(a, columns, op, 0, np.empty((len(a), columns.shape[1])))
    t = np.empty_like(acc)
    for j in range(1, a.shape[1]):
        acc += _terms(a, columns, op, j, t)
    return acc


def _terms(a, columns, op, j, out):
    """op(b[:, j] - a[:, j]) in out, one row per row of a."""
    np.copyto(out, columns[j])  # then subtracting measured faster than one broadcast subtract
    out -= a[:, j, None]
    return op(out, out=out)


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
