"""Pairwise Euclidean (and, for ReliefF, L1) distances between point rows,
and the nearest-first selection of row entries that neighbour searches
share.

One form, explicit differences: coincident rows are exactly 0, and no
BLAS product is formed, so the bits do not depend on the thread count.
_difference_blocks is its one implementation: squared_blocks squares the
differences, absolute_blocks takes their absolute values. It takes the
rows of a against every row of b in the blocks of row_blocks, the one
block rule of every blocked loop in the package, and builds each (block
rows, len(b)) block one feature column at a time: column j adds
op(b[:, j] - a[rows, j]) into an accumulator. No (rows, len(b), d)
temporary is made.

Order rule: the columns are added in the order in which numpy sums the
last axis of the one-shot np.sum(op(b[None] - a[:, None]), axis=2), and
that order is chosen once per call from the whole of a and b, so block
bounds never reach the bits. If a and b are both C-ordered, that axis is
contiguous and numpy sums it by its float64 pairwise_sum (_pairwise_sum);
otherwise it adds the columns in order. So each distance is bitwise that
one-shot sum for C- and F-ordered inputs in any mix, and bitwise the
per-row np.sum(op(b - row), axis=1) when a and b share their order. A
distance has the same bits from either end: |u - v| = |v - u| and
(u - v)^2 = (v - u)^2 bit for bit, and both sums run over the same d
terms in the same order.

Block rule: the pairwise tree is built pair by pair, so at most 6
(rows, len(b)) arrays are alive at once up to d = 256 columns (one more
for each further halving), and 2 in column order. A block takes the
row_blocks of that many arrays of len(b) values, so its working set stays
within the 256 KiB of every blocked loop.
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
    pairwise = x.flags.c_contiguous
    columns = np.ascontiguousarray(x.T)
    d2 = np.empty((m, m))
    for rows in row_blocks(m, _live(pairwise) * m * 8):
        block = _summed(x[rows], columns[:, : rows.stop], np.square, pairwise)
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
    pairwise = a.flags.c_contiguous and b.flags.c_contiguous
    columns = np.ascontiguousarray(b.T)
    for rows in row_blocks(len(a), _live(pairwise) * len(b) * 8):
        yield _summed(a[rows], columns, op, pairwise)


def _live(pairwise):
    """The (rows, len(b)) arrays alive at once while a block is summed (up
    to 256 columns in pairwise order)."""
    return 6 if pairwise else 2


def _summed(a, columns, op, pairwise):
    """The (len(a), columns.shape[1]) sums over the d columns of
    op(b[:, j] - a[:, j]), where columns holds the columns of b as rows:
    in numpy's pairwise order if pairwise, else in column order."""
    t = np.empty((len(a), columns.shape[1]))
    if a.shape[1] == 0:
        return np.zeros_like(t)  # the empty sum, as np.sum gives it
    sum_in_order = _pairwise_sum if pairwise else _column_sum
    return sum_in_order(a, columns, op, range(a.shape[1]), t)


def _terms(a, columns, op, j, out):
    """op(b[:, j] - a[:, j]) in out, one row per row of a."""
    np.copyto(out, columns[j])  # then subtracting measured faster than one broadcast subtract
    out -= a[:, j, None]
    return op(out, out=out)


def _column_sum(a, columns, op, cols, t):
    """The terms of the columns cols added in order into a new array;
    t holds each term after the first."""
    acc = _terms(a, columns, op, cols[0], np.empty_like(t))
    for j in cols[1:]:
        acc += _terms(a, columns, op, j, t)
    return acc


def _pairwise_sum(a, columns, op, cols, t):
    """The terms of the columns cols summed as numpy's float64 pairwise_sum
    sums n = len(cols) contiguous values: in order if n < 8; if n <= 128,
    eight partial sums r_k over every eighth of the first n - n % 8 columns,
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in
    order; else each half, split at a multiple of 8, summed so."""
    n = len(cols)
    if n < 8:
        return _column_sum(a, columns, op, cols, t)
    if n > 128:
        half = n // 2 - n // 2 % 8
        acc = _pairwise_sum(a, columns, op, cols[:half], t)
        acc += _pairwise_sum(a, columns, op, cols[half:], t)
        return acc
    body = cols[: n - n % 8]
    acc = _partial_sums(a, columns, op, body, 0, 4, t)
    acc += _partial_sums(a, columns, op, body, 4, 4, t)
    for j in cols[len(body) :]:
        acc += _terms(a, columns, op, j, t)
    return acc


def _partial_sums(a, columns, op, body, k, width, t):
    """The tree sum of the width partial sums r_k .. r_(k+width-1), built
    pair by pair, so no more than two of them are alive at once."""
    if width == 1:
        return _column_sum(a, columns, op, body[k::8], t)
    acc = _partial_sums(a, columns, op, body, k, width // 2, t)
    acc += _partial_sums(a, columns, op, body, k + width // 2, width // 2, t)
    return acc


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
