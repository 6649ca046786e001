"""Exact t-SNE embedding of feature points into a low-dimensional space.

The quadratic-cost exact formulation is deliberate: the feature counts
this package targets are small (hundreds), and exactness keeps the
gradient testable against finite differences. No tree or interpolation
approximations.

Pipeline: squared Euclidean distances over the input rows -> per-row
Gaussian bandwidths found by bisection on the entropy (so each row's
effective neighbor count matches the requested perplexity) -> symmetrized
affinities P -> gradient descent with momentum and early exaggeration on
low-dimensional Student-t affinities Q, minimizing KL(P || Q).

Options. embed takes the (M, d) point rows (the separability array), the
perplexity, the iteration cap and the seed, whose defaults live in
pipeline.SelectionConfig, and returns the (M, 2) coordinates as a plain
array. The rest is fixed, not an option: output dimension 2, early
exaggeration 4 for the first 100 iterations, momentum 0.5 switching to
0.8 at iteration 250, and a bisection tolerance of 1e-7 in perplexity
units. The learning rate is M, the number of points, which scales the
step with the point count (Belkina et al., Nat. Commun. 2019): a fixed
rate such as the common 200 oscillates at small M and leaves M=23 far
from converged after 1000 iterations. Each coordinate carries the gain of the reference
t-SNE implementation (van der Maaten & Hinton, JMLR 2008): +0.2 where
the gradient's sign opposes the velocity's, x0.8 otherwise, floored at
0.01; a step is velocity = momentum * velocity - M * (gains * grad).

The iteration count is a cap. Like opt-SNE (Belkina et al.), the descent
stops once it stops making progress, here at its fixed point: from
iteration 250 on, every 10th step ends the descent if it moved no
coordinate by more than _STEP_TOL = 1e-12 of the largest coordinate
magnitude. At small M the descent settles long before 500 iterations,
and the steps it skips would move the coordinates by rounding error
only; a looser tolerance such as 1e-6 stops sooner but moves the
coordinates. Checking every step instead of every 10th costs about 1% of
an embedding that never stops.

Cost and memory, for M points. The squared distances between the input
rows come from distances.squared_pairwise, about a fifth of the
affinities' time at M=203, d=66: explicit differences, each pair once,
so their bits do not depend on the BLAS thread count and identical rows
tie exactly, as the tie limit needs.
The bandwidth search bisects all rows in lockstep: one step is a few
numpy passes over the rows still open, in distances.row_blocks, instead
of a Python loop per row and step; a row leaves once it converges,
keeping only its beta, and every row's affinities are recomputed once at
the end. It holds one (M, M - 1) matrix of shifted distances besides a
block, so its peak is set by the distance matrix itself. The descent
keeps P, exaggerated in place and back, and two (M, M) buffers.
Every iteration makes two BLAS products and about nine passes over an
(M, M) matrix, and allocates no such matrix: the rows
[-2 v_i, 1 + |v_i|^2, 1] times [v_j, 1, |v_j|^2] write
1 + ||v_i - v_j||^2 into one buffer, which becomes the Student-t weights
w; Q = w / Z and pq = (P - Q) w go into the other; pq times the rows
[v_j, 1] gives pq @ v and the row sums r of pq together, so
grad = 4 (r v - pq @ v). The products' operands are allocated once per
embedding, and the coordinates and velocities are updated in place.

Exactness. Results are bit-for-bit those of a plain row-at-a-time
implementation that allocates in every step (the tests keep one as the
reference; its gradient writes out the same two products), warnings and
errors included:
- a row's sum is an axis-1 sum over a C-contiguous 2-D block whose row
  holds exactly that row's terms, which numpy sums pairwise like the
  1-D row; zeros left in place, or np.add.reduceat, round differently;
- the perplexity 2^H is one scalar power per row: np.power on an array
  rounds differently;
- operands are swapped only where IEEE arithmetic commutes (a + b, a * b)
  and never regrouped;
- the in-place step computes each entry as the reference's
  momentum * velocity - M * (gains * grad), in that grouping, and
  np.add.reduce(coords, axis=0) / M is coords.mean(axis=0) bit for bit.
"""

import warnings

import numpy as np

from .distances import row_blocks, squared_pairwise
from .errors import DataError, NumericalError, require_integer

# Affinity floors: no off-diagonal entry below this enters a logarithm.
P_FLOOR = 1e-12
Q_FLOOR = 1e-12

_BISECT_MAX_ITER = 50
_PERPLEXITY_TOL = 1e-7  # absolute, in perplexity (2^entropy) units

# The descent schedule (common exact t-SNE practice); fixed, not options.
_OUTPUT_DIM = 2
# a power of two: embed scales P by it in place and back exactly, as every
# off-diagonal entry is at least P_FLOOR, far above the subnormal range
_EARLY_EXAGGERATION = 4.0
_EXAGGERATION_ITERS = 100
_MOMENTUM_INITIAL = 0.5
_MOMENTUM_FINAL = 0.8
_MOMENTUM_SWITCH_ITER = 250
_GAIN_STEP = 0.2
_GAIN_DECAY = 0.8
_MIN_GAIN = 0.01
_STEP_TOL = 1e-12  # the stop: a step's largest move, over the largest coordinate


def check_perplexity(perplexity, m):
    """DataError unless m >= 2 points admit the perplexity: 1 <= it <= m - 1."""
    if m < 2:
        raise DataError("need at least 2 points")
    if not 1.0 <= perplexity <= m - 1:
        raise DataError(
            f"perplexity must lie in [1, M-1] = [1, {m - 1}], got {perplexity}"
        )


def conditional_affinities(z, perplexity):
    """Row-stochastic conditional affinity matrix with per-row bandwidths.

    Each row's precision beta = 1/(2 sigma^2) is bisected until the row's
    perplexity (2^entropy, entropy in bits) matches the target. The
    bracket is grown by doubling; if it cannot be established the row
    index is reported, and if bisection stalls the closest bracket
    endpoint is used with a warning. A row with more tied nearest
    neighbors than the perplexity (tied separability rows, from constant
    or duplicate columns) cannot reach it at any finite beta and gets the
    beta -> inf limit, uniform over those neighbors, with a warning naming
    the row. Warnings come in row order; an error names the first failing
    row and follows the warnings of the rows before it only.
    """
    points = np.asarray(z, dtype=float)
    m = points.shape[0]
    check_perplexity(perplexity, m)

    # row i: the squared distances from point i to the others
    shifted = _off_diagonal(squared_pairwise(points)).reshape(m, m - 1)
    # shift by the smallest distance so the nearest neighbor never
    # underflows; the shift cancels in the normalization. After it the
    # nearest neighbors are exactly 0 and no other entry is, as x - n > 0
    # for doubles x > n.
    shifted -= shifted.min(axis=1)[:, None]
    ties = np.count_nonzero(shifted == 0.0, axis=1)
    tied = np.flatnonzero(ties > perplexity)
    uniform = (shifted[tied] == 0.0) / ties[tied, None]

    p_rows = _normalized_kernel(shifted, _bandwidths(shifted, ties, perplexity))
    p_rows[tied] = uniform
    p_cond = np.zeros((m, m))
    _off_diagonal(p_cond)[...] = p_rows.reshape(m - 1, m)
    return p_cond


def _off_diagonal(a):
    """View of the off-diagonal entries of the C-contiguous (M, M) array a
    in row-major order, as the M - 1 runs of M entries between one
    diagonal entry and the next."""
    m = len(a)
    return a.ravel()[1:].reshape(m - 1, m + 1)[:, :m]


def _bandwidths(shifted, ties, target):
    """Bisected beta of every row of shifted, all rows in lockstep.

    shifted holds one row of squared distances per point, less the row's
    minimum, and ties[i] counts the zeros of row i. Each row runs its own
    bisection: it starts at beta 1, doubles or halves beta until the
    target is bracketed, then takes midpoints, and leaves once its
    perplexity is within _PERPLEXITY_TOL, keeping the beta it reached. A
    row still open after _BISECT_MAX_ITER steps gets the beta of its
    smallest error with a warning, or an error if it never bracketed the
    target. A row with more ties than the target is not bisected (beta 1)
    and gets a warning: the perplexity only falls towards the tie count as
    beta grows. Warnings come in row order, and an error follows the
    warnings of the rows before it only.
    """
    m = len(shifted)
    is_tied = ties > target
    beta = np.ones(m)
    lo = np.full(m, np.nan)  # nan: bound not found yet
    hi = np.full(m, np.nan)
    best_beta = beta.copy()
    best_err = np.full(m, np.inf)
    rows = np.flatnonzero(~is_tied)
    for _ in range(_BISECT_MAX_ITER):
        if not rows.size:
            break
        err = _row_perplexities(shifted, rows, beta) - target
        gap = np.abs(err)
        keep = ~(gap <= _PERPLEXITY_TOL)  # a nan error keeps its row open
        rows, err, gap = rows[keep], err[keep], gap[keep]
        better = gap < best_err[rows]
        best_beta[rows[better]] = beta[rows[better]]
        best_err[rows[better]] = gap[better]
        b = beta[rows]
        wide = err > 0.0  # too many effective neighbors: narrow the kernel
        lo[rows[wide]] = b[wide]
        hi[rows[~wide]] = b[~wide]
        mid = 0.5 * (lo[rows] + hi[rows])  # nan until both bounds are found
        beta[rows] = np.where(np.isnan(mid), np.where(wide, b * 2.0, b / 2.0), mid)

    unbracketed = np.isnan(lo) | np.isnan(hi)
    reported = is_tied.copy()
    reported[rows] = True  # rows: the ones still open, which stalled
    for i in np.flatnonzero(reported):
        if is_tied[i]:
            warnings.warn(
                f"row {i} has {ties[i]} tied nearest neighbors, more than perplexity "
                f"{target}; using the uniform limit over them"
            )
        elif unbracketed[i]:
            raise NumericalError(
                f"bandwidth search failed to bracket perplexity {target} at row {i}"
            )
        else:
            warnings.warn(
                f"bandwidth bisection for row {i} stopped at perplexity error "
                f"{best_err[i]:.3g}; using closest bracket endpoint"
            )
    beta[rows] = best_beta[rows]
    return beta


def _normalized_kernel(p, beta):
    """Overwrite p, one row of shifted squared distances per entry of
    beta, with the row-normalized Gaussian affinities exp(-beta * p)."""
    p *= -beta[:, None]
    np.exp(p, out=p)
    p /= p.sum(axis=1)[:, None]
    return p


def _row_perplexities(shifted, rows, beta):
    """Perplexity of the affinities of the given rows at their betas,
    taken in the blocks of distances.row_blocks."""
    out = np.empty(len(rows))
    for part in row_blocks(len(rows), shifted[0].nbytes):
        block = rows[part]
        h = _entropy_bits(_normalized_kernel(shifted[block], beta[block]))
        # one scalar power per row: np.power on the array rounds differently
        out[part] = [2.0 ** x for x in h]
    return out


def _entropy_bits(p):
    """Entropy in bits of each row of p (C-contiguous) over its positive
    entries.

    Each row's sum is bit-for-bit np.sum over that row's positive entries
    alone: numpy sums each row of a C-contiguous 2-D array along axis 1
    pairwise exactly as it sums a 1-D array. Without zeros the rows are
    summed as they stand. Otherwise rows with the same count of positive
    entries are gathered into one (rows, count) block of those entries;
    summing with the zeros left in place, or with np.add.reduceat, rounds
    differently.
    """
    if p.min() > 0.0:
        terms = np.log2(p)
        terms *= p
        return -terms.sum(axis=1)
    positive = p > 0.0
    counts = np.count_nonzero(positive, axis=1)
    nz = p[positive]
    terms = np.log2(nz)
    terms *= nz
    del nz
    starts = np.cumsum(counts) - counts
    h = np.empty(len(p))
    # distinct counts without np.unique, whose first call imports numpy.ma
    for count in np.flatnonzero(np.bincount(counts)):
        group = np.flatnonzero(counts == count)
        h[group] = terms[starts[group, None] + np.arange(count)].sum(axis=1)
    return -h


def symmetrize_affinities(p_cond):
    """Joint affinities p_ij = (p_i|j + p_j|i) / (2M), floored off-diagonal."""
    m = p_cond.shape[0]
    p = (p_cond + p_cond.T) / (2.0 * m)
    np.maximum(p, P_FLOOR, out=p)
    np.fill_diagonal(p, 0.0)
    return p


def low_dim_affinities(coords):
    """Student-t joint affinities of the embedded points; sums to 1."""
    w = _student_weights(np.asarray(coords, dtype=float))
    q = w / w.sum()
    np.maximum(q, Q_FLOOR, out=q)
    np.fill_diagonal(q, 0.0)
    return q


def _student_weights(coords):
    w = squared_pairwise(coords)
    w += 1.0
    np.divide(1.0, w, out=w)
    w.ravel()[:: len(w) + 1] = 0.0
    return w


def kl_divergence(p, q):
    """KL(P || Q) over off-diagonal entries, natural log."""
    if p.shape != q.shape:
        raise DataError("P and Q must have the same shape")
    off = ~np.eye(p.shape[0], dtype=bool)
    pi, qi = p[off], q[off]
    return float(np.sum(pi * np.log(pi / qi)))


def kl_gradient(p, coords):
    """Analytic gradient of KL(P || Q) with respect to the coordinates.

    grad_i = 4 sum_j (p_ij - q_ij) (1 + ||v_i - v_j||^2)^-1 (v_i - v_j)
    """
    coords = np.asarray(coords, dtype=float)
    return _gradient_step(p, coords, *_step_buffers(*coords.shape))


def _step_buffers(m, d):
    """w and q, (M, M), the operands [-2 v_i, 1 + |v_i|^2, 1] and
    [v_j, 1, |v_j|^2] with their columns of ones, and pq @ [v_j, 1]."""
    left, right = np.ones((m, d + 2)), np.ones((m, d + 2))
    return np.empty((m, m)), np.empty((m, m)), left, right, np.empty((m, d + 1))


def _gradient_step(p, coords, w, q, left, right, out):
    """kl_gradient(p, coords), computed in the buffers of _step_buffers."""
    d = coords.shape[1]
    diagonal = slice(None, None, len(coords) + 1)
    np.einsum("ij,ij->i", coords, coords, out=right[:, d + 1])  # |v_j|^2
    np.add(right[:, d + 1], 1.0, out=left[:, d])
    np.multiply(coords, -2.0, out=left[:, :d])
    right[:, :d] = coords
    np.matmul(left, right.T, out=w)  # 1 + ||v_i - v_j||^2
    np.maximum(w, 1.0, out=w)
    np.divide(1.0, w, out=w)
    w.ravel()[diagonal] = 0.0
    np.multiply(w, 1.0 / w.sum(), out=q)
    np.maximum(q, Q_FLOOR, out=q)
    q.ravel()[diagonal] = 0.0
    np.subtract(p, q, out=q)
    q *= w  # pq
    np.matmul(q, right[:, : d + 1], out=out)  # [pq @ v, row sums of pq]
    grad = out[:, d:] * coords
    grad -= out[:, :d]
    grad *= 4.0
    return grad


def embed(z, perplexity, iterations, seed, initial_coords=None):
    """(M, 2) coordinates of the rows of z, one row per point, by
    gradient-descent t-SNE on the fixed schedule (see the module
    docstring); deterministic for a fixed seed.

    iterations caps the descent: from iteration _MOMENTUM_SWITCH_ITER on,
    every 10th step ends it if no coordinate moved by more than _STEP_TOL
    times the largest coordinate magnitude.

    initial_coords overrides the seeded 1e-4-sigma Gaussian initialization
    (used by equivariance tests); it must be (M, 2).
    """
    require_integer("iterations", iterations, 1)
    require_integer("seed", seed, 0)
    points = np.asarray(z, dtype=float)
    m = points.shape[0]
    if m < 3:
        raise DataError(f"need at least 3 points to embed, got {m}")

    p = symmetrize_affinities(conditional_affinities(points, perplexity))
    rng = np.random.default_rng(seed)
    if initial_coords is None:
        coords = rng.normal(0.0, 1e-4, size=(m, _OUTPUT_DIM))
    else:
        coords = np.array(initial_coords, dtype=float)
        if coords.shape != (m, _OUTPUT_DIM):
            raise DataError("initial_coords shape mismatch")
    velocity = np.zeros_like(coords)
    gains = np.ones_like(coords)
    learning_rate = float(m)
    p *= _EARLY_EXAGGERATION
    buffers = _step_buffers(m, _OUTPUT_DIM)

    for it in range(iterations):
        if it == _EXAGGERATION_ITERS:
            p /= _EARLY_EXAGGERATION
        grad = _gradient_step(p, coords, *buffers)
        if not np.all(np.isfinite(grad)):
            raise NumericalError(f"non-finite gradient at iteration {it}")
        momentum = _MOMENTUM_INITIAL if it < _MOMENTUM_SWITCH_ITER else _MOMENTUM_FINAL
        opposed = (grad > 0.0) != (velocity > 0.0)
        gains = np.where(opposed, gains + _GAIN_STEP, gains * _GAIN_DECAY)
        np.maximum(gains, _MIN_GAIN, out=gains)
        grad *= gains
        grad *= learning_rate
        velocity *= momentum
        velocity -= grad
        coords += velocity
        coords -= np.add.reduce(coords, axis=0) / m  # the bits of coords.mean(axis=0)
        if (
            it >= _MOMENTUM_SWITCH_ITER
            and it % 10 == 0
            and np.abs(velocity).max() <= _STEP_TOL * np.abs(coords).max()
        ):
            break
    return coords
