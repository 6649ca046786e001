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

Cost and memory, for M points. The bandwidth search bisects all rows in
lockstep: one step is a few numpy passes over the rows still open, in
blocks of about M/2 rows, instead of a Python loop per row and step; a
row leaves once it converges, keeping only its beta, and every row's
affinities are recomputed once at the end. It holds one (M, M - 1)
matrix of shifted distances besides the block, so its peak is set by
the distance matrix itself. The descent keeps P, the exaggerated P and
two (M, M) buffers, and every iteration writes its Student-t weights, Q
and gradient factor into those buffers: about fifteen passes over an
(M, M) matrix and no allocation of one.

Exactness. Results are bit-for-bit those of a plain row-at-a-time
implementation that allocates in every step (the tests keep one as the
reference), warnings and errors included:
- a row's sum is an axis-1 sum over a C-contiguous 2-D block whose row
  holds exactly that row's terms, which numpy sums pairwise like the
  1-D row; zeros left in place, or np.add.reduceat, round differently;
- the perplexity 2^H is one scalar power per row: np.power on an array
  rounds differently;
- operands are swapped only where IEEE arithmetic commutes (a + b, a * b)
  and never regrouped;
- diag(r) - pq is built as 0.0 - pq with r written on the diagonal:
  -pq would give -0.0 where 0.0 - pq gives +0.0.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .distances import squared_pairwise
from .errors import DataError, NumericalError, require_positive

# Affinity floors: no off-diagonal entry below this enters a logarithm.
P_FLOOR = 1e-12
Q_FLOOR = 1e-12

_BISECT_MAX_ITER = 50
_PERPLEXITY_TOL = 1e-7  # absolute, in perplexity (2^entropy) units


@dataclass
class TsneConfig:
    """Embedding hyperparameters.

    Defaults follow common exact t-SNE practice: learning rate 200, early
    exaggeration 4 for the first 100 iterations, momentum 0.5 switching
    to 0.8 at iteration 250, initialization from a 1e-4-sigma spherical
    Gaussian.
    """

    perplexity: float = 30.0
    iterations: int = 1000
    output_dim: int = 2
    learning_rate: float = 200.0
    early_exaggeration: float = 4.0
    exaggeration_iters: int = 100
    momentum_initial: float = 0.5
    momentum_final: float = 0.8
    momentum_switch_iter: int = 250
    seed: int = 0

    def __post_init__(self):
        require_positive("perplexity", self.perplexity)
        if self.iterations < 1:
            raise DataError("iterations must be a positive integer")
        if self.output_dim < 1:
            raise DataError("output_dim must be >= 1")
        require_positive("learning_rate", self.learning_rate)
        require_positive("early_exaggeration", self.early_exaggeration)
        for m in (self.momentum_initial, self.momentum_final):
            if not 0.0 <= m < 1.0:
                raise DataError(f"momentum must be in [0, 1), got {m}")
        if self.seed < 0:
            raise DataError("seed must be a non-negative integer")


@dataclass
class Embedding:
    """Low-dimensional coordinates, one row per input point."""

    coords: np.ndarray  # (M, R)


def _as_points(z):
    pts = getattr(z, "z", z)
    return np.asarray(pts, dtype=float)


def check_perplexity(perplexity, m):
    """DataError unless m >= 2 points admit the perplexity: 1 <= it <= m - 1."""
    if m < 2:
        raise DataError("need at least 2 points")
    if not 1.0 <= perplexity <= m - 1:
        raise DataError(
            f"perplexity must lie in [1, M-1] = [1, {m - 1}], got {perplexity}"
        )


def conditional_affinities(z, perplexity, tol=_PERPLEXITY_TOL):
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
    points = _as_points(z)
    m = points.shape[0]
    check_perplexity(perplexity, m)

    # row i: the squared distances from point i to the others
    shifted = _off_diagonal(squared_pairwise(points)).reshape(m, m - 1)
    nearest = shifted.min(axis=1)[:, None]
    closest = shifted == nearest
    ties = np.count_nonzero(closest, axis=1)
    tied = np.flatnonzero(ties > perplexity)
    uniform = closest[tied] / ties[tied, None]
    del closest
    # shift by the smallest distance so the nearest neighbor never
    # underflows; the shift cancels in the normalization
    shifted -= nearest

    p_rows = _normalized_kernel(shifted, _bandwidths(shifted, ties, perplexity, tol))
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


def _bandwidths(shifted, ties, target, tol):
    """Bisected beta of every row of shifted, all rows in lockstep.

    shifted holds one row of squared distances per point, less the row's
    minimum, and ties[i] counts the zeros of row i. Each row runs its own
    bisection: it starts at beta 1, doubles or halves beta until the
    target is bracketed, then takes midpoints, and leaves once its
    perplexity is within tol, keeping the beta it reached. A row still
    open after _BISECT_MAX_ITER steps gets the beta of its smallest error
    with a warning, or an error if it never bracketed the target. A row
    with more ties than the target is not bisected (beta 1) and gets a
    warning: the perplexity only falls towards the tie count as beta
    grows. Warnings come in row order, and an error follows the warnings
    of the rows before it only.
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
        keep = ~(gap <= tol)  # a nan error keeps its row open
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
    """Perplexity of the affinities of the given rows at their betas.

    Rows go through in blocks of about M/2, so the block and its
    temporaries take about one (M, M) matrix, or two when entries
    underflow to 0.
    """
    out = np.empty(len(rows))
    block = min(len(rows), shifted.shape[1] // 2 + 1)
    buf = np.empty((block, shifted.shape[1]))
    for start in range(0, len(rows), block):
        part = rows[start : start + block]
        # mode "raise" would stage the rows in a hidden copy
        p = np.take(shifted, part, axis=0, out=buf[: len(part)], mode="clip")
        h = _entropy_bits(_normalized_kernel(p, beta[part]))
        # one scalar power per row: np.power on the array rounds differently
        out[start : start + block] = [2.0 ** x for x in h]
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


def _student_weights(coords, out=None, scratch=None):
    w = squared_pairwise(coords, out=out, scratch=scratch)
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
    m = coords.shape[0]
    return _gradient_step(p, coords, np.empty((m, m)), np.empty((m, m)))


def _gradient_step(p, coords, w, q):
    """kl_gradient(p, coords), computed in the (M, M) buffers w and q."""
    diagonal = slice(None, None, len(coords) + 1)
    _student_weights(coords, out=w, scratch=q)
    np.divide(w, w.sum(), out=q)
    np.maximum(q, Q_FLOOR, out=q)
    q.ravel()[diagonal] = 0.0
    np.subtract(p, q, out=q)
    q *= w  # pq, exactly 0 on the diagonal
    rowsum = q.sum(axis=1)
    # diag(rowsum) - pq; 0.0 - pq, unlike -pq, gives +0.0 where pq is 0
    np.subtract(0.0, q, out=q)
    q.ravel()[diagonal] = rowsum
    return 4.0 * (q @ coords)


def embed(z, cfg, initial_coords=None):
    """Gradient-descent t-SNE embedding; deterministic for a fixed seed.

    initial_coords overrides the seeded Gaussian initialization (used by
    equivariance tests); it must be (M, output_dim).
    """
    points = _as_points(z)
    m = points.shape[0]
    if m < 3:
        raise DataError(f"need at least 3 points to embed, got {m}")

    p = symmetrize_affinities(conditional_affinities(points, cfg.perplexity))
    rng = np.random.default_rng(cfg.seed)
    if initial_coords is None:
        coords = rng.normal(0.0, 1e-4, size=(m, cfg.output_dim))
    else:
        coords = np.array(initial_coords, dtype=float)
        if coords.shape != (m, cfg.output_dim):
            raise DataError("initial_coords shape mismatch")
    velocity = np.zeros_like(coords)
    p_exaggerated = p * cfg.early_exaggeration
    w, q = np.empty((m, m)), np.empty((m, m))

    for it in range(cfg.iterations):
        p_eff = p_exaggerated if it < cfg.exaggeration_iters else p
        grad = _gradient_step(p_eff, coords, w, q)
        if not np.all(np.isfinite(grad)):
            raise NumericalError(f"non-finite gradient at iteration {it}")
        momentum = (
            cfg.momentum_initial
            if it < cfg.momentum_switch_iter
            else cfg.momentum_final
        )
        velocity = momentum * velocity - cfg.learning_rate * grad
        coords = coords + velocity
        coords = coords - coords.mean(axis=0)
    return Embedding(coords=coords)
