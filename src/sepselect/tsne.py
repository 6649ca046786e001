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
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .distances import squared_pairwise
from .errors import DataError, NumericalError

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
        if self.perplexity <= 0:
            raise DataError(f"perplexity must be positive, got {self.perplexity}")
        if self.iterations < 1:
            raise DataError("iterations must be a positive integer")
        if self.output_dim < 1:
            raise DataError("output_dim must be >= 1")
        if self.learning_rate <= 0 or self.early_exaggeration <= 0:
            raise DataError("learning_rate and early_exaggeration must be positive")
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


def _row_affinities(d2_row, beta):
    # Shift by the smallest off-diagonal distance so the nearest neighbor
    # never underflows; the shift cancels in the normalization.
    shifted = d2_row - d2_row.min()
    p = np.exp(-beta * shifted)
    return p / p.sum()


def _row_perplexity(p):
    nz = p[p > 0.0]
    entropy_bits = -np.sum(nz * np.log2(nz))
    return 2.0 ** entropy_bits


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
    the row.
    """
    points = _as_points(z)
    m = points.shape[0]
    if m < 2:
        raise DataError("need at least 2 points")
    if not 1.0 <= perplexity <= m - 1:
        raise DataError(
            f"perplexity must lie in [1, M-1] = [1, {m - 1}], got {perplexity}"
        )

    d2 = squared_pairwise(points)
    p_cond = np.zeros((m, m))
    others = np.arange(m)
    for i in range(m):
        idx = others[others != i]
        row = d2[i, idx]
        closest = row == row.min()
        ties = np.count_nonzero(closest)
        if ties > perplexity:
            # the perplexity only falls towards the tie count as beta grows:
            # use the beta -> inf limit, uniform over the tied neighbors
            warnings.warn(
                f"row {i} has {ties} tied nearest neighbors, more than perplexity "
                f"{perplexity}; using the uniform limit over them"
            )
            p_cond[i, idx] = closest / ties
            continue
        p_cond[i, idx] = _bisect_row(row, perplexity, tol, i)
    return p_cond


def _bisect_row(d2_row, target, tol, row_index):
    beta, beta_lo, beta_hi = 1.0, None, None
    p = _row_affinities(d2_row, beta)
    best_p, best_err = p, abs(_row_perplexity(p) - target)
    for _ in range(_BISECT_MAX_ITER):
        achieved = _row_perplexity(p)
        err = achieved - target
        if abs(err) <= tol:
            return p
        if abs(err) < best_err:
            best_p, best_err = p, abs(err)
        if err > 0.0:  # too many effective neighbors: narrow the kernel
            beta_lo = beta
            beta = beta * 2.0 if beta_hi is None else 0.5 * (beta_lo + beta_hi)
        else:
            beta_hi = beta
            beta = beta / 2.0 if beta_lo is None else 0.5 * (beta_lo + beta_hi)
        p = _row_affinities(d2_row, beta)
    if beta_lo is None or beta_hi is None:
        raise NumericalError(
            f"bandwidth search failed to bracket perplexity {target} at row {row_index}"
        )
    warnings.warn(
        f"bandwidth bisection for row {row_index} stopped at perplexity error "
        f"{best_err:.3g}; using closest bracket endpoint"
    )
    return best_p


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
    w = 1.0 / (1.0 + squared_pairwise(coords))
    np.fill_diagonal(w, 0.0)
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
    w = _student_weights(coords)
    q = w / w.sum()
    np.maximum(q, Q_FLOOR, out=q)
    np.fill_diagonal(q, 0.0)
    pq = (p - q) * w
    return 4.0 * ((np.diag(pq.sum(axis=1)) - pq) @ coords)


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

    for it in range(cfg.iterations):
        p_eff = p * cfg.early_exaggeration if it < cfg.exaggeration_iters else p
        grad = kl_gradient(p_eff, coords)
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
