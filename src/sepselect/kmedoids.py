"""K-medoids clustering: PAM swap refinement from k-means++ seeds at a
fixed k, or warm-started from BUILD across a whole k sweep.

Distances are Euclidean in the space the points live in (for this
package, the low-dimensional embedding). pam_cluster clusters at one k:
the spread-out seeding is the first defence against bad local optima; a
single best-swap run can still stall on unstructured point clouds, so a
few seeded restarts are taken and the cheapest result kept. pam_sweep
clusters at every k = 2..k_hi: k = 2 starts from BUILD (Kaufman &
Rousseeuw 1990), each next k from the previous k's optimum plus BUILD's
greedy point, so each k needs only the few swaps that the added medoid
sets off. Both end every k at a local optimum under single swaps, through
the same swap rounds (_swap_to_optimum).

Cost model: each call builds the (M, M) distance matrix once, and every
restart or k reads it. A swap round evaluates all k * (M - k) exchanges
in O(M * (M - k)) time and memory whatever the cluster sizes: the
second-nearest medoid distance comes from a partial sort, and the
per-medoid sums of the loss terms from one weighted bincount over
(medoid, candidate) bins rather than a loop over the k medoids. Every sum
is taken in the same order as the plain per-medoid loop, so results do
not depend on this vectorization down to the last bit. A BUILD step costs
O(M^2). pam_cluster pays k-means++ seeding and a full descent for every
restart; pam_sweep pays one BUILD step and usually a few swap rounds per k.

Determinism contract: ties in nearest-medoid assignment go to the lowest
medoid index, the applied swap is the lexicographically first cost
minimizer, BUILD's ties go to the lowest point index, the medoid list is
kept sorted ascending, and pam_cluster's restart seeds derive from the
caller's seed. pam_sweep draws no random numbers.
"""

from dataclasses import dataclass

import numpy as np

from .distances import difference_sums, squared_pairwise
from .errors import NumericalError, require_integer

_MAX_SWAP_ROUNDS = 300
_IMPROVEMENT_EPS = 1e-12


@dataclass
class ClusteringResult:
    """Medoid point indices (ascending), per-point cluster assignment, total cost.

    assignment[i] indexes into medoids; cost is the sum over points of the
    distance to their assigned medoid and is exactly recomputable from the
    inputs.
    """

    medoids: np.ndarray
    assignment: np.ndarray
    cost: float

    @property
    def k(self):
        return len(self.medoids)

    def cluster_sizes(self):
        return np.bincount(self.assignment, minlength=self.k)


def _as_matrix(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


def kmeanspp_init(points, k, seed):
    """Distance-weighted seeding: first center uniform, then each next
    center sampled with probability proportional to the squared distance
    to the nearest already-chosen center. Returns indices in selection
    order; deterministic for a fixed seed.
    """
    pts = _as_matrix(points)
    m = pts.shape[0]
    require_integer("k", k, 2, m)
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(m))]
    d2 = np.full(m, np.inf)
    for _ in range(k - 1):
        # the newest center's squared distances; exactly 0 at chosen points
        np.minimum(d2, difference_sums(pts[chosen[-1:]], pts, np.square)[0], out=d2)
        total = d2.sum()
        if not np.isfinite(total):
            raise NumericalError("non-finite coordinates or overflowing squared distances")
        if total > 0.0:
            nxt = int(rng.choice(m, p=d2 / total))
        else:
            # every remaining point coincides with a chosen center
            remaining = np.setdiff1d(np.arange(m), chosen)
            nxt = int(rng.choice(remaining))
        chosen.append(nxt)
    return np.array(chosen, dtype=int)


def _assign(dist_cols):
    # dist_cols: (M, k) distances to medoids in ascending-medoid order;
    # argmin takes the first minimum, i.e. the lowest medoid index on ties
    assignment = np.argmin(dist_cols, axis=1)
    nearest = dist_cols[np.arange(dist_cols.shape[0]), assignment]
    return assignment, nearest


def _checked_distances(points, k):
    """(points as a matrix, their (M, M) distance matrix), after checking
    that k lies in [2, M] and every coordinate is finite."""
    pts = _as_matrix(points)
    require_integer("k", k, 2, len(pts))
    if not np.all(np.isfinite(pts)):
        raise NumericalError("non-finite coordinates")
    return pts, np.sqrt(squared_pairwise(pts))


def pam_cluster(points, k, seed, restarts=3, cost_log=None):
    """Greedy best-swap PAM, best of `restarts` seeded k-means++ starts.

    Each round evaluates every (medoid, non-medoid) exchange exactly and
    applies the single best strictly improving one; within a run the cost
    sequence is non-increasing and the result is a local optimum under
    single swaps. Restart seeds are derived from `seed`, the lowest-cost
    run wins (ties: earliest restart), so the whole call is deterministic.
    cost_log, when given, receives the winning run's per-round costs.
    """
    require_integer("restarts", restarts, 1)
    pts, dist = _checked_distances(points, k)  # dist is shared by every restart

    best, best_log = None, None
    for r in range(restarts):
        run_seed = int(np.random.SeedSequence([int(seed), r]).generate_state(1)[0])
        log = [] if cost_log is not None else None
        result = _swap_to_optimum(dist, np.sort(kmeanspp_init(pts, k, run_seed)), log)
        if best is None or result.cost < best.cost - _IMPROVEMENT_EPS:
            best, best_log = result, log
    if cost_log is not None:
        cost_log.extend(best_log)
    return best


def _swap_deltas(d_cand, nearest, second, assignment, k):
    """(k, |candidates|) cost deltas of swapping the medoid at each position
    for each candidate, given the (M, |candidates|) candidate distances.

    Decomposed so the work is O(M * |candidates|) instead of k times that:
    points not assigned to `pos` contribute min(0, D_ih - nearest_i),
    points assigned to it contribute min(D_ih, second_i) - nearest_i.
    """
    keep_term = np.minimum(d_cand - nearest[:, None], 0.0)
    lose_term = np.minimum(d_cand, second[:, None]) - nearest[:, None]
    base = keep_term.sum(axis=0)
    correction = lose_term - keep_term
    # per-position sums of the correction rows, all positions at once:
    # bincount adds its weights in input order, so each (position,
    # candidate) bin accumulates its rows one by one in index order, exactly
    # as the masked correction[assignment == pos].sum(axis=0) does (with a
    # single candidate that sum goes pairwise instead, but then k = M - 1 and
    # no position has more than two rows, where every order agrees)
    c = d_cand.shape[1]
    bins = (assignment[:, None] * c + np.arange(c)).ravel()
    sums = np.bincount(bins, weights=correction.ravel(), minlength=k * c)
    return base + sums.reshape(k, c)


def _swap_to_optimum(dist, medoids, cost_log=None):
    """Best-swap rounds from the sorted medoids to a local optimum under
    single swaps (or _MAX_SWAP_ROUNDS rounds); cost_log, when given,
    receives the cost at the start of every round."""
    m = dist.shape[0]
    k = len(medoids)
    positions = np.arange(k)

    for swaps in range(_MAX_SWAP_ROUNDS + 1):
        cols = dist[:, medoids]
        assignment, nearest = _assign(cols)
        # pin each medoid to its own cluster (ties with a coincident medoid
        # would otherwise send it to the lower index)
        assignment[medoids] = positions
        cost = float(nearest.sum())
        if swaps == _MAX_SWAP_ROUNDS:
            break  # the round limit, straight after a swap: no round starts
        if cost_log is not None:
            cost_log.append(cost)
        if k == m:
            break

        second = np.partition(cols, 1, axis=1)[:, 1]
        is_candidate = np.ones(m, dtype=bool)
        is_candidate[medoids] = False
        candidates = np.flatnonzero(is_candidate)
        deltas = _swap_deltas(dist[:, candidates], nearest, second, assignment, k)
        flat_best = int(np.argmin(deltas))  # first minimum = lowest pair index
        if float(deltas.flat[flat_best]) < -_IMPROVEMENT_EPS:
            pos, cand = divmod(flat_best, len(candidates))
            medoids = np.sort(np.append(np.delete(medoids, pos), candidates[cand]))
        else:
            break
    return ClusteringResult(medoids=medoids, assignment=assignment, cost=cost)


def _build_next(dist, medoids):
    """BUILD's greedy medoid: the non-medoid that maximizes the total
    decrease sum_i max(nearest_i - d_ij, 0), ties to the lowest index."""
    nearest = dist[:, medoids].min(axis=1)
    gains = np.maximum(nearest[:, None] - dist, 0.0).sum(axis=0)
    gains[medoids] = -1.0  # below every non-medoid's gain, which is >= 0
    return int(np.argmax(gains))


def pam_sweep(points, k_hi):
    """Best-swap PAM for every k = 2..k_hi, warm-started along the sweep.

    k = 2 starts from BUILD (Kaufman & Rousseeuw 1990): the point of
    smallest distance sum, then BUILD's greedy point. Each next k starts
    from the previous k's optimum plus BUILD's greedy point. Every result
    is a local optimum under single swaps, reached by pam_cluster's swap
    rounds and tie rules. No randomness: the sweep depends on the points
    alone. Returns one ClusteringResult per k, in order.
    """
    _, dist = _checked_distances(points, k_hi)  # shared by every k

    medoids = np.array([np.argmin(dist.sum(axis=1))])  # first minimum on ties
    results = []
    for _ in range(2, k_hi + 1):
        medoids = np.sort(np.append(medoids, _build_next(dist, medoids)))
        results.append(_swap_to_optimum(dist, medoids))
        medoids = results[-1].medoids
    return results
