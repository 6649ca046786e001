from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _datasets import gaussian_blobs, redundant_groups
from sepselect import kmedoids
from sepselect.errors import DataError, NumericalError
from sepselect.dataio import minmax_normalize
from sepselect.distances import squared_pairwise
from sepselect.kmedoids import _assign, _swap_deltas, kmeanspp_init, pam_cluster, pam_sweep
from sepselect.pipeline import SelectionConfig, mss_curve_cv


def brute_force_best(points, k):
    """Exhaustive medoid enumeration; the independent optimum oracle."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    m = pts.shape[0]
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    best_cost, best_set = np.inf, None
    for medoids in combinations(range(m), k):
        cost = dist[:, list(medoids)].min(axis=1).sum()
        if cost < best_cost:
            best_cost, best_set = cost, medoids
    return best_cost, best_set


def choice_kmeanspp(points, k, seed):
    """k-means++ seeding drawn with Generator.choice(m, p=...); the oracle
    for the inline draw."""
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(m))]
    d2 = np.sum((pts - pts[chosen[0]]) ** 2, axis=1)
    for _ in range(k - 1):
        weights = d2.copy()
        weights[chosen] = 0.0
        total = weights.sum()
        if total > 0.0:
            nxt = int(rng.choice(m, p=weights / total))
        else:
            nxt = int(rng.choice(np.setdiff1d(np.arange(m), chosen)))
        chosen.append(nxt)
        d2 = np.minimum(d2, np.sum((pts - pts[nxt]) ** 2, axis=1))
    return np.array(chosen, dtype=int)


@st.composite
def point_clouds(draw):
    """(points, k): small clouds on a coarse grid, so duplicates are common,
    or with free float coordinates."""
    m = draw(st.integers(2, 25))
    dims = draw(st.integers(1, 3))
    coarse = draw(st.booleans())
    coord = (
        st.integers(-2, 2).map(float)
        if coarse
        else st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    )
    flat = draw(st.lists(coord, min_size=m * dims, max_size=m * dims))
    k = draw(st.integers(2, m))
    return np.array(flat).reshape(m, dims), k


class TestKmeansppInit:
    @settings(max_examples=300, deadline=None)
    @given(cloud=point_clouds(), seed=st.integers(0, 2**32 - 1))
    def test_inline_draw_equals_generator_choice(self, cloud, seed):
        points, k = cloud
        assert np.array_equal(kmeanspp_init(points, k, seed), choice_kmeanspp(points, k, seed))

    def test_k_equals_m_selects_all(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(7, 2))
        chosen = kmeanspp_init(pts, 7, seed=5)
        assert sorted(chosen.tolist()) == list(range(7))

    def test_coincident_point_never_beats_positive_weight(self):
        # points 0 and 1 coincide; once either is chosen the other has
        # selection weight 0 while point 2 still has positive weight
        pts = np.array([0.0, 0.0, 1.0])
        for seed in range(300):
            chosen = set(kmeanspp_init(pts, 2, seed=seed).tolist())
            assert chosen != {0, 1}

    def test_selection_frequencies_match_squared_distance_law(self):
        pts = np.array([0.0, 1.0, 3.0, 7.0])
        m = 4
        d2 = (pts[:, None] - pts[None, :]) ** 2

        expected = np.zeros((m, m))
        for first in range(m):
            weights = d2[:, first].copy()
            weights[first] = 0.0
            expected[first] = weights / weights.sum()
        expected /= m  # uniform first pick

        runs = 10000
        counts = np.zeros((m, m))
        for seed in range(runs):
            first, second = kmeanspp_init(pts, 2, seed=seed)
            counts[first, second] += 1

        for i in range(m):
            for j in range(m):
                p = expected[i, j]
                sigma = np.sqrt(runs * p * (1.0 - p))
                assert abs(counts[i, j] - runs * p) <= 3.0 * sigma + 1e-9

    def test_determinism_and_bounds(self):
        pts = np.random.default_rng(3).normal(size=(9, 3))
        a = kmeanspp_init(pts, 4, seed=7)
        b = kmeanspp_init(pts, 4, seed=7)
        assert np.array_equal(a, b)
        assert len(set(a.tolist())) == 4
        with pytest.raises(DataError):
            kmeanspp_init(pts, 10, seed=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
    def test_rejects_non_finite_weights(self, value):
        # nan and inf coordinates, and finite ones whose squares overflow
        pts = np.random.default_rng(3).normal(size=(9, 3))
        pts[4, 1] = value
        with pytest.raises(NumericalError):
            kmeanspp_init(pts, 3, seed=0)


class TestAssign:
    def test_ties_go_to_the_lowest_medoid_index(self):
        cols = np.array([[1.0, 1.0, 2.0], [3.0, 0.5, 0.5], [4.0, 4.0, 4.0], [2.0, 1.0, 3.0]])
        assignment, nearest = _assign(cols)
        assert assignment.tolist() == [0, 1, 0, 1]
        assert nearest.tolist() == [1.0, 0.5, 4.0, 1.0]


class TestPamCluster:
    def test_two_tight_pairs(self):
        pts = np.array([0.0, 1.0, 10.0, 11.0])
        result = pam_cluster(pts, 2, seed=0)
        opt_cost, _ = brute_force_best(pts, 2)
        assert opt_cost == 2.0
        assert result.cost == pytest.approx(2.0, abs=1e-12)
        low = {m for m in result.medoids if m in (0, 1)}
        high = {m for m in result.medoids if m in (2, 3)}
        assert len(low) == 1 and len(high) == 1

    def test_k_equals_m(self):
        pts = np.random.default_rng(1).normal(size=(6, 2))
        result = pam_cluster(pts, 6, seed=4)
        assert sorted(result.medoids.tolist()) == list(range(6))
        assert result.cost == 0.0
        assert np.array_equal(result.assignment, np.arange(6))

    def test_two_blobs_recovered(self):
        pts, membership = gaussian_blobs([20, 20], [[0.0, 0.0], [10.0, 10.0]], 0.5, seed=2)
        result = pam_cluster(pts, 2, seed=9)
        opt_cost, _ = brute_force_best(pts, 2)
        assert result.cost == pytest.approx(opt_cost, abs=1e-9)
        # assignment equals blob membership (up to cluster relabeling)
        lab = result.assignment
        flip = lab[0] != membership[0]
        recovered = 1 - lab if flip else lab
        assert np.array_equal(recovered, membership)

    def test_cost_log_non_increasing(self):
        pts = np.random.default_rng(12).normal(size=(40, 2))
        log = []
        pam_cluster(pts, 5, seed=3, cost_log=log)
        assert len(log) >= 1
        assert all(a >= b - 1e-12 for a, b in zip(log, log[1:]))

    def test_matches_brute_force_on_small_instances(self):
        hits, total = 0, 100
        rng = np.random.default_rng(99)
        for trial in range(total):
            m = int(rng.integers(5, 11))
            k = int(rng.integers(2, 4))
            pts = rng.normal(size=(m, 2))
            result = pam_cluster(pts, k, seed=trial)
            opt_cost, _ = brute_force_best(pts, k)
            assert result.cost >= opt_cost - 1e-9  # never beats the optimum
            if result.cost <= opt_cost + 1e-9:
                hits += 1
        assert hits >= 95

    def test_nearest_medoid_consistency(self):
        pts = np.random.default_rng(8).normal(size=(30, 3))
        result = pam_cluster(pts, 4, seed=1)
        dist = np.linalg.norm(pts[:, None, :] - pts[result.medoids][None, :, :], axis=2)
        assigned = dist[np.arange(30), result.assignment]
        assert np.all(assigned <= dist.min(axis=1) + 1e-12)

    def test_cost_recomputable(self):
        pts = np.random.default_rng(4).normal(size=(25, 2))
        result = pam_cluster(pts, 3, seed=6)
        med_pts = pts[result.medoids[result.assignment]]
        assert result.cost == pytest.approx(
            np.linalg.norm(pts - med_pts, axis=1).sum(), abs=1e-9
        )

    def test_medoids_in_own_cluster(self):
        pts = np.random.default_rng(10).normal(size=(20, 2))
        result = pam_cluster(pts, 4, seed=2)
        for pos, m in enumerate(result.medoids):
            assert result.assignment[m] == pos

    def test_determinism(self):
        pts = np.random.default_rng(5).normal(size=(30, 2))
        a = pam_cluster(pts, 4, seed=13)
        b = pam_cluster(pts, 4, seed=13)
        assert np.array_equal(a.medoids, b.medoids)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.cost == b.cost

    def test_restarts_share_one_distance_matrix(self, monkeypatch):
        calls = []
        real = kmedoids.squared_pairwise

        def counting(x):
            calls.append(x.shape)
            return real(x)

        monkeypatch.setattr(kmedoids, "squared_pairwise", counting)
        pam_cluster(np.random.default_rng(2).normal(size=(30, 2)), 4, seed=1, restarts=3)
        assert calls == [(30, 2)]

    def test_rejects_bad_input(self):
        pts = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(DataError):
            pam_cluster(pts, 6, seed=0)
        bad = pts.copy()
        bad[0, 0] = np.nan
        with pytest.raises(NumericalError):
            pam_cluster(bad, 2, seed=0)


class TestSwapDeltas:
    @settings(max_examples=200, deadline=None)
    @given(cloud=point_clouds(), seed=st.integers(0, 2**32 - 1))
    def test_equal_to_per_medoid_masked_sums(self, cloud, seed):
        # a swap-round state as PAM builds it: sorted medoids, nearest-medoid
        # assignment with each medoid pinned to its own position
        points, k = cloud
        m = points.shape[0]
        if k == m:
            return  # no candidates, no swap round
        dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
        medoids = np.sort(np.random.default_rng(seed).choice(m, size=k, replace=False))
        cols = dist[:, medoids]
        assignment, nearest = _assign(cols)
        assignment[medoids] = np.arange(k)
        second = np.sort(cols, axis=1)[:, 1]
        d_cand = dist[:, np.setdiff1d(np.arange(m), medoids)]

        keep_term = np.minimum(d_cand - nearest[:, None], 0.0)
        lose_term = np.minimum(d_cand, second[:, None]) - nearest[:, None]
        base = keep_term.sum(axis=0)
        correction = lose_term - keep_term
        expected = np.array([base + correction[assignment == pos].sum(axis=0) for pos in range(k)])
        assert np.array_equal(_swap_deltas(d_cand, nearest, second, assignment, k), expected)


def _swap_costs(dist, medoids):
    """Cost of every single swap of medoids, by brute force."""
    others = np.setdiff1d(np.arange(dist.shape[0]), medoids)
    return [
        dist[:, np.append(np.delete(medoids, pos), cand)].min(axis=1).sum()
        for pos in range(len(medoids))
        for cand in others
    ]


class TestPamSweep:
    @settings(max_examples=200, deadline=None)
    @given(cloud=point_clouds())
    def test_every_k_is_a_single_swap_local_optimum(self, cloud):
        points, k_hi = cloud
        m = points.shape[0]
        dist = np.sqrt(squared_pairwise(points))
        sweep = pam_sweep(points, k_hi)
        assert [r.k for r in sweep] == list(range(2, k_hi + 1))
        for r in sweep:
            assert np.array_equal(r.medoids, np.unique(r.medoids))  # sorted, unique
            assert r.cost == dist[np.arange(m), r.medoids[r.assignment]].sum()
            assert np.array_equal(r.assignment[r.medoids], np.arange(r.k))
            tol = 1e-9 * (1.0 + r.cost)
            assert np.all(dist[np.arange(m), r.medoids[r.assignment]]
                          <= dist[:, r.medoids].min(axis=1) + tol)
            assert min(_swap_costs(dist, r.medoids), default=np.inf) >= r.cost - tol

    def test_cost_recomputable_and_k_equals_m_costs_zero(self):
        pts = np.random.default_rng(4).normal(size=(12, 2))
        pts[5] = pts[3]  # a coincident pair
        sweep = pam_sweep(pts, 12)
        for r in sweep:
            med_pts = pts[r.medoids[r.assignment]]
            assert r.cost == pytest.approx(np.linalg.norm(pts - med_pts, axis=1).sum(), abs=1e-9)
        last = sweep[-1]
        assert last.medoids.tolist() == list(range(12))
        assert last.cost == 0.0
        assert np.array_equal(last.assignment, np.arange(12))

    def test_two_blobs_start_at_the_optimum(self):
        pts, _ = gaussian_blobs([20, 20], [[0.0, 0.0], [10.0, 10.0]], 0.5, seed=2)
        opt_cost, _ = brute_force_best(pts, 2)
        assert pam_sweep(pts, 2)[0].cost == pytest.approx(opt_cost, abs=1e-9)

    def test_deterministic(self):
        pts = np.random.default_rng(5).normal(size=(30, 2))
        a, b = pam_sweep(pts, 10), pam_sweep(pts, 10)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.medoids, rb.medoids)
            assert np.array_equal(ra.assignment, rb.assignment)
            assert ra.cost == rb.cost

    @pytest.mark.parametrize("k_hi", [1, 6])
    def test_k_outside_range_raises_like_pam_cluster(self, k_hi):
        pts = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(DataError) as sweep_err:
            pam_sweep(pts, k_hi)
        with pytest.raises(DataError) as pam_err:
            pam_cluster(pts, k_hi, seed=0)
        assert str(sweep_err.value) == str(pam_err.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_points_raise_like_pam_cluster(self, value):
        pts = np.random.default_rng(0).normal(size=(5, 2))
        pts[2, 1] = value
        with pytest.raises(NumericalError) as sweep_err:
            pam_sweep(pts, 3)
        with pytest.raises(NumericalError) as pam_err:
            pam_cluster(pts, 3, seed=0)
        assert str(sweep_err.value) == str(pam_err.value)

    def test_against_per_k_pam_cluster(self):
        # per-k pam_cluster (3 k-means++ restarts) is the reference; the sweep
        # trades independent restarts for warm starts, so it may land on a
        # cheaper or a dearer local optimum at a given k, but not far off
        equal = lower = higher = 0
        worst, sweep_total, pam_total = 0.0, 0.0, 0.0
        for trial in range(8):
            rng = np.random.default_rng(trial)
            m = int(rng.integers(20, 40))
            if trial % 3 == 0:
                pts = rng.normal(size=(m, 2))
            elif trial % 3 == 1:
                centers = rng.uniform(-10.0, 10.0, size=(5, 2))
                pts = centers[rng.integers(5, size=m)] + rng.normal(scale=0.7, size=(m, 2))
            else:
                pts = rng.integers(-3, 4, size=(m, 2)).astype(float)  # coincident points
            for r in pam_sweep(pts, m):
                ref = pam_cluster(pts, r.k, seed=1000 * trial + r.k).cost
                if abs(r.cost - ref) <= 1e-9 * (1.0 + ref):
                    equal += 1
                elif r.cost < ref:
                    lower += 1
                else:
                    higher += 1
                    worst = max(worst, r.cost / ref - 1.0)
                sweep_total += r.cost
                pam_total += ref
        print(f"sweep vs per-k pam_cluster: {equal} equal, {lower} lower, {higher} higher, "
              f"worst +{100 * worst:.1f}%, total cost ratio {sweep_total / pam_total:.4f}")
        assert equal > lower + higher
        assert worst < 0.25
        assert sweep_total < 1.02 * pam_total


def test_mss_curve_cv_builds_one_distance_matrix_per_fold_and_never_seeds(monkeypatch, pin_workers):
    d, _ = redundant_groups(90, 3, [3, 3], strengths=[2.0, 2.0], noise=0.3, seed=1)
    cfg = SelectionConfig(seed=7, perplexity=2.5, tsne_iterations=100, fold_count=4)
    calls = []
    real = kmedoids.squared_pairwise

    def counting(x):
        calls.append(x.shape)
        return real(x)

    def no_seeding(*args, **kwargs):
        raise AssertionError("k-means++ seeding called")

    monkeypatch.setattr(kmedoids, "squared_pairwise", counting)
    monkeypatch.setattr(kmedoids, "kmeanspp_init", no_seeding)
    # one worker: calls made in forked workers are not counted here; the
    # seeding guard would still raise through them, as they inherit it
    pin_workers(1)
    curve = mss_curve_cv(minmax_normalize(d), cfg)
    assert calls == [(6, 2)] * cfg.fold_count
    assert curve.ks.tolist() == [2, 3, 4, 5, 6]
