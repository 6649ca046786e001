import math
import warnings

import numpy as np
import pytest

from _datasets import redundant_groups
from sepselect.dataio import minmax_normalize
from sepselect.distances import squared_pairwise
from sepselect.errors import DataError, NumericalError
from sepselect.separability import build_feature_space
from sepselect.tsne import (
    P_FLOOR,
    Q_FLOOR,
    _bandwidths,
    conditional_affinities,
    embed,
    kl_divergence,
    kl_gradient,
    low_dim_affinities,
    symmetrize_affinities,
)


def oracle_perplexity(row):
    """2^entropy of one affinity row, computed independently."""
    h = -sum(p * math.log2(p) for p in row if p > 0.0)
    return 2.0 ** h


def three_cluster_points(seed=0, per_cluster=10, dim=9):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 10.0, size=(3, dim))
    return np.vstack(
        [center + rng.normal(0.0, 0.3, size=(per_cluster, dim)) for center in centers]
    )


class TestConditionalAffinities:
    def test_two_points(self):
        p = conditional_affinities(np.array([[0.0], [3.0]]), perplexity=1.0)
        assert np.array_equal(p, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_equidistant_rows_uniform(self):
        # simplex corners: all pairs at distance sqrt(2)
        p = conditional_affinities(np.eye(4), perplexity=3.0)
        off = p[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 1.0 / 3.0, atol=1e-9)

    def test_rows_stochastic_zero_diagonal(self):
        rng = np.random.default_rng(1)
        p = conditional_affinities(rng.normal(size=(15, 4)), perplexity=6.0)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.diag(p) == 0.0)

    def test_achieved_perplexity_matches_target(self):
        rng = np.random.default_rng(42)
        points = rng.normal(size=(20, 4))
        p = conditional_affinities(points, perplexity=10.0)
        for i in range(20):
            assert oracle_perplexity(p[i]) == pytest.approx(10.0, abs=1e-5)

    def test_more_ties_than_perplexity_give_the_uniform_limit(self):
        # points 0-3 coincide, so each has 3 tied nearest neighbors and
        # point 4 has 4, against perplexity 2; point 5 has one nearest
        points = np.array([[0.0], [0.0], [0.0], [0.0], [1.0], [3.0]])
        with pytest.warns(UserWarning, match=r"row 0 has 3 tied nearest neighbors"):
            p = conditional_affinities(points, perplexity=2.0)
        assert np.array_equal(p[0], [0.0, 1 / 3, 1 / 3, 1 / 3, 0.0, 0.0])
        assert np.array_equal(p[4], [0.25, 0.25, 0.25, 0.25, 0.0, 0.0])
        assert oracle_perplexity(p[5]) == pytest.approx(2.0, abs=1e-5)

    @pytest.mark.parametrize("seed", [1, 2, 6])
    def test_identical_rows_are_exact_ties(self, seed):
        # rows 5-11 coincide; on these seeds a Gram expansion left them a
        # non-zero distance apart
        points = np.random.default_rng(seed).random((40, 49))
        points[5:12] = points[5]
        assert np.all(squared_pairwise(points)[5:12, 5:12] == 0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            conditional_affinities(points, perplexity=3.0)
        messages = [str(w.message) for w in caught]
        for i in range(5, 12):
            assert (
                f"row {i} has 6 tied nearest neighbors, more than perplexity 3.0; "
                "using the uniform limit over them"
            ) in messages

    def test_near_ties_that_cannot_bracket_still_raise(self):
        # one neighbor at exactly the minimum, three more 1e-300 away: the
        # perplexity stays near 4 for every finite beta the search tries.
        # Rows 0-6 reach perplexity 3 normally.
        row = np.array([0.0, 1e-300, 1e-300, 1e-300, 5.0])
        shifted = np.vstack([np.tile([0.0, 1.0, 2.0, 3.0, 4.0], (7, 1)), row])
        ties = np.count_nonzero(shifted == 0.0, axis=1)
        with pytest.raises(NumericalError, match="failed to bracket perplexity 3.0 at row 7"):
            _bandwidths(shifted, ties, 3.0)

    def test_perplexity_out_of_range(self):
        with pytest.raises(DataError, match="perplexity"):
            conditional_affinities(np.random.default_rng(0).normal(size=(5, 2)), 10.0)


class TestSymmetrize:
    def test_two_points(self):
        p_cond = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = symmetrize_affinities(p_cond)
        assert p[0, 1] == 0.5 and p[1, 0] == 0.5
        assert p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        p_cond = conditional_affinities(rng.normal(size=(12, 3)), perplexity=8.0)
        p = symmetrize_affinities(p_cond)
        assert np.max(np.abs(p - p.T)) == 0.0

    def test_total_mass_one(self):
        # perplexity close to M-1 keeps every entry far above the floor
        rng = np.random.default_rng(4)
        p_cond = conditional_affinities(rng.normal(size=(10, 3)), perplexity=8.0)
        p = symmetrize_affinities(p_cond)
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_floor_applied(self):
        rng = np.random.default_rng(5)
        points = np.vstack([rng.normal(size=(6, 2)), rng.normal(size=(6, 2)) + 500.0])
        p = symmetrize_affinities(conditional_affinities(points, perplexity=3.0))
        off = p[~np.eye(12, dtype=bool)]
        assert off.min() >= P_FLOOR


class TestLowDimAffinities:
    def test_two_points(self):
        q = low_dim_affinities(np.array([[0.0, 0.0], [2.0, 1.0]]))
        assert q[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_three_equidistant(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        q = low_dim_affinities(pts)
        off = q[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1.0 / 6.0, atol=1e-12)

    def test_total_mass_one(self):
        rng = np.random.default_rng(8)
        q = low_dim_affinities(rng.normal(size=(10, 2)))
        assert abs(q.sum() - 1.0) <= 1e-12
        assert q[~np.eye(10, dtype=bool)].min() >= Q_FLOOR


def _random_joint(rng, m):
    a = rng.uniform(0.1, 1.0, size=(m, m))
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, 0.0)
    return a / a.sum()


class TestKlDivergence:
    def test_identity_is_zero(self):
        p = _random_joint(np.random.default_rng(0), 6)
        assert kl_divergence(p, p) == 0.0

    def test_hand_worked_two_points(self):
        p = np.array([[0.0, 0.5], [0.5, 0.0]])
        q = np.array([[0.0, 0.25], [0.75, 0.0]])
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)  # 0.14384...
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-12)
        assert kl_divergence(p, q) == pytest.approx(0.14384, abs=1e-5)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = int(rng.integers(3, 8))
            p, q = _random_joint(rng, m), _random_joint(rng, m)
            assert kl_divergence(p, q) >= -1e-12  # Gibbs inequality

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            kl_divergence(np.zeros((2, 2)), np.zeros((3, 3)))


class TestGradient:
    # kl_gradient accepts any output dimension d; the coordinate scales span
    # the descent's 1e-4-sigma start to spread-out embeddings
    @pytest.mark.parametrize("m, perplexity", [(6, 3.0), (40, 10.0)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_central_finite_differences(self, m, perplexity, d):
        rng = np.random.default_rng(23)
        for scale in (1e-3, 1e-1, 1.0, 1e1, 1e2):
            points = rng.normal(size=(m, 3))
            coords = rng.normal(size=(m, d)) * scale
            p = symmetrize_affinities(conditional_affinities(points, perplexity))
            analytic = kl_gradient(p, coords)
            h = 1e-6 * max(scale, 1.0)  # a smaller step drowns in the KL's rounding
            numeric = np.zeros_like(coords)
            for i in range(m):
                for r in range(d):
                    up, dn = coords.copy(), coords.copy()
                    up[i, r] += h
                    dn[i, r] -= h
                    numeric[i, r] = (
                        kl_divergence(p, low_dim_affinities(up))
                        - kl_divergence(p, low_dim_affinities(dn))
                    ) / (2.0 * h)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic)
            assert rel < 1e-4, (scale, rel)


class TestEmbed:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(size=(50, 25))  # M=50 points, C=5 pair space
        emb = embed(z, 10.0, 50, 3)
        assert emb.shape == (50, 2)
        assert np.all(np.isfinite(emb))

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(size=(20, 9))
        a = embed(z, 6.0, 80, 11)
        b = embed(z, 6.0, 80, 11)
        assert np.array_equal(a, b)

    def test_kl_decreases_on_clustered_input(self):
        z = three_cluster_points(seed=5)
        rng = np.random.default_rng(2)
        init = rng.normal(0.0, 1e-4, size=(z.shape[0], 2))
        p = symmetrize_affinities(conditional_affinities(z, 8.0))
        kl_initial = kl_divergence(p, low_dim_affinities(init))
        emb = embed(z, 8.0, 300, 2, initial_coords=init)
        kl_final = kl_divergence(p, low_dim_affinities(emb))
        assert kl_final < kl_initial

    def test_permutation_equivariance_of_distances(self):
        rng = np.random.default_rng(31)
        z = rng.normal(size=(12, 5))
        init = rng.normal(0.0, 1e-4, size=(12, 2))
        base = embed(z, 5.0, 25, 0, initial_coords=init)
        perm = rng.permutation(12)
        permuted = embed(z[perm], 5.0, 25, 0, initial_coords=init[perm])

        def dists(c):
            return np.linalg.norm(c[:, None, :] - c[None, :, :], axis=2)

        assert np.allclose(dists(permuted), dists(base)[np.ix_(perm, perm)], atol=1e-8)

    def test_rejects_tiny_inputs(self):
        with pytest.raises(DataError):
            embed(np.zeros((2, 3)), 1.0, 5, 0)

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_negative_or_non_finite_perplexity(self, value):
        with pytest.raises(DataError, match="perplexity"):
            embed(np.eye(6), value, 5, 0)

    @pytest.mark.parametrize(
        "iterations, seed",
        [(0, 0), (2.5, 0), (True, 0), (5, -1), (5, 1.5), (5, None)],
    )
    def test_rejects_counts_that_are_not_integers_in_range(self, iterations, seed):
        with pytest.raises(DataError, match="iterations" if seed == 0 else "seed"):
            embed(np.eye(6), 3.0, iterations, seed)


def _kl_to(z, perplexity):
    """KL(P || Q) of given coordinates, P the affinities of z's rows."""
    p = symmetrize_affinities(conditional_affinities(z, perplexity))
    return lambda coords: kl_divergence(p, low_dim_affinities(coords))


class TestConvergence:
    def test_criterion_3_case_descends_from_perturbed_starts(self):
        # acceptance criterion 3's case; a start 1e-15 away in relative
        # terms must not decide whether the descent lowers the KL
        d, _ = redundant_groups(90, 3, [10, 10, 10], strengths=[2.0] * 3, noise=0.3, seed=33)
        z = build_feature_space(minmax_normalize(d))
        init = np.random.default_rng(4).normal(0.0, 1e-4, size=(len(z), 2))
        kl = _kl_to(z, 8.0)
        starts = [init * (1.0 + k * 1e-15) for k in range(20)]
        ends = [kl(embed(z, 8.0, 300, 4, initial_coords=start)) for start in starts]
        assert max(ends) < kl(init), ends

    @pytest.mark.parametrize(
        "shape, options, perplexity, bound",
        [
            ((400, 10, [8, 8, 7]), dict(strengths=[1.5] * 3, noise=0.45, seed=5), 10.0, 0.01),
            ((300, 12, [34] * 6), {}, 30.0, 0.05),
        ],
        ids=["M23", "M204"],
    )
    def test_500_iterations_converge_at_small_and_large_m(self, shape, options, perplexity, bound):
        # 500 is SelectionConfig's default iteration count
        d, _ = redundant_groups(*shape, **options)
        z = build_feature_space(minmax_normalize(d))
        kl = _kl_to(z, perplexity)
        ends = [kl(embed(z, perplexity, 500, seed)) for seed in (1, 2, 3)]
        assert max(ends) <= bound, ends

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_descent_stops_at_its_fixed_point(self, seed):
        # the M23 case settles long before 500 iterations, so a larger
        # cap must not take another step
        d, _ = redundant_groups(400, 10, [8, 8, 7], strengths=[1.5] * 3, noise=0.45, seed=5)
        z = build_feature_space(minmax_normalize(d))
        assert embed(z, 10.0, 500, seed).tobytes() == embed(z, 10.0, 2000, seed).tobytes()
