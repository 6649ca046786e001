import math

import numpy as np
import pytest

from _datasets import redundant_groups
from sepselect.dataio import Dataset, minmax_normalize
from sepselect.distances import squared_pairwise
from sepselect.errors import DataError
from sepselect.pipeline import validation_mss
from sepselect.separability import (
    VAR_FLOOR,
    build_feature_space,
    class_stats,
    pair_column_names,
)
from sepselect.tsne import conditional_affinities


def _dataset(columns, labels):
    x = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    class_ids = list(dict.fromkeys(labels))
    return Dataset(x, np.array(labels, dtype=object), [f"f{i}" for i in range(x.shape[1])], class_ids)


def _jm(d, feature):
    """One feature's JM distance of classes 0 and 1: its first pair column."""
    return build_feature_space(d)[feature, 0]


def oracle_bhattacharyya(mu1, mu2, v1, v2):
    """Scalar evaluation of the two-Gaussian distance, independent of numpy."""
    return (mu1 - mu2) ** 2 / (4.0 * (v1 + v2)) + 0.5 * math.log(
        (v1 + v2) / (2.0 * math.sqrt(v1 * v2))
    )


def oracle_jm(mu1, mu2, v1, v2):
    return 2.0 * (1.0 - math.exp(-oracle_bhattacharyya(mu1, mu2, v1, v2)))


class TestClassStats:
    def test_two_point_class(self):
        d = _dataset([[0, 2, 9, 9], [1, 1, 1, 1]], ["a", "a", "b", "b"])
        mean, variance = class_stats(d)
        assert mean[0, 0] == 1.0
        assert variance[0, 0] == 1.0

    def test_singleton_class_gets_floor(self):
        d = _dataset([[5, 1, 2], [0, 1, 2]], ["a", "b", "b"])
        mean, variance = class_stats(d)
        assert mean[0, 0] == 5.0
        assert variance[0, 0] == VAR_FLOOR

    def test_identical_samples_get_floor(self):
        d = _dataset([[3, 3, 3, 3], [0, 0, 1, 1]], ["a", "a", "b", "b"])
        _, variance = class_stats(d)
        assert np.all(variance[0] == VAR_FLOOR)

    def test_empty_class_rejected(self):
        d = _dataset([[1, 2], [3, 4]], ["a", "b"])
        d.class_ids.append("ghost")
        with pytest.raises(DataError, match="ghost"):
            class_stats(d)


class TestJmMatrix:
    def test_identical_distributions_zero(self):
        d = _dataset([[0, 2, 0, 2], [5, 5, 5, 5]], ["a", "a", "b", "b"])
        assert _jm(d, 0) == 0.0  # same mean 1, same variance 1

    def test_hand_worked_unit_gap(self):
        # classes with mean 0 and 1, variance 1 each: B = 0.125
        d = _dataset([[-1, 1, 0, 2], [0, 0, 1, 1]], ["a", "a", "b", "b"])
        jm = _jm(d, 0)
        expected = oracle_jm(0.0, 1.0, 1.0, 1.0)  # = 0.23500619484968...
        assert jm == pytest.approx(expected, abs=1e-12)
        assert jm == pytest.approx(0.2350061948, abs=1e-9)

    def test_saturates_below_two(self):
        # B = 12^2 / 8 = 18: far apart but exp(-B) still representable
        d = _dataset([[-1, 1, 11, 13], [0, 1, 0, 1]], ["a", "a", "b", "b"])
        jm = _jm(d, 0)
        assert jm > 1.9999999
        assert jm < 2.0
        # beyond float range exp(-B) underflows and the bound closes at 2.0
        d_far = _dataset([[0, 0, 1e6, 1e6], [0, 1, 0, 1]], ["a", "a", "b", "b"])
        assert _jm(d_far, 0) <= 2.0

    def test_range(self):
        rng = np.random.default_rng(11)
        labels = [f"c{i % 3}" for i in range(30)]
        z = build_feature_space(_dataset([rng.normal(size=30) for _ in range(4)], labels))
        assert np.all(z >= 0.0)
        assert np.all(z < 2.0)

    def test_monotone_in_mean_gap(self):
        values = []
        for gap in [0.1, 0.5, 1.0, 2.0, 5.0]:
            values.append(oracle_jm(0.0, gap, 1.0, 1.0))
        assert all(a < b for a, b in zip(values, values[1:]))
        # implementation agrees with the oracle on the same grid
        for gap, expected in zip([0.1, 0.5, 1.0, 2.0, 5.0], values):
            d = _dataset(
                [[-1, 1, gap - 1, gap + 1], [0, 0, 1, 1]], ["a", "a", "b", "b"]
            )
            assert _jm(d, 0) == pytest.approx(expected, rel=1e-12)

    def test_joint_scaling_invariance(self):
        rng = np.random.default_rng(5)
        cols = [rng.normal(size=40) for _ in range(3)]
        labels = [f"c{i % 2}" for i in range(40)]
        base = build_feature_space(_dataset(cols, labels))
        scaled = build_feature_space(_dataset([7.3 * c for c in cols], labels))
        assert np.allclose(base, scaled, rtol=1e-9, atol=1e-12)


class TestFeatureSpace:
    @pytest.mark.parametrize("n_classes", [2, 3, 4, 5])
    def test_one_column_per_class_pair(self, n_classes):
        # column (c, c~) of row f is the oracle's JM of feature f's classes
        # c and c~, for every pair c < c~ in row-major order
        rng = np.random.default_rng(n_classes)
        labels = [f"k{i % n_classes}" for i in range(6 * n_classes)]
        cols = [rng.normal(size=len(labels)) for _ in range(3)]
        d = _dataset(cols, labels)
        z = build_feature_space(d)
        pairs = [(a, b) for a in range(n_classes) for b in range(a + 1, n_classes)]
        assert z.shape == (3, len(pairs)) == (3, n_classes * (n_classes - 1) // 2)
        codes = d.label_codes()
        for f, col in enumerate(cols):
            for j, (a, b) in enumerate(pairs):
                xa, xb = col[codes == a], col[codes == b]
                expected = oracle_jm(xa.mean(), xb.mean(), xa.var(), xb.var())
                assert z[f, j] == pytest.approx(expected, rel=1e-12, abs=1e-15)
        names = pair_column_names(d.class_ids)
        assert names == [f"pair_{d.class_ids[a]}_{d.class_ids[b]}" for a, b in pairs]

    def test_duplicate_features_give_identical_rows(self):
        rng = np.random.default_rng(9)
        col = rng.normal(size=20)
        labels = ["a", "b"] * 10
        d = _dataset([col, col.copy(), rng.normal(size=20)], labels)
        z = build_feature_space(d)
        assert np.array_equal(z[0], z[1])

    def test_constant_feature_row_is_zero(self):
        d = _dataset([[4, 4, 4, 4], [0, 1, 2, 3]], ["a", "b", "a", "b"])
        z = build_feature_space(d)
        assert np.all(z[0] == 0.0)

    def test_pair_column_names(self):
        assert pair_column_names(["a", "b"]) == ["pair_a_b"]
        assert pair_column_names(["x", "y", "z"]) == ["pair_x_y", "pair_x_z", "pair_y_z"]


class TestPairColumnsMoveOnlyRounding:
    """The whole C x C JM matrix per feature holds each pair's column twice
    and C zero columns, so in real arithmetic it doubles every squared
    distance between feature rows. The bandwidth bisection absorbs that
    scale, and the validity index is a ratio of distances: keeping one
    column per pair moves the later stages by rounding only."""

    def test_full_matrix_rows_give_the_same_affinities_and_validity(self):
        d, _ = redundant_groups(
            n_instances=150,
            n_classes=5,
            group_sizes=[4, 3, 3, 2, 2],
            strengths=[2.0, 2.0, 1.5, 1.0, 1.0],
            noise=0.4,
            seed=6,
        )
        data = minmax_normalize(d)
        z = build_feature_space(data)
        m, c = len(z), data.n_classes
        a, b = np.triu_indices(c, 1)
        full = np.zeros((m, c, c))
        full[:, a, b] = z
        full[:, b, a] = z
        full = full.reshape(m, c * c)

        d2, d2_full = squared_pairwise(z), squared_pairwise(full)
        np.testing.assert_allclose(d2_full, 2.0 * d2, rtol=1e-12, atol=0.0)
        p, p_full = conditional_affinities(z, 4.0), conditional_affinities(full, 4.0)
        np.testing.assert_allclose(p_full, p, rtol=0.0, atol=1e-12)
        rng = np.random.default_rng(8)
        for k in (2, 3, 5, 8):
            medoids = rng.choice(m, size=k, replace=False)
            value = validation_mss(np.sqrt(d2), medoids)
            assert validation_mss(np.sqrt(d2_full), medoids) == pytest.approx(value, rel=1e-12)
