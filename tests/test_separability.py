import math

import numpy as np
import pytest

from sepselect.dataio import Dataset
from sepselect.errors import DataError
from sepselect.separability import (
    VAR_FLOOR,
    build_feature_space,
    class_stats,
    pair_column_names,
)


def _dataset(columns, labels):
    x = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    class_ids = list(dict.fromkeys(labels))
    return Dataset(x, np.array(labels, dtype=object), [f"f{i}" for i in range(x.shape[1])], class_ids)


def _jm(d, feature):
    """One feature's C x C JM matrix: its feature-space row, reshaped."""
    return build_feature_space(d)[feature].reshape(d.n_classes, d.n_classes)


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
        jm = _jm(d, 0)
        assert jm[0, 1] == 0.0  # same mean 1, same variance 1

    def test_hand_worked_unit_gap(self):
        # classes with mean 0 and 1, variance 1 each: B = 0.125
        d = _dataset([[-1, 1, 0, 2], [0, 0, 1, 1]], ["a", "a", "b", "b"])
        jm = _jm(d, 0)
        expected = oracle_jm(0.0, 1.0, 1.0, 1.0)  # = 0.23500619484968...
        assert jm[0, 1] == pytest.approx(expected, abs=1e-12)
        assert jm[0, 1] == pytest.approx(0.2350061948, abs=1e-9)

    def test_saturates_below_two(self):
        # B = 12^2 / 8 = 18: far apart but exp(-B) still representable
        d = _dataset([[-1, 1, 11, 13], [0, 1, 0, 1]], ["a", "a", "b", "b"])
        jm = _jm(d, 0)
        assert jm[0, 1] > 1.9999999
        assert jm[0, 1] < 2.0
        # beyond float range exp(-B) underflows and the bound closes at 2.0
        d_far = _dataset([[0, 0, 1e6, 1e6], [0, 1, 0, 1]], ["a", "a", "b", "b"])
        assert _jm(d_far, 0)[0, 1] <= 2.0

    def test_symmetry_zero_diagonal_and_range(self):
        rng = np.random.default_rng(11)
        labels = [f"c{i % 3}" for i in range(30)]
        d = _dataset([rng.normal(size=30) for _ in range(4)], labels)
        for f in range(4):
            jm = _jm(d, f)
            assert np.array_equal(jm, jm.T)
            assert np.all(np.diag(jm) == 0.0)
            assert np.all(jm >= 0.0)
            assert np.all(jm < 2.0)

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
            jm = _jm(d, 0)
            assert jm[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_joint_scaling_invariance(self):
        rng = np.random.default_rng(5)
        cols = [rng.normal(size=40) for _ in range(3)]
        labels = [f"c{i % 2}" for i in range(40)]
        base = build_feature_space(_dataset(cols, labels))
        scaled = build_feature_space(_dataset([7.3 * c for c in cols], labels))
        assert np.allclose(base, scaled, rtol=1e-9, atol=1e-12)


class TestFeatureSpace:
    def test_shape_and_diagonal_columns(self):
        d = _dataset(
            [[0, 1, 2, 3], [5, 2, 8, 1], [1, 1, 1, 1]], ["a", "b", "a", "b"]
        )
        z = build_feature_space(d)
        assert z.shape == (3, 4)
        assert np.all(z[:, 0] == 0.0)  # pair (a, a)
        assert np.all(z[:, 3] == 0.0)  # pair (b, b)

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
        assert pair_column_names(["a", "b"]) == [
            "pair_a_a",
            "pair_a_b",
            "pair_b_a",
            "pair_b_b",
        ]
