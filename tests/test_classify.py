from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepselect import classify, distances
from sepselect.classify import (
    _majority,
    accuracy,
    balanced_f,
    evaluate,
    knn_predict,
)
from sepselect.dataio import Dataset
from sepselect.distances import difference_sums
from sepselect.errors import DataError


def _dataset(columns, labels, class_ids=None):
    x = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    if class_ids is None:
        class_ids = list(dict.fromkeys(labels))
    return Dataset(x, np.array(labels, dtype=object), [f"f{i}" for i in range(x.shape[1])], class_ids)


def _pair(train_cols, train_labels, test_cols, test_labels):
    classes = list(dict.fromkeys(list(train_labels) + list(test_labels)))
    return (
        _dataset(train_cols, train_labels, classes),
        _dataset(test_cols, test_labels, classes),
    )


class TestKnnPredict:
    def test_exact_match_with_one_neighbor(self):
        train, test = _pair(
            [[0, 1, 10], [0, 0, 0]], ["a", "a", "b"],
            [[1, 1], [0, 0]], ["a", "a"],
        )
        preds = knn_predict(train, test, [0, 1], n_neighbors=1)
        assert preds[0] == "a"

    def test_nearest_point_wins(self):
        train, test = _pair(
            [[0, 1, 10], [0, 0, 0]], ["a", "a", "b"],
            [[9, 9], [0, 0]], ["b", "b"],
        )
        preds = knn_predict(train, test, [0], n_neighbors=1)
        assert preds[0] == "b"

    def test_majority_overrides_nearest(self):
        # distances from 9: {1 (b), 8 (a), 9 (a)} -> majority a
        train, test = _pair(
            [[0, 1, 10], [0, 0, 0]], ["a", "a", "b"],
            [[9, 9], [0, 0]], ["a", "a"],
        )
        preds = knn_predict(train, test, [0], n_neighbors=3)
        assert preds[0] == "a"

    def test_distance_tie_breaks_by_lower_train_index(self):
        train, test = _pair(
            [[1, -1, 5], [0, 0, 0]], ["a", "b", "b"],
            [[0, 0], [0, 0]], ["a", "a"],
        )
        # rows 0 and 1 both at distance 1: row 0 wins the single slot
        preds = knn_predict(train, test, [0], n_neighbors=1)
        assert preds[0] == "a"

    def test_vote_tie_breaks_by_earliest_neighbor(self):
        # neighbors by distance: b (1.0), a (1.5), a (2.0), b (2.5):
        # counts tie 2-2, b appears first in the list
        train, test = _pair(
            [[1.0, -1.5, 2.0, -2.5], [0, 0, 0, 0]], ["b", "a", "a", "b"],
            [[0, 0], [0, 0]], ["b", "b"],
        )
        preds = knn_predict(train, test, [0], n_neighbors=4)
        assert preds[0] == "b"

    def test_row_permutation_invariance_without_ties(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 3))
        labels = np.array([f"c{i % 3}" for i in range(30)], dtype=object)
        train = Dataset(x, labels, ["f0", "f1", "f2"], ["c0", "c1", "c2"])
        test = _dataset([rng.normal(size=8), rng.normal(size=8), rng.normal(size=8)],
                        [f"c{i % 2}" for i in range(8)])
        base = knn_predict(train, test, [0, 1, 2], n_neighbors=5)
        perm = rng.permutation(30)
        shuffled = Dataset(x[perm], labels[perm], ["f0", "f1", "f2"], ["c0", "c1", "c2"])
        assert np.array_equal(knn_predict(shuffled, test, [0, 1, 2], n_neighbors=5), base)

    def test_empty_subset_rejected(self):
        train, test = _pair([[0, 1], [0, 0]], ["a", "b"], [[0, 0], [0, 0]], ["a", "a"])
        with pytest.raises(DataError, match="empty"):
            knn_predict(train, test, [], n_neighbors=1)

    def test_neighbor_count_bounds(self):
        train, test = _pair([[0, 1], [0, 0]], ["a", "b"], [[0, 0], [0, 0]], ["a", "a"])
        with pytest.raises(DataError):
            knn_predict(train, test, [0], n_neighbors=3)


def oracle_knn(train, test, subset, n_neighbors):
    """The per-row loop of knn_predict before it computed blocks of rows,
    with each row's squared distances added one subset column at a time in
    subset order; also returns those distances (test oracle)."""
    a = train.instances[:, subset]
    b = test.instances[:, subset]
    labels = train.labels
    preds, dists = [], []
    for row in b:
        d2 = np.zeros(len(a))
        for j in range(a.shape[1]):
            d2 += (a[:, j] - row[j]) ** 2
        order = np.argsort(d2, kind="stable")[:n_neighbors]
        preds.append(_majority(labels[order]))
        dists.append(d2)
    return np.array(preds, dtype=object), dists


@st.composite
def knn_problems(draw):
    """Train/test pairs with many distance ties: integer grids, duplicate
    train rows, test rows copied from train rows, constant columns, unequal
    classes, and train rows that hold one vector's values in other orders,
    whose distances to the origin tie in exact arithmetic but round apart
    differently in each summation order."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, 4, size=(n, m)).astype(float) if draw(st.booleans()) else rng.random((n, m))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=8)):
        x[i] = rng.permutation(x[0])
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
        x[i] = x[j]
    for j in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        x[:, j] = 0.5
    codes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    class_ids = ["a", "b", "c"]
    train = Dataset(x, np.array([class_ids[c] for c in codes], dtype=object),
                    [f"f{j}" for j in range(m)], class_ids)
    n_test = draw(st.integers(2, 30))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=n_test, max_size=n_test))
    shift = draw(st.sampled_from([0.0, 1.0, 0.25]))
    t = x[rows] + shift * (np.arange(n_test) % 2)[:, None]
    t[0] = 0.0
    test = Dataset(t, np.array(["a"] * n_test, dtype=object), train.feature_names, class_ids)
    subset = draw(st.one_of(
        st.permutations(range(m)),
        st.lists(st.integers(0, m - 1), min_size=1, max_size=m + 2),
    ))
    return train, test, list(subset), draw(st.integers(1, n))


class TestKnnAgainstRowLoop:
    @settings(max_examples=300, deadline=None)
    @given(problem=knn_problems())
    def test_bitwise_equal_to_row_loop(self, problem):
        train, test, subset, k = problem
        expected, dists = oracle_knn(train, test, subset, k)
        assert np.array_equal(knn_predict(train, test, subset, k), expected)
        a, b = train.instances[:, subset], test.instances[:, subset]
        assert np.array_equal(difference_sums(b, a, np.square), np.vstack(dists))

    @pytest.mark.parametrize("block_bytes", [1, 10**12])
    def test_block_size_does_not_change_results(self, block_bytes, monkeypatch):
        # one test row per block, then every test row in one block
        rng = np.random.default_rng(2)
        x = rng.integers(0, 4, size=(300, 9)).astype(float)
        labels = np.array(["a", "b", "c"], dtype=object)[rng.integers(0, 3, 300)]
        d = Dataset(x, labels, [f"f{j}" for j in range(9)], ["a", "b", "c"])
        train, test = d.select_rows(range(200)), d.select_rows(range(200, 300))
        subset = [0, 2, 3, 5, 6, 7, 8, 1]
        base = knn_predict(train, test, subset, 7)
        a, b = train.instances[:, subset], test.instances[:, subset]
        base_d2 = difference_sums(b, a, np.square)
        monkeypatch.setattr(distances, "_BLOCK_BYTES", block_bytes)
        with mock.patch.object(classify, "difference_sums", wraps=difference_sums) as writer:
            got = knn_predict(train, test, subset, 7)
        assert writer.call_count == (100 if block_bytes == 1 else 1)
        assert np.array_equal(difference_sums(b, a, np.square), base_d2)
        assert np.array_equal(got, base)
        assert np.array_equal(base, oracle_knn(train, test, subset, 7)[0])


class TestMetrics:
    def test_accuracy_trivial_cases(self):
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0
        assert accuracy(["b", "a"], ["a", "b"]) == 0.0
        assert accuracy(["a", "a", "b", "b"], ["a", "a", "b", "a"]) == 0.75

    def test_accuracy_length_mismatch(self):
        with pytest.raises(DataError):
            accuracy(["a"], ["a", "b"])

    def test_balanced_f_perfect(self):
        assert balanced_f(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_balanced_f_hand_worked(self):
        # A fully correct, B fully wrong (predicted A):
        # F1_A = 2*(1/2)*1 / (3/2) = 2/3, F1_B = 0 -> macro 1/3
        value = balanced_f(["a", "a", "a", "a"], ["a", "a", "b", "b"])
        assert value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_balanced_f_single_class(self):
        assert balanced_f(["a", "a"], ["a", "a"]) == 1.0

    def test_metrics_in_unit_interval(self):
        rng = np.random.default_rng(5)
        labs = np.array(["a", "b", "c"], dtype=object)
        for _ in range(20):
            pred = labs[rng.integers(0, 3, 12)]
            truth = labs[rng.integers(0, 3, 12)]
            assert 0.0 <= accuracy(pred, truth) <= 1.0
            assert 0.0 <= balanced_f(pred, truth) <= 1.0

    def test_both_metrics_one_iff_exact(self):
        rng = np.random.default_rng(6)
        labs = np.array(["a", "b"], dtype=object)
        for _ in range(20):
            pred = labs[rng.integers(0, 2, 10)]
            truth = labs[rng.integers(0, 2, 10)]
            exact = bool(np.all(pred == truth))
            assert (accuracy(pred, truth) == 1.0) == exact
            assert (balanced_f(pred, truth) == 1.0) == exact


class TestEvaluate:
    def _sets(self):
        rng = np.random.default_rng(1)
        codes = np.array([0, 1] * 30)
        cols = [codes + rng.normal(0, 0.3, 60), rng.normal(size=60), codes + rng.normal(0, 0.5, 60)]
        d = _dataset(cols, [f"c{c}" for c in codes])
        train = d.select_rows(range(40))
        test = d.select_rows(range(40, 60))
        return train, test

    def test_report_consistent_with_direct_metrics(self):
        train, test = self._sets()
        report = evaluate(train, test, [0, 2], n_neighbors=3)
        assert report.accuracy == accuracy(report.predictions, test.labels)
        assert report.balanced_f == balanced_f(report.predictions, test.labels)
        assert report.subset == [0, 2]

    def test_full_subset_is_identity_baseline(self):
        train, test = self._sets()
        full = evaluate(train, test, range(train.n_features), n_neighbors=3)
        assert full.accuracy == accuracy(full.predictions, test.labels)
        assert len(full.subset) == train.n_features

    def test_timing_strictly_positive(self):
        train, test = self._sets()
        report = evaluate(train, test, [0], n_neighbors=1)
        assert report.predict_time > 0.0
