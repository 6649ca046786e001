import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepselect import distances
from sepselect.baselines import cfs_select, fisher_scores, random_select, relieff_weights
from sepselect.dataio import Dataset
from sepselect.errors import DataError


def _dataset(columns, labels):
    x = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    class_ids = list(dict.fromkeys(labels))
    return Dataset(x, np.array(labels, dtype=object), [f"f{i}" for i in range(x.shape[1])], class_ids)


class TestFisher:
    def test_hand_worked(self):
        # class a: {0, 1}, class b: {2, 3} -> (2*1 + 2*1) / (2*0.25 + 2*0.25) = 4
        d = _dataset([[0, 1, 2, 3], [5, 5, 5, 5]], ["a", "a", "b", "b"])
        ranked = fisher_scores(d)
        assert ranked.scores[0] == pytest.approx(4.0, abs=1e-12)

    def test_constant_feature_scores_zero(self):
        d = _dataset([[7, 7, 7, 7], [0, 1, 2, 3]], ["a", "a", "b", "b"])
        assert fisher_scores(d).scores[0] == 0.0

    def test_scale_invariant(self):
        rng = np.random.default_rng(0)
        col = rng.normal(size=30)
        labels = ["a", "b"] * 15
        base = fisher_scores(_dataset([col, rng.normal(size=30)], labels)).scores[0]
        scaled = fisher_scores(_dataset([11.0 * col, rng.normal(size=30)], labels)).scores[0]
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_order_breaks_ties_by_index(self):
        d = _dataset([[0, 1, 2, 3], [0, 1, 2, 3], [1, 1, 1, 1]], ["a", "a", "b", "b"])
        ranked = fisher_scores(d)
        assert ranked.order.tolist() == [0, 1, 2]

    def test_class_without_rows_is_data_error(self):
        # select_rows keeps every class id, so a class can have no rows
        d = _dataset([[0, 1, 2, 3], [1, 0, 3, 2]], ["a", "a", "b", "b"]).select_rows([0, 1])
        with pytest.raises(DataError, match="class 'b' has no samples"):
            fisher_scores(d)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(4)
        cols = [rng.normal(size=40) + (rng.uniform() * (np.arange(40) % 2)) for _ in range(5)]
        labels = ["a", "b"] * 20
        base = fisher_scores(_dataset(cols, labels)).scores
        perm = [3, 1, 4, 0, 2]
        permuted = fisher_scores(_dataset([cols[j] for j in perm], labels)).scores
        assert np.allclose(permuted, base[perm], rtol=1e-12)


def oracle_relieff(x, codes, n_classes, neighbors, picks):
    """Literal-definition ReliefF with explicit loops (test oracle)."""
    n, m = x.shape
    ranges = x.max(axis=0) - x.min(axis=0)
    counts = np.bincount(codes, minlength=n_classes)
    priors = counts / n

    def diff(f, a, b):
        if ranges[f] == 0.0:
            return 0.0
        return abs(x[a, f] - x[b, f]) / ranges[f]

    def dist(a, b):
        return sum(diff(f, a, b) for f in range(m))

    w = np.zeros(m)
    for a in picks:
        order = sorted(range(n), key=lambda j: (dist(a, j), j))
        y = codes[a]
        hits = [j for j in order if codes[j] == y and j != a][:neighbors]
        for f in range(m):
            for h in hits:
                w[f] -= diff(f, a, h) / (len(picks) * neighbors)
        for c in range(n_classes):
            if c == y:
                continue
            misses = [j for j in order if codes[j] == c][:neighbors]
            for f in range(m):
                for j in misses:
                    w[f] += (priors[c] / (1.0 - priors[y])) * diff(f, a, j) / (
                        len(picks) * neighbors
                    )
    return w


def oracle_relieff_loop(d, neighbors, seed):
    """relieff_weights as it was before one selection served every class:
    the per-pick argsort and per-class loop, verbatim (test oracle)."""
    codes = d.label_codes()
    x = d.instances
    n, m = x.shape
    counts = np.bincount(codes, minlength=d.n_classes)
    ranges = x.max(axis=0) - x.min(axis=0)
    xn = x / np.where(ranges > 0.0, ranges, 1.0)
    xn[:, ranges == 0.0] = 0.0  # constant features contribute no differences

    priors = counts / n
    rng = np.random.default_rng(seed)
    picks = rng.choice(n, size=n, replace=False)

    weights = np.zeros(m)
    scale = 1.0 / (n * neighbors)
    for a in picks:
        diffs = np.abs(xn - xn[a])
        dvec = np.zeros(n)  # the features' differences added in index order
        for j in range(m):
            dvec += diffs[:, j]
        order = np.argsort(dvec, kind="stable")  # distance ties: lower index
        ocodes = codes[order]
        y = codes[a]
        hits = order[(ocodes == y) & (order != a)][:neighbors]
        weights -= diffs[hits].sum(axis=0) * scale
        for c in range(d.n_classes):
            if c == y:
                continue
            misses = order[ocodes == c][:neighbors]
            weights += (priors[c] / (1.0 - priors[y])) * diffs[misses].sum(axis=0) * scale
    return weights


@st.composite
def relieff_problems(draw):
    """Datasets with many distance ties (integer grids, duplicate rows,
    constant columns) and unequal classes, each larger than neighbors.
    Rows that hold one vector's values in other orders, next to a row of
    zeros and a row of ones, tie in exact arithmetic in their distance to
    the zero row but round apart differently in each summation order."""
    neighbors = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(neighbors + 1, neighbors + 12), min_size=2, max_size=4))
    n = sum(sizes)
    m = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.integers(0, 3, size=(n, m)).astype(float)
    else:
        x = rng.random((n, m))
        x[0], x[1] = 0.0, 1.0
        for i in draw(st.lists(st.integers(2, n - 1), max_size=12)):
            x[i] = rng.permutation(x[2])
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
        x[i] = x[j]
    for j in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        x[:, j] = 1.5
    class_ids = [f"c{c}" for c in range(len(sizes))]
    labels = np.repeat(np.array(class_ids, dtype=object), sizes)
    labels = labels[draw(st.permutations(range(n)))]
    d = Dataset(x, labels, [f"f{j}" for j in range(m)], class_ids)
    return d, neighbors, draw(st.integers(0, 2**32 - 1))


@st.composite
def multi_block_problems(draw):
    """5-6 classes, one of which holds most rows, and 16-24 features:
    sums of 8 or more terms, and distance ties between rows that land in
    different row blocks once a block holds one or a few rows. Ties come
    from integer grids, from copies of one row spread over the classes,
    and from rows that hold one vector's values in other orders."""
    neighbors = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(neighbors + 1, neighbors + 8), min_size=5, max_size=6))
    sizes[draw(st.integers(0, len(sizes) - 1))] += draw(st.integers(40, 90))
    n = sum(sizes)
    m = draw(st.integers(16, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.integers(0, 3, size=(n, m)).astype(float)
    else:
        x = rng.random((n, m))
        x[0], x[1] = 0.0, 1.0
        for i in rng.choice(np.arange(2, n), size=n // 4, replace=False):
            x[i] = rng.permutation(x[2])
    for i in rng.choice(n, size=draw(st.integers(0, 10)), replace=False):
        x[i] = x[n - 1]
    class_ids = [f"c{c}" for c in range(len(sizes))]
    labels = np.repeat(np.array(class_ids, dtype=object), sizes)
    labels = labels[rng.permutation(n)]
    d = Dataset(x, labels, [f"f{j}" for j in range(m)], class_ids)
    return d, neighbors, draw(st.integers(0, 2**32 - 1))


class TestRelieff:
    @settings(max_examples=300, deadline=None)
    @given(problem=relieff_problems())
    def test_bitwise_equal_to_pick_loop(self, problem):
        d, neighbors, seed = problem
        got = relieff_weights(d, neighbors=neighbors, seed=seed)
        expected = oracle_relieff_loop(d, neighbors, seed)
        assert np.array_equal(got.scores, expected)

    @pytest.mark.parametrize("block_rows", [1, 3, 7])
    @settings(max_examples=40, deadline=None)
    @given(problem=multi_block_problems())
    def test_bitwise_equal_to_pick_loop_over_many_blocks(self, block_rows, problem):
        # distance blocks of block_rows rows against the largest class (more
        # against smaller ones), so every pair with it spans several blocks
        # and merges its other-class lists over them; one byte per block
        # also makes one-row blocks everywhere and walks the picks one by one
        d, neighbors, seed = problem
        largest = np.bincount(d.label_codes()).max()
        block_bytes = 1 if block_rows == 1 else block_rows * largest * 8
        expected = oracle_relieff_loop(d, neighbors, seed)
        with mock.patch.object(distances, "_BLOCK_BYTES", block_bytes):
            got = relieff_weights(d, neighbors=neighbors, seed=seed)
        assert np.array_equal(got.scores, expected)

    def test_peak_memory_grows_linearly_in_the_rows(self):
        # two classes: an (|c1|, |c2|) distance array would grow 4x when
        # the rows double, and make the peak grow more than 2.5x
        def peak(n):
            rng = np.random.default_rng(n)
            d = _dataset(list(rng.random((6, n))), ["a", "b"] * (n // 2))
            relieff_weights(d, neighbors=10, seed=0)  # warm-up: lazily imported helpers
            tracemalloc.start()
            try:
                relieff_weights(d, neighbors=10, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2000) < 2.5 * peak(1000)

    def _six_instance(self):
        # feature 0 separates the classes perfectly; feature 1 is noise;
        # feature 2 is constant
        cols = [
            [0.0, 0.1, 0.05, 1.0, 0.9, 0.95],
            [0.3, 0.8, 0.1, 0.6, 0.2, 0.9],
            [2.0, 2.0, 2.0, 2.0, 2.0, 2.0],
        ]
        return _dataset(cols, ["a", "a", "a", "b", "b", "b"])

    def test_matches_literal_oracle(self):
        d = self._six_instance()
        ranked = relieff_weights(d, neighbors=2, seed=5)
        rng = np.random.default_rng(5)
        picks = rng.choice(6, size=6, replace=False)
        expected = oracle_relieff(d.instances, d.label_codes(), 2, 2, picks)
        assert np.allclose(ranked.scores, expected, atol=1e-12)

    def test_separating_feature_wins(self):
        ranked = relieff_weights(self._six_instance(), neighbors=2, seed=0)
        assert ranked.order[0] == 0
        assert ranked.scores[0] == ranked.scores.max()

    def test_constant_feature_weight_zero(self):
        ranked = relieff_weights(self._six_instance(), neighbors=2, seed=0)
        assert ranked.scores[2] == 0.0

    def test_scale_invariant(self):
        d = self._six_instance()
        scaled = Dataset(
            d.instances * np.array([100.0, 0.01, 1.0]),
            d.labels,
            d.feature_names,
            d.class_ids,
        )
        a = relieff_weights(d, neighbors=2, seed=3).scores
        b = relieff_weights(scaled, neighbors=2, seed=3).scores
        assert np.allclose(a, b, atol=1e-12)

    def test_small_class_rejected(self):
        d = _dataset([[0, 1, 2, 3], [1, 2, 3, 4]], ["a", "a", "a", "b"])
        with pytest.raises(DataError, match="more than"):
            relieff_weights(d, neighbors=2)

    def test_deterministic(self):
        d = self._six_instance()
        a = relieff_weights(d, neighbors=2, seed=9).scores
        b = relieff_weights(d, neighbors=2, seed=9).scores
        assert np.array_equal(a, b)


class TestCfs:
    def test_first_pick_is_best_label_correlate(self):
        rng = np.random.default_rng(1)
        codes = np.array([0, 1] * 20)
        strong = codes + rng.normal(0.0, 0.1, 40)
        weak = codes + rng.normal(0.0, 2.0, 40)
        noise = rng.normal(size=40)
        d = _dataset([noise, weak, strong], [f"c{c}" for c in codes])
        assert cfs_select(d, 1) == [2]

    def test_duplicate_never_chosen_while_informative_remains(self):
        # two independent label bits: the second signal is informative but
        # uncorrelated with the first, so it must beat the perfect duplicate
        rng = np.random.default_rng(2)
        bit0 = np.array([i % 2 for i in range(80)])
        bit1 = np.array([(i // 2) % 2 for i in range(80)])
        strong = bit1 + rng.normal(0.0, 0.15, 80)  # tracks the high label bit
        ortho = bit0 + rng.normal(0.0, 0.25, 80)
        noise = rng.normal(size=80)
        labels = [f"{a}{b}" for a, b in zip(bit0, bit1)]
        d = _dataset([strong, strong.copy(), ortho, noise], labels)

        picked = cfs_select(d, 2)
        assert picked[0] == 0  # strongest correlate
        assert picked[1] == 2  # not the duplicate at index 1

        # brute-force merit comparison backs the expectation
        label = d.label_codes().astype(float)

        def merit(subset):
            r_cf = np.mean(
                [abs(np.corrcoef(d.instances[:, j], label)[0, 1]) for j in subset]
            )
            pairs = [
                abs(np.corrcoef(d.instances[:, i], d.instances[:, j])[0, 1])
                for ii, i in enumerate(subset)
                for j in subset[ii + 1 :]
            ]
            r_ff = np.mean(pairs)
            n = len(subset)
            return n * r_cf / np.sqrt(n + n * (n - 1) * r_ff)

        assert merit([0, 2]) > merit([0, 1])

    def test_k_equals_m_returns_all(self):
        rng = np.random.default_rng(3)
        d = _dataset([rng.normal(size=20) for _ in range(4)], ["a", "b"] * 10)
        assert sorted(cfs_select(d, 4)) == [0, 1, 2, 3]

    def test_zero_variance_column_is_harmless(self):
        rng = np.random.default_rng(4)
        codes = np.array([0, 1] * 10)
        d = _dataset(
            [[5.0] * 20, codes + rng.normal(0, 0.1, 20)], [f"c{c}" for c in codes]
        )
        assert cfs_select(d, 1) == [1]


class TestRandomSelect:
    def test_k_equals_m(self):
        assert sorted(random_select(6, 6, seed=0)) == list(range(6))

    def test_deterministic(self):
        assert random_select(20, 5, seed=42) == random_select(20, 5, seed=42)

    def test_uniform_inclusion_frequencies(self):
        m, k, runs = 10, 3, 10000
        counts = np.zeros(m)
        for seed in range(runs):
            for j in random_select(m, k, seed=seed):
                counts[j] += 1
        p = k / m
        sigma = np.sqrt(runs * p * (1.0 - p))
        assert np.all(np.abs(counts - runs * p) <= 3.0 * sigma)

    def test_bounds(self):
        with pytest.raises(DataError):
            random_select(5, 6, seed=0)


class TestExactSubsetSizes:
    def test_every_selector_returns_k_distinct(self):
        rng = np.random.default_rng(9)
        codes = np.array([0, 1, 2] * 20)
        cols = [codes + rng.normal(0.0, 0.5, 60) for _ in range(7)]
        d = _dataset(cols, [f"c{c}" for c in codes])
        k = 4
        subsets = [
            fisher_scores(d).top(k),
            relieff_weights(d, neighbors=3, seed=1).top(k),
            cfs_select(d, k),
            random_select(d.n_features, k, seed=1),
        ]
        for subset in subsets:
            assert len(subset) == k
            assert len(set(subset)) == k
