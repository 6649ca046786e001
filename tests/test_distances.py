import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepselect import distances
from sepselect.distances import absolute_blocks, cross, nearest, squared_pairwise


def _points_with_duplicates():
    rng = np.random.default_rng(4)
    x = rng.random((12, 5))  # the [0, 1] scale of normalized data
    x[7] = x[2]
    x[11] = x[2]
    return x


class TestCross:
    def test_duplicate_rows_are_exactly_zero(self):
        x = _points_with_duplicates()
        d = cross(x, x)
        assert d[2, 7] == 0.0 and d[7, 11] == 0.0 and d[11, 2] == 0.0
        assert np.all(np.diag(d) == 0.0)

    def test_symmetric_on_one_set(self):
        x = _points_with_duplicates()
        d = cross(x, x)
        assert np.array_equal(d, d.T)

    def test_rectangular_against_subset(self):
        x = _points_with_duplicates()
        d = cross(x, x[[2, 5]])
        assert d.shape == (12, 2)
        assert d[5, 1] == 0.0 and d[7, 0] == 0.0
        assert d[0, 1] == np.sqrt(np.sum((x[0] - x[5]) ** 2))


@st.composite
def row_pairs(draw):
    """C-ordered a and b whose rows repeat within a and between a and b;
    up to 40 columns, so the sums of 8 or more terms are pairwise."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 40))
    pool = rng.random((draw(st.integers(1, 12)), d))
    a = pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=25))]
    b = pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=25))]
    return a, b


class TestBlockedCross:
    @pytest.mark.parametrize("block_bytes", [1, distances._BLOCK_BYTES, 10**12])
    @settings(max_examples=200, deadline=None)
    @given(problem=row_pairs())
    def test_bitwise_equal_to_one_shot_differences(self, block_bytes, problem):
        # one row of a per block, the default blocks, all of a in one block
        a, b = problem
        expected = np.sqrt(np.sum((a[:, None] - b[None]) ** 2, axis=2))
        with mock.patch.object(distances, "_BLOCK_BYTES", block_bytes):
            got = cross(a, b)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("block_bytes", [1, distances._BLOCK_BYTES, 10**12])
    @settings(max_examples=100, deadline=None)
    @given(problem=row_pairs())
    def test_absolute_blocks_are_bitwise_one_shot_sums(self, block_bytes, problem):
        # each L1 distance is its row's sum of |a_i - b_j|, from either end
        a, b = problem
        expected = np.sum(np.abs(a[:, None] - b[None]), axis=2)
        with mock.patch.object(distances, "_BLOCK_BYTES", block_bytes):
            got = np.vstack(list(absolute_blocks(a, b)))
            mirrored = np.vstack(list(absolute_blocks(b, a)))
        assert got.tobytes() == expected.tobytes()
        assert mirrored.T.tobytes() == expected.tobytes()

    def test_peak_memory_within_two_results_and_one_block(self):
        # M = 200 rows of 144 columns: the one-shot (M, M, 144)
        # temporary took 46 MB and its square as much
        m, pairs = 200, 144
        z = np.random.default_rng(0).random((m, pairs))
        cross(z[:10], z[:10])  # warm up first: lazily imported numpy helpers would count as peak
        tracemalloc.start()
        try:
            cross(z, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (M, M) result, its blocks, and one row block of differences
        block = max(pairs * m * 8, distances._BLOCK_BYTES)
        assert peak <= 2 * m * m * 8 + block + 64 * 1024


@st.composite
def laid_out_pairs(draw):
    """row_pairs with a and b each C- or F-ordered."""
    a, b = draw(row_pairs())
    orders = draw(st.tuples(st.sampled_from("CF"), st.sampled_from("CF")))
    return np.asarray(a, order=orders[0]), np.asarray(b, order=orders[1])


class TestSumOrder:
    @pytest.mark.parametrize("block_bytes", [1, 2048, distances._BLOCK_BYTES, 10**12])
    @settings(max_examples=200, deadline=None)
    @given(problem=laid_out_pairs())
    def test_any_layout_is_the_one_shot_sum_at_every_block_size(self, block_bytes, problem):
        # the order of the sums is chosen once from the whole of a and b,
        # not from the layout of each block of a's rows
        a, b = problem
        squared = np.sum(np.square(b[None] - a[:, None]), axis=2)
        absolute = np.sum(np.abs(b[None] - a[:, None]), axis=2)
        with mock.patch.object(distances, "_BLOCK_BYTES", block_bytes):
            got = cross(a, b)
            got_l1 = np.vstack(list(absolute_blocks(a, b)))
        assert got.tobytes() == np.sqrt(squared).tobytes()
        assert got_l1.tobytes() == absolute.tobytes()

    @staticmethod
    def _column_order(terms):
        acc = terms[:, 0].copy()
        for j in range(1, terms.shape[1]):
            acc += terms[:, j]
        return acc

    @pytest.mark.parametrize("op", [np.square, np.abs])
    def test_pairwise_emulation_pinned_to_numpy(self, op):
        # every width of numpy's pairwise_sum: in order below 8, eight
        # partial sums to 128, halves beyond, and one row far past them
        rng = np.random.default_rng(9)
        blocks = distances.squared_blocks if op is np.square else absolute_blocks
        for d in [*range(1, 301), 9000]:
            a = rng.normal(size=(1 if d == 9000 else 2, d)) * 10.0 ** rng.integers(-3, 4, d)
            b = rng.normal(size=(3, d))
            got = np.vstack(list(blocks(a, b)))
            expected = np.array([np.add.reduce(op(b - row), axis=1) for row in a])
            assert got.tobytes() == expected.tobytes(), d
            af, bf = np.asfortranarray(a), np.asfortranarray(b)
            got = np.vstack(list(blocks(af, bf)))
            expected = np.array([self._column_order(op(bf - row)) for row in af])
            assert got.tobytes() == expected.tobytes(), d

    def test_no_columns_give_zero_distances(self):
        # the empty sum, as np.sum gives it
        x = np.empty((4, 0))
        assert np.array_equal(squared_pairwise(x), np.zeros((4, 4)))
        assert np.array_equal(cross(x, x[:2]), np.zeros((4, 2)))
        assert np.array_equal(np.vstack(list(absolute_blocks(x, x))), np.zeros((4, 4)))


class TestSquaredPairwise:
    def test_non_negative_with_zero_diagonal(self):
        d2 = squared_pairwise(_points_with_duplicates())
        assert np.all(d2 >= 0.0)
        assert np.all(np.diag(d2) == 0.0)

    def test_matches_difference_form(self):
        x = _points_with_duplicates()
        assert np.array_equal(np.sqrt(squared_pairwise(x)), cross(x, x))

    @pytest.mark.parametrize("block_bytes", [1, 2048, 10**12])
    @settings(max_examples=100, deadline=None)
    @given(problem=row_pairs(), fortran=st.booleans())
    def test_mirrored_blocks_are_bitwise_cross(self, block_bytes, problem, fortran):
        # one row per block, several rows per block, all rows in one block
        x = np.asfortranarray(problem[0]) if fortran else problem[0]
        expected = cross(x, x)
        with mock.patch.object(distances, "_BLOCK_BYTES", block_bytes):
            got = squared_pairwise(x)
        assert np.sqrt(got).tobytes() == expected.tobytes()


@st.composite
def tied_rows(draw):
    """Rows with many ties and +inf entries (ReliefF's padding), and a count
    up to the full row length."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 30))
    value = st.one_of(
        st.integers(0, 3).map(float),
        st.just(np.inf),
        st.floats(0.0, 10.0),
    )
    d = np.array(draw(st.lists(value, min_size=rows * cols, max_size=rows * cols)))
    return d.reshape(rows, cols), draw(st.integers(1, cols))


class TestNearest:
    @pytest.mark.parametrize(
        "d, lexsorted",
        [
            # every row has exactly count entries up to its cut: one
            # stable argsort per row
            (np.array([[5.0, 1.0, 4.0, 2.0, 3.0], [0.5, 0.1, np.inf, 0.3, 0.2]]), False),
            # the second row ties at its cut (two 2.0 for the third place)
            (np.array([[5.0, 1.0, 4.0, 2.0, 3.0], [2.0, 1.0, 2.0, 0.0, 7.0]]), True),
        ],
    )
    def test_each_branch_is_the_stable_argsort_prefix(self, d, lexsorted):
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as spy:
            got = nearest(d, 3)
        assert spy.called == lexsorted
        assert np.array_equal(got, np.argsort(d, axis=1, kind="stable")[:, :3])

    @settings(max_examples=400, deadline=None)
    @given(problem=tied_rows())
    def test_equals_stable_argsort_prefix(self, problem):
        d, count = problem
        expected = np.argsort(d, axis=1, kind="stable")[:, :count]
        assert np.array_equal(nearest(d, count), expected)

    @settings(max_examples=200, deadline=None)
    @given(problem=tied_rows(), data=st.data())
    def test_transposed_view_equals_stable_argsort_prefix(self, problem, data):
        # the F-ordered view that reads a block of distances down its columns
        t = problem[0].T
        assert t.flags.f_contiguous
        count = data.draw(st.integers(1, t.shape[1]))
        expected = np.argsort(t, axis=1, kind="stable")[:, :count]
        assert np.array_equal(nearest(t, count), expected)

    @settings(max_examples=300, deadline=None)
    @given(problem=tied_rows(), data=st.data())
    def test_kept_then_new_columns_equal_stable_argsort_prefix(self, problem, data):
        # the nearest of the columns before split, kept in (value, index)
        # order, then the columns from split on: ties at the cut still go
        # to the lower original column
        d, count = problem
        split = data.draw(st.integers(1, d.shape[1]))
        kept = nearest(d[:, :split], min(count, split))
        merged = np.hstack([np.take_along_axis(d, kept, axis=1), d[:, split:]])
        near = nearest(merged, count)
        from_kept = np.take_along_axis(kept, np.minimum(near, kept.shape[1] - 1), axis=1)
        got = np.where(near < kept.shape[1], from_kept, near - kept.shape[1] + split)
        expected = np.argsort(d, axis=1, kind="stable")[:, :count]
        assert np.array_equal(got, expected)
