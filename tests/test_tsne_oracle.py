"""The lockstep bandwidth search and the buffered descent of sepselect.tsne
must reproduce, bit for bit, a plain row-at-a-time implementation that
allocates fresh arrays in every step. That implementation is kept below
verbatim as the reference; the tests compare matrices, coordinates,
warnings (and their order) and errors against it.

The module also holds the memory bounds of the two t-SNE layers and the
call contract the benchmark's trace relies on.
"""

import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _datasets import redundant_groups
from sepselect import distances, tsne
from sepselect.dataio import minmax_normalize
from sepselect.errors import DataError, NumericalError
from sepselect.separability import build_feature_space
from sepselect.tsne import P_FLOOR, Q_FLOOR, symmetrize_affinities

_BISECT_MAX_ITER = 50
_PERPLEXITY_TOL = 1e-7


# ---- reference implementation (row at a time) ----


def squared_pairwise(x):
    # explicit differences, their squares added one column at a time in
    # index order
    d2 = np.zeros((len(x), len(x)))
    for j in range(x.shape[1]):
        d2 += (x[:, j, None] - x[None, :, j]) ** 2
    return d2


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
    points = np.asarray(z, dtype=float)
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


def kl_gradient(p, coords):
    # the exact gradient, grouped as two products: [-2 v_i, 1 + |v_i|^2, 1]
    # times [v_j, 1, |v_j|^2] is 1 + ||v_i - v_j||^2, and pq times
    # [v_j, 1] gives pq @ v and the row sums of pq in one product
    coords = np.asarray(coords, dtype=float)
    m, d = coords.shape
    sq = np.einsum("ij,ij->i", coords, coords)[:, None]
    ones = np.ones((m, 1))
    left = np.hstack([-2.0 * coords, 1.0 + sq, ones])
    right = np.hstack([coords, ones, sq])
    w = 1.0 / np.maximum(left @ right.T, 1.0)
    np.fill_diagonal(w, 0.0)
    q = w * (1.0 / w.sum())
    np.maximum(q, Q_FLOOR, out=q)
    np.fill_diagonal(q, 0.0)
    pq = (p - q) * w
    products = pq @ right[:, : d + 1]
    return 4.0 * (products[:, d:] * coords - products[:, :d])


def embed(z, perplexity, iterations, seed, initial_coords=None):
    # the schedule is spelled out here, not imported: output dimension 2,
    # learning rate M, exaggeration 4 for 100 iterations, momentum 0.5
    # switching to 0.8 at iteration 250, and per-coordinate gains that
    # grow by 0.2 where the gradient's sign opposes the velocity's and
    # shrink by a factor 0.8 otherwise, floored at 0.01; from iteration
    # 250 on, every 10th step stops the descent if it moved no coordinate
    # by more than 1e-12 of the largest coordinate magnitude
    points = np.asarray(z, dtype=float)
    m = points.shape[0]
    if m < 3:
        raise DataError(f"need at least 3 points to embed, got {m}")

    p = symmetrize_affinities(conditional_affinities(points, perplexity))
    rng = np.random.default_rng(seed)
    if initial_coords is None:
        coords = rng.normal(0.0, 1e-4, size=(m, 2))
    else:
        coords = np.array(initial_coords, dtype=float)
        if coords.shape != (m, 2):
            raise DataError("initial_coords shape mismatch")
    velocity = np.zeros_like(coords)
    gains = np.ones_like(coords)

    for it in range(iterations):
        p_eff = p * 4.0 if it < 100 else p
        grad = kl_gradient(p_eff, coords)
        if not np.all(np.isfinite(grad)):
            raise NumericalError(f"non-finite gradient at iteration {it}")
        momentum = 0.5 if it < 250 else 0.8
        opposed = (grad > 0.0) != (velocity > 0.0)
        gains = np.where(opposed, gains + 0.2, gains * 0.8)
        gains = np.maximum(gains, 0.01)
        velocity = momentum * velocity - m * (gains * grad)
        coords = coords + velocity
        coords = coords - coords.mean(axis=0)
        if it >= 250 and it % 10 == 0:
            if np.max(np.abs(velocity)) <= 1e-12 * np.max(np.abs(coords)):
                break
    return coords


# ---- comparison helpers ----


def _outcome(fn, *args):
    """(result, [(category, message)], (exception type, message) or None)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = fn(*args), None
        except (DataError, NumericalError) as exc:
            result, error = None, (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught], error


def _assert_same_outcome(reference, actual):
    ref_result, ref_warnings, ref_error = reference
    result, caught, error = actual
    assert caught == ref_warnings
    assert error == ref_error
    if ref_result is None:
        assert result is None
    else:
        # tobytes also tells +0.0 from -0.0, which array_equal does not
        assert result.dtype == ref_result.dtype and result.shape == ref_result.shape
        assert result.tobytes() == ref_result.tobytes()


@st.composite
def affinity_problems(draw):
    m = draw(st.integers(2, 28))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.normal(size=(m, dim)) * draw(st.sampled_from([1e-3, 1.0, 10.0, 1e3]))
    # coincident points: ties at the nearest distance, up to the tie limit
    for target, source in draw(
        st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=m)
    ):
        points[target] = points[source]
    # a far group: exp underflows to 0 for many entries mid-bisection
    far = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    points[far] *= draw(st.sampled_from([1.0, 30.0, 1e3]))
    perplexity = draw(
        st.one_of(
            st.just(1.0),
            st.just(float(m - 1)),
            st.floats(1.0, max(1.0, m - 1.0)),
        )
    )
    return points, perplexity


class TestAffinitiesMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(problem=affinity_problems())
    def test_matrix_warnings_and_errors(self, problem):
        points, perplexity = problem
        _assert_same_outcome(
            _outcome(conditional_affinities, points, perplexity),
            _outcome(tsne.conditional_affinities, points, perplexity),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        before=st.integers(0, 3),
        after=st.integers(0, 3),
        cluster=st.integers(4, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bracket_failure_between_tie_rows(self, before, after, cluster, seed):
        # near-tie block: two coincident points at 0 and three 1e-150 away
        # (squared distance 1e-300), whose perplexity stays near 4 for
        # every finite beta; tie clusters of `cluster` coincident points
        # far away, shuffled around it
        near_tie = [0.0, 0.0, 1e-150, 1e-150, 1e-150]
        far = [100.0 * (c + 1) for c in range(before + after)]
        points = np.array(near_tie + [x for x in far for _ in range(cluster)])[:, None]
        order = np.random.default_rng(seed).permutation(len(points))
        points = points[order]
        reference = _outcome(conditional_affinities, points, 2.0)
        _assert_same_outcome(reference, _outcome(tsne.conditional_affinities, points, 2.0))

        first_failing = int(np.flatnonzero(order < len(near_tie))[0])
        _, caught, error = reference
        assert error == (
            NumericalError,
            f"bandwidth search failed to bracket perplexity 2.0 at row {first_failing}",
        )
        tie_rows = [i for i in range(first_failing) if order[i] >= len(near_tie)]
        assert [msg.split(" has ")[0] for _, msg in caught] == [f"row {i}" for i in tie_rows]

    @pytest.mark.parametrize("block_bytes", [1, 10**12])
    def test_bisection_block_size_does_not_change_the_outcome(self, block_bytes, monkeypatch):
        # one row per bisection block, then every row in one block. An
        # integer grid with a far group: tied and duplicate rows warn, and
        # so do stalled bisections. Then the near-tie bracket failure, whose
        # error follows the tie warnings of the rows before it.
        rng = np.random.default_rng(0)
        grid = rng.integers(0, 3, size=(66, 5)).astype(float)
        grid[rng.random(66) < 0.3] *= 1e4
        near_tie = np.array([0.0, 0.0, 1e-150, 1e-150, 1e-150] + [100.0] * 5 + [200.0] * 5)
        problems = [(grid, 3.0), (near_tie[::-1, None].copy(), 2.0)]
        references = [_outcome(conditional_affinities, *problem) for problem in problems]
        monkeypatch.setattr(distances, "_BLOCK_BYTES", block_bytes)
        for problem, reference in zip(problems, references):
            _assert_same_outcome(reference, _outcome(tsne.conditional_affinities, *problem))
        (_, grid_warnings, _), (_, tie_warnings, error) = references
        assert len(grid_warnings) == 20
        assert len(tie_warnings) == 10 and error[0] is NumericalError

    def test_perplexity_one_and_m_minus_one_on_the_workload_size(self):
        points = np.random.default_rng(3).uniform(size=(203, 12))
        for perplexity in (1.0, 202.0, 30.0):
            _assert_same_outcome(
                _outcome(conditional_affinities, points, perplexity),
                _outcome(tsne.conditional_affinities, points, perplexity),
            )


class TestEntropyBits:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 30),
        cols=st.integers(1, 90),
        zero_share=st.sampled_from([0.0, 0.3, 0.7, 0.95, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_grouped_sum_equals_the_1d_sum_of_each_row(self, rows, cols, zero_share, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(size=(rows, cols)) * 10.0 ** rng.uniform(-300, 0, size=(rows, cols))
        p[rng.random((rows, cols)) < zero_share] = 0.0
        expected = []
        for row in p:
            nz = row[row > 0.0]
            expected.append(-np.sum(nz * np.log2(nz)))
        assert tsne._entropy_bits(p).tobytes() == np.array(expected).tobytes()


def _redundant_feature_space():
    # three redundant groups, M=23: the descent stops at its fixed point
    # long before 600 iterations
    d, _ = redundant_groups(400, 10, [8, 8, 7], strengths=[1.5] * 3, noise=0.45, seed=5)
    return build_feature_space(minmax_normalize(d))


@st.composite
def embed_problems(draw):
    m = draw(st.integers(3, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(size=(m, draw(st.integers(1, 6))))
    if draw(st.booleans()):
        points[1] = points[0]  # a coincident pair
    perplexity = draw(st.floats(1.0, m - 1.0))
    # short runs, and runs past the exaggeration, the momentum switch and
    # the first stop checks
    iterations = draw(st.one_of(st.integers(1, 120), st.integers(251, 600)))
    return points, perplexity, iterations, draw(st.integers(0, 1000))


class TestDescentMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(problem=embed_problems())
    @example(problem=(np.random.default_rng(7).uniform(size=(12, 4)), 4.0, 260, 3))
    @example(problem=(_redundant_feature_space(), 10.0, 600, 1))
    def test_coordinates(self, problem):
        _assert_same_outcome(_outcome(embed, *problem), _outcome(tsne.embed, *problem))

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(2, 30), dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_gradient(self, m, dim, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(size=(m, m))
        p = (p + p.T) / (2.0 * p.sum())
        np.maximum(p, P_FLOOR, out=p)
        np.fill_diagonal(p, 0.0)
        coords = rng.normal(size=(m, dim)) * 10.0 ** rng.uniform(-4, 2)
        assert tsne.kl_gradient(p, coords).tobytes() == kl_gradient(p, coords).tobytes()


class TestMemoryAndTraceContract:
    M = 200

    @pytest.fixture()
    def points(self):
        # warm up first: lazily imported numpy helpers would count as peak
        tsne.embed(np.random.default_rng(1).uniform(size=(12, 4)), 3.0, 2, 0)
        return np.random.default_rng(0).uniform(size=(self.M, 50))

    def _peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_affinities_peak_within_three_matrices(self, points):
        peak = self._peak(lambda: tsne.conditional_affinities(points, 30.0))
        assert peak <= 3 * self.M * self.M * 8

    def test_embed_peak_within_four_matrices(self, points):
        # P, scaled in place for the exaggeration, and the two step buffers
        peak = self._peak(lambda: tsne.embed(points, 30.0, 5, 0))
        assert peak <= 4 * self.M * self.M * 8

    def test_embed_calls_the_module_affinities_once(self, points, monkeypatch):
        # the benchmark times the affinity layer by replacing this global
        calls = []
        real = tsne.conditional_affinities

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(tsne, "conditional_affinities", counting)
        tsne.embed(points[:30], 5.0, 3, 0)
        assert len(calls) == 1


_DESCENT_SCRIPT = """
import hashlib
import numpy as np
from sepselect import distances, tsne
m = 203
rng = np.random.default_rng(5)
p = rng.uniform(size=(m, m))
p = (p + p.T) / (2.0 * p.sum())
np.maximum(p, tsne.P_FLOOR, out=p)
np.fill_diagonal(p, 0.0)
coords = rng.normal(0.0, 1e-4, size=(m, 2))
buffers = tsne._step_buffers(m, 2)
for _ in range(300):
    coords -= m * tsne._gradient_step(p, coords, *buffers)
print(hashlib.sha256(coords.tobytes()).hexdigest())
"""


def _digests_under_blas_threads(script):
    """The stdout of script run in a subprocess under each of 1 and 2
    OpenBLAS threads."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""),
        }
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    return digests


def test_descent_steps_do_not_depend_on_the_blas_thread_count():
    # the step's two BLAS products at the workload size, on a P built
    # without BLAS: their bits must not depend on how BLAS splits them
    first, second = _digests_under_blas_threads(_DESCENT_SCRIPT)
    assert first == second


_EMBED_SCRIPT = """
import hashlib
import numpy as np
from sepselect import distances, tsne
z = np.random.default_rng(11).uniform(size=(203, 144))
print(hashlib.sha256(tsne.embed(z, 30.0, 200, 0).tobytes()).hexdigest())
"""


def _numpy_blas_name():
    try:  # show_config(mode=...) is numpy >= 1.26
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


@pytest.mark.skipif(
    "openblas" not in _numpy_blas_name(),
    reason="numpy's BLAS is not known to be OpenBLAS, which OPENBLAS_NUM_THREADS sets",
)
def test_embedding_does_not_depend_on_the_blas_thread_count():
    # the wide workload's 203 points: affinities from 144 columns, then the descent
    first, second = _digests_under_blas_threads(_EMBED_SCRIPT)
    assert first == second
