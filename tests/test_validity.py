import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepselect.distances import cross
from sepselect.errors import DataError
from sepselect.kmedoids import ClusteringResult, pam_cluster
from sepselect.validity import DistanceCounter, mss, silhouette, simplified_silhouette


def clustering(medoids, assignment):
    return ClusteringResult(
        medoids=np.asarray(medoids, dtype=int),
        assignment=np.asarray(assignment, dtype=int),
        cost=0.0,
    )


def oracle_silhouette(points, assignment):
    """Straight-from-definition silhouette, independent loops."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = len(pts)
    values = []
    for i in range(n):
        mine = [j for j in range(n) if assignment[j] == assignment[i] and j != i]
        if not mine:
            values.append(0.0)
            continue
        a = np.mean([np.linalg.norm(pts[i] - pts[j]) for j in mine])
        b = min(
            np.mean([np.linalg.norm(pts[i] - pts[j]) for j in range(n) if assignment[j] == c])
            for c in set(assignment)
            if c != assignment[i]
        )
        values.append((b - a) / max(a, b) if max(a, b) > 0 else 0.0)
    return values


def loop_silhouette(points, clustering):
    """Silhouette as a loop over points and clusters, summing each masked
    distance row: the bitwise reference of silhouette's column-block sums."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    m = pts.shape[0]
    assign = clustering.assignment
    sizes = clustering.cluster_sizes()
    dist = cross(pts, pts)
    values = np.zeros(m)
    for i in range(m):
        h = assign[i]
        if sizes[h] <= 1:
            continue
        a = dist[i, assign == h].sum() / (sizes[h] - 1)
        b = np.inf
        for other in range(clustering.k):
            if other == h or sizes[other] == 0:
                continue
            b = min(b, dist[i, assign == other].mean())
        if not np.isfinite(b):
            continue
        denom = max(a, b)
        values[i] = (b - a) / denom if denom > 0.0 else 0.0
    return values, float(values.mean())


@st.composite
def labelled_clouds(draw):
    """Points with an arbitrary assignment to k clusters: some clusters may
    be empty or singletons, and grid points give coincident points and
    ties. Sizes up to 300 reach numpy's 8-way and 128-element pairwise
    summation blocks."""
    m = draw(st.integers(2, 300))
    k = draw(st.integers(2, min(m, 12)))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pts = rng.normal(size=(m, dim)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    else:
        pts = rng.integers(0, 3, size=(m, dim)).astype(float)
    used = draw(st.integers(1, k))  # clusters at or above `used` stay empty
    assignment = rng.integers(0, used, size=m)
    if draw(st.booleans()):
        assignment = np.sort(assignment)
    return pts, clustering(np.arange(k), assignment)


class TestSilhouetteMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(problem=labelled_clouds())
    def test_per_point_and_aggregate_bitwise(self, problem):
        pts, cl = problem
        values, aggregate = loop_silhouette(pts, cl)
        report = silhouette(pts, cl)
        assert report.per_point.view(np.int64).tolist() == values.view(np.int64).tolist()
        assert np.float64(report.aggregate).view(np.int64) == np.float64(aggregate).view(np.int64)
        assert report.included.all()


class TestSilhouette:
    def test_two_tight_far_clusters(self):
        pts = np.array([0.0, 0.1, 10.0, 10.1])
        cl = clustering([0, 2], [0, 0, 1, 1])
        report = silhouette(pts, cl)
        expected = oracle_silhouette(pts, cl.assignment)
        assert np.allclose(report.per_point, expected, atol=1e-12)
        assert report.aggregate == pytest.approx(np.mean(expected), abs=1e-12)
        assert report.aggregate == pytest.approx(0.99, abs=1e-4)

    def test_singleton_cluster_scores_zero(self):
        pts = np.array([0.0, 1.0, 10.0])
        report = silhouette(pts, clustering([0, 2], [0, 0, 1]))
        assert report.per_point[2] == 0.0

    def test_boundary_a_equals_b(self):
        # 3-4-5 rectangle: intra distance 4, mean distance to the other pair 4
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0], [4.0, 3.0]])
        report = silhouette(pts, clustering([0, 2], [0, 0, 1, 1]))
        assert np.allclose(report.per_point, 0.0, atol=1e-12)

    def test_single_cluster_rejected(self):
        with pytest.raises(DataError):
            silhouette(np.array([0.0, 1.0]), clustering([0], [0, 0]))


class TestSimplifiedSilhouette:
    def test_medoid_points_score_one(self):
        pts = np.array([0.0, 1.0, 10.0, 11.0])
        report = simplified_silhouette(pts, clustering([0, 2], [0, 0, 1, 1]))
        assert report.per_point[0] == 1.0
        assert report.per_point[2] == 1.0

    def test_hand_worked_pairs(self):
        pts = np.array([0.0, 1.0, 10.0, 11.0])
        report = simplified_silhouette(pts, clustering([0, 2], [0, 0, 1, 1]))
        expected = [1.0, 1.0 - 1.0 / 9.0, 1.0, 1.0 - 1.0 / 11.0]
        assert np.allclose(report.per_point, expected, atol=1e-12)
        assert report.aggregate == pytest.approx(np.mean(expected), abs=1e-12)
        assert report.aggregate == pytest.approx(0.94949, abs=1e-5)

    def test_all_singletons_zero(self):
        pts = np.array([0.0, 3.0, 7.0])
        report = simplified_silhouette(pts, clustering([0, 1, 2], [0, 1, 2]))
        assert report.aggregate == 0.0


class TestMss:
    def test_hand_worked_pairs_coincides_with_ss_at_k2(self):
        pts = np.array([0.0, 1.0, 10.0, 11.0])
        cl = clustering([0, 2], [0, 0, 1, 1])
        report = mss(pts, cl)
        expected = [1.0, 1.0 - 1.0 / 9.0, 1.0, 1.0 - 1.0 / 11.0]
        assert np.allclose(report.per_point, expected, atol=1e-12)
        assert report.aggregate == pytest.approx(0.94949, abs=1e-5)

    def test_hand_worked_with_singleton_exclusion(self):
        pts = np.array([0.0, 1.0, 2.0, 10.0])
        report = mss(pts, clustering([0, 3], [0, 0, 0, 1]))
        assert not report.included[3]
        assert np.isnan(report.per_point[3])
        expected = np.mean([1.0, 1.0 - 1.0 / 9.0, 1.0 - 2.0 / 8.0])
        assert report.aggregate == pytest.approx(expected, abs=1e-12)
        assert report.aggregate == pytest.approx(0.87963, abs=1e-5)

    def test_equidistant_point_scores_zero(self):
        # medoids on an equilateral triangle, extra point at the centroid
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2], [0.5, np.sqrt(3) / 6]])
        report = mss(pts, clustering([0, 1, 2], [0, 1, 2, 0]))
        assert report.per_point[3] == pytest.approx(0.0, abs=1e-12)

    def test_coincident_other_medoid_gives_zero(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
        report = mss(pts, clustering([0, 1], [0, 1, 0]))
        assert report.per_point[0] == 0.0  # b = 0 boundary case

    def test_all_singletons_undefined(self):
        pts = np.array([0.0, 3.0, 7.0])
        report = mss(pts, clustering([0, 1, 2], [0, 1, 2]))
        assert report.aggregate is None
        assert not report.included.any()

    def test_point_at_medoid_lifts_cluster_out_of_exclusion(self):
        pts = np.array([0.0, 1.0, 2.0, 10.0, 10.0])
        report = mss(pts, clustering([0, 3], [0, 0, 0, 1, 1]))
        assert report.included[3] and report.included[4]
        assert report.per_point[4] == 1.0

    def test_singleton_medoids_stay_in_b_average(self):
        # three medoids, one singleton; b averages over both other medoids
        pts = np.array([0.0, 1.0, 6.0, 7.0, 20.0])
        report = mss(pts, clustering([0, 2, 4], [0, 0, 1, 1, 2]))
        b1 = np.mean([6.0 - 1.0, 20.0 - 1.0])  # distances to medoids 2 and 4
        assert report.per_point[1] == pytest.approx(1.0 - 1.0 / b1, abs=1e-12)
        assert not report.included[4]

    def test_distance_evaluation_count(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(23, 2))
        cl = pam_cluster(pts, 5, seed=1)
        counter = DistanceCounter()
        mss(pts, cl, counter=counter)
        assert counter.evaluations == 23 * 5


class TestCrossIndexProperties:
    def test_mss_equals_ss_for_two_clusters_without_singletons(self):
        rng = np.random.default_rng(7)
        checked = 0
        seed = 0
        while checked < 30:
            pts = rng.normal(size=(12, 2))
            cl = pam_cluster(pts, 2, seed=seed)
            seed += 1
            if cl.cluster_sizes().min() <= 1:
                continue
            a = mss(pts, cl).aggregate
            b = simplified_silhouette(pts, cl).aggregate
            assert abs(a - b) <= 1e-12
            checked += 1

    def test_ranges_on_nearest_medoid_clusterings(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            m = int(rng.integers(8, 25))
            k = int(rng.integers(2, min(6, m)))
            pts = rng.normal(size=(m, 2))
            cl = pam_cluster(pts, k, seed=seed)
            r_mss = mss(pts, cl)
            vals = r_mss.per_point[r_mss.included]
            assert np.all(vals >= -1e-12) and np.all(vals <= 1.0 + 1e-12)
            r_sil = silhouette(pts, cl)
            assert np.all(r_sil.per_point >= -1.0 - 1e-12)
            assert np.all(r_sil.per_point <= 1.0 + 1e-12)
            r_ss = simplified_silhouette(pts, cl)
            assert np.all(r_ss.per_point >= -1.0 - 1e-12)
            assert np.all(r_ss.per_point <= 1.0 + 1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(15, 2))
        cl = pam_cluster(pts, 3, seed=4)
        for fn in (silhouette, simplified_silhouette, mss):
            base = fn(pts, cl).aggregate
            scaled = fn(pts * 37.5, cl).aggregate
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_aggregate_is_mean_of_included(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(18, 2))
        cl = pam_cluster(pts, 4, seed=9)
        report = mss(pts, cl)
        assert report.aggregate == pytest.approx(
            np.nanmean(report.per_point), abs=1e-12
        )
