"""Acceptance suite: one test per criterion, each printing a pass line.

The expensive end-to-end runs (criteria 5-8) are shared through
module-scoped fixtures. The public datasets the selection-ratio and
accuracy-preservation criteria reference are not fetchable in this
environment, so shape-matched synthetic stand-ins (same N, M, C and a
redundant-group structure) are used; drop the real CSVs into data/ as
mice.csv / cardio.csv (label columns "class" / "CLASS") to exercise them
as well.
"""

import math
import os
import time
from itertools import combinations

import numpy as np
import pytest

from _datasets import redundant_groups, spearman, write_csv
from sepselect.classify import evaluate
from sepselect.cli import main
from sepselect.dataio import load_csv, minmax_normalize, split_train_test
from sepselect.kmedoids import ClusteringResult, pam_cluster
from sepselect.knee import Curve, kneedle
from sepselect.pipeline import SelectionConfig, index_curves, mss_curve_cv, select_at_k, select_features
from sepselect.separability import build_feature_space
from sepselect.tsne import (
    conditional_affinities,
    embed,
    kl_divergence,
    kl_gradient,
    low_dim_affinities,
    symmetrize_affinities,
)
from sepselect.validity import mss, silhouette, simplified_silhouette

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def _report(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


# --------------------------------------------------------------------------
# criterion 1: index identities and ranges
# --------------------------------------------------------------------------


def test_criterion_1_index_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)

    identity_checked = 0
    seed = 0
    while identity_checked < 100:
        pts = rng.normal(size=(int(rng.integers(8, 30)), 2))
        cl = pam_cluster(pts, 2, seed=seed)
        seed += 1
        if cl.cluster_sizes().min() <= 1:
            continue
        a = mss(pts, cl).aggregate
        b = simplified_silhouette(pts, cl).aggregate
        assert abs(a - b) <= 1e-12
        identity_checked += 1

    for trial in range(60):
        m = int(rng.integers(8, 30))
        k = int(rng.integers(2, 7))
        pts = rng.normal(size=(m, 2))
        cl = pam_cluster(pts, k, seed=trial)
        r = mss(pts, cl)
        vals = r.per_point[r.included]
        assert np.all(vals >= -1e-12) and np.all(vals <= 1.0 + 1e-12)
        sil = silhouette(pts, cl).per_point
        ss = simplified_silhouette(pts, cl).per_point
        assert np.all(sil >= -1.0 - 1e-12) and np.all(sil <= 1.0 + 1e-12)
        assert np.all(ss >= -1.0 - 1e-12) and np.all(ss <= 1.0 + 1e-12)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, f"100 identity checks + range sweeps in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 2: clustering and index oracles
# --------------------------------------------------------------------------


def _brute_force_cost(pts, k):
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    return min(
        dist[:, list(med)].min(axis=1).sum() for med in combinations(range(len(pts)), k)
    )


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    hits = 0
    for trial in range(100):
        m = int(rng.integers(5, 11))
        k = int(rng.integers(2, 4))
        pts = rng.normal(size=(m, 2))
        result = pam_cluster(pts, k, seed=trial)
        opt = _brute_force_cost(pts, k)
        assert result.cost >= opt - 1e-9  # never beats the optimum
        if result.cost <= opt + 1e-9:
            hits += 1
    assert hits >= 95

    pairs = ClusteringResult(np.array([0, 2]), np.array([0, 0, 1, 1]), 0.0)
    value = mss(np.array([0.0, 1.0, 10.0, 11.0]), pairs).aggregate
    expected = (1.0 + (1.0 - 1.0 / 9.0) + 1.0 + (1.0 - 1.0 / 11.0)) / 4.0
    assert value == pytest.approx(expected, abs=1e-9)

    lopsided = ClusteringResult(np.array([0, 3]), np.array([0, 0, 0, 1]), 0.0)
    value = mss(np.array([0.0, 1.0, 2.0, 10.0]), lopsided).aggregate
    expected = (1.0 + (1.0 - 1.0 / 9.0) + (1.0 - 2.0 / 8.0)) / 3.0
    assert value == pytest.approx(expected, abs=1e-9)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, f"{hits}/100 exhaustive-optimum matches, hand values to 1e-9, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 3: embedding numerics
# --------------------------------------------------------------------------


def test_criterion_3_tsne_numerical_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(3003)

    points = rng.normal(size=(20, 4))
    p_cond = conditional_affinities(points, perplexity=10.0)
    for i in range(20):
        row = p_cond[i][p_cond[i] > 0.0]
        achieved = 2.0 ** (-np.sum(row * np.log2(row)))
        assert abs(achieved - 10.0) <= 1e-5

    for trial in range(5):
        pts6 = rng.normal(size=(6, 3))
        coords = rng.normal(size=(6, 2))
        p = symmetrize_affinities(conditional_affinities(pts6, perplexity=3.0))
        analytic = kl_gradient(p, coords)
        h = 1e-6
        numeric = np.zeros_like(coords)
        for i in range(6):
            for r in range(2):
                up, dn = coords.copy(), coords.copy()
                up[i, r] += h
                dn[i, r] -= h
                numeric[i, r] = (
                    kl_divergence(p, low_dim_affinities(up))
                    - kl_divergence(p, low_dim_affinities(dn))
                ) / (2.0 * h)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic)
        assert rel < 1e-4

    d3, _ = redundant_groups(90, 3, [10, 10, 10], strengths=[2.0, 2.0, 2.0], noise=0.3, seed=33)
    z = build_feature_space(minmax_normalize(d3))
    init = np.random.default_rng(4).normal(0.0, 1e-4, size=(len(z), 2))
    p = symmetrize_affinities(conditional_affinities(z, 8.0))
    kl_start = kl_divergence(p, low_dim_affinities(init))
    emb = embed(z, 8.0, 300, 4, initial_coords=init)
    kl_end = kl_divergence(p, low_dim_affinities(emb))
    assert kl_end < kl_start

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        3,
        f"perplexity to 1e-5, gradient rel<1e-4, KL {kl_start:.3f} -> {kl_end:.3f}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 4: knee detection vs brute force
# --------------------------------------------------------------------------


def test_criterion_4_kneedle_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(4004)
    for _ in range(50):
        n = int(rng.integers(15, 40))
        xs = np.sort(rng.uniform(0.0, 10.0, size=n)) + np.arange(n) * 1e-6
        exponent = rng.uniform(0.15, 0.6)
        x01 = (xs - xs[0]) / (xs[-1] - xs[0])
        ys = x01 ** exponent
        knee = kneedle(Curve(xs=xs, ys=ys))
        xn = (xs - xs.min()) / (xs.max() - xs.min())
        yn = (ys - ys.min()) / (ys.max() - ys.min())
        assert knee == float(xs[np.argmax(yn - xn)])

    for n in (5, 11, 30):
        xs = np.linspace(0.0, 3.0, n)
        assert kneedle(Curve(xs=xs, ys=2.0 * xs + 1.0)) is None

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, f"50 concave curves match the chord oracle, lines rejected, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criteria 5-8: end-to-end runs on generated datasets
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def figure2_run():
    sizes = [6, 6, 6, 5, 5, 5, 5, 5, 5, 5, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4,
             4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 5, 9]
    strengths = list(np.linspace(1.3, 0.08, len(sizes)))
    d, _ = redundant_groups(720, 12, sizes, strengths=strengths, noise=1.4, seed=11)
    data = minmax_normalize(d)
    train, test = split_train_test(data, 3)

    cfg = SelectionConfig(seed=3, perplexity=30.0, tsne_iterations=500, fold_count=5)
    curve = mss_curve_cv(train, cfg)
    emb = embed(build_feature_space(train), cfg.perplexity, cfg.tsne_iterations, cfg.seed)
    curves = index_curves(emb, curve.ks)
    accuracies = np.array(
        [
            evaluate(train, test, cl.medoids.tolist(), n_neighbors=5).accuracy
            for cl in curves.clusterings
        ]
    )
    return curve, curves, accuracies


def test_criterion_5_validity_accuracy_correlation(figure2_run):
    curve, curves, accuracies = figure2_run
    keep = np.isfinite(curve.averaged)
    rho_mss = spearman(curve.averaged[keep], accuracies[keep])
    rho_sil = spearman(curves.silhouette[keep], accuracies[keep])
    assert rho_mss > 0.5
    assert rho_sil < rho_mss
    _report(5, f"spearman(mss, acc)={rho_mss:.3f} > 0.5 > spearman(sil, acc)={rho_sil:.3f}")


def _standin_mice():
    sizes = [8, 8, 7, 7, 7, 6, 6, 6, 5, 5, 4, 4, 2, 2]
    d, _ = redundant_groups(
        1080, 8, sizes, strengths=list(np.linspace(1.6, 0.3, len(sizes))), noise=0.5, seed=21
    )
    return minmax_normalize(d), 30.0


def _standin_cardio():
    sizes = [5, 5, 4, 4, 3, 2]
    d, _ = redundant_groups(
        2126, 10, sizes, strengths=list(np.linspace(1.5, 0.6, len(sizes))), noise=0.3, seed=22
    )
    return minmax_normalize(d), 10.0


def _real_or_none(name, label):
    path = os.path.join(DATA_DIR, name)
    if not os.path.exists(path):
        return None
    return minmax_normalize(load_csv(path, label))


@pytest.fixture(scope="module")
def table1_runs():
    runs = {}
    datasets = {
        "mice-like": _standin_mice(),
        "cardio-like": _standin_cardio(),
    }
    real_mice = _real_or_none("mice.csv", "class")
    if real_mice is not None:
        datasets["mice"] = (real_mice, 30.0)
    real_cardio = _real_or_none("cardio.csv", "CLASS")
    if real_cardio is not None:
        datasets["cardio"] = (real_cardio, 10.0)

    for name, (data, perplexity) in datasets.items():
        train, _ = split_train_test(data, 5)
        cfg = SelectionConfig(seed=5, perplexity=perplexity, tsne_iterations=500, fold_count=5)
        result = select_features(train, cfg)

        rows = []
        for r in range(10):
            tr, te = split_train_test(data, 100 + r)
            rep_cfg = SelectionConfig(
                seed=100 + r, perplexity=perplexity, tsne_iterations=500
            )
            _, cl = select_at_k(tr, result.k_min, rep_cfg)
            rows.append(
                (
                    evaluate(tr, te, cl.medoids.tolist(), n_neighbors=5),
                    evaluate(tr, te, list(range(data.n_features)), n_neighbors=5),
                )
            )
        runs[name] = (data, result, rows)
    return runs


def test_criterion_6_selection_ratio(table1_runs):
    details = []
    for name, (data, result, _) in table1_runs.items():
        ratio = result.k_min / data.n_features
        assert 0.05 <= ratio <= 0.35, f"{name}: k_min/M = {ratio:.3f}"
        details.append(f"{name} k_min={result.k_min}/{data.n_features} ({ratio:.2f})")
    _report(6, "; ".join(details))


def test_criterion_7_accuracy_preservation(table1_runs):
    details = []
    for name, (_, result, rows) in table1_runs.items():
        acc_subset = float(np.mean([sub.accuracy for sub, _ in rows]))
        acc_all = float(np.mean([full.accuracy for _, full in rows]))
        assert abs(acc_subset - acc_all) <= 0.05, f"{name}: {acc_subset} vs {acc_all}"
        details.append(f"{name} {acc_subset:.3f} vs {acc_all:.3f}")
    _report(7, "; ".join(details))


def test_criterion_8_prediction_timing(table1_runs):
    details = []
    for name, (_, result, rows) in table1_runs.items():
        t_subset = float(np.mean([sub.predict_time for sub, _ in rows]))
        t_all = float(np.mean([full.predict_time for _, full in rows]))
        assert t_subset < t_all, f"{name}: {t_subset} !< {t_all}"
        details.append(f"{name} {1e3 * t_subset:.1f}ms < {1e3 * t_all:.1f}ms")
    _report(8, "; ".join(details))


# --------------------------------------------------------------------------
# criterion 9: byte-identical reports
# --------------------------------------------------------------------------


def test_criterion_9_report_determinism(tmp_path):
    d, _ = redundant_groups(
        72, 3, [3, 3, 2], strengths=[2.0, 2.0, 1.5], noise=0.35, seed=5
    )
    csv_path = str(tmp_path / "toy.csv")
    write_csv(csv_path, d)

    def run(outdir):
        args = [
            "select", "--input", csv_path, "--label", "label", "--seed", "11",
            "--perplexity", "4", "--tsne-iterations", "120", "--folds", "4",
            "--output-dir", outdir,
        ]
        assert main(args) == 0
        with open(os.path.join(outdir, "report.txt"), "rb") as fh:
            return fh.read()

    first = run(str(tmp_path / "run1"))
    second = run(str(tmp_path / "run2"))
    assert first == second
    _report(9, f"two runs, byte-identical reports ({len(first)} bytes)")
