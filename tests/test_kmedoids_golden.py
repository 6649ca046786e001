"""Golden outputs of pam_cluster on fixed seeded point clouds.

tests/data/pam_golden.json holds, per cloud, the medoids, assignment, cost
and winning cost log of pam_cluster on the explicit-difference distances
of distances.squared_pairwise. The medoids and assignments are those the
straightforward implementation (full argsort for the second-nearest
medoid, setdiff1d candidates, one masked sum per medoid position,
Generator.choice seeding, one distance matrix per restart) produced.
Vectorizing PAM must reproduce every one of them bit for bit.

Regenerate only on a deliberate change of results:

    PYTHONPATH=src python tests/test_kmedoids_golden.py > tests/data/pam_golden.json
"""

import json
import os

import numpy as np
import pytest

from sepselect.kmedoids import pam_cluster

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "pam_golden.json")


def _normal(seed, m, dims):
    return np.random.default_rng(seed).normal(size=(m, dims))


def _grid(side):
    xs, ys = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
    return np.column_stack([xs.ravel(), ys.ravel()])


def _duplicated(seed, distinct, copies, dims=2):
    base = _normal(seed, distinct, dims)
    return np.repeat(base, copies, axis=0)


def _blobs(seed, centers, per_blob, spread):
    rng = np.random.default_rng(seed)
    return np.vstack(
        [rng.normal(c, spread, size=(per_blob, len(c))) for c in np.asarray(centers, float)]
    )


def golden_cases():
    """name -> (points, k, seed, restarts)."""
    grid_dup = np.vstack([_grid(4), _grid(4)[:6]])
    return {
        "normal2d_m12_k2": (_normal(1, 12, 2), 2, 3, 3),
        "normal2d_m12_kM": (_normal(2, 12, 2), 12, 4, 3),
        "normal2d_m30_k5": (_normal(3, 30, 2), 5, 5, 3),
        "normal2d_m40_k9": (_normal(4, 40, 2), 9, 6, 3),
        "normal3d_m25_k4": (_normal(5, 25, 3), 4, 7, 3),
        "line1d_m15_k3": (_normal(6, 15, 1)[:, 0], 3, 8, 3),
        "duplicates_10x3_k4": (_duplicated(7, 10, 3), 4, 9, 3),
        "all_coincident_m6_k3": (np.ones((6, 2)), 3, 10, 3),
        "two_sites_m8_k3": (_duplicated(8, 2, 4), 3, 11, 3),
        "grid5_k4": (_grid(5), 4, 12, 3),
        "grid4_kM": (_grid(4), 16, 13, 3),
        "blobs3_k3": (_blobs(9, [[0, 0], [6, 0], [0, 6]], 15, 0.7), 3, 14, 3),
        "blobs3_k6": (_blobs(10, [[0, 0], [6, 0], [0, 6]], 15, 0.7), 6, 15, 3),
        "duplicate_pairs_kM": (_duplicated(11, 3, 2), 6, 16, 3),
        "m2_k2": (_normal(12, 2, 2), 2, 17, 3),
        "normal2d_m60_k20_one_restart": (_normal(13, 60, 2), 20, 18, 1),
        "normal2d_m77_k11": (_normal(14, 77, 2), 11, 19, 3),
        "int_line_repeats_k3": (np.array([0.0, 0.0, 1.0, 1.0, 2.0, 5.0, 5.0, 9.0]), 3, 20, 3),
        "normal2d_m20_kM_minus_1": (_normal(15, 20, 2), 19, 21, 3),
        "normal2d_m50_k2_five_restarts": (_normal(16, 50, 2), 2, 22, 5),
        "grid_with_duplicates_k5": (grid_dup, 5, 23, 3),
    }


def run_case(points, k, seed, restarts):
    log = []
    result = pam_cluster(points, k, seed, restarts=restarts, cost_log=log)
    return {
        "medoids": result.medoids.tolist(),
        "assignment": result.assignment.tolist(),
        "cost": result.cost,
        "cost_log": log,
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(golden_cases())


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_pam_reproduces_golden_output(name, golden):
    points, k, seed, restarts = golden_cases()[name]
    # exact equality: json keeps floats at full precision
    assert run_case(points, k, seed, restarts) == golden[name]


if __name__ == "__main__":
    cases = golden_cases()
    print(json.dumps({name: run_case(*cases[name]) for name in sorted(cases)}, indent=1))
