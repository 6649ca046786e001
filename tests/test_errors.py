import numpy as np
import pytest

from sepselect.baselines import cfs_select, fisher_scores, random_select
from sepselect.dataio import Dataset
from sepselect.errors import DataError
from sepselect.kmedoids import kmeanspp_init, pam_cluster, pam_sweep

_RNG = np.random.default_rng(0)
_DATA = Dataset(
    _RNG.random((12, 4)),
    np.array(["a", "b", "c"] * 4, dtype=object),
    [f"f{j}" for j in range(4)],
    ["a", "b", "c"],
)
_POINTS = _RNG.random((10, 2))

_COUNT_CALLS = {
    "top": lambda k: fisher_scores(_DATA).top(k),
    "cfs_select": lambda k: cfs_select(_DATA, k),
    "random_select": lambda k: random_select(23, k, 0),
    "kmeanspp_init": lambda k: kmeanspp_init(_POINTS, k, 0),
    "pam_cluster": lambda k: pam_cluster(_POINTS, k, 0),
    "pam_sweep": lambda k: pam_sweep(_POINTS, k),
}


@pytest.mark.parametrize("k", [2.5, 3.0, True, "3", None, 0, 24])
@pytest.mark.parametrize("call", sorted(_COUNT_CALLS))
def test_counts_that_are_not_integers_in_range_are_data_errors(call, k):
    # 2.5 once gave 3 features from cfs_select and a TypeError from the
    # others, and True gave 1 feature
    with pytest.raises(DataError, match=r"^k must be an integer in \["):
        _COUNT_CALLS[call](k)


@pytest.mark.parametrize("call", sorted(_COUNT_CALLS))
def test_counts_in_range_are_taken(call):
    _COUNT_CALLS[call](np.int64(3))
