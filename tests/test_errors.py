import numpy as np
import pytest

from sepselect.baselines import cfs_select, fisher_scores, random_select, relieff_weights
from sepselect.classify import knn_predict
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


# the name each check gives its count -> a call with that count
_OTHER_COUNTS = {
    "n_neighbors": lambda n: knn_predict(_DATA, _DATA, [0, 1], n_neighbors=n),
    "neighbors": lambda n: relieff_weights(_DATA, neighbors=n),
    "restarts": lambda n: pam_cluster(_POINTS, 3, 0, restarts=n),
    "subset index": lambda n: knn_predict(_DATA, _DATA, [n, 0]),
}


@pytest.mark.parametrize("count", [2.5, 2.0, True, "2", None, -1])
@pytest.mark.parametrize("name", sorted(_OTHER_COUNTS))
def test_other_counts_that_are_not_integers_in_range_are_data_errors(name, count):
    # 2.5 once raised TypeError from the first three and IndexError as a
    # subset index; True ran one restart and, as a subset index, column 1
    with pytest.raises(DataError, match=rf"^{name} must be an integer (>= |in \[)"):
        _OTHER_COUNTS[name](count)


@pytest.mark.parametrize("name", sorted(_OTHER_COUNTS))
def test_other_counts_in_range_are_taken(name):
    _OTHER_COUNTS[name](np.int64(2))
