"""Automatic feature subset selection for multi-class classification.

Features are mapped into a space describing how well each one separates
every pair of classes, embedded to low dimension, and clustered for every
candidate subset size k; the knee of the cross-validated validity curve
picks the smallest k that still covers the space, and the cluster medoids
are the selected features.
"""

from .baselines import RankedFeatures, cfs_select, fisher_scores, random_select, relieff_weights
from .classify import EvalReport, accuracy, balanced_f, evaluate, knn_predict
from .dataio import Dataset, load_csv, make_folds, minmax_normalize, split_train_test
from .errors import DataError, NumericalError
from .kmedoids import ClusteringResult, kmeanspp_init, pam_cluster, pam_sweep
from .knee import Curve, chord_difference_argmax, kneedle
from .pipeline import (
    IndexCurves,
    MSSCurve,
    SelectionConfig,
    SelectionResult,
    index_curves,
    mss_curve_cv,
    select_at_k,
    select_features,
)
from .separability import build_feature_space, class_stats
from .tsne import (
    conditional_affinities,
    embed,
    kl_divergence,
    low_dim_affinities,
    symmetrize_affinities,
)
from .validity import DistanceCounter, IndexReport, mss, silhouette, simplified_silhouette

__version__ = "0.1.0"

__all__ = [
    "ClusteringResult",
    "Curve",
    "DataError",
    "Dataset",
    "DistanceCounter",
    "EvalReport",
    "IndexCurves",
    "IndexReport",
    "MSSCurve",
    "NumericalError",
    "RankedFeatures",
    "SelectionConfig",
    "SelectionResult",
    "accuracy",
    "balanced_f",
    "build_feature_space",
    "cfs_select",
    "chord_difference_argmax",
    "class_stats",
    "conditional_affinities",
    "embed",
    "evaluate",
    "fisher_scores",
    "index_curves",
    "kl_divergence",
    "kmeanspp_init",
    "kneedle",
    "knn_predict",
    "load_csv",
    "low_dim_affinities",
    "make_folds",
    "minmax_normalize",
    "mss",
    "mss_curve_cv",
    "pam_cluster",
    "pam_sweep",
    "random_select",
    "relieff_weights",
    "select_at_k",
    "select_features",
    "silhouette",
    "simplified_silhouette",
    "split_train_test",
    "symmetrize_affinities",
]
