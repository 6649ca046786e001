"""End-to-end feature selection: separability matrix -> embedding ->
per-k clustering -> cross-validated validity curve -> knee -> subset.

Fold loop: each fold builds its own separability matrix and embedding on
the train part, clusters it for every k, and scores the chosen medoid
features against the validation part. Out-of-sample projection of a
fold's embedding is ill-defined, so validation scoring happens in the
raw separability space of the validation part: its matrix is rebuilt
and its feature-to-feature distances computed once per fold, then for
every k each feature is assigned to the nearest medoid feature there and
the validity index is evaluated on that geometry. The strategy is
isolated in validation_mss() so an alternative reading is a one-function
change.

Seeds: the final full-train embedding uses the base seed; fold f uses
base + 1 + f. Per-(stage, k) clustering seeds are derived through
SeedSequence so runs are reproducible and folds stay independent.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataio import SplitSpec, check_fold_classes, make_folds
from .distances import cross
from .errors import DataError, require_positive
from .kmedoids import _assign, pam_cluster
from .knee import Curve, chord_difference_argmax, kneedle
from .separability import build_feature_space
from .tsne import Embedding, TsneConfig, embed
from .validity import mss, mss_from_distances, silhouette, simplified_silhouette


@dataclass
class SelectionConfig:
    """Knobs of the selection pipeline; echoed verbatim into reports."""

    seed: int = 0
    perplexity: float = 30.0
    tsne_iterations: int = 1000
    fold_count: int = 5
    k_max: int | None = None  # cap on the clustering sweep; None = all features
    knee_sensitivity: float = 1.0
    smoothing_window: int = 0

    def __post_init__(self):
        if self.fold_count < 2:
            raise DataError("fold_count must be >= 2")
        if self.k_max is not None and self.k_max < 4:
            raise DataError("k_max must be >= 4 (knee detection needs 3 curve points)")
        require_positive("perplexity", self.perplexity)
        require_positive("knee_sensitivity", self.knee_sensitivity)

    def tsne_config(self, seed):
        return TsneConfig(perplexity=self.perplexity, iterations=self.tsne_iterations, seed=seed)


@dataclass
class MSSCurve:
    """Per-fold and fold-averaged validity values over the k sweep.

    Undefined entries (every cluster a singleton) are NaN; averaged takes
    the mean over the folds that are defined at each k.
    """

    ks: np.ndarray
    fold_values: np.ndarray  # (fold_count, len(ks))
    averaged: np.ndarray

    def defined(self):
        keep = np.isfinite(self.averaged)
        return self.ks[keep], self.averaged[keep]


@dataclass
class SelectionResult:
    """Chosen subset size and members, plus everything needed to reproduce."""

    k_min: int
    selected_features: list
    selected_names: list
    embedding: Embedding
    curve: MSSCurve
    seed: int
    config: SelectionConfig
    knee_source: str = "kneedle"


def _derived_seed(base, stage, k):
    # stage 0 = final full-train clustering, stage f+1 = fold f
    return int(np.random.SeedSequence([int(base), int(stage), int(k)]).generate_state(1)[0])


def validation_distances(z_val):
    """(M, M) raw-space distances among the features of a validation part,
    built one column at a time: column j is cross(z, z[j:j+1]), bitwise
    equal to the matching column of any cross(z, z[medoids]), without the
    (M, M, pair-count) temporary of a single cross(z, z)."""
    z = z_val.z
    d_val = np.empty((z.shape[0], z.shape[0]))
    for j in range(z.shape[0]):
        d_val[:, j] = cross(z, z[j : j + 1])[:, 0]
    return d_val


def validation_mss(d_val, medoid_features):
    """Validity of train-fold medoid features against a validation fold:
    every feature goes to its nearest medoid feature (ties: lowest medoid
    index) in the validation part's raw separability space, whose distances
    d_val come from validation_distances()."""
    medoids = np.sort(np.asarray(medoid_features, dtype=int))
    cols = d_val[:, medoids]
    assignment, _ = _assign(cols)
    report = mss_from_distances(cols, assignment)
    return np.nan if report.aggregate is None else report.aggregate


def mss_curve_cv(train, cfg):
    """Fold-averaged validity curve over k in [2, k_max].

    Every fold embeds its own train part (fold-derived t-SNE seed),
    clusters it for each k, and scores the medoid features on the
    validation part; folds undefined at some k are skipped in the
    average at that k.
    """
    m = train.n_features
    k_hi = min(cfg.k_max or m, m)
    ks = np.arange(2, k_hi + 1)
    if len(ks) < 3:
        raise DataError(f"k sweep [2, {k_hi}] too short for knee detection")

    folds = make_folds(train, SplitSpec(fold_count=cfg.fold_count, seed=cfg.seed))
    check_fold_classes(train, folds)
    fold_values = np.full((cfg.fold_count, len(ks)), np.nan)
    for f, (tr_part, val_part) in enumerate(folds):
        z_tr = build_feature_space(tr_part)
        d_val = validation_distances(build_feature_space(val_part))
        emb = embed(z_tr, cfg.tsne_config(seed=cfg.seed + 1 + f))
        for j, k in enumerate(ks):
            clustering = pam_cluster(emb.coords, int(k), _derived_seed(cfg.seed, f + 1, k))
            fold_values[f, j] = validation_mss(d_val, clustering.medoids)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
        averaged = np.nanmean(fold_values, axis=0)
    return MSSCurve(ks=ks, fold_values=fold_values, averaged=averaged)


def select_features(train, cfg):
    """Full selection: CV curve -> knee -> final clustering at k_min on the
    whole training set; the selected features are the final medoids."""
    curve = mss_curve_cv(train, cfg)
    ks_def, avg_def = curve.defined()
    if len(ks_def) < 3:
        raise DataError("too few defined curve points for knee detection")
    knee_curve = Curve(
        xs=ks_def.astype(float),
        ys=avg_def,
        smoothing_window=cfg.smoothing_window,
        sensitivity=cfg.knee_sensitivity,
    )
    knee_x = kneedle(knee_curve)
    knee_source = "kneedle"
    if knee_x is None:
        knee_x = chord_difference_argmax(knee_curve)
        knee_source = "chord_fallback"
        warnings.warn(
            "no knee detected on the validity curve; "
            "falling back to the chord-difference maximum"
        )
    k_min = int(round(knee_x))

    embedding, clustering = select_at_k(train, k_min, cfg)
    selected = clustering.medoids.tolist()
    return SelectionResult(
        k_min=k_min,
        selected_features=selected,
        selected_names=[train.feature_names[j] for j in selected],
        embedding=embedding,
        curve=curve,
        seed=cfg.seed,
        config=cfg,
        knee_source=knee_source,
    )


def select_at_k(train, k, cfg):
    """One-shot subset of a known size: embed the full training set and
    cluster at k. Returns (embedding, clustering); the medoids are the
    selected feature indices."""
    z = build_feature_space(train)
    embedding = embed(z, cfg.tsne_config(seed=cfg.seed))
    clustering = pam_cluster(embedding.coords, k, _derived_seed(cfg.seed, 0, k))
    return embedding, clustering


@dataclass
class IndexCurves:
    """Silhouette / simplified / mean-simplified values per k on one embedding."""

    ks: np.ndarray
    silhouette: np.ndarray
    simplified: np.ndarray
    mean_simplified: np.ndarray
    clusterings: list = field(default_factory=list)


def index_curves(coords, ks, base_seed):
    """All three validity indices across a k sweep of one embedding; the
    material for side-by-side curve plots and correlation checks."""
    ks = np.asarray(ks, dtype=int)
    clusterings = [pam_cluster(coords, int(k), _derived_seed(base_seed, 0, k)) for k in ks]
    mean_simplified = [mss(coords, c).aggregate for c in clusterings]
    return IndexCurves(
        ks=ks,
        silhouette=np.array([silhouette(coords, c).aggregate for c in clusterings]),
        simplified=np.array([simplified_silhouette(coords, c).aggregate for c in clusterings]),
        mean_simplified=np.array([np.nan if v is None else v for v in mean_simplified]),
        clusterings=clusterings,
    )
