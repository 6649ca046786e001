"""End-to-end feature selection: separability matrix -> embedding ->
per-k clustering -> cross-validated validity curve -> knee -> subset.

Stages pass plain arrays: build_feature_space gives the (M, C(C-1)/2)
separability array, embed its (M, 2) coordinates, and the clustering and
validity stages take those coordinates.

Fold loop: each fold builds its own separability array and embedding on
the train part, clusters it for every k, and scores the chosen medoid
features against the validation part. Out-of-sample projection of a
fold's embedding is ill-defined, so validation scoring happens in the
raw separability space of the validation part: its array is rebuilt
and its feature-to-feature distances computed once per fold (one
distances.squared_pairwise), then for every k each feature is assigned
to the nearest medoid feature there and the validity index is evaluated
on that geometry. The strategy is isolated in validation_mss()
so an alternative reading is a one-function change.

Workers: the folds and the final embedding of the whole training set
do not depend on each other or on the knee, so select_features hands all
fold_count + 1 of them to forkmap.run_tasks as one list of tasks, and
mss_curve_cv hands it the folds alone. A fold's task holds the training
set and its two row-index arrays from make_folds, and copies each part's
rows only while it builds that part's separability array, in the process
that runs it: the calling process keeps no fold copies of the training
rows while the tasks run. run_tasks runs them on one process
per usable CPU, at most one per task: task t in worker t mod workers,
worker 0 being the calling process (see forkmap.py). Each outcome is
settled where a serial loop would have run its task: the folds in fold
order before the knee, the final embedding after it, so its warnings and
errors follow the knee's. Outputs, warnings and errors do not depend on
the worker count.

Clustering: each fold embedding is clustered for the whole k sweep by
one warm-started pam_sweep, which draws no random numbers; the final
clustering at k_min, like select_at_k's at its k, is a seeded pam_cluster
with k-means++ restarts.

Seeds: the final full-train embedding uses the base seed; fold f uses
base + 1 + f. The final clustering's seed is derived from (base, k)
through SeedSequence, so runs are reproducible.
"""

import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dataio import check_fold_classes, make_folds
from .distances import squared_pairwise
from .errors import DataError, require_integer, require_positive
from .forkmap import run_tasks, settle
from .kmedoids import _assign, pam_cluster, pam_sweep
from .knee import Curve, chord_difference_argmax, kneedle
from .separability import build_feature_space
from .tsne import check_perplexity, embed
from .validity import mss, mss_from_distances, silhouette, simplified_silhouette


@dataclass
class SelectionConfig:
    """Every option of the selection pipeline and its default; echoed
    verbatim into reports. The knee takes none: see knee.py."""

    seed: int = 0
    perplexity: float = 30.0
    tsne_iterations: int = 500  # a cap: the descent stops at its fixed point
    fold_count: int = 5
    k_max: int | None = None  # cap on the clustering sweep; None = all features

    def __post_init__(self):
        require_integer("seed", self.seed, 0)
        require_integer("fold_count", self.fold_count, 2)
        if self.k_max is not None:
            # knee detection needs 3 curve points, k = 2..4
            require_integer("k_max", self.k_max, 4)
        require_positive("perplexity", self.perplexity)
        require_integer("tsne_iterations", self.tsne_iterations, 1)


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
    embedding: np.ndarray  # (M, 2) coordinates of the final embedding
    curve: MSSCurve
    config: SelectionConfig
    knee_source: str = "kneedle"


def _derived_seed(base, k):
    # seed of the final clustering at k; the middle 0 keeps the seeds select_at_k has always used
    return int(np.random.SeedSequence([int(base), 0, int(k)]).generate_state(1)[0])


def validation_mss(d_val, medoid_features):
    """Validity of train-fold medoid features against a validation fold:
    every feature goes to its nearest medoid feature (ties: lowest medoid
    index) in the validation part's raw separability space, whose (M, M)
    distances d_val are np.sqrt(squared_pairwise(z_val))."""
    medoids = np.sort(np.asarray(medoid_features, dtype=int))
    cols = d_val[:, medoids]
    assignment, _ = _assign(cols)
    report = mss_from_distances(cols, assignment)
    return np.nan if report.aggregate is None else report.aggregate


def mss_curve_cv(train, cfg):
    """Fold-averaged validity curve over k in [2, k_max].

    Every fold embeds its own train part (fold-derived t-SNE seed),
    clusters it for each k with one pam_sweep, and scores the medoid
    features on the validation part; folds undefined at some k are skipped
    in the average at that k. The folds run in parallel worker processes
    (see the module docstring); the result does not depend on how many.
    """
    ks, tasks = _fold_tasks(train, cfg)
    return _curve(ks, run_tasks(tasks, _fold_labels(tasks)))


def _fold_tasks(train, cfg):
    """(ks, tasks): the k sweep [2, k_hi] and one zero-argument task per
    fold that returns the fold's validity values over it. Bad sweeps,
    perplexities and folds raise DataError here, before any fold work."""
    m = train.n_features
    k_hi = min(cfg.k_max or m, m)
    ks = np.arange(2, k_hi + 1)
    if len(ks) < 3:
        raise DataError(f"k sweep [2, {k_hi}] too short for knee detection")
    check_perplexity(cfg.perplexity, m)  # every fold embeds the m features

    folds = make_folds(train, cfg.fold_count, cfg.seed)
    check_fold_classes(train, folds)
    tasks = [
        partial(_fold_values, train, tr_idx, val_idx, cfg, f, k_hi)
        for f, (tr_idx, val_idx) in enumerate(folds)
    ]
    return ks, tasks


def _fold_labels(tasks):
    return [f"fold {f}" for f in range(len(tasks))]


def _curve(ks, outcomes):
    """The curve of the folds' outcomes, settled in fold order."""
    fold_values = np.array([settle(outcome) for outcome in outcomes])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
        averaged = np.nanmean(fold_values, axis=0)
    return MSSCurve(ks=ks, fold_values=fold_values, averaged=averaged)


def _fold_values(train, tr_idx, val_idx, cfg, f, k_hi):
    """Validity values of fold f at k = 2..k_hi: the embedding of the train
    part's rows tr_idx (seed base + 1 + f) clustered by one pam_sweep, each
    k's medoid features scored on the validation part's rows val_idx. Each
    part's rows are copied here, in the task, and dropped once its
    separability array is built. The validation part's (M, M) distances
    come after the sweep, so they are not held through it or the embedding."""
    z_tr = build_feature_space(train.select_rows(tr_idx))
    coords = embed(z_tr, cfg.perplexity, cfg.tsne_iterations, cfg.seed + 1 + f)
    sweep = pam_sweep(coords, k_hi)
    d_val = np.sqrt(squared_pairwise(build_feature_space(train.select_rows(val_idx))))
    return np.array([validation_mss(d_val, c.medoids) for c in sweep])


def select_features(train, cfg):
    """Full selection: CV curve -> knee -> final clustering at k_min on the
    whole training set; the selected features are the final medoids. The
    final embedding does not depend on the knee, so it runs beside the
    folds and is settled after the knee."""
    ks, tasks = _fold_tasks(train, cfg)
    labels = _fold_labels(tasks) + ["the final embedding"]
    *fold_outcomes, final = run_tasks(tasks + [partial(_embed_all, train, cfg)], labels)
    curve = _curve(ks, fold_outcomes)
    ks_def, avg_def = curve.defined()
    if len(ks_def) < 3:
        raise DataError("too few defined curve points for knee detection")
    knee_curve = Curve(xs=ks_def.astype(float), ys=avg_def)
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

    embedding = settle(final)
    clustering = pam_cluster(embedding, k_min, _derived_seed(cfg.seed, k_min))
    selected = clustering.medoids.tolist()
    return SelectionResult(
        k_min=k_min,
        selected_features=selected,
        selected_names=[train.feature_names[j] for j in selected],
        embedding=embedding,
        curve=curve,
        config=cfg,
        knee_source=knee_source,
    )


def _embed_all(train, cfg):
    """The (M, 2) embedding of the whole training set, with the base seed."""
    return embed(build_feature_space(train), cfg.perplexity, cfg.tsne_iterations, cfg.seed)


def select_at_k(train, k, cfg):
    """One-shot subset of a known size: embed the full training set and
    cluster at k. Returns (coords, clustering): the (M, 2) embedding and
    its clustering, whose medoids are the selected feature indices."""
    coords = _embed_all(train, cfg)
    return coords, pam_cluster(coords, k, _derived_seed(cfg.seed, k))


@dataclass
class IndexCurves:
    """Silhouette / simplified / mean-simplified values per k on one embedding."""

    ks: np.ndarray
    silhouette: np.ndarray
    simplified: np.ndarray
    mean_simplified: np.ndarray
    clusterings: list = field(default_factory=list)


def index_curves(coords, ks):
    """All three validity indices across a k sweep of one embedding; the
    material for side-by-side curve plots and correlation checks. One
    pam_sweep up to max(ks) supplies the clustering at every k."""
    ks = np.asarray(ks, dtype=int)
    if ks.min() < 2:
        raise DataError(f"k must be >= 2, got {ks.min()}")
    sweep = pam_sweep(coords, int(ks.max()))
    clusterings = [sweep[k - 2] for k in ks]
    mean_simplified = [mss(coords, c).aggregate for c in clusterings]
    return IndexCurves(
        ks=ks,
        silhouette=np.array([silhouette(coords, c).aggregate for c in clusterings]),
        simplified=np.array([simplified_silhouette(coords, c).aggregate for c in clusterings]),
        mean_simplified=np.array([np.nan if v is None else v for v in mean_simplified]),
        clusterings=clusterings,
    )
