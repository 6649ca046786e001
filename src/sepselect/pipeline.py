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

Workers: the folds are independent, so they run on one process per
usable CPU (os.sched_getaffinity), at most one per fold. Fold f runs in
worker f mod workers; worker 0 is the calling process and the others
are forked children that send their folds' outcomes back, pickled,
through a pipe. Where the platform has no os.fork or no
os.sched_getaffinity, or one CPU is usable, every fold runs in the
calling process. Each fold's warnings are recorded and its exception
caught; the caller then replays the folds in fold order, issuing each
fold's warnings and raising the first fold error with its type and
message, as a serial loop would. Outputs do not depend on the worker
count. A child that dies without sending its result raises RuntimeError
naming the fold and the exit status, and every child is reaped before
mss_curve_cv returns or raises.

Clustering: each fold embedding is clustered for the whole k sweep by
one warm-started pam_sweep, which draws no random numbers; the final
clustering at k_min (select_at_k) is a seeded pam_cluster with k-means++
restarts.

Seeds: the final full-train embedding uses the base seed; fold f uses
base + 1 + f. The final clustering's seed is derived from (base, k)
through SeedSequence, so runs are reproducible.
"""

import os
import pickle
import signal
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataio import SplitSpec, check_fold_classes, make_folds
from .distances import cross
from .errors import DataError, require_integer, require_positive
from .kmedoids import _assign, pam_cluster, pam_sweep
from .knee import Curve, chord_difference_argmax, kneedle
from .separability import build_feature_space
from .tsne import Embedding, TsneConfig, check_perplexity, embed
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
        require_integer("tsne_iterations", self.tsne_iterations, 1)
        require_integer("smoothing_window", self.smoothing_window, 0)

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


def _derived_seed(base, k):
    # seed of the final clustering at k; the middle 0 keeps the seeds select_at_k has always used
    return int(np.random.SeedSequence([int(base), 0, int(k)]).generate_state(1)[0])


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
    clusters it for each k with one pam_sweep, and scores the medoid
    features on the validation part; folds undefined at some k are skipped
    in the average at that k. The folds run in parallel worker processes
    (see the module docstring); the result does not depend on how many.
    """
    m = train.n_features
    k_hi = min(cfg.k_max or m, m)
    ks = np.arange(2, k_hi + 1)
    if len(ks) < 3:
        raise DataError(f"k sweep [2, {k_hi}] too short for knee detection")
    check_perplexity(cfg.perplexity, m)  # every fold embeds the m features

    folds = make_folds(train, SplitSpec(fold_count=cfg.fold_count, seed=cfg.seed))
    check_fold_classes(train, folds)
    fold_values = np.array(_fold_rows(folds, cfg, k_hi))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
        averaged = np.nanmean(fold_values, axis=0)
    return MSSCurve(ks=ks, fold_values=fold_values, averaged=averaged)


def _fold_values(tr_part, val_part, cfg, f, k_hi):
    """Validity values of fold f at k = 2..k_hi: the train part's embedding
    (seed base + 1 + f) clustered by one pam_sweep, each k's medoid
    features scored on the validation part."""
    z_tr = build_feature_space(tr_part)
    d_val = validation_distances(build_feature_space(val_part))
    emb = embed(z_tr, cfg.tsne_config(seed=cfg.seed + 1 + f))
    return np.array([validation_mss(d_val, c.medoids) for c in pam_sweep(emb.coords, k_hi)])


def _worker_count(fold_count):
    """Processes the folds run on: the usable CPUs, at most one per fold;
    1 where the platform cannot fork or report the CPUs usable."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), fold_count)


def _run_share(folds, cfg, k_hi, share):
    """{fold: (warnings, error, values)} for the folds of share, run in
    order. Warnings are recorded as (message, category, filename, lineno);
    the share stops at its first error, as no later fold's outcome is
    replayed after it."""
    outcomes = {}
    for f in share:
        values = error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                values = _fold_values(*folds[f], cfg, f, k_hi)
            except Exception as exc:  # replayed by the caller, in fold order
                error = exc
        recorded = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        outcomes[f] = (recorded, error, values)
        if error is not None:
            break
    return outcomes


def _child(write_fd, folds, cfg, k_hi, share):
    """Body of a forked worker: send the share's outcomes, pickled, through
    write_fd and exit without returning; status 0 only once all is sent."""
    status = 1
    try:
        payload = pickle.dumps(_run_share(folds, cfg, k_hi, share))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _replay_warning(message, category, filename, lineno):
    """Issue a recorded warning again as warnings.warn issued it: same
    location, module and per-module registry, so a filter that shows a
    warning once per location still does."""
    module = next(
        (m for m in list(sys.modules.values()) if getattr(m, "__file__", None) == filename), None
    )
    if module is None:
        warnings.warn_explicit(message, category, filename, lineno)
    else:
        registry = vars(module).setdefault("__warningregistry__", {})
        warnings.warn_explicit(message, category, filename, lineno, module.__name__, registry)


def _fold_rows(folds, cfg, k_hi):
    """Every fold's validity values, in fold order, over _worker_count
    processes (see the module docstring). Each fold's warnings are issued
    in fold order and the first fold error is raised after the warnings
    of the folds before it."""
    workers = _worker_count(len(folds))
    shares = [range(w, len(folds), workers) for w in range(workers)]
    children = []  # (pid, read end of its pipe, its share)
    exit_codes = {}  # pid -> exit code, once reaped
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _child(write_fd, folds, cfg, k_hi, share)
            os.close(write_fd)
            children.append((pid, read_fd, share))
        outcomes = _run_share(folds, cfg, k_hi, shares[0])
        lost = {}  # fold -> exit code of the child that ran it and sent nothing
        for pid, read_fd, share in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            exit_codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if exit_codes[pid] == 0 and payload:
                outcomes.update(pickle.loads(payload))
            else:
                lost.update(dict.fromkeys(share, exit_codes[pid]))
    finally:
        for pid, read_fd, _ in children:
            os.close(read_fd)
            if pid not in exit_codes:  # leaving on an error or an interrupt
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    rows = []
    for f in range(len(folds)):
        if f in lost:
            raise RuntimeError(
                f"the worker process of fold {f} exited with status {lost[f]} without a result"
            )
        caught, error, values = outcomes[f]
        for record in caught:
            _replay_warning(*record)
        if error is not None:
            raise error
        rows.append(values)
    return rows


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
    clustering = pam_cluster(embedding.coords, k, _derived_seed(cfg.seed, k))
    return embedding, clustering


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
