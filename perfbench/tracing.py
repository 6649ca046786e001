"""Per-layer tracing of sepselect from outside the package.

install() replaces public functions on the sepselect modules with wrappers
that record a span per call: name, start, end, parent span and run id.
Spans stay in memory; the caller writes them out when the run ends. Counters
come only from public arguments and outputs: PAM's `cost_log`, the
bisection warnings t-SNE emits, the `counter` argument of `mss`, the test
rows handed to `evaluate`, and the NaN cells of the cross-validated curve.

A layer's self time is the time its spans cover minus the time covered by
their child spans; the self times of all spans of one run add up to the
duration of the root span (`cli.main`).
"""

import time
import warnings
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

# span name -> per-layer metric (without the `_s` suffix)
LAYER_OF_SPAN = {
    "cli.main": "cli.self",
    "dataio.load_csv": "dataio.load",
    "dataio.minmax_normalize": "dataio.load",
    "pipeline.select_features": "pipeline.self",
    "pipeline.mss_curve_cv": "pipeline.self",
    "pipeline.select_at_k": "pipeline.self",
    "pipeline.validation_mss": "pipeline.validation",
    "separability.build_feature_space": "separability.build",
    "tsne.embed": "tsne.descent",
    "tsne.conditional_affinities": "tsne.affinities",
    "kmedoids.pam_cluster": "kmedoids.pam",
    "kmedoids.kmeanspp_init": "kmedoids.init",
    "validity.mss": "validity.mss",
    "knee.kneedle": "knee.detect",
    "knee.chord_difference_argmax": "knee.detect",
    "baselines.relieff_weights": "baselines.relieff",
    "baselines.fisher_scores": "baselines.fisher",
    "baselines.cfs_select": "baselines.cfs",
    "classify.evaluate": "classify.knn",
}

LAYERS = sorted(set(LAYER_OF_SPAN.values()))

COUNTERS = (
    "kmedoids.pam_calls",
    "kmedoids.swap_rounds",
    "validity.distance_evals",
    "tsne.embed_calls",
    "tsne.bisect_fallbacks",
    "classify.predict_rows",
    "pipeline.undefined_cells",
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    run_id: str


class Tracer:
    """Span and counter recorder for one run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counters = Counter({name: 0 for name in COUNTERS})
        self._stack = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span_id = len(self.spans) + len(self._stack)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, name, parent, start, end, self.run_id))

        return traced

    def self_times(self):
        """Self seconds per layer, every layer present (0 when not run)."""
        child_time = Counter()
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            out[LAYER_OF_SPAN[s.name]] += (s.end - s.start) - child_time[s.id]
        return out

    def root_seconds(self):
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def span_records(self):
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)]


def install(tracer):
    """Wrap the public functions each layer is entered through.

    Functions are replaced on the module whose globals the caller looks them
    up in (for example `pipeline.pam_cluster`, not `kmedoids.pam_cluster`),
    so calls made inside the package are traced too.
    """
    from sepselect import cli, kmedoids, pipeline, tsne
    from sepselect.validity import DistanceCounter

    def plain(module, attr, name):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr)))

    def shared(modules, attr, name):
        traced = tracer.wrap(name, getattr(modules[0], attr))
        for module in modules:
            setattr(module, attr, traced)

    counters = tracer.counters

    pam = pipeline.pam_cluster

    def pam_cluster(points, k, seed, restarts=3, cost_log=None):
        log = [] if cost_log is None else cost_log
        before = len(log)
        result = pam(points, k, seed, restarts=restarts, cost_log=log)
        counters["kmedoids.pam_calls"] += 1
        counters["kmedoids.swap_rounds"] += len(log) - before
        return result

    mss = pipeline.mss

    def counted_mss(points, clustering, counter=None):
        c = DistanceCounter() if counter is None else counter
        before = c.evaluations
        result = mss(points, clustering, counter=c)
        counters["validity.distance_evals"] += c.evaluations - before
        return result

    embed = pipeline.embed

    def counted_embed(*args, **kwargs):
        counters["tsne.embed_calls"] += 1
        return embed(*args, **kwargs)

    affinities = tsne.conditional_affinities

    def counted_affinities(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = affinities(*args, **kwargs)
        for w in caught:
            if "bandwidth bisection" in str(w.message):
                counters["tsne.bisect_fallbacks"] += 1
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

    evaluate = cli.evaluate

    def counted_evaluate(train, test, subset, n_neighbors=5):
        counters["classify.predict_rows"] += test.n_instances
        return evaluate(train, test, subset, n_neighbors=n_neighbors)

    curve_cv = pipeline.mss_curve_cv

    def counted_curve_cv(train, cfg):
        curve = curve_cv(train, cfg)
        counters["pipeline.undefined_cells"] += int(np.sum(~np.isfinite(curve.fold_values)))
        return curve

    pipeline.pam_cluster = tracer.wrap("kmedoids.pam_cluster", pam_cluster)
    pipeline.mss = tracer.wrap("validity.mss", counted_mss)
    pipeline.embed = tracer.wrap("tsne.embed", counted_embed)
    tsne.conditional_affinities = tracer.wrap("tsne.conditional_affinities", counted_affinities)
    cli.evaluate = tracer.wrap("classify.evaluate", counted_evaluate)
    pipeline.mss_curve_cv = tracer.wrap("pipeline.mss_curve_cv", counted_curve_cv)

    plain(kmedoids, "kmeanspp_init", "kmedoids.kmeanspp_init")
    plain(cli, "load_csv", "dataio.load_csv")
    plain(cli, "minmax_normalize", "dataio.minmax_normalize")
    plain(cli, "select_features", "pipeline.select_features")
    shared([cli, pipeline], "select_at_k", "pipeline.select_at_k")
    plain(pipeline, "validation_mss", "pipeline.validation_mss")
    plain(pipeline, "build_feature_space", "separability.build_feature_space")
    plain(pipeline, "kneedle", "knee.kneedle")
    plain(pipeline, "chord_difference_argmax", "knee.chord_difference_argmax")
    plain(cli, "relieff_weights", "baselines.relieff_weights")
    plain(cli, "fisher_scores", "baselines.fisher_scores")
    plain(cli, "cfs_select", "baselines.cfs_select")
    return tracer.wrap("cli.main", cli.main)
