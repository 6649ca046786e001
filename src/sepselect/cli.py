"""Command-line surface: selection, method comparison, baselines,
evaluation and embedding export.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Environment override: SEPSELECT_OUTPUT_DIR (default output directory).
The report file is fully deterministic for a fixed config and seed;
wall-clock timings go to timings.txt and stdout only.
"""

import argparse
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .baselines import (
    DEFAULT_RELIEFF_NEIGHBORS,
    cfs_select,
    check_relieff_neighbors,
    fisher_scores,
    random_select,
    relieff_weights,
)
from .classify import DEFAULT_NEIGHBORS, check_neighbors, evaluate
from .dataio import TRAIN_FRACTION, load_csv, minmax_normalize, split_train_test
from .errors import DataError, NumericalError
from .forkmap import run_tasks, settle
from .pipeline import SelectionConfig, index_curves, select_at_k, select_features
from .separability import build_feature_space, pair_column_names
from .svgplot import LineChart, ScatterChart
from .tsne import embed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_BASELINES = ("relieff", "fisher", "cfs", "random")


@dataclass
class RunConfig:
    """Everything one run needs; echoed into the report for reproducibility."""

    input_path: str
    label_column: str
    selection: SelectionConfig
    n_neighbors: int
    output_dir: str


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _env_output_dir():
    return os.environ.get("SEPSELECT_OUTPUT_DIR", "sepselect-out")


def build_parser():
    parser = _Parser(
        prog="sepselect",
        description=(
            "Automatic feature subset selection: embeds features by their "
            "class-pair separability, clusters the embedding for every k, and "
            "picks the knee of the cross-validated validity curve."
        ),
        epilog="Environment: SEPSELECT_OUTPUT_DIR overrides the default output directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_selection=True):
        # selection options default to SUPPRESS and are stored under their
        # SelectionConfig field names, so the defaults live in that class only
        def selection(flag, dest, type_, help_=None):
            p.add_argument(flag, dest=dest, type=type_, default=argparse.SUPPRESS, help=help_)

        p.add_argument("--input", required=True, help="CSV file (header row required)")
        p.add_argument("--label", required=True, help="label column name or zero-based index")
        p.add_argument("--seed", type=int, required=True, help="base seed for all randomness")
        p.add_argument("--output-dir", default=None, help="artifact directory")
        if with_selection:
            selection("--perplexity", "perplexity", float)
            selection("--tsne-iterations", "tsne_iterations", int)
            selection("--folds", "fold_count", int)
            selection("--k-max", "k_max", int, "cap the clustering sweep")
            selection("--knee-sensitivity", "knee_sensitivity", float)
            selection("--smoothing-window", "smoothing_window", int)
        p.add_argument(
            "--neighbors", type=int, default=DEFAULT_NEIGHBORS, help="KNN neighbor count"
        )

    p_select = sub.add_parser("select", help="run the full selection pipeline")
    common(p_select)
    p_select.add_argument("--plots", action="store_true", help="emit SVG charts")
    p_select.add_argument(
        "--index-curves",
        action="store_true",
        help="also compute silhouette/simplified/mean-simplified curves on the final embedding",
    )
    p_select.set_defaults(func=cmd_select)

    p_compare = sub.add_parser(
        "compare", help="selection vs baseline filters at the same subset size"
    )
    common(p_compare)
    p_compare.add_argument("--repetitions", type=int, default=10)
    p_compare.add_argument("--relieff-neighbors", type=int, default=DEFAULT_RELIEFF_NEIGHBORS)
    p_compare.set_defaults(func=cmd_compare)

    p_base = sub.add_parser("baseline", help="run one baseline filter at a given k")
    common(p_base, with_selection=False)
    p_base.add_argument("--method", required=True, choices=_BASELINES)
    p_base.add_argument("--k", type=int, required=True)
    p_base.add_argument("--relieff-neighbors", type=int, default=DEFAULT_RELIEFF_NEIGHBORS)
    p_base.set_defaults(func=cmd_baseline)

    p_eval = sub.add_parser("evaluate", help="KNN-evaluate a feature subset")
    common(p_eval, with_selection=False)
    p_eval.add_argument(
        "--features",
        required=True,
        help="comma-separated feature indices or names, or 'all'",
    )
    p_eval.add_argument("--train-fraction", type=float, default=TRAIN_FRACTION)
    p_eval.set_defaults(func=cmd_evaluate)

    p_embed = sub.add_parser("embed-only", help="export the feature embedding")
    common(p_embed)
    p_embed.add_argument(
        "--export-z", action="store_true", help="also export the separability matrix"
    )
    p_embed.set_defaults(func=cmd_embed_only)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _run_config(args):
    given = {f.name: getattr(args, f.name) for f in fields(SelectionConfig) if f.name in args}
    return RunConfig(
        input_path=args.input,
        label_column=args.label,
        selection=SelectionConfig(**given),
        n_neighbors=args.neighbors,
        output_dir=args.output_dir if args.output_dir is not None else _env_output_dir(),
    )


def _load_normalized(cfg):
    return minmax_normalize(load_csv(cfg.input_path, cfg.label_column))


def _outdir(cfg):
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_table(path, header, rows):
    """CSV of a header and rows of cells (str(cell) each), one line each."""
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _config_echo(cfg):
    lines = ["config:", f"  input: {cfg.input_path}", f"  label_column: {cfg.label_column}"]
    for f in fields(SelectionConfig):
        value = getattr(cfg.selection, f.name)
        lines.append(f"  {f.name}: {'none' if value is None else repr(value)}")
    lines.append(f"  n_neighbors: {cfg.n_neighbors}")
    return lines


def cmd_select(args):
    cfg = _run_config(args)
    data = _load_normalized(cfg)
    outdir = _outdir(cfg)

    t0 = time.perf_counter()
    result = select_features(data, cfg.selection)
    select_seconds = time.perf_counter() - t0

    lines = ["selection report", "================", ""]
    lines.extend(_config_echo(cfg))
    lines += [
        "",
        "result:",
        f"  k_min: {result.k_min}",
        f"  knee_source: {result.knee_source}",
        "",
        f"selected features ({result.k_min}):",
    ]
    for j, name in zip(result.selected_features, result.selected_names):
        lines.append(f"  {j} {name}")
    lines += ["", "averaged validity curve:"]
    for k, v in zip(result.curve.ks, result.curve.averaged):
        lines.append(f"  k={int(k)} {float(v)!r}")
    _write(os.path.join(outdir, "report.txt"), "\n".join(lines) + "\n")

    curve = result.curve
    header = ["k", "averaged"] + [f"fold_{f}" for f in range(len(curve.fold_values))]
    values = np.column_stack([curve.averaged, curve.fold_values.T])
    _write_table(os.path.join(outdir, "curve.csv"), header, _float_rows(curve.ks, values))
    _write_embedding_csv(
        os.path.join(outdir, "embedding.csv"), data.feature_names, result.embedding
    )
    _write(
        os.path.join(outdir, "timings.txt"),
        f"selection_seconds: {select_seconds!r}\n",
    )

    if args.index_curves:
        ks = result.curve.ks
        curves = index_curves(result.embedding, ks)
        values = np.column_stack([curves.silhouette, curves.simplified, curves.mean_simplified])
        _write_table(
            os.path.join(outdir, "indices.csv"),
            ["k", "silhouette", "ss", "mss"],
            _float_rows(ks, values),
        )
        if args.plots:
            chart = LineChart(title="validity indices", x_label="k", y_label="index")
            chart.add_series(ks, curves.silhouette, label="silhouette")
            chart.add_series(ks, curves.simplified, label="simplified")
            chart.add_series(ks, curves.mean_simplified, label="mean simplified")
            chart.add_vline(result.k_min, label=f"k={result.k_min}")
            chart.save(os.path.join(outdir, "indices.svg"))

    if args.plots:
        chart = LineChart(title="averaged validity curve", x_label="k", y_label="index")
        chart.add_series(result.curve.ks, result.curve.averaged, label="mean simplified")
        chart.add_vline(result.k_min, label=f"k={result.k_min}")
        chart.save(os.path.join(outdir, "curve.svg"))

        coords = result.embedding
        scatter = ScatterChart(title="feature embedding")
        mask = np.zeros(len(coords), dtype=bool)
        mask[result.selected_features] = True
        scatter.add_points(coords[~mask, 0], coords[~mask, 1], label="features")
        scatter.add_points(
            coords[mask, 0], coords[mask, 1], label="selected", radius=5.0, filled=False
        )
        scatter.save(os.path.join(outdir, "embedding.svg"))

    print(f"k_min: {result.k_min} ({result.knee_source})")
    print("selected:", ", ".join(result.selected_names))
    print(f"selection took {select_seconds:.2f} s; report in {outdir}")
    return EXIT_OK


def _float_rows(keys, values):
    """One row per key (a name or a k): the key, then the repr of each float
    in its row of values."""
    return [[key, *(repr(float(v)) for v in row)] for key, row in zip(keys, values)]


def _write_embedding_csv(path, feature_names, coords):
    _write_table(path, ["feature", "x", "y"], _float_rows(feature_names, coords))


def _baseline_subset(method, train, k, seed, relieff_neighbors):
    if method == "relieff":
        return relieff_weights(train, neighbors=relieff_neighbors, seed=seed).top(k)
    if method == "fisher":
        return fisher_scores(train).top(k)
    if method == "cfs":
        return cfs_select(train, k)
    if method == "random":
        return random_select(train.n_features, k, seed)
    raise DataError(f"unknown baseline method '{method}'")


def cmd_baseline(args):
    cfg = _run_config(args)
    data = _load_normalized(cfg)
    seed = cfg.selection.seed
    subset = _baseline_subset(args.method, data, args.k, seed, args.relieff_neighbors)
    print(f"# method={args.method} k={args.k} seed={seed} input={cfg.input_path}")
    for j in subset:
        print(f"{j},{data.feature_names[j]}")
    if args.output_dir is not None:
        outdir = _outdir(cfg)
        rows = [(j, data.feature_names[j]) for j in subset]
        _write_table(os.path.join(outdir, "subset.csv"), ["index", "feature"], rows)
    return EXIT_OK


def _parse_features(spec_text, data):
    if spec_text.strip() == "all":
        return list(range(data.n_features))
    subset = []
    name_lut = {n: i for i, n in enumerate(data.feature_names)}
    for token in spec_text.split(","):
        token = token.strip()
        if not token:
            continue
        if token in name_lut:
            subset.append(name_lut[token])
        else:
            try:
                subset.append(int(token))
            except ValueError:
                raise DataError(f"unknown feature '{token}'") from None
    if not subset:
        raise DataError("empty feature list")
    return subset


def cmd_evaluate(args):
    cfg = _run_config(args)
    data = _load_normalized(cfg)
    subset = _parse_features(args.features, data)
    train, test = split_train_test(data, cfg.selection.seed, args.train_fraction)
    report = evaluate(train, test, subset, n_neighbors=cfg.n_neighbors)
    print(
        f"# input={cfg.input_path} seed={cfg.selection.seed} "
        f"train_fraction={args.train_fraction} neighbors={cfg.n_neighbors} "
        f"features={args.features}"
    )
    print(f"subset size: {len(subset)}")
    print(f"accuracy: {report.accuracy:.4f}")
    print(f"balanced_f: {report.balanced_f:.4f}")
    print(f"predict_seconds: {report.predict_time:.6f}")
    return EXIT_OK


def cmd_embed_only(args):
    cfg = _run_config(args)
    data = _load_normalized(cfg)
    outdir = _outdir(cfg)
    z = build_feature_space(data)
    sel = cfg.selection
    coords = embed(z, sel.perplexity, sel.tsne_iterations, sel.seed)
    _write_embedding_csv(os.path.join(outdir, "embedding.csv"), data.feature_names, coords)
    if args.export_z:
        header = ["feature"] + pair_column_names(data.class_ids)
        _write_table(os.path.join(outdir, "z.csv"), header, _float_rows(data.feature_names, z))
    print(
        f"# input={cfg.input_path} seed={sel.seed} perplexity={sel.perplexity} "
        f"tsne_iterations={sel.tsne_iterations}"
    )
    print(f"embedding written to {outdir}")
    return EXIT_OK


def cmd_compare(args):
    cfg = _run_config(args)
    data = _load_normalized(cfg)
    reps = args.repetitions
    if reps < 1:
        raise DataError("repetitions must be >= 1")
    sel_cfg = cfg.selection
    train0, test0 = split_train_test(data, sel_cfg.seed)
    # bad neighbor counts fail here, not after the selection's folds; every
    # split has as many training rows as the first, but its own class sizes
    check_neighbors(cfg.n_neighbors, train0.n_instances)
    for r in range(reps):
        train = train0 if r == 0 else split_train_test(data, sel_cfg.seed + r)[0]
        check_relieff_neighbors(train, args.relieff_neighbors)
    outdir = _outdir(cfg)

    # k_min from a full CV selection on the first repetition's training split
    result = select_features(train0, sel_cfg)
    k_min = result.k_min
    methods = ("sepselect",) + _BASELINES

    def repetition(r):
        """(accuracy, balanced F) per method, and the predict seconds of
        the selected subset and of all features, on repetition r's split."""
        rep_seed = sel_cfg.seed + r
        if r == 0:
            # same split, seed and k as the selection's final clustering
            train, test, selected = train0, test0, result.selected_features
        else:
            train, test = split_train_test(data, rep_seed)
            _, clustering = select_at_k(train, k_min, replace(sel_cfg, seed=rep_seed))
            selected = clustering.medoids.tolist()
        subsets = {"sepselect": selected}
        for m in _BASELINES:
            subsets[m] = _baseline_subset(m, train, k_min, rep_seed, args.relieff_neighbors)
        reports = [evaluate(train, test, subsets[m], n_neighbors=cfg.n_neighbors) for m in methods]
        full = evaluate(
            train, test, list(range(data.n_features)), n_neighbors=cfg.n_neighbors
        )
        scores = [(report.accuracy, report.balanced_f) for report in reports]
        return scores, reports[0].predict_time, full.predict_time

    # the repetitions are independent: run them side by side, settle them in order
    tasks = [partial(repetition, r) for r in range(reps)]
    outcomes = run_tasks(tasks, [f"repetition {r}" for r in range(reps)])
    acc = {m: [] for m in methods}
    bal = {m: [] for m in methods}
    subset_times, all_times = [], []
    for outcome in outcomes:
        scores, subset_time, all_time = settle(outcome)
        for m, (accuracy, balanced_f) in zip(methods, scores):
            acc[m].append(accuracy)
            bal[m].append(balanced_f)
        subset_times.append(subset_time)
        all_times.append(all_time)

    t_subset = float(np.mean(subset_times))
    t_all = float(np.mean(all_times))
    saving = 1.0 - t_subset / t_all if t_all > 0 else 0.0

    lines = [f"method comparison (k_min={k_min}, repetitions={reps})", ""]
    lines.extend(_config_echo(cfg))
    lines += [
        f"  repetitions: {reps}",
        f"  relieff_neighbors: {args.relieff_neighbors}",
        "",
        "mean metrics over repetitions:",
        f"  {'method':<10} {'accuracy':>9} {'balanced_f':>11}",
    ]
    for m in methods:
        lines.append(f"  {m:<10} {np.mean(acc[m]):>9.4f} {np.mean(bal[m]):>11.4f}")
    lines += [
        "",
        "prediction timing (mean seconds):",
        f"  subset (k={k_min}): {t_subset:.6f}",
        f"  all features ({data.n_features}): {t_all:.6f}",
        f"  estimated time saving: {100.0 * saving:.1f}%",
    ]
    text = "\n".join(lines) + "\n"
    _write(os.path.join(outdir, "compare.txt"), text)
    print(text, end="")
    return EXIT_OK
