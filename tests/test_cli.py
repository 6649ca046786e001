import inspect
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from _datasets import redundant_groups, write_csv
from sepselect import cli, pipeline
from sepselect.baselines import relieff_weights
from sepselect.classify import evaluate
from sepselect.cli import _run_config, build_parser, main
from sepselect.dataio import split_train_test
from sepselect.pipeline import SelectionConfig


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    d, _ = redundant_groups(
        n_instances=72,
        n_classes=3,
        group_sizes=[3, 3, 2],
        strengths=[2.0, 2.0, 1.5],
        noise=0.35,
        seed=5,
    )
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    write_csv(str(path), d)
    return str(path)


def _select_args(csv_path, outdir, extra=()):
    return [
        "select",
        "--input", csv_path,
        "--label", "label",
        "--seed", "11",
        "--perplexity", "4",
        "--tsne-iterations", "120",
        "--folds", "4",
        "--output-dir", outdir,
        *extra,
    ]


class TestSelect:
    def test_happy_path_writes_artifacts(self, csv_path, tmp_path, capsys):
        outdir = str(tmp_path / "out")
        assert main(_select_args(csv_path, outdir)) == 0
        report = open(os.path.join(outdir, "report.txt")).read()
        assert "k_min:" in report
        assert "selected features" in report
        assert os.path.exists(os.path.join(outdir, "curve.csv"))
        assert os.path.exists(os.path.join(outdir, "embedding.csv"))
        assert os.path.exists(os.path.join(outdir, "timings.txt"))
        assert "k_min" in capsys.readouterr().out

    def test_reports_are_byte_identical_across_runs(self, csv_path, tmp_path):
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert main(_select_args(csv_path, out1)) == 0
        assert main(_select_args(csv_path, out2)) == 0
        b1 = open(os.path.join(out1, "report.txt"), "rb").read()
        b2 = open(os.path.join(out2, "report.txt"), "rb").read()
        assert b1 == b2

    def test_k_max_restricts_curve(self, csv_path, tmp_path):
        outdir = str(tmp_path / "cap")
        assert main(_select_args(csv_path, outdir, ["--k-max", "5"])) == 0
        lines = open(os.path.join(outdir, "curve.csv")).read().strip().splitlines()
        ks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ks == [2, 3, 4, 5]

    def test_plots_and_index_curves(self, csv_path, tmp_path):
        outdir = str(tmp_path / "plots")
        args = _select_args(csv_path, outdir, ["--plots", "--index-curves", "--k-max", "6"])
        assert main(args) == 0
        for name in ("curve.svg", "embedding.svg", "indices.svg"):
            content = open(os.path.join(outdir, name)).read()
            assert content.startswith("<svg")
        indices = open(os.path.join(outdir, "indices.csv")).read().splitlines()
        assert indices[0] == "k,silhouette,ss,mss"

    def test_missing_input_exits_2_and_names_path(self, tmp_path, capsys):
        outdir = str(tmp_path / "x")
        code = main(_select_args("/nope/missing.csv", outdir))
        assert code == 2
        assert "/nope/missing.csv" in capsys.readouterr().err

    def test_env_output_dir_honored(self, csv_path, tmp_path, monkeypatch):
        envdir = str(tmp_path / "from-env")
        monkeypatch.setenv("SEPSELECT_OUTPUT_DIR", envdir)
        args = [a for a in _select_args(csv_path, "ignored") if a != "ignored"]
        args.remove("--output-dir")
        assert main(args + ["--k-max", "5"]) == 0
        assert os.path.exists(os.path.join(envdir, "report.txt"))

    def test_unknown_environment_settings_are_ignored(self, csv_path, tmp_path, monkeypatch):
        monkeypatch.setenv("SEPSELECT_THREADS", "x")
        assert main(_select_args(csv_path, str(tmp_path / "env"), ["--k-max", "5"])) == 0

    def test_config_echo_lists_every_selection_setting(self, csv_path, tmp_path):
        outdir = str(tmp_path / "echo")
        assert main(_select_args(csv_path, outdir, ["--k-max", "5"])) == 0
        report = open(os.path.join(outdir, "report.txt")).read().splitlines()
        start = report.index("config:")
        assert report[start + 1:start + 11] == [
            f"  input: {csv_path}",
            "  label_column: label",
            "  seed: 11",
            "  perplexity: 4.0",
            "  tsne_iterations: 120",
            "  fold_count: 4",
            "  k_max: 5",
            "  knee_sensitivity: 1.0",
            "  smoothing_window: 0",
            "  n_neighbors: 5",
        ]
        assert report[start + 11] == ""

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--knee-sensitivity", "nan"),
            ("--knee-sensitivity", "inf"),
            ("--perplexity", "nan"),
            ("--perplexity", "inf"),
        ],
    )
    def test_non_finite_options_are_data_errors_before_any_fold(
        self, csv_path, tmp_path, capsys, monkeypatch, flag, value
    ):
        def no_fold_work(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "select_features", no_fold_work)
        outdir = str(tmp_path / "out")
        assert main(_select_args(csv_path, outdir, [flag, value])) == cli.EXIT_DATA
        assert "must be a positive finite number" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(outdir, "report.txt"))


    @pytest.mark.parametrize("value", ["50", "0.5"])
    def test_perplexity_outside_feature_range_fails_before_any_fold(
        self, csv_path, tmp_path, capsys, monkeypatch, value
    ):
        calls = []
        real = pipeline.build_feature_space

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "build_feature_space", counting)
        outdir = str(tmp_path / "out")
        assert main(_select_args(csv_path, outdir, ["--perplexity", value])) == cli.EXIT_DATA
        assert "perplexity must lie in [1, M-1] = [1, 7]" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--tsne-iterations", "0", "tsne_iterations must be an integer >= 1, got 0"),
            ("--tsne-iterations", "-5", "tsne_iterations must be an integer >= 1, got -5"),
            ("--smoothing-window", "-1", "smoothing_window must be an integer >= 0, got -1"),
            ("--folds", "1", "fold_count must be an integer >= 2, got 1"),
            ("--seed", "-1", "seed must be an integer >= 0, got -1"),
        ],
    )
    def test_out_of_range_counts_fail_before_any_fold(
        self, csv_path, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        # these once failed only inside the folds (tsne_iterations) or after
        # the whole sweep (smoothing_window, at knee detection)
        calls = []
        real = pipeline.build_feature_space

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "build_feature_space", counting)
        outdir = str(tmp_path / "out")
        assert main(_select_args(csv_path, outdir, [flag, value])) == cli.EXIT_DATA
        assert message in capsys.readouterr().err
        assert calls == []

    def test_one_cpu_and_all_cpus_write_identical_artifacts(self, csv_path, tmp_path):
        # the folds run in one process per usable CPU; pinned to one CPU
        # they all run in the calling process
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        script = "import sys; from sepselect.cli import main; sys.exit(main(sys.argv[1:]))"
        cpu = min(os.sched_getaffinity(0))
        runs = {"one": lambda: os.sched_setaffinity(0, {cpu}), "all": None}
        for name, pin in runs.items():
            args = _select_args(csv_path, str(tmp_path / name), ["--index-curves"])
            proc = subprocess.run(
                [sys.executable, "-c", script, *args],
                env=env, preexec_fn=pin, capture_output=True, timeout=300, check=False,
            )
            assert proc.returncode == 0, proc.stderr.decode()
        for artifact in ("report.txt", "curve.csv", "indices.csv", "embedding.csv"):
            one, every = (open(tmp_path / run / artifact, "rb").read() for run in runs)
            assert one == every, artifact

    def test_all_artifacts_are_byte_identical_across_runs(self, csv_path, tmp_path):
        runs = [str(tmp_path / name) for name in ("a1", "a2")]
        for outdir in runs:
            assert main(_select_args(csv_path, outdir, ["--index-curves", "--plots"])) == 0
        for name in ("curve.csv", "indices.csv", "embedding.csv"):
            first, second = (open(os.path.join(d, name), "rb").read() for d in runs)
            assert first == second, name


class TestRunConfig:
    def test_omitted_selection_options_take_selection_config_defaults(self):
        args = build_parser().parse_args(
            ["select", "--input", "x.csv", "--label", "label", "--seed", "3"]
        )
        assert _run_config(args).selection == SelectionConfig(seed=3)

    def test_given_options_land_on_their_fields(self):
        args = build_parser().parse_args(
            ["compare", "--input", "x.csv", "--label", "label", "--seed", "3",
             "--folds", "4", "--k-max", "9", "--smoothing-window", "2"]
        )
        assert _run_config(args).selection == SelectionConfig(
            seed=3, fold_count=4, k_max=9, smoothing_window=2
        )

    def test_other_defaults_match_the_functions_they_feed(self):
        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        common = ["--input", "x.csv", "--label", "label", "--seed", "3"]
        parser = build_parser()
        assert parser.parse_args(["select", *common]).neighbors == default(
            evaluate, "n_neighbors"
        )
        relieff = default(relieff_weights, "neighbors")
        assert parser.parse_args(["compare", *common]).relieff_neighbors == relieff
        base = parser.parse_args(["baseline", *common, "--method", "relieff", "--k", "2"])
        assert base.relieff_neighbors == relieff
        evaluate_args = parser.parse_args(["evaluate", *common, "--features", "all"])
        assert evaluate_args.train_fraction == default(split_train_test, "train_fraction")

    def test_threads_flag_is_gone(self, csv_path):
        assert main(["select", "--input", csv_path, "--label", "label", "--seed", "1",
                     "--threads", "2"]) == 1


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, csv_path):
        assert main(["select", "--input", csv_path, "--bogus"]) == 1

    def test_missing_required(self):
        assert main(["select", "--input", "x.csv"]) == 1


class TestBaselineCommand:
    @pytest.mark.parametrize("method", ["relieff", "fisher", "cfs", "random"])
    def test_each_method_emits_k_features(self, csv_path, method, capsys):
        args = [
            "baseline", "--input", csv_path, "--label", "label",
            "--seed", "3", "--method", method, "--k", "4",
            "--relieff-neighbors", "3",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.startswith("#")  # reproduction echo
        lines = [l for l in out.splitlines() if l.strip() and not l.startswith("#")]
        assert len(lines) == 4
        indices = [int(l.split(",")[0]) for l in lines]
        assert len(set(indices)) == 4

    def test_subset_csv_written(self, csv_path, tmp_path):
        outdir = str(tmp_path / "base")
        args = [
            "baseline", "--input", csv_path, "--label", "label",
            "--seed", "3", "--method", "fisher", "--k", "3",
            "--output-dir", outdir,
        ]
        assert main(args) == 0
        content = open(os.path.join(outdir, "subset.csv")).read().splitlines()
        assert content[0] == "index,feature"
        assert len(content) == 4


class TestEvaluateCommand:
    def test_all_features(self, csv_path, capsys):
        args = [
            "evaluate", "--input", csv_path, "--label", "label",
            "--seed", "2", "--features", "all", "--neighbors", "3",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out and "balanced_f:" in out

    def test_subset_by_name_and_index(self, csv_path, capsys):
        args = [
            "evaluate", "--input", csv_path, "--label", "label",
            "--seed", "2", "--features", "f0,3", "--neighbors", "3",
        ]
        assert main(args) == 0
        assert "subset size: 2" in capsys.readouterr().out

    def test_unknown_feature_is_data_error(self, csv_path, capsys):
        args = [
            "evaluate", "--input", csv_path, "--label", "label",
            "--seed", "2", "--features", "nosuch",
        ]
        assert main(args) == 2
        assert "nosuch" in capsys.readouterr().err


class TestEmbedOnly:
    def test_embedding_and_z_export(self, csv_path, tmp_path):
        outdir = str(tmp_path / "emb")
        args = [
            "embed-only", "--input", csv_path, "--label", "label",
            "--seed", "4", "--perplexity", "4", "--tsne-iterations", "100",
            "--output-dir", outdir, "--export-z",
        ]
        assert main(args) == 0
        emb_lines = open(os.path.join(outdir, "embedding.csv")).read().splitlines()
        assert emb_lines[0] == "feature,x,y"
        assert len(emb_lines) == 9  # 8 features + header
        z_lines = open(os.path.join(outdir, "z.csv")).read().splitlines()
        assert z_lines[0].startswith("feature,pair_")
        assert len(z_lines[0].split(",")) == 1 + 9  # 3 classes -> 9 pair columns


def _compare_args(csv_path, outdir):
    return [
        "compare", "--input", csv_path, "--label", "label",
        "--seed", "6", "--perplexity", "4", "--tsne-iterations", "100",
        "--folds", "4", "--repetitions", "2", "--neighbors", "3",
        "--relieff-neighbors", "3", "--output-dir", outdir,
    ]


class TestCompare:
    def test_small_comparison(self, csv_path, tmp_path, capsys):
        outdir = str(tmp_path / "cmp")
        assert main(_compare_args(csv_path, outdir)) == 0
        text = open(os.path.join(outdir, "compare.txt")).read()
        assert "sepselect" in text
        assert "relieff" in text
        assert "time saving" in text
        out = capsys.readouterr().out
        assert "method comparison" in out

    def test_report_is_byte_identical_across_runs_up_to_timing(self, csv_path, tmp_path):
        texts = []
        for run in ("a", "b"):
            outdir = str(tmp_path / run)
            assert main(_compare_args(csv_path, outdir)) == 0
            text = open(os.path.join(outdir, "compare.txt"), "rb").read()
            texts.append(text[: text.index(b"prediction timing")])
        assert texts[0] == texts[1]

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--neighbors", "0", "n_neighbors must be in [1, "),
            ("--neighbors", "500", "n_neighbors must be in [1, "),
            ("--relieff-neighbors", "0", "neighbors must be >= 1"),
            ("--relieff-neighbors", "40", "every class needs more than 40 samples"),
        ],
    )
    def test_bad_neighbour_counts_fail_before_any_fold(
        self, csv_path, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        # these once failed only after the whole cross-validated selection
        calls = []
        real = pipeline.build_feature_space

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "build_feature_space", counting)
        outdir = str(tmp_path / "cmp")
        args = _compare_args(csv_path, outdir)
        args[args.index(flag) + 1] = value
        assert main(args) == cli.EXIT_DATA
        assert message in capsys.readouterr().err
        assert calls == []
        assert not os.path.exists(outdir)

    def test_a_later_repetitions_split_fails_before_any_fold(
        self, csv_path, tmp_path, capsys, monkeypatch
    ):
        # the first split's classes have 19/17/18 training rows, repetition
        # 1's 21/19/14; this once failed only after the whole selection
        calls = []
        real = pipeline.build_feature_space

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "build_feature_space", counting)
        outdir = str(tmp_path / "cmp")
        args = _compare_args(csv_path, outdir)
        args[args.index("--seed") + 1] = "11"
        args[args.index("--relieff-neighbors") + 1] = "15"
        assert main(args) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err == "data error: every class needs more than 15 samples; too small: ['c2']\n"
        assert calls == []
        assert not os.path.exists(outdir)

    def test_first_repetition_reuses_the_selection_clustering(
        self, csv_path, tmp_path, monkeypatch, pin_workers
    ):
        # repetition 0 has the selection's split, seed and k: only the
        # other repetitions cluster again. One worker, so that every call
        # is made, and recorded, in this process.
        pin_workers(1)
        calls = []
        real = cli.select_at_k
        monkeypatch.setattr(cli, "select_at_k", lambda *a: calls.append(a) or real(*a))
        assert main(_compare_args(csv_path, str(tmp_path / "cmp"))) == 0
        assert [cfg.seed for _, _, cfg in calls] == [7]


@pytest.fixture(scope="module")
def tied_csv_path(tmp_path_factory):
    # five exact copies of one column: their separability rows tie, so every
    # embedding at perplexity 3 warns about their rows
    d, _ = redundant_groups(
        n_instances=90,
        n_classes=3,
        group_sizes=[5, 3, 2],
        strengths=[2.0, 2.0, 1.5],
        noise=0.35,
        seed=5,
        exact_copies=True,
    )
    path = tmp_path_factory.mktemp("data") / "tied.csv"
    write_csv(str(path), d)
    return str(path)


def _stable_compare(outdir):
    text = open(os.path.join(outdir, "compare.txt"), "rb").read()
    return text[: text.index(b"prediction timing")]


@pytest.mark.usefixtures("bounded_and_no_child_left")
class TestCompareWorkers:
    """compare runs its repetitions side by side, one task each, after the
    selection's folds and final embedding."""

    def test_output_and_warnings_do_not_depend_on_worker_count(
        self, tied_csv_path, tmp_path, monkeypatch, pin_workers
    ):
        real = cli.select_at_k

        def announced(train, k, cfg):
            warnings.warn(f"clustering with seed {cfg.seed}")
            return real(train, k, cfg)

        monkeypatch.setattr(cli, "select_at_k", announced)
        runs = []
        for workers in (1, 2, 3):
            pin_workers(workers)
            outdir = str(tmp_path / f"w{workers}")
            args = _compare_args(tied_csv_path, outdir)
            args[args.index("--perplexity") + 1] = "3"
            args[args.index("--repetitions") + 1] = "3"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(args) == 0
            runs.append((_stable_compare(outdir), [(w.category, str(w.message)) for w in caught]))
        text, caught = runs[0]
        seeds = [message for _, message in caught if message.startswith("clustering")]
        assert seeds == ["clustering with seed 7", "clustering with seed 8"]
        assert len(caught) > len(seeds)  # the tied rows warn in every embedding
        assert runs[1:] == [runs[0]] * 2

    @pytest.mark.parametrize("workers", [2, 3])
    def test_child_that_dies_in_a_repetition_gives_runtime_error(
        self, workers, csv_path, tmp_path, monkeypatch, pin_workers
    ):
        parent, real = os.getpid(), cli.select_at_k

        def dying(train, k, cfg):
            if os.getpid() != parent:
                os._exit(1)
            return real(train, k, cfg)

        monkeypatch.setattr(cli, "select_at_k", dying)
        pin_workers(workers)
        outdir = str(tmp_path / "cmp")
        with pytest.raises(RuntimeError) as info:
            main(_compare_args(csv_path, outdir))
        assert type(info.value) is RuntimeError
        assert str(info.value) == (
            "the worker process of repetition 1 exited with status 1 without a result"
        )

    def test_at_most_workers_minus_one_children_at_once(
        self, csv_path, tmp_path, monkeypatch, pin_workers
    ):
        children = f"/proc/self/task/{os.getpid()}/children"
        if not os.path.exists(children):
            pytest.skip("the kernel does not list a process's children")
        parent, seen = os.getpid(), []
        real = cli.evaluate

        def counting(*args, **kwargs):
            if os.getpid() == parent:
                with open(children, encoding="ascii") as fh:
                    seen.append(len(fh.read().split()))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "evaluate", counting)
        pin_workers(3)
        args = _compare_args(csv_path, str(tmp_path / "cmp"))
        args[args.index("--repetitions") + 1] = "4"
        assert main(args) == 0
        assert seen and max(seen) == 2
