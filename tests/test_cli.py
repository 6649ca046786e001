import inspect
import itertools
import os
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

from _datasets import redundant_groups, write_csv
from sepselect import classify, cli, pipeline
from sepselect.baselines import relieff_weights
from sepselect.classify import evaluate
from sepselect.cli import _selection, build_parser, main
from sepselect.dataio import load_csv, minmax_normalize, split_train_test
from sepselect.errors import NumericalError
from sepselect.pipeline import SelectionConfig
from sepselect.separability import build_feature_space, pair_column_names


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

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"f1,f2,label\n1,2,caf\xe9\n3,4,b\n", "file is not UTF-8: byte 0xe9 cannot be decoded"),
            (
                b"f1,f2,label\n1,2,a\n1_0,4," + b"x" * 140000 + b"\n5,6,b\n",
                "data row 2: field larger than field limit (131072)",
            ),
        ],
        ids=["latin1_byte", "cell_over_field_limit"],
    )
    def test_unreadable_csv_exits_2_with_data_error(self, tmp_path, capsys, body, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(body)
        assert main(_select_args(str(path), str(tmp_path / "out"))) == cli.EXIT_DATA
        assert message in capsys.readouterr().err

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
        assert report[start + 1:start + 8] == [
            f"  input: {csv_path}",
            "  label_column: label",
            "  seed: 11",
            "  perplexity: 4.0",
            "  tsne_iterations: 120",
            "  fold_count: 4",
            "  k_max: 5",
        ]
        assert report[start + 8] == ""

    @pytest.mark.parametrize("flag,value", [("--perplexity", "nan"), ("--perplexity", "inf")])
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
            ("--folds", "1", "fold_count must be an integer >= 2, got 1"),
            ("--seed", "-1", "seed must be an integer >= 0, got -1"),
        ],
    )
    def test_out_of_range_counts_fail_before_any_fold(
        self, csv_path, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        # tsne_iterations once failed only inside the folds
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

    def test_three_features_give_too_short_a_k_sweep_before_any_fold(
        self, tmp_path, capsys, monkeypatch
    ):
        d, _ = redundant_groups(n_instances=30, n_classes=3, group_sizes=[2, 1], seed=2)
        path = str(tmp_path / "three.csv")
        write_csv(path, d)
        calls = []
        real = pipeline.build_feature_space

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "build_feature_space", counting)
        outdir = str(tmp_path / "out")
        args = _select_args(path, outdir, ["--perplexity", "2"])
        assert main(args) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err == "data error: k sweep [2, 3] too short for knee detection\n"
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


class TestSelectionOptions:
    def test_omitted_selection_options_take_selection_config_defaults(self):
        args = build_parser().parse_args(
            ["select", "--input", "x.csv", "--label", "label", "--seed", "3"]
        )
        assert _selection(args) == SelectionConfig(seed=3)

    def test_given_options_land_on_their_fields(self):
        args = build_parser().parse_args(
            ["compare", "--input", "x.csv", "--label", "label", "--seed", "3",
             "--folds", "4", "--k-max", "9", "--tsne-iterations", "80"]
        )
        assert _selection(args) == SelectionConfig(
            seed=3, fold_count=4, k_max=9, tsne_iterations=80
        )

    def test_other_defaults_match_the_functions_they_feed(self):
        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        common = ["--input", "x.csv", "--label", "label", "--seed", "3"]
        parser = build_parser()
        compare = parser.parse_args(["compare", *common])
        assert compare.neighbors == default(evaluate, "n_neighbors")
        relieff = default(relieff_weights, "neighbors")
        assert compare.relieff_neighbors == relieff
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

    @pytest.mark.parametrize(
        "command", [["baseline", "--method", "fisher", "--k", "3"], ["embed-only"], ["select"]]
    )
    def test_neighbors_is_rejected_where_nothing_classifies(
        self, csv_path, tmp_path, capsys, command
    ):
        outdir = tmp_path / "out"
        args = [*command, "--input", csv_path, "--label", "label", "--seed", "3",
                "--output-dir", str(outdir), "--neighbors", "3"]
        assert main(args) == cli.EXIT_USAGE
        assert "unrecognized arguments: --neighbors 3" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "command,flag",
        [
            (["select"], "--knee-sensitivity"),
            (["select"], "--smoothing-window"),
            (["compare"], "--knee-sensitivity"),
            (["compare"], "--smoothing-window"),
            (["embed-only"], "--folds"),
            (["embed-only"], "--k-max"),
            (["embed-only"], "--knee-sensitivity"),
            (["embed-only"], "--smoothing-window"),
            (["evaluate", "--features", "all"], "--output-dir"),
        ],
        ids=lambda param: param if isinstance(param, str) else param[0],
    )
    def test_options_a_command_would_ignore_are_rejected(
        self, csv_path, tmp_path, capsys, command, flag
    ):
        # the knee takes no options, embed-only runs no folds and no sweep,
        # and evaluate writes no file
        outdir = tmp_path / "out"
        args = [*command, "--input", csv_path, "--label", "label", "--seed", "3",
                "--output-dir", str(outdir)]
        if flag != "--output-dir":
            args += [flag, "2"]
        assert main(args) == cli.EXIT_USAGE
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "command,option",
        [
            (["select"], "--perp 5"),
            (["select"], "--tsne 9"),
            (["compare"], "--relieff 3"),
            (["baseline", "--method", "relieff", "--k", "3"], "--relieff 3"),
            (["evaluate", "--features", "all"], "--train 0.5"),
        ],
        ids=lambda param: param if isinstance(param, str) else param[0],
    )
    def test_abbreviated_options_are_rejected(self, csv_path, tmp_path, capsys, command, option):
        # a prefix of a flag is not the flag
        outdir = tmp_path / "out"
        args = [*command, "--input", csv_path, "--label", "label", "--seed", "3", *option.split()]
        if command[0] != "evaluate":
            args += ["--output-dir", str(outdir)]
        assert main(args) == cli.EXIT_USAGE
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert not outdir.exists()


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

    def test_negative_seed_is_data_error(self, csv_path, capsys):
        args = [
            "baseline", "--input", csv_path, "--label", "label",
            "--seed", "-1", "--method", "relieff", "--k", "3",
        ]
        assert main(args) == cli.EXIT_DATA
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err


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

    @pytest.mark.parametrize("features", ["0,0,1", "f0,0"])
    def test_repeated_feature_is_data_error(self, csv_path, capsys, features):
        # a repeated feature once counted twice in every KNN distance
        args = [
            "evaluate", "--input", csv_path, "--label", "label",
            "--seed", "2", "--features", features,
        ]
        assert main(args) == cli.EXIT_DATA
        assert capsys.readouterr().err == "data error: feature 0 is listed more than once\n"

    def test_empty_feature_list_is_data_error(self, csv_path, capsys):
        args = [
            "evaluate", "--input", csv_path, "--label", "label",
            "--seed", "2", "--features", ",",
        ]
        assert main(args) == cli.EXIT_DATA
        assert capsys.readouterr().err == "data error: empty feature list\n"


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
        assert len(z_lines[0].split(",")) == 1 + 3  # 3 classes -> 3 pair columns

    @pytest.mark.parametrize("n_classes", [2, 3, 4, 5])
    def test_z_csv_holds_one_column_per_class_pair(self, n_classes, tmp_path):
        d, _ = redundant_groups(
            n_instances=12 * n_classes, n_classes=n_classes, group_sizes=[3, 3], seed=n_classes
        )
        path, outdir = str(tmp_path / "pairs.csv"), str(tmp_path / "emb")
        write_csv(path, d)
        args = [
            "embed-only", "--input", path, "--label", "label", "--seed", "4",
            "--perplexity", "2", "--tsne-iterations", "20", "--output-dir", outdir, "--export-z",
        ]
        assert main(args) == 0
        data = minmax_normalize(load_csv(path, "label"))
        header, *rows = open(os.path.join(outdir, "z.csv")).read().splitlines()
        assert header.split(",") == ["feature"] + pair_column_names(data.class_ids)
        z = np.array([[float(cell) for cell in row.split(",")[1:]] for row in rows])
        assert np.array_equal(z, build_feature_space(data))


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
        timings = open(os.path.join(outdir, "timings.txt")).read()
        assert "time saving" in timings
        out = capsys.readouterr().out
        assert "method comparison" in out

    def test_report_is_byte_identical_across_runs(self, csv_path, tmp_path):
        texts = []
        for run in ("a", "b"):
            outdir = str(tmp_path / run)
            assert main(_compare_args(csv_path, outdir)) == 0
            texts.append(open(os.path.join(outdir, "compare.txt"), "rb").read())
        assert texts[0] == texts[1]

    def test_wall_clock_goes_to_timings_and_stdout_only(
        self, csv_path, tmp_path, capsys, monkeypatch
    ):
        # the clock that times each KNN run advances by a different step
        # in each run; forked workers take a copy of it
        runs = []
        for step in (0.001, 0.003):
            monkeypatch.setattr(classify.time, "perf_counter", itertools.count(1.0, step).__next__)
            outdir = str(tmp_path / f"step{step}")
            assert main(_compare_args(csv_path, outdir)) == 0
            files = sorted(os.listdir(outdir))
            report, timings = (
                open(os.path.join(outdir, name), "rb").read()
                for name in ("compare.txt", "timings.txt")
            )
            runs.append((files, report, timings, capsys.readouterr().out))
        (files_a, report_a, timings_a, out_a), (files_b, report_b, timings_b, out_b) = runs
        assert files_a == files_b == ["compare.txt", "timings.txt"]
        assert report_a == report_b
        assert b"prediction timing" not in report_a
        assert timings_a != timings_b
        assert timings_a.startswith(b"prediction timing (mean seconds):\n")
        assert out_a.encode() == report_a + timings_a
        assert out_b.encode() == report_b + timings_b

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--neighbors", "0", "n_neighbors must be an integer in [1, "),
            ("--neighbors", "500", "n_neighbors must be an integer in [1, "),
            ("--relieff-neighbors", "0", "neighbors must be an integer >= 1, got 0"),
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

    def test_zero_repetitions_fail_before_any_fold(self, csv_path, tmp_path, capsys, monkeypatch):
        calls = []
        real = pipeline.build_feature_space

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "build_feature_space", counting)
        outdir = str(tmp_path / "cmp")
        args = _compare_args(csv_path, outdir)
        args[args.index("--repetitions") + 1] = "0"
        assert main(args) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err == "data error: repetitions must be an integer >= 1, got 0\n"
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

    def test_no_timed_run_is_the_first_evaluation_of_a_repetition(
        self, csv_path, tmp_path, monkeypatch, pin_workers
    ):
        # a process's first KNN run pays its warm-up; when that was the
        # timed sepselect run, the golden compare printed a saving of -438.8%
        pin_workers(1)
        baseline_subsets, untimed = [], []
        real_subset, real_evaluate = cli._baseline_subset, cli.evaluate

        def baseline_subset(*args):
            baseline_subsets.append(real_subset(*args))
            return baseline_subsets[-1]

        def evaluate(train, test, subset, **kwargs):
            untimed.append(any(subset is s for s in baseline_subsets))
            return real_evaluate(train, test, subset, **kwargs)

        monkeypatch.setattr(cli, "_baseline_subset", baseline_subset)
        monkeypatch.setattr(cli, "evaluate", evaluate)
        assert main(_compare_args(csv_path, str(tmp_path / "cmp"))) == 0
        # per repetition: the four baselines, then sepselect and all features
        assert untimed == ([True] * 4 + [False] * 2) * 2


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


@pytest.mark.usefixtures("bounded_and_no_child_left")
class TestResourceErrors:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_error_in_a_fold_exits_4_with_one_line(
        self, workers, csv_path, tmp_path, capsys, monkeypatch, pin_workers
    ):
        # with 2 workers only the forked child runs out, so the error comes
        # back through the pipe and settle
        parent, real = os.getpid(), pipeline.embed
        message = "Unable to allocate 8.00 GiB for an array"

        def exhausted(*args, **kwargs):
            if workers == 1 or os.getpid() != parent:
                raise MemoryError(message)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "embed", exhausted)
        pin_workers(workers)
        assert main(_select_args(csv_path, str(tmp_path / "out"))) == cli.EXIT_RESOURCE
        assert capsys.readouterr().err == f"resource error: {message}\n"  # no traceback

    def test_memory_error_without_a_message_says_out_of_memory(
        self, csv_path, tmp_path, capsys, monkeypatch, pin_workers
    ):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(pipeline, "embed", exhausted)
        pin_workers(1)
        assert main(_select_args(csv_path, str(tmp_path / "out"))) == cli.EXIT_RESOURCE
        assert capsys.readouterr().err == "resource error: out of memory\n"


    def test_worker_killed_by_a_signal_exits_4_with_one_line(
        self, csv_path, tmp_path, capsys, monkeypatch, pin_workers
    ):
        # the forked child kills itself in its first task, fold 1; a worker
        # that exits with a status stays a RuntimeError (TestCompareWorkers)
        parent, real = os.getpid(), pipeline.embed

        def killed(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "embed", killed)
        pin_workers(2)
        assert main(_select_args(csv_path, str(tmp_path / "out"))) == cli.EXIT_RESOURCE
        assert capsys.readouterr().err == (
            "resource error: the worker process of fold 1 was killed by signal 9 (SIGKILL) "
            "without a result\n"
        )


@pytest.mark.usefixtures("bounded_and_no_child_left")
class TestNumericalErrors:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_numerical_error_in_a_fold_exits_3_with_one_line(
        self, workers, csv_path, tmp_path, capsys, monkeypatch, pin_workers
    ):
        # with 2 workers only the forked child fails, so the error comes
        # back through the pipe and settle
        parent, real = os.getpid(), pipeline.embed
        message = "non-finite gradient at iteration 7"

        def diverged(*args, **kwargs):
            if workers == 1 or os.getpid() != parent:
                raise NumericalError(message)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "embed", diverged)
        pin_workers(workers)
        assert main(_select_args(csv_path, str(tmp_path / "out"))) == cli.EXIT_NUMERIC
        assert capsys.readouterr().err == f"numerical failure: {message}\n"


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
            text = open(os.path.join(outdir, "compare.txt"), "rb").read()
            runs.append((text, [(w.category, str(w.message)) for w in caught]))
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
