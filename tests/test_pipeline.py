import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from _datasets import redundant_groups
from sepselect import pipeline
from sepselect.dataio import Dataset, minmax_normalize
from sepselect.errors import DataError
from sepselect.pipeline import (
    SelectionConfig,
    index_curves,
    mss_curve_cv,
    select_at_k,
    select_features,
    validation_mss,
)
from sepselect.distances import cross, squared_pairwise
from sepselect.kmedoids import ClusteringResult, _assign
from sepselect.separability import build_feature_space
from sepselect.validity import mss


def small_cfg(**overrides):
    # perplexity sized for duplicate groups of 3: high enough to bisect,
    # low enough that the fold embeddings separate the groups
    base = dict(
        seed=7,
        perplexity=2.5,
        tsne_iterations=300,
        fold_count=5,
        k_max=None,
    )
    base.update(overrides)
    return SelectionConfig(**base)


@pytest.fixture(scope="module")
def duplicate_groups():
    # two independent informative signals, three exact copies of each
    d, groups = redundant_groups(
        n_instances=90,
        n_classes=3,
        group_sizes=[3, 3],
        strengths=[2.0, 2.0],
        noise=0.3,
        seed=1,
        exact_copies=True,
    )
    return minmax_normalize(d), groups


def tied_rows(tie):
    # 5 of 10 columns constant, or copies of one column: their separability
    # rows coincide, so each has 4 tied nearest neighbors against perplexity 3
    rng = np.random.default_rng(3)
    labels = np.array(["a", "b", "c"] * 30, dtype=object)
    x = rng.random((90, 10)) + 0.3 * (np.arange(90) % 3)[:, None]
    x[:, 5:] = 0.5 if tie == "constant" else x[:, 5:6]
    return Dataset(x, labels, [f"f{j}" for j in range(10)], ["a", "b", "c"])


def _validation_mss(z, medoids):
    z = np.asarray(z, float)
    return validation_mss(np.sqrt(squared_pairwise(z)), medoids)


class TestValidationScoring:
    def test_matches_hand_worked_raw_space_value(self):
        value = _validation_mss([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]], [0, 2])
        assert value == pytest.approx(np.mean([1.0, 1 - 1 / 9, 1.0, 1 - 1 / 11]), abs=1e-12)

    def test_assignment_is_nearest_with_low_index_ties(self):
        # unsorted medoids tolerated; point 1 lies at distance 2 from both
        # medoids 0 and 2 and goes to the lower index, so both clusters have
        # two points: mean of 1, 0, 1, 1 - 6/10 = 0.6. Sent to medoid 2,
        # point 0 would be a singleton and drop out: mean of 0, 1, 0.4.
        value = _validation_mss([[0.0], [2.0], [4.0], [10.0]], [2, 0])
        assert value == pytest.approx(0.6, abs=1e-12)

    def test_undefined_when_every_cluster_singleton(self):
        assert np.isnan(_validation_mss([[0.0, 0.0], [3.0, 0.0], [9.0, 1.0]], [0, 1, 2]))

    def test_distance_columns_equal_cross_columns(self):
        # validation_mss slices the columns of the fold's mirrored distance
        # matrix where mss would compute cross(z, z[medoids])
        z = np.random.default_rng(2).random((9, 5))
        d_val = np.sqrt(squared_pairwise(z))
        for j in range(len(z)):
            assert np.array_equal(d_val[:, j], cross(z, z[j : j + 1])[:, 0])

    def test_bitwise_equal_to_mss_of_nearest_medoid_clustering(self):
        # C = 8 classes and 30 independent features; every k up to M, so many
        # row sums run over >= 8 medoid columns, whose rounding depends on
        # the memory order of the sliced columns
        d, _ = redundant_groups(
            n_instances=160, n_classes=8, group_sizes=[1] * 30, noise=1.0, seed=4
        )
        z = build_feature_space(minmax_normalize(d))
        m = z.shape[0]
        d_val = np.sqrt(squared_pairwise(z))
        rng = np.random.default_rng(5)
        for k in range(2, m + 1):
            for _ in range(3):
                medoids = np.sort(rng.choice(m, size=k, replace=False))
                assignment, _ = _assign(cross(z, z[medoids]))
                oracle = mss(z, ClusteringResult(medoids, assignment, 0.0)).aggregate
                value = validation_mss(d_val, medoids)
                if oracle is None:
                    assert np.isnan(value)
                else:
                    assert value == oracle, k


@pytest.fixture(scope="module")
def redundant():
    # 3 informative signals, each with 9 extra exact copies: M = 30
    d, _ = redundant_groups(
        n_instances=100,
        n_classes=3,
        group_sizes=[10, 10, 10],
        strengths=[2.0, 2.0, 2.0],
        noise=0.3,
        seed=3,
        exact_copies=True,
    )
    return minmax_normalize(d)


class TestMssCurve:
    def test_defined_and_finite_over_full_range(self, redundant):
        cfg = small_cfg(perplexity=12.0, tsne_iterations=120)
        curve = mss_curve_cv(redundant, cfg)
        assert curve.ks.tolist() == list(range(2, 31))
        assert curve.fold_values.shape == (5, 29)
        assert np.all(np.isfinite(curve.averaged))

    def test_average_is_hand_mean_of_folds(self, redundant):
        cfg = small_cfg(perplexity=12.0, tsne_iterations=120)
        curve = mss_curve_cv(redundant, cfg)
        for j in range(len(curve.ks)):
            column = curve.fold_values[:, j]
            defined = column[np.isfinite(column)]
            assert curve.averaged[j] == pytest.approx(defined.mean(), abs=1e-12)

    def test_k_max_caps_the_sweep(self, redundant):
        cfg = small_cfg(perplexity=12.0, tsne_iterations=100, k_max=8)
        curve = mss_curve_cv(redundant, cfg)
        assert curve.ks.tolist() == list(range(2, 9))

    def test_fold_tasks_copy_no_training_rows(self):
        # the tasks hold the training set and row indices; a fold's rows are
        # copied only inside its task, so five fold copies (5x the matrix)
        # cannot come back unnoticed
        train, _ = redundant_groups(
            n_instances=720, n_classes=12, group_sizes=[7] * 29, seed=6
        )
        assert train.instances.shape == (720, 203)
        tracemalloc.start()
        try:
            _, tasks = pipeline._fold_tasks(train, small_cfg(perplexity=30.0, k_max=12))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tasks) == 5
        assert peak < 0.1 * train.instances.nbytes

    def test_fold_task_holds_no_validation_distances_through_the_sweep(self):
        # the validation part's (M, M) distances are built after the
        # embedding and the sweep: held through both, the task's peak read
        # 8.7 (M, M) arrays at M = 203, and 7.3 without
        train, _ = redundant_groups(
            n_instances=720, n_classes=12, group_sizes=[7] * 29, seed=6
        )
        m = train.n_features
        _, tasks = pipeline._fold_tasks(train, small_cfg(perplexity=30.0, tsne_iterations=100, k_max=12))
        tasks[1]()  # warm up first: lazily imported numpy helpers would count as peak
        tracemalloc.start()
        try:
            tasks[0]()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * m * m * 8


class TestSelectFeatures:
    def test_duplicate_groups_pick_one_per_group(self, duplicate_groups):
        data, groups = duplicate_groups
        # exact copies make the validity curve flat at 1, so no knee exists
        # and the chord-difference fallback must fire and land on k=2
        with pytest.warns(UserWarning, match="falling back"):
            result = select_features(data, small_cfg())
        assert result.knee_source == "chord_fallback"
        assert result.k_min == 2
        picked_groups = sorted(groups[j] for j in result.selected_features)
        assert picked_groups == [0, 1]  # exactly one copy of each signal

    def test_selected_are_final_medoids(self, duplicate_groups):
        data, _ = duplicate_groups
        cfg = small_cfg()
        result = select_features(data, cfg)
        _, clustering = select_at_k(data, result.k_min, cfg)
        assert result.selected_features == clustering.medoids.tolist()
        assert result.k_min in result.curve.ks

    def test_deterministic(self, duplicate_groups):
        data, _ = duplicate_groups
        a = select_features(data, small_cfg())
        b = select_features(data, small_cfg())
        assert a.k_min == b.k_min
        assert a.selected_features == b.selected_features
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.curve.fold_values, b.curve.fold_values, equal_nan=True)

    def test_dropping_a_duplicate_is_stable(self, duplicate_groups):
        data, _ = duplicate_groups
        base = select_features(data, small_cfg())
        trimmed = data.select_rows(range(data.n_instances))
        keep = [j for j in range(data.n_features) if j != 1]  # drop one copy
        trimmed.instances = data.instances[:, keep]
        trimmed.feature_names = [data.feature_names[j] for j in keep]
        reduced = select_features(trimmed, small_cfg())
        assert reduced.k_min <= base.k_min + 1

    def test_rare_class_is_rejected_before_any_fold_work(self):
        # 3 of 60 samples in class r: some fold part gets none of them;
        # this once failed inside the separability matrix with
        # "class 'r' has no samples"
        rng = np.random.default_rng(0)
        labels = np.array(["a", "b"] * 28 + ["a"] + ["r"] * 3, dtype=object)
        data = Dataset(rng.random((60, 6)), labels, [f"f{j}" for j in range(6)], ["a", "b", "r"])
        with pytest.raises(
            DataError, match=r"class 'r' has 3 samples, none of them in the \w+ part of fold \d "
            r"\(fold_count=5\)"
        ):
            select_features(data, small_cfg())

    @pytest.mark.parametrize("tie", ["constant", "duplicate"])
    def test_tied_separability_rows_give_selection_or_data_error(self, tie):
        # t-SNE once raised NumericalError "bandwidth search failed to
        # bracket" here
        data = tied_rows(tie)
        try:
            result = select_features(data, small_cfg(perplexity=3.0))
        except DataError:
            return
        assert 1 <= result.k_min <= 10
        assert len(set(result.selected_features)) == result.k_min

    def test_config_validation(self):
        with pytest.raises(DataError):
            SelectionConfig(k_max=3)
        with pytest.raises(DataError):
            SelectionConfig(fold_count=1)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("tsne_iterations", 0),
            ("tsne_iterations", 2.5),
            ("tsne_iterations", True),
            ("tsne_iterations", "100"),
            ("fold_count", 1),
            ("fold_count", 2.5),
            ("k_max", 3),
            ("k_max", 5.5),
            ("seed", -1),
            ("seed", 1.5),
        ],
    )
    def test_config_rejects_counts_that_are_not_integers_in_range(self, field, value):
        # tsne_iterations=2.5 and k_max=5.5 were once TypeErrors from inside fold 0
        with pytest.raises(DataError, match=f"{field} must be an integer >= "):
            SelectionConfig(**{field: value})

    def test_config_accepts_numpy_integer_counts(self):
        cfg = SelectionConfig(tsne_iterations=np.int64(50), fold_count=np.int32(3))
        assert cfg.tsne_iterations == 50

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("field", ["perplexity"])
    def test_config_rejects_non_positive_or_non_finite(self, field, value):
        with pytest.raises(DataError, match=f"{field} must be a positive finite number"):
            SelectionConfig(**{field: value})

    @pytest.mark.parametrize("field", ["knee_sensitivity", "smoothing_window"])
    def test_config_has_no_knee_options(self, field):
        # the knee is parameter-free (knee.py), so the config offers no knob for it
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
            SelectionConfig(**{field: 1})


def fold_of(seed, cfg):
    return seed - cfg.seed - 1  # fold f embeds with seed base + 1 + f


def recorded_selection(data, cfg):
    """select_features(data, cfg) and its warnings as (category, message), in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = select_features(data, cfg)
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.usefixtures("bounded_and_no_child_left")
class TestFoldWorkers:
    @pytest.mark.parametrize("case", ["redundant", "tied duplicate"])
    def test_outputs_and_warnings_do_not_depend_on_worker_count(self, case, redundant, pin_workers):
        if case == "redundant":
            data, cfg = redundant, small_cfg(perplexity=12.0, tsne_iterations=120)
        else:
            data, cfg = tied_rows("duplicate"), small_cfg(perplexity=3.0)
        runs = []
        for workers in (1, 2, 3):
            pin_workers(workers)
            runs.append(recorded_selection(data, cfg))
        (first, first_warnings), others = runs[0], runs[1:]
        assert first_warnings or case == "redundant"  # the tied rows warn in every fold
        for result, caught in others:
            assert result.curve.fold_values.tobytes() == first.curve.fold_values.tobytes()
            assert result.embedding.tobytes() == first.embedding.tobytes()
            assert result.selected_features == first.selected_features
            assert result.knee_source == first.knee_source
            assert caught == first_warnings

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_warning_every_fold_repeats_shows_once_under_the_default_filter(
        self, workers, pin_workers
    ):
        # as in a serial loop, where warnings.warn shows a message once per
        # location; the tied rows give the same tie warnings in every fold
        pin_workers(workers)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            mss_curve_cv(tied_rows("duplicate"), small_cfg(perplexity=3.0))
        messages = [str(w.message) for w in caught]
        assert messages and len(messages) == len(set(messages))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_fold_error_follows_the_warnings_of_earlier_folds(
        self, workers, redundant, monkeypatch, pin_workers
    ):
        cfg = small_cfg(perplexity=12.0, tsne_iterations=120)
        real = pipeline.embed

        def failing_embed(z, perplexity, iterations, seed):
            f = fold_of(seed, cfg)
            warnings.warn(f"fold {f} embedding")
            if f in (2, 4):
                raise DataError(f"fold {f} failed")
            return real(z, perplexity, iterations, seed)

        monkeypatch.setattr(pipeline, "embed", failing_embed)
        pin_workers(workers)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError) as info:
                mss_curve_cv(redundant, cfg)
        assert type(info.value) is DataError and str(info.value) == "fold 2 failed"
        assert [(w.category, str(w.message)) for w in caught] == [
            (UserWarning, f"fold {f} embedding") for f in range(3)
        ]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_assertion_in_a_child_comes_back_as_assertion(
        self, workers, redundant, monkeypatch, pin_workers
    ):
        cfg = small_cfg(perplexity=12.0, tsne_iterations=120)
        parent, real = os.getpid(), pipeline.embed

        def asserting_embed(z, perplexity, iterations, seed):
            if os.getpid() != parent:
                raise AssertionError(f"fold {fold_of(seed, cfg)} ran in a child")
            return real(z, perplexity, iterations, seed)

        monkeypatch.setattr(pipeline, "embed", asserting_embed)
        pin_workers(workers)
        with pytest.raises(AssertionError, match=r"^fold 1 ran in a child$"):
            mss_curve_cv(redundant, cfg)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_child_that_dies_gives_runtime_error(
        self, workers, redundant, monkeypatch, pin_workers
    ):
        cfg = small_cfg(perplexity=12.0, tsne_iterations=120)
        parent, real = os.getpid(), pipeline.embed

        def dying_embed(z, perplexity, iterations, seed):
            if os.getpid() != parent and fold_of(seed, cfg) == 1:
                os._exit(1)
            return real(z, perplexity, iterations, seed)

        monkeypatch.setattr(pipeline, "embed", dying_embed)
        pin_workers(workers)
        with pytest.raises(RuntimeError) as info:
            mss_curve_cv(redundant, cfg)
        assert type(info.value) is RuntimeError
        assert str(info.value) == (
            "the worker process of fold 1 exited with status 1 without a result"
        )

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", ["warning", "error", "knee error"])
    def test_final_embedding_is_settled_after_the_knee(
        self, case, workers, redundant, monkeypatch, pin_workers
    ):
        # it runs beside the folds, but its warnings and errors come where
        # a serial run's did: after the knee's
        cfg = small_cfg(perplexity=12.0, tsne_iterations=120)
        real = pipeline.embed

        def final_embedding_warns(z, perplexity, iterations, seed):
            if seed == cfg.seed:  # the folds embed with seed base + 1 + f
                warnings.warn("final embedding")
                if case != "warning":
                    raise DataError("final embedding failed")
            return real(z, perplexity, iterations, seed)

        def no_knee(curve):
            if case == "knee error":
                raise DataError("knee failed")
            return None

        monkeypatch.setattr(pipeline, "embed", final_embedding_warns)
        monkeypatch.setattr(pipeline, "kneedle", no_knee)
        pin_workers(workers)
        if case == "warning":
            result, caught = recorded_selection(redundant, cfg)
            assert result.knee_source == "chord_fallback"
        else:
            with warnings.catch_warnings(record=True) as recorded:
                warnings.simplefilter("always")
                with pytest.raises(DataError) as info:
                    select_features(redundant, cfg)
            caught = [(w.category, str(w.message)) for w in recorded]
            failed = "knee failed" if case == "knee error" else "final embedding failed"
            assert str(info.value) == failed
        no_knee_warning = (
            UserWarning,
            "no knee detected on the validity curve; "
            "falling back to the chord-difference maximum",
        )
        if case == "knee error":
            assert caught == []
        else:
            assert caught == [no_knee_warning, (UserWarning, "final embedding")]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_child_that_dies_in_the_final_embedding_gives_runtime_error(
        self, workers, redundant, monkeypatch, pin_workers
    ):
        # the final embedding is the last task, after folds in the same share
        cfg = small_cfg(perplexity=12.0, tsne_iterations=120)
        parent, real = os.getpid(), pipeline.embed

        def dying_embed(z, perplexity, iterations, seed):
            if os.getpid() != parent and seed == cfg.seed:
                os._exit(1)
            return real(z, perplexity, iterations, seed)

        monkeypatch.setattr(pipeline, "embed", dying_embed)
        pin_workers(workers)
        with pytest.raises(RuntimeError) as info:
            select_features(redundant, cfg)
        assert str(info.value) == (
            "the worker process of the final embedding exited with status 1 without a result"
        )

    def test_interrupt_in_this_process_stops_and_reaps_the_children(
        self, redundant, monkeypatch, pin_workers
    ):
        cfg = small_cfg(perplexity=12.0, tsne_iterations=120)
        parent, real = os.getpid(), pipeline.embed

        def interrupted_embed(z, perplexity, iterations, seed):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(z, perplexity, iterations, seed)

        monkeypatch.setattr(pipeline, "embed", interrupted_embed)
        pin_workers(3)
        with pytest.raises(KeyboardInterrupt):
            mss_curve_cv(redundant, cfg)


def test_import_loads_no_process_pool_module():
    # the fold workers are forked directly: importing either module would
    # add 20-85 ms to every run's start-up
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys, sepselect; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "[]"


class TestIndexCurves:
    def test_shapes_and_mss_definedness(self, duplicate_groups):
        data, _ = duplicate_groups
        cfg = small_cfg()
        emb, _ = select_at_k(data, 2, cfg)
        curves = index_curves(emb, range(2, 6))
        assert len(curves.silhouette) == 4
        assert len(curves.clusterings) == 4
        assert np.all(np.isfinite(curves.silhouette))
        # mean-simplified value matches a direct recomputation
        direct = mss(emb, curves.clusterings[0]).aggregate
        assert curves.mean_simplified[0] == pytest.approx(direct, abs=1e-15)
