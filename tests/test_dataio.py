import numpy as np
import pytest

from sepselect.dataio import (
    Dataset,
    check_fold_classes,
    load_csv,
    make_folds,
    minmax_normalize,
    split_train_test,
)
from sepselect.errors import DataError


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_small_csv(self, tmp_path):
        path = _write(tmp_path, "f1,f2,label\n1,2,a\n3,4,b\n5,6,a\n7,8,b\n")
        d = load_csv(path, "label")
        assert d.n_instances == 4
        assert d.n_features == 2
        assert d.n_classes == 2
        assert d.feature_names == ["f1", "f2"]
        assert d.class_ids == ["a", "b"]  # first-appearance order
        assert d.instances[2, 1] == 6.0

    def test_label_by_index(self, tmp_path):
        path = _write(tmp_path, "label,f1,f2\nx,1,2\ny,3,4\nx,5,6\n")
        d = load_csv(path, 0)
        assert d.feature_names == ["f1", "f2"]
        assert list(d.labels) == ["x", "y", "x"]

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = _write(tmp_path, "f1,f2,label\n1,2,a\n3,oops,b\n")
        with pytest.raises(DataError, match=r"row 2.*column 'f2'"):
            load_csv(path, "label")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        # the blank line is skipped but still counted, as a data row number
        path = _write(tmp_path, f"f1,f2,label\n1,2,a\n\n3,4,b\n5,{cell},a\n")
        with pytest.raises(DataError, match=rf"non-finite value {cell} at data row 4, column 'f2'"):
            load_csv(path, "label")

    def test_single_class_rejected(self, tmp_path):
        path = _write(tmp_path, "f1,f2,label\n1,2,a\n3,4,a\n")
        with pytest.raises(DataError, match="fewer than 2 classes"):
            load_csv(path, "label")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no/such/file.csv"):
            load_csv("no/such/file.csv", "label")

    def test_missing_label_column(self, tmp_path):
        path = _write(tmp_path, "f1,f2,label\n1,2,a\n3,4,b\n")
        with pytest.raises(DataError, match="not found"):
            load_csv(path, "class")

    def test_ragged_row_rejected(self, tmp_path):
        path = _write(tmp_path, "f1,f2,label\n1,2,a\n3,4\n")
        with pytest.raises(DataError, match="expected 3 cells"):
            load_csv(path, "label")


def _dataset(columns, labels):
    x = np.column_stack(columns).astype(float)
    class_ids = list(dict.fromkeys(labels))
    return Dataset(x, np.array(labels, dtype=object), [f"f{i}" for i in range(x.shape[1])], class_ids)


class TestNormalize:
    def test_linear_rescale(self):
        d = _dataset([[2, 4, 6], [0, 1, 2]], ["a", "b", "a"])
        out = minmax_normalize(d)
        assert np.array_equal(out.instances[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        d = _dataset([[5, 5, 5], [0, 1, 2]], ["a", "b", "a"])
        out = minmax_normalize(d)
        assert np.array_equal(out.instances[:, 0], [0.0, 0.0, 0.0])

    def test_unit_range_column_unchanged(self):
        d = _dataset([[0.0, 0.25, 1.0], [1, 2, 3]], ["a", "b", "a"])
        out = minmax_normalize(d)
        assert np.array_equal(out.instances[:, 0], [0.0, 0.25, 1.0])

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(7)
        d = _dataset([rng.normal(size=20), rng.uniform(-5, 3, 20)], ["a", "b"] * 10)
        once = minmax_normalize(d)
        twice = minmax_normalize(once)
        assert np.array_equal(once.instances, twice.instances)

    def test_all_entries_in_unit_interval_and_labels_kept(self):
        rng = np.random.default_rng(3)
        d = _dataset([rng.normal(size=10) * 100, rng.normal(size=10)], ["a", "b"] * 5)
        out = minmax_normalize(d)
        assert out.instances.min() >= 0.0 and out.instances.max() <= 1.0
        assert np.array_equal(out.labels, d.labels)


def _big(n=100, seed=0):
    rng = np.random.default_rng(seed)
    labels = ["a", "b"] * (n // 2)
    return _dataset([rng.normal(size=n), rng.normal(size=n)], labels)


class TestSplit:
    def test_75_25(self):
        train, test = split_train_test(_big(100), 1)
        assert train.n_instances == 75
        assert test.n_instances == 25

    def test_deterministic(self):
        d = _big(40)
        t1, v1 = split_train_test(d, 9)
        t2, v2 = split_train_test(d, 9)
        assert np.array_equal(t1.instances, t2.instances)
        assert np.array_equal(v1.instances, v2.instances)

    def test_disjoint_partition(self):
        d = _big(30)
        d.instances[:, 0] = np.arange(30)  # row fingerprints
        train, test = split_train_test(d, 4)
        ids = np.concatenate([train.instances[:, 0], test.instances[:, 0]])
        assert sorted(ids.tolist()) == list(range(30))

    def test_empty_side_rejected(self):
        d = _big(4)
        with pytest.raises(DataError, match="empty side"):
            split_train_test(d, 0, train_fraction=0.99)


class TestFolds:
    def test_sizes_and_coverage(self):
        d = _big(10)
        d.instances[:, 0] = np.arange(10)
        folds = make_folds(d, 5, 2)
        assert len(folds) == 5
        val_ids = []
        for train, val in folds:
            assert val.n_instances == 2
            assert train.n_instances == 8  # 80% of the rows
            val_ids.extend(val.instances[:, 0].tolist())
        assert sorted(val_ids) == list(range(10))

    def test_too_many_folds(self):
        with pytest.raises(DataError, match="exceeds instance count"):
            make_folds(_big(10), 11, 0)

    def test_deterministic(self):
        d = _big(20)
        f1 = make_folds(d, 5, 5)
        f2 = make_folds(d, 5, 5)
        for (a, b), (c, e) in zip(f1, f2):
            assert np.array_equal(a.instances, c.instances)
            assert np.array_equal(b.instances, e.instances)


def _rare_class(n=60, rare=3, seed=0):
    # n rows of classes a/b plus `rare` rows of class r
    rng = np.random.default_rng(seed)
    labels = ["a", "b"] * ((n - rare) // 2) + ["a"] * ((n - rare) % 2) + ["r"] * rare
    return _dataset([rng.normal(size=n), rng.normal(size=n)], labels)


class TestFoldClasses:
    def test_balanced_folds_pass(self):
        d = _big(100)
        check_fold_classes(d, make_folds(d, 5, 3))

    def test_class_missing_from_a_validation_part_is_named(self):
        # 3 samples of r cannot reach all 5 validation parts
        d = _rare_class()
        with pytest.raises(
            DataError,
            match=r"class 'r' has 3 samples, none of them in the validation part "
            r"of fold \d \(fold_count=5\)",
        ):
            check_fold_classes(d, make_folds(d, 5, 0))

    def test_class_missing_from_a_train_part_is_named(self):
        # the single sample of r lies in fold 0's validation part, so fold
        # 0's train part has none
        d = _rare_class(rare=1)
        folds = make_folds(d, 2, 3)
        assert "r" in folds[0][1].labels.tolist()
        with pytest.raises(
            DataError,
            match=r"class 'r' has 1 samples, none of them in the train part "
            r"of fold 0 \(fold_count=2\)",
        ):
            check_fold_classes(d, folds)


class TestDatasetInvariants:
    def test_labels_must_be_known(self):
        with pytest.raises(DataError, match="not in class_ids"):
            Dataset(np.zeros((2, 2)), np.array(["a", "z"], dtype=object), ["f0", "f1"], ["a", "b"])

    def test_split_option_ranges(self):
        d = _big(10)
        with pytest.raises(DataError, match="train_fraction"):
            split_train_test(d, 0, train_fraction=1.5)
        with pytest.raises(DataError, match="fold_count"):
            make_folds(d, 1, 0)
        with pytest.raises(DataError, match="seed"):
            split_train_test(d, -1)
        with pytest.raises(DataError, match="seed"):
            make_folds(d, 2, 1.5)

    def test_label_codes_follow_first_appearance(self):
        d = _dataset([[1, 2, 3], [4, 5, 6]], ["b", "a", "b"])
        assert d.class_ids == ["b", "a"]
        assert d.label_codes().tolist() == [0, 1, 0]
