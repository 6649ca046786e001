import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _datasets import write_csv
from sepselect import dataio
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
        with pytest.raises(DataError, match=r"^data row 2: expected 3 cells, got 2$"):
            load_csv(path, "label")

    def test_extra_trailing_cell_rejected(self, tmp_path):
        path = _write(tmp_path, "f1,f2,label\n1,2,a\n3,4,b,5\n")
        with pytest.raises(DataError, match=r"^data row 2: expected 3 cells, got 4$"):
            load_csv(path, "label")

    def test_every_row_one_cell_wider_than_the_header_rejected(self, tmp_path):
        path = _write(tmp_path, "f1,f2,label\n1,2,a,0\n3,4,b,5\n")
        with pytest.raises(DataError, match=r"^data row 1: expected 3 cells, got 4$"):
            load_csv(path, "label")

    def test_empty_label_cell_is_a_class_of_its_own(self, tmp_path):
        path = _write(tmp_path, "f1,f2,label\n1,2,a\n3,4,\n5,6,a\n")
        d = load_csv(path, "label")
        assert d.class_ids == ["a", ""]
        assert d.labels.tolist() == ["a", "", "a"]
        assert d.instances.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_bad_cell_after_a_blank_line_counts_the_blank_line(self, tmp_path):
        path = _write(tmp_path, "f1,f2,label\n1,2,a\n\n3,x,b\n5,6,a\n")
        with pytest.raises(
            DataError, match=r"^cannot parse cell as a number at data row 3, column 'f2'$"
        ):
            load_csv(path, "label")

    @pytest.mark.parametrize(
        "text",
        ["\ufefflabel,a,b\nx,1,2\ny,3,4\n", "\ufeffa,b,label\n1,2,x\n3,4,y\n"],
        ids=["label_first", "feature_first"],
    )
    def test_byte_order_mark_is_dropped(self, tmp_path, text):
        path = _write(tmp_path, text)
        d = load_csv(path, "label")
        assert d.feature_names == ["a", "b"]
        assert d.class_ids == ["x", "y"]
        assert d.instances.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_information_separator_around_a_number_rejected(self, tmp_path):
        # numpy's reader strips U+001C..U+001F around a number, float() does not
        path = _write(tmp_path, "f1,f2,label\n1,2,a\n3,4\x1c,b\n")
        with pytest.raises(
            DataError, match=r"^cannot parse cell as a number at data row 2, column 'f2'$"
        ):
            load_csv(path, "label")

    def test_python_only_spellings_load(self, tmp_path):
        # underscores and non-ASCII digits: float() reads them, numpy does not
        path = _write(tmp_path, "f1,f2,label\n1_0,2,a\n\u0661,4,b\n")
        d = load_csv(path, "label")
        assert d.instances.tolist() == [[10.0, 2.0], [1.0, 4.0]]

    def test_cell_over_the_csv_field_limit_names_its_row(self, tmp_path):
        # the `1_0` cell sends the file to the reference loop, whose
        # csv.reader rejects the long label
        path = _write(tmp_path, f"f1,f2,label\n1,2,a\n1_0,4,{'x' * 140000}\n5,6,b\n")
        with pytest.raises(
            DataError, match=r"^data row 2: field larger than field limit \(131072\)$"
        ):
            load_csv(path, "label")

    def test_long_label_fails_as_with_a_python_only_cell(self, tmp_path):
        # a line over the csv field limit goes to the reference loop, so the
        # file fails as it does with the `1_0` cell above
        path = _write(tmp_path, f"f1,f2,label\n1,2,a\n3,4,{'x' * 140000}\n5,6,b\n")
        with pytest.raises(
            DataError, match=r"^data row 2: field larger than field limit \(131072\)$"
        ):
            load_csv(path, "label")

    def test_multi_line_long_label_fails_as_with_a_python_only_cell(self, tmp_path):
        # a quoted label of 140 lines, each within the limit, is over it as
        # a whole: the numpy path hands it to the reference loop as well
        label = "\n".join(["x" * 1000] * 140)
        messages = []
        for cell in ["1", "1_0"]:
            path = _write(tmp_path, f'f1,f2,label\n1,2,a\n{cell},4,"{label}"\n5,6,b\n', f"{cell}.csv")
            with pytest.raises(DataError) as err:
                load_csv(path, "label")
            messages.append(str(err.value))
        assert messages == ["data row 2: field larger than field limit (131072)"] * 2

    def test_long_line_of_short_cells_loads(self, tmp_path):
        # 160000 characters or more a line, no cell over the limit
        m = 40000
        header = ",".join(f"f{j}" for j in range(m))
        path = _write(
            tmp_path,
            f"{header},label\n" + ",".join(["1.5"] * m) + ",a\n" + ",".join(["2.25"] * m) + ",b\n",
        )
        d = load_csv(path, "label")
        assert d.class_ids == ["a", "b"]
        assert d.instances.shape == (2, m)
        assert set(d.instances[0]) == {1.5} and set(d.instances[1]) == {2.25}

    @pytest.mark.parametrize(
        "text",
        [b"f1,f\xe92,label\n1,2,a\n3,4,b\n", b"f1,f2,label\n1,2,caf\xe9\n3,4,b\n"],
        ids=["header", "data"],
    )
    def test_non_utf8_byte_is_named(self, tmp_path, text):
        path = tmp_path / "latin1.csv"
        path.write_bytes(text)
        with pytest.raises(DataError, match=r"^file is not UTF-8: byte 0xe9 cannot be decoded: "):
            load_csv(str(path), "label")


def _outcome(path, label_column):
    """load_csv's Dataset as comparable parts, or its exception's type and
    message."""
    try:
        d = load_csv(path, label_column)
    except Exception as exc:  # the oracle compares any outcome
        return type(exc).__name__, str(exc)
    return (
        d.instances.shape,
        d.instances.dtype,
        d.instances.view(np.int64).tolist(),
        d.labels.tolist(),
        d.class_ids,
        d.feature_names,
    )


def _loop_outcome(path, label_column):
    """The outcome with the numpy reader switched off: the reference loop."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dataio, "_read_body_numpy", lambda *args: None)
        return _outcome(path, label_column)


_NUMBERS = [" 1.5", ".5", "5.", "1E5", "-0", "1e-310", "7 "]
_ODD_NUMBERS = ["1_0", "\u0661", "nan", "inf", "-inf", "1e500", "", "x", "1\x1c", "\x1f2",
                '"3"', "1\xa0", "0x1"]
_LABELS = ["a", "b", "c", '"a"', '""', '"x,y"', " lead", '" lead"', '"q""uote"', 'a"b',
           '"multi\nline"', '"cr\r\nlf"', "\u00e9"]


@st.composite
def csv_texts(draw):
    """A header plus data rows whose cells mix float reprs with the
    spellings where csv.reader + float() and np.loadtxt could part ways:
    Python-only number spellings, non-finite values, quoted and multi-line
    labels, blank lines, CRLF endings and rows with a cell too many or too
    few."""
    m = draw(st.integers(2, 4))
    label_pos = draw(st.integers(0, m))
    n = draw(st.integers(0, 7))
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(_NUMBERS),
    )
    rows = []
    for _ in range(n):
        cells = [draw(number) for _ in range(m)]
        cells.insert(label_pos, draw(st.sampled_from(_LABELS)))
        rows.append(cells)
    for _ in range(draw(st.integers(0, 2))):  # at most two odd cells
        if rows:
            r = draw(st.integers(0, n - 1))
            c = draw(st.sampled_from([j for j in range(m + 1) if j != label_pos]))
            rows[r][c] = draw(st.sampled_from(_ODD_NUMBERS))
    lines = [",".join(cells) for cells in rows]
    if lines and draw(st.integers(0, 2)) == 0:  # one row a cell too many or too few
        r = draw(st.integers(0, n - 1))
        lines[r] = lines[r] + ",5" if draw(st.booleans()) else lines[r].rsplit(",", 1)[0]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    header = [f"f{j}" for j in range(m)]
    header.insert(label_pos, "label")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join([",".join(header)] + lines)
    if draw(st.booleans()):
        text += end
    return text


@pytest.fixture(scope="module")
def scratch_csv():
    with tempfile.TemporaryDirectory() as tmp:
        yield f"{tmp}/oracle.csv"


class TestLoaderMatchesLoop:
    """The numpy read path gives the reference loop's Dataset, bit for bit,
    or the loop's exact error."""

    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts())
    def test_same_dataset_or_same_error(self, text, scratch_csv):
        with open(scratch_csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert _outcome(scratch_csv, "label") == _loop_outcome(scratch_csv, "label")

    def test_wide_csv_never_enters_the_loop(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        labels = np.array([f"c{i}" for i in rng.integers(0, 12, 720)], dtype=object)
        x = rng.normal(size=(720, 203)) * rng.uniform(0.1, 100.0, 203)
        names = [f"f{j}" for j in range(203)]
        path = str(tmp_path / "wide.csv")
        write_csv(path, Dataset(x, labels, names, list(dict.fromkeys(labels))))

        def loop_entered(*args):
            raise AssertionError("the reference loop read a plain numeric CSV")

        with monkeypatch.context() as m:
            m.setattr(dataio, "_read_body_loop", loop_entered)
            fast = _outcome(path, "label")
        assert fast[0] == (720, 203)
        assert fast == _loop_outcome(path, "label")


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


# make_folds(_big(10), 3, 5): (train_idx, val_idx) per fold
_PINNED_FOLDS = [
    ([0, 2, 4, 5, 8, 9], [1, 3, 6, 7]),
    ([1, 3, 5, 6, 7, 8, 9], [0, 2, 4]),
    ([0, 1, 2, 3, 4, 6, 7], [5, 8, 9]),
]


class TestFolds:
    def test_sizes_and_coverage(self):
        folds = make_folds(_big(10), 5, 2)
        assert len(folds) == 5
        for train_idx, val_idx in folds:
            assert len(val_idx) == 2
            assert len(train_idx) == 8  # 80% of the rows
        val_ids = np.concatenate([val_idx for _, val_idx in folds])
        assert sorted(val_ids.tolist()) == list(range(10))  # disjoint and covering

    def test_parts_are_sorted_and_train_is_the_complement(self):
        n = 22  # 4 parts of 6, 6, 5 and 5 rows
        for train_idx, val_idx in make_folds(_big(n), 4, 8):
            assert train_idx.dtype.kind == val_idx.dtype.kind == "i"
            assert np.array_equal(val_idx, np.sort(val_idx))
            assert np.array_equal(train_idx, np.setdiff1d(np.arange(n), val_idx))

    def test_index_sets_pinned(self):
        # the permutation of default_rng(5) split by np.array_split
        folds = make_folds(_big(10), 3, 5)
        assert [(t.tolist(), v.tolist()) for t, v in folds] == _PINNED_FOLDS

    def test_too_many_folds(self):
        with pytest.raises(DataError, match="exceeds instance count"):
            make_folds(_big(10), 11, 0)

    def test_deterministic(self):
        d = _big(20)
        f1 = make_folds(d, 5, 5)
        f2 = make_folds(d, 5, 5)
        for (a, b), (c, e) in zip(f1, f2):
            assert np.array_equal(a, c)
            assert np.array_equal(b, e)


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
        assert "r" in d.labels[folds[0][1]].tolist()
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
