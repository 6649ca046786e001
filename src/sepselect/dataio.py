"""Dataset loading, min-max normalization and deterministic splitting.

CSV input is RFC-4180 style: header row required, UTF-8 (a leading byte
order mark is dropped), '"' quoting, '.' decimal separator, blank lines
skipped. The label column is picked by name (exact header match wins) or
by zero-based index. Every non-label cell must parse as a finite real
number as Python's float() spells it (`nan` and `inf` are rejected);
missing-value handling and categorical encoding are out of scope.

load_csv reads the header with csv.reader and the data rows with one
np.loadtxt call, whose converter turns each label into its
first-appearance code. Any file that call does not read exactly as the
reference parser would (a parse error, a row of the wrong width, fewer
than 2 rows, a non-finite value, a line holding a character that numpy
strips around a number and float() does not, or a line longer than
csv.field_size_limit()) is read again by the reference parser, a per-cell
float() loop over csv.reader rows. It is the only path that raises, so
every DataError names its data row and column, or for a row csv.reader
rejects (a cell over csv.field_size_limit()) the row and the reader's
reason. A file that is not UTF-8 is a DataError naming the first byte that
does not decode.

Splits take their options as plain arguments: split_train_test a seed
and a train fraction (default TRAIN_FRACTION), make_folds a fold count
and a seed. The selection's fold count and seed default in
pipeline.SelectionConfig. Both are deterministic for a fixed seed.
split_train_test returns two Datasets; make_folds returns sorted
row-index arrays, so its caller copies a fold part's rows (select_rows)
only where and when it needs them.
"""

import csv
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, require_integer

TRAIN_FRACTION = 0.75  # share of rows the train side of split_train_test gets


@dataclass
class Dataset:
    """Immutable-by-convention instance matrix plus labels and metadata.

    instances: (N, M) float array.
    labels: length-N object array of class identifiers (opaque strings).
    feature_names: length-M list of column names.
    class_ids: the C distinct classes, ordered by first appearance.
    """

    instances: np.ndarray
    labels: np.ndarray
    feature_names: list
    class_ids: list

    def __post_init__(self):
        self.instances = np.asarray(self.instances, dtype=float)
        self.labels = np.asarray(self.labels, dtype=object)
        if self.instances.ndim != 2:
            raise DataError("instances must be a 2-D matrix")
        n, m = self.instances.shape
        if n < 2:
            raise DataError(f"need at least 2 instances, got {n}")
        if m < 2:
            raise DataError(f"need at least 2 features, got {m}")
        if len(self.labels) != n:
            raise DataError(f"label count {len(self.labels)} != instance count {n}")
        if len(self.feature_names) != m:
            raise DataError(f"feature name count {len(self.feature_names)} != column count {m}")
        if len(self.class_ids) < 2:
            raise DataError(f"need at least 2 classes, got {len(self.class_ids)}")
        if len(set(self.class_ids)) != len(self.class_ids):
            raise DataError("class_ids contains duplicates")
        unknown = set(self.labels.tolist()) - set(self.class_ids)
        if unknown:
            raise DataError(f"labels not in class_ids: {sorted(map(str, unknown))}")

    @property
    def n_instances(self):
        return self.instances.shape[0]

    @property
    def n_features(self):
        return self.instances.shape[1]

    @property
    def n_classes(self):
        return len(self.class_ids)

    def label_codes(self):
        """Labels as integer codes into class_ids."""
        lut = {c: i for i, c in enumerate(self.class_ids)}
        return np.array([lut[v] for v in self.labels.tolist()], dtype=int)

    def select_rows(self, indices):
        """New Dataset restricted to the given rows; class_ids stay canonical."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(
            instances=self.instances[idx],
            labels=self.labels[idx],
            feature_names=list(self.feature_names),
            class_ids=list(self.class_ids),
        )


def load_csv(path, label_column):
    """Read a CSV file into a Dataset.

    label_column is a header name or a zero-based column index; an exact
    header-name match takes precedence over index interpretation.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except FileNotFoundError:
        raise DataError(f"input file not found: {path}") from None
    try:
        with fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"empty file (no header row): {path}") from None
            except csv.Error as exc:
                raise DataError(f"header row: {exc}") from None
            label_idx = _resolve_label_column(header, label_column)
            feature_names = [h for i, h in enumerate(header) if i != label_idx]
            if len(feature_names) < 2:
                raise DataError("need at least 2 feature columns")

            body = _read_body_numpy(fh, len(header), label_idx)
            if body is None:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                body = _read_body_loop(reader, header, label_idx, feature_names)
    except UnicodeDecodeError as exc:
        raise DataError(
            f"file is not UTF-8: byte 0x{exc.object[exc.start]:02x} cannot be decoded: {path}"
        ) from None
    instances, labels = body

    class_ids = list(dict.fromkeys(labels))  # first-appearance order
    if len(class_ids) < 2:
        raise DataError("fewer than 2 classes in the label column")
    return Dataset(
        instances=instances,
        labels=np.array(labels, dtype=object),
        feature_names=feature_names,
        class_ids=class_ids,
    )


def _read_body_numpy(fh, width, label_idx):
    """(instances, labels) of the rows left in fh, read by np.loadtxt, or
    None when the reference loop must read the file: on a parse error, a
    table that is not `width` cells wide, fewer than 2 rows or a non-finite
    value. The label converter codes labels in first-appearance order."""
    codes = {}

    def code(label):
        return codes.setdefault(label, len(codes))

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty body; the loop reports it
            table = np.loadtxt(
                map(_check_line, fh, itertools.repeat(csv.field_size_limit())), delimiter=",",
                quotechar='"', comments=None, ndmin=2, converters={label_idx: code},
            )
    except ValueError:
        return None
    if table.shape[0] < 2 or table.shape[1] != width:
        return None
    instances = np.delete(table, label_idx, axis=1)
    if not np.isfinite(instances).all():
        return None
    names = np.array(list(codes), dtype=object)
    return instances, names[table[:, label_idx].astype(np.intp)]


def _check_line(line, limit):
    """The line itself, or ValueError when it is longer than limit (the csv
    field size limit, which the reference parser applies to each cell and
    numpy to none) or holds an ASCII information separator (U+001C..U+001F):
    numpy strips those around a number as whitespace, float() rejects them."""
    if len(line) > limit or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
        raise ValueError("a data line the reference parser must read")
    return line


def _read_body_loop(reader, header, label_idx, feature_names):
    """The reference parser: float() per cell of every csv.reader row.
    Returns (instances, labels) or raises a DataError naming the data row
    (blank lines count) and, for a cell that is no finite number, the
    column; a row csv.reader cannot read gets its csv.Error message."""
    rows = []
    labels = []
    row_numbers = []
    for data_row in itertools.count(1):
        try:
            cells = next(reader, None)
        except csv.Error as exc:  # for example a cell over csv.field_size_limit()
            raise DataError(f"data row {data_row}: {exc}") from None
        if cells is None:
            break
        if not cells:
            continue  # tolerate trailing blank lines
        if len(cells) != len(header):
            raise DataError(
                f"data row {data_row}: expected {len(header)} cells, got {len(cells)}"
            )
        values = []
        for col, cell in enumerate(cells):
            if col == label_idx:
                continue
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(
                    f"cannot parse cell as a number at data row {data_row}, "
                    f"column '{header[col]}'"
                ) from None
        rows.append(values)
        labels.append(cells[label_idx])
        row_numbers.append(data_row)

    if len(rows) < 2:
        raise DataError(f"need at least 2 data rows, got {len(rows)}")
    instances = np.array(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(instances))
    if len(bad):
        r, c = bad[0]
        raise DataError(
            f"non-finite value {instances[r, c]} at data row {row_numbers[r]}, "
            f"column '{feature_names[c]}'"
        )
    return instances, labels


def _resolve_label_column(header, label_column):
    if isinstance(label_column, str) and label_column in header:
        return header.index(label_column)
    try:
        idx = int(label_column)
    except (TypeError, ValueError):
        idx = -1
    if 0 <= idx < len(header):
        return idx
    raise DataError(f"label column '{label_column}' not found in header {header}")


def minmax_normalize(d):
    """Rescale every column to [0, 1]; constant columns map to all zeros.

    Idempotent on non-constant columns: a second pass divides by span 1
    and subtracts min 0, leaving values bit-identical.
    """
    x = d.instances
    mins = x.min(axis=0)
    spans = x.max(axis=0) - mins
    safe = np.where(spans > 0.0, spans, 1.0)
    out = (x - mins) / safe
    out[:, spans == 0.0] = 0.0
    return Dataset(
        instances=out,
        labels=d.labels,
        feature_names=list(d.feature_names),
        class_ids=list(d.class_ids),
    )


def split_train_test(d, seed, train_fraction=TRAIN_FRACTION):
    """Disjoint random row split; train gets round(train_fraction * N) rows."""
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"train_fraction must be in (0, 1), got {train_fraction}")
    require_integer("seed", seed, 0)
    n = d.n_instances
    train_n = int(round(train_fraction * n))
    if train_n < 1 or n - train_n < 1:
        raise DataError(
            f"split leaves an empty side: N={n}, train_fraction={train_fraction}"
        )
    perm = np.random.default_rng(seed).permutation(n)
    train_idx = np.sort(perm[:train_n])
    test_idx = np.sort(perm[train_n:])
    return d.select_rows(train_idx), d.select_rows(test_idx)


def make_folds(d, fold_count, seed):
    """fold_count (train_idx, val_idx) pairs of sorted row-index arrays
    into d.

    Validation parts are disjoint and cover range(N); each train part is
    the sorted complement of its validation part. Identical seeds
    reproduce identical index sets. The rows are not copied: a caller
    takes d.select_rows(idx) where it needs a part's rows.
    """
    require_integer("fold_count", fold_count, 2)
    require_integer("seed", seed, 0)
    n = d.n_instances
    if fold_count > n:
        raise DataError(f"fold_count {fold_count} exceeds instance count {n}")
    perm = np.random.default_rng(seed).permutation(n)
    chunks = np.array_split(perm, fold_count)
    folds = []
    for i, chunk in enumerate(chunks):
        val_idx = np.sort(chunk)
        train_idx = np.sort(np.concatenate([c for j, c in enumerate(chunks) if j != i]))
        folds.append((train_idx, val_idx))
    return folds


def check_fold_classes(d, folds):
    """Raise DataError unless every class of d has samples in both parts of
    every fold of make_folds(d, ...): the separability matrix of a part
    needs every class.

    Folds are not stratified, so a class with few samples can miss a part.
    """
    codes = d.label_codes()
    sizes = np.bincount(codes, minlength=d.n_classes)
    for i, parts in enumerate(folds):
        for part_name, idx in zip(("train", "validation"), parts):
            present = np.bincount(codes[idx], minlength=d.n_classes)
            for c, size, count in zip(d.class_ids, sizes.tolist(), present.tolist()):
                if count == 0:
                    raise DataError(
                        f"class '{c}' has {size} samples, none of them in the "
                        f"{part_name} part of fold {i} (fold_count={len(folds)}); "
                        "every class needs samples in both parts of every fold"
                    )
