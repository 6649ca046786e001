"""Downstream evaluation: KNN prediction on a feature subset, accuracy,
macro-averaged F1, and prediction timing.

"Balanced F-score" here means the macro average of per-class F1: every
class present in the truth or the predictions contributes equally,
regardless of support. Method comparisons depend on this reading, so it
is fixed here rather than configurable.

KNN walks the test rows in the blocks of distances.row_blocks, and takes
a block's squared distances to every train row at once from
distances.difference_sums, on the column-subset arrays as they come from
the subset indexing: each distance adds the subset's squared differences
in subset order (see the distances module). Distance ties go to the
lower train index.
"""

import time
from dataclasses import dataclass

import numpy as np

from .distances import difference_sums, nearest, row_blocks
from .errors import DataError, require_integer

DEFAULT_NEIGHBORS = 5


@dataclass
class EvalReport:
    """Metrics of one prediction run; recomputable from stored predictions."""

    accuracy: float
    balanced_f: float
    predict_time: float
    subset: list
    n_neighbors: int
    predictions: np.ndarray


def knn_predict(train, test, subset, n_neighbors=DEFAULT_NEIGHBORS):
    """Majority label among the n_neighbors Euclidean-nearest train rows,
    restricted to the subset columns.

    Distance ties go to the lower train index; vote ties go to the class
    appearing earliest in the neighbor list.
    """
    subset = list(subset)
    if not subset:
        raise DataError("empty feature subset")
    for j in subset:
        require_integer("subset index", j, 0, train.n_features - 1)
    check_neighbors(n_neighbors, train.n_instances)

    a = train.instances[:, subset]
    b = test.instances[:, subset]
    labels = train.labels
    preds = []
    for rows in row_blocks(len(b), len(a) * 8):
        for order in nearest(difference_sums(b[rows], a, np.square), n_neighbors):
            preds.append(_majority(labels[order]))
    return np.array(preds, dtype=object)


def check_neighbors(n_neighbors, n_train):
    """DataError unless n_neighbors is an integer in [1, n_train], the
    train rows to vote."""
    require_integer("n_neighbors", n_neighbors, 1, n_train)


def _majority(neighbor_labels):
    counts = {}
    first_seen = {}
    for pos, lab in enumerate(neighbor_labels.tolist()):
        counts[lab] = counts.get(lab, 0) + 1
        first_seen.setdefault(lab, pos)
    return max(counts, key=lambda lab: (counts[lab], -first_seen[lab]))


def accuracy(pred, truth):
    """Fraction of exact matches."""
    pred, truth = _paired(pred, truth)
    return float(np.mean(pred == truth))


def balanced_f(pred, truth):
    """Macro-averaged F1 over the classes present in truth or predictions.

    Per-class F1 = 2PR/(P+R); precision/recall/F1 with a zero denominator
    are defined as 0.
    """
    pred, truth = _paired(pred, truth)
    classes = list(dict.fromkeys(truth.tolist() + pred.tolist()))
    f1s = []
    for c in classes:
        tp = float(np.sum((pred == c) & (truth == c)))
        fp = float(np.sum((pred == c) & (truth != c)))
        fn = float(np.sum((pred != c) & (truth == c)))
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1s.append(
            2.0 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
    return float(np.mean(f1s))


def _paired(pred, truth):
    pred = np.asarray(pred, dtype=object)
    truth = np.asarray(truth, dtype=object)
    if pred.shape != truth.shape:
        raise DataError(f"length mismatch: {pred.shape} vs {truth.shape}")
    return pred, truth


def evaluate(train, test, subset, n_neighbors=DEFAULT_NEIGHBORS):
    """Timed KNN run plus metrics against the test labels."""
    t0 = time.perf_counter()
    preds = knn_predict(train, test, subset, n_neighbors=n_neighbors)
    elapsed = time.perf_counter() - t0
    return EvalReport(
        accuracy=accuracy(preds, test.labels),
        balanced_f=balanced_f(preds, test.labels),
        predict_time=elapsed,
        subset=list(subset),
        n_neighbors=n_neighbors,
        predictions=preds,
    )
