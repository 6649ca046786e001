"""Output checks of one CLI call, and the held-out scoring of a subset.

A call fails when any of these holds:
* the worker saw an exception, or the exit code is not 0;
* k_min lies outside the sweep range;
* the selected-feature count differs from k_min, or an index repeats
  (`select` only: `compare` prints no subset);
* fewer than 3 finite points on the averaged curve (`select` only);
* its report digest differs from the first call of the same run (checked
  by the caller). The digest covers `report.txt` for `select`, and
  `compare.txt` up to its wall-clock timing section for `compare`.
"""

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np


@dataclass
class Expectation:
    command: str
    n_features: int
    k_hi: int

    @classmethod
    def of(cls, workload, shape, tiny):
        opts = list(workload.tiny_options if tiny else workload.options)
        m = shape.features
        k_max = int(opts[opts.index("--k-max") + 1]) if "--k-max" in opts else m
        return cls(command=workload.command, n_features=m, k_hi=min(k_max, m))


@dataclass
class Outcome:
    k_min: int
    subset: list | None  # selected feature indices (select)
    accuracy: float | None  # mean sepselect accuracy as compare reports it
    digest: str


def check_call(res, outdir, expect):
    """(failure reasons, parsed outcome or None) for one call."""
    if res is None:
        return ["no result from the worker (crashed or timed out)"], None
    if res.get("error"):
        return [f"exception: {res['error'].strip().splitlines()[-1]}"], None
    if res.get("exit_code") != 0:
        return [f"exit code {res.get('exit_code')}"], None
    try:
        if expect.command == "select":
            return _check_select(outdir, expect)
        return _check_compare(outdir, expect)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], None


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_select(outdir, expect):
    report = _read(os.path.join(outdir, "report.txt"))
    lines = report.splitlines()
    k_min = int(next(ln for ln in lines if ln.startswith("  k_min:")).split(":")[1])
    head = next(i for i, ln in enumerate(lines) if ln.startswith("selected features ("))
    subset = []
    for ln in lines[head + 1:]:
        if not ln.startswith("  "):
            break
        subset.append(int(ln.split()[0]))

    reasons = []
    if not 2 <= k_min <= expect.k_hi:
        reasons.append(f"k_min {k_min} outside [2, {expect.k_hi}]")
    if len(subset) != k_min:
        reasons.append(f"{len(subset)} selected features for k_min {k_min}")
    if len(set(subset)) != len(subset):
        reasons.append("repeated selected index")
    if any(not 0 <= j < expect.n_features for j in subset):
        reasons.append("selected index out of range")

    curve = _read(os.path.join(outdir, "curve.csv")).splitlines()[1:]
    finite = sum(1 for row in curve if math.isfinite(float(row.split(",")[1])))
    if finite < 3:
        reasons.append(f"only {finite} finite curve points")
    return reasons, Outcome(k_min, subset, None, _digest(report))


def _check_compare(outdir, expect):
    text = _read(os.path.join(outdir, "compare.txt"))
    first = text.splitlines()[0]
    k_min = int(first.split("k_min=")[1].split(",")[0])
    stable = text.split("prediction timing")[0]
    accuracy = None
    for ln in stable.splitlines():
        cells = ln.split()
        if len(cells) == 3 and cells[0] == "sepselect":
            accuracy = float(cells[1])

    reasons = []
    if not 2 <= k_min <= expect.k_hi:
        reasons.append(f"k_min {k_min} outside [2, {expect.k_hi}]")
    if accuracy is None or not 0.0 <= accuracy <= 1.0:
        reasons.append(f"no valid sepselect accuracy in compare.txt ({accuracy})")
        return reasons, None
    return reasons, Outcome(k_min, None, accuracy, _digest(stable))


def knn_accuracy(x, labels, holdout_x, holdout_labels, subset, n_neighbors=5):
    """5-NN accuracy of `subset` on held-out rows, written independently of
    the package: rows min-max scaled by the program's rows, Euclidean
    distance, distance ties to the lower row, vote ties to the class seen
    first among the neighbours."""
    mins = x.min(axis=0)
    spans = x.max(axis=0) - mins
    safe = np.where(spans > 0.0, spans, 1.0)
    a = ((x - mins) / safe)[:, subset]
    b = ((holdout_x - mins) / safe)[:, subset]
    correct = 0
    for start in range(0, len(b), 128):
        block = b[start:start + 128]
        d2 = np.sum((block[:, None, :] - a[None, :, :]) ** 2, axis=2)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :n_neighbors]
        for row, truth in zip(labels[nearest], holdout_labels[start:start + 128]):
            votes = {}
            for lab in row:
                votes[lab] = votes.get(lab, 0) + 1
            best = max(votes.values())
            winner = next(lab for lab in row if votes[lab] == best)
            correct += winner == truth
    return correct / len(b)
