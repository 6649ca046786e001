"""Benchmark workloads: seeded CSV generation and the CLI arguments of each.

Every workload is a fixed population of labelled rows whose features form
equal groups of redundant copies of one class-dependent signal, the
structure the selector is built for. Rows, features and classes follow the
acceptance stand-ins. The group prototypes come from a fixed structure
seed, so every benchmark seed draws a new sample of the same population:
the class labels and the observation noise change with the seed, the
difficulty of the task does not. Groups of equal size and strength give the
validity curve one clear knee at the group count, so k_min, and with it the
work after the sweep and the quality metrics, stays put from seed to seed;
with the stand-ins' graded groups the knee moved by several k between
seeds.

The program only ever sees `input.csv`. The held-out rows (`holdout.csv`)
come from the same population and are used by the benchmark alone to score
the selected subset.
"""

from dataclasses import dataclass

import numpy as np

LABEL = "label"


@dataclass(frozen=True)
class Shape:
    rows: int
    holdout_rows: int
    classes: int
    group_sizes: tuple
    strength: float
    noise: float
    structure_seed: int

    @property
    def features(self):
        return sum(self.group_sizes)


@dataclass(frozen=True)
class Workload:
    command: str  # sepselect sub-command
    options: tuple  # CLI options besides --input/--label/--seed/--output-dir
    full: Shape
    tiny: Shape
    tiny_options: tuple

    def shape(self, tiny):
        return self.tiny if tiny else self.full

    def argv(self, csv_path, seed, output_dir, tiny):
        opts = self.tiny_options if tiny else self.options
        return [
            self.command,
            "--input", csv_path,
            "--label", LABEL,
            "--seed", str(seed),
            "--output-dir", output_dir,
            *opts,
        ]


WORKLOADS = {
    # Mice-like 1080x77, 8 classes, default settings: the full k sweep 2..77
    # over 5 folds makes the k-medoids sweep the dominant layer.
    "mice_sweep": Workload(
        command="select",
        options=(),
        full=Shape(1080, 3240, 8, (11,) * 7, 1.5, 0.8, 21),
        tiny=Shape(120, 120, 4, (5, 5), 1.5, 0.5, 21),
        tiny_options=("--perplexity", "3", "--tsne-iterations", "60", "--folds", "3"),
    ),
    # Figure-2 shape 720x203, 12 classes, sweep capped at k=12 (the README's
    # path for wide data): exact t-SNE on 203 points dominates, PAM is small.
    "wide_capped": Workload(
        command="select",
        options=("--k-max", "12"),
        full=Shape(720, 2160, 12, (34, 34, 34, 34, 34, 33), 1.3, 0.7, 11),
        tiny=Shape(96, 96, 4, (4, 4, 4), 1.3, 1.0, 11),
        tiny_options=("--k-max", "5", "--perplexity", "3", "--tsne-iterations", "60",
                      "--folds", "3"),
    ),
    # Cardio-like 2126x23, 10 classes, method comparison: ReliefF and KNN
    # over many rows dominate; t-SNE and PAM run as one-shot select_at_k.
    # compare prints no subset, so there are no held-out rows.
    "cardio_compare": Workload(
        command="compare",
        options=("--perplexity", "10", "--repetitions", "5"),
        full=Shape(2126, 0, 10, (8, 8, 7), 1.5, 0.45, 22),
        tiny=Shape(160, 0, 3, (4, 4), 1.5, 0.3, 22),
        tiny_options=("--perplexity", "3", "--tsne-iterations", "60", "--folds", "3",
                      "--repetitions", "2"),
    ),
}


@dataclass
class Sample:
    x: np.ndarray  # (rows, features)
    codes: np.ndarray  # (rows,) class codes
    holdout_x: np.ndarray
    holdout_codes: np.ndarray


def draw(shape, seed):
    """One seeded sample of the workload population, plus held-out rows."""
    structure = np.random.default_rng(shape.structure_seed)
    protos = [structure.normal(0.0, shape.strength, shape.classes) for _ in shape.group_sizes]

    rng = np.random.default_rng([shape.structure_seed, seed])
    total = shape.rows + shape.holdout_rows
    codes = np.tile(np.arange(shape.classes), -(-total // shape.classes))[:total]
    rng.shuffle(codes)
    columns = []
    for proto, size in zip(protos, shape.group_sizes):
        signal = proto[codes]
        for _ in range(size):
            columns.append(signal + rng.normal(0.0, shape.noise, total))
    x = np.column_stack(columns)
    n = shape.rows
    return Sample(x[:n], codes[:n], x[n:], codes[n:])


def class_name(code):
    return f"c{int(code)}"


def feature_names(m):
    return [f"f{j}" for j in range(m)]


def write_csv(path, x, codes):
    lines = [",".join(feature_names(x.shape[1]) + [LABEL])]
    for row, code in zip(x, codes):
        lines.append(",".join([repr(float(v)) for v in row] + [class_name(code)]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Inverse of write_csv: (x, class-name array)."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()  # header
        rows, labels = [], []
        for line in fh:
            cells = line.rstrip("\n").split(",")
            rows.append([float(c) for c in cells[:-1]])
            labels.append(cells[-1])
    return np.array(rows, dtype=float), np.array(labels, dtype=object)
