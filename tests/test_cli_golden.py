"""Golden SHA-256 digests of the CLI's artifacts on small seeded datasets.

tests/data/cli_golden.json holds, per command, the digest of every
artifact it writes: report.txt, curve.csv, embedding.csv, indices.csv and
the three SVG charts from `select --index-curves --plots`, embedding.csv
and z.csv from `embed-only --export-z`, subset.csv from `baseline`, and
compare.txt from `compare` (its wall clock goes to timings.txt, which is
not digested). The t-SNE runs go past iteration 250, so both the
early-exaggeration and the momentum switch shape the embeddings. `compare`
reads a noisier draw of the same population, so its accuracies are not
all 1. Refactoring the configuration, the writers or the charts must
reproduce every digest.

The input path is echoed into report.txt, so the runs read each CSV by a
relative path from their working directory. Regenerate only on a
deliberate change of results:

    PYTHONPATH=src:tests python tests/test_cli_golden.py > tests/data/cli_golden.json
"""

import contextlib
import hashlib
import json
import os
import sys
import tempfile

import pytest

from _datasets import redundant_groups, write_csv
from sepselect.cli import main

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")

_LABEL_SEED = ["--label", "label", "--seed", "11"]
_COMMON = ["--input", "toy.csv", *_LABEL_SEED]
_TSNE = ["--perplexity", "4", "--tsne-iterations", "300"]

# name -> (argv without --output-dir, artifacts written to the output directory)
RUNS = {
    "select": (
        ["select", *_COMMON, *_TSNE, "--folds", "4", "--index-curves", "--plots"],
        ("report.txt", "curve.csv", "embedding.csv", "indices.csv",
         "curve.svg", "embedding.svg", "indices.svg"),
    ),
    "embed-only": (
        ["embed-only", *_COMMON, *_TSNE, "--export-z"],
        ("embedding.csv", "z.csv"),
    ),
    "baseline": (
        ["baseline", *_COMMON, "--method", "fisher", "--k", "4"],
        ("subset.csv",),
    ),
    "compare": (
        ["compare", "--input", "noisy.csv", *_LABEL_SEED, *_TSNE, "--folds", "4",
         "--repetitions", "3", "--neighbors", "3", "--relieff-neighbors", "5"],
        ("compare.txt",),
    ),
}

def run_digests(workdir):
    """{run: {artifact: sha256 hex}} of every run in RUNS, made in workdir."""
    for name, noise in (("toy.csv", 0.35), ("noisy.csv", 1.5)):
        d, _ = redundant_groups(
            n_instances=96,
            n_classes=4,
            group_sizes=[4, 3, 3, 2],
            strengths=[2.0, 2.0, 1.5, 1.0],
            noise=noise,
            seed=5,
        )
        write_csv(os.path.join(workdir, name), d)
    out = {}
    with contextlib.chdir(workdir), contextlib.redirect_stdout(sys.stderr):
        for name, (argv, artifacts) in RUNS.items():
            assert main([*argv, "--output-dir", name]) == 0, name
            out[name] = {}
            for artifact in artifacts:
                with open(os.path.join(name, artifact), "rb") as fh:
                    out[name][artifact] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_cli_artifacts_match_golden_digests(golden, tmp_path):
    assert run_digests(str(tmp_path)) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(run_digests(tmp), indent=1, sort_keys=True))
