"""Golden SHA-256 digests of the CLI's artifacts on one small seeded dataset.

tests/data/cli_golden.json holds, per command, the digest of every
artifact it writes: report.txt, curve.csv, embedding.csv and indices.csv
from `select --index-curves`, embedding.csv and z.csv from
`embed-only --export-z`, and subset.csv from `baseline`. The t-SNE runs
go past iteration 250, so both the early-exaggeration and the momentum
switch shape the embeddings. Refactoring the configuration or the
writers must reproduce every digest.

The input path is echoed into report.txt, so the runs read the CSV by a
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

_COMMON = ["--input", "toy.csv", "--label", "label", "--seed", "11"]
_TSNE = ["--perplexity", "4", "--tsne-iterations", "300"]

# name -> (argv without --output-dir, artifacts written to the output directory)
RUNS = {
    "select": (
        ["select", *_COMMON, *_TSNE, "--folds", "4", "--index-curves"],
        ("report.txt", "curve.csv", "embedding.csv", "indices.csv"),
    ),
    "embed-only": (
        ["embed-only", *_COMMON, *_TSNE, "--export-z"],
        ("embedding.csv", "z.csv"),
    ),
    "baseline": (
        ["baseline", *_COMMON, "--method", "fisher", "--k", "4"],
        ("subset.csv",),
    ),
}


def run_digests(workdir):
    """{run: {artifact: sha256 hex}} of every run in RUNS, made in workdir."""
    d, _ = redundant_groups(
        n_instances=96,
        n_classes=4,
        group_sizes=[4, 3, 3, 2],
        strengths=[2.0, 2.0, 1.5, 1.0],
        noise=0.35,
        seed=5,
    )
    write_csv(os.path.join(workdir, "toy.csv"), d)
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
