#!/usr/bin/env python3
"""Fast self-check of the benchmark; run from the checkout root:

    python3 perfbench/selfcheck.py

Runs every workload at a tiny size, untraced and traced, and asserts that
the result line has the agreed keys, that no call failed, and that the
metrics emitted are exactly those BENCHMARK.json names, with its units.
Then runs the benchmark in a directory holding only BENCHMARK.json and the
benchmark files, where it must exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS  # noqa: E402


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def check_result(proc, expected, label):
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: not correct\n{proc.stderr}"
    assert result["failed"] == 0 and result["attempted"] >= 1, label
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{label}: metrics {sorted(got)} != {sorted(expected)}"
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, f"{label}: {name}"
        assert isinstance(m["value"], (int, float)), f"{label}: {name}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            check_result(run(ROOT, workload, trace), expected, f"{workload} trace {trace}")
            print(f"ok {workload} trace {trace}")

    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, next(iter(WORKLOADS)), 0)
        assert proc.returncode != 0, "benchmark succeeded without the program's sources"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without sources"
        print("ok fails without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    main()
