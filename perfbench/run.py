#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the sepselect command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/`). One
run generates the workload's CSV from the seed, then:

* set-up: times `import sepselect`, `load_csv` and `minmax_normalize` in
  several fresh interpreters (`setup_s`, median);
* measurement: calls `sepselect.cli.main` once per fresh interpreter, over
  and over for about S seconds (`run_s` and `peak_rss_mb`, medians);
* checks every call's outputs; a call that fails any check counts in
  `failed`, so error_rate = failed / attempted;
* scores the selected subset on held-out rows the program never saw
  (`subset_accuracy`) and reports `subset_fraction` = k_min / M.

With --trace 1 the calls alternate between untraced and traced ones and the
per-layer metrics are printed instead: self seconds per layer and counters
from the traced call with the median wall time, plus the tracing overhead.
The spans of all traced calls are written to
`.bench_tmp/spans-<workload>-seed<N>.jsonl`, one JSON object per line.

Every process runs with BLAS/OpenMP pinned to one thread and without the
SEPSELECT_* environment overrides. Outputs go to a temporary directory under
`.bench_tmp/` in the checkout, removed at exit. The last line of standard
output is the JSON result; the lines before it describe the run.
"""

import os

# Pinned before numpy is imported, here and (through the environment) in
# every worker: the single-threaded baseline.
_PINNED_THREADS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(_PINNED_THREADS)
for _var in ("SEPSELECT_THREADS", "SEPSELECT_OUTPUT_DIR"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, draw, read_csv, write_csv  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "subset_accuracy": "fraction",
    "subset_fraction": "fraction",
}
PER_LAYER = {
    **{f"{layer}_s": "s" for layer in tracing.LAYERS},
    **{name: "count" for name in tracing.COUNTERS},
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}

SETUPS_PER_CALL = 2
MIN_CALLS = 2
DEADLINE_S = 170.0  # the whole run, set-up and generation included


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--tiny", action="store_true", help="tiny inputs and settings (self-check only)"
    )
    return p.parse_args(argv)


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_pinned": sorted(_PINNED_THREADS),
    }


class Runner:
    """Starts worker interpreters inside the run's temporary directory."""

    def __init__(self, src, tmp, deadline):
        self.src = src
        self.tmp = tmp
        self.deadline = deadline
        self.count = 0

    def _run(self, args):
        self.count += 1
        tag = os.path.join(self.tmp, f"w{self.count}")
        result = tag + ".json"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(tag + ".out", "w") as out, open(tag + ".err", "w") as err:
            try:
                subprocess.run(
                    [sys.executable, WORKER, *args(result, tag)],
                    stdout=out,
                    stderr=err,
                    cwd=self.tmp,
                    timeout=timeout,
                    check=False,
                )
            except subprocess.TimeoutExpired:
                return None, tag
        if not os.path.exists(result):
            return None, tag
        with open(result, encoding="utf-8") as fh:
            return json.load(fh), tag

    def setup(self, csv_path):
        res, _ = self._run(lambda result, tag: ["setup", self.src, csv_path, result])
        return res

    def invoke(self, argv, run_id, spans_path):
        """One CLI call; traced when spans_path names the file its spans are
        appended to."""

        def args(result, tag):
            return ["invoke", self.src, result, run_id, spans_path or "", "--", *argv]

        return self._run(args)


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sepselect", "__init__.py")):
        print(f"no sepselect sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    shape = workload.shape(args.tiny)
    started = time.monotonic()
    os.makedirs(os.path.join(root, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, ".bench_tmp"))
    try:
        return measure(args, workload, shape, src, tmp, started)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


@dataclass
class Call:
    traced: bool
    result: dict | None  # the worker's JSON, None when it produced none
    failures: list
    seconds: float  # wall time of the whole worker process


def measure(args, workload, shape, src, tmp, started):
    # Generation: excluded from every metric.
    sample = draw(shape, args.seed)
    csv_path = os.path.join(tmp, "input.csv")
    holdout_path = os.path.join(tmp, "holdout.csv")
    write_csv(csv_path, sample.x, sample.codes)
    write_csv(holdout_path, sample.holdout_x, sample.holdout_codes)

    spans_path = None
    if args.trace:
        spans_path = os.path.join(os.path.dirname(tmp),
                                  f"spans-{args.workload}-seed{args.seed}.jsonl")
        if os.path.exists(spans_path):
            os.remove(spans_path)
    runner = Runner(src, tmp, started + DEADLINE_S)
    expect = checks.Expectation.of(workload, shape, args.tiny)
    calls, setup_s, reference = [], [], None
    t0 = time.monotonic()
    while True:
        typical = median([c.seconds for c in calls])
        if len(calls) >= MIN_CALLS and time.monotonic() - t0 + typical > args.seconds:
            break
        if started + DEADLINE_S - time.monotonic() < max(2.0 * typical, 1.0):
            break
        if not args.trace:
            # Set-up samples are spread over the run, so that their median
            # sees the same machine as the calls' median.
            for _ in range(SETUPS_PER_CALL):
                res = runner.setup(csv_path)
                if res is not None:
                    setup_s.append(res["setup_s"])
        i = len(calls)
        traced = bool(args.trace) and i % 2 == 1
        outdir = os.path.join(tmp, f"out{i}")
        call_start = time.monotonic()
        res, tag = runner.invoke(
            workload.argv(csv_path, args.seed, outdir, args.tiny),
            f"{args.workload}:{args.seed}:{i}",
            spans_path if traced else None,
        )
        failures, outcome = checks.check_call(res, outdir, expect)
        if outcome is not None:
            if reference is None:
                reference = outcome
            elif outcome.digest != reference.digest:
                failures.append("report digest differs from the run's first call")
        if failures:
            print(f"# call {i} failed: {'; '.join(failures)}", file=sys.stderr)
            with open(tag + ".err", encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-2000:])
        calls.append(Call(traced, res, failures, time.monotonic() - call_start))

    attempted = len(calls)
    failed = sum(1 for c in calls if c.failures)
    opts = workload.tiny_options if args.tiny else workload.options
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed}: {shape.rows} rows x "
          f"{shape.features} features, {shape.classes} classes; "
          f"sepselect {workload.command} {' '.join(opts)}")
    print(f"# calls attempted {attempted} failed {failed} "
          f"error_rate {failed / attempted:.4f}")

    plain = [c.result for c in calls if not c.traced and c.result is not None]
    traced = [c.result for c in calls if c.traced and c.result is not None]
    if args.trace:
        print(f"# spans of the traced calls: {os.path.relpath(spans_path)}")
        metrics, units = per_layer(plain, traced), PER_LAYER
    else:
        metrics, units = end_to_end(plain, setup_s, reference, holdout_path, csv_path,
                                    shape), END_TO_END
        for name, samples in (("run_s", [r["wall_s"] for r in plain]),
                              ("peak_rss_mb", [r["peak_rss_mb"] for r in plain]),
                              ("setup_s", setup_s)):
            print(f"# {name} median of {len(samples)}: {median(samples):.4f} "
                  f"(samples {' '.join(f'{v:.4f}' for v in samples)})")
    result = {
        "correct": failed == 0 and reference is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def end_to_end(plain, setup_s, reference, holdout_path, csv_path, shape):
    accuracy = fraction = 0.0
    if reference is not None:
        fraction = reference.k_min / shape.features
        if reference.subset is not None:
            x, labels = read_csv(csv_path)
            hx, hlabels = read_csv(holdout_path)
            accuracy = checks.knn_accuracy(x, labels, hx, hlabels, reference.subset)
        else:
            accuracy = reference.accuracy
    return {
        "run_s": median([r["wall_s"] for r in plain]),
        "setup_s": median(setup_s),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "subset_accuracy": accuracy,
        "subset_fraction": fraction,
    }


def per_layer(plain, traced):
    """Self times and counters of the traced call with the median wall time,
    so the layers add up to that call's `trace.run_s`."""
    out = {name: 0.0 for name in PER_LAYER}
    if not traced:
        return out
    chosen = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    for layer, seconds in chosen["self_s"].items():
        out[f"{layer}_s"] = seconds
    out.update(chosen["counters"])
    out["trace.run_s"] = chosen["root_s"]
    out["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                               - median([r["wall_s"] for r in plain]))
    return out


if __name__ == "__main__":
    sys.exit(main())
