"""One measured operation in a fresh interpreter; started by run.py.

    worker.py setup  SRC CSV RESULT
        time `import sepselect`, `load_csv` and `minmax_normalize`.
    worker.py invoke SRC RESULT RUN_ID SPANS -- CLI-ARGS...
        time one `sepselect.cli.main(CLI-ARGS)` call and record the peak
        resident memory of this process; when SPANS is not empty, trace the
        call and append its spans to that file.

SRC is the `src` directory the package must be imported from; the worker
refuses to measure any other copy. The result is a JSON object written to
RESULT.
"""

import json
import os
import sys
import time
import traceback


def _import_sepselect(src):
    sys.path.insert(0, src)
    import sepselect

    where = os.path.realpath(os.path.dirname(sepselect.__file__))
    if os.path.dirname(where) != os.path.realpath(src):
        raise SystemExit(f"sepselect imported from {where}, expected under {src}")
    return sepselect


def _peak_rss_mb():
    """High-water resident set of this process image. getrusage's ru_maxrss
    would also count the parent's peak, carried over the fork and exec that
    started this worker."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup(src, csv_path):
    t0 = time.perf_counter()
    sepselect = _import_sepselect(src)
    # the label column of workloads.write_csv; importing workloads here would
    # load numpy before the clock starts
    data = sepselect.minmax_normalize(sepselect.load_csv(csv_path, "label"))
    elapsed = time.perf_counter() - t0
    return {"setup_s": elapsed, "rows": data.n_instances}


def invoke(src, run_id, spans_path, argv):
    _import_sepselect(src)
    from sepselect import cli

    main, tracer = cli.main, None
    if spans_path:
        import tracing

        tracer = tracing.Tracer(run_id)
        main = tracing.install(tracer)

    error = None
    exit_code = None
    t0 = time.perf_counter()
    try:
        exit_code = main(argv)
    except Exception:  # any escape from the CLI is a failed operation
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    out = {
        "wall_s": wall,
        "exit_code": exit_code,
        "error": error,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        out["self_s"] = tracer.self_times()
        out["root_s"] = tracer.root_seconds()
        out["counters"] = dict(tracer.counters)
        with open(spans_path, "a", encoding="utf-8") as fh:
            for record in tracer.span_records():
                fh.write(json.dumps(record) + "\n")
    return out


def main(args):
    mode = args[0]
    if mode == "setup":
        src, csv_path, result_path = args[1:4]
        result = setup(src, csv_path)
    elif mode == "invoke":
        src, result_path, run_id, spans_path, sep = args[1:6]
        if sep != "--":
            raise SystemExit("usage: worker.py invoke SRC RESULT RUN_ID SPANS -- ARGS")
        result = invoke(src, run_id, spans_path, args[6:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
