"""One benchmark run in a fresh process.

    python3 bench/child.py --config CFG --out DIR --result FILE
                           [--setup-seconds S] [--trace SPANS_FILE --run-id ID]

Imports the package first, so that `run_s` times the program and not
interpreter start-up.  Then it times `cli.main(["run", ...])`, reads the
process's peak resident set, and times `cli.build_context` again on the same
config for S seconds, at most SETUP_MAX times (warm set-up samples).  Nothing
runs before the timed run, so that no cache the program may keep is filled
for it.  The result file is JSON.  With `--trace` the tracer is installed
before the run and its spans are written when the run ends.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

SETUP_MAX = 200


def blas_threads():
    """Thread count that the loaded OpenBLAS reports, or None where it cannot
    be found (the library is located through this process's memory map)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = None
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas": openblas, "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-seconds", type=float, default=0.0)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--run-id", default="0")
    args = ap.parse_args()

    from ultraheat import cli

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(args.run_id)
        tracing.install(tracer)

    setup = []
    build_context = cli.build_context

    def timed_build_context(cfg):
        t0 = time.perf_counter()
        ctx = build_context(cfg)
        setup.append(time.perf_counter() - t0)
        return ctx

    cli.build_context = timed_build_context
    out = {"exit_code": None, "error": None}
    t0 = time.perf_counter()
    try:
        out["exit_code"] = cli.main(["run", "--config", args.config, "--out", args.out])
    except Exception:
        out["error"] = traceback.format_exc()
    out["run_s"] = time.perf_counter() - t0
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.write_spans(args.trace)
    elif out["error"] is None:
        cfg = cli.load_config(args.config)
        stop = time.perf_counter() + args.setup_seconds
        while len(setup) <= SETUP_MAX and time.perf_counter() < stop:
            timed_build_context(cfg)
    out["setup_s"] = setup
    out["environment"] = environment()
    Path(args.result).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
