"""End-to-end and per-layer benchmark of `ultraheat run`.

    python3 bench/run_bench.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The workloads are defined in
`bench/workloads.py`; their inputs are written from `--seed` into
`.bench_work/`, which the benchmark removes again except for the digest
store and the spans of the last traced run.

Load model: closed loop with one client.  Each run is a fresh child process
(`bench/child.py`) with the BLAS thread count set to 1; runs follow each other
while the next one, as long as the last, would end within `--seconds` (at
least one run).  With `--trace 0` the last
line of output is a JSON object with the end-to-end metrics, with `--trace 1`
one untraced run and one traced run give the per-layer metrics.

Every run passes the correctness gate or counts as failed: the child exits 0
and `ultraheat run` returns 0; the (check, record name, status) list equals the
stored reference; the six certificate constants match the stored reference
for that seed within 1e-8 relative (the refinement scans stop at 1e-9); and
report.json and certificate.json are byte-identical to every earlier run of
the same program, workload and seed.  Any failed run makes the exit code 1.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
CONFIRM_SEED = 2  # reserved for confirming a claimed gain on unseen inputs
SETUP_SECONDS = 0.3
TIME_LIMIT_S = 170.0
CONSTANT_RTOL = 1e-8
CERTIFICATE_CONSTANTS = ("C_TJ", "C_DUE", "C_N", "C_tail", "C_wUE_derived",
                         "C_wUE_measured")
REFERENCE = HERE / "reference.json"


def load_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def reference_key(workload: str, scale: int) -> str:
    return workload if scale == 1 else f"{workload}@{scale}"


def record_runs(report: dict) -> list:
    """(check, record name, status) of every record, run-length encoded as
    [check, name, status, count] so that long batteries stay small."""
    runs = []
    for rec in report["records"]:
        triple = [rec["params"]["check"], rec["name"], rec["status"]]
        if runs and runs[-1][:3] == triple:
            runs[-1][3] += 1
        else:
            runs.append(triple + [1])
    return runs


def source_digest(root: Path) -> str:
    """Digest of the package sources: runs of different code never share a
    byte-identity record."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "ultraheat").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_child(root: Path, config: Path, out_dir: Path, deadline: float,
              trace_file: Path | None = None, run_id: str = "0") -> dict:
    """Run one child to completion; return its result, or an `error` entry."""
    result_file = out_dir.with_suffix(".result.json")
    cmd = [sys.executable, str(HERE / "child.py"), "--config", str(config),
           "--out", str(out_dir), "--result", str(result_file),
           "--setup-seconds", str(SETUP_SECONDS)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file), "--run-id", run_id]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    env.pop("ULTRAHEAT_THREADS", None)
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "child timed out"}
    if proc.returncode != 0 or not result_file.is_file():
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return load_json(result_file)


def gate(result: dict, out_dir: Path, expected: dict, digests: dict,
         digest_key: str, seed: int) -> list:
    """Problems with one run; empty when it passes the correctness gate."""
    if result.get("error"):
        return [result["error"].strip().splitlines()[-1]]
    if result["exit_code"] != 0:
        return [f"ultraheat run exited {result['exit_code']}"]
    if not (out_dir / "report.json").is_file():
        return ["report.json missing"]
    problems = []
    report_bytes = (out_dir / "report.json").read_bytes()
    got = record_runs(json.loads(report_bytes))
    if got != expected["records"]:
        first = next((i for i, (a, b) in enumerate(zip(got, expected["records"]))
                      if a != b), min(len(got), len(expected["records"])))
        problems.append(f"record list differs from the reference at run {first}")
    cert_path = out_dir / "certificate.json"
    cert_bytes = cert_path.read_bytes() if cert_path.is_file() else b""
    stored = expected.get("certificates", {})
    ref_constants = stored.get(str(seed), stored.get("any"))
    if "certificates" in expected:
        if not cert_bytes:
            problems.append("certificate.json missing")
        else:
            constants = json.loads(cert_bytes)["constants"]
            for name in CERTIFICATE_CONSTANTS:
                value = constants.get(name)
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"certificate {name} = {value!r}")
                elif ref_constants is not None and not math.isclose(
                        value, ref_constants[name], rel_tol=CONSTANT_RTOL, abs_tol=0.0):
                    problems.append(f"certificate {name} = {value!r}, reference "
                                    f"{ref_constants[name]!r}")
    digest = [hashlib.sha256(report_bytes).hexdigest(), hashlib.sha256(cert_bytes).hexdigest()]
    previous = digests.setdefault(digest_key, digest)
    if previous != digest:
        problems.append("report.json or certificate.json differs from an earlier run "
                        "of the same program, workload and seed")
    return problems


def tail_percentile(values: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=int, default=1,
                    help="divide the problem size (self-test only)")
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the
    # running child before this process ends
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "ultraheat" / "cli.py").is_file():
        print(f"error: {root} holds no src/ultraheat; run from the repository root",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    key = reference_key(args.workload, args.scale)
    expected = load_json(REFERENCE).get(key)
    if expected is None:
        print(f"error: no reference for {key} in {REFERENCE}", file=sys.stderr)
        return 2

    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    digest_file = work / "digests.json"
    digests = load_json(digest_file) if digest_file.is_file() else {}
    digest_key = f"{source_digest(root)}:{key}:{args.seed}"
    tmp = Path(tempfile.mkdtemp(prefix=f"{key}-{args.seed}-", dir=work))
    try:
        config = workloads.make_inputs(args.workload, args.seed, tmp / "inputs", args.scale)
        results, problems = [], []

        def one_run(trace_file=None):
            out_dir = tmp / f"run{len(results)}"
            res = run_child(root, config, out_dir, deadline, trace_file,
                            run_id=f"{key}:{args.seed}:{len(results)}")
            results.append(res)
            problems.append(gate(res, out_dir, expected, digests, digest_key, args.seed))
            if trace_file is not None and not problems[-1]:
                res["report"] = load_json(out_dir / "report.json")
            shutil.rmtree(out_dir, ignore_errors=True)
            return res

        if args.trace:
            untraced = one_run()
            spans = work / f"spans-{key}-{args.seed}.jsonl"
            traced = one_run(spans)
        else:
            while True:
                began = time.monotonic()
                one_run()
                now = time.monotonic()
                if now + (now - began) - start > args.seconds:
                    break
        tmp_digests = digest_file.with_suffix(".tmp")
        tmp_digests.write_text(json.dumps(digests, indent=1, sort_keys=True), encoding="utf-8")
        tmp_digests.replace(digest_file)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = len(results)
    failed = sum(1 for p in problems if p)
    for i, p in enumerate(problems):
        for line in p:
            print(f"run {i} failed: {line}")
    ok = [r for r, p in zip(results, problems) if not p]
    env = next((r["environment"] for r in results if "environment" in r), {})
    print(f"workload {args.workload} (scale 1/{args.scale}) seed {args.seed}: "
          f"{attempted} run(s), closed loop, one client, fresh child per run")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    print("run_s of each run: " + " ".join(f"{r['run_s']:.4f}" for r in ok))

    values = {}
    if not args.trace:
        samples = {
            "run_s": [r["run_s"] for r in ok],
            "setup_s": [s for r in ok for s in r["setup_s"]],
            "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in ok],
        }
        for name, unit, *_ in metrics.END_TO_END:
            xs = samples[name]
            if not xs:
                continue
            values[name] = (statistics.median(xs), unit)
            tail = tail_percentile(xs)
            tail_txt = (f"p{tail[0]:.1f} {tail[1]:.6g}" if tail
                        else "no percentile with 10 samples beyond it")
            print(f"{name:12s} median {values[name][0]:.6g} {unit}  n={len(xs)}  {tail_txt}")
    elif not problems[0] and not problems[1]:
        per_layer = metrics.per_layer_values(traced["trace"], traced["report"],
                                             traced["run_s"], untraced["run_s"])
        for name, unit, *_ in metrics.PER_LAYER:
            values[name] = (per_layer[name], unit)
            shown = "absent" if per_layer[name] is None else f"{per_layer[name]:.6g}"
            print(f"{name:40s} {shown} {unit}")
        for workload, label, parts, share, zeros in metrics.TRAFFIC:
            if workload != args.workload:
                continue
            got = sum(per_layer[p] or 0.0 for p in parts) / traced["run_s"]
            print(f"traffic: {label} is {got:.1%} of the traced run "
                  f"(expected >= {share:.0%})")
            for z in zeros:
                print(f"traffic: {z} = {per_layer[z]} (expected 0)")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
