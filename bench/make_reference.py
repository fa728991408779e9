"""Write `bench/reference.json`, the stored answers of the correctness gate.

    python3 bench/make_reference.py [--seeds 0:40]

Run from the root of a checkout whose program is known to be right.  For each
workload, at full size and at the self-test size, it stores the
(check, record name, status) list of the default seed and checks that a
second seed gives the same list.  For workloads that write a certificate it
stores the six constants of every seed in `--seeds` (or once, under "any",
when the inputs do not depend on the seed).  Other seeds are still gated by
finiteness and by byte-identity across repeats.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import run_bench
import workloads

SEED_FREE = {"s4-all"}  # the canonical example is the same for every seed


_cache = {}


def answers(root: Path, workload: str, seed: int, scale: int, tmp: Path) -> dict:
    if (workload, seed, scale) in _cache:
        return _cache[workload, seed, scale]
    config = workloads.make_inputs(workload, seed, tmp / "inputs", scale)
    out_dir = tmp / f"{workload}-{scale}-{seed}"
    res = run_bench.run_child(root, config, out_dir, time.monotonic() + 600)
    if res.get("error") or res["exit_code"] != 0:
        sys.exit(f"{workload} seed {seed}: {res.get('error') or res['exit_code']}")
    report = run_bench.load_json(out_dir / "report.json")
    cert = out_dir / "certificate.json"
    constants = run_bench.load_json(cert)["constants"] if cert.is_file() else None
    print(f"{workload} 1/{scale} seed {seed}: {res['run_s']:.3f} s", flush=True)
    _cache[workload, seed, scale] = {
        "records": run_bench.record_runs(report),
        "constants": None if constants is None else
        {k: constants[k] for k in run_bench.CERTIFICATE_CONSTANTS}}
    return _cache[workload, seed, scale]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0:40", help="start:stop of certificate seeds")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split(":"))
    root = Path.cwd()
    ref = {}
    (root / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".bench_work") as tmpdir:
        tmp = Path(tmpdir)
        for scale in (1, workloads.SELFTEST_SCALE):
            for workload in workloads.WORKLOADS:
                first = answers(root, workload, run_bench.DEFAULT_SEED, scale, tmp)
                other = answers(root, workload, run_bench.CONFIRM_SEED, scale, tmp)
                if other["records"] != first["records"]:
                    sys.exit(f"{workload}: record list depends on the seed")
                entry = {"records": first["records"]}
                if first["constants"] is not None:
                    if workload in SEED_FREE:
                        entry["certificates"] = {"any": first["constants"]}
                    else:
                        seeds = range(lo, hi) if scale == 1 else (run_bench.DEFAULT_SEED,)
                        entry["certificates"] = {
                            str(s): answers(root, workload, s, scale, tmp)["constants"]
                            for s in seeds}
                ref[run_bench.reference_key(workload, scale)] = entry
                run_bench.REFERENCE.write_text(
                    json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
