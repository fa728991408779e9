"""Self-test of the benchmark, and the record of its steadiness.

    python3 bench/selftest.py                  # reduced-size check, about a minute
    python3 bench/selftest.py --steadiness 10  # full size, 10 seeds per workload

The default mode runs every workload once at 1/SELFTEST_SCALE of its size,
untraced and traced, and asserts that the correctness gate passes and that
every metric named in BENCHMARK.json is emitted with its unit.  It also checks
that BENCHMARK.json agrees with `bench/metrics.py`, and that the benchmark
refuses to run, without printing a result, where the program is missing.

`--steadiness N` runs each workload at full size on seeds 1..N, reports for
every end-to-end metric its median, its quartile spread as a share of the
median and the metric's bound, runs one traced run per workload to confirm
the expected traffic, and writes all of it to `bench/steadiness.json`.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402


def bench(root: Path, *args) -> tuple[int, list, dict | None]:
    proc = subprocess.run([sys.executable, str(HERE / "run_bench.py"), *map(str, args)],
                          cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
    return proc.returncode, lines, result


def check_declaration(root: Path) -> dict:
    decl = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in decl["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in decl["end_to_end"]] \
        == [row[:4] for row in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in decl["per_layer"]] \
        == [row[:3] for row in metrics.PER_LAYER]
    return decl


def assert_emitted(result: dict, declared: list, label: str) -> None:
    assert result is not None, f"{label}: no result line"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        f"{label}: gate failed: {result}"
    got = result["metrics"]
    assert sorted(got) == sorted(m["name"] for m in declared), f"{label}: metric names"
    for m in declared:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], f"{label}: unit of {m['name']}"
        assert isinstance(entry["value"], (int, float)), \
            f"{label}: {m['name']} = {entry['value']!r} (absent hook?)"


def selftest(root: Path) -> None:
    decl = check_declaration(root)
    for workload in workloads.WORKLOADS:
        for trace, declared in ((0, decl["end_to_end"]), (1, decl["per_layer"])):
            code, _, result = bench(root, "--workload", workload, "--seed", 1, "--seconds",
                                    1, "--trace", trace,
                                    "--scale", workloads.SELFTEST_SCALE)
            label = f"{workload} trace {trace}"
            assert code == 0, f"{label}: exit {code}"
            assert_emitted(result, declared, label)
            print(f"ok {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} run(s)")
    (root / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".bench_work") as bare:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, result = bench(Path(bare), "--workload", workloads.WORKLOADS[0])
        assert code != 0 and result is None, "ran without the program"
    print("ok refuses to run without the program")


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steadiness(root: Path, seeds: int) -> None:
    decl = check_declaration(root)
    seconds = decl["run_seconds"]
    evidence = {"run_seconds": seconds, "seeds": list(range(1, seeds + 1)),
                "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs, failed, attempted = [], 0, 0
        for seed in range(1, seeds + 1):
            code, _, result = bench(root, "--workload", workload, "--seed", seed,
                                    "--seconds", seconds, "--trace", 0)
            attempted += result["attempted"] if result else 1
            failed += result["failed"] if result else 1
            if code == 0:
                runs.append({k: v["value"] for k, v in result["metrics"].items()})
        entry = {"fail_ratio": failed / attempted, "attempted": attempted, "metrics": {}}
        print(f"{workload}: fail_ratio {failed}/{attempted}")
        for name, unit, _better, bound, _what in metrics.END_TO_END:
            xs = [r[name] for r in runs]
            s = spread(xs) if len(xs) >= 2 else float("nan")
            entry["metrics"][name] = {"unit": unit, "values": xs,
                                      "median": statistics.median(xs), "spread": s,
                                      "bound": bound}
            print(f"  {name:12s} median {statistics.median(xs):.6g} {unit}  "
                  f"n={len(xs)} seeds  spread {s:.2%} (bound {bound:.0%})")
        code, lines, result = bench(root, "--workload", workload, "--seed", 1,
                                    "--seconds", seconds, "--trace", 1)
        entry["traffic"] = [line for line in lines if line.startswith("traffic:")]
        entry["traced_failed"] = None if result is None else result["failed"]
        for line in entry["traffic"]:
            print("  " + line)
        evidence["workloads"][workload] = entry
        evidence.setdefault("environment", next(
            (line.split(": ", 1)[1] for line in lines if line.startswith("environment:")),
            None))
    (HERE / "steadiness.json").write_text(json.dumps(evidence, indent=1) + "\n",
                                          encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steadiness", type=int, default=0, metavar="SEEDS")
    args = ap.parse_args()
    root = Path.cwd()
    if args.steadiness:
        steadiness(root, args.steadiness)
    else:
        selftest(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
