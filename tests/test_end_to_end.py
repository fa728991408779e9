"""Whole runs through the command line on small spaces that take the less
common paths: the exit code of each run and the rows of `supremum.csv`."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ultraheat
from ultraheat.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
S4 = json.loads((CONFIGS / "s4.json").read_text())
SUPREMUM_LINES = 1 + S4["time_grid"]["points"]  # a header and one row per grid time

# a kernel that is not isotropic keeps the dense exits and curves, and the
# dense Nash family of nash, energy_diff and theorem1
DENSE = {"kernel": {"matrix": [[0, 1, .2, .3], [1, 0, .25, .2],
                               [.2, .25, 0, 2], [.3, .2, 2, 0]]},
         "checks": ["tail", "due", "wue", "theorem1", "nash", "energy_diff"]}
# a radius-3 node over a radius-1 ball, beside a 3-point radius-2 ball: two
# nodes share one span, and the radius 3 is no distance
CHAIN = {"space": {"inline": {"radius": 4, "children": [
             {"radius": 3, "children": [{"radius": 1, "children": [
                 {"id": "a", "mass": 1}, {"id": "b", "mass": 2}]}]},
             {"radius": 2, "children": [{"id": "c", "mass": 1}, {"id": "d", "mass": 1.5},
                                        {"id": "e", "mass": 0.5}]}]}},
         "exponents": {"alpha": 1.0, "beta": 2.0}}

# a single point: no pair and no distance level, so R0 must be given, and the
# scenario checks, the power sweep and the exit check write vacuous records
SINGLETON = {"space": {"inline": {"id": "a", "mass": 1}}, "exponents": {"R0": 1.0}}
# a one-point ball of radius 3 beside a point, at distance 4: no distance
# level lies at or below the ball's radius, so the power sweep skips it
LONE_BALL = {"space": {"inline": {"radius": 4, "children": [
                 {"radius": 3, "children": [{"id": "a", "mass": 1}]}, {"id": "b", "mass": 2}]}},
             "exponents": {"alpha": 1.0, "beta": 2.0}}
# the all-zero kernel of S4: no jumps, so p_t is 1/mu on the diagonal
ZERO = {"kernel": {"isotropic": {"kind": "power", "exponent": 3.0, "scale": 0.0},
                   "scaling": "none"}}


def s4_config(tmp_path, name: str, **overrides) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**S4, **overrides}))
    return str(path)


def supremum_lines(out: Path) -> int:
    return len((out / "curves" / "supremum.csv").read_text().splitlines())


@pytest.mark.parametrize("overrides", [{}, DENSE, CHAIN, SINGLETON, LONE_BALL, ZERO],
                         ids=["s4", "dense", "chain", "singleton", "lone_ball", "zero"])
def test_run_and_curves(tmp_path, overrides):
    path = s4_config(tmp_path, "config", **overrides)
    for command in ("run", "curves"):
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == 0
        assert supremum_lines(out) == SUPREMUM_LINES


def test_distance_csv_spaces(tmp_path):
    # the S4 example as a distance CSV runs; a 300-point matrix with distinct
    # entries is not ultrametric, which is a config error found in well
    # under a minute
    (tmp_path / "s4.csv").write_text("a,b,c,d\n0,1,2,2\n1,0,2,2\n2,2,0,1\n2,2,1,0\n")
    n = 300
    D = np.zeros((n, n))
    D[np.triu_indices(n, 1)] = np.random.default_rng(0).permutation(
        np.linspace(1.0, 2.0, n * (n - 1) // 2))
    np.savetxt(tmp_path / "bad.csv", D + D.T, delimiter=",", comments="",
               header=",".join(f"p{i}" for i in range(n)))
    codes = {}
    for name in ("s4", "bad"):
        path = s4_config(tmp_path, name, space={"file": str(tmp_path / f"{name}.csv")})
        start = time.monotonic()
        codes[name] = main(["run", "--config", path, "--out", str(tmp_path / name)])
        assert time.monotonic() - start < 60.0
    assert codes == {"s4": 0, "bad": 2}


def test_generate_dyadic(tmp_path, capsys):
    assert main(["generate", "--kind", "dyadic", "--depth", "3", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == [str(tmp_path / "space.json"),
                                               str(tmp_path / "kernel.json")]


def test_module_entry_point(tmp_path):
    # `python -m ultraheat.cli` exits with the code of `main`: 0 for a run
    # that passes, 2 for a config key that nothing reads
    src = str(Path(ultraheat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    codes = []
    for name, overrides in (("ok", {"checks": ["ultrametric"]}), ("unread", {"options": {}})):
        path = s4_config(tmp_path, name, **overrides)
        done = subprocess.run([sys.executable, "-m", "ultraheat.cli", "run", "--config", path,
                               "--out", str(tmp_path / name)],
                              capture_output=True, text=True, env=env, timeout=120)
        codes.append((done.returncode, done.stderr.startswith("error: ")))
    assert codes == [(0, False), (2, True)]
    assert (tmp_path / "ok" / "report.json").is_file()
