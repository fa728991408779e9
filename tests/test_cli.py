"""Runner, generators, curves, exit codes, and report determinism."""

import collections
import contextlib
import copy
import csv
import hashlib
import io
import json
import logging
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraheat import bounds, cli, davies
from ultraheat import kernel as kernel_mod
from ultraheat.cli import (
    ALL_CHECKS,
    RunConfig,
    build_context,
    execute_checks,
    generate_files,
    generate_space,
    load_config,
    main,
)
from ultraheat.errors import ConfigError, NotIsotropic, UnknownGenerator
from ultraheat.reporting import json_text
from ultraheat.semigroup import HierarchicalHeatKernel, SpectralGenerator, generator
from ultraheat.space import build_tree, save_space

from conftest import S2_SPEC, S4_SPEC, kernel_to_csv, random_scenario


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GENERATED_SIZES = {"dyadic": {"depth": 4}, "bary": {"branching": 3, "depth": 2},
                   "random": {"depth": 5, "max_points": 48}}
# sha256 of `json_text(space.to_spec())`, first 24 hex digits.  numpy's exp
# and the C library's differ in the last bit on some draws, so the last
# digits of a loguniform mass depend on the CPU: those masses are hashed
# rounded to 12 decimals, which no draw below lies within 4 ulp of a tie of.
PINNED_SPECS = {
    ("dyadic", "unit", 1): "f306976699d553bff45baabb",
    ("dyadic", "unit", 42): "f306976699d553bff45baabb",
    ("dyadic", "uniform", 1): "940c2ba2cb575fee944fe7f2",
    ("dyadic", "uniform", 42): "384bd9da838acc840138e8fa",
    ("dyadic", "loguniform", 1): "c48cda295ee4ea240e87fb4b",
    ("dyadic", "loguniform", 42): "f54092efa3c11d7e46383a20",
    ("bary", "unit", 1): "5c3218fcb23810d5e67fd680",
    ("bary", "unit", 42): "5c3218fcb23810d5e67fd680",
    ("bary", "uniform", 1): "ab243c1c1932f1c541a9ac60",
    ("bary", "uniform", 42): "5d214c07ecf05f1bcfb3db9f",
    ("bary", "loguniform", 1): "43c99716c19791b0b47de537",
    ("bary", "loguniform", 42): "21b31965828aa001e5c26db6",
    ("random", "unit", 1): "1ef7e4c34c6b862b47dbe514",
    ("random", "unit", 42): "4f74050e9fbff05ed24a79d5",
    ("random", "uniform", 1): "d75416069b6b6f0370ddbc81",
    ("random", "uniform", 42): "b3cb7f44d76f364131675aa5",
    ("random", "loguniform", 1): "4ffb753664fb5c4963d43115",
    ("random", "loguniform", 42): "fad443d63152d44cc25bb1ae",
}


def _rounded_masses(node: dict) -> dict:
    return {key: round(value, 12) if key == "mass" else
            [_rounded_masses(c) for c in value] if key == "children" else value
            for key, value in node.items()}



def write_config(tmp_path, **overrides):
    cfg = {
        "space": {"inline": S4_SPEC},
        "kernel": {"isotropic": {"kind": "power", "exponent": 3.0, "scale": 1.0},
                   "scaling": "none"},
        "exponents": {"alpha": 1.0, "beta": 2.0, "R0": 2.0},
        "time_grid": {"min": 1e-3, "max": 1.0, "points": 9, "scale": "log"},
        "checks": ["ultrametric", "form", "semigroup", "vanishing", "due", "tail"],
        "output_dir": str(tmp_path / "out"),
        "seed": 7,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRun:
    def test_full_suite_exit_zero(self, tmp_path):
        path = write_config(tmp_path, checks=list(ALL_CHECKS))
        code = main(["run", "--config", str(path)])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["summary"]["fail"] == 0
        assert report["environment"] == {"seed": 7, "version": "0.1.0"}
        record_keys = {"name", "params", "measured", "bound", "margin",
                       "status", "witness"}
        for rec in report["records"]:
            assert set(rec) == record_keys
            assert rec["status"] in ("pass", "fail", "vacuous")
        assert (tmp_path / "out" / "certificate.json").exists()
        assert (tmp_path / "out" / "curves" / "p_full.csv").exists()

    def test_grid_min_zero_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, time_grid={"min": 0, "max": 1, "points": 9})
        assert main(["run", "--config", str(path)]) == 2
        assert "time grid min must be > 0" in capsys.readouterr().err

    def test_asymmetric_kernel_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, kernel={"matrix": [
            [0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]})
        assert main(["run", "--config", str(path)]) == 2
        assert "kernel" in capsys.readouterr().err

    def test_unknown_check_rejected(self, tmp_path):
        path = write_config(tmp_path, checks=["nope"])
        assert main(["run", "--config", str(path)]) == 2

    def test_empty_checks_rejected(self, tmp_path):
        path = write_config(tmp_path, checks=[])
        assert main(["run", "--config", str(path)]) == 2

    def test_checks_override(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "sub"
        code = main(["run", "--config", str(path), "--out", str(out),
                     "--checks", "ultrametric,due"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        names = {r["params"]["check"] for r in report["records"]}
        assert names == {"ultrametric", "due"}

    def test_byte_identical_reports(self, tmp_path):
        path = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(path), "--out", str(a)]) == 0
        assert main(["run", "--config", str(path), "--out", str(b)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_seed_changes_report_env(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "seeded"
        assert main(["run", "--config", str(path), "--out", str(out),
                     "--seed", "11", "--checks", "ultrametric"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["environment"]["seed"] == 11

    def test_failed_check_exits_one(self, tmp_path, monkeypatch):
        # an unattainable identity tolerance forces honest failures
        monkeypatch.setattr(davies, "IDENTITY_RTOL", 1e-30)
        path = write_config(tmp_path, checks=["perturbation"])
        assert main(["run", "--config", str(path)]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["summary"]["fail"] > 0


class TestGenerate:
    def test_dyadic_depth3(self):
        space, _ = generate_space("dyadic", depth=3, q=2.0)
        assert len(space) == 8
        assert space.distance_levels == (1.0, 2.0, 4.0)

    def test_bary(self):
        space, _ = generate_space("bary", branching=3, depth=2)
        assert len(space) == 9

    def test_random_deterministic(self, tmp_path):
        p1 = generate_files("random", tmp_path / "g1", seed=42)
        p2 = generate_files("random", tmp_path / "g2", seed=42)
        assert p1[0].read_text() == p2[0].read_text()
        assert p1[1].read_text() == p2[1].read_text()

    @pytest.mark.parametrize("kind,law,seed", sorted(PINNED_SPECS))
    def test_spec_is_pinned(self, kind, law, seed):
        # configs such as configs/random.json draw their space here, so the
        # bytes must not move between commits
        space, _ = generate_space(kind, mass_law=law, seed=seed, **GENERATED_SIZES[kind])
        spec = space.to_spec()
        if law == "loguniform":
            spec = _rounded_masses(spec)
        digest = hashlib.sha256(json_text(spec).encode()).hexdigest()
        assert digest[:24] == PINNED_SPECS[kind, law, seed]

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(UnknownGenerator):
            generate_files("nope", tmp_path)

    def test_generated_files_load(self, tmp_path):
        space_path, kernel_path = generate_files("dyadic", tmp_path, depth=2)
        cfg = RunConfig.from_dict({
            "space": {"file": str(space_path)},
            "kernel": json.loads(kernel_path.read_text()),
            "checks": ["ultrametric"],
        })
        ctx = build_context(cfg)
        assert len(ctx.space) == 4

    def test_distance_matrix_csv_space_file(self, tmp_path):
        csv_path = tmp_path / "space.csv"
        csv_path.write_text("a,b,c\n0,1,2\n1,0,2\n2,2,0\n")
        cfg = RunConfig.from_dict({
            "space": {"file": str(csv_path)},
            "kernel": {"isotropic": {"kind": "power", "exponent": 1.0, "scale": 1.0}},
            "checks": ["ultrametric"],
        })
        ctx = build_context(cfg)
        assert ctx.space.ids == ("a", "b", "c")
        assert ctx.space.tree.radius[ctx.space.lca(0, 2)] == 2.0

    def test_random_respects_cap(self):
        for seed in range(20):
            space, _ = generate_space("random", seed=seed, max_points=64)
            assert 2 <= len(space) <= 64


class TestCurves:
    def test_two_point_density_curve(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            space={"inline": S2_SPEC},
            kernel={"isotropic": {"kind": "power", "exponent": 0.0, "scale": 1.0},
                    "scaling": "none"},
            exponents={"alpha": 1.0, "beta": 1.0, "R0": 1.0},
            time_grid={"min": 1e-2, "max": 10.0, "points": 64, "scale": "log"},
        )
        assert main(["curves", "--config", str(cfg_path)]) == 0
        text = (tmp_path / "out" / "curves" / "p_full.csv").read_text()
        rows = list(csv.DictReader(text.splitlines()))
        offdiag = [(float(r["t"]), float(r["value"])) for r in rows
                   if r["x"] == "0" and r["y"] == "1"]
        vals = [v for _, v in sorted(offdiag)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(0.5, abs=1e-4)
        for t, v in offdiag:
            assert v == pytest.approx((1 - math.exp(-4 * t)) / 2, abs=1e-12)

    def test_truncated_cross_block_column_zero(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["curves", "--config", str(cfg_path)]) == 0
        text = (tmp_path / "out" / "curves" / "q_truncated_0.csv").read_text()
        rows = list(csv.DictReader(text.splitlines()))
        cross = [float(r["value"]) for r in rows
                 if (r["x"], r["y"]) in (("a", "c"), ("a", "d"), ("b", "c"))]
        assert cross and all(v == 0.0 for v in cross)

    def test_exit_column_is_the_direct_exit_sum(self, tmp_path):
        # supremum.csv's exit column against max over balls B of
        # sup_{x in B} sum_{y not in B} p_t(x, y) mu(y) (r ^ R0)^beta / t on an
        # irregular tree, from one 40-digit eigendecomposition of the
        # mu-symmetrised generator A = -D^{1/2} L D^{-1/2}, so that
        # e^{tL} = D^{-1/2} Q e^{-t E} Q^T D^{1/2}
        mp = pytest.importorskip("mpmath")
        cfg_path = write_config(
            tmp_path,
            space={"generator": {"kind": "random", "depth": 4, "max_points": 24,
                                 "mass_law": "loguniform"}},
            kernel={"isotropic": {"kind": "power", "exponent": 3.0, "scale": 1.0},
                    "scaling": "mass"},
            exponents={"alpha": 1.0, "beta": 1.5},
        )
        assert main(["curves", "--config", str(cfg_path)]) == 0
        ctx = build_context(load_config(cfg_path))
        text = (tmp_path / "out" / "curves" / "supremum.csv").read_text()
        rows = list(csv.DictReader(text.splitlines()))
        assert len(rows) == len(ctx.grid)
        beta, r0 = ctx.exponents.beta, ctx.exponents.r0
        balls = [b for b in ctx.space.balls() if b.radius > 0]
        assert balls
        with mp.workdps(40):
            L = generator(ctx.kernel).matrix
            root = [mp.sqrt(mp.mpf(m)) for m in ctx.kernel.mu]
            n = len(root)
            A = mp.matrix(n, n)
            for i in range(n):
                for j in range(i, n):
                    A[i, j] = A[j, i] = -mp.mpf(L[i, j]) * root[i] / root[j]
            E, Q = mp.eigsy(A)
            for t, row in zip(ctx.grid, rows):
                decay = mp.diag([mp.exp(-E[k] * mp.mpf(t)) for k in range(n)])
                H = Q * decay * Q.T
                expected = max([0.0] + [float(
                    max(sum(H[x, y] * root[y] for y in range(n)
                            if not b.start <= y < b.stop) / root[x]
                        for x in range(b.start, b.stop))
                    * mp.mpf(min(b.radius, r0)) ** beta / mp.mpf(t)) for b in balls])
                assert float(row["exit_quantity"]) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_engine_and_dense_curves_agree(self, tmp_path):
        # ids that csv.writer must quote: the joined rows keep its bytes; the
        # per-node lookups keep the dense layout and values, and the
        # cross-block zeros of the truncated curves
        spec = {"radius": 2, "children": [
            {"radius": 1, "children": [{"id": "a,1", "mass": 1.5}, {"id": 'b"2', "mass": 1}]},
            {"radius": 1, "children": [{"id": "c", "mass": 0.5}, {"id": "d", "mass": 2}]},
        ]}
        outs = {}
        for engine in ("hierarchical", "dense"):
            cfg_path = write_config(
                tmp_path, space={"inline": spec}, output_dir=str(tmp_path / engine),
                kernel={"isotropic": {"kind": "power", "exponent": 3.0, "scale": 1.0},
                        "scaling": "mass"})
            forced = mock.patch.object(HierarchicalHeatKernel, "from_kernel",
                                       side_effect=NotIsotropic("dense engine forced"))
            with forced if engine == "dense" else contextlib.nullcontext():
                assert main(["curves", "--config", str(cfg_path)]) == 0
            outs[engine] = {p.name: p.read_bytes()
                            for p in (tmp_path / engine / "curves").iterdir()}
        assert sorted(outs["hierarchical"]) == sorted(outs["dense"])
        for name, fast in outs["hierarchical"].items():
            text = fast.decode()
            buf = io.StringIO()
            csv.writer(buf).writerows(csv.reader(io.StringIO(text, newline="")))
            assert buf.getvalue() == text
            fast_rows = list(csv.reader(io.StringIO(text, newline="")))
            dense_rows = list(csv.reader(io.StringIO(outs["dense"][name].decode(), newline="")))
            keys = 1 if name == "supremum.csv" else 3  # t, or t, x and y
            assert [r[:keys] for r in fast_rows] == [r[:keys] for r in dense_rows]
            assert fast_rows[0] == dense_rows[0]
            for a, b in zip(fast_rows[1:], dense_rows[1:]):
                assert [float(v) for v in a[keys:]] == pytest.approx(
                    [float(v) for v in b[keys:]], rel=1e-12, abs=1e-12)
                if name.startswith("q_truncated") and float(b[-1]) == 0.0:
                    assert a[-1] == "0.0"
        cross = [r for r in csv.reader(io.StringIO(outs["hierarchical"]["q_truncated_0.csv"]
                                                   .decode(), newline=""))
                 if {r[1], r[2]} == {"a,1", "c"}]
        assert cross and all(r[3] == "0.0" for r in cross)

    def test_no_checks_run(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["curves", "--config", str(cfg_path)]) == 0
        assert not (tmp_path / "out" / "report.json").exists()

    def test_empty_check_list_allowed_for_curves_only(self, tmp_path):
        cfg_path = write_config(tmp_path, checks=[])
        assert main(["curves", "--config", str(cfg_path)]) == 0
        assert main(["run", "--config", str(cfg_path)]) == 2


class TestConfigParsing:
    def test_missing_sections(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"kernel": {}})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"space": {}})

    def test_r0_validation(self, tmp_path):
        path = write_config(tmp_path, exponents={"alpha": 1, "beta": 1, "R0": 99.0})
        assert main(["run", "--config", str(path)]) == 2

    def test_r0_defaults_to_diameter(self, tmp_path):
        path = write_config(tmp_path, exponents={"alpha": 1.0, "beta": 2.0})
        cfg = load_config(path)
        ctx = build_context(cfg)
        assert ctx.exponents.r0 == ctx.space.diam

    def test_unreadable_config(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")

    def test_non_numeric_exponent_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, exponents={"alpha": "x"})
        assert main(["run", "--config", str(path)]) == 2
        assert "exponents.alpha" in capsys.readouterr().err

    def test_unknown_profile_kind_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, kernel={"isotropic": {"kind": "gauss"}})
        assert main(["run", "--config", str(path)]) == 2
        assert "unknown profile kind 'gauss'" in capsys.readouterr().err


def _file(path, text):
    path.write_text(text)
    return str(path)


def _tree_source(tmp, where: str, tree: dict) -> dict:
    """A space section holding `tree` inline, or naming a space file of it."""
    if where == "inline":
        return {"inline": tree}
    return {"file": _file(tmp / "space.json", json.dumps(tree))}


# trees whose radius or mass is no JSON number, each inline and in a space
# file; `float` takes each of these values
NON_NUMBER_TREES = {
    "mass a string": ({"radius": 2, "children": [{"id": "a", "mass": "2"}, {"id": "b"}]},
                      "leaf mass must be a number, got '2'"),
    "mass true": ({"radius": 2, "children": [{"id": "a", "mass": True}, {"id": "b"}]},
                  "leaf mass must be a number, got True"),
    "radius a string": ({"radius": "2", "children": [{"id": "a"}, {"id": "b"}]},
                        "ball radius must be a number, got '2'"),
    "radius true": ({"radius": True, "children": [{"id": "a"}, {"id": "b"}]},
                    "ball radius must be a number, got True"),
}


# each case: config overrides (built in a temporary directory) and a phrase
# of the one-line error it must produce
BAD_INPUTS = {
    "unread options section": (lambda tmp: {"options": {}}, "unknown config keys ['options']"),
    "distance csv short of rows": (
        lambda tmp: {"space": {"file": _file(tmp / "d.csv", "a,b,c\n0,1,2\n1,0,2\n")}},
        "distance CSV needs"),
    "distance csv with an empty id": (
        lambda tmp: {"space": {"file": _file(tmp / "d.csv", "a,,c\n0,1,2\n1,0,2\n2,2,0\n")}},
        "space: leaf id must be a non-empty string, got ''"),
    "distance csv non-numeric cell": (
        lambda tmp: {"space": {"file": _file(tmp / "d.csv", "a,b,c\n0,1,2\n1,0,x\n2,2,0\n")}},
        "non-numeric cell"),
    "kernel csv with one data row": (
        lambda tmp: {"kernel": {"file": _file(tmp / "k.csv", "a,b,c,d\n0,1,1,1\n")}},
        "kernel CSV needs"),
    "exponents not an object": (lambda tmp: {"exponents": 5}, "exponents must be an object"),
    "time grid not an object": (lambda tmp: {"time_grid": [1]}, "time_grid must be an object"),
    "missing space file": (
        lambda tmp: {"space": {"file": str(tmp / "missing.json")}}, "No such file"),
    "non-numeric radius": (
        lambda tmp: {"space": {"inline": {"radius": "x", "children": [{"id": "a"}]}}},
        "space: ball radius must be a number, got 'x'"),
    "non-numeric generator depth": (
        lambda tmp: {"space": {"generator": {"kind": "dyadic", "depth": "x"}}}, "space: "),
    "generator depth beyond the point cap": (
        lambda tmp: {"space": {"generator": {"kind": "dyadic", "depth": 45}}},
        "space: generator.depth must be in [0, 12], got 45"),
    "negative generator depth": (
        lambda tmp: {"space": {"generator": {"kind": "dyadic", "depth": -1}}},
        "space: generator.depth must be in [0, 12], got -1"),
    "fractional generator depth": (
        lambda tmp: {"space": {"generator": {"kind": "dyadic", "depth": 2.5}}},
        "space: generator.depth must be an integer, got 2.5"),
    "branching tree beyond the point cap": (
        lambda tmp: {"space": {"generator": {"kind": "bary", "branching": 3, "depth": 8}}},
        f"space: generator would draw 3 ** 8 points; at most {cli.MAX_GENERATED_POINTS}"),
    "random tree beyond the point cap": (
        lambda tmp: {"space": {"generator": {"kind": "random", "max_points": 5000}}},
        f"space: generator.max_points must be in [1, {cli.MAX_GENERATED_POINTS}]"),
    "kernel matrix of the wrong shape": (
        lambda tmp: {"kernel": {"matrix": [[0, 1], [1, 0]]}},
        "kernel: weight matrix shape (2, 2) does not match 4 points"),
    "kernel csv with an infinite weight": (
        lambda tmp: {"kernel": {"file": _file(tmp / "k.csv", "a,b,c,d\n0,inf,1,1\ninf,0,1,1\n"
                                                              "1,1,0,1\n1,1,1,0\n")}},
        "kernel: weights must be finite"),
    "duplicate point ids": (
        lambda tmp: {"space": {"inline": {"radius": 1, "children": [{"id": "a"}, {"id": "a"}]}}},
        "space: duplicate point ids: ['a']"),
    "kernel file a number": (
        lambda tmp: {"kernel": {"file": 5}}, "kernel: [Errno 2] No such file"),
    "kernel file true": (
        lambda tmp: {"kernel": {"file": True}}, "kernel: [Errno 2] No such file"),
    "non-numeric kernel matrix entry": (
        lambda tmp: {"kernel": {"matrix": [[0, "x"], [1, 0]]}},
        "kernel: matrix entry must be a number, got 'x'"),
    # a knob of the deleted `options` and `tolerances` sections, under a key
    # or at a value those sections refused; the section is now an unknown key
    **{label: (lambda tmp, section=section, knob=knob: {section: knob},
               f"unknown config keys ['{section}'] in config")
       for label, section, knob in (
           ("unknown tolerance key", "tolerances", {"spectrall": 1e-10}),
           ("unknown option key", "options", {"moser_lambd": 2.0}),
           ("non-numeric tolerance", "tolerances", {"identity": "x"}),
           ("negative identity tolerance", "tolerances", {"identity": -1}),
           ("non-numeric option list", "options", {"derivative_p": ["x"]}),
           ("iteration level above the limit", "options", {"moser_k_max": 20}),
           ("iteration level zero", "options", {"moser_k_max": 0}),
           ("fractional iteration level", "options", {"moser_k_max": 2.7}),
           ("power exponent below one", "options", {"power_p": [0.5]}),
           ("derivative exponent below one", "options", {"derivative_p": [-1]}),
           ("empty option list", "options", {"lambdas": []}),
           ("negative function count", "options", {"n_power_functions": -3}),
           ("negative sample count", "options", {"ode_sweep": -1}),
           ("fractional sample count", "options", {"ode_sweep": 3.9}))},
    "scaling of a matrix kernel": (
        lambda tmp: {"kernel": {"matrix": [[0, 1], [1, 0]], "scaling": "mass"}},
        "unknown config keys ['scaling'] in kernel"),
    "isotropic not an object": (
        lambda tmp: {"kernel": {"isotropic": 2.0}}, "kernel: isotropic must be an object"),
    "space with two sources": (
        lambda tmp: {"space": {"inline": S4_SPEC, "generator": {"kind": "dyadic"}}},
        "space section needs exactly one of file, inline, generator, got ['inline', 'generator']"),
    "space with no source": (
        lambda tmp: {"space": {}}, "space section needs exactly one of"),
    "kernel with two sources": (
        lambda tmp: {"kernel": {"matrix": [[0, 1], [1, 0]], "isotropic": {"kind": "power"}}},
        "kernel section needs exactly one of file, matrix, isotropic, "
        "got ['matrix', 'isotropic']"),
    "misspelt leaf mass": (
        lambda tmp: {"space": {"inline": {"radius": 1, "children": [
            {"id": "a", "mas": 5.0}, {"id": "b"}]}}},
        "space: tree entry keys ['id', 'mas'] must be"),
    "misspelt node children": (
        lambda tmp: {"space": {"inline": {"radius": 1, "chidlren": [{"id": "a"}]}}},
        "space: tree entry keys ['chidlren', 'radius'] must be"),
    "node with children and leaves": (
        lambda tmp: {"space": {"inline": {"radius": 1, "children": [{"id": "a"}],
                                          "leaves": [{"id": "b"}]}}},
        "space: tree entry keys ['children', 'leaves', 'radius'] must be"),
    "node listing its points under leaves": (
        lambda tmp: {"space": {"inline": {"radius": 1, "leaves": [{"id": "a"}, {"id": "b"}]}}},
        "space: tree entry keys ['leaves', 'radius'] must be id and mass, or radius and children"),
    "linear time grid": (
        lambda tmp: {"time_grid": {"min": 1e-3, "max": 1.0, "points": 9, "scale": "linear"}},
        "unknown time grid scale 'linear'; known: log"),
    "tree entry not an object": (
        lambda tmp: {"space": {"inline": {"radius": 1, "children": ["a", "b"]}}},
        "space: tree entry must be an object, got 'a'"),
    "kernel csv naming only some points": (
        lambda tmp: {"kernel": {"file": _file(tmp / "k.csv", "a,c\n0,1\n1,0\n")}},
        "missing ['b', 'd']"),
    "negative seed": (lambda tmp: {"seed": -1}, "seed must be at least 0"),
    "output dir not a string": (lambda tmp: {"output_dir": 5}, "output_dir must be a string"),
    "infinite exponent": (
        lambda tmp: {"exponents": {"alpha": 1.0, "beta": math.inf}},
        "exponents.beta must be finite"),
    "nan exponent": (
        lambda tmp: {"exponents": {"alpha": math.nan, "beta": 2.0}},
        "exponents.alpha must be finite"),
    "nan time grid max": (
        lambda tmp: {"time_grid": {"min": 1e-3, "max": math.nan, "points": 9}},
        "time_grid.max must be finite"),
    "fractional seed": (lambda tmp: {"seed": 1.5}, "config.seed must be an integer"),
    "seed beyond float range": (lambda tmp: {"seed": 10 ** 400}, "config.seed must be a number"),
    "fractional time grid points": (
        lambda tmp: {"time_grid": {"min": 1e-3, "max": 1.0, "points": 9.8}},
        "time_grid.points must be an integer"),
    "time grid points above the limit": (
        lambda tmp: {"time_grid": {"min": 1e-3, "max": 1.0, "points": 10 ** 9}},
        f"time_grid.points must be in [2, {cli.MAX_GRID_POINTS}]"),
    # JSON true and "3" are no numbers, though int() and float() take them
    "exponent true": (
        lambda tmp: {"exponents": {"alpha": True, "beta": 2.0}},
        "exponents.alpha must be a number, got True"),
    "seed a string": (lambda tmp: {"seed": "3"}, "config.seed must be a number, got '3'"),
    "time grid points a string": (
        lambda tmp: {"time_grid": {"min": 1e-3, "max": 1.0, "points": "9"}},
        "time_grid.points must be a number, got '9'"),
    "time grid points true": (
        lambda tmp: {"time_grid": {"min": 1e-3, "max": 1.0, "points": True}},
        "time_grid.points must be a number, got True"),
    "profile exponent true": (
        lambda tmp: {"kernel": {"isotropic": {"kind": "power", "exponent": True}}},
        "kernel: isotropic.exponent must be a number, got True"),
    "profile exponent a string": (
        lambda tmp: {"kernel": {"isotropic": {"kind": "power", "exponent": "3"}}},
        "kernel: isotropic.exponent must be a number, got '3'"),
    "profile scale a string": (
        lambda tmp: {"kernel": {"isotropic": {"kind": "power", "exponent": 3.0, "scale": "1"}}},
        "kernel: isotropic.scale must be a number, got '1'"),
    **{f"tree {label} {where}": (
        lambda tmp, tree=tree, where=where: {"space": _tree_source(tmp, where, tree)},
        f"space: {phrase}")
       for label, (tree, phrase) in NON_NUMBER_TREES.items() for where in ("inline", "file")},
    **{f"kernel matrix entry {label}": (
        lambda tmp, value=value: {"kernel": {"matrix": [[0 if i == j else value for j in range(4)]
                                                        for i in range(4)]}},
        f"kernel: matrix entry must be a number, got {value!r}")
       for label, value in (("true", True), ("a string", "1"))},
    **{f"leaf id {label}": (
        lambda tmp, leaf_id=leaf_id: {"space": {"inline": {"radius": 1, "children": [
            {"id": "a"}, {"id": leaf_id}]}}},
        "space: leaf id must be a non-empty string")
       for label, leaf_id in (("null", None), ("list", [1, 2]), ("true", True),
                              ("object", {}), ("number", 3), ("empty", ""))},
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_two_with_one_error_line(tmp_path, capsys, case):
    overrides, phrase = BAD_INPUTS[case]
    path = write_config(tmp_path, **overrides(tmp_path))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert phrase in err[0]


def test_generate_negative_depth_exits_two(tmp_path, capsys):
    assert main(["generate", "--kind", "dyadic", "--depth", "-1",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: generator.depth must be in [0, 12], got -1"]


@pytest.mark.parametrize("alpha, beta, r0, check", [
    (1.0, 0.001, 2.0, "moser"), (500.0, 1.0, 2.0, "supbound"), (1.0, 2000.0, 1.0, "tail"),
    (1.0, 0.001, 2.0, "ultrametric")])
def test_exponents_beyond_float_range_exit_two(tmp_path, capsys, alpha, beta, r0, check):
    # the first three overflow a tracked constant; in the last, writing the
    # curves divides by a power of t that underflows to zero
    path = write_config(tmp_path, exponents={"alpha": alpha, "beta": beta, "R0": r0},
                        checks=[check])
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: exponents alpha={alpha}, beta={beta}, R0={r0} "
                             f"leave the float range: ")


def test_run_whose_curves_fail_writes_no_report(tmp_path, capsys):
    # beta = 0.001 passes the ultrametric check, then fails in write_curves
    path = write_config(tmp_path, exponents={"alpha": 1.0, "beta": 0.001, "R0": 2.0})
    assert main(["run", "--config", str(path), "--checks", "ultrametric"]) == 2
    assert capsys.readouterr().err.startswith("error: exponents")
    assert not (tmp_path / "out" / "report.json").exists()
    assert not (tmp_path / "out" / "certificate.json").exists()


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_shipped_config_runs(tmp_path, config):
    assert main(["run", "--config", str(CONFIGS / config), "--out", str(tmp_path)]) == 0


def test_grid_limit_admits_the_derivative_grid():
    assert cli.MAX_GRID_POINTS >= davies.MIN_DERIVATIVE_GRID


def test_negative_seed_flag_exits_two(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path), "--seed", "-1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: --seed must be at least 0, got -1"]


def test_each_condition_is_measured_once(tmp_path, monkeypatch):
    # the measurements themselves, not the reads: one DUE and wUE scan, one
    # tail-jump level scan, one Nash family per rho (the scenario's rho and
    # R0 differ on S4), one whole-domain generator per rho and one heat engine
    built = collections.Counter()

    def counted(owner, name, key):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            found = key(*args, **kwargs)
            if found is not None:
                built[found] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(bounds, "_density_scans", lambda *a: "DUE and wUE")
    counted(kernel_mod, "tj_witness", lambda *a: "C_TJ")
    counted(bounds, "function_family",
            lambda kernel, rho, seed, use: ("Nash", rho) if use == "nash" else None)
    counted(SpectralGenerator, "__init__", lambda self, kernel, rho=None, omega=None:
            ("generator", rho) if omega is None else None)
    counted(HierarchicalHeatKernel, "__init__", lambda *a: "engine")
    path = write_config(tmp_path, checks=list(ALL_CHECKS))
    assert main(["run", "--config", str(path)]) == 0
    assert built == dict.fromkeys(
        ["DUE and wUE", "C_TJ", ("Nash", 1.0), ("Nash", 2.0), ("generator", None),
         ("generator", 1.0), ("generator", 2.0), "engine"], 1)


def _records_by_check(path):
    out = {}
    for rec in json.loads(path.read_text())["records"]:
        out.setdefault(rec["params"]["check"], []).append(rec)
    return out


def test_check_order_does_not_change_results(tmp_path):
    path = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(path), "--out", str(a),
                 "--checks", "theorem1,due,wue,tail,nash"]) == 0
    assert main(["run", "--config", str(path), "--out", str(b),
                 "--checks", "due,wue,tail,nash,theorem1"]) == 0
    assert _records_by_check(a / "report.json") == _records_by_check(b / "report.json")
    assert (a / "certificate.json").read_bytes() == (b / "certificate.json").read_bytes()


@pytest.mark.parametrize("seed", [None, 0, 1, 2], ids=["s4", "random0", "random1", "random2"])
def test_written_certificate_matches_library(tmp_path, seed):
    if seed is None:
        space, alpha, beta = build_tree(S4_SPEC), 1.0, 2.0
        kernel_spec = {"isotropic": {"kind": "power", "exponent": 3.0, "scale": 1.0}}
    else:
        space, kernel = random_scenario(seed)
        alpha, beta = 1.0, 1.5
        kernel_spec = {"file": _file(tmp_path / "kernel.csv", kernel_to_csv(kernel))}
    space_path = tmp_path / "space.json"
    save_space(space, space_path)
    path = write_config(tmp_path, space={"file": str(space_path)}, kernel=kernel_spec,
                        exponents={"alpha": alpha, "beta": beta},
                        checks=["nash", "due", "wue", "tail", "theorem1"])
    main(["run", "--config", str(path)])
    ctx = build_context(load_config(path))
    cert = bounds.wue_certificate(ctx.kernel, alpha, beta, ctx.exponents.r0, seed=7)
    assert (tmp_path / "out" / "certificate.json").read_text() == cert.to_json() + "\n"


def test_option_defaults_and_overrides(tmp_path):
    # the checks run at the module constants, whose literal types reach the
    # record params (p = 1 stays an int); a config cannot override them
    path = write_config(tmp_path, checks=["lp_derivative"])
    assert main(["run", "--config", str(path)]) == 0
    params = [r["params"] for r in
              json.loads((tmp_path / "out" / "report.json").read_text())["records"]]
    assert [(p["p"], p["lam"]) for p in params] == [
        (p, lam) for p in cli.DERIVATIVE_P for lam in cli.DERIVATIVE_LAMBDAS]
    assert [type(p["p"]) for p in params] == [int] * len(params)
    path = write_config(tmp_path, checks=["lp_derivative"], options={"derivative_p": [3]})
    assert main(["run", "--config", str(path)]) == 2


def test_threads_variable_is_ignored(tmp_path, monkeypatch):
    path = write_config(tmp_path, checks=["ultrametric", "form", "due", "wue"])
    cfg = load_config(path)
    plain = execute_checks(build_context(cfg), cfg.checks).to_json()
    monkeypatch.setenv("ULTRAHEAT_THREADS", "4")
    with_var = execute_checks(build_context(cfg), cfg.checks).to_json()
    assert plain == with_var


def test_each_check_logs_its_wall_time(tmp_path, caplog):
    path = write_config(tmp_path, checks=["ultrametric", "form", "due"])
    with caplog.at_level(logging.INFO, logger="ultraheat.cli"):
        assert main(["run", "--config", str(path)]) == 0
    timed = [r.getMessage() for r in caplog.records
             if r.name == "ultraheat.cli" and r.levelno == logging.INFO]
    assert [m.split()[1] for m in timed] == ["ultrametric", "form", "due"]
    for m in timed:
        assert re.fullmatch(r"check \w+ took \d+\.\d{3} s", m), m


NOT_ISOTROPIC = [[0, 1, .2, .3], [1, 0, .25, .2], [.2, .25, 0, 2], [.3, .2, 2, 0]]


@pytest.mark.parametrize("kernel", [
    {"isotropic": {"kind": "power", "exponent": 3.0}, "scaling": "none"},
    {"matrix": NOT_ISOTROPIC},
], ids=["isotropic", "dense"])
def test_random_columns_are_drawn_once_per_kernel_and_seed(tmp_path, kernel):
    # nash, energy_diff and theorem1 read the default family at every rho
    # they use, on the tree path and the dense one alike
    path = write_config(tmp_path, checks=list(ALL_CHECKS), kernel=kernel)
    drawn = []
    draw = bounds._random_functions

    def spy(space, seed):
        drawn.append(seed)
        return draw(space, seed)

    contexts = []
    build = cli.build_context

    def keep(cfg):
        contexts.append(build(cfg))
        return contexts[-1]

    with mock.patch.object(bounds, "_random_functions", spy), \
            mock.patch.object(cli, "build_context", keep):
        assert main(["run", "--config", str(path)]) == 0
    assert drawn == [7]
    U, labels = bounds.random_columns(contexts[0].kernel, 7)
    assert drawn == [7] and len(labels) == U.shape[1]
    assert not U.flags.writeable
    with pytest.raises(ValueError):
        U[0, 0] = 1.0


@pytest.mark.parametrize("kernel,engine", [
    ({"isotropic": {"kind": "power", "exponent": 3.0}, "scaling": "none"},
     "hierarchical heat profile"),
    ({"matrix": NOT_ISOTROPIC}, "dense densities"),
])
def test_tail_and_curves_log_their_engine(tmp_path, caplog, kernel, engine):
    path = write_config(tmp_path, checks=["tail"], kernel=kernel)
    with caplog.at_level(logging.INFO, logger="ultraheat.bounds"):
        assert main(["run", "--config", str(path)]) == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "ultraheat.bounds"]
    assert [m.split(":")[0] for m in lines] == [
        "tail", "curves", "curves rho=1.0", "curves rho=2.0"]
    assert all(m.split(": ", 1)[1].startswith(engine) for m in lines)


@pytest.mark.parametrize("kernel,family", [
    ({"isotropic": {"kind": "power", "exponent": 3.0}, "scaling": "none"},
     "hierarchical family, 4 Haar + 7 indicators + 128 random"),
    ({"matrix": NOT_ISOTROPIC}, "dense family (not isotropic: "),
])
def test_nash_and_energy_diff_log_their_family(tmp_path, caplog, kernel, family):
    path = write_config(tmp_path, checks=["nash", "energy_diff"], kernel=kernel)
    with caplog.at_level(logging.INFO, logger="ultraheat.bounds"):
        assert main(["run", "--config", str(path)]) == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "ultraheat.bounds"
             and not r.getMessage().startswith("curves")]
    # S4 at rho = 1: two blocks and two Haar functions, three balls and four points
    assert [m.split(": ", 1)[0] for m in lines] == [
        "nash rho=1.0", "energy_diff rho=1.0", "energy_diff rho=2.0"]
    assert all(m.split(": ", 1)[1].startswith(family) for m in lines)


def test_isotropic_tail_and_curves_evaluate_no_dense_density(tmp_path, monkeypatch):
    path = write_config(tmp_path, checks=["tail"])

    def refuse(self, t):
        raise AssertionError("dense density evaluated")

    monkeypatch.setattr(SpectralGenerator, "density", refuse)
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "curves" / "supremum.csv").is_file()


# -- config fuzzer ---------------------------------------------------------------------

FUZZ_BASE = {
    "space": {"inline": S4_SPEC},
    "kernel": {"isotropic": {"kind": "power", "exponent": 3.0, "scale": 1.0},
               "scaling": "none"},
    "exponents": {"alpha": 1.0, "beta": 2.0, "R0": 2.0},
    "time_grid": {"min": 1e-3, "max": 1.0, "points": 5, "scale": "log"},
    "checks": ["ultrametric", "form", "due"],
    "seed": 7,
}
ODD_VALUES = [None, True, "x", "", [], {}, [1, 2], 0, -1, 3, 0.5, -2.5, 1.5,
              math.nan, math.inf, -math.inf]


def _paths(node, prefix=()):
    """Every path into nested dicts and lists, the root included."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


# every object of a config: the top level, each section, each node and leaf of
# the inline tree, and the generator section of a generated space
OBJECT_PATHS = [(FUZZ_BASE, path) for path in _paths(FUZZ_BASE)
                if isinstance(_at(FUZZ_BASE, path), dict)]
OBJECT_PATHS.append(({**FUZZ_BASE, "space": {"generator": {"kind": "dyadic", "depth": 2}}},
                     ("space", "generator")))


@pytest.mark.parametrize("base, path", OBJECT_PATHS,
                         ids=[".".join(map(str, path)) or "config" for _, path in OBJECT_PATHS])
def test_unknown_key_in_any_object_exits_two(tmp_path, capsys, base, path):
    cfg = copy.deepcopy(base)
    _at(cfg, path)["unknown_key"] = 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'unknown_key'" in err[0]


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(FUZZ_BASE)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(cfg))))
        action = draw(st.sampled_from(["drop", "replace", "add"]))
        value = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]] if path else cfg
        if action == "add" and isinstance(target, dict):
            target["unknown_key"] = value
        elif action == "add" and isinstance(target, list):
            target.append(value)
        elif action == "drop" and path:
            del parent[path[-1]]
        elif path:
            parent[path[-1]] = value
        else:
            cfg = value
    return cfg


@settings(max_examples=60, deadline=None)
@given(mutated_configs())
def test_any_config_keeps_the_exit_code_contract(cfg):
    # 0 all passed, 1 a check failed, 2 a bad config; never an exception
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--checks", "ultrametric,form,due",
                     "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
