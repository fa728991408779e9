"""Runner, generators, curves, exit codes, and report determinism."""

import csv
import json
import math

import pytest

from ultraheat import bounds, cli
from ultraheat.cli import (
    ALL_CHECKS,
    DEFAULT_OPTIONS,
    RunConfig,
    build_context,
    execute_checks,
    generate_files,
    generate_space,
    load_config,
    main,
)
from ultraheat.errors import ConfigError, UnknownGenerator
from ultraheat.kernel import kernel_to_csv
from ultraheat.space import build_tree, save_space

from conftest import S2_SPEC, S4_SPEC, random_scenario


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

    def test_failed_check_exits_one(self, tmp_path):
        # an unattainable identity tolerance forces honest failures
        path = write_config(tmp_path, checks=["perturbation"],
                            tolerances={"identity": 1e-30})
        assert main(["run", "--config", str(path)]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["summary"]["fail"] > 0


class TestGenerate:
    def test_dyadic_depth3(self):
        space, _ = generate_space("dyadic", depth=3, q=2.0)
        assert len(space) == 8
        assert space.radii == (1.0, 2.0, 4.0)

    def test_bary(self):
        space, _ = generate_space("bary", branching=3, depth=2)
        assert len(space) == 9

    def test_random_deterministic(self, tmp_path):
        p1 = generate_files("random", tmp_path / "g1", seed=42)
        p2 = generate_files("random", tmp_path / "g2", seed=42)
        assert p1[0].read_text() == p2[0].read_text()
        assert p1[1].read_text() == p2[1].read_text()

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
        assert ctx.space.distance("a", "c") == 2.0

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


# each case: config overrides (built in a temporary directory) and a phrase
# of the one-line error it must produce
BAD_INPUTS = {
    "distance csv short of rows": (
        lambda tmp: {"space": {"file": _file(tmp / "d.csv", "a,b,c\n0,1,2\n1,0,2\n")}},
        "distance CSV needs"),
    "distance csv non-numeric cell": (
        lambda tmp: {"space": {"file": _file(tmp / "d.csv", "a,b,c\n0,1,2\n1,0,x\n2,2,0\n")}},
        "non-numeric cell"),
    "kernel csv with one data row": (
        lambda tmp: {"kernel": {"file": _file(tmp / "k.csv", "a,b,c,d\n0,1,1,1\n")}},
        "kernel CSV needs"),
    "exponents not an object": (lambda tmp: {"exponents": 5}, "exponents must be an object"),
    "time grid not an object": (lambda tmp: {"time_grid": [1]}, "time_grid must be an object"),
    "non-numeric tolerance": (
        lambda tmp: {"tolerances": {"identity": "x"}}, "tolerances.identity must be a number"),
    "missing space file": (
        lambda tmp: {"space": {"file": str(tmp / "missing.json")}}, "No such file"),
    "non-numeric radius": (
        lambda tmp: {"space": {"inline": {"radius": "x", "children": [{"id": "a"}]}}},
        "space: could not convert"),
    "non-numeric generator depth": (
        lambda tmp: {"space": {"generator": {"kind": "dyadic", "depth": "x"}}}, "space: "),
    "non-numeric kernel matrix entry": (
        lambda tmp: {"kernel": {"matrix": [[0, "x"], [1, 0]]}}, "kernel: could not convert"),
    "unknown tolerance key": (
        lambda tmp: {"tolerances": {"spectrall": 1e-10}}, "unknown tolerances keys ['spectrall']"),
    "unknown option key": (
        lambda tmp: {"options": {"moser_lambd": 2.0}}, "unknown options keys ['moser_lambd']"),
    "non-numeric option list": (
        lambda tmp: {"options": {"derivative_p": ["x"]}}, "options.derivative_p must be a list"),
    "kernel csv naming only some points": (
        lambda tmp: {"kernel": {"file": _file(tmp / "k.csv", "a,c\n0,1\n1,0\n")}},
        "missing ['b', 'd']"),
    "iteration level above the limit": (
        lambda tmp: {"options": {"moser_k_max": 20}}, "options.moser_k_max must be in [1, 12]"),
    "iteration level zero": (
        lambda tmp: {"options": {"moser_k_max": 0}}, "options.moser_k_max must be in [1, 12]"),
    "power exponent below one": (
        lambda tmp: {"options": {"power_p": [0.5]}}, "options.power_p must be at least 1"),
    "derivative exponent below one": (
        lambda tmp: {"options": {"derivative_p": [-1]}}, "options.derivative_p must be at least 1"),
    "negative seed": (lambda tmp: {"seed": -1}, "seed must be at least 0"),
    "output dir not a string": (lambda tmp: {"output_dir": 5}, "output_dir must be a string"),
    "infinite exponent": (
        lambda tmp: {"exponents": {"alpha": 1.0, "beta": math.inf}},
        "exponents.beta must be finite"),
    "nan exponent": (
        lambda tmp: {"exponents": {"alpha": math.nan, "beta": 2.0}},
        "exponents.alpha must be finite"),
    "negative identity tolerance": (
        lambda tmp: {"tolerances": {"identity": -1}}, "tolerances.identity must be at least 0"),
    "nan time grid max": (
        lambda tmp: {"time_grid": {"min": 1e-3, "max": math.nan, "points": 9}},
        "time_grid.max must be finite"),
    "empty option list": (lambda tmp: {"options": {"lambdas": []}}, "options.lambdas must not be empty"),
    "negative function count": (
        lambda tmp: {"options": {"n_power_functions": -3}},
        "options.n_power_functions must be at least 1"),
    "negative sample count": (
        lambda tmp: {"options": {"ode_sweep": -1}}, "options.ode_sweep must be at least 1"),
    "fractional iteration level": (
        lambda tmp: {"options": {"moser_k_max": 2.7}},
        "options.moser_k_max must be an integer, got 2.7"),
    "fractional sample count": (
        lambda tmp: {"options": {"ode_sweep": 3.9}}, "options.ode_sweep must be an integer"),
    "fractional seed": (lambda tmp: {"seed": 1.5}, "config.seed must be an integer"),
    "seed beyond float range": (lambda tmp: {"seed": 10 ** 400}, "config.seed must be a number"),
    "fractional time grid points": (
        lambda tmp: {"time_grid": {"min": 1e-3, "max": 1.0, "points": 9.8}},
        "time_grid.points must be an integer"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_two_with_one_error_line(tmp_path, capsys, case):
    overrides, phrase = BAD_INPUTS[case]
    path = write_config(tmp_path, **overrides(tmp_path))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert phrase in err[0]


def test_negative_seed_flag_exits_two(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path), "--seed", "-1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: --seed must be at least 0, got -1"]


def test_each_condition_is_measured_once(tmp_path, monkeypatch):
    calls = {"due": 0, "wue": 0, "nash": 0, "tj": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key, name in (("due", "due_constant"), ("wue", "wue_constant"),
                      ("nash", "nash_constant")):
        monkeypatch.setattr(bounds, name, counted(key, getattr(bounds, name)))
    for module in (cli, bounds):
        monkeypatch.setattr(module, "tj_constant", counted("tj", module.tj_constant))
    path = write_config(tmp_path, checks=list(ALL_CHECKS))
    assert main(["run", "--config", str(path)]) == 0
    # Nash is estimated at the scenario's rho and at R0, which differ on S4
    assert calls == {"due": 1, "wue": 1, "nash": 2, "tj": 1}


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
    cfg = load_config(write_config(tmp_path))
    assert cfg.options == DEFAULT_OPTIONS
    assert all(type(p) is int for p in cfg.options["derivative_p"])
    cfg = load_config(write_config(tmp_path, options={"derivative_p": [3], "moser_k_max": 4}))
    assert cfg.options["derivative_p"] == (3,) and cfg.options["moser_k_max"] == 4
    assert cfg.options["lambdas"] == DEFAULT_OPTIONS["lambdas"]


def test_threads_variable_is_ignored(tmp_path, monkeypatch):
    path = write_config(tmp_path, checks=["ultrametric", "form", "due", "wue"])
    cfg = load_config(path)
    plain = execute_checks(build_context(cfg), cfg.checks).to_json()
    monkeypatch.setenv("ULTRAHEAT_THREADS", "4")
    with_var = execute_checks(build_context(cfg), cfg.checks).to_json()
    assert plain == with_var
