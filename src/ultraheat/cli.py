"""
Config-driven scenario runner.

    ultraheat run --config cfg.json [--out DIR] [--checks a,b,c] [--seed N]
    ultraheat generate --kind dyadic --depth 3 --out DIR
    ultraheat curves --config cfg.json

`run` builds the space and kernel from the config, executes the selected
checks, and writes report.json (plus certificate.json when the pipeline
check is selected, and curves/*.csv).  Exit code 0 means every non-vacuous
check passed, 1 means some check failed, 2 means the config was invalid.

Reports are byte-identical across runs for the same (config, seed); the
environment stamp carries only the package version and the seed.  Checks
run one after another and their records are merged in selection order.
"""

import argparse
import csv
import io
import json
import logging
import math
import operator
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import davies
from .errors import ConfigError, UltraheatError, UnknownGenerator
from .form import indicator_energy_check, energy_and_scale
from .kernel import (
    ExponentConfig,
    JumpKernel,
    isotropic_kernel,
    kernel_from_csv,
    power_profile,
    tj_constant,
)
from .reporting import FAIL, IDENTITY_RTOL, CheckReport, json_text, record, vacuous
from .semigroup import generator, semigroup_selfcheck
from .space import (
    UltrametricSpace,
    build_tree,
    from_distance_csv,
    json_number,
    load_space,
    save_space,
    validate_ultrametric,
)

ALL_CHECKS = (
    "ultrametric", "form", "semigroup", "vanishing", "perturbation", "power",
    "lp_derivative", "moser", "supbound", "ode", "nash", "due", "wue",
    "energy_diff", "p8", "tail", "theorem1",
)

# The values the checks run at that no library default gives.  Sequences
# keep their literal types, as their entries go into record params as given
# (DERIVATIVE_P holds ints).
DERIVATIVE_P = (1, 2)            # lp_derivative: exponents p
DERIVATIVE_LAMBDAS = (0.0, 2.0)  # lp_derivative: tilt strengths
TILT = 2.0                       # moser and supbound: tilt strength
MOSER_K_MAX = 6                  # moser: last level 2^(k_max + 1)

# longest time grid a config may ask for; the derivative check needs at least
# davies.MIN_DERIVATIVE_GRID points
MAX_GRID_POINTS = 4096

# most points a generator may draw; a tree under this cap branches at most
# log2 of it times, which bounds the depth
MAX_GENERATED_POINTS = 4096

# named, not __name__: `python -m ultraheat.cli` runs this module as __main__
log = logging.getLogger("ultraheat.cli")


# -- configuration -----------------------------------------------------------------


@dataclass
class RunConfig:
    space: dict
    kernel: dict
    alpha: float = 1.0
    beta: float = 1.0
    r0: float | None = None
    grid_min: float = 1e-3
    grid_max: float = 1.0
    grid_points: int = 17
    checks: tuple = ALL_CHECKS
    output_dir: str = "."
    seed: int = 0

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        _keys(raw, "config", ("space", "kernel", "exponents", "time_grid", "checks",
                              "output_dir", "seed"))
        for key in ("space", "kernel"):
            if key not in raw:
                raise ConfigError(f"config needs a '{key}' section")
        exps = _section(raw, "exponents", ("alpha", "beta", "R0"))
        grid = _section(raw, "time_grid", ("min", "max", "points", "scale"))
        gmin = _number(grid, "min", 1e-3, "time_grid")
        gmax = _number(grid, "max", 1.0, "time_grid")
        if gmin <= 0:
            raise ConfigError("time grid min must be > 0")
        if gmax < gmin:
            raise ConfigError("time grid max must be >= min")
        points = _in_range("time_grid.points", _number(grid, "points", 17, "time_grid", int),
                           2, MAX_GRID_POINTS)
        # the one grid; the key stays so that configs may name it
        if grid.get("scale", "log") != "log":
            raise ConfigError(f"unknown time grid scale {grid['scale']!r}; known: log")
        # an empty list is tolerated here so that `curves` can run without
        # checks; `run` itself insists on a nonempty selection
        checks = _check_names(raw.get("checks", ALL_CHECKS))
        output_dir = raw.get("output_dir", ".")
        if not isinstance(output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {output_dir!r}")
        return cls(
            space=_section(raw, "space"),
            kernel=_section(raw, "kernel"),
            alpha=_number(exps, "alpha", 1.0, "exponents"),
            beta=_number(exps, "beta", 1.0, "exponents"),
            r0=None if exps.get("R0") is None else _number(exps, "R0", None, "exponents"),
            grid_min=gmin,
            grid_max=gmax,
            grid_points=points,
            checks=checks,
            output_dir=output_dir,
            seed=_in_range("seed", _number(raw, "seed", 0, "config", int), 0),
        )


def _check_names(names) -> tuple:
    if not isinstance(names, (list, tuple)):
        raise ConfigError(f"checks must be a list, got {names!r}")
    for c in names:
        if c not in ALL_CHECKS:
            raise ConfigError(f"unknown check {c!r}; known: {', '.join(ALL_CHECKS)}")
    return tuple(names)


def _section(raw: dict, key: str, known=None) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    if known is not None:
        _keys(value, key, known)
    return value


def _keys(section: dict, where: str, known) -> None:
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown} in {where}; known: {', '.join(known)}")


def _source(section: dict, where: str, sources: tuple, extra: tuple = ()) -> str:
    """The one key of `sources` in `section`; any other key not in `extra` is an error."""
    given = [key for key in sources if key in section]
    if len(given) != 1:
        raise ConfigError(f"{where} section needs exactly one of {', '.join(sources)}, "
                          f"got {given}")
    _keys(section, where, (given[0],) + extra)
    return given[0]


def _number(section: dict, key: str, default, where: str, kind=float):
    value = section.get(key, default)
    try:
        # JSON true and "3" are no numbers, though kind() takes them; an int
        # beyond float range overflows in the float() of json_number
        json_number(value, key)
        out = kind(value)
        finite = math.isfinite(out)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}") from exc
    if not finite:
        raise ConfigError(f"{where}.{key} must be finite, got {value!r}")
    if isinstance(value, float) and out != value:
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return out


def _in_range(where: str, value, low, high=math.inf):
    """`value`, checked to lie in [low, high]."""
    if not low <= value <= high:
        bound = f"at least {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ConfigError(f"{where} must be {bound}, got {value!r}")
    return value


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return RunConfig.from_dict(raw)


def build_space(section: dict, seed: int = 0) -> UltrametricSpace:
    source = _source(section, "space", ("file", "inline", "generator"))
    # a section or file that does not parse is a config error
    try:
        if source == "file":
            path = str(section["file"])
            return from_distance_csv(path) if path.endswith(".csv") else load_space(path)
        if source == "inline":
            return build_tree(section["inline"])
        gen = dict(section["generator"])
        kind = gen.pop("kind", None)
        gen.setdefault("seed", seed)
        return generate_space(kind, **gen)[0]
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"space: {exc}") from exc


def build_kernel(space: UltrametricSpace, section: dict) -> JumpKernel:
    source = _source(section, "kernel", ("file", "matrix", "isotropic"),
                     ("scaling",) if "isotropic" in section else ())
    try:
        if source == "file":
            return kernel_from_csv(space, str(section["file"]))
        if source == "matrix":
            entries = np.asarray(section["matrix"], dtype=object)
            return JumpKernel(space, np.array([json_number(v, "matrix entry")
                                               for v in entries.flat]).reshape(entries.shape))
        profile = _section(section, "isotropic", ("kind", "exponent", "scale"))
        if profile.get("kind") != "power":
            raise ConfigError(f"unknown profile kind {profile.get('kind')!r}")
        return isotropic_kernel(space, power_profile(
            _number(profile, "exponent", None, "isotropic"),
            _number(profile, "scale", 1.0, "isotropic")), scaling=section.get("scaling", "none"))
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"kernel: {exc}") from exc


# -- generators ----------------------------------------------------------------------


def _tree(depth: int, points: int, width, radius, mass) -> dict:
    """A ball tree of `points` leaves at most `depth` levels deep, as
    `build_tree` reads it.  A node at level > 0 with more than one point
    splits them into `width()` children (at most one per point) as evenly as
    it can, the first children taking one more; its radius is
    `radius(level)`.  Each leaf draws `mass()` when it is reached, in
    preorder."""
    counter = [0]

    def node(level, budget):
        if level == 0 or budget <= 1:
            i = counter[0]
            counter[0] += 1
            return {"id": f"p{i}", "mass": mass()}
        count = int(min(width(), budget))
        base, extra = divmod(budget, count)
        children = [node(level - 1, base + (1 if c < extra else 0)) for c in range(count)]
        return {"radius": radius(level), "children": children}

    return node(depth, points)


def generate_space(kind: str, depth: int = 3, branching: int = 3, q: float = 2.0,
                   mass_law: str = "unit", seed: int = 0, max_points: int = 64,
                   **extra) -> tuple[UltrametricSpace, dict]:
    """Build a named family member; returns (space, kernel spec dict)."""
    if extra:
        raise ConfigError(f"unknown generator parameters: {sorted(extra)}")
    if kind not in ("dyadic", "bary", "random"):
        raise UnknownGenerator(f"unknown generator kind {kind!r}")
    given = {"depth": depth, "branching": branching, "max_points": max_points, "seed": seed}
    depth, branching, max_points, seed = (
        _in_range(f"generator.{key}", _number(given, key, None, "generator", int), low, high)
        for key, low, high in (("depth", 0, MAX_GENERATED_POINTS.bit_length() - 1),
                               ("branching", 2, MAX_GENERATED_POINTS),
                               ("max_points", 1, MAX_GENERATED_POINTS),
                               ("seed", 0, math.inf)))
    b = 2 if kind == "dyadic" else branching
    if kind != "random" and b ** depth > MAX_GENERATED_POINTS:
        raise ConfigError(f"generator would draw {b} ** {depth} points; "
                          f"at most {MAX_GENERATED_POINTS} are allowed")
    rng = np.random.default_rng(seed)

    def mass():
        if mass_law == "unit":
            return 1.0
        if mass_law == "uniform":
            return float(rng.uniform(0.5, 2.0, 1)[0])
        if mass_law == "loguniform":
            return float(np.exp(rng.uniform(math.log(0.25), math.log(4.0), 1))[0])
        raise UnknownGenerator(f"unknown mass law {mass_law!r}")

    try:
        if kind == "random":
            levels = int(rng.integers(2, max(3, depth + 1)))
            spec = _tree(levels, max_points, lambda: rng.integers(2, 5), lambda level: q ** level,
                         mass)
        else:
            spec = _tree(depth, b ** depth, lambda: b, lambda level: q ** (level - 1), mass)
    except OverflowError as exc:
        raise ConfigError(f"generator radius q ** {depth} overflows for q={q}") from exc
    space = build_tree(spec)
    kernel_spec = {"isotropic": {"kind": "power", "exponent": 3.0, "scale": 1.0},
                   "scaling": "mass"}
    return space, kernel_spec


# -- check registry --------------------------------------------------------------------


@dataclass
class RunContext:
    """What the checks of one run read.  The estimates they share are kept
    on the kernel, so each is measured once whatever the order."""

    space: UltrametricSpace
    kernel: JumpKernel
    exponents: ExponentConfig
    grid: np.ndarray
    seed: int
    artifacts: dict = field(default_factory=dict)

    @cached_property
    def scenario(self):
        """Canonical (ball, rho) for the tilted-evolution checks: the first
        proper ball, truncated at its own radius.  The checks that read it
        run only on a space with a distance level (`_on_scenario`)."""
        balls = [b for b in self.space.balls() if 0 < b.radius < self.space.diam]
        ball = balls[0] if balls else self.space.whole()
        levels = [r for r in self.space.distance_levels if r <= ball.radius]
        return ball, levels[-1] if levels else ball.radius

    def nash(self, rho):
        """Nash estimate of the rho-truncated form."""
        return bounds_mod.nash_constant(self.kernel, rho=rho, nu=self.exponents.nu,
                                        k0=self.exponents.k0(rho), seed=self.seed)


def _check_ultrametric(ctx):
    return validate_ultrametric(ctx.space)


def _check_form(ctx):
    report = CheckReport()
    for ball in ctx.space.balls(include_points=True):
        report.add(indicator_energy_check(ctx.kernel, ball))
    rng = np.random.default_rng(ctx.seed)
    levels = list(ctx.space.distance_levels)
    worst = -np.inf
    for _ in range(8):
        f = rng.normal(size=len(ctx.space))
        prev = 0.0
        for rho in levels:
            val, _ = energy_and_scale(ctx.kernel, f, f, rho)
            worst = max(worst, prev - val)
            prev = val
        full, _ = energy_and_scale(ctx.kernel, f, f, None)
        worst = max(worst, prev - full, abs(full - prev) - IDENTITY_RTOL * max(1.0, abs(full)))
        clamped = np.clip(f, 0.0, 1.0)
        cl, _ = energy_and_scale(ctx.kernel, clamped, clamped, None)
        worst = max(worst, cl - full)
    report.add(record("form.truncation_monotone_and_markov", {"n_random": 8},
                      worst, 0.0, 0.0, worst <= 0.0))
    return report


def _check_semigroup(ctx):
    report = CheckReport()
    for rho in (None,) + ctx.space.distance_levels:
        report.extend(semigroup_selfcheck(generator(ctx.kernel, rho=rho), ctx.grid,
                                          seed=ctx.seed))
    return report


def _check_vanishing(ctx):
    return davies.vanishing_check(ctx.kernel, ctx.grid)


def _check_perturbation(ctx):
    return davies.perturbation_battery(ctx.kernel, seed=ctx.seed)


def _check_power(ctx):
    return davies.power_battery(ctx.kernel, seed=ctx.seed)


def _on_scenario(name: str):
    """A check of `RunContext.scenario`.  A single point has no pair, so no
    truncation level: there the check writes one vacuous `name` record."""
    def wrap(check):
        def run(ctx):
            if ctx.space.distance_levels:
                return check(ctx)
            return CheckReport([vacuous(name, {"distance_levels": 0})])
        return run
    return wrap


@_on_scenario("davies.lp_derivative")
def _check_lp_derivative(ctx):
    ball, rho = ctx.scenario
    c_n = ctx.nash(rho).constant
    report = CheckReport()
    grid = ctx.grid if len(ctx.grid) >= davies.MIN_DERIVATIVE_GRID else \
        bounds_mod.log_time_grid(ctx.grid[0], ctx.grid[-1], davies.MIN_DERIVATIVE_GRID)
    rng = np.random.default_rng(ctx.seed)
    f = rng.uniform(0.1, 1.0, len(ctx.space))
    for p in DERIVATIVE_P:
        for lam in DERIVATIVE_LAMBDAS:
            report.extend(davies.lp_derivative_check(
                ctx.kernel, ctx.exponents, rho, ball, lam, f, p, grid, c_n))
    return report


@_on_scenario("davies.iteration_uniform")
def _check_moser(ctx):
    ball, rho = ctx.scenario
    f = np.zeros(len(ctx.space))
    f[ball.start] = 1.0
    _, report = davies.moser_iteration(
        ctx.kernel, ctx.exponents, rho, ball, TILT, f,
        t=float(ctx.grid[-1]), k_max=MOSER_K_MAX, c_n=ctx.nash(rho).constant)
    return report


@_on_scenario("davies.sup_bound_operator")
def _check_supbound(ctx):
    ball, rho = ctx.scenario
    c_n = ctx.nash(rho).constant
    times = ctx.grid[:: max(1, len(ctx.grid) // 8)]
    return davies.sup_bound_check(ctx.kernel, ctx.exponents, rho, ball, TILT,
                                  times, c_n)


def _check_ode(ctx):
    return davies.ode_sweep(seed=ctx.seed)


def _estimate_report(est) -> CheckReport:
    report = CheckReport()
    report.add(record(f"bounds.{est.kind.lower()}_constant", est.scan, est.constant,
                      None, 0.0, bool(np.isfinite(est.constant)),
                      witness={"witnesses": est.witnesses}))
    return report


@_on_scenario("bounds.nash_constant")
def _check_nash(ctx):
    return _estimate_report(ctx.nash(ctx.scenario[1]))


def _check_due(ctx):
    e = ctx.exponents
    return _estimate_report(bounds_mod.due_constant(ctx.kernel, e.alpha, e.beta, e.r0))


def _check_wue(ctx):
    e = ctx.exponents
    return _estimate_report(bounds_mod.wue_constant(ctx.kernel, e.alpha, e.beta, e.r0))


def _check_energy_diff(ctx):
    report = CheckReport()
    for rho in ctx.space.distance_levels:
        report.extend(bounds_mod.energy_difference_check(ctx.kernel, rho, seed=ctx.seed))
    return report


def _check_p8(ctx):
    report = CheckReport()
    rng = np.random.default_rng(ctx.seed)
    cells = ctx.space.partition(ctx.space.distance_levels[0]) \
        if ctx.space.distance_levels else [ctx.space.whole()]
    fs = [np.ones(len(ctx.space)), 1.0 - cells[0].indicator(),
          rng.uniform(0.0, 1.0, len(ctx.space))]
    for rho in ctx.space.distance_levels:
        report.extend(bounds_mod.truncation_comparison_check(ctx.kernel, rho, None, fs, ctx.grid))
    return report


def _check_tail(ctx):
    e = ctx.exponents
    return bounds_mod.tail_probability_check(
        ctx.kernel, e.beta, tj_constant(ctx.kernel, e.beta, e.r0), e.r0, ctx.grid)


def _check_theorem1(ctx):
    e = ctx.exponents
    cert = bounds_mod.wue_certificate(ctx.kernel, e.alpha, e.beta, e.r0, seed=ctx.seed)
    ctx.artifacts["certificate"] = cert
    report = CheckReport()
    for rec in cert.checks:
        report.add(rec)
    report.add(record("pipeline.status", {"constants": cert.constants}, None, None,
                      0.0, cert.status == "pass"))
    return report


CHECK_REGISTRY = {
    "ultrametric": _check_ultrametric,
    "form": _check_form,
    "semigroup": _check_semigroup,
    "vanishing": _check_vanishing,
    "perturbation": _check_perturbation,
    "power": _check_power,
    "lp_derivative": _check_lp_derivative,
    "moser": _check_moser,
    "supbound": _check_supbound,
    "ode": _check_ode,
    "nash": _check_nash,
    "due": _check_due,
    "wue": _check_wue,
    "energy_diff": _check_energy_diff,
    "p8": _check_p8,
    "tail": _check_tail,
    "theorem1": _check_theorem1,
}


# -- report assembly ---------------------------------------------------------------------


@dataclass
class VerificationReport:
    records: list
    checks: list  # the check of each record, written into its params
    summary: dict
    environment: dict

    def to_json(self) -> str:
        return json_text({
            "records": [r.to_dict(check=c) for r, c in zip(self.records, self.checks)],
            "summary": self.summary,
            "environment": self.environment,
        })


def execute_checks(ctx: RunContext, checks) -> VerificationReport:
    # the records are kept as the checks wrote them: some are shared with
    # artifacts such as the certificate, which must read without the tag
    records, names = [], []
    for name in checks:
        start = time.perf_counter()
        found = CHECK_REGISTRY[name](ctx).records
        log.info("check %s took %.3f s", name, time.perf_counter() - start)
        records.extend(found)
        names.extend([name] * len(found))
    return VerificationReport(
        records=records,
        checks=names,
        summary=CheckReport(records).counts(),
        environment={"version": __version__, "seed": ctx.seed},
    )


def _csv_fields(fields) -> str:
    """`fields` joined as `csv.writer` writes them in a row, without the
    line end."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()[:-2]


def write_curves(ctx: RunContext, out_dir: Path) -> None:
    """CSV tables: kernel curves per flavor plus the tracked supremum
    quantities.  For large spaces only the first row and the diagonal are
    emitted (documented policy; keeps files plottable).

    Every value is a lookup in the pair classes of
    `bounds.heat_pair_classes`, one per tree node for an isotropic kernel
    (the truncated ones derived from the full-space engine), else one per
    pair of the dense generator; the class of each written pair is found
    once per run, and each written class is formatted once per time.  The
    rows of one time are written as one joined string, the bytes
    `csv.writer` would write, with the time's stamp joined in by
    `str.join`, so a time holds one string per written pair.  supremum.csv
    reads the maxima of the full-space classes and their `exits`.
    """
    curves = out_dir / "curves"
    curves.mkdir(parents=True, exist_ok=True)
    space, kernel, cfg = ctx.space, ctx.kernel, ctx.exponents
    n = len(space)
    if n <= 24:
        rows, cols = np.divmod(np.arange(n * n), n)
    else:
        rows = np.concatenate((np.zeros(n, dtype=int), np.arange(n)))
        cols = np.concatenate((np.arange(n), np.arange(n)))
    full = bounds_mod.heat_pair_classes(kernel, "curves")
    # the truncated classes share the full-space class layout
    used, at = np.unique(full.index(rows, cols), return_inverse=True)
    at = at.tolist()
    pairs = [_csv_fields([space.ids[i], space.ids[j]]) + "," for i, j in zip(rows, cols)]
    header = "t,x,y,value\r\n"

    def density_rows(t, values):
        # every row is "t," + "x,y," + value, so the rows are the stamp
        # joined before each "x,y,value"
        texts = [f"{v!r}\r\n" for v in values[used].tolist()]
        stamp = repr(t) + ","
        return stamp + stamp.join(map(operator.add, pairs, map(texts.__getitem__, at)))

    for k, rho in enumerate(space.distance_levels):
        classes = bounds_mod.heat_pair_classes(kernel, f"curves rho={rho!r}", rho)
        with open(curves / f"q_truncated_{k}.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write(header)
            for t in ctx.grid:
                fh.write(density_rows(float(t), classes.values(float(t))))

    # p_full.csv and supremum.csv share one evaluation per time
    capped = np.minimum(full.dist, cfg.r0)
    scale = bounds_mod.ball_scales(space, cfg.r0, cfg.beta)
    with open(curves / "p_full.csv", "w", encoding="utf-8", newline="") as full_fh, \
            open(curves / "supremum.csv", "w", encoding="utf-8", newline="") as sup_fh:
        sup_wr = csv.writer(sup_fh)
        full_fh.write(header)
        sup_wr.writerow(["t", "max_density", "ondiag_quantity", "offdiag_quantity",
                         "exit_quantity"])
        for t in ctx.grid:
            t = float(t)
            values = full.values(t)
            full_fh.write(density_rows(t, values))
            exit_q = max([0.0, *(full.exits(values)[0] * scale / t).tolist()])
            ondiag, offdiag = (
                float(bounds_mod.scaled_density(values, t, cfg.alpha, cfg.beta, c).max())
                for c in (0.0, capped))
            sup_wr.writerow([repr(t), repr(float(values.max())), repr(ondiag),
                             repr(offdiag), repr(exit_q)])


def build_context(cfg: RunConfig) -> RunContext:
    space = build_space(cfg.space, seed=cfg.seed)
    kernel = build_kernel(space, cfg.kernel)
    r0 = cfg.r0 if cfg.r0 is not None else space.diam
    if space.diam > 0 and not 0 < r0 <= space.diam:
        raise ConfigError(f"R0={r0} must lie in (0, diam={space.diam}]")
    try:
        exponents = ExponentConfig(cfg.alpha, cfg.beta, r0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunContext(
        space=space,
        kernel=kernel,
        exponents=exponents,
        grid=bounds_mod.log_time_grid(cfg.grid_min, cfg.grid_max, cfg.grid_points),
        seed=cfg.seed,
    )


def run(cfg: RunConfig) -> int:
    """Execute the configured checks; write curves, report, certificate."""
    if not cfg.checks:
        raise ConfigError("checks must be nonempty")
    ctx = build_context(cfg)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = execute_checks(ctx, cfg.checks)
    # curves first: a run whose curves fail leaves no report behind
    write_curves(ctx, out_dir)
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    if "certificate" in ctx.artifacts:
        with open(out_dir / "certificate.json", "w", encoding="utf-8") as fh:
            fh.write(ctx.artifacts["certificate"].to_json() + "\n")
    failed = any(r.status == FAIL for r in report.records)
    return 1 if failed else 0


def curves_only(cfg: RunConfig) -> int:
    write_curves(build_context(cfg), Path(cfg.output_dir))
    return 0


def generate_files(kind: str, out_dir, **params) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    space, kernel_spec = generate_space(kind, **params)
    space_path = out / "space.json"
    kernel_path = out / "kernel.json"
    save_space(space, space_path)
    kernel_path.write_text(json_text(kernel_spec) + "\n", encoding="utf-8")
    return space_path, kernel_path


# -- entry point -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ultraheat",
                                     description="heat kernel verification runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run configured checks")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--checks", default=None, help="comma-separated subset")
    p_run.add_argument("--seed", type=int, default=None)

    p_gen = sub.add_parser("generate", help="write space and kernel spec files")
    p_gen.add_argument("--kind", required=True)
    p_gen.add_argument("--depth", type=int, default=3)
    p_gen.add_argument("--branching", type=int, default=3)
    p_gen.add_argument("--q", type=float, default=2.0)
    p_gen.add_argument("--mass-law", default="unit")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--max-points", type=int, default=64)
    p_gen.add_argument("--out", default=".")

    p_curves = sub.add_parser("curves", help="emit CSV curves, run no checks")
    p_curves.add_argument("--config", required=True)
    p_curves.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            space_path, kernel_path = generate_files(
                args.kind, args.out, depth=args.depth, branching=args.branching,
                q=args.q, mass_law=args.mass_law, seed=args.seed,
                max_points=args.max_points)
            print(space_path)
            print(kernel_path)
            return 0
        cfg = load_config(args.config)
        if args.out is not None:
            cfg.output_dir = args.out
        if args.command == "run":
            if args.seed is not None:
                cfg.seed = _in_range("--seed", args.seed, 0)
            if args.checks is not None:
                cfg.checks = _check_names([c.strip() for c in args.checks.split(",") if c.strip()])
        try:
            return run(cfg) if args.command == "run" else curves_only(cfg)
        except ArithmeticError as exc:
            # extreme exponents take the tracked constants out of float range
            r0 = "diam" if cfg.r0 is None else cfg.r0
            raise ConfigError(f"exponents alpha={cfg.alpha}, beta={cfg.beta}, R0={r0} "
                              f"leave the float range: {exc}") from exc
    except UltraheatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
