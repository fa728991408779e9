"""
Condition constants and the constant-tracking certificate.

Measured constants (all minimal over a scanned family, deterministic for a
fixed seed):

  * tail-jump: smallest C with r^beta J(x, B(x,r)^c) <= C on (0, R0);
  * on-diagonal: smallest C with p_t(x, y) <= C t^(-alpha/beta);
  * off-diagonal: smallest C with
        p_t(x, y) <= C t^(-alpha/beta) (1 + (d(x,y) ^ R0) / t^(1/beta))^(-beta);
  * Nash: largest quotient
        ||u||_2^(2+2nu) / ((E_rho(u) + K0 ||u||_2^2) ||u||_1^(2nu))
    over a function family (a family-relative lower estimate of the true
    constant; the family includes all eigenfunctions, which empirically
    dominate).

Verified implications:

  * energy difference: E(u) - E_rho(u) <= 4 ||u||_2^2 sup_x J(x, B(x,rho)^c);
  * truncation comparison: P_t f <= Q_t f + 4 t sup_x J(x, B(x,rho)^c) ||f||_inf
    (the constant 4 is stated under the ordered-pair generator convention,
    where the naive rate carries a factor 2);
  * exit-probability bound: sup_B(x in B) P_t 1_{B^c}(x) <= 4 C_tj t / r^beta
    for balls of radius r < R0, via exact vanishing of the r-truncated
    kernel plus the truncation comparison;
  * the two-step chaining that converts the on-diagonal constant and the
    exit bound into the off-diagonal estimate, with every constant tracked.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditionFailure
from .davies import nash_ratio_batch
from .form import energy_batch
from .kernel import ExponentConfig, JumpKernel, tj_constant
from .reporting import CheckRecord, CheckReport, record, vacuous
from .semigroup import generator
from .space import Ball


SCAN_TOL, SCAN_MAX_ROUNDS = 1e-9, 40  # time scan: gain that ends refinement, most rounds
N_RANDOM_FUNCTIONS = 64  # random functions of each kind in the default Nash family
CHAIN_POINTS = 17  # time points of the certificate's chaining scan


def log_time_grid(t_min: float, t_max: float, points: int) -> np.ndarray:
    """Log-spaced grid including both endpoints."""
    if t_min <= 0 or t_max < t_min:
        raise ValueError(f"need 0 < t_min <= t_max, got [{t_min}, {t_max}]")
    return np.exp(np.linspace(math.log(t_min), math.log(t_max), points))


@dataclass
class ConditionEstimate:
    kind: str
    constant: float
    witnesses: list = field(default_factory=list)
    scan: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "constant": self.constant,
                "witnesses": self.witnesses, "scan": self.scan}


# -- heat kernel scans ------------------------------------------------------------


def _refine_scan(values_at, grid):
    """Maximise a smooth scalar over times by local log-grid refinement."""
    grid = np.asarray(grid, dtype=float)
    vals = np.array([values_at(t) for t in grid])
    best_t = float(grid[np.argmax(vals)])
    best = float(vals.max())
    lo = grid[max(0, int(np.argmax(vals)) - 1)]
    hi = grid[min(len(grid) - 1, int(np.argmax(vals)) + 1)]
    for _ in range(SCAN_MAX_ROUNDS):
        sub = np.exp(np.linspace(math.log(lo), math.log(hi), 17))
        sub_vals = np.array([values_at(t) for t in sub])
        j = int(np.argmax(sub_vals))
        new_best = float(sub_vals[j])
        improved = new_best - best
        if new_best > best:
            best, best_t = new_best, float(sub[j])
        lo = sub[max(0, j - 1)]
        hi = sub[min(len(sub) - 1, j + 1)]
        if improved <= SCAN_TOL * max(1.0, abs(best)):
            break
    return best, best_t


def scaled_density(dens: np.ndarray, t: float, alpha: float, beta: float,
                   capped=0.0) -> np.ndarray:
    """t^(alpha/beta) p_t(x, y) (1 + capped / t^(1/beta))^beta, whose supremum
    is C_DUE for capped = 0 (the factor is exactly 1) and C_wUE for the
    distance matrix capped at R0."""
    return t ** (alpha / beta) * dens * (1.0 + capped / t ** (1.0 / beta)) ** beta


def _density_scan(kind: str, kernel: JumpKernel, alpha: float, beta: float, r0: float,
                  capped, points: int) -> ConditionEstimate:
    """Minimal C with `scaled_density` <= C over the time range."""
    gen = generator(kernel)

    def matrix_at(t):
        return scaled_density(gen.density(t), t, alpha, beta, capped)

    best, best_t = _refine_scan(lambda t: float(matrix_at(t).max()),
                                log_time_grid(r0 ** beta * 1e-4, r0 ** beta, points))
    m = matrix_at(best_t)
    i, j = map(int, np.unravel_index(np.argmax(m), m.shape))
    ids = kernel.space.ids
    return ConditionEstimate(
        kind, best,
        [{"t": best_t, "x": ids[i], "y": ids[j]}],
        {"alpha": alpha, "beta": beta, "R0": r0, "points": points},
    )


def due_constant(kernel: JumpKernel, alpha: float, beta: float, r0: float,
                 points: int = 129) -> ConditionEstimate:
    """Minimal C with p_t(x, y) <= C t^(-alpha/beta) over the time range.

    The supremum over the open interval (0, R0^beta) equals the maximum
    over its closure by continuity, so the scan grid includes the right
    endpoint; the grid is then refined around the maximiser until the
    constant is stable to 1e-9.
    """
    return _density_scan("DUE", kernel, alpha, beta, r0, 0.0, points)


def wue_constant(kernel: JumpKernel, alpha: float, beta: float, r0: float,
                 points: int = 129) -> ConditionEstimate:
    """Minimal C for the off-diagonal estimate with factor
    (1 + (d ^ R0) / t^(1/beta))^(-beta)."""
    capped = np.minimum(kernel.space.distance_matrix(), r0)
    return _density_scan("wUE", kernel, alpha, beta, r0, capped, points)


# -- Nash constant -----------------------------------------------------------------


def default_function_family(kernel: JumpKernel, rho: float,
                            seed: int = 0) -> tuple[np.ndarray, list]:
    """Columns: eigenfunctions of the truncated generator, indicators of
    all balls and points, seeded random simple functions, and seeded random
    positive vectors."""
    space = kernel.space
    n = len(space)
    cols, labels = [], []
    gen = generator(kernel, rho=rho)
    for lam, phi in gen.eigenpairs():
        cols.append(phi)
        labels.append(f"eigen:{lam:.6g}")
    for ball in space.balls(include_points=True):
        cols.append(ball.indicator())
        labels.append(f"ball:{ball.start}:{ball.stop}")
    rng = np.random.default_rng(seed)
    levels = list(space.distance_levels) or [0.0]
    for i in range(N_RANDOM_FUNCTIONS):
        r = levels[rng.integers(0, len(levels))]
        cells = space.partition(r)
        pick = rng.random(len(cells)) < 0.5
        if not pick.any():
            pick[rng.integers(0, len(cells))] = True
        u = np.zeros(n)
        for cell, used in zip(cells, pick):
            if used:
                u[cell.start:cell.stop] = rng.normal()
        if np.any(u != 0):
            cols.append(u)
            labels.append(f"simple:{i}")
    for i in range(N_RANDOM_FUNCTIONS):
        cols.append(rng.uniform(0.05, 1.0, n))
        labels.append(f"positive:{i}")
    return np.column_stack(cols), labels


def _family_or_default(kernel: JumpKernel, rho: float, family,
                       seed: int) -> tuple[np.ndarray, list]:
    """The supplied functions as columns, or the default family."""
    if family is None:
        return default_function_family(kernel, rho, seed=seed)
    U = np.column_stack([np.asarray(u, dtype=float) for u in family])
    return U, [f"supplied:{i}" for i in range(U.shape[1])]


def nash_constant(kernel: JumpKernel, rho: float, nu: float, k0: float,
                  family=None, seed: int = 0) -> ConditionEstimate:
    """Family-relative Nash constant: the largest quotient
    ||u||_2^(2+2nu) ((E_rho(u) + K0 ||u||_2^2) ||u||_1^(2nu))^(-1) over the
    family.  This is a lower estimate of the true constant; consumers
    enlarge the family with their own iterates when a downstream check
    fails.
    """
    U, labels = _family_or_default(kernel, rho, family, seed)
    ratios = nash_ratio_batch(kernel, rho, nu, k0, U)
    j = int(np.argmax(ratios))
    return ConditionEstimate(
        "Nash", float(ratios[j]),
        [{"function": labels[j]}],
        {"rho": rho, "nu": nu, "K0": k0, "family_size": int(U.shape[1]),
         "seed": seed, "note": "family-relative lower estimate"},
    )


# -- implication checks ---------------------------------------------------------------


def energy_difference_check(kernel: JumpKernel, rho: float, family=None,
                            seed: int = 0, rtol: float = 1e-12) -> CheckReport:
    """E(u) - E_rho(u) <= 4 ||u||_2^2 sup_x J(x, B(x,rho)^c) over a family."""
    U, labels = _family_or_default(kernel, rho, family, seed)
    mu = kernel.mu
    sup_tail = kernel.tail_sup(rho)
    full = energy_batch(kernel, U, None)
    trunc = energy_batch(kernel, U, rho)
    l2sq = (U * U * mu[:, None]).sum(axis=0)
    lhs = full - trunc
    rhs = 4.0 * l2sq * sup_tail
    slack = lhs - rhs - rtol * np.maximum(np.abs(rhs), 1.0)
    worst = int(np.argmax(slack))
    report = CheckReport()
    report.add(record(
        "bounds.energy_difference",
        {"rho": rho, "family_size": int(U.shape[1]), "sup_tail": sup_tail},
        measured=float(lhs[worst]),
        bound=float(rhs[worst]),
        margin=rtol * max(abs(float(rhs[worst])), 1.0),
        ok=bool(np.all(slack <= 0)),
        witness={"function": labels[worst]},
    ))
    return report


def truncation_comparison_check(kernel: JumpKernel, rho: float, omega, f,
                                time_grid, c_factor: float = 4.0,
                                rtol: float = 1e-12) -> CheckReport:
    """Killed or full semigroup versus its range truncation:

        P_t f <= Q_t f + c_factor * t * sup_x J(x, B(x,rho)^c) * ||f||_inf.

    Also reports the empirical minimal factor attained over the scan.
    """
    f = np.asarray(f, dtype=float)
    full = generator(kernel, rho=None, omega=omega)
    trunc = generator(kernel, rho=rho, omega=omega)
    sup_tail = kernel.tail_sup(rho)
    f_inf = float(np.abs(f).max())
    times = [float(t) for t in time_grid]
    report = CheckReport()
    worst = -np.inf
    witness = None
    empirical = -np.inf
    for t in times:
        diff = full.apply(t, f) - trunc.apply(t, f)
        envelope = c_factor * t * sup_tail * f_inf
        gap = float(diff.max()) - envelope
        tol = rtol * max(1.0, envelope, float(np.abs(diff).max()))
        if gap - tol > worst:
            worst = gap - tol
            witness = {"t": t, "max_diff": float(diff.max()), "envelope": envelope}
        if sup_tail > 0 and f_inf > 0:
            empirical = max(empirical, float(diff.max()) / (t * sup_tail * f_inf))
    params = {"rho": rho, "c_factor": c_factor, "sup_tail": sup_tail,
              "omega": "all" if omega is None else len(trunc.omega),
              "empirical_factor": None if empirical == -np.inf else empirical}
    report.add(record("bounds.truncation_comparison", params, worst, 0.0, 0.0,
                      worst <= 0.0, witness))
    return report


def exit_probability_slope(kernel: JumpKernel, ball: Ball, x) -> float:
    """First-order rate of P_t 1_{B^c}(x) at t -> 0, Richardson-extrapolated."""
    t = 1e-5
    gen = generator(kernel)
    comp = 1.0 - ball.indicator()
    i = kernel.space.index(x)
    s1 = float(gen.apply(t, comp)[i]) / t
    s2 = float(gen.apply(t / 2, comp)[i]) / (t / 2)
    return 2 * s2 - s1


def exit_probability(heat: np.ndarray, ball: Ball) -> float:
    """sup_{x in B} P_t 1_{B^c}(x) from the heat matrix e^{tL} at time t."""
    return float((heat[ball.start:ball.stop, :] @ (1.0 - ball.indicator())).max())


def tail_probability_check(kernel: JumpKernel, beta: float, c_tj: float, r0: float,
                           time_grid, rtol: float = 1e-12) -> CheckReport:
    """Exit-probability bound with the tracked constant C_tail = 4 C_tj.

    For every ball of radius label r the whole-ball supremum obeys

        sup_{x in B} P_t 1_{B^c}(x) <= 4 C_tj t / (r ^ R0)^beta,

    obtained from exact vanishing of the r-truncated kernel plus the
    truncation comparison with factor 4 (route rho = r; the halved-range
    route rho = r/2 gives 4 * 2^beta * C_tj and is reported alongside).
    In r the quantity P_t 1_{B(x0,r)^c} is non-increasing pointwise, and
    that monotonicity is checked exhaustively on nested balls.
    """
    space = kernel.space
    gen = generator(kernel)
    times = [float(t) for t in time_grid]
    c_tail = 4.0 * c_tj
    report = CheckReport()

    balls = [b for b in space.balls() if b.radius > 0]
    if not balls:
        report.add(vacuous("bounds.exit_probability", {"balls": 0}))
        return report

    worst = worst_mono = -np.inf
    witness = wit_mono = None
    empirical = 0.0
    # pointwise monotonicity in the radius is checked on every (ball, parent) pair
    chains = sorted({(nd.start, nd.stop, nd.parent.start, nd.parent.stop)
                     for nd in space._nodes if nd.parent is not None})
    for t in times:
        heat = gen.heat_matrix(t)
        for ball in balls:
            exit_prob = exit_probability(heat, ball)
            r_eff = min(ball.radius, r0)
            bound = c_tail * t / r_eff ** beta
            tol = rtol * max(1.0, bound)
            gap = exit_prob - bound
            if gap - tol > worst:
                worst = gap - tol
                witness = {"t": t, "ball": list(ball.members), "r": ball.radius,
                           "exit": exit_prob, "bound": bound}
            if c_tj > 0:
                empirical = max(empirical, exit_prob * r_eff ** beta / (t * 4 * c_tj))
        for a0, a1, b0, b1 in chains:
            small = np.zeros(len(space)); small[a0:a1] = 1.0
            big = np.zeros(len(space)); big[b0:b1] = 1.0
            drop = heat @ (1.0 - small) - heat @ (1.0 - big)
            viol = -float(drop.min())
            if viol > worst_mono:
                worst_mono = viol
                wit_mono = {"t": t, "inner": [a0, a1], "outer": [b0, b1]}
    report.add(record(
        "bounds.exit_probability",
        {"beta": beta, "R0": r0, "c_tail": c_tail,
         "halved_range_c_tail": c_tail * 2 ** beta,
         "empirical_over_c_tail": empirical},
        measured=worst, bound=0.0, margin=0.0, ok=worst <= 0.0, witness=witness,
    ))

    report.add(record(
        "bounds.exit_probability_monotone",
        {"chains": len(chains)},
        measured=worst_mono, bound=0.0, margin=1e-12,
        ok=worst_mono <= 1e-12, witness=wit_mono,
    ))
    return report


# -- the certificate pipeline -----------------------------------------------------------


@dataclass
class WueCertificate:
    """Measured conditions, the chained bound, and the derived constant."""

    inputs: dict
    constants: dict
    checks: list
    status: str

    def to_dict(self) -> dict:
        return {
            "inputs": self.inputs,
            "constants": self.constants,
            "checks": [c.to_dict() for c in self.checks],
            "status": self.status,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def wue_certificate(kernel: JumpKernel, alpha: float, beta: float, r0: float,
                    seed: int = 0, estimates=None) -> WueCertificate:
    """Run the full constant-tracking pipeline on one space and kernel.

    Measures the tail-jump and on-diagonal constants, verifies the two-step
    chaining p_{2t}(x0, y0) <= 2 (C_due / t^(a/b)) (C_tail t / (r ^ R0)^b)
    with r = d(x0, y0)/2 for every admissible pair, derives an off-diagonal
    constant from the tracked route, and compares it against the directly
    measured one (the route is an upper bound, so derived >= measured).

    `estimates` is (C_TJ, DUE, wUE, Nash at rho = R0), each as measured for
    these arguments; without it the four are measured here.
    """
    cfg = ExponentConfig(alpha, beta, r0)
    space = kernel.space
    checks: list[CheckRecord] = []

    if estimates is None:
        estimates = (tj_constant(kernel, beta, r0),
                     due_constant(kernel, alpha, beta, r0),
                     wue_constant(kernel, alpha, beta, r0),
                     nash_constant(kernel, rho=r0, nu=cfg.nu, k0=cfg.k0(r0), seed=seed))
    c_tj, due, wue, nash = estimates
    c_tail = 4.0 * c_tj
    if not all(np.isfinite([c_tj, due.constant, wue.constant, nash.constant])):
        raise ConditionFailure("non-finite measured constant", step="measure")

    gen = generator(kernel)
    D = space.distance_matrix()
    grid = log_time_grid(r0 ** beta * 1e-4, r0 ** beta, CHAIN_POINTS)
    worst = -np.inf
    witness = None
    any_pair = False
    for t in grid:
        thresh = t ** (1.0 / beta)
        pairs = np.argwhere(D >= thresh)
        if pairs.size == 0:
            continue
        dens2 = gen.density(2 * t)
        for i, j in pairs:
            any_pair = True
            r = D[i, j] / 2.0
            bound = 2.0 * (due.constant / t ** (alpha / beta)) \
                * (c_tail * t / min(r, r0) ** beta)
            gap = float(dens2[i, j]) - bound * (1 + 1e-12)
            if gap > worst:
                worst = gap
                witness = {"t": float(t), "x": space.ids[i], "y": space.ids[j],
                           "p2t": float(dens2[i, j]), "bound": bound}
    if any_pair:
        checks.append(record("pipeline.chaining", {"points": len(grid)},
                             worst, 0.0, 0.0, worst <= 0.0, witness))
    else:
        checks.append(vacuous("pipeline.chaining",
                              {"note": "all pairs in the near regime; "
                                       "on-diagonal bound applies directly"}))

    derived = max(2.0 ** beta * due.constant,
                  2.0 ** (alpha / beta + 2 * beta) * due.constant * c_tail)
    checks.append(record(
        "pipeline.derived_dominates",
        {"derived": derived, "measured": wue.constant},
        measured=wue.constant,
        bound=derived,
        margin=0.0,
        ok=wue.constant <= derived,
    ))

    status = "pass" if all(c.status != "fail" for c in checks) else "fail"
    return WueCertificate(
        inputs={
            "space": {"n": len(space), "diam": space.diam},
            "exponents": cfg.to_dict(),
            "seed": seed,
        },
        constants={
            "C_TJ": c_tj,
            "C_DUE": due.constant,
            "C_N": nash.constant,
            "C_tail": c_tail,
            "C_wUE_derived": derived,
            "C_wUE_measured": wue.constant,
        },
        checks=checks,
        status=status,
    )
