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
    constant; the family includes all eigenfunctions and all ball
    indicators, and for an isotropic kernel both are held in closed form
    on the ball tree).

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
    Its bound depends on a pair only through d(x, y), which takes finitely
    many values on an ultrametric space, so the scan computes the bound
    once per distance level and is one array pass over the pairs per time.
"""

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConditionFailure, NotIsotropic
from .davies import nash_quotients, nash_ratio_batch
from .form import energy_batch
from .kernel import ExponentConfig, JumpKernel, tj_constant
from .reporting import (IDENTITY_RTOL, CheckRecord, CheckReport, json_text, log_time_grid,
                        positive_times, record, vacuous)
from .semigroup import HierarchicalHeatKernel, PairClasses, ball_chains, generator


SCAN_POINTS = 129  # first grid of the DUE and wUE time scans
SCAN_TOL, SCAN_MAX_ROUNDS = 1e-9, 40  # time scan: gain that ends refinement, most rounds
N_RANDOM_FUNCTIONS = 64  # random functions of each kind in the default Nash family
CHAIN_POINTS = 17  # time points of the certificate's chaining scan
TRUNCATION_FACTOR = 4.0  # the 4 of P_t f <= Q_t f + 4 t sup J ||f||_inf and C_tail = 4 C_TJ

log = logging.getLogger(__name__)


@dataclass
class ConditionEstimate:
    kind: str
    constant: float
    witnesses: list = field(default_factory=list)
    scan: dict = field(default_factory=dict)


# -- heat kernel scans ------------------------------------------------------------


def _refine_scan(values_at, grid, vals):
    """Maximise a smooth scalar over times by local log-grid refinement,
    from its values `vals` on `grid`."""
    best_t = float(grid[np.argmax(vals)])
    best = float(vals.max())
    lo = grid[max(0, int(np.argmax(vals)) - 1)]
    hi = grid[min(len(grid) - 1, int(np.argmax(vals)) + 1)]
    for _ in range(SCAN_MAX_ROUNDS):
        sub = log_time_grid(lo, hi, 17)
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


def heat_pair_classes(kernel: JumpKernel, use: str, rho: float | None = None) -> PairClasses:
    """The pair classes of the rho-truncated heat kernel (rho=None: the full
    one) that serve `use`: one per point and per tree node from
    `HierarchicalHeatKernel` when the kernel is isotropic, else one per
    ordered pair from the dense generator.  Logs which engine served `use`."""
    try:
        classes = HierarchicalHeatKernel.from_kernel(kernel, rho).pair_classes()
    except NotIsotropic as exc:
        log.info("%s: dense densities (not isotropic: %s)", use, exc)
        return generator(kernel, rho=rho).pair_classes()
    log.info("%s: hierarchical heat profile, %d pair classes", use, classes.dist.size)
    return classes


def _density_scans(kernel: JumpKernel, alpha: float, beta: float,
                   r0: float) -> tuple[ConditionEstimate, ConditionEstimate]:
    """DUE and wUE: the minimal C with `scaled_density` <= C over the time
    range, with the distance 0 and capped at R0.  One evaluation of the
    classes per time of the first grid serves both; each is then refined on
    its own, and its witness is the first pair of the first maximising
    class."""
    classes = heat_pair_classes(kernel, "DUE and wUE scans")
    grid = log_time_grid(r0 ** beta * 1e-4, r0 ** beta, SCAN_POINTS)
    caps = (0.0, np.minimum(classes.dist, r0))
    maxima = np.empty((2, grid.size))
    for k, t in enumerate(grid):
        values = classes.values(t)
        maxima[:, k] = [float(scaled_density(values, t, alpha, beta, c).max()) for c in caps]
    ids = kernel.space.ids
    out = []
    for kind, capped, vals in zip(("DUE", "wUE"), caps, maxima):
        def scaled_at(t, capped=capped):
            return scaled_density(classes.values(t), t, alpha, beta, capped)

        best, best_t = _refine_scan(lambda t: float(scaled_at(t).max()), grid, vals)
        c = int(np.argmax(scaled_at(best_t)))
        out.append(ConditionEstimate(
            kind, best,
            [{"t": best_t, "x": ids[classes.rows[c]], "y": ids[classes.cols[c]]}],
            {"alpha": alpha, "beta": beta, "R0": r0, "points": SCAN_POINTS}))
    return tuple(out)


def _kept_scans(kernel: JumpKernel, alpha: float, beta: float, r0: float):
    """`_density_scans`, run once per kernel and (alpha, beta, R0, SCAN_POINTS)."""
    return kernel.kept(("DUE and wUE", alpha, beta, r0, SCAN_POINTS),
                       lambda: _density_scans(kernel, alpha, beta, r0))


def due_constant(kernel: JumpKernel, alpha: float, beta: float, r0: float) -> ConditionEstimate:
    """Minimal C with p_t(x, y) <= C t^(-alpha/beta) over the time range.

    The supremum over the open interval (0, R0^beta) equals the maximum
    over its closure by continuity, so the scan grid includes the right
    endpoint; the grid is then refined around the maximiser until the
    constant is stable to 1e-9.  Read from `_density_scans`.
    """
    return _kept_scans(kernel, alpha, beta, r0)[0]


def wue_constant(kernel: JumpKernel, alpha: float, beta: float, r0: float) -> ConditionEstimate:
    """Minimal C for the off-diagonal estimate with factor
    (1 + (d ^ R0) / t^(1/beta))^(-beta); read from `_density_scans`."""
    return _kept_scans(kernel, alpha, beta, r0)[1]


# -- Nash constant -----------------------------------------------------------------


class FunctionFamily(NamedTuple):
    """A test family of the Nash quotient and the energy difference, in
    column order: first the members held in closed form on the ball tree
    (none on the dense path), then the explicit columns of `U`.  For the
    closed-form members, `energy`, `gap`, `l2sq` and `l1` hold E_rho(u),
    E(u) - E_rho(u), ||u||_2^2 and ||u||_1; `labels` names every member."""

    labels: list
    energy: np.ndarray
    gap: np.ndarray
    l2sq: np.ndarray
    l1: np.ndarray
    U: np.ndarray


def _random_functions(space, seed: int) -> tuple[np.ndarray, list]:
    """The seeded columns that close the default family: random simple
    functions on the partition of a random distance level, then random
    positive vectors."""
    n = len(space)
    cols, labels = [], []
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


def random_columns(kernel: JumpKernel, seed: int) -> tuple[np.ndarray, list]:
    """`_random_functions` of the kernel's space, drawn once per (kernel,
    seed) and kept on the kernel as a read-only array."""
    def draw():
        U, labels = _random_functions(kernel.space, seed)
        U.setflags(write=False)
        return U, labels
    U, labels = kernel.kept(("random columns", seed), draw)
    return U, list(labels)


def default_function_family(kernel: JumpKernel, rho: float,
                            seed: int = 0) -> tuple[np.ndarray, list]:
    """The default family as dense columns: the eigenfunctions of the
    truncated generator (unit L2(mu) norm, by eigenvalue), the indicators of
    all balls and points, then `random_columns`."""
    cols, labels = [], []
    for lam, phi in generator(kernel, rho=rho).eigenpairs():
        cols.append(phi)
        labels.append(f"eigen:{lam:.6g}")
    for ball in kernel.space.balls(include_points=True):
        cols.append(ball.indicator())
        labels.append(f"ball:{ball.start}:{ball.stop}")
    U, random_labels = random_columns(kernel, seed)
    return np.column_stack(cols + [U]), labels + random_labels


def tree_function_family(kernel: JumpKernel, rho: float, seed: int = 0) -> FunctionFamily:
    """The default family of an isotropic kernel, member for member, with
    its eigenfunctions taken from the Haar basis of the ball tree and every
    member but the random columns in closed form; raises NotIsotropic.

    The eigenfunctions are the constant of each rho-block (lambda = 0) and,
    for each node N of radius <= rho and each two consecutive children a, b
    of N, the function mu(b) 1_a - mu(a) 1_b with the eigenvalue lambda_N
    of the truncated engine.  As the dense eigenvectors, each has unit
    L2(mu) norm, so E_rho = lambda, and they are sorted stably by lambda.
    The indicator of a ball B has E_rho(1_B) = 2 mu(B) J_rho(B), with
    J_rho(B) the rate of the jumps out of B that the truncated kernel keeps
    (`jump_rates`).  E - E_rho of a member is 2 ||u||_2^2 times the rate of
    the jumps that the truncation drops: out of B for the constant or the
    indicator of B, and out of N for a Haar function of N.
    """
    engine = HierarchicalHeatKernel.from_kernel(kernel, rho)
    space = kernel.space
    tree = space.tree
    volume = tree.volume
    # consecutive children (a, b) of a node of radius <= rho, in preorder
    kids = np.argsort(tree.parent[1:], kind="stable") + 1
    a, b = kids[:-1], kids[1:]
    pair = (tree.parent[a] == tree.parent[b]) & (tree.radius[tree.parent[a]] <= rho)
    a, b = a[pair], b[pair]
    blocks = np.array([ball.node for ball in space.partition(rho)], dtype=int)
    lam = np.concatenate((np.zeros(blocks.size), engine.eigenvalue[tree.parent[a]]))
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    ma, mb = volume[a], volume[b]
    l1 = np.concatenate((np.sqrt(volume[blocks]), 2.0 * ma * mb / np.sqrt(ma * mb * (ma + mb))))
    balls = np.concatenate((np.flatnonzero(tree.children > 0), tree.leaf))
    # the node whose jump rates give each member's energies
    node = np.concatenate((np.concatenate((blocks, tree.parent[a]))[order], balls))
    l2sq = np.concatenate((np.ones(lam.size), volume[balls]))
    U, random_labels = random_columns(kernel, seed)
    labels = [f"eigen:{x:.6g}" for x in lam.tolist()]
    labels += [f"ball:{s}:{t}" for s, t in zip(tree.start[balls].tolist(),
                                                  tree.stop[balls].tolist())]
    return FunctionFamily(
        labels + random_labels,
        np.concatenate((lam, 2.0 * engine.jump_rates(rho)[balls] * volume[balls])),
        2.0 * engine.jump_rates(rho, above=True)[node] * l2sq,
        l2sq, np.concatenate((l1[order], volume[balls])), U)


def function_family(kernel: JumpKernel, rho: float, seed: int, use: str) -> FunctionFamily:
    """The default family: in closed form on the ball tree when the kernel
    is isotropic, else as dense columns.  Logs which of the two served `use`
    at this rho."""
    try:
        fam = tree_function_family(kernel, rho, seed)
    except NotIsotropic as exc:
        log.info("%s rho=%s: dense family (not isotropic: %s)", use, rho, exc)
        U, labels = default_function_family(kernel, rho, seed)
        none = np.zeros(0)
        return FunctionFamily(labels, none, none, none, none, U)
    n = len(kernel.space)  # the Haar basis has one function per point
    log.info("%s rho=%s: hierarchical family, %d Haar + %d indicators + %d random", use, rho,
             n, fam.energy.size - n, fam.U.shape[1])
    return fam


def nash_constant(kernel: JumpKernel, rho: float, nu: float, k0: float,
                  seed: int = 0) -> ConditionEstimate:
    """Family-relative Nash constant: the largest quotient
    ||u||_2^(2+2nu) ((E_rho(u) + K0 ||u||_2^2) ||u||_1^(2nu))^(-1) over the
    default family (`function_family`).  This is a lower estimate of the
    true constant; consumers enlarge the family with their own iterates
    when a downstream check fails.  It is measured once per kernel and
    (rho, nu, K0, seed).
    """
    def estimate():
        fam = function_family(kernel, rho, seed, "nash")
        ratios = np.concatenate((nash_quotients(fam.energy, fam.l2sq, fam.l1, nu, k0),
                                 nash_ratio_batch(kernel, rho, nu, k0, fam.U)))
        j = int(np.argmax(ratios))
        return ConditionEstimate(
            "Nash", float(ratios[j]),
            [{"function": fam.labels[j]}],
            {"rho": rho, "nu": nu, "K0": k0, "family_size": len(fam.labels),
             "seed": seed, "note": "family-relative lower estimate"},
        )
    return kernel.kept(("Nash", rho, nu, k0, seed), estimate)


# -- implication checks ---------------------------------------------------------------


def energy_difference_check(kernel: JumpKernel, rho: float, seed: int = 0) -> CheckReport:
    """E(u) - E_rho(u) <= 4 ||u||_2^2 sup_x J(x, B(x,rho)^c) over the default
    family: in closed form for the members of `tree_function_family`, and as
    the difference of the two energies for explicit columns."""
    fam = function_family(kernel, rho, seed, "energy_diff")
    U, mu = fam.U, kernel.mu
    sup_tail = kernel.tail_sup(rho)
    lhs = np.concatenate((fam.gap, energy_batch(kernel, U, None) - energy_batch(kernel, U, rho)))
    l2sq = np.concatenate((fam.l2sq, (U * U * mu[:, None]).sum(axis=0)))
    rhs = 4.0 * l2sq * sup_tail
    slack = lhs - rhs - IDENTITY_RTOL * np.maximum(np.abs(rhs), 1.0)
    worst = int(np.argmax(slack))
    report = CheckReport()
    report.add(record(
        "bounds.energy_difference",
        {"rho": rho, "family_size": len(fam.labels), "sup_tail": sup_tail},
        measured=float(lhs[worst]),
        bound=float(rhs[worst]),
        margin=IDENTITY_RTOL * max(abs(float(rhs[worst])), 1.0),
        ok=bool(np.all(slack <= 0)),
        witness={"function": fam.labels[worst]},
    ))
    return report


def _comparison_gaps(kernel: JumpKernel, rho: float, omega, times, F):
    """(P_t f - Q_t f for the rows f of F as [f, x, t], domain), with P the
    full and Q the rho-truncated semigroup, killed outside omega unless it
    is None, and domain "all" or the size of omega.  The semigroups are the
    kept heat engines when the kernel is isotropic and omega is None: the
    whole engine applies p_t - q_t, the difference of the two engines' node
    values, to all rows at once, so that no gap is the difference of two
    evolved functions.  Else they are dense generators, one row at a time.
    Logs which engine served."""
    if omega is None:
        try:
            full = HierarchicalHeatKernel.from_kernel(kernel)
        except NotIsotropic as exc:
            log.info("truncation comparison rho=%s: dense generators (not isotropic: %s)",
                     rho, exc)
        else:
            log.info("truncation comparison rho=%s: hierarchical heat engine", rho)
            trunc = HierarchicalHeatKernel.from_kernel(kernel, rho)
            return full.apply_values(full.node_values(times) - trunc.node_values(times), F), "all"
    else:
        log.info("truncation comparison rho=%s: dense generators (killed outside a domain)",
                 rho)
    full, trunc = generator(kernel, rho=None, omega=omega), generator(kernel, rho=rho, omega=omega)
    return (np.array([full.apply_grid(times, f) - trunc.apply_grid(times, f) for f in F]),
            "all" if omega is None else trunc.size)


def truncation_comparison_check(kernel: JumpKernel, rho: float, omega, fs,
                                time_grid) -> CheckReport:
    """Killed or full semigroup versus its range truncation:

        P_t f <= Q_t f + TRUNCATION_FACTOR * t * sup_x J(x, B(x,rho)^c) * ||f||_inf.

    `fs` holds the functions f as rows (one function is a 1-D array); the
    report has one record per function, in order, and each also reports
    the empirical minimal factor attained over the scan.  Each semigroup
    evolves the functions over the whole grid at once (`_comparison_gaps`);
    the witness is the first time that attains the worst excess.
    """
    times = positive_times(time_grid)
    F = np.atleast_2d(np.asarray(fs, dtype=float))
    diff, domain = _comparison_gaps(kernel, rho, omega, times, F)  # [f, x, t]
    sup_tail = kernel.tail_sup(rho)
    f_inf = np.abs(F).max(axis=1)[:, None]
    top = diff.max(axis=1)
    envelope = TRUNCATION_FACTOR * times * sup_tail * f_inf
    tol = IDENTITY_RTOL * np.maximum(np.maximum(1.0, envelope), np.abs(diff).max(axis=1))
    excess = top - envelope - tol
    scale = times * sup_tail * f_inf
    report = CheckReport()
    for j, k in enumerate(excess.argmax(axis=1).tolist()):  # the first time of the worst
        witness = {"t": float(times[k]), "max_diff": float(top[j, k]),
                   "envelope": float(envelope[j, k])}
        empirical = float((top[j] / scale[j]).max()) if sup_tail > 0 and f_inf[j, 0] > 0 \
            else None
        params = {"rho": rho, "c_factor": TRUNCATION_FACTOR, "sup_tail": sup_tail,
                  "omega": domain, "empirical_factor": empirical}
        report.add(record("bounds.truncation_comparison", params, float(excess[j, k]), 0.0,
                          0.0, excess[j, k] <= 0.0, witness))
    return report


def ball_scales(space, r0: float, beta: float) -> np.ndarray:
    """(r ^ R0)^beta for the radius r of each ball of `space.balls()`.  The
    power is Python's, once per distinct radius: numpy's vectorised power
    can differ from it in the last bit, and the exit bounds and curves keep
    the values of the scalar expression."""
    capped = np.minimum(space.tree.radius[space.tree.children > 0], r0)
    levels, level_of = np.unique(capped, return_inverse=True)
    return np.array([r ** beta for r in levels.tolist()])[level_of]


def tail_probability_check(kernel: JumpKernel, beta: float, c_tj: float, r0: float,
                           time_grid) -> CheckReport:
    """Exit-probability bound with the tracked constant C_tail = 4 C_tj.

    For every ball of radius label r the whole-ball supremum obeys

        sup_{x in B} P_t 1_{B^c}(x) <= 4 C_tj t / (r ^ R0)^beta,

    obtained from exact vanishing of the r-truncated kernel plus the
    truncation comparison with factor 4 (route rho = r; the halved-range
    route rho = r/2 gives 4 * 2^beta * C_tj and is reported alongside).
    In r, P_t 1_{B(x0,r)^c} is non-increasing pointwise, checked on all
    nested balls.  Both read the `exits` of `heat_pair_classes`: per tree
    node for an isotropic kernel, else from the dense densities.  Each time
    is one array pass over the balls; the witness is the first worst ball
    at the first time that attains the worst excess.
    """
    space = kernel.space
    times = positive_times(time_grid).tolist()
    c_tail = TRUNCATION_FACTOR * c_tj
    report = CheckReport()

    balls = space.balls()
    if not balls:
        report.add(vacuous("bounds.exit_probability", {"balls": 0}))
        return report

    scale = ball_scales(space, r0, beta)
    worst = worst_mono = -np.inf
    witness = wit_mono = None
    empirical = 0.0
    classes = heat_pair_classes(kernel, "tail")
    # pointwise monotonicity in the radius is checked on every (ball, parent) pair
    chains = ball_chains(space)[0]
    for t in times:
        sup, chain_min = classes.exits(classes.values(t))
        bound = c_tail * t / scale
        excess = sup - bound - IDENTITY_RTOL * np.maximum(1.0, bound)
        b = int(np.argmax(excess))
        if excess[b] > worst:
            worst = float(excess[b])
            witness = {"t": t, "ball": list(balls[b].members), "r": balls[b].radius,
                       "exit": float(sup[b]), "bound": float(bound[b])}
        if c_tj > 0:
            empirical = max(empirical, float((sup * scale / (t * c_tail)).max()))
        viol = -chain_min
        c = int(np.argmax(viol))
        if viol[c] > worst_mono:
            worst_mono = float(viol[c])
            wit_mono = {"t": t, "inner": chains[c][:2], "outer": chains[c][2:]}
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

    def to_json(self) -> str:
        return json_text({
            "inputs": self.inputs,
            "constants": self.constants,
            "checks": [c.to_dict() for c in self.checks],
            "status": self.status,
        })


def wue_certificate(kernel: JumpKernel, alpha: float, beta: float, r0: float,
                    seed: int = 0) -> WueCertificate:
    """Run the full constant-tracking pipeline on one space and kernel.

    Measures the tail-jump and on-diagonal constants, verifies the two-step
    chaining p_{2t}(x0, y0) <= 2 (C_due / t^(a/b)) (C_tail t / (r ^ R0)^b)
    with r = d(x0, y0)/2 for every admissible pair, derives an off-diagonal
    constant from the tracked route, and compares it against the directly
    measured one (the route is an upper bound, so derived >= measured).

    The chaining bound depends on a pair only through d(x0, y0), which takes
    finitely many values on an ultrametric space: the bound is computed once
    per distance level at or above t^(1/b), and the scan is one array pass
    over the pair classes (`heat_pair_classes`) per time whose witness is the
    first worst pair in row-major order, as a pair-by-pair loop with a
    strict > would pick.

    The four measured constants (C_TJ, DUE, wUE, Nash at rho = R0) are kept
    on the kernel, so a run that has measured them reads them back here.
    """
    cfg = ExponentConfig(alpha, beta, r0)
    space = kernel.space
    checks: list[CheckRecord] = []

    c_tj = tj_constant(kernel, beta, r0)
    due = due_constant(kernel, alpha, beta, r0)
    wue = wue_constant(kernel, alpha, beta, r0)
    nash = nash_constant(kernel, rho=r0, nu=cfg.nu, k0=cfg.k0(r0), seed=seed)
    c_tail = TRUNCATION_FACTOR * c_tj
    if not all(np.isfinite([c_tj, due.constant, wue.constant, nash.constant])):
        raise ConditionFailure("non-finite measured constant")

    classes = heat_pair_classes(kernel, "chaining scan")
    levels, level_of = np.unique(classes.dist, return_inverse=True)
    grid = log_time_grid(r0 ** beta * 1e-4, r0 ** beta, CHAIN_POINTS)
    worst = -np.inf
    witness = None
    any_pair = False
    for t in grid:
        thresh = t ** (1.0 / beta)
        far = classes.dist >= thresh
        if not far.any():
            continue
        any_pair = True
        p2t = classes.values(2 * t)
        level_bound = np.zeros(len(levels))
        for k in np.flatnonzero(levels >= thresh):
            r = levels[k] / 2.0
            level_bound[k] = 2.0 * (due.constant / t ** (alpha / beta)) \
                * (c_tail * t / min(r, r0) ** beta)
        bound = level_bound[level_of]
        gap = np.where(far, p2t - bound * (1 + 1e-12), -np.inf)
        # the first maximising class, whose first pair is the first
        # row-major maximiser, as a strict > over the pairs in order
        c = int(np.argmax(gap))
        if gap[c] > worst:
            worst = gap[c]
            witness = {"t": float(t), "x": space.ids[classes.rows[c]],
                       "y": space.ids[classes.cols[c]], "p2t": float(p2t[c]),
                       "bound": bound[c]}
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
