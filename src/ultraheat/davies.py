"""
Numerical verification of the tilted-semigroup machinery.

Claims verified here, each as an explicit finite-dimensional computation:

  * tilt identity: for a ball B of radius r and truncation rho <= r, the
    tilt by psi = lam * 1_B leaves the truncated energy invariant,
    E_rho(e^{-psi} f, e^{psi} g) = E_rho(f, g);
  * power inequality: E_rho(e^{-psi} f, e^{psi} f^{2p-1}) >= E_rho(f^p)/p
    for f >= 0, p >= 1, together with the scalar inequality
    (a-b)(a^{2p-1}-b^{2p-1}) >= (a^p-b^p)^2 / p behind it;
  * Lp derivative inequality: the tilted evolution f_t satisfies
    d/dt ||f_t||_2p <= -(1/(C_N p)) ||f_t||_2p^{1+2p nu} ||f_t||_p^{-2p nu}
                       + (K0/p) ||f_t||_2p,
    with K0 = rho^-beta + R0^-beta and C_N a Nash constant;
  * iteration: the weighted running sups w_k(t) of ||f_s||_{2^k} obey the
    one-step contraction and the uniform bound C1 e^{2 K0 t};
  * sup bounds: the 2->inf norm of the tilted semigroup and the kernel
    bound with the tracked constant C1^2 2^{1/nu};
  * vanishing: the truncated kernel is exactly zero across the blocks of
    the range partition, at every time;
  * ODE comparison: solutions of u' <= -b t^{p-2} w^{-theta} u^{1+theta} + K u
    stay below (2 p^a / (theta b))^{1/theta} t^{-(p-1)/theta} e^{K p^-a t} w(t).

The Nash constant is family-relative.  The three checks that consume it
(the Lp derivative inequality, the iteration and the sup bounds) go through
one helper, `_with_nash_enlargement`: when a check fails at C_N, the family
is enlarged with the very functions the check evolved, C_N is recomputed
over it, and the check runs once more before failure is declared.
"""

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import ODEintWarning, odeint
from scipy.linalg import expm

from .errors import (
    GridRefinementFailed,
    IntegratorFailure,
    NegativeInput,
    StepTooCoarse,
)
from .form import _as_vector, energy_batch, pair_terms, tilt_sums
from .kernel import ExponentConfig, JumpKernel
from .reporting import (IDENTITY_RTOL, CheckRecord, CheckReport, log_time_grid, positive_times,
                        record, vacuous)
from .semigroup import SpectralGenerator, generator
from .space import Ball

log = logging.getLogger(__name__)

MIN_DERIVATIVE_GRID = 8  # shortest grid for the derivative check's error model
K_MAX_LIMIT = 12  # highest iteration level: 2^k powers of the iterates stay finite
POINTS_PER_DECADE, DECADES = 64, 3  # first iteration grid, over (t 10^-DECADES, t]
REFINE_TOL = 1e-9  # drift of the running sups that ends grid refinement
MAX_REFINEMENTS = 6  # grid doublings before the iteration gives up
REL_MARGIN = 1e-8  # relative margin of the iteration and sup-bound verdicts
ODE_EVAL_POINTS, ODE_RTOL, ODE_ATOL = 128, 1e-10, 1e-14  # ODE comparison integration
ODE_MARGIN = 1e-8  # log-space margin of the ODE comparison verdict
ODE_MAX_STEPS = 100_000  # LSODA step budget of one ODE comparison integration
ODE_SWEEP_T_MAX = 2.0  # time horizon of the random ODE sweep
VANISHING_DENSE_TOL = 1e-13  # dense exponential's largest cross-block entry
BATTERY_LAMBDAS = (-50, -5, 0, 5, 50)  # tilt strengths of the perturbation battery
BATTERY_P = (1, 1.5, 2, 4, 8)  # exponents p of the power battery and its scalar grid


def lp_norms(F, mu, qs) -> np.ndarray:
    """Weighted norms (sum |f|^q mu)^(1/q) of every column f of F, one row per
    q in qs, in log space for large q; zero columns give 0."""
    # rows of the transpose are contiguous, so each reduction sums in the
    # same order as it would for the column on its own
    A = np.ascontiguousarray(np.abs(np.asarray(F, dtype=float)).T)
    with np.errstate(divide="ignore"):
        logA = np.log(A)
    logmu = np.log(mu)
    out = np.empty((len(qs), A.shape[0]))
    for i, q in enumerate(qs):
        if q == np.inf:
            out[i] = A.max(axis=1)
        else:
            out[i] = np.exp(_logsumexp_rows(q * logA + logmu) / q)
    return out


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a C-contiguous real 2-d array, by the
    steps of `scipy.special.logsumexp(a, axis=1)` (Blanchard, Higham &
    Higham 2021): shift by the row max, count the max entries and leave
    them out of the sum, then log1p(s / m) + log(m) + max.  Each step is
    the same numpy operation on the same arrays, so the result is bitwise
    scipy's; only rows whose result is not finite (a max of +-inf or NaN)
    take log(sum(exp(a))) instead."""
    a_max = a.max(axis=1, keepdims=True)
    at_max = a == a_max
    m = np.count_nonzero(at_max, axis=1).astype(float)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(axis=1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max)[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


def lp_norm(values, mu, q: float) -> float:
    """Weighted norm (sum |f|^q mu)^(1/q) of one function."""
    return float(lp_norms(np.asarray(values, dtype=float)[:, None], mu, [q])[0, 0])


def nash_ratio_batch(kernel: JumpKernel, rho, nu: float, k0: float, U) -> np.ndarray:
    """Nash quotients ||u||_2^(2+2nu) / ((E_rho(u) + K0 ||u||_2^2) ||u||_1^(2nu))
    for every column of U; zero columns give 0."""
    U = np.asarray(U, dtype=float)
    mu = kernel.mu
    return nash_quotients(energy_batch(kernel, U, rho), (U * U * mu[:, None]).sum(axis=0),
                          (np.abs(U) * mu[:, None]).sum(axis=0), nu, k0)


def nash_quotients(e, l2sq, l1, nu: float, k0: float) -> np.ndarray:
    """The Nash quotient of each function from its E_rho(u) (`e`),
    ||u||_2^2 and ||u||_1; zero functions give 0."""
    out = np.zeros(l2sq.size)
    ok = l2sq > 0
    denom = (e[ok] + k0 * l2sq[ok]) * l1[ok] ** (2 * nu)
    out[ok] = l2sq[ok] ** (1 + nu) / denom
    return out


def _with_nash_enlargement(run, c_n, failed, family, powers, kernel, rho, nu, k0):
    """(result, c_n_used, enlarged) of the check `run` at the Nash constant c_n.

    Only when `failed(result)` holds is the evolved family built, as the
    columns of `family(result)`.  Its Nash quotient is the max over the
    absolute columns raised to each of `powers`; when that exceeds c_n, the
    check runs once more at it.  Columns are normalised by their max before
    powering: the quotient is scale-invariant and this keeps large powers
    inside double range.  Zero columns give 0.
    """
    result = run(c_n)
    if not failed(result):
        return result, c_n, False
    F = np.abs(family(result))
    G = F / np.maximum(F.max(axis=0), 1e-300)
    ratio = max(float(nash_ratio_batch(kernel, rho, nu, k0, G ** power).max())
                for power in powers)
    if ratio <= c_n:
        return result, c_n, False
    return run(ratio), ratio, True


def tilted_evolution(gen: SpectralGenerator, psi, f):
    """times -> e^{psi} e^{tL} (e^{-psi} f) for the semigroup of `gen`, one
    column per time: the Davies tilt of the heat semigroup."""
    tilt_in = np.exp(-psi) * f
    tilt_out = np.exp(psi)[:, None]
    return lambda times: tilt_out * gen.apply_grid(times, tilt_in)


def _tilt(kernel: JumpKernel, rho: float, ball: Ball, lam: float):
    """(the kept rho-truncated generator, psi = lam 1_B), once rho <= r(B):
    only then does no kept jump cross B, so that the tilt cancels in E_rho."""
    if rho > ball.radius:
        raise ValueError(f"truncation rho={rho} must not exceed ball radius {ball.radius}")
    return generator(kernel, rho=rho), lam * ball.indicator()


def _tilted_start(kernel: JumpKernel, rho: float, ball: Ball, lam: float, f, check: str):
    """The `tilted_evolution` of f / ||f||_2 by `_tilt`, for f a length-n
    vector that is >= 0 and not identically zero; `check` names the caller."""
    f = _as_vector(kernel, f)
    if not np.all(f >= 0):
        raise NegativeInput(f"{check} requires f >= 0")
    if not f.any():
        raise ValueError(f"{check} requires f not identically zero")
    return tilted_evolution(*_tilt(kernel, rho, ball, lam), f / lp_norm(f, kernel.mu, 2))


# -- tilt identity and power inequality -----------------------------------------


def perturbation_identity_check(kernel: JumpKernel, rho: float, ball: Ball,
                                lam: float, f, g) -> CheckRecord:
    """Tilt invariance of the truncated energy for the pair (f, g).

    For rho <= radius(B) both sides agree to relative IDENTITY_RTOL.  For rho >
    radius(B) the identity has no reason to hold; the record then reports
    the relative gap as a negative control (status is informational).
    """
    f, g = _as_vector(kernel, f), _as_vector(kernel, g)
    return _tilt_records(kernel, rho, ball, [lam], f[None], g[None],
                         _ball_pairs(kernel, ball)[0])[0]


def _ball_pairs(kernel: JumpKernel, ball: Ball) -> tuple[np.ndarray, np.ndarray]:
    """The positions in `kernel.kept_pairs()` of the pairs with an endpoint
    in B, and of those with exactly one: sorted, so that the pairs of a
    truncation level are a prefix of each."""
    i, j, _ = kernel.kept_pairs()
    in_i = (i >= ball.start) & (i < ball.stop)
    in_j = (j >= ball.start) & (j < ball.stop)
    return np.flatnonzero(in_i | in_j), np.flatnonzero(in_i != in_j)


def _tilt_records(kernel: JumpKernel, rho: float, ball: Ball, lams: list, F, G,
                  touched: np.ndarray) -> list[CheckRecord]:
    """The record of each row pair (f, g) of F and G tilted by lams[row] 1_B;
    `touched` is the first array of `_ball_pairs`."""
    pairs = kernel.kept_pairs(rho)
    touched = touched[:np.searchsorted(touched, pairs[0].size)]
    lhs, scale_l, rhs, scale_r = tilt_sums(F, G, np.array(lams, dtype=float),
                                           ball.indicator(), pairs, touched)
    gaps = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(rhs), scale_l),
                                          np.maximum(scale_r, 1e-300))
    records = []
    # one member list, shared by the params of every record of the cell
    members, radius = list(ball.members), ball.radius
    for lam, gap in zip(lams, gaps.tolist()):
        params = {"rho": rho, "lam": lam, "ball": members, "radius": radius}
        if rho <= radius:
            records.append(record("davies.tilt_identity", params, gap, IDENTITY_RTOL, 0.0,
                                  gap <= IDENTITY_RTOL))
        else:
            records.append(CheckRecord("davies.tilt_identity_control", params, gap,
                                       None, 0.0, "pass", witness={"relative_gap": gap}))
    return records


def power_inequality_check(kernel: JumpKernel, rho: float, ball: Ball,
                           lam: float, f, p: float) -> CheckRecord:
    """E_rho(e^{-psi} f, e^{psi} f^{2p-1}) >= E_rho(f^p) / p for f >= 0."""
    f = _as_vector(kernel, f)
    if np.any(f < 0):
        raise NegativeInput("power inequality requires f >= 0")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return _power_records(kernel, rho, p, [(ball, lam)], f[None])[0]


def _power_records(kernel: JumpKernel, rho: float, p: float, draws: list,
                   F) -> list[CheckRecord]:
    """The power-inequality record of each row f of F at exponent p and
    truncation rho, with psi = lam 1_B for the (ball, lam) of its row of
    `draws`.  The `pair_terms` rows are C-contiguous, so each sum groups
    its terms as a single function's would."""
    pairs = kernel.kept_pairs(rho)
    psi = np.array([lam * ball.indicator() for ball, lam in draws])
    terms = pair_terms(np.exp(-psi) * F, np.exp(psi) * F ** (2 * p - 1), *pairs)
    lhs, scale = terms.sum(axis=1).tolist(), np.abs(terms).sum(axis=1).tolist()
    Fp = F ** p
    rhs = (pair_terms(Fp, Fp, *pairs).sum(axis=1) / p).tolist()
    records = []
    for (ball, lam), l, s, r in zip(draws, lhs, scale, rhs):
        margin = IDENTITY_RTOL * max(s, abs(r), 1.0)
        records.append(record("davies.power_inequality",
                              {"rho": rho, "lam": lam, "p": p, "ball": list(ball.members)},
                              measured=l, bound=r, margin=margin, ok=l >= r - margin))
    return records


def scalar_power_inequality_check(a_values, b_values, p_values) -> CheckRecord:
    """Grid check of (a-b)(a^{2p-1}-b^{2p-1}) >= (a^p-b^p)^2 / p, a, b >= 0."""
    worst = -np.inf
    witness = None
    for p in p_values:
        for a in a_values:
            for b in b_values:
                lhs = (a - b) * (a ** (2 * p - 1) - b ** (2 * p - 1))
                rhs = (a ** p - b ** p) ** 2 / p
                slack = lhs - rhs
                tol = IDENTITY_RTOL * max(abs(lhs), abs(rhs), 1.0)
                if -slack - tol > worst:
                    worst = -slack - tol
                    witness = {"a": a, "b": b, "p": p, "slack": slack}
    return record(
        "davies.scalar_power_inequality",
        {"grid": [len(a_values), len(b_values), len(p_values)]},
        measured=worst,
        bound=0.0,
        margin=0.0,
        ok=worst <= 0.0,
        witness=witness,
    )


# -- Lp derivative inequality -----------------------------------------------------


def lp_derivative_check(kernel: JumpKernel, cfg: ExponentConfig, rho: float,
                        ball: Ball, lam: float, f, p: float, time_grid,
                        c_n: float) -> CheckReport:
    """Finite-difference check of the Lp-norm decay inequality.

    The derivative of ||f_t||_2p is estimated with central differences at
    step h = 1e-4 t plus Richardson extrapolation from h/2; the documented
    error margin |d_h - d_{h/2}| + roundoff enters the assertion.  Fails
    are retried once with the Nash constant enlarged over the evolved
    family f_t^p (`_with_nash_enlargement`).
    """
    evolve = _tilted_start(kernel, rho, ball, lam, f, "derivative check")
    times = np.asarray(time_grid, dtype=float)
    if times.size < MIN_DERIVATIVE_GRID:
        raise StepTooCoarse(
            f"need at least {MIN_DERIVATIVE_GRID} grid points to validate the "
            f"finite-difference error model, got {times.size}"
        )
    positive_times(times)
    mu = kernel.mu
    k0 = cfg.k0(rho)
    nu = cfg.nu

    def run(c_n_used):
        eps = np.finfo(float).eps
        worst = -np.inf
        witness = None
        F_grid = evolve(times)
        n2ps, nps = lp_norms(F_grid, mu, [2 * p, p]).tolist()
        for j, t in enumerate(times):
            h = 1e-4 * t
            F_h = evolve([t - h, t + h, t - h / 2, t + h / 2])
            n_pts = lp_norms(F_h, mu, [2 * p])[0]
            d_h = (n_pts[1] - n_pts[0]) / (2 * h)
            d_h2 = (n_pts[3] - n_pts[2]) / h
            deriv = (4 * d_h2 - d_h) / 3
            n2p, np_ = n2ps[j], nps[j]
            fd_margin = abs(d_h - d_h2) + 64 * eps * n2p / h
            rhs = -(1.0 / (c_n_used * p)) * n2p ** (1 + 2 * p * nu) * np_ ** (-2 * p * nu) \
                + (k0 / p) * n2p
            slack = rhs + fd_margin + 1e-12 * max(1.0, abs(rhs)) - deriv
            if -slack > worst:
                worst = -slack
                witness = {"t": float(t), "deriv": float(deriv), "rhs": float(rhs),
                           "fd_margin": float(fd_margin)}
        return worst, witness, F_grid

    # the inequality consumes the Nash quotient exactly at u = f_t^p
    (worst, witness, _), c_n_used, enlarged = _with_nash_enlargement(
        run, c_n, lambda r: r[0] > 0, lambda r: r[2], [p], kernel, rho, nu, k0)
    report = CheckReport()
    report.add(record(
        "davies.lp_derivative",
        {"rho": rho, "lam": lam, "p": p, "points": int(times.size),
         "c_n": c_n, "c_n_used": c_n_used, "enlarged": enlarged},
        measured=worst,
        bound=0.0,
        margin=0.0,
        ok=worst <= 0.0,
        witness=witness,
    ))
    return report


# -- iteration ---------------------------------------------------------------------


@dataclass
class IterationTrace:
    """Evolved norms and weighted running sups of one iteration run.

    u[k - 1, j] = ||f_{s_j}||_{2^k} and w[k - 1, j] is the running sup of
    s^{(2^{k-1}-1)/(2^k nu)} u_k(s) over s <= s_j, for k = 1 .. k_max + 1.
    """

    nu: float
    k0: float
    times: np.ndarray
    u: np.ndarray
    w: np.ndarray
    c_nash: float
    a_factor: float
    d_factor: float
    c1: float


def _exp(x: float) -> float:
    """exp that saturates at inf instead of raising (huge rate * time
    products make bounds trivially true, not errors)."""
    with np.errstate(over="ignore"):
        return float(np.exp(x))


def _trace_constants(c_n: float, nu: float, k0: float, t: float):
    a_factor = 2.0 ** (1.0 / (2.0 * nu))
    base = (c_n / nu) ** (1.0 / (2.0 * nu))
    d_factor = base * _exp(k0 * t)
    c1 = max(1.0, base) * a_factor ** 2
    return a_factor, d_factor, c1


def moser_iteration(kernel: JumpKernel, cfg: ExponentConfig, rho: float, ball: Ball,
                    lam: float, f, t: float, k_max: int,
                    c_n: float) -> tuple[IterationTrace, CheckReport]:
    """Weighted-sup iteration of the tilted evolution up to level 2^(k_max+1).

    The running sups are taken over a log grid on (t * 10^-DECADES, t],
    refined until they stabilise within REFINE_TOL (GridRefinementFailed
    otherwise).  Verifies the base bound, the one-step contraction at every
    level, and the uniform bound C1 e^{2 K0 t}.
    """
    if not 1 <= k_max <= K_MAX_LIMIT:
        raise ValueError(f"k_max must lie in [1, {K_MAX_LIMIT}], got {k_max}")
    positive_times([t])
    evolve = _tilted_start(kernel, rho, ball, lam, f, "iteration")
    mu = kernel.mu
    nu, k0 = cfg.nu, cfg.k0(rho)

    ks = np.arange(1, k_max + 2)
    exponents = (2.0 ** (ks - 1) - 1.0) / (2.0 ** ks * nu)

    def sups_on(ppd):
        n_pts = ppd * DECADES + 1
        s = np.exp(np.linspace(math.log(t) - DECADES * math.log(10), math.log(t), n_pts))
        F = evolve(s)
        u = lp_norms(F, mu, 2.0 ** ks)
        weighted = s[None, :] ** exponents[:, None] * u
        # s -> 0 limit of the k = 1 weight is ||f||_2 = 1
        w = np.maximum.accumulate(weighted, axis=1)
        w[0] = np.maximum(w[0], 1.0)
        # parabolic vertex through the grid maximum (uniform log spacing)
        # sharpens the final sup from O(h^2) to O(h^4)
        for i in range(ks.size):
            row = weighted[i]
            j = int(np.argmax(row))
            if 0 < j < n_pts - 1:
                curv = 2 * row[j] - row[j - 1] - row[j + 1]
                if curv > 0:
                    w[i, -1] = max(w[i, -1],
                                   row[j] + (row[j + 1] - row[j - 1]) ** 2 / (8 * curv))
        return s, u, w, F

    ppd = POINTS_PER_DECADE
    s, u, w, F = sups_on(ppd)
    drift = np.inf
    for _ in range(MAX_REFINEMENTS):
        s2, u2, w2, F2 = sups_on(ppd * 2)
        drift = float(np.max(np.abs(w2[:, -1] - w[:, -1]) / np.maximum(w2[:, -1], 1e-300)))
        s, u, w, F = s2, u2, w2, F2
        ppd *= 2
        log.debug("moser refinement: %d points per decade, %d grid points, drift %.3e",
                  ppd, s.size, drift)
        if drift <= REFINE_TOL:
            break
    else:
        raise GridRefinementFailed(
            f"running sups did not stabilise within {REFINE_TOL} after "
            f"{MAX_REFINEMENTS} refinements (last drift {drift:.3e})"
        )
    log.debug("moser final grid: %d points (%d per decade over %d decades), drift %.3e",
              s.size, ppd, DECADES, drift)

    def build_report(c_n_used):
        a_factor, d_factor, c1 = _trace_constants(c_n_used, nu, k0, t)
        rep = CheckReport()
        wf = w[:, -1]
        base_bound = _exp(k0 * t)
        rep.add(record(
            "davies.iteration_base",
            {"rho": rho, "lam": lam, "t": t},
            measured=wf[0],
            bound=base_bound,
            margin=REL_MARGIN * base_bound,
            ok=wf[0] <= base_bound * (1 + REL_MARGIN),
        ))
        for i in range(k_max):
            k = int(ks[i])
            step = (d_factor * a_factor ** k) ** (2.0 ** -k)
            rhs = step * wf[i]
            rep.add(record(
                "davies.iteration_step",
                {"rho": rho, "lam": lam, "t": t, "k": k, "c_n": c_n_used},
                measured=wf[i + 1],
                bound=rhs,
                margin=REL_MARGIN * rhs,
                ok=wf[i + 1] <= rhs * (1 + REL_MARGIN),
            ))
        uniform = c1 * _exp(2 * k0 * t)
        worst_level = int(np.argmax(wf))
        rep.add(record(
            "davies.iteration_uniform",
            {"rho": rho, "lam": lam, "t": t, "k_max": k_max, "c_n": c_n_used, "c1": c1},
            measured=float(wf.max()),
            bound=uniform,
            margin=REL_MARGIN * uniform,
            ok=bool(np.all(wf <= uniform * (1 + REL_MARGIN))),
            witness={"level": worst_level + 1},
        ))
        return rep, a_factor, d_factor, c1

    (rep, a_factor, d_factor, c1), c_n_used, _ = _with_nash_enlargement(
        build_report, c_n, lambda r: not r[0].passed, lambda r: F,
        [2 ** k for k in range(k_max + 1)], kernel, rho, nu, k0)
    trace = IterationTrace(nu=nu, k0=k0, times=s, u=u, w=w, c_nash=c_n_used,
                           a_factor=a_factor, d_factor=d_factor, c1=c1)
    return trace, rep


# -- sup bounds ---------------------------------------------------------------------


def sup_bound_check(kernel: JumpKernel, cfg: ExponentConfig, rho: float, ball: Ball,
                    lam: float, time_grid, c_n: float) -> CheckReport:
    """Tilted 2->inf operator norm and kernel bound with tracked constants.

    The operator norm is exact in finite dimension: the extremiser of
    ||Q_t^psi f||_inf over ||f||_2 = 1 is the best row, so the norm is
    max_x || q_t(x, .) e^{psi(x) - psi(.)} ||_{L2(mu)}.
    """
    gen, psi = _tilt(kernel, rho, ball, lam)
    mu = kernel.mu
    nu, k0 = cfg.nu, cfg.k0(rho)
    ind = ball.indicator()
    tilt = np.exp(psi[:, None] - psi[None, :])
    times = positive_times(time_grid).tolist()

    def run(c_n_used):
        _, _, c1 = _trace_constants(c_n_used, nu, k0, 1.0)
        worst_op, wit_op = -np.inf, None
        worst_kernel, wit_kernel = -np.inf, None
        for t in times:
            dens = gen.density(t)
            rows = dens * tilt
            opnorm = float(np.sqrt((rows * rows * mu[None, :]).sum(axis=1).max()))
            bound_op = c1 * t ** (-1.0 / (2 * nu)) * _exp(2 * k0 * t)
            gap_op = opnorm / bound_op - 1.0
            if gap_op > worst_op:
                worst_op, wit_op = gap_op, {"t": t, "norm": opnorm, "bound": bound_op}
            c20 = c1 ** 2 * 2.0 ** (1.0 / nu)
            with np.errstate(over="ignore"):
                bound20 = c20 * t ** (-1.0 / nu) * np.exp(
                    2 * k0 * t + lam * (ind[None, :] - ind[:, None]))
            gap_k = float((dens / bound20).max()) - 1.0
            if gap_k > worst_kernel:
                worst_kernel, wit_kernel = gap_k, {"t": t}
        return worst_op, wit_op, worst_kernel, wit_kernel

    def evolved_extremiser(result):
        """The extremising row at the worst time, evolved over the three
        decades before it."""
        _, wit_op, _, wit_kernel = result
        t_star = (wit_op or wit_kernel)["t"]
        rows = gen.density(t_star) * tilt
        x_star = int(np.argmax((rows * rows * mu[None, :]).sum(axis=1)))
        s_grid = np.exp(np.linspace(math.log(t_star) - 3 * math.log(10),
                                    math.log(t_star), 97))
        return _tilted_start(kernel, rho, ball, lam, np.abs(rows[x_star]) * np.exp(psi),
                             "sup bound")(s_grid)

    (worst_op, wit_op, worst_kernel, wit_kernel), c_n_used, enlarged = _with_nash_enlargement(
        run, c_n, lambda r: max(r[0], r[2]) > REL_MARGIN, evolved_extremiser,
        [2 ** k for k in range(9)], kernel, rho, nu, k0)

    report = CheckReport()
    params = {"rho": rho, "lam": lam, "times": times, "c_n": c_n,
              "c_n_used": c_n_used, "enlarged": enlarged}
    report.add(record("davies.sup_bound_operator", params, worst_op, 0.0, REL_MARGIN,
                      worst_op <= REL_MARGIN, wit_op))
    report.add(record("davies.sup_bound_kernel", params, worst_kernel, 0.0, REL_MARGIN,
                      worst_kernel <= REL_MARGIN, wit_kernel))
    return report


# -- vanishing ----------------------------------------------------------------------


def vanishing_check(kernel: JumpKernel, time_grid) -> CheckReport:
    """Exact vanishing of the truncated kernel across range-partition blocks.

    For every distance level rho and every t, entries q_t(x, y) with
    d(x, y) > rho must be bitwise zero (they are assembled blockwise), and
    a dense scaling-and-squaring exponential of the same generator must
    agree to VANISHING_DENSE_TOL.
    """
    report = CheckReport()
    space = kernel.space
    D = space.distance_matrix()
    times = positive_times(time_grid).tolist()
    for rho in space.distance_levels:
        cross = D > rho
        params = {"rho": rho, "times": times}
        if not cross.any():
            report.add(vacuous("davies.vanishing", params))
            continue
        gen = generator(kernel, rho=rho)
        worst_exact = 0.0
        for t in times:
            dens = gen.density(t)
            worst_exact = max(worst_exact, float(np.abs(dens[cross]).max()))
        report.add(record("davies.vanishing", params, worst_exact, 0.0, 0.0,
                          worst_exact == 0.0))
        worst_dense = 0.0
        for t in times:
            dd = expm(t * gen.matrix) / space.masses[None, :]
            worst_dense = max(worst_dense, float(np.abs(dd[cross]).max()))
        report.add(record("davies.vanishing_dense", params, worst_dense,
                          VANISHING_DENSE_TOL, 0.0, worst_dense <= VANISHING_DENSE_TOL))
    return report


# -- ODE comparison -------------------------------------------------------------------


@dataclass
class OdeComparisonParams:
    """Data of the comparison inequality: decay strength b, grading p,
    nonlinearity theta, linear rate K, slack exponent a, weight w, start u0."""

    b: float
    p: float
    theta: float
    k: float
    a: float
    w: object = None  # callable t -> positive non-decreasing weight; None = 1
    u0: float = 1.0

    def __post_init__(self):
        if self.b <= 0 or self.theta <= 0 or self.k <= 0:
            raise ValueError("b, theta, K must be > 0")
        if self.p <= 1:
            raise ValueError(f"p must be > 1, got {self.p}")
        if self.a < 1:
            raise ValueError(f"a must be >= 1, got {self.a}")
        if self.u0 <= 0:
            raise ValueError(f"u0 must be > 0, got {self.u0}")

    def weight(self, t: float) -> float:
        return 1.0 if self.w is None else float(self.w(t))


def solve_comparison_ode(params: OdeComparisonParams,
                         t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """(t_eval, u) of the extremal decay ODE
    u' = -b t^{p-2} w(t)^{-theta} u^{1+theta} + K u, integrated by LSODA
    (`odeint`) and reported at ODE_EVAL_POINTS log-spaced times over
    [t_max 10^-6, t_max]."""
    b, p, theta, K, w = params.b, params.p, params.theta, params.k, params.w
    positive_times([t_max])
    probe = [params.weight(t_max * s) for s in (1e-6, 0.25, 0.5, 1.0)]
    if not all(np.isfinite(v) and v > 0 for v in probe):
        raise IntegratorFailure(f"weight must be finite and positive, got {probe}")

    # u |u|^theta == u^{1+theta} on u > 0; the odd extension keeps trial
    # steps that overshoot below zero finite and self-correcting.  Without
    # a weight the factor w^{-theta} is 1.0 ** -theta == 1.0 exactly, so
    # leaving it out changes no bit
    if w is None:
        def rhs(t, u):
            u = float(u[0])
            return -b * t ** (p - 2) * u * abs(u) ** theta + K * u
    else:
        def rhs(t, u):
            u = float(u[0])
            return -b * t ** (p - 2) * float(w(t)) ** -theta * u * abs(u) ** theta + K * u

    # the grading term is singular at 0 for p < 2; starting slightly later
    # only removes decay, which is the conservative direction for the bound
    t_start = 0.0 if p >= 2 else t_max * 1e-9
    t_eval = log_time_grid(t_max * 1e-6, t_max, ODE_EVAL_POINTS)
    # odeint warns on failure even with full_output; the message is raised below
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ODEintWarning)
        y, info = odeint(rhs, [params.u0], np.concatenate(([t_start], t_eval)),
                         rtol=ODE_RTOL, atol=ODE_ATOL, mxstep=ODE_MAX_STEPS,
                         full_output=True, tfirst=True)
    if info["message"] != "Integration successful.":
        raise IntegratorFailure(f"integration failed: {info['message']}")
    u = y[1:, 0]
    for failed, test in ((~np.isfinite(u), "non-finite"),
                         (u < -100.0 * ODE_ATOL, f"below -100 ODE_ATOL = {-100.0 * ODE_ATOL}")):
        if failed.any():
            j = int(np.argmax(failed))
            raise IntegratorFailure(
                f"integration output {test} first at t = {float(t_eval[j])!r} "
                f"(u = {float(u[j])!r})")
    return t_eval, u


def ode_comparison_check(params: OdeComparisonParams, t_max: float) -> CheckRecord:
    """Integrate the extremal decay ODE and compare with the closed bound.

    u' = -b t^{p-2} w(t)^{-theta} u^{1+theta} + K u is integrated with
    LSODA (`solve_comparison_ode`); the solution must stay below
    (2 p^a/(theta b))^{1/theta} t^{-(p-1)/theta} e^{K p^-a t} w(t), compared
    in log space with the integrator margin ODE_MARGIN.
    """
    b, p, theta, K, a = params.b, params.p, params.theta, params.k, params.a
    t, u = solve_comparison_ode(params, t_max)
    noise_floor = 10.0 * ODE_ATOL

    log_const = (math.log(2) + a * math.log(p) - math.log(theta) - math.log(b)) / theta
    # solutions that decay below the integrator's resolution are clamped to
    # its noise floor; the bound never comes near that floor on sane inputs
    u = np.maximum(u, noise_floor)
    log_bound = log_const - ((p - 1) / theta) * np.log(t) \
        + K * p ** (-a) * t + np.log([params.weight(s) for s in t])
    excess = np.log(u) - log_bound
    worst = float(excess.max())
    j = int(np.argmax(excess))
    return record(
        "davies.ode_comparison",
        {"b": b, "p": p, "theta": theta, "K": K, "a": a, "u0": params.u0,
         "t_max": t_max},
        measured=worst,
        bound=0.0,
        margin=ODE_MARGIN,
        ok=worst <= ODE_MARGIN,
        witness={"t": float(t[j]), "u": float(u[j])},
    )


# -- batteries ----------------------------------------------------------------------


def perturbation_battery(kernel: JumpKernel, n_pairs: int = 5, seed: int = 0) -> CheckReport:
    """Exhaustive tilt-identity sweep plus negative controls.

    Identity cases run over every ball, every truncation level within the
    ball radius, every lambda of BATTERY_LAMBDAS, and `n_pairs` seeded
    function pairs.  Controls take the truncation beyond the ball radius
    (where cross pairs carry weight); their gap is generically nonzero, and
    the aggregate record requires at least 90% of them to show one.  Each
    (ball, rho) cell is one normal draw for all its lambdas and one
    `tilt_sums`; a control cell is skipped when no kept pair crosses the
    ball's boundary.
    """
    space = kernel.space
    n = len(space)
    rng = np.random.default_rng(seed)
    levels = space.distance_levels
    report = CheckReport()
    balls = [(ball, *_ball_pairs(kernel, ball)) for ball in space.balls() if ball.radius > 0]

    def cell(ball, rho, lams, m, touched):
        # one draw per (ball, rho) cell: the same stream as one (m, 2, n)
        # draw per lambda
        X = rng.normal(size=(len(lams) * m, 2, n))
        return _tilt_records(kernel, rho, ball, [lam for lam in lams for _ in range(m)],
                             X[:, 0], X[:, 1], touched)

    for ball, touched, _ in balls:
        for rho in levels:
            if rho <= ball.radius:
                report.records += cell(ball, rho, BATTERY_LAMBDAS, n_pairs, touched)

    controls = 0
    nonzero = 0
    tilts = [lam for lam in BATTERY_LAMBDAS if lam != 0]
    for ball, touched, crossing in balls:
        if ball.radius >= space.diam:
            continue
        for rho in levels:
            # skipped when no kept jump leaves the ball
            if rho <= ball.radius or not crossing.size \
                    or crossing[0] >= kernel.kept_pairs(rho)[0].size:
                continue
            for rec in cell(ball, rho, tilts, max(1, n_pairs // 4), touched):
                report.add(rec)
                controls += 1
                if rec.measured is not None and rec.measured > IDENTITY_RTOL:
                    nonzero += 1
    if controls:
        rate = nonzero / controls
        report.add(record("davies.tilt_control_rate",
                          {"controls": controls, "nonzero": nonzero},
                          rate, 0.9, 0.0, rate >= 0.9))
    return report


def power_battery(kernel: JumpKernel, n_functions: int = 25, seed: int = 0) -> CheckReport:
    """Seeded sweep of the power inequality over BATTERY_P, with the p = 1
    equality case and the scalar inequality grid.  The balls drawn are those
    with a distance level rho <= their radius; a space with none, such as a
    single point, has a sweep of one vacuous record."""
    space = kernel.space
    n = len(space)
    rng = np.random.default_rng(seed)
    levels = space.distance_levels
    balls = [b for b in space.balls() if levels and b.radius >= levels[0]]
    report = CheckReport()
    if not balls:
        report.add(vacuous("davies.power_inequality", {"balls": 0}))
    for p in BATTERY_P if balls else ():
        draws, rhos, F = [], [], np.empty((n_functions, n))
        for row in F:
            ball = balls[rng.integers(0, len(balls))]
            ok_levels = [r for r in levels if r <= ball.radius]
            rhos.append(ok_levels[rng.integers(0, len(ok_levels))])
            draws.append((ball, float(rng.uniform(-5, 5))))
            row[:] = rng.uniform(0.0, 2.0, size=n)
        # one pass per distinct rho, over that rho's kept pairs
        recs = {}
        for rho in dict.fromkeys(rhos):
            rows = [k for k, r in enumerate(rhos) if r == rho]
            recs.update(zip(rows, _power_records(kernel, rho, p, [draws[k] for k in rows],
                                                 F[rows])))
        for k, rho in enumerate(rhos):
            rec = report.add(recs[k])
            if p == 1:
                gap = abs(rec.measured - rec.bound)
                report.add(record(
                    "davies.power_equality_p1",
                    {"rho": rho, "lam": draws[k][1]},
                    gap, rec.margin, 0.0, gap <= rec.margin))
    report.add(scalar_power_inequality_check(
        a_values=np.linspace(0.0, 2.0, 9),
        b_values=np.linspace(0.0, 2.0, 9),
        p_values=BATTERY_P,
    ))
    return report


def ode_sweep_params(n_samples: int, seed: int) -> list:
    """Seeded random comparison data over (b, p, theta, K, a) in
    [0.1,10] x (1,4] x (0,3] x (0,5] x [1,3], alternating constant and
    affine weights."""
    rng = np.random.default_rng(seed)
    weights = [None, lambda t: 1.0 + t]
    return [OdeComparisonParams(
        b=float(rng.uniform(0.1, 10.0)),
        p=max(float(rng.uniform(1.0, 4.0)), 1.0 + 1e-9),
        theta=max(float(rng.uniform(0.0, 3.0)), 1e-6),
        k=max(float(rng.uniform(0.0, 5.0)), 1e-6),
        a=float(rng.uniform(1.0, 3.0)),
        w=weights[i % 2],
        u0=float(np.exp(rng.uniform(math.log(0.1), math.log(10.0)))),
    ) for i in range(n_samples)]


def ode_sweep(n_samples: int = 25, seed: int = 0) -> CheckReport:
    """The comparison inequality on every sample of `ode_sweep_params`."""
    report = CheckReport()
    for params in ode_sweep_params(n_samples, seed):
        report.add(ode_comparison_check(params, t_max=ODE_SWEEP_T_MAX))
    return report
