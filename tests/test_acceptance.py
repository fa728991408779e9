"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one PASS line on success (run with `pytest -s` to see
them); a failing criterion fails its test.  Scenario families are seeded
and deterministic.
"""

import math
import time

import numpy as np
import pytest

from ultraheat import (
    HierarchicalHeatKernel,
    build_tree,
    due_constant,
    generator,
    isotropic_kernel,
    moser_iteration,
    nash_constant,
    power_profile,
    semigroup_selfcheck,
    sup_bound_check,
    tail_probability_check,
    tj_constant,
    truncation_comparison_check,
    vanishing_check,
    wue_certificate,
    wue_constant,
)
from ultraheat.davies import (
    lp_derivative_check,
    ode_sweep,
    perturbation_battery,
    power_battery,
)
from ultraheat.kernel import ExponentConfig
from ultraheat.cli import generate_space

from conftest import (
    S2_SPEC,
    S4_SPEC,
    exit_probability_slope,
    profile_nodes,
    random_scenario,
    tilt_scenario,
)


def canonical_scenarios():
    """S2, S4, the 8-point dyadic space, and seeded random scenarios."""
    out = []
    s2 = build_tree(S2_SPEC)
    out.append(("s2", isotropic_kernel(s2, lambda r: 1.0)))
    s4 = build_tree(S4_SPEC)
    out.append(("s4", isotropic_kernel(s4, power_profile(3.0), scaling="none")))
    d8, _ = generate_space("dyadic", depth=3, q=2.0)
    out.append(("dyadic8", isotropic_kernel(d8, power_profile(3.0), scaling="mass")))
    for seed in range(5):
        _, kernel = random_scenario(seed, max_points=32)
        out.append((f"random{seed}", kernel))
    return out


def test_vanishing_criterion():
    # 50 seeded random spaces (n <= 64), all level truncations, log grid
    # t in [1e-3, 1e3]: cross-block entries bitwise 0; dense exponential
    # cross-check <= 1e-13; under 60 s
    start = time.monotonic()
    grid = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 7))
    for seed in range(50):
        _, kernel = random_scenario(seed, max_points=64)
        report = vanishing_check(kernel, grid)
        assert report.passed, (seed, report.failures())
        for rec in report.records:
            if rec.name == "davies.vanishing" and rec.status == "pass":
                assert rec.measured == 0.0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"PASS: vanishing across truncation blocks is exact on 50 spaces "
          f"({elapsed:.1f}s)")


def test_perturbation_identity_criterion():
    # exhaustive over balls, in-range truncations, lam in {-50,-5,0,5,50},
    # 20 random pairs per case, n <= 32: relative gap <= 1e-12; controls
    # beyond the radius show a nonzero gap in >= 90% of cases
    spaces = [isotropic_kernel(build_tree(S4_SPEC), power_profile(3.0), scaling="none")]
    for seed in range(4):
        _, kernel = random_scenario(seed, max_points=32)
        spaces.append(kernel)
    control_rates = []
    for kernel in spaces:
        report = perturbation_battery(kernel, n_pairs=20, seed=1)
        assert report.passed, report.failures()[:1]
        for rec in report.records:
            if rec.name == "davies.tilt_identity":
                assert rec.measured <= 1e-12
            if rec.name == "davies.tilt_control_rate":
                control_rates.append(rec.measured)
    assert control_rates and min(control_rates) >= 0.9
    print(f"PASS: tilt identity exact in range; control gap rate "
          f">= {min(control_rates):.2f}")


def test_power_inequality_criterion():
    # p in {1, 1.5, 2, 4, 8}, 100 random nonnegative functions per space,
    # equality at p = 1 within 1e-12, and the scalar inequality grid
    for name, kernel in canonical_scenarios()[1:5]:
        report = power_battery(kernel, n_functions=100, seed=2)
        assert report.passed, (name, report.failures()[:1])
    print("PASS: power inequality and scalar bound, 100 functions per space")


def test_lp_derivative_criterion():
    # S2, S4, dyadic8; p in {1, 2, 4}, lam in {0, 2}; 256 log-spaced times,
    # within the documented finite-difference margin
    grid = np.exp(np.linspace(math.log(1e-3), math.log(1.0), 256))
    rng = np.random.default_rng(0)
    for name, kernel in canonical_scenarios()[:3]:
        space = kernel.space
        balls = [b for b in space.balls() if 0 < b.radius < space.diam] \
            or [space.whole()]
        ball = balls[0]
        levels = [r for r in space.distance_levels if r <= ball.radius]
        rho = levels[-1] if levels else ball.radius
        cfg = ExponentConfig(1.0, 1.0, space.diam)
        c_n = nash_constant(kernel, rho=rho, nu=cfg.nu, k0=cfg.k0(rho)).constant
        f = rng.uniform(0.1, 1.0, len(space))
        for p in (1, 2, 4):
            for lam in (0.0, 2.0):
                report = lp_derivative_check(kernel, cfg, rho, ball, lam, f, p,
                                             grid, c_n)
                assert report.passed, (name, p, lam, report.failures())
    print("PASS: Lp-norm derivative inequality on 256-point grids")


def _iteration_scenarios():
    for seed in range(10):
        yield (seed,) + tilt_scenario(seed, max_points=24)


def test_moser_iteration_criterion():
    # base bound, one-step contraction, uniform bound with
    # C1 = max{1, (C_N / nu)^(1/(2 nu))} 2^(1/nu), k <= 8, 10 scenarios,
    # under 120 s
    start = time.monotonic()
    for seed, kernel, cfg, ball, rho, lam, f in _iteration_scenarios():
        c_n = nash_constant(kernel, rho=rho, nu=cfg.nu, k0=cfg.k0(rho),
                            seed=seed).constant
        trace, report = moser_iteration(kernel, cfg, rho, ball, lam, f,
                                        t=1.0, k_max=8, c_n=c_n)
        assert report.passed, (seed, report.failures())
        expected_c1 = max(1.0, (trace.c_nash / cfg.nu) ** (1 / (2 * cfg.nu))) \
            * 2.0 ** (1.0 / cfg.nu)
        assert trace.c1 == pytest.approx(expected_c1, rel=1e-12)
        assert np.all(np.diff(trace.w, axis=1) >= -1e-15)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"PASS: weighted-sup iteration bounds on 10 scenarios ({elapsed:.1f}s)")


def test_sup_bounds_criterion():
    # tilted operator norm and kernel bound with the tracked constants on
    # the same scenario family
    times = [0.01, 0.1, 1.0, 10.0]
    for seed, kernel, cfg, ball, rho, lam, _ in _iteration_scenarios():
        c_n = nash_constant(kernel, rho=rho, nu=cfg.nu, k0=cfg.k0(rho),
                            seed=seed).constant
        report = sup_bound_check(kernel, cfg, rho, ball, lam, times, c_n)
        assert report.passed, (seed, report.failures())
    print("PASS: tilted 2->inf and kernel sup bounds on 10 scenarios")


def test_ode_comparison_criterion():
    # 200-point random sweep over (b, p, theta, K, a) in
    # [0.1,10] x (1,4] x (0,3] x (0,5] x [1,3], weights {1, 1+t},
    # no violation beyond 1e-8
    report = ode_sweep(n_samples=200, seed=11)
    assert report.passed, report.failures()[:1]
    worst = max(r.measured for r in report.records)
    print(f"PASS: ODE comparison sweep, worst log-excess {worst:.2e}")


def test_truncation_and_exit_bound_criterion():
    # comparison bound with factor 4 and exit bound with C_tail = 4 C_tj on
    # all scenarios; exact first-order slope on S4 (0.5 against bound 5t);
    # radius monotonicity exhaustive on nested balls
    rng = np.random.default_rng(3)
    for name, kernel in canonical_scenarios():
        space = kernel.space
        grid = [0.01, 0.1, 1.0]
        for rho in space.distance_levels:
            f = rng.uniform(0, 1, len(space))
            assert truncation_comparison_check(kernel, rho, None, f, grid).passed, \
                (name, rho)
        c_tj = tj_constant(kernel, 1.0, space.diam)
        report = tail_probability_check(kernel, 1.0, c_tj, space.diam, grid)
        assert report.passed, (name, report.failures())

    s4 = build_tree(S4_SPEC)
    k4 = isotropic_kernel(s4, power_profile(3.0), scaling="none")
    slope = exit_probability_slope(k4, s4.ball("a", 1), "a")
    assert slope == pytest.approx(0.5, abs=1e-6)
    bound_rate = 4.0 * tj_constant(k4, 1.0, 2.0)
    assert bound_rate == pytest.approx(5.0, rel=1e-13)
    assert bound_rate / slope <= 10.0 + 1e-9
    print(f"PASS: truncation comparison and exit bounds; S4 slope "
          f"{slope:.6f} vs rate {bound_rate}")


def test_upper_estimate_pipeline_criterion():
    # derived off-diagonal constant dominates the measured one on every
    # scenario; the two-point closed forms reproduce to 1e-9
    for name, kernel in canonical_scenarios():
        cert = wue_certificate(kernel, 1.0, 1.0, kernel.space.diam)
        assert cert.status == "pass", (name, [c.name for c in cert.checks])
        assert cert.constants["C_wUE_derived"] >= cert.constants["C_wUE_measured"]

    k2 = isotropic_kernel(build_tree(S2_SPEC), lambda r: 1.0)
    due = due_constant(k2, 1.0, 1.0, 1.0).constant
    wue = wue_constant(k2, 1.0, 1.0, 1.0).constant
    assert due == pytest.approx((1 + math.exp(-4)) / 2, abs=1e-9)
    assert wue == pytest.approx(1 - math.exp(-4), abs=1e-9)
    print(f"PASS: pipeline constants tracked; two-point values "
          f"{due:.9f} / {wue:.9f}")


def test_semigroup_selfchecks_criterion():
    # symmetry, positivity, conservation <= 1e-12; two-step composition
    # <= 1e-10; duality <= 1e-12; full and truncated, every scenario
    grid = [0.01, 0.1, 1.0, 10.0]
    for name, kernel in canonical_scenarios():
        assert semigroup_selfcheck(generator(kernel), grid).passed, name
        for rho in kernel.space.distance_levels:
            report = semigroup_selfcheck(generator(kernel, rho=rho), grid)
            assert report.passed, (name, rho, report.failures())
    print("PASS: semigroup self-checks at stated tolerances on all scenarios")


def test_fast_isotropic_criterion():
    # dense-oracle agreement <= 1e-10 up to n = 243; the n = 4096 diagonal
    # runs in under a second without any n x n matrix, against a dense
    # eigendecomposition estimated >= 100x slower (cubic model calibrated
    # at n = 512; fast time floored at 1 ms)
    for kind, kwargs in (("dyadic", {"depth": 6}), ("bary", {"branching": 3, "depth": 5})):
        space, _ = generate_space(kind, mass_law="uniform", seed=9, **kwargs)
        kernel = isotropic_kernel(space, power_profile(2.5), scaling="mass")
        fast = HierarchicalHeatKernel.from_kernel(kernel)
        gen = generator(kernel)
        rng = np.random.default_rng(1)
        for t in (0.05, 1.0):
            dens = gen.density(t)
            values = fast.node_values(t)
            assert np.abs(values[space.tree.leaf] - np.diagonal(dens)).max() <= 1e-10
            for _ in range(60):
                i, j = rng.integers(0, len(space), 2)
                got = values[space.lca(i, j)]
                assert abs(got - dens[i, j]) <= 1e-10 * max(1.0, abs(dens[i, j]))

    big, _ = generate_space("dyadic", depth=12, q=2.0)
    assert len(big) == 4096
    start = time.monotonic()
    fast = HierarchicalHeatKernel(big, profile_nodes(big, power_profile(3.0)))
    diag = fast.node_values(1.0)[big.tree.leaf]
    fast_time = time.monotonic() - start
    assert fast_time < 1.0
    # independent identity at full size: mass-weighted diagonal equals the
    # spectral trace at t = 1, each node's eigenvalue once per child beyond
    # the first
    mult = np.maximum(big.tree.children - 1, 0)
    trace = 1.0 + float((mult * np.exp(-fast.eigenvalue)).sum())
    trace_diag = float((diag * big.masses).sum())
    assert trace_diag == pytest.approx(trace, rel=1e-10)

    m = 512
    a = np.random.default_rng(0).normal(size=(m, m))
    a = a + a.T
    t0 = time.monotonic()
    np.linalg.eigh(a)
    dense_512 = time.monotonic() - t0
    dense_est = dense_512 * (4096 / m) ** 3
    floored_fast = max(fast_time, 1e-3)
    ratio = dense_est / floored_fast
    assert ratio >= 100.0
    print(f"PASS: fast isotropic path; n=4096 diagonal in {fast_time * 1e3:.1f} ms, "
          f"dense eigendecomposition estimated at {dense_est:.2f} s from {dense_512 * 1e3:.1f} ms "
          f"at n={m} (cubic model), estimated speedup {ratio:.0f}x")
