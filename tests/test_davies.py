"""Tilt identity, power inequality, derivative inequality, iteration,
sup bounds, vanishing, and the ODE comparison."""

import logging
import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp

from ultraheat import (
    build_tree,
    davies,
    form,
    isotropic_kernel,
    moser_iteration,
    ode_comparison_check,
    perturbation_identity_check,
    power_inequality_check,
    power_profile,
    sup_bound_check,
    vanishing_check,
)
from ultraheat.davies import (
    OdeComparisonParams,
    lp_derivative_check,
    lp_norm,
    lp_norms,
    nash_ratio_batch,
    ode_sweep,
    perturbation_battery,
    power_battery,
    scalar_power_inequality_check,
)
from ultraheat.form import energy_and_scale
from ultraheat.errors import (
    DimensionMismatch,
    GridRefinementFailed,
    IntegratorFailure,
    NegativeInput,
    StepTooCoarse,
)
from ultraheat.kernel import ExponentConfig, JumpKernel
from ultraheat.space import Ball
from ultraheat.bounds import nash_constant

from conftest import ball_trees, random_scenario, tilt_scenario


class TestTiltIdentity:
    def test_within_range_exact(self, s4, k4):
        rng = np.random.default_rng(0)
        ball = s4.ball("a", 1)
        rec = perturbation_identity_check(k4, 1.0, ball, 3.0,
                                          rng.normal(size=4), rng.normal(size=4))
        assert rec.status == "pass" and rec.measured <= 1e-12

    def test_zero_tilt_any_range(self, s4, k4):
        rng = np.random.default_rng(1)
        ball = s4.ball("a", 1)
        for rho in (1.0, 2.0):
            rec = perturbation_identity_check(k4, rho, ball, 0.0,
                                              rng.normal(size=4), rng.normal(size=4))
            assert rec.measured <= 1e-12

    def test_control_cross_support_nonzero(self, s4, k4):
        # rho beyond the ball radius: cross terms pick up the tilt
        ball = s4.ball("a", 1)
        f = np.array([1.0, 0, 0, 0])
        g = np.array([0.0, 0, 1, 0])
        rec = perturbation_identity_check(k4, 2.0, ball, 1.0, f, g)
        assert rec.name.endswith("control")
        assert rec.measured > 1e-3

    def test_control_shared_support_cancels(self, s4, k4):
        # f = g supported at one point: every retained pair multiplies
        # e^{-psi(x)} against e^{+psi(x)}, so the gap is exactly zero even
        # beyond the ball radius
        ball = s4.ball("a", 1)
        f = np.array([1.0, 0, 0, 0])
        rec = perturbation_identity_check(k4, 2.0, ball, 1.0, f, f)
        assert rec.measured == 0.0

    @pytest.mark.parametrize("shapes", [((3,), (4,)), ((4,), (3,)), ((1, 4), (1, 4))])
    def test_rejects_a_pair_of_other_shape(self, s4, k4, shapes):
        f, g = (np.ones(shape) for shape in shapes)
        with pytest.raises(DimensionMismatch):
            perturbation_identity_check(k4, 1.0, s4.ball("a", 1), 1.0, f, g)

    def test_exhaustive_over_balls_and_ranges(self):
        for seed in (0, 1, 2):
            space, kernel = random_scenario(seed, max_points=32)
            rng = np.random.default_rng(seed)
            for ball in space.balls():
                if ball.radius <= 0:
                    continue
                for rho in space.distance_levels:
                    if rho > ball.radius:
                        continue
                    for lam in (-50.0, -5.0, 0.0, 5.0, 50.0):
                        f = rng.normal(size=len(space))
                        g = rng.normal(size=len(space))
                        rec = perturbation_identity_check(kernel, rho, ball, lam, f, g)
                        assert rec.status == "pass", (seed, rho, lam, rec.measured)

    def test_battery_and_control_rate(self):
        _, kernel = random_scenario(3, max_points=24)
        report = perturbation_battery(kernel, n_pairs=6, seed=3)
        assert report.passed
        rates = [r for r in report.records if r.name == "davies.tilt_control_rate"]
        assert rates and rates[0].measured >= 0.9


def per_pair_battery(kernel, n_pairs, seed):
    """(name, rho, lam, ball start, gap) of every tilt record of the
    perturbation battery, computed one drawn pair (f, g) and two
    `energy_and_scale` calls at a time."""
    space = kernel.space
    rng = np.random.default_rng(seed)
    D = space.distance_matrix()
    out = []

    def gap(rho, ball, lam):
        f = rng.normal(size=len(space))
        g = rng.normal(size=len(space))
        psi = lam * ball.indicator()
        lhs, scale_l = energy_and_scale(kernel, np.exp(-psi) * f, np.exp(psi) * g, rho)
        rhs, scale_r = energy_and_scale(kernel, f, g, rho)
        return abs(lhs - rhs) / max(abs(rhs), scale_l, scale_r, 1e-300)

    for ball in space.balls():
        for rho in space.distance_levels:
            if 0 < ball.radius and rho <= ball.radius:
                for lam in davies.BATTERY_LAMBDAS:
                    out += [("davies.tilt_identity", rho, lam, ball.start, gap(rho, ball, lam))
                            for _ in range(n_pairs)]
    for ball in space.balls():
        ind = ball.indicator() > 0
        for rho in space.distance_levels:
            if not 0 < ball.radius < rho or ball.radius >= space.diam \
                    or kernel.w[np.outer(ind, ~ind) & (D <= rho)].sum() == 0:
                continue
            for lam in davies.BATTERY_LAMBDAS:
                if lam != 0:
                    out += [("davies.tilt_identity_control", rho, lam, ball.start,
                             gap(rho, ball, lam)) for _ in range(max(1, n_pairs // 4))]
    return out


# a ball of radius 2 beside a point: one control cell, at rho = 4
NESTED = build_tree({"radius": 4.0, "children": [
    {"radius": 2.0, "children": [{"id": "a", "mass": 1.0}, {"id": "b", "mass": 2.0}]},
    {"id": "c", "mass": 0.5}]})
# the whole space is the only ball: identity cells only, no control
ONE_BALL = build_tree({"radius": 2.0, "children": [
    {"id": "a", "mass": 1.0}, {"id": "b", "mass": 3.0}, {"id": "c", "mass": 0.5}]})


@settings(max_examples=25, deadline=None)
@given(ball_trees(max_points=24, max_levels=4), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
@example(case=(NESTED, 3.0, 1.0), n_pairs=1, seed=3)  # one row per control lambda
@example(case=(ONE_BALL, 2.0, 0.5), n_pairs=4, seed=5)
@example(case=(NESTED, 1.5, 2.0), n_pairs=6, seed=0)  # lambda 0 rows between tilted ones
def test_battery_equals_the_per_pair_loop(case, n_pairs, seed):
    # one normal draw and one set of pair terms per cell give the very
    # records of a draw and two energies per pair, bit for bit
    space, exponent, scale = case
    kernel = isotropic_kernel(space, power_profile(exponent, scale), scaling="mass")
    records = perturbation_battery(kernel, n_pairs=n_pairs, seed=seed).records
    tilts = [r for r in records if r.name != "davies.tilt_control_rate"]
    starts = {b.members: b.start for b in space.balls()}
    got = [(r.name, r.params["rho"], r.params["lam"], starts[tuple(r.params["ball"])],
            r.measured) for r in tilts]
    assert got == per_pair_battery(kernel, n_pairs, seed)


def test_battery_skips_the_controls_whose_ball_keeps_no_jump_out():
    # a raw kernel with no weight between a ball and the rest of its parent
    # ball: at the parent's radius no kept jump leaves the ball, so that
    # control cell is skipped; one pair per cell makes the record count the
    # cell count
    space, kernel = random_scenario(5, max_points=24)
    ball = next(b for b in space.balls() if 0 < b.radius < space.diam)
    parent = Ball(space, int(space.tree.parent[ball.node]))
    w = kernel.w.copy()
    inside, rest = ball.indicator() > 0, parent.indicator() > ball.indicator()
    w[np.outer(inside, rest) | np.outer(rest, inside)] = 0.0
    kernel = JumpKernel(space, w)
    report = perturbation_battery(kernel, n_pairs=4, seed=2)
    controls = next(r for r in report.records
                    if r.name == "davies.tilt_control_rate").params["controls"]
    D = space.distance_matrix()
    cells = kept = 0
    for b in space.balls():
        ind = b.indicator() > 0
        for rho in space.distance_levels:
            if 0 < b.radius < rho and b.radius < space.diam:
                cells += 1
                kept += kernel.w[np.outer(ind, ~ind) & (D <= rho)].sum() != 0
    lams = sum(lam != 0 for lam in davies.BATTERY_LAMBDAS)
    assert controls == kept * lams < cells * lams
    starts = {b.members: b.start for b in space.balls()}
    records = [(r.name, r.params["rho"], r.params["lam"], starts[tuple(r.params["ball"])],
                r.measured) for r in report.records if r.name != "davies.tilt_control_rate"]
    assert records == per_pair_battery(kernel, 4, 2)


@settings(max_examples=25, deadline=None)
@given(ball_trees(max_points=24, max_levels=4), st.lists(st.sampled_from([-3.0, 0.0, 0.5, 2.0]),
                                                        min_size=1, max_size=9),
       st.sampled_from([1, 5, 64, 1 << 15]), st.data())
def test_tilt_sums_equal_the_per_row_energies(case, lams, block, data):
    # rows with lambda 0 among tilted ones, in blocks that split the rows
    # anywhere: each row's sums are those of two `energy_and_scale` calls,
    # bit for bit, the tilted one over every pair
    space, exponent, scale = case
    kernel = isotropic_kernel(space, power_profile(exponent, scale), scaling="mass")
    ball = data.draw(st.sampled_from(space.balls()))
    rho = data.draw(st.sampled_from(space.distance_levels))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    F, G = rng.normal(size=(2, len(lams), len(space)))
    pairs = kernel.kept_pairs(rho)
    touched = davies._ball_pairs(kernel, ball)[0]
    touched = touched[:np.searchsorted(touched, pairs[0].size)]
    with mock.patch.object(form, "PAIR_BLOCK", block):
        got = form.tilt_sums(F, G, np.array(lams), ball.indicator(), pairs, touched)
    for k, lam in enumerate(lams):
        psi = lam * ball.indicator()
        want = (*energy_and_scale(kernel, np.exp(-psi) * F[k], np.exp(psi) * G[k], rho),
                *energy_and_scale(kernel, F[k], G[k], rho))
        assert got[:, k].tolist() == list(want)


class TestPowerInequality:
    def test_equality_at_p_one(self, s4, k4):
        rng = np.random.default_rng(2)
        f = rng.uniform(0, 2, 4)
        rec = power_inequality_check(k4, 1.0, s4.ball("a", 1), 2.0, f, 1.0)
        assert rec.status == "pass"
        assert abs(rec.measured - rec.bound) <= rec.margin

    def test_random_nonnegative(self, s4, k4):
        rng = np.random.default_rng(3)
        ball = s4.ball("a", 1)
        for p in (1, 1.5, 2, 4, 8):
            for _ in range(25):
                f = rng.uniform(0, 2, 4)
                rec = power_inequality_check(k4, 1.0, ball, float(rng.uniform(-5, 5)),
                                             f, p)
                assert rec.status == "pass", (p, rec.measured, rec.bound)

    def test_negative_input_rejected(self, s4, k4):
        with pytest.raises(NegativeInput):
            power_inequality_check(k4, 1.0, s4.ball("a", 1), 1.0,
                                   np.array([-1.0, 0, 0, 0]), 2.0)

    def test_scalar_inequality_grid(self):
        rec = scalar_power_inequality_check(
            a_values=(0.0, 0.5, 1.0, 2.0),
            b_values=(0.0, 0.5, 1.0, 2.0),
            p_values=(1, 2, 4),
        )
        assert rec.status == "pass"

    def test_scalar_inequality_brute_random(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            a, b = rng.uniform(0, 3, 2)
            p = rng.uniform(1, 8)
            lhs = (a - b) * (a ** (2 * p - 1) - b ** (2 * p - 1))
            rhs = (a ** p - b ** p) ** 2 / p
            assert lhs >= rhs - 1e-12 * max(1.0, abs(lhs))

    def test_battery(self):
        _, kernel = random_scenario(5, max_points=24)
        assert power_battery(kernel, n_functions=30, seed=5).passed


class TestLpDerivative:
    def test_two_point_p1_no_tilt(self, s2, k2):
        cfg = ExponentConfig(1.0, 1.0, 1.0)
        grid = np.exp(np.linspace(math.log(1e-3), math.log(1.0), 16))
        c_n = nash_constant(k2, rho=1.0, nu=1.0, k0=2.0).constant
        report = lp_derivative_check(k2, cfg, 1.0, s2.ball("0", 1), 0.0,
                                     np.array([1.0, 0.5]), 1, grid, c_n)
        assert report.passed

    def test_s4_tilted(self, s4, k4):
        cfg = ExponentConfig(1.0, 1.0, 2.0)
        grid = np.exp(np.linspace(math.log(1e-3), math.log(1.0), 24))
        c_n = nash_constant(k4, rho=1.0, nu=1.0, k0=cfg.k0(1.0)).constant
        for p in (1, 2):
            report = lp_derivative_check(k4, cfg, 1.0, s4.ball("a", 1), 2.0,
                                         np.array([1.0, 0.2, 0.4, 0.8]), p, grid, c_n)
            assert report.passed, report.failures()[0].witness

    def test_grid_guard(self, s4, k4):
        cfg = ExponentConfig(1.0, 1.0, 2.0)
        with pytest.raises(StepTooCoarse):
            lp_derivative_check(k4, cfg, 1.0, s4.ball("a", 1), 0.0,
                                np.ones(4), 1, [0.1, 0.5, 1.0], 1.0)

    def test_zero_time_rejected(self, s4, k4):
        # the step 1e-4 t vanishes at t = 0, where the record read the other
        # points only
        cfg = ExponentConfig(1.0, 1.0, 2.0)
        with pytest.raises(ValueError, match=r"^times must be > 0, got 0\.0$"):
            lp_derivative_check(k4, cfg, 1.0, s4.ball("a", 1), 0.0, np.ones(4), 1,
                                [0.0] + np.linspace(0.1, 1, 8).tolist(), 1.0)

    def test_negative_input(self, s4, k4):
        cfg = ExponentConfig(1.0, 1.0, 2.0)
        with pytest.raises(NegativeInput):
            lp_derivative_check(k4, cfg, 1.0, s4.ball("a", 1), 0.0,
                                np.array([-1.0, 1, 1, 1]), 1,
                                np.linspace(0.1, 1, 8), 1.0)

    def test_undersized_nash_constant_triggers_enlargement(self, s4, k4):
        cfg = ExponentConfig(1.0, 1.0, 2.0)
        grid = np.exp(np.linspace(math.log(1e-3), 0.0, 16))
        report = lp_derivative_check(k4, cfg, 1.0, s4.ball("a", 1), 2.0,
                                     np.array([1.0, 0.2, 0.4, 0.8]), 2, grid, 1e-9)
        assert report.passed
        rec = report.records[0]
        assert rec.params["enlarged"] and rec.params["c_n_used"] > 1e-3


class TestIteration:
    def test_stationary_constant_function(self, s4, k4):
        # no tilt and a constant start: the evolution is stationary and
        # every level bound holds with slack
        cfg = ExponentConfig(1.0, 1.0, 2.0)
        c_n = nash_constant(k4, rho=1.0, nu=1.0, k0=cfg.k0(1.0)).constant
        f = np.ones(4)
        trace, report = moser_iteration(k4, cfg, 1.0, s4.ball("a", 1), 0.0, f,
                                        t=1.0, k_max=4, c_n=c_n)
        assert report.passed
        assert trace.w[0, -1] == pytest.approx(1.0, rel=1e-12)

    def test_s4_point_mass(self, s4, k4, caplog):
        cfg = ExponentConfig(1.0, 1.0, 2.0)
        c_n = nash_constant(k4, rho=1.0, nu=1.0, k0=cfg.k0(1.0)).constant
        f = np.array([1.0, 0, 0, 0])
        with caplog.at_level(logging.DEBUG, logger="ultraheat.davies"):
            trace, report = moser_iteration(k4, cfg, 1.0, s4.ball("a", 1), 4.0, f,
                                            t=1.0, k_max=8, c_n=c_n)
        assert report.passed, report.failures()
        # base level: ||f_s||_2 never exceeds the start under an in-range tilt
        assert trace.w[0, -1] <= math.exp(trace.k0) * (1 + 1e-9)
        # final sups of the scalar per-column norm implementation
        reference = [1.0, 0.5949025495432078, 0.5458919764829365, 0.5234328589092222,
                     0.5134680878703777, 0.5098867320041192, 0.5091942210141087,
                     0.5091579875164777, 0.5091578194514691]
        np.testing.assert_allclose(trace.w[:, -1], reference, rtol=1e-15, atol=0)
        # one debug line per refinement round, then the final grid
        lines = [r.getMessage() for r in caplog.records]
        assert lines[-1].startswith(f"moser final grid: {trace.times.size} points")
        assert len(lines) >= 2
        assert all(line.startswith("moser refinement:") for line in lines[:-1])

    def test_w_nondecreasing_in_time(self, s4, k4):
        cfg = ExponentConfig(1.0, 1.0, 2.0)
        c_n = nash_constant(k4, rho=1.0, nu=1.0, k0=cfg.k0(1.0)).constant
        trace, _ = moser_iteration(k4, cfg, 1.0, s4.ball("a", 1), 2.0,
                                   np.array([1.0, 0, 0, 0]), t=1.0, k_max=5, c_n=c_n)
        assert np.all(np.diff(trace.w, axis=1) >= -1e-15)

    def test_one_step_contraction_on_trace(self, s4, k4):
        cfg = ExponentConfig(1.0, 1.0, 2.0)
        c_n = nash_constant(k4, rho=1.0, nu=1.0, k0=cfg.k0(1.0)).constant
        trace, report = moser_iteration(k4, cfg, 1.0, s4.ball("a", 1), 4.0,
                                        np.array([1.0, 0, 0, 0]), t=1.0, k_max=6,
                                        c_n=c_n)
        wf = trace.w[:, -1]
        for k in range(1, 6):
            step = (trace.d_factor * trace.a_factor ** k) ** (2.0 ** -k)
            assert wf[k] <= step * wf[k - 1] * (1 + 1e-8)

    def test_one_step_contraction_at_intermediate_times(self):
        # the contraction holds along the whole running trace, not only at
        # the final time (the step factor grows with t through its
        # exponential part)
        for seed in range(3):
            kernel, cfg, ball, rho, lam, f = tilt_scenario(seed)
            c_n = nash_constant(kernel, rho=rho, nu=cfg.nu, k0=cfg.k0(rho),
                                seed=seed).constant
            trace, _ = moser_iteration(kernel, cfg, rho, ball, lam, f,
                                       t=1.0, k_max=6, c_n=c_n)
            base = (trace.c_nash / trace.nu) ** (1 / (2 * trace.nu))
            for j in range(0, len(trace.times), 16):
                d_tj = base * np.exp(trace.k0 * trace.times[j])
                for k in range(1, 7):
                    step = (d_tj * trace.a_factor ** k) ** (2.0 ** -k)
                    assert trace.w[k, j] <= step * trace.w[k - 1, j] * (1 + 1e-6)

    def test_zero_time_rejected(self, s4, k4):
        cfg = ExponentConfig(1.0, 1.0, 2.0)
        with pytest.raises(ValueError, match=r"^times must be > 0, got 0\.0$"):
            moser_iteration(k4, cfg, 1.0, s4.ball("a", 1), 0.0, np.ones(4),
                            t=0.0, k_max=3, c_n=1.0)

    def test_k_max_guard(self, s4, k4):
        cfg = ExponentConfig(1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            moser_iteration(k4, cfg, 1.0, s4.ball("a", 1), 0.0, np.ones(4),
                            t=1.0, k_max=13, c_n=1.0)

    def test_refinement_guard(self, s4, k4, monkeypatch):
        monkeypatch.setattr(davies, "MAX_REFINEMENTS", 0)
        cfg = ExponentConfig(1.0, 1.0, 2.0)
        with pytest.raises(GridRefinementFailed):
            moser_iteration(k4, cfg, 1.0, s4.ball("a", 1), 2.0,
                            np.array([1.0, 0, 0, 0]), t=1.0, k_max=3, c_n=1.0)

    def test_random_scenarios(self):
        for seed in range(4):
            kernel, cfg, ball, rho, lam, f = tilt_scenario(seed)
            c_n = nash_constant(kernel, rho=rho, nu=cfg.nu, k0=cfg.k0(rho),
                                seed=seed).constant
            trace, report = moser_iteration(kernel, cfg, rho, ball, lam, f,
                                            t=1.0, k_max=6, c_n=c_n)
            assert report.passed, (seed, report.failures())

    def test_undersized_nash_constant_triggers_enlargement(self, s4, k4):
        # an absurdly small constant makes the step bounds fail; the retry
        # enlarges the family with the evolved iterates and passes
        cfg = ExponentConfig(1.0, 1.0, 2.0)
        f = np.array([1.0, 0, 0, 0])
        trace, report = moser_iteration(k4, cfg, 1.0, s4.ball("a", 1), 4.0, f,
                                        t=1.0, k_max=6, c_n=1e-9)
        assert report.passed
        assert trace.c_nash > 1e-3


class TestSupBounds:
    def test_zero_time_rejected(self, s4, k4):
        cfg = ExponentConfig(1.0, 1.0, 2.0)
        with pytest.raises(ValueError, match=r"^times must be > 0, got 0\.0$"):
            sup_bound_check(k4, cfg, 1.0, s4.ball("a", 1), 0.0, [0.1, 0.0, 1.0], 1.0)

    def test_s4_no_tilt(self, s4, k4):
        cfg = ExponentConfig(1.0, 1.0, 2.0)
        c_n = nash_constant(k4, rho=1.0, nu=1.0, k0=cfg.k0(1.0)).constant
        report = sup_bound_check(k4, cfg, 1.0, s4.ball("a", 1), 0.0,
                                 [1e-3, 0.1, 1.0, 10.0], c_n)
        assert report.passed

    def test_s4_strong_tilt_cross_block(self, s4, k4):
        # lam = 50 sends the bound across the ball boundary to ~0, which is
        # consistent only because those entries vanish exactly
        cfg = ExponentConfig(1.0, 1.0, 2.0)
        c_n = nash_constant(k4, rho=1.0, nu=1.0, k0=cfg.k0(1.0)).constant
        report = sup_bound_check(k4, cfg, 1.0, s4.ball("a", 1), 50.0,
                                 [0.01, 1.0], c_n)
        assert report.passed

    def test_short_time_diagonal(self, s4, k4):
        # t -> 0: the kernel stays below 1/mass while the bound diverges
        cfg = ExponentConfig(1.0, 1.0, 2.0)
        c_n = nash_constant(k4, rho=1.0, nu=1.0, k0=cfg.k0(1.0)).constant
        report = sup_bound_check(k4, cfg, 1.0, s4.ball("a", 1), 0.0,
                                 [1e-8], c_n)
        assert report.passed

    def test_undersized_nash_constant_triggers_enlargement(self):
        # on S4 with every mass 1e-4 the bounds fail at C_N = 1e-9; the
        # retry enlarges the family with the evolved extremising row
        light = build_tree({"radius": 2, "children": [
            {"radius": 1, "children": [{"id": "a", "mass": 1e-4}, {"id": "b", "mass": 1e-4}]},
            {"radius": 1, "children": [{"id": "c", "mass": 1e-4}, {"id": "d", "mass": 1e-4}]},
        ]})
        kernel = isotropic_kernel(light, power_profile(3.0), scaling="none")
        cfg = ExponentConfig(1.0, 1.0, 2.0)
        report = sup_bound_check(kernel, cfg, 1.0, light.ball("a", 1), 2.0,
                                 [1e-3, 0.1, 1.0], 1e-9)
        assert report.passed
        for rec in report.records:
            assert rec.params["enlarged"]
            assert rec.params["c_n_used"] == pytest.approx(1e4 / 3, rel=1e-12)

    def test_random_scenarios(self):
        for seed in range(4):
            kernel, cfg, ball, rho, lam, _ = tilt_scenario(seed)
            c_n = nash_constant(kernel, rho=rho, nu=cfg.nu, k0=cfg.k0(rho),
                                seed=seed).constant
            report = sup_bound_check(kernel, cfg, rho, ball, lam,
                                     [0.05, 0.5, 5.0], c_n)
            assert report.passed, (seed, report.failures())


class TestVanishing:
    def test_s4_block_level(self, k4):
        report = vanishing_check(k4, [1e-3, 1.0, 1e3])
        assert report.passed
        exact = [r for r in report.records if r.name == "davies.vanishing"
                 and r.params["rho"] == 1.0]
        assert exact and exact[0].measured == 0.0

    def test_top_level_vacuous(self, k4):
        report = vanishing_check(k4, [1.0])
        top = [r for r in report.records if r.params["rho"] == 2.0]
        assert top and top[0].status == "vacuous"

    def test_no_leakage_at_large_time(self, k8):
        report = vanishing_check(k8, [1e3])
        assert report.passed
        exact = [r for r in report.records
                 if r.name == "davies.vanishing" and r.status != "vacuous"]
        assert exact and all(r.measured == 0.0 for r in exact)

    def test_random_spaces_dense_crosscheck(self):
        for seed in range(4):
            _, kernel = random_scenario(seed)
            report = vanishing_check(kernel, [1e-2, 1.0, 1e2])
            assert report.passed, (seed, report.failures())


def bernoulli_oracle(params: OdeComparisonParams, t: float) -> float:
    """Closed-form solution via the linearising substitution u^-theta."""
    b, p, theta, K = params.b, params.p, params.theta, params.k

    def integrand(s):
        return b * s ** (p - 2) * params.weight(s) ** (-theta) * math.exp(theta * K * s)

    integral, _ = quad(integrand, 0.0, t, limit=400)
    y = params.u0 ** (-theta) + theta * integral
    return math.exp(K * t) * y ** (-1.0 / theta)


class TestOdeComparison:
    def test_logistic_closed_form(self):
        params = OdeComparisonParams(b=1, p=2, theta=1, k=1, a=1, u0=0.5)
        rec = ode_comparison_check(params, t_max=1.0)
        assert rec.status == "pass"
        # frozen values: u(1) = e/(1+e), bound(1) = 4 e^{1/2}
        u1 = bernoulli_oracle(params, 1.0)
        assert u1 == pytest.approx(math.e / (1 + math.e), rel=1e-10)
        assert 4 * math.exp(0.5) == pytest.approx(6.5948850828, rel=1e-9)
        assert u1 < 4 * math.exp(0.5)

    def test_solver_matches_bernoulli_closed_form(self):
        # v = u^-theta solves the linear v' = theta b t^{p-2} w^-theta - theta K v,
        # so v(t) e^{theta K t} = v(t0) e^{theta K t0}
        #                         + theta b int_t0^t s^{p-2} w(s)^-theta e^{theta K s} ds,
        # summed here by mpmath quadrature between consecutive output times.
        # The samples are sweep draws: p < 2 and p >= 2 with w = 1 and
        # w = 1 + t.  On sample 15, RK45 5(4) at the same tolerances is off
        # by 1.6e-7, so this bound separates integrators.
        t_max = davies.ODE_SWEEP_T_MAX
        sweep = davies.ode_sweep_params(20, seed=1)
        with mpmath.workdps(20):
            for i in (1, 2, 10, 14, 15, 19):
                params = sweep[i]
                times, u = davies.solve_comparison_ode(params, t_max)
                b, p, theta, K = (mpmath.mpf(v) for v in
                                  (params.b, params.p, params.theta, params.k))
                affine = params.w is not None

                def integrand(s):
                    w = 1 + s if affine else 1
                    return s ** (p - 2) * w ** (-theta) * mpmath.exp(theta * K * s)

                # the check's start: t = 0, or t_max 1e-9 past the singularity
                t0 = mpmath.mpf(0.0 if params.p >= 2 else t_max * 1e-9)
                v = mpmath.exp(theta * K * t0) * mpmath.mpf(params.u0) ** (-theta)
                prev, exact = t0, []
                for t in times:
                    v += theta * b * mpmath.quad(integrand, [prev, t])
                    prev = mpmath.mpf(t)
                    exact.append(float(-mpmath.log(mpmath.exp(-theta * K * t) * v) / theta))
                # every output is above the noise floor, so the bound holds at all
                assert u.min() > 10.0 * davies.ODE_ATOL, i
                err = np.abs(np.log(u) - exact).max()
                assert err <= davies.ODE_MARGIN, (i, err)

    def test_start_independence(self):
        # the bound does not involve u0
        for u0 in (1e-2, 1.0, 100.0):
            params = OdeComparisonParams(b=0.5, p=1.5, theta=2.0, k=1.0, a=2.0, u0=u0)
            assert ode_comparison_check(params, t_max=2.0).status == "pass"

    def test_affine_weight(self):
        params = OdeComparisonParams(b=1.0, p=3.0, theta=1.5, k=2.0, a=1.0,
                                     w=lambda t: 1.0 + t, u0=2.0)
        assert ode_comparison_check(params, t_max=2.0).status == "pass"

    def test_sweep_subset(self):
        report = ode_sweep(n_samples=40, seed=1)
        assert report.passed

    def test_integrator_failure(self):
        params = OdeComparisonParams(b=1.0, p=2.0, theta=1.0, k=1.0, a=1.0,
                                     w=lambda t: float("nan"), u0=1.0)
        with pytest.raises(IntegratorFailure):
            ode_comparison_check(params, t_max=1.0)

    def test_step_budget_failure_is_an_integrator_failure(self, monkeypatch, capfd):
        # odeint warns on failure; the check raises instead, and prints nothing
        monkeypatch.setattr(davies, "ODE_MAX_STEPS", 3)
        params = OdeComparisonParams(b=1.0, p=2.0, theta=1.0, k=1.0, a=1.0)
        with pytest.raises(IntegratorFailure, match="Excess work done"):
            ode_comparison_check(params, t_max=1.0)
        assert capfd.readouterr() == ("", "")

    def test_bad_output_names_the_failed_test(self):
        # the solver reports success, but the weight is NaN on (0.3, 0.4),
        # which the four probe times miss
        params = OdeComparisonParams(b=1.0, p=2.0, theta=1.0, k=1.0, a=1.0, u0=1.0,
                                     w=lambda t: float("nan") if 0.3 < t < 0.4 else 1.0)
        with pytest.raises(IntegratorFailure) as info:
            ode_comparison_check(params, t_max=1.0)
        message = str(info.value)
        assert message.startswith("integration output non-finite first at t = ")
        assert "successful" not in message
        t_bad = float(message.split("t = ")[1].split(" ")[0])
        times = np.exp(np.linspace(math.log(1e-6), 0.0, davies.ODE_EVAL_POINTS))
        assert t_bad in times and t_bad < 0.4

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            OdeComparisonParams(b=0.0, p=2.0, theta=1.0, k=1.0, a=1.0)
        with pytest.raises(ValueError):
            OdeComparisonParams(b=1.0, p=1.0, theta=1.0, k=1.0, a=1.0)
        with pytest.raises(ValueError):
            OdeComparisonParams(b=1.0, p=2.0, theta=1.0, k=1.0, a=0.5)


class TestNashRatio:
    def test_two_point_indicator(self, k2):
        # rho = 1, nu = 1, K0 = 2: the quotient of a point indicator is 1/4
        u = np.array([[1.0], [0.0]]).reshape(2, 1)
        ratio = nash_ratio_batch(k2, 1.0, 1.0, 2.0, u)
        assert ratio[0] == pytest.approx(0.25, rel=1e-14)

    def test_scale_invariance(self, k4):
        rng = np.random.default_rng(8)
        u = rng.uniform(0.1, 1.0, (4, 1))
        r1 = nash_ratio_batch(k4, 1.0, 1.0, 2.0, u)
        r2 = nash_ratio_batch(k4, 1.0, 1.0, 2.0, 2.0 * u)
        assert r1[0] == pytest.approx(r2[0], rel=1e-12)


def test_lp_norm_limits():
    mu = np.array([1.0, 2.0, 0.5])
    f = np.array([0.5, 2.0, 1.0])
    assert lp_norm(f, mu, 2) == pytest.approx(
        math.sqrt(0.25 * 1 + 4 * 2 + 1 * 0.5), rel=1e-14)
    # large q approaches the max
    assert lp_norm(f, mu, 2.0 ** 13) == pytest.approx(2.0, rel=1e-3)
    assert lp_norm(np.zeros(3), mu, 4) == 0.0


def _scalar_lp_norm(col, mu, q):
    """Reference: one column, zero entries dropped, one logsumexp."""
    v = np.abs(col)
    pos = v > 0
    if not pos.any():
        return 0.0
    return float(np.exp(logsumexp(q * np.log(v[pos]) + np.log(mu[pos])) / q))


LP_QS = [1, 1.5, 2, 3] + [2.0 ** k for k in range(2, 14)]


class TestLpNorms:
    @pytest.mark.parametrize("n", [1, 4, 9, 64, 300])
    def test_bitwise_equal_to_scalar_formula_without_zeros(self, n):
        rng = np.random.default_rng(n)
        F = rng.uniform(1e-3, 3.0, (n, 40)) * rng.choice([-1.0, 1.0], (n, 40))
        mu = rng.uniform(0.5, 2.0, n)
        out = lp_norms(F, mu, LP_QS)
        assert out.shape == (len(LP_QS), 40)
        for i, q in enumerate(LP_QS):
            for j in range(F.shape[1]):
                assert out[i, j] == _scalar_lp_norm(F[:, j], mu, q)
                assert lp_norm(F[:, j], mu, q) == out[i, j]

    @pytest.mark.parametrize("n", [4, 9, 64, 300])
    def test_random_zero_patterns_agree(self, n):
        rng = np.random.default_rng(100 + n)
        F = rng.uniform(1e-3, 3.0, (n, 80))
        F[rng.uniform(size=F.shape) < 0.4] = 0.0
        F[:, 0] = 0.0
        F[0, 1:] = 1.0  # only column 0 is all zero
        mu = rng.uniform(0.5, 2.0, n)
        out = lp_norms(F, mu, LP_QS)
        for i, q in enumerate(LP_QS):
            ref = np.array([_scalar_lp_norm(F[:, j], mu, q) for j in range(1, 80)])
            # zeros only move terms between partial sums; for q >= 2 (every
            # iteration level) the drift stays within 1e-15, while the flatter
            # q < 2 sums get the dtype bound for reordering n terms
            rtol = 1e-15 if q >= 2 else n * np.finfo(float).eps
            np.testing.assert_allclose(out[i, 1:], ref, rtol=rtol, atol=0)

    def test_zero_columns_give_zero_without_warnings(self):
        mu = np.array([1.0, 2.0, 0.5])
        F = np.zeros((3, 2))
        F[1, 1] = -2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lp_norms(F, mu, LP_QS)
        assert np.all(out[:, 0] == 0.0)
        assert np.all(out[:, 1] > 0.0)

    def test_large_q_approaches_column_max(self):
        rng = np.random.default_rng(5)
        F = rng.uniform(0.0, 2.0, (16, 10))
        mu = rng.uniform(0.5, 2.0, 16)
        big = lp_norms(F, mu, [2.0 ** 13, np.inf])
        np.testing.assert_array_equal(big[1], np.abs(F).max(axis=0))
        np.testing.assert_allclose(big[0], big[1], rtol=1e-3)
