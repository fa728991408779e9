"""Condition constants, comparison bounds, and the certificate pipeline."""

import math

import numpy as np
import pytest

from ultraheat import (
    due_constant,
    energy_difference_check,
    from_matrix,
    generator,
    isotropic_kernel,
    nash_constant,
    power_profile,
    tail_probability_check,
    tj_constant,
    truncation_comparison_check,
    wue_certificate,
    wue_constant,
)
from ultraheat.bounds import (
    default_function_family,
    exit_probability_slope,
    log_time_grid,
)
from ultraheat.davies import nash_ratio_batch
from ultraheat.kernel import tj_witness

from conftest import random_scenario

DUE_S2 = (1 + math.exp(-4)) / 2      # t (1 + e^{-4t})/2 maximised at t = 1
WUE_S2 = 1 - math.exp(-4)            # (t+1)(1 - e^{-4t})/2 maximised at t = 1


class TestOnDiagonalConstant:
    def test_two_point_closed_form(self, k2):
        est = due_constant(k2, 1.0, 1.0, 1.0)
        assert est.constant == pytest.approx(DUE_S2, abs=1e-9)
        assert est.witnesses[0]["t"] == pytest.approx(1.0, rel=1e-6)
        assert est.witnesses[0]["x"] == est.witnesses[0]["y"]

    def test_degenerate_exponent_tracks_max_density(self, k2):
        # alpha/beta -> 0: the time weight degenerates and the constant is
        # just the largest density over the scan
        est = due_constant(k2, 1e-12, 1.0, 1.0)
        gen = generator(k2)
        grid = log_time_grid(1e-4, 1.0, 129)
        target = max(float(gen.density(t).max()) for t in grid)
        assert est.constant == pytest.approx(target, rel=1e-6)

    def test_reproducible(self, k4):
        a = due_constant(k4, 1.0, 2.0, 2.0)
        b = due_constant(k4, 1.0, 2.0, 2.0)
        assert a.constant == b.constant

    def test_refinement_stability(self, k4):
        coarse = due_constant(k4, 1.0, 2.0, 2.0, points=65)
        fine = due_constant(k4, 1.0, 2.0, 2.0, points=257)
        assert fine.constant >= coarse.constant - 1e-9
        assert abs(fine.constant - coarse.constant) <= 1e-8 * max(1.0, fine.constant)


class TestOffDiagonalConstant:
    def test_two_point_closed_form(self, k2):
        est = wue_constant(k2, 1.0, 1.0, 1.0)
        assert est.constant == pytest.approx(WUE_S2, abs=1e-9)
        wit = est.witnesses[0]
        assert wit["x"] != wit["y"]

    def test_dominates_on_diagonal(self):
        for seed in range(5):
            _, kernel = random_scenario(seed)
            r0 = kernel.space.diam
            assert wue_constant(kernel, 1.0, 1.0, r0).constant >= \
                due_constant(kernel, 1.0, 1.0, r0).constant - 1e-12

    def test_diagonal_factor_is_one(self, k2):
        # on the diagonal the correction factor is 1, so the scanned
        # quantity reduces to the on-diagonal one
        gen = generator(k2)
        for t in (0.1, 0.7):
            dens = gen.density(t)
            assert t * dens[0, 0] * (1 + 0.0 / t) ** 1.0 == t * dens[0, 0]


class TestNashConstant:
    def test_two_point_value(self, k2):
        est = nash_constant(k2, rho=1.0, nu=1.0, k0=2.0)
        assert est.constant >= 0.25 - 1e-15
        assert est.scan["note"].startswith("family-relative")

    def test_constant_function_ratio_finite(self, k2):
        est = nash_constant(k2, rho=1.0, nu=1.0, k0=2.0,
                            family=[np.ones(2)])
        # zero energy: ratio ||u||_2^4 / (K0 ||u||_2^2 ||u||_1^2) = 1/(2 K0)
        assert est.constant == pytest.approx(1.0 / 4.0, rel=1e-12)

    def test_reproducible_with_seed(self, k4):
        a = nash_constant(k4, rho=1.0, nu=1.0, k0=2.5, seed=3)
        b = nash_constant(k4, rho=1.0, nu=1.0, k0=2.5, seed=3)
        assert a.constant == b.constant


class TestEnergyDifference:
    def test_full_range_trivial(self, k4):
        report = energy_difference_check(k4, rho=2.0)
        assert report.passed

    def test_point_indicator_values(self, s4, k4):
        ind = s4.ball("a", 0).indicator()
        report = energy_difference_check(k4, rho=1.0, family=[ind])
        rec = report.records[0]
        assert rec.status == "pass"
        # E - E_rho = 2 * (0.125 + 0.125) ordered pairs; bound 4 * 1 * 0.25
        assert rec.measured == pytest.approx(0.5, rel=1e-12)
        assert rec.bound == pytest.approx(1.0, rel=1e-12)

    def test_random_batches(self):
        for seed in range(5):
            _, kernel = random_scenario(seed)
            for rho in kernel.space.distance_levels:
                assert energy_difference_check(kernel, rho, seed=seed).passed


class TestTruncationComparison:
    def test_full_range_equal(self, k4):
        f = np.array([0.0, 0, 1, 1])
        report = truncation_comparison_check(k4, 2.0, None, f, [0.1, 1.0])
        assert report.passed

    def test_conservation_equality(self, k4):
        report = truncation_comparison_check(k4, 1.0, None, np.ones(4), [0.5])
        assert report.passed

    def test_first_order_slope(self, s4, k4):
        # f = 1_{c,d}: the gap P_t f - Q_t f at a grows like 2 tail(a,1) t
        f = np.array([0.0, 0, 1, 1])
        gfull, gtrunc = generator(k4), generator(k4, rho=1.0)
        t = 1e-6
        gap = (gfull.apply(t, f) - gtrunc.apply(t, f))[0]
        assert gap / t == pytest.approx(2 * k4.tail("a", 1.0), rel=1e-5)
        assert gap / t <= 4 * k4.tail_sup(1.0) + 1e-9

    def test_restricted_domain(self, s4, k4):
        report = truncation_comparison_check(
            k4, 1.0, s4.ball("a", 1), np.array([1.0, 0.5, 0, 0]), [0.1, 1.0])
        assert report.passed

    def test_random_batches(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            space, kernel = random_scenario(seed)
            f = rng.uniform(-1, 1, len(space))
            for rho in space.distance_levels:
                report = truncation_comparison_check(kernel, rho, None, f,
                                                     [0.05, 0.5, 5.0])
                assert report.passed, (seed, rho)


class TestExitProbability:
    def test_s4_bound_and_slope(self, s4, k4):
        c_tj = tj_constant(k4, 1.0, 2.0)
        assert 4 * c_tj == pytest.approx(5.0, rel=1e-14)
        report = tail_probability_check(k4, 1.0, c_tj, 2.0, [0.01, 0.1, 1.0])
        assert report.passed
        slope = exit_probability_slope(k4, s4.ball("a", 1), "a")
        assert slope == pytest.approx(0.5, abs=1e-6)

    def test_large_time_slack(self, k4):
        c_tj = tj_constant(k4, 1.0, 2.0)
        report = tail_probability_check(k4, 1.0, c_tj, 2.0, [1e3])
        assert report.passed

    def test_monotone_in_radius_exhaustive(self):
        for seed in range(5):
            space, kernel = random_scenario(seed, max_points=32)
            c_tj = tj_constant(kernel, 1.0, space.diam)
            report = tail_probability_check(kernel, 1.0, c_tj, space.diam,
                                            [0.05, 0.5, 5.0])
            assert report.passed, (seed, report.failures())

    def test_reduced_range_branch(self, k8):
        # R0 below the diameter exercises the r ^ R0 cap
        space = k8.space
        r0 = space.distance_levels[1]
        c_tj = tj_constant(k8, 1.5, r0)
        report = tail_probability_check(k8, 1.5, c_tj, r0, [0.01, 0.1])
        assert report.passed


class TestCertificate:
    def test_s4_passes(self, k4):
        cert = wue_certificate(k4, 1.0, 2.0, 2.0)
        assert cert.status == "pass"
        c = cert.constants
        assert c["C_TJ"] == pytest.approx(1.25, rel=1e-14)
        assert c["C_tail"] == pytest.approx(5.0, rel=1e-14)
        assert c["C_wUE_derived"] >= c["C_wUE_measured"]

    def test_two_point_closed_forms(self, k2):
        cert = wue_certificate(k2, 1.0, 1.0, 1.0)
        assert cert.status == "pass"
        assert cert.constants["C_DUE"] == pytest.approx(DUE_S2, abs=1e-9)
        assert cert.constants["C_wUE_measured"] == pytest.approx(WUE_S2, abs=1e-9)

    def test_derived_dominates_on_scenarios(self):
        for seed in range(6):
            _, kernel = random_scenario(seed)
            cert = wue_certificate(kernel, 1.0, 1.0, kernel.space.diam, seed=seed)
            assert cert.status == "pass", (seed, [c.name for c in cert.checks])
            assert cert.constants["C_wUE_derived"] >= cert.constants["C_wUE_measured"]

    def test_heavy_tail_inflates_but_stays_sound(self, dyadic8):
        # a uniform kernel ignores distance, so its tail constant blows up
        # with the range; the pipeline constants grow but stay valid
        w = np.ones((8, 8)) - np.eye(8)
        heavy = from_matrix(dyadic8, w)
        light = isotropic_kernel(dyadic8, power_profile(3.0), scaling="mass")
        c_heavy = tj_constant(heavy, 2.0, dyadic8.diam)
        c_light = tj_constant(light, 2.0, dyadic8.diam)
        assert c_heavy > c_light
        cert = wue_certificate(heavy, 1.0, 2.0, dyadic8.diam)
        assert cert.status == "pass"

    def test_json_round_trip(self, k2):
        import json
        cert = wue_certificate(k2, 1.0, 1.0, 1.0)
        payload = json.loads(cert.to_json())
        assert set(payload["constants"]) == {
            "C_TJ", "C_DUE", "C_N", "C_tail", "C_wUE_derived", "C_wUE_measured"}
        assert payload["status"] == "pass"


class TestScalingCovariance:
    def test_density_scales_inversely_with_mass(self):
        # scaling (mu, w) -> (c mu, c w) keeps the generator, divides the
        # densities by c, and leaves every dimensionless verdict unchanged
        from ultraheat import build_tree
        from conftest import S4_SPEC
        import copy
        c = 3.0
        spec = copy.deepcopy(S4_SPEC)
        for blk in spec["children"]:
            for leaf in blk["children"]:
                leaf["mass"] = c
        scaled_space = build_tree(spec)
        base_space = build_tree(S4_SPEC)
        k_base = isotropic_kernel(base_space, power_profile(3.0), scaling="none")
        k_scaled = from_matrix(scaled_space, c * k_base.w)
        for t in (0.1, 1.0):
            a = generator(k_base).density(t)
            b = generator(k_scaled).density(t)
            assert np.allclose(b, a / c, rtol=1e-12)
        cert_a = wue_certificate(k_base, 1.0, 2.0, 2.0)
        cert_b = wue_certificate(k_scaled, 1.0, 2.0, 2.0)
        assert cert_a.status == cert_b.status == "pass"
        ratio = cert_a.constants["C_DUE"] / cert_b.constants["C_DUE"]
        assert ratio == pytest.approx(c, rel=1e-9)


def test_tj_witness_critical_radius(k4):
    wit = tj_witness(k4, 1.0, 2.0)
    assert wit["constant"] == pytest.approx(1.25, rel=1e-14)
    assert wit["r_sup"] == 1.0


@pytest.mark.parametrize("seed", range(6))
def test_merged_scans_match_their_building_blocks(seed):
    space, kernel = random_scenario(seed)
    for beta in (0.5, 1.5):
        for r0 in space.distance_levels:
            assert tj_witness(kernel, beta, r0)["constant"] == tj_constant(kernel, beta, r0)
    for rho in space.distance_levels:
        nu, k0 = 0.8, rho ** -1.5 + space.diam ** -1.5
        U, _ = default_function_family(kernel, rho, seed=seed)
        est = nash_constant(kernel, rho, nu, k0, seed=seed)
        assert est.constant == nash_ratio_batch(kernel, rho, nu, k0, U).max()
