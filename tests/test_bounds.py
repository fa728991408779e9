"""Condition constants, comparison bounds, and the certificate pipeline."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraheat import (
    HierarchicalHeatKernel,
    JumpKernel,
    bounds,
    build_tree,
    due_constant,
    energy_difference_check,
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
    ball_scales,
    default_function_family,
    heat_pair_classes,
    log_time_grid,
    scaled_density,
    tree_function_family,
)
from ultraheat.cli import generate_space
from ultraheat.davies import nash_quotients, nash_ratio_batch
from ultraheat.errors import NotIsotropic
from ultraheat.kernel import tj_witness
from ultraheat.form import energy_and_scale, energy_batch
from ultraheat.semigroup import EIGENVALUE_CLAMP, SpectralGenerator, ball_chains

from conftest import ball_trees, exit_probability_slope, lca_index, random_scenario

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

    def test_refinement_stability(self, k4, monkeypatch):
        monkeypatch.setattr(bounds, "SCAN_POINTS", 65)
        coarse = due_constant(k4, 1.0, 2.0, 2.0)
        monkeypatch.setattr(bounds, "SCAN_POINTS", 257)
        fine = due_constant(k4, 1.0, 2.0, 2.0)
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
        ratio = nash_ratio_batch(k2, 1.0, 1.0, 2.0, np.ones((2, 1)))
        # zero energy: ratio ||u||_2^4 / (K0 ||u||_2^2 ||u||_1^2) = 1/(2 K0)
        assert ratio[0] == pytest.approx(1.0 / 4.0, rel=1e-12)

    def test_reproducible_with_seed(self, k4):
        a = nash_constant(k4, rho=1.0, nu=1.0, k0=2.5, seed=3)
        b = nash_constant(k4, rho=1.0, nu=1.0, k0=2.5, seed=3)
        assert a.constant == b.constant


class TestEnergyDifference:
    def test_full_range_trivial(self, k4):
        report = energy_difference_check(k4, rho=2.0)
        assert report.passed

    def test_point_indicator_values(self, s4, k4):
        ind = s4.ball("a", 0).indicator()[:, None]
        gap = energy_batch(k4, ind, None)[0] - energy_batch(k4, ind, 1.0)[0]
        bound = 4.0 * float((ind[:, 0] ** 2 * k4.mu).sum()) * k4.tail_sup(1.0)
        # E - E_rho = 2 * (0.125 + 0.125) ordered pairs; bound 4 * 1 * 0.25
        assert gap == pytest.approx(0.5, rel=1e-12)
        assert bound == pytest.approx(1.0, rel=1e-12)
        # 1_a is a member of the default family, which the check passes on
        assert energy_difference_check(k4, rho=1.0).records[0].status == "pass"

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

    def test_empty_grid_rejected(self, k4):
        with pytest.raises(ValueError, match="^need at least one time, got an empty grid$"):
            truncation_comparison_check(k4, 1.0, None, np.ones(4), [])

    def test_infinite_time_rejected(self, k4):
        # before, inf - inf made the excess NaN and the record failed
        with pytest.raises(ValueError, match="^times must be finite, got inf$"):
            truncation_comparison_check(k4, 1.0, None, np.ones(4), [math.inf])

    def test_conservation_equality(self, k4):
        report = truncation_comparison_check(k4, 1.0, None, np.ones(4), [0.5])
        assert report.passed

    def test_first_order_slope(self, s4, k4):
        # f = 1_{c,d}: the gap P_t f - Q_t f at a grows like 2 tail(a,1) t
        f = np.array([0.0, 0, 1, 1])
        gfull, gtrunc = generator(k4), generator(k4, rho=1.0)
        t = 1e-6
        gap = (gfull.apply(t, f) - gtrunc.apply(t, f))[0]
        assert gap / t == pytest.approx(2 * k4.tail_vector(1.0)[s4.index("a")], rel=1e-5)
        assert gap / t <= 4 * k4.tail_sup(1.0) + 1e-9

    def test_restricted_domain(self, s4, k4):
        report = truncation_comparison_check(
            k4, 1.0, s4.ball("a", 1).members, np.array([1.0, 0.5, 0, 0]), [0.1, 1.0])
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


def per_time_comparison(kernel, rho, f, times):
    """(status, measured, witness t, witness max_diff) of the truncation
    comparison of f, one `apply` of each semigroup per time."""
    full, trunc = generator(kernel), generator(kernel, rho=rho)
    sup_tail, f_inf = kernel.tail_sup(rho), float(np.abs(f).max())
    worst, witness = -np.inf, None
    for t in times:
        diff = full.apply(t, f) - trunc.apply(t, f)
        envelope = 4.0 * t * sup_tail * f_inf
        gap = float(diff.max()) - envelope
        tol = 1e-12 * max(1.0, envelope, float(np.abs(diff).max()))
        if gap - tol > worst:
            worst, witness = gap - tol, (t, float(diff.max()))
    return ("pass" if worst <= 0.0 else "fail"), worst, *witness


@settings(max_examples=25, deadline=None)
@given(st.one_of(ball_trees(max_points=32),
                 st.integers(0, 40).map(lambda seed: random_scenario(2 * seed + 1, 24))),
       st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=6), st.data())
def test_truncation_comparison_grid_equals_per_time_applies(case, times, data):
    # one `apply_grid` per function gives the statuses of one `apply` per
    # time, and its values to 1e-12 max(1, max |P_t f|) absolute
    if len(case) == 3:
        space, exponent, scale = case
        kernel = isotropic_kernel(space, power_profile(exponent, scale), scaling="mass")
    else:
        space, kernel = case  # a raw kernel: dense and not isotropic
    rho = data.draw(st.sampled_from(space.distance_levels))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    fs = [np.ones(len(space)), space.balls()[-1].indicator(), rng.uniform(-1, 1, len(space))]
    report = truncation_comparison_check(kernel, rho, None, fs, times)
    for rec, f in zip(report.records, fs):
        status, measured, t, max_diff = per_time_comparison(kernel, rho, f, times)
        tol = 1e-12 * max(1.0, max(float(np.abs(generator(kernel).apply(s, f)).max())
                                   for s in times))
        assert rec.status == status
        assert abs(rec.measured - measured) <= tol
        if rec.witness["t"] == t:
            assert abs(rec.witness["max_diff"] - max_diff) <= tol


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

    def test_empty_grid_rejected(self, k4):
        # before, two passing records measured -inf
        with pytest.raises(ValueError, match="^need at least one time, got an empty grid$"):
            tail_probability_check(k4, 1.0, 1.25, 2.0, [])

    def test_zero_time_rejected(self, k4):
        # before, the empirical factor divided 0 by 0 and max dropped the NaN
        with pytest.raises(ValueError, match=r"^times must be > 0, got 0\.0$"):
            tail_probability_check(k4, 1.0, 1.25, 2.0, [0.0, 0.1])

    def test_infinite_time_rejected(self, k4):
        # before, both records passed, measured -inf
        with pytest.raises(ValueError, match="^times must be finite, got inf$"):
            tail_probability_check(k4, 2.0, 1.0, 2.0, [math.inf])

    def test_witness_time_is_a_python_float(self, k4):
        # the report writes the witness through float.__repr__
        for rec in tail_probability_check(k4, 1.0, 1.25, 2.0, np.array([0.01, 0.1])).records:
            assert type(rec.witness["t"]) is float


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
        heavy = JumpKernel(dyadic8, w)
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
        k_scaled = JumpKernel(scaled_space, c * k_base.w)
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
        est = nash_constant(kernel, rho, nu, k0, seed=seed)
        if seed % 2 == 0:  # isotropic: the closed-form members, then the random columns
            fam = tree_function_family(kernel, rho, seed=seed)
            ratios = np.concatenate((nash_quotients(fam.energy, fam.l2sq, fam.l1, nu, k0),
                                     nash_ratio_batch(kernel, rho, nu, k0, fam.U)))
        else:
            U, _ = default_function_family(kernel, rho, seed=seed)
            ratios = nash_ratio_batch(kernel, rho, nu, k0, U)
        assert est.constant == ratios.max()


def haar_columns(kernel, rho):
    """The eigen members of the tree family as explicit columns, built from
    the tree: the constant of each rho-block, then for each node of radius
    <= rho in preorder and each two consecutive children a, b the function
    mu(b) 1_a - mu(a) 1_b, each at unit L2(mu) norm and sorted stably by
    the engine's eigenvalue; returns (eigenvalues, columns)."""
    space = kernel.space
    tree, mu = space.tree, space.masses
    lam = HierarchicalHeatKernel.from_kernel(kernel, rho).eigenvalue
    members = [(0.0, ball.indicator()) for ball in space.partition(rho)]
    for node in np.flatnonzero(tree.radius <= rho).tolist():
        kids = [k for k in range(tree.parent.size) if tree.parent[k] == node]
        for a, b in zip(kids, kids[1:]):
            u = np.zeros(len(space))
            u[tree.start[a]:tree.stop[a]] = tree.volume[b]
            u[tree.start[b]:tree.stop[b]] = -tree.volume[a]
            members.append((float(lam[node]), u))
    members.sort(key=lambda m: m[0])
    return ([m[0] for m in members],
            [u / math.sqrt(float((u * u * mu).sum())) for _, u in members])


@settings(max_examples=30, deadline=None)
@given(ball_trees(max_points=32), st.booleans(), st.floats(0.3, 2.0))
def test_tree_family_matches_its_columns(case, growing, nu):
    # decaying and growing profiles; every closed-form member against its
    # explicit column, the Haar members against the dense generator, and
    # C_N and the energy-difference statuses against the dense family
    space, exponent, scale = case
    kernel = isotropic_kernel(space, power_profile(-exponent if growing else exponent, scale),
                              scaling="mass")
    mu = space.masses
    for rho in space.distance_levels:
        fam = tree_function_family(kernel, rho)
        lam, eigen = haar_columns(kernel, rho)
        # at a point, the dropped jump rate is the kernel's tail beyond rho
        dropped = HierarchicalHeatKernel.from_kernel(kernel).jump_rates(rho, above=True)
        assert np.allclose(dropped[space.tree.leaf], kernel.tail_vector(rho), rtol=1e-12, atol=0)
        balls = space.balls(include_points=True)
        assert fam.labels[:len(eigen) + len(balls)] == \
            [f"eigen:{x:.6g}" for x in lam] + [f"ball:{b.start}:{b.stop}" for b in balls]
        assert fam.energy.size == len(eigen) + len(balls)
        for k, u in enumerate(eigen + [b.indicator() for b in balls]):
            e, e_scale = energy_and_scale(kernel, u, u, rho)
            full, full_scale = energy_and_scale(kernel, u, u)
            # a Haar function's E_rho is its eigenvalue, clamped to 0 below
            # EIGENVALUE_CLAMP as in both engines
            clamp = EIGENVALUE_CLAMP if k < len(eigen) else 0.0
            assert abs(fam.energy[k] - e) <= 1e-12 * e_scale + clamp
            assert abs(fam.gap[k] - (full - e)) <= 1e-12 * full_scale
            assert fam.l2sq[k] == pytest.approx(float((u * u * mu).sum()), rel=1e-12)
            assert fam.l1[k] == pytest.approx(float((np.abs(u) * mu).sum()), rel=1e-12)
        # L u = -lambda u, up to rounding and the clamp of tiny eigenvalues
        L = generator(kernel, rho).matrix
        for x, u in zip(lam, eigen):
            tol = max(1e-12 * np.abs(L).sum(axis=1).max(), EIGENVALUE_CLAMP) * np.abs(u).max()
            assert np.abs(L @ u + x * u).max() <= tol

        # the dense family's quotients, each E_rho of an eigenfunction or
        # indicator a sum over pairs: `energy_batch` leaves an absolute error
        # of about eps ||Q|| ||u||^2, which on a constant (E_rho = 0) can
        # exceed 1e-12 of the quotient when K0 is small; the random columns
        # are the same on both paths
        k0 = rho ** -1.5 + space.diam ** -1.5
        U, labels = default_function_family(kernel, rho)
        V = U[:, :fam.energy.size]
        dense = np.concatenate((
            nash_quotients(np.array([energy_and_scale(kernel, u, u, rho)[0] for u in V.T]),
                           (V * V * mu[:, None]).sum(axis=0),
                           (np.abs(V) * mu[:, None]).sum(axis=0), nu, k0),
            nash_ratio_batch(kernel, rho, nu, k0, fam.U)))
        c_n = nash_constant(kernel, rho, nu, k0).constant
        indicators = [j for j, label in enumerate(labels) if label.startswith("ball:")]
        assert c_n >= dense[indicators].max() * (1 - 1e-12)
        if labels[int(np.argmax(dense))].startswith("ball:"):
            assert c_n == pytest.approx(dense.max(), rel=1e-12)
        status = energy_difference_check(kernel, rho).records[0].status
        with mock.patch.object(bounds, "tree_function_family",
                               side_effect=NotIsotropic("dense family forced")):
            assert energy_difference_check(kernel, rho).records[0].status == status


# -- pair-by-pair oracles -------------------------------------------------------------
# The loop that `wue_certificate` used before it was vectorised.  The array
# version keeps the loop's arithmetic, so the worst value and witness must be
# equal, not merely close.  The monotone chains are held to a long-double
# oracle instead.


def scan_density(kernel):
    """p_t as an n x n matrix from the engine that serves the certificate's
    scans: the hierarchical profile, spread over the pairs by their lowest
    common ancestor, when the kernel is isotropic, else the dense generator."""
    try:
        fast = HierarchicalHeatKernel.from_kernel(kernel)
    except NotIsotropic:
        return generator(kernel).density
    lca = lca_index(kernel.space)
    return lambda t: fast.node_values(t)[lca]


def chaining_oracle(kernel, alpha, beta, r0, c_due, c_tail):
    """Worst chaining gap and witness by a loop over admissible pairs, or
    None when no pair is admissible at any time."""
    space = kernel.space
    density = scan_density(kernel)
    D = space.distance_matrix()
    worst, witness, any_pair = -np.inf, None, False
    for t in log_time_grid(r0 ** beta * 1e-4, r0 ** beta, 17):
        pairs = np.argwhere(D >= t ** (1.0 / beta))
        if pairs.size == 0:
            continue
        dens2 = density(2 * t)
        for i, j in pairs:
            any_pair = True
            r = D[i, j] / 2.0
            bound = 2.0 * (c_due / t ** (alpha / beta)) * (c_tail * t / min(r, r0) ** beta)
            gap = float(dens2[i, j]) - bound * (1 + 1e-12)
            if gap > worst:
                worst = gap
                witness = {"t": float(t), "x": space.ids[i], "y": space.ids[j],
                           "p2t": float(dens2[i, j]), "bound": bound}
    return (worst, witness) if any_pair else None


def monotone_oracle(kernel, time_grid):
    """{(t, *inner, *outer): violation} over every time and (node, parent)
    chain, where the violation is -min_x (P_t 1_{inner^c} - P_t 1_{outer^c})(x)
    with e^{tL} = density(t) * mu in float64 and every sum in long double."""
    space = kernel.space
    gen = generator(kernel)
    start, stop, parent = (a.tolist() for a in (space.tree.start, space.tree.stop,
                                                 space.tree.parent))
    chains = sorted({(start[k], stop[k], start[parent[k]], stop[parent[k]])
                     for k in range(1, len(parent))})
    viol = {}
    for t in time_grid:
        heat = (gen.density(float(t)) * kernel.mu).astype(np.longdouble)

        def outside(s0, s1):
            keep = np.ones(len(space), dtype=bool)
            keep[s0:s1] = False
            return heat[:, keep].sum(axis=1)

        for a0, a1, b0, b1 in chains:
            viol[float(t), a0, a1, b0, b1] = -(outside(a0, a1) - outside(b0, b1)).min()
    return viol


def tail_loop(kernel, beta, c_tj, r0, time_grid, rtol=1e-12):
    """The two records of `tail_probability_check` by its former loop over
    the balls and chains at each time: ((measured, witness, empirical
    factor) of the bound, (measured, witness) of the monotone chains)."""
    space = kernel.space
    classes = heat_pair_classes(kernel, "tail")
    chains = ball_chains(space)[0]
    c_tail = 4.0 * c_tj
    worst = worst_mono = -np.inf
    witness = wit_mono = None
    empirical = 0.0
    for t in time_grid:
        t = float(t)
        sup, chain_min = classes.exits(classes.values(t))
        for k, ball in enumerate(space.balls()):
            exit_prob = float(sup[k])
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
        for c, low in enumerate(chain_min.tolist()):
            if -low > worst_mono:
                worst_mono = -low
                wit_mono = {"t": t, "inner": chains[c][:2], "outer": chains[c][2:]}
    return (worst, witness, empirical), (worst_mono, wit_mono)


def _oracle_kernels():
    cases = []
    for seed in range(6):
        space, kernel = random_scenario(seed)
        cases += [(f"random{seed}-diam", kernel, space.diam),
                  (f"random{seed}-level", kernel, space.distance_levels[1])]
    # unit masses on a regular tree: many densities tie, so the witness
    # rule (first pair in row-major order) decides
    dyadic, _ = generate_space("dyadic", depth=4, q=2.0)
    unit = isotropic_kernel(dyadic, power_profile(3.0), scaling="mass")
    cases += [("dyadic16-diam", unit, dyadic.diam),
              ("dyadic16-level", unit, dyadic.distance_levels[1])]
    return cases


ORACLE_CASES = _oracle_kernels()


@pytest.mark.parametrize("name,kernel,r0", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_chaining_scan_equals_pair_loop(name, kernel, r0):
    cert = wue_certificate(kernel, 1.0, 1.5, r0)
    chaining = cert.checks[0]
    assert chaining.name == "pipeline.chaining"
    worst, witness = chaining_oracle(kernel, 1.0, 1.5, r0, cert.constants["C_DUE"],
                                     cert.constants["C_tail"])
    assert chaining.measured == worst
    assert chaining.witness == witness


@pytest.mark.parametrize("name,kernel,r0", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_monotone_chains_equal_per_chain_loop(name, kernel, r0):
    # a chain's value is a difference of two probabilities near 1, so the
    # worst violation is held to n eps of the oracle, and the witness chain
    # to n eps of the oracle's worst
    grid = log_time_grid(1e-3, 1.0, 17)
    c_tj = tj_constant(kernel, 1.5, r0)
    tol = len(kernel.space) * np.finfo(float).eps
    viol = monotone_oracle(kernel, grid)
    # each time alone as well: on the unit-mass tree several chains tie for
    # the worst violation at some times
    for times in [grid] + [[t] for t in grid]:
        mono = tail_probability_check(kernel, 1.5, c_tj, r0, times).records[1]
        assert mono.name == "bounds.exit_probability_monotone"
        at = {k: v for k, v in viol.items() if k[0] in times}
        worst = max(at.values())
        assert abs(mono.measured - worst) <= tol
        wit = mono.witness
        assert at[(wit["t"], *wit["inner"], *wit["outer"])] >= worst - tol


@pytest.mark.parametrize("name,kernel,r0", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_tail_check_equals_per_ball_loop(name, kernel, r0):
    # one array pass per time against the loop: the same arithmetic, so the
    # values are bitwise equal and the witness is the first worst ball
    grid = log_time_grid(1e-3, 1.0, 17)
    c_tj = tj_constant(kernel, 1.5, r0)
    exit_rec, mono = tail_probability_check(kernel, 1.5, c_tj, r0, grid).records
    (worst, witness, empirical), (worst_mono, wit_mono) = tail_loop(kernel, 1.5, c_tj, r0, grid)
    assert exit_rec.name == "bounds.exit_probability"
    assert repr(exit_rec.measured) == repr(worst)
    assert exit_rec.witness == witness
    assert repr(exit_rec.params["empirical_over_c_tail"]) == repr(empirical)
    assert repr(mono.measured) == repr(worst_mono)
    assert mono.witness == wit_mono


@settings(max_examples=30, deadline=None)
@given(ball_trees(), st.floats(0.5, 3.0), st.floats(0.1, 1.0))
def test_ball_scales_are_the_scalar_powers(case, beta, frac):
    # numpy's vectorised power can differ from Python's in the last bit, and
    # the exit bound and supremum.csv keep the scalar values
    space = case[0]
    r0 = frac * space.diam
    want = [min(b.radius, r0) ** beta for b in space.balls()]
    assert ball_scales(space, r0, beta).tolist() == want


@settings(max_examples=30, deadline=None)
@given(ball_trees(), st.sampled_from([1.0, -1.0]))
def test_closed_form_chain_minima_match_dense(case, sign):
    # min_x P_t 1_{outer minus inner}(x) on every chain: the few values of the
    # engine's closed forms against the dense difference of two exit rows,
    # at the engine tolerance carried to probabilities by mu(X).  A profile
    # that grows with r makes p_t grow with the distance, so that the
    # minimum can sit on a sibling of the inner ball.  The dense values
    # drift by about eps lambda_max t, so the times are set by the largest
    # jump rate
    space, exponent, scale = case
    kernel = isotropic_kernel(space, power_profile(sign * exponent, scale), scaling="mass")
    fast = HierarchicalHeatKernel.from_kernel(kernel).pair_classes()
    gen = generator(kernel)
    dense = gen.pair_classes()
    for t in np.geomspace(1e-4, 1e4, 9) / -np.diagonal(gen.matrix).min():
        values = dense.values(t)
        tol = 1e-10 * values.max() * space.tree.volume[0]
        got, want = fast.exits(fast.values(t))[1], dense.exits(values)[1]
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= tol


def test_chaining_all_near_is_vacuous():
    # a single point: its one pair sits on the diagonal, below every threshold
    kernel = isotropic_kernel(build_tree({"id": "a", "mass": 2.0}), power_profile(3.0),
                              scaling="mass")
    assert chaining_oracle(kernel, 1.0, 1.5, 1.0, 1.0, 1.0) is None
    chaining = wue_certificate(kernel, 1.0, 1.5, 1.0).checks[0]
    assert chaining.name == "pipeline.chaining"
    assert chaining.status == "vacuous"
    assert chaining.measured is None and chaining.witness is None


def _shuffled(spec, rng):
    """The tree of `spec` with the children of every node in an order drawn
    from `rng`: the same space, with its points in another order."""
    if "children" not in spec:
        return spec
    children = [_shuffled(child, rng) for child in spec["children"]]
    rng.shuffle(children)
    return {"radius": spec["radius"], "children": children}


@settings(max_examples=60, deadline=None)
@given(ball_trees(max_points=32), st.floats(0.5, 3.0), st.floats(0.5, 3.0), st.data())
def test_constants_do_not_depend_on_the_order_of_children(case, alpha, beta, data):
    # C_TJ, C_DUE and C_wUE are suprema over points, pairs and times, so the
    # order of the points cannot change them.  The reordered tree sums its
    # ball volumes, tail rows and node values in another order, which moves
    # each by a few ulps, and the scans take their maxima from those values
    # on the same time grid; 1e-12 relative leaves room for that rounding
    # (the worst of 300 draws was 4.3e-16) and none for a point or a pair
    # that a scan misses.  Mass scaling keeps the kernels on the engine.
    space, exponent, scale = case
    r0 = data.draw(st.sampled_from(space.distance_levels))
    rng = data.draw(st.randoms(use_true_random=False))
    constants = []
    for tree in (space, build_tree(_shuffled(space.to_spec(), rng))):
        kernel = isotropic_kernel(tree, power_profile(exponent, scale), scaling="mass")
        constants.append([tj_constant(kernel, beta, r0),
                          due_constant(kernel, alpha, beta, r0).constant,
                          wue_constant(kernel, alpha, beta, r0).constant])
    for a, b in zip(*constants):
        assert abs(a - b) <= 1e-12 * a


# -- the two engines behind the scans ---------------------------------------------------


def dense_engine():
    """Serve the scans from the dense generator, as for a non-isotropic kernel."""
    return mock.patch.object(HierarchicalHeatKernel, "from_kernel",
                             side_effect=NotIsotropic("dense engine forced"))


def _chaining(kernel, alpha, beta, r0, due):
    """The certificate's chaining record, chained from the DUE estimate `due`."""
    with mock.patch.object(bounds, "due_constant", return_value=due):
        return wue_certificate(kernel, alpha, beta, r0).checks[0]


@settings(max_examples=15, deadline=None)
@given(ball_trees(max_points=48), st.floats(0.5, 3.0), st.floats(0.5, 3.0), st.data())
def test_scans_agree_across_engines(case, alpha, beta, data):
    # DUE and wUE agree to 1e-10 relative, the chaining worst to 1e-10 of
    # max(|worst|, max p_2t), the scale of the rounding of p_2t; the witnesses
    # sit at equal distance unless the dense values at the two witnesses tie
    # within that tolerance, where rounding picks either.  The dense
    # eigenvalues carry absolute errors of about eps * lambda_max, which reach
    # p_t as eps * lambda_max * t, so the profile's scale sets the largest
    # jump rate (lambda_max within a factor 2) times R0^beta to `reach`, over
    # which the dense oracle holds 1e-10.  (At a reach of 3e7 the dense wUE
    # scan values were 2e-10 off a 60-digit reference, which the hierarchical
    # ones matched to 2e-16.)
    space, exponent, _ = case
    r0 = data.draw(st.sampled_from(space.distance_levels))
    reach = data.draw(st.floats(1e-2, 1e4))
    unit = generator(isotropic_kernel(space, power_profile(exponent), scaling="mass"))
    scale = reach / (-np.diagonal(unit.matrix).min() * r0 ** beta)
    kernel = isotropic_kernel(space, power_profile(exponent, scale), scaling="mass")
    D = space.distance_matrix()
    density = generator(kernel).density

    def pair(wit):
        return space.index(wit["x"]), space.index(wit["y"])

    def dense_value(est, wit):
        (i, j), t = pair(wit), wit["t"]
        capped = min(D[i, j], r0) if est.kind == "wUE" else 0.0
        return scaled_density(density(t)[i, j], t, alpha, beta, capped)

    # a 17-point first grid keeps the example fast; the dense scans run on
    # a kernel of their own, which keeps what they measure
    with mock.patch.object(bounds, "SCAN_POINTS", 17):
        with dense_engine():
            dense_kernel = JumpKernel(space, kernel.w)
            dense = [scan(dense_kernel, alpha, beta, r0)
                     for scan in (due_constant, wue_constant)]
            dense_chain = _chaining(dense_kernel, alpha, beta, r0, dense[0])
        fast = {a.kind: a for a in (due_constant(kernel, alpha, beta, r0),
                                    wue_constant(kernel, alpha, beta, r0))}
        chain = _chaining(kernel, alpha, beta, r0, dense[0])
    for b in dense:
        a = fast[b.kind]
        assert abs(a.constant - b.constant) <= 1e-10 * b.constant
        wit = a.witnesses[0]
        # the constant is the scaled density at its own witness
        assert abs(dense_value(b, wit) - a.constant) <= 1e-10 * b.constant
        assert D[pair(wit)] == D[pair(b.witnesses[0])] or \
            dense_value(b, wit) >= b.constant * (1 - 1e-10)
    assert chain.status == dense_chain.status
    if chain.status != "vacuous":
        tol = 1e-10 * max(abs(dense_chain.measured),
                          density(2 * dense_chain.witness["t"]).max())
        assert abs(chain.measured - dense_chain.measured) <= tol
        wit = chain.witness
        assert D[pair(wit)] == D[pair(dense_chain.witness)] or \
            density(2 * wit["t"])[pair(wit)] - wit["bound"] * (1 + 1e-12) \
            >= dense_chain.measured - tol


@pytest.mark.parametrize("seed", [0, 1])
def test_scans_share_their_first_grid(seed):
    # on one kernel, DUE and wUE give the bits of scans on kernels of their
    # own, in either order: the first call evaluates the classes as often as
    # a scan alone, and the second evaluates nothing
    space, kernel = random_scenario(seed)  # isotropic for even seeds, raw for odd
    args = (1.0, 1.5, space.diam)
    engine, name = ((HierarchicalHeatKernel, "node_values") if seed % 2 == 0
                    else (SpectralGenerator, "density"))
    evaluate = getattr(engine, name)
    calls = []

    def spy(self, t):
        calls[-1] += 1
        return evaluate(self, t)

    def scan(constant, k):
        calls.append(0)
        with mock.patch.object(engine, name, spy):
            return constant(k, *args)

    def fresh():
        return JumpKernel(space, kernel.w)

    alone = {constant: scan(constant, fresh()) for constant in (due_constant, wue_constant)}
    assert calls[0] == calls[1] > bounds.SCAN_POINTS
    for first, second in ((due_constant, wue_constant), (wue_constant, due_constant)):
        shared = fresh()
        assert scan(first, shared) == alone[first]
        assert calls[-1] == calls[0]
        assert scan(second, shared) == alone[second]
        assert calls[-1] == 0


def test_scans_log_the_engine(caplog, k4):
    caplog.set_level("INFO", logger="ultraheat.bounds")
    wue_certificate(k4, 1.0, 2.0, 2.0)
    raw = np.array(k4.w)
    raw[0, 2] = raw[2, 0] = 0.3
    due_constant(JumpKernel(k4.space, raw), 1.0, 2.0, 2.0)
    lines = [r.getMessage() for r in caplog.records if r.name == "ultraheat.bounds"]
    assert [line.split(":")[0] for line in lines] == [
        "DUE and wUE scans", "nash rho=2.0", "chaining scan", "DUE and wUE scans"]
    # four points and three nodes with two children
    assert all(line.endswith(": hierarchical heat profile, 7 pair classes")
               for line in lines[0:3:2])
    assert lines[3].startswith("DUE and wUE scans: dense densities (not isotropic: ")
