"""Generators, heat kernels, block exactness, and the fast hierarchical path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from ultraheat import (
    HierarchicalHeatKernel,
    energy,
    energy_trunc,
    generator,
    isotropic_kernel,
    power_profile,
    semigroup_selfcheck,
    tilted_evolution,
)
from ultraheat.errors import EmptyDomain, NotIsotropic
from ultraheat.cli import generate_space

from conftest import random_scenario


class TestGenerator:
    def test_two_point_matrix(self, k2):
        # the duality <-Lf, g> = E(f, g) forces the factor 2
        gen = generator(k2)
        assert np.array_equal(gen.matrix, [[-2.0, 2.0], [2.0, -2.0]])

    def test_truncated_block_diagonal(self, k4):
        gen = generator(k4, rho=1.0)
        assert gen.matrix[0, 2] == 0.0 and gen.matrix[0, 3] == 0.0
        assert len(gen.blocks) == 2

    def test_restricted_single_point_kill_rate(self, k4):
        gen = generator(k4, omega=["a"])
        assert gen.matrix.shape == (1, 1)
        assert gen.matrix[0, 0] == pytest.approx(-2.0 * 1.25, rel=1e-15)

    def test_blocks_are_the_components_in_index_order(self):
        for seed in range(6):
            space, kernel = random_scenario(seed)
            inner = [b for b in space.balls() if 0 < b.radius < space.diam]
            for rho in (None,) + space.distance_levels:
                for omega in [None] + inner[:2]:
                    gen = generator(kernel, rho=rho, omega=omega)
                    firsts = [int(b[0]) for b in gen.blocks]
                    assert firsts == sorted(firsts)
                    assert all(np.all(np.diff(b) > 0) for b in gen.blocks)
                    assert np.array_equal(np.sort(np.concatenate(gen.blocks)),
                                          np.arange(gen.size))
                    for i, a in enumerate(gen.blocks):
                        for b in gen.blocks[i + 1:]:
                            assert not gen.matrix[np.ix_(a, b)].any()

    def test_empty_domain(self, k4):
        with pytest.raises(EmptyDomain):
            generator(k4, omega=[])

    def test_duality_exact(self):
        rng = np.random.default_rng(0)
        for seed in range(6):
            _, kernel = random_scenario(seed, max_points=64)
            mu = kernel.mu
            for rho in (None,) + kernel.space.distance_levels:
                gen = generator(kernel, rho=rho)
                for _ in range(5):
                    f = rng.normal(size=len(kernel.space))
                    g = rng.normal(size=len(kernel.space))
                    lhs = -float((g * mu) @ (gen.matrix @ f))
                    rhs = energy(kernel, f, g) if rho is None else \
                        energy_trunc(kernel, f, g, rho)
                    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_eigen_residual_small(self):
        for seed in range(4):
            _, kernel = random_scenario(seed)
            gen = generator(kernel)
            scale = max(1.0, float(np.abs(gen.matrix).max()))
            assert gen.eigen_residual() <= 1e-12 * scale

    def test_zero_eigenvalue_constant_mode(self, k4):
        gen = generator(k4)
        lams = gen.eigenvalues()
        assert lams[0] == 0.0 and np.all(lams >= 0.0)
        ones = np.ones(4)
        assert np.allclose(gen.apply(5.0, ones), ones, atol=1e-12)


class TestHeatKernel:
    def test_two_point_closed_form(self, k2):
        dens = generator(k2).density(0.25)
        assert dens[0, 1] == pytest.approx((1 - np.exp(-1)) / 2, abs=1e-15)
        assert dens[0, 0] == pytest.approx((1 + np.exp(-1)) / 2, abs=1e-15)

    def test_long_time_limit(self, k4):
        dens = generator(k4).density(1e6)
        assert np.allclose(dens, 1.0 / 4.0, atol=1e-12)

    def test_spectral_matches_expm(self):
        for seed in range(6):
            _, kernel = random_scenario(seed, max_points=64)
            gen = generator(kernel)
            for t in (1e-3, 0.1, 1.0, 10.0):
                a = gen.heat_matrix(t)
                b = expm(t * gen.matrix)
                assert np.abs(a - b).max() <= 1e-10 * max(1.0, np.abs(b).max())

    def test_truncated_cross_block_bitwise_zero(self, k4):
        gen = generator(k4, rho=1.0)
        for t in (1e-3, 0.5, 1e3):
            dens = gen.density(t)
            assert dens[0, 2] == 0.0
            assert dens[0, 3] == 0.0
            assert dens[1, 2] == 0.0

    def test_truncated_block_closed_form(self, k4):
        dens = generator(k4, rho=1.0).density(0.5)
        assert dens[0, 1] == pytest.approx((1 - np.exp(-2)) / 2, abs=1e-15)

    def test_truncation_beyond_diam_is_full(self, k4):
        full = generator(k4).density(0.7)
        trunc = generator(k4, rho=2.0).density(0.7)
        assert np.allclose(full, trunc, atol=1e-14)

    def test_restricted_domination(self):
        # killed semigroups on random unions of balls stay between 0 and
        # the full semigroup on nonnegative functions
        rng = np.random.default_rng(2)
        for seed in range(4):
            space, kernel = random_scenario(seed)
            cells = space.partition(space.distance_levels[0])
            pick = rng.random(len(cells)) < 0.6
            if not pick.any():
                pick[0] = True
            omega_ids = [p for cell, used in zip(cells, pick) if used
                         for p in cell.members]
            mask = np.zeros(len(space))
            for p in omega_ids:
                mask[space.index(p)] = 1.0
            gfull, gom = generator(kernel), generator(kernel, omega=omega_ids)
            f = rng.uniform(0, 1, len(space)) * mask
            for t in (0.1, 1.0):
                po, pf = gom.apply(t, f), gfull.apply(t, f)
                assert np.all(po >= -1e-12)
                assert np.all(po <= pf + 1e-12)

    def test_negative_time_rejected(self, k4):
        gen = generator(k4)
        with pytest.raises(ValueError):
            gen.apply(-1.0, np.ones(4))
        with pytest.raises(ValueError):
            gen.apply_grid([0.5, -1e-9], np.ones(4))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=1e-4, max_value=1e3))
def test_truncated_density_vanishes_across_blocks(seed, t):
    _, kernel = random_scenario(seed, max_points=32)
    D = kernel.space.distance_matrix()
    for rho in kernel.space.distance_levels:
        dens = generator(kernel, rho=rho).density(t)
        assert np.all(dens[D > rho] == 0.0)


class TestPerturbedSemigroup:
    def test_time_zero_identity(self, s4, k4):
        gen = generator(k4, rho=1.0)
        psi = 3.0 * s4.ball("a", 1).indicator()
        f = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(tilted_evolution(gen, psi, f)([0.0])[:, 0], f, atol=1e-14)

    def test_zero_tilt_matches_plain(self, s4, k4):
        gen = generator(k4, rho=1.0)
        psi = np.zeros(4)
        f = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(tilted_evolution(gen, psi, f)([0.7])[:, 0],
                           gen.apply(0.7, f), atol=1e-14)

    def test_block_constant_tilt_cancels(self, s4, k4):
        # psi constant on each block of the rho-partition: the conjugation
        # cancels exactly and the tilted evolution equals the plain one
        gen = generator(k4, rho=1.0)
        psi = 3.0 * s4.ball("a", 1).indicator()
        f = np.array([1.0, 0.0, 0.0, 0.0])
        got = tilted_evolution(gen, psi, f)([0.9])[:, 0]
        assert np.isfinite(got).all()
        assert np.allclose(got, gen.apply(0.9, f), atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.data())
def test_tilt_constant_on_blocks_cancels(seed, data):
    # psi = lam 1_B with radius(B) >= rho is constant on every rho-block, so
    # the conjugation by e^psi cancels on each block
    space, kernel = random_scenario(seed, max_points=32)
    rho = data.draw(st.sampled_from(space.distance_levels))
    ball = data.draw(st.sampled_from([b for b in space.balls() if b.radius >= rho]))
    lam = data.draw(st.floats(min_value=-5.0, max_value=5.0))
    times = data.draw(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1,
                               max_size=4))
    f = np.random.default_rng(seed).uniform(0.0, 1.0, len(space))
    gen = generator(kernel, rho=rho)
    got = tilted_evolution(gen, lam * ball.indicator(), f)(times)
    want = gen.apply_grid(times, f)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestSelfCheck:
    def test_clean_pass(self, k2, k4):
        grid = [0.05, 0.5, 5.0]
        assert semigroup_selfcheck(generator(k2), grid).passed
        assert semigroup_selfcheck(generator(k4), grid).passed
        assert semigroup_selfcheck(generator(k4, rho=1.0), grid).passed

    def test_random_scenarios(self):
        for seed in range(5):
            _, kernel = random_scenario(seed)
            report = semigroup_selfcheck(generator(kernel), [0.05, 0.5, 5.0])
            assert report.passed, [r.name for r in report.failures()]

    def test_corrupted_generator_fails_duality(self, k4):
        gen = generator(k4)
        gen.matrix = gen.matrix + np.triu(np.full((4, 4), 1e-3), 1)
        report = semigroup_selfcheck(gen, [0.5])
        assert [r.name for r in report.failures()] == ["semigroup.duality"]


class TestFastIsotropicPath:
    def test_agrees_with_dense_oracle_small(self, s4):
        k = isotropic_kernel(s4, power_profile(3.0), scaling="mass")
        gen = generator(k)
        fast = HierarchicalHeatKernel.from_kernel(k)
        for t in (0.01, 1.0, 100.0):
            dens = gen.density(t)
            for i, x in enumerate(s4.ids):
                for j, y in enumerate(s4.ids):
                    assert fast.value(t, x, y) == pytest.approx(
                        dens[i, j], rel=1e-12, abs=1e-12)

    def test_agrees_on_larger_spaces(self):
        for kind, kwargs in (("dyadic", {"depth": 6}), ("bary", {"branching": 3, "depth": 4})):
            space, _ = generate_space(kind, mass_law="uniform", seed=5, **kwargs)
            k = isotropic_kernel(space, power_profile(2.2), scaling="mass")
            gen = generator(k)
            fast = HierarchicalHeatKernel.from_kernel(k)
            rng = np.random.default_rng(0)
            for t in (0.05, 2.0):
                dens = gen.density(t)
                diag = fast.diagonal(t)
                assert np.abs(diag - np.diagonal(dens)).max() <= 1e-10
                for _ in range(40):
                    i, j = rng.integers(0, len(space), 2)
                    assert fast.value(t, space.ids[i], space.ids[j]) == pytest.approx(
                        dens[i, j], rel=1e-10, abs=1e-12)

    def test_function_entry_point(self, s4):
        k = isotropic_kernel(s4, power_profile(3.0), scaling="mass")
        dens = generator(k).density(0.3)
        fast = HierarchicalHeatKernel(s4, power_profile(3.0))
        vals = [fast.value(0.3, x, y) for x, y in [("a", "b"), ("a", "c"), ("d", "d")]]
        assert vals == pytest.approx([dens[0, 1], dens[0, 2], dens[3, 3]], rel=1e-12)

    def test_not_isotropic_rejected(self, s4):
        rng = np.random.default_rng(0)
        w = rng.uniform(0.1, 1.0, (4, 4))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        from ultraheat import from_matrix
        with pytest.raises(NotIsotropic):
            HierarchicalHeatKernel.from_kernel(from_matrix(s4, w))

    def test_trace_identity(self):
        space, _ = generate_space("dyadic", depth=8, seed=0)
        fast = HierarchicalHeatKernel(space, power_profile(3.0))
        for t in (0.1, 1.0):
            diag_trace = float((fast.diagonal(t) * space.masses).sum())
            assert diag_trace == pytest.approx(fast.trace(t), rel=1e-12)

    def test_eigenvalues_match_dense(self):
        space, _ = generate_space("dyadic", depth=4, mass_law="uniform", seed=3)
        k = isotropic_kernel(space, power_profile(2.0), scaling="mass")
        fast = HierarchicalHeatKernel.from_kernel(k)
        dense = generator(k).eigenvalues()
        assert np.allclose(np.sort(fast.eigenvalues()), dense, rtol=1e-10, atol=1e-10)

    def test_single_child_chain_node(self):
        # a nested ball with one child is a legal tree node whose radius is
        # not a realised distance; it must not disturb the fast path
        from ultraheat import build_tree
        space = build_tree({"radius": 4, "children": [
            {"radius": 3, "children": [
                {"radius": 1, "children": [{"id": "a", "mass": 1},
                                           {"id": "b", "mass": 2}]},
            ]},
            {"id": "c", "mass": 1.5},
        ]})
        assert space.distance_levels == (1.0, 4.0)
        assert space.radii == (1.0, 3.0, 4.0)
        k = isotropic_kernel(space, power_profile(2.0), scaling="mass")
        fast = HierarchicalHeatKernel.from_kernel(k)
        dens = generator(k).density(0.7)
        for i, x in enumerate(space.ids):
            for j, y in enumerate(space.ids):
                assert fast.value(0.7, x, y) == pytest.approx(
                    dens[i, j], rel=1e-12, abs=1e-13)
        assert np.allclose(np.sort(fast.eigenvalues()),
                           generator(k).eigenvalues(), atol=1e-12)
