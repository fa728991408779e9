"""Generators, heat kernels, block exactness, and the fast hierarchical path."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from ultraheat import (
    HierarchicalHeatKernel,
    JumpKernel,
    SpectralGenerator,
    build_tree,
    energy,
    generator,
    isotropic_kernel,
    power_profile,
    semigroup_selfcheck,
    tilted_evolution,
)
from ultraheat.errors import DimensionMismatch, EmptyDomain, NotIsotropic
from ultraheat.form import energy_and_scale
from ultraheat.cli import generate_space
from ultraheat.semigroup import ball_chains, exit_probabilities

from conftest import ball_trees, lca_index, profile_nodes, random_scenario


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
                for omega in [None] + [b.members for b in inner[:2]]:
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

    def test_built_once_per_rho(self, k4):
        # the whole-domain generator of each rho is kept on the kernel, and
        # equals a fresh build; a killed one is built on every call
        for rho in (None, 1, 2.0):
            gen = generator(k4, rho=rho)
            assert generator(k4, rho=rho) is gen and gen.rho == (None if rho is None else float(rho))
            fresh = SpectralGenerator(k4, rho=rho)
            assert np.array_equal(gen.density(0.3), fresh.density(0.3))
        assert generator(k4, rho=1.0) is generator(k4, rho=1)
        assert generator(k4, rho=1.0) is not generator(k4, rho=2.0)
        assert generator(k4, omega=["a"]) is not generator(k4, omega=["a"])

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
                        energy_and_scale(kernel, f, g, rho)[0]
                    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_eigen_residual_small(self):
        # |A v - lambda v| in the symmetrised basis v = sqrt(mu) phi, where
        # A = -D^{1/2} L D^{-1/2}, read through the public eigenpairs
        for seed in range(4):
            _, kernel = random_scenario(seed)
            gen = generator(kernel)
            scale = max(1.0, float(np.abs(gen.matrix).max()))
            sqrt_mu = np.sqrt(kernel.mu)
            residual = max(float(np.abs(sqrt_mu * (-gen.matrix @ phi - lam * phi)).max())
                           for lam, phi in gen.eigenpairs())
            assert residual <= 1e-12 * scale

    def test_zero_eigenvalue_constant_mode(self, k4):
        gen = generator(k4)
        lams = np.array([lam for lam, _ in gen.eigenpairs()])
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
                a = gen.density(t) * kernel.mu
                assert np.array_equal(gen.heat_matrix(t), a)
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

    def test_density_rejects_negative_time(self, k4):
        # as `apply_grid` does; e^{tL} at t < 0 is no heat kernel
        with pytest.raises(ValueError, match=r"^times must be >= 0, got -1\.0$"):
            generator(k4).density(-1.0)

    def test_wrong_length_rejected(self, k4):
        # n + 3 and n - 1 entries: neither the grid nor one time reads a prefix
        gen = generator(k4)
        for f in (np.arange(7.0), np.arange(3.0)):
            for evolve in (lambda: gen.apply_grid([0.5], f), lambda: gen.apply(0.5, f)):
                with pytest.raises(DimensionMismatch):
                    evolve()


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

    def test_empty_grid_rejected(self, k4):
        # before, the check passed its five records on no time at all
        with pytest.raises(ValueError, match="^need at least one time, got an empty grid$"):
            semigroup_selfcheck(generator(k4), [])

    def test_corrupted_generator_fails_duality(self, k4):
        gen = generator(k4)
        gen.matrix = gen.matrix + np.triu(np.full((4, 4), 1e-3), 1)
        report = semigroup_selfcheck(gen, [0.5])
        assert [r.name for r in report.failures()] == ["semigroup.duality"]


def engine_spectrum(fast):
    """The eigenvalues of the engine with multiplicity, ascending: 0 once,
    and the eigenvalue of each node once per child beyond its first."""
    mult = np.maximum(fast.space.tree.children - 1, 0)
    return np.sort(np.concatenate(([0.0], np.repeat(fast.eigenvalue, mult))))


def engine_trace(fast, t):
    """sum_x p_t(x, x) mu(x) = sum_k e^{-lambda_k t} over that spectrum."""
    return float(np.exp(-engine_spectrum(fast) * t).sum())


class TestFastIsotropicPath:
    def test_agrees_with_dense_oracle_small(self, s4):
        k = isotropic_kernel(s4, power_profile(3.0), scaling="mass")
        gen = generator(k)
        fast = HierarchicalHeatKernel.from_kernel(k)
        for t in (0.01, 1.0, 100.0):
            dens = gen.density(t)
            values = fast.node_values(t)
            for i in range(len(s4)):
                for j in range(len(s4)):
                    assert values[s4.lca(i, j)] == pytest.approx(
                        dens[i, j], rel=1e-12, abs=1e-12)

    def test_node_values_reject_negative_time(self, k4):
        fast = HierarchicalHeatKernel.from_kernel(k4)
        assert fast.node_values(0.0)[fast.space.tree.leaf].tolist() == [1.0] * 4
        with pytest.raises(ValueError, match=r"^times must be >= 0, got -1\.0$"):
            fast.node_values(-1.0)

    def test_agrees_on_larger_spaces(self):
        for kind, kwargs in (("dyadic", {"depth": 6}), ("bary", {"branching": 3, "depth": 4})):
            space, _ = generate_space(kind, mass_law="uniform", seed=5, **kwargs)
            k = isotropic_kernel(space, power_profile(2.2), scaling="mass")
            gen = generator(k)
            fast = HierarchicalHeatKernel.from_kernel(k)
            rng = np.random.default_rng(0)
            for t in (0.05, 2.0):
                dens = gen.density(t)
                values = fast.node_values(t)
                assert np.abs(values[space.tree.leaf] - np.diagonal(dens)).max() <= 1e-10
                for _ in range(40):
                    i, j = rng.integers(0, len(space), 2)
                    assert values[space.lca(i, j)] == pytest.approx(
                        dens[i, j], rel=1e-10, abs=1e-12)

    def test_function_entry_point(self, s4):
        k = isotropic_kernel(s4, power_profile(3.0), scaling="mass")
        dens = generator(k).density(0.3)
        fast = HierarchicalHeatKernel(s4, profile_nodes(s4, power_profile(3.0)))
        vals = fast.node_values(0.3)[s4.lca([0, 0, 3], [1, 2, 3])].tolist()
        assert vals == pytest.approx([dens[0, 1], dens[0, 2], dens[3, 3]], rel=1e-12)

    def test_not_isotropic_rejected(self, s4):
        rng = np.random.default_rng(0)
        w = rng.uniform(0.1, 1.0, (4, 4))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        with pytest.raises(NotIsotropic):
            HierarchicalHeatKernel.from_kernel(JumpKernel(s4, w))

    def test_engine_is_built_once_per_kernel(self, k8):
        # truncated engines are derived from the kept whole-space engine
        full = HierarchicalHeatKernel.from_kernel(k8)
        assert HierarchicalHeatKernel.from_kernel(k8) is full
        rho = k8.space.distance_levels[0]
        trunc = HierarchicalHeatKernel.from_kernel(k8, rho)
        assert trunc is not full and trunc._path_row is full._path_row
        assert np.array_equal(trunc.node_values(0.3),
                              HierarchicalHeatKernel(k8.space, k8.node_profile())
                              .truncated(rho).node_values(0.3))

    def test_trace_identity(self):
        space, _ = generate_space("dyadic", depth=8, seed=0)
        fast = HierarchicalHeatKernel(space, profile_nodes(space, power_profile(3.0)))
        for t in (0.1, 1.0):
            diag_trace = float((fast.node_values(t)[space.tree.leaf] * space.masses).sum())
            assert diag_trace == pytest.approx(engine_trace(fast, t), rel=1e-12)

    def test_eigenvalues_match_dense(self):
        space, _ = generate_space("dyadic", depth=4, mass_law="uniform", seed=3)
        k = isotropic_kernel(space, power_profile(2.0), scaling="mass")
        fast = HierarchicalHeatKernel.from_kernel(k)
        dense = [lam for lam, _ in generator(k).eigenpairs()]
        assert np.allclose(engine_spectrum(fast), dense, rtol=1e-10, atol=1e-10)

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
        assert sorted({b.radius for b in space.balls()}) == [1.0, 3.0, 4.0]
        k = isotropic_kernel(space, power_profile(2.0), scaling="mass")
        fast = HierarchicalHeatKernel.from_kernel(k)
        dens = generator(k).density(0.7)
        values = fast.node_values(0.7)
        for i in range(len(space)):
            for j in range(len(space)):
                assert values[space.lca(i, j)] == pytest.approx(
                    dens[i, j], rel=1e-12, abs=1e-13)
        dense = [lam for lam, _ in generator(k).eigenpairs()]
        assert np.allclose(engine_spectrum(fast), dense, atol=1e-12)


    def test_clamps_tiny_eigenvalues_like_dense(self):
        # lambda = 2 g(4096) mu(X) = 6.5e-14 lies below EIGENVALUE_CLAMP, so
        # both engines keep p_t at its t = 0 value
        from ultraheat import build_tree
        space = build_tree({"radius": 4096.0, "children": [{"id": "a", "mass": 6.4},
                                                           {"id": "b", "mass": 2.8}]})
        k = isotropic_kernel(space, power_profile(4.0), scaling="mass")
        fast = HierarchicalHeatKernel.from_kernel(k)
        dense = [lam for lam, _ in generator(k).eigenpairs()]
        assert engine_spectrum(fast).tolist() == dense == [0.0, 0.0]
        # the nodes in preorder: the root, then the leaves a and b
        assert fast.node_values(4096.0).tolist() == [0.0, 1 / 6.4, 1 / 2.8]


# -- the hierarchical engine against the dense oracle --------------------------------

ENGINE_TIMES = np.geomspace(1e-4, 1e4, 9)


@settings(max_examples=40, deadline=None)
@given(ball_trees(), st.floats(0.1, 10.0))
def test_hierarchical_profile_matches_dense(case, c):
    space, exponent, scale = case
    kernel = isotropic_kernel(space, power_profile(exponent, scale), scaling="mass")
    fast = HierarchicalHeatKernel.from_kernel(kernel)
    faster = HierarchicalHeatKernel(space,
                                    profile_nodes(space, power_profile(exponent, c * scale)))
    # p_t(c w) = p_{ct}(w) holds unless c moves an eigenvalue across the
    # clamp to zero below EIGENVALUE_CLAMP, a convention of both engines
    assume(np.array_equal(fast.eigenvalue == 0, faster.eigenvalue == 0))
    gen = generator(kernel)
    lca = lca_index(space)
    for t in ENGINE_TIMES:
        dens = gen.density(t)
        tol = 1e-10 * dens.max()
        values = fast.node_values(t)
        assert np.abs(values[lca] - dens).max() <= tol
        # p_t(c w) = p_{ct}(w)
        assert np.abs(faster.node_values(t / c)[lca] - values[lca]).max() <= tol


@settings(max_examples=40, deadline=None)
@given(ball_trees())
def test_node_profile_engine_matches_level_evaluation(case):
    # the engine of `node_profile` against the reference: the mass-scaled
    # weights averaged on each distance level, evaluated at each distinct
    # radius of the nodes that branch (`profile_nodes`); bit for bit, also
    # truncated
    space, exponent, scale = case
    kernel = isotropic_kernel(space, power_profile(exponent, scale), scaling="mass")
    D, mu = space.distance_matrix(), space.masses
    scaled = kernel.w / np.outer(mu, mu)
    by_level = {r: 0.5 * (float(scaled[D == r].min()) + float(scaled[D == r].max()))
                for r in space.distance_levels}
    reference = HierarchicalHeatKernel(space, profile_nodes(space, by_level.__getitem__))
    rho = space.distance_levels[0]
    for engine, want in ((HierarchicalHeatKernel.from_kernel(kernel), reference),
                         (HierarchicalHeatKernel.from_kernel(kernel, rho),
                          reference.truncated(rho))):
        for t in ENGINE_TIMES:
            assert np.array_equal(engine.node_values(t), want.node_values(t))


def _leaves(masses, first=0):
    return [{"id": f"p{first + k}", "mass": m} for k, m in enumerate(masses)]


# chain B = [13, 16) in P = [12, 16): mu(P minus B) = mu(p12) is 0.15 of
# mu(P) = 16.1, so mu(P) - mu(B) was 42 eps off it and failed the oracle
SMALL_REST_TREE = {"radius": 5.0625, "children": [{"radius": 3.375, "children": [
    {"radius": 2.25, "children": [
        {"radius": 1.5, "children": _leaves([2.404452815968807, 1.6921438169453047])},
        {"radius": 1.5, "children": _leaves([3.5420528242525005, 1.3640690766148231], 2)},
        {"radius": 1.5, "children": _leaves([8.047919991733158, 6.957807017802052,
                                             9.311901865663788, 8.230506862170449], 4)},
        {"radius": 1.5, "children": _leaves([7.555669496997293, 0.9581460503773919,
                                             3.322390928421227, 8.481137794685539], 8)}]},
    {"radius": 2.25, "children": [
        *_leaves([0.1514825791705331], 12),
        {"radius": 1.5, "children": _leaves([7.342583192520725, 1.6017505155609275,
                                             7.017397258044614], 13)}]}]}]}


@settings(max_examples=25, deadline=None)
@given(ball_trees(max_points=16))
@example((build_tree(SMALL_REST_TREE), 1.0, 1.0))
def test_engine_matches_exact_oracle(case):
    # node_values, exits and chain_minima within 32 eps relative of p_t from
    # one 50-digit eigendecomposition of the symmetrised generator, taken on
    # the float weights and masses of the kernel; a non-growing profile
    # keeps every term of the engine's sums nonnegative
    mp = pytest.importorskip("mpmath")
    space, exponent, scale = case
    kernel = isotropic_kernel(space, power_profile(exponent, scale), scaling="mass")
    engine = HierarchicalHeatKernel.from_kernel(kernel)
    n, tree = len(space), space.tree
    lca = lca_index(space)
    spans = list(zip(tree.start.tolist(), tree.stop.tolist()))
    eps32 = 32 * np.finfo(float).eps
    with mp.workdps(50):
        mu = [mp.mpf(float(m)) for m in space.masses]
        root = [mp.sqrt(m) for m in mu]
        a = mp.matrix(n, n)
        for i in range(n):
            a[i, i] = 2 * mp.fsum(mp.mpf(float(v)) for v in kernel.w[i]) / mu[i]
            for j in range(i):
                a[i, j] = a[j, i] = -2 * mp.mpf(float(kernel.w[i, j])) / (root[i] * root[j])
        lam, vec = mp.eigsy(a)
        # the clamp of both engines zeroes eigenvalues below EIGENVALUE_CLAMP
        assume(sorted(lam)[1] >= 1e-9)
        phi = [[vec[x, k] / root[x] for k in range(n)] for x in range(n)]

        def holds(got, want):
            return all(abs(mp.mpf(float(g)) - w) <= eps32 * w for g, w in zip(got, want))

        for t in ENGINE_TIMES:
            decay = [mp.exp(-lam[k] * mp.mpf(float(t))) for k in range(n)]
            p = [[mp.fsum(phi[x][k] * phi[y][k] * decay[k] for k in range(n))
                  for y in range(n)] for x in range(n)]
            values = engine.node_values(t)
            assert holds(values[lca].ravel(), [v for row in p for v in row])
            def heat(x, ys):  # P_t 1_S(x) = sum_{y in S} p_t(x, y) mu(y)
                return mp.fsum(p[x][y] * mu[y] for y in ys)

            exits = [max(heat(x, [y for y in range(n) if not b0 <= y < b1])
                         for x in range(b0, b1)) for b0, b1 in spans]
            assert holds(engine.exits(values), exits)
            minima = [min(heat(x, [*range(p0, b0), *range(b1, p1)]) for x in range(n))
                      for b0, b1, p0, p1 in ball_chains(space)[0]]
            assert holds(engine.chain_minima(values), minima)


@settings(max_examples=40, deadline=None)
@given(ball_trees())
def test_pair_classes_hold_their_first_pairs(case):
    # classes sorted by first pair; each first pair is the row-major-first
    # pair of its class, whose value is that of its point or node
    space, exponent, scale = case
    fast = HierarchicalHeatKernel(space, profile_nodes(space, power_profile(exponent, scale)))
    classes = fast.pair_classes()
    n = len(space)
    key = classes.rows * n + classes.cols
    assert np.all(np.diff(key) > 0)
    lca = lca_index(space)
    node = lca[classes.rows, classes.cols]
    off = classes.rows != classes.cols
    firsts = [np.argwhere(lca == k)[0].tolist() for k in node[off]]
    assert firsts == np.column_stack((classes.rows, classes.cols))[off].tolist()
    assert classes.rows[~off].tolist() == list(range(n))
    assert np.array_equal(classes.dist, space.distance_matrix()[classes.rows, classes.cols])
    assert np.array_equal(classes.values(0.7), fast.node_values(0.7)[node])


@settings(max_examples=30, deadline=None)
@given(ball_trees())
def test_engine_exits_match_dense(case):
    # the exit from a ball is one value per node, the sup over its points;
    # an exit sums p_t mu, so the density tolerance scales by mu(X)
    space, exponent, scale = case
    kernel = isotropic_kernel(space, power_profile(exponent, scale), scaling="mass")
    classes = HierarchicalHeatKernel.from_kernel(kernel).pair_classes()
    gen = generator(kernel)
    for t in ENGINE_TIMES:
        dens = gen.density(t)
        sup = classes.exits(classes.values(t))[0]
        tol = 1e-10 * dens.max() * space.tree.volume[0]
        assert np.abs(sup - exit_probabilities(space, dens)[0]).max() <= tol


@pytest.mark.parametrize("seed", [1, 3, 5])
def test_dense_chain_minima_keep_relative_accuracy(seed):
    # min_x P_t 1_{P minus B}(x) from the dense density of a raw matrix
    # kernel at small t, against long-double sums of the same products
    # p_t(x, y) mu(y).  Each value sums fewer than n positive terms, so it
    # holds n eps relative; the difference of two exit rows near 1 kept only
    # n eps absolute
    space, kernel = random_scenario(seed)
    n = len(space)
    classes = generator(kernel).pair_classes()
    for t in (1e-5, 1e-3):
        values = classes.values(t)
        heat = (values.reshape(n, n) * space.masses).astype(np.longdouble)
        want = np.array([(heat[:, p0:b0].sum(axis=1) + heat[:, b1:p1].sum(axis=1)).min()
                         for b0, b1, p0, p1 in ball_chains(space)[0]])
        got = classes.exits(values)[1]
        assert np.all(np.abs(got - want) <= n * np.finfo(float).eps * want)


@settings(max_examples=30, deadline=None)
@given(ball_trees())
def test_truncated_engine_matches_dense_blocks(case):
    # every pair read through `index`: exactly 0.0 across the balls of radius
    # rho, the dense truncated density inside them
    space, exponent, scale = case
    kernel = isotropic_kernel(space, power_profile(exponent, scale), scaling="mass")
    n = len(space)
    D = space.distance_matrix()
    rows, cols = np.divmod(np.arange(n * n), n)
    for rho in space.distance_levels:
        classes = HierarchicalHeatKernel.from_kernel(kernel, rho).pair_classes()
        at = classes.index(rows, cols).reshape(n, n)
        gen = generator(kernel, rho=rho)
        for t in ENGINE_TIMES:
            dens, fast = gen.density(t), classes.values(t)[at]
            assert np.all(fast[D > rho] == 0.0)
            assert np.abs(fast - dens).max() <= 1e-10 * dens.max()
