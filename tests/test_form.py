"""Energy form and its truncation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraheat import (
    build_tree,
    energy,
    indicator_energy_check,
    isotropic_kernel,
    power_profile,
)
from ultraheat.davies import nash_quotients, nash_ratio_batch
from ultraheat.errors import DimensionMismatch
from ultraheat.form import energy_and_scale, energy_batch
from ultraheat.kernel import JumpKernel

from conftest import ball_trees, random_scenario


def brute_energy(kernel, f, g, rho=None):
    """Oracle: explicit double loop over ordered pairs."""
    D = kernel.space.distance_matrix()
    total = 0.0
    n = len(kernel.space)
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            if rho is not None and D[x, y] > rho:
                continue
            total += (f[x] - f[y]) * (g[x] - g[y]) * kernel.w[x, y]
    return total


def dense_energy_and_scale(kernel, f, g, rho=None):
    """Oracle: the masked sum over the full n x n array of ordered-pair terms."""
    terms = (f[:, None] - f[None, :]) * (g[:, None] - g[None, :]) * kernel.w
    if rho is not None:
        terms = np.where(kernel.space.distance_matrix() <= rho, terms, 0.0)
    return float(terms.sum()), float(np.abs(terms).sum())


ORACLE_RTOL = 1e-13  # of the oracle's scale: the pair sums differ only in order


def _assert_matches_oracle(kernel, f, g, rho):
    val, scale = energy_and_scale(kernel, f, g, rho)
    ref_val, ref_scale = dense_energy_and_scale(kernel, f, g, rho)
    assert abs(val - ref_val) <= ORACLE_RTOL * ref_scale
    assert abs(scale - ref_scale) <= ORACLE_RTOL * ref_scale


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_pair_list_energy_matches_dense_oracle(seed, same):
    _, kernel = random_scenario(seed % 20, max_points=32)
    rng = np.random.default_rng(seed)
    n = len(kernel.space)
    f = rng.normal(scale=float(rng.uniform(0.1, 10.0)), size=n)
    g = f if same else rng.normal(size=n)
    for rho in (None,) + kernel.space.distance_levels:
        _assert_matches_oracle(kernel, f, g, rho)


def test_pair_list_energy_independent_of_call_order():
    for seed in range(4):
        space, kernel = random_scenario(seed, max_points=32)
        rng = np.random.default_rng(seed)
        f, g = rng.normal(size=len(space)), rng.normal(size=len(space))
        rhos = (None,) + space.distance_levels
        ascending = [energy_and_scale(kernel, f, g, rho) for rho in rhos]
        other = JumpKernel(space, kernel.w.copy())
        descending = [energy_and_scale(other, f, g, rho) for rho in reversed(rhos)][::-1]
        fresh = [energy_and_scale(JumpKernel(space, kernel.w.copy()), f, g, rho)
                 for rho in rhos]
        assert ascending == descending == fresh


def test_kept_pairs_are_read_only_prefixes_of_one_list():
    space, kernel = random_scenario(1, max_points=32)
    full = kernel.kept_pairs()
    assert [a.dtype for a in full[:2]] == [np.int32, np.int32]
    for a in full:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    for rho in space.distance_levels:
        kept = kernel.kept_pairs(rho)
        D = space.distance_matrix()
        assert np.all(D[kept[0], kept[1]] <= rho)
        assert len(kept[0]) == np.count_nonzero(np.triu(D <= rho, 1) & (kernel.w > 0))
        for part, whole in zip(kept, full):
            assert np.shares_memory(part, whole) or len(part) == 0
            assert np.array_equal(part, whole[:len(part)])
    assert len(kernel.kept_pairs(0.0)[0]) == 0


def test_zero_weights_give_oracle_values():
    space, kernel = random_scenario(3, max_points=32)
    rng = np.random.default_rng(5)
    n = len(space)
    w = np.array(kernel.w)
    drop = np.triu(rng.uniform(size=(n, n)) < 0.4, 1)
    w[drop | drop.T] = 0.0
    sparse = JumpKernel(space, w)
    assert len(sparse.kept_pairs()[0]) == np.count_nonzero(np.triu(w > 0, 1))
    f, g = rng.normal(size=n), rng.normal(size=n)
    for rho in (None,) + space.distance_levels:
        _assert_matches_oracle(sparse, f, g, rho)


def test_constant_column_has_zero_energy_and_exact_nash_quotient():
    # p0 beside a radius-243 ball {p1, p2, p3}, at radius 729, growing
    # profile 0.5 r^3: the quadratic operator's rounding used to give a
    # constant a signed energy of up to 1e-5 and so a wrong Nash quotient
    rng = np.random.default_rng(0)
    nu, k0 = 0.3, 2 * 729.0 ** -1.5
    for _ in range(200):
        m = rng.uniform(0.1, 10.0, 4)
        space = build_tree({"radius": 729, "children": [
            {"id": "p0", "mass": m[0]},
            {"radius": 243, "children": [{"id": f"p{i}", "mass": m[i]} for i in (1, 2, 3)]}]})
        kernel = isotropic_kernel(space, power_profile(-3.0, 0.5), scaling="mass")
        ones = np.ones((4, 1))
        for rho in (None, 243.0, 729.0):
            assert energy_batch(kernel, ones, rho).tolist() == [0.0]
        # ||1||_2^2 = ||1||_1 = mu(X), and E_rho(1) = 0
        mass = space.masses[:, None].sum(axis=0)
        exact = nash_quotients(np.zeros(1), mass, mass, nu, k0)
        assert nash_ratio_batch(kernel, 729.0, nu, k0, ones).tolist() == exact.tolist()


@settings(max_examples=40, deadline=None)
@given(ball_trees(max_points=32), st.integers(0, 2 ** 32 - 1))
def test_energy_batch_against_pair_sums(case, seed):
    # columns constant on every rho-block, the same plus small noise, and
    # plain random ones: the first get exactly 0, none is negative, and each
    # agrees with the exact sum of its pair terms
    space, exponent, scale = case
    kernel = isotropic_kernel(space, power_profile(exponent, scale), scaling="mass")
    rng = np.random.default_rng(seed)
    n = len(space)
    D = space.distance_matrix()
    for rho in (None,) + space.distance_levels:
        sizes = [len(b) for b in (space.partition(rho) if rho is not None else [space])]
        steps = np.column_stack([np.repeat(rng.normal(size=len(sizes)), sizes)
                                 * 10.0 ** rng.uniform(-3, 3) for _ in range(3)])
        U = np.column_stack((steps, steps + 1e-3 * rng.normal(size=(n, 3)),
                             rng.normal(size=(n, 3))))
        e = energy_batch(kernel, U, rho)
        assert e[:3].tolist() == [0.0] * 3
        assert np.all(e >= 0.0)
        kept = (D <= rho if rho is not None else np.ones((n, n), dtype=bool)) \
            & ~np.eye(n, dtype=bool)
        for k, u in enumerate(U.T):
            exact = math.fsum(((u[:, None] - u[None, :]) ** 2 * kernel.w)[kept].tolist())
            assert abs(e[k] - exact) <= 1e-12 * exact


class TestEnergy:
    def test_indicator_block(self, s4, k4):
        ind = s4.ball("a", 1).indicator()
        assert energy(k4, ind, ind) == pytest.approx(1.0, rel=1e-14)

    def test_truncated_block_constant(self, s4, k4):
        ind = s4.ball("a", 1).indicator()
        assert energy_and_scale(k4, ind, ind, 1.0)[0] == 0.0

    def test_constant_has_zero_energy(self, k4):
        c = np.full(4, 3.7)
        f = np.array([1.0, -2.0, 0.5, 4.0])
        assert energy(k4, f, c) == 0.0

    def test_against_brute_force(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            _, kernel = random_scenario(seed)
            n = len(kernel.space)
            f, g = rng.normal(size=n), rng.normal(size=n)
            assert energy(kernel, f, g) == pytest.approx(
                brute_energy(kernel, f, g), rel=1e-12, abs=1e-12)
            for rho in kernel.space.distance_levels:
                assert energy_and_scale(kernel, f, g, rho)[0] == pytest.approx(
                    brute_energy(kernel, f, g, rho), rel=1e-12, abs=1e-12)

    def test_dimension_mismatch(self, k4):
        with pytest.raises(DimensionMismatch):
            energy(k4, np.ones(3), np.ones(4))

    def test_bilinear_symmetry(self, k4):
        rng = np.random.default_rng(0)
        f, g = rng.normal(size=4), rng.normal(size=4)
        assert energy(k4, f, g) == pytest.approx(energy(k4, g, f), rel=1e-14)
        assert energy(k4, 2 * f, g) == pytest.approx(2 * energy(k4, f, g), rel=1e-14)


class TestTruncationMonotonicity:
    def test_nondecreasing_in_rho(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            _, kernel = random_scenario(seed)
            f = rng.normal(size=len(kernel.space))
            vals = [energy_and_scale(kernel, f, f, rho)[0]
                    for rho in kernel.space.distance_levels]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
            assert vals[-1] == pytest.approx(energy(kernel, f, f), rel=1e-12)

    def test_difference_bound(self):
        # E(u) - E_rho(u) <= 4 ||u||_2^2 sup tail(., rho)
        rng = np.random.default_rng(11)
        for seed in range(5):
            _, kernel = random_scenario(seed)
            mu = kernel.mu
            for rho in kernel.space.distance_levels:
                for _ in range(20):
                    u = rng.normal(size=len(kernel.space))
                    lhs = energy(kernel, u, u) - energy_and_scale(kernel, u, u, rho)[0]
                    rhs = 4.0 * float((u * u * mu).sum()) * kernel.tail_sup(rho)
                    assert lhs <= rhs * (1 + 1e-12) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_markov_clamp_never_increases_energy(seed):
    _, kernel = random_scenario(seed % 20, max_points=32)
    rng = np.random.default_rng(seed)
    f = rng.normal(scale=2.0, size=len(kernel.space))
    clamped = np.clip(f, 0.0, 1.0)
    assert energy(kernel, clamped, clamped) <= energy(kernel, f, f) + 1e-12


class TestIndicatorEnergyIdentity:
    def test_block(self, s4, k4):
        rec = indicator_energy_check(k4, s4.ball("a", 1))
        assert rec.status == "pass"
        assert rec.measured == pytest.approx(1.0, rel=1e-14)

    def test_whole_space(self, s4, k4):
        rec = indicator_energy_check(k4, s4.whole())
        assert rec.status == "pass" and rec.measured == 0.0

    def test_singleton(self, s4, k4):
        rec = indicator_energy_check(k4, s4.ball("a", 0))
        assert rec.status == "pass"
        assert rec.measured == pytest.approx(2.5, rel=1e-14)

    def test_all_balls_random_spaces(self):
        for seed in range(6):
            space, kernel = random_scenario(seed)
            for ball in space.balls(include_points=True):
                assert indicator_energy_check(kernel, ball).status == "pass"

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(ball_trees(max_points=48),
                     st.integers(0, 40).map(lambda seed: random_scenario(2 * seed + 1, 32))))
    def test_left_side_has_the_bits_of_the_energy(self, case):
        # the left side is formed without the gathers of `pair_terms`, yet
        # it is the same array of terms, so the same sum to the last bit
        if len(case) == 3:
            space, exponent, scale = case
            kernel = isotropic_kernel(space, power_profile(exponent, scale), scaling="mass")
        else:
            space, kernel = case  # a raw kernel: every pair carries a weight
        for ball in space.balls(include_points=True):
            ind = ball.indicator()
            measured = indicator_energy_check(kernel, ball).measured
            assert measured.hex() == energy(kernel, ind, ind).hex()


def test_energy_scale_bounds_value(k4):
    rng = np.random.default_rng(1)
    f, g = rng.normal(size=4), rng.normal(size=4)
    val, scale = energy_and_scale(k4, f, g, None)
    assert abs(val) <= scale + 1e-15
