"""Energy form, truncation, and simple functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraheat import energy, energy_trunc, indicator_energy_check, simple_function
from ultraheat.errors import DimensionMismatch, OverlappingBalls
from ultraheat.form import energy_and_scale
from ultraheat.kernel import JumpKernel

from conftest import random_scenario


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


class TestEnergy:
    def test_indicator_block(self, s4, k4):
        ind = s4.ball("a", 1).indicator()
        assert energy(k4, ind, ind) == pytest.approx(1.0, rel=1e-14)

    def test_truncated_block_constant(self, s4, k4):
        ind = s4.ball("a", 1).indicator()
        assert energy_trunc(k4, ind, ind, 1.0) == 0.0

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
                assert energy_trunc(kernel, f, g, rho) == pytest.approx(
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
            vals = [energy_trunc(kernel, f, f, rho)
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
                    lhs = energy(kernel, u, u) - energy_trunc(kernel, u, u, rho)
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


class TestSimpleFunction:
    def test_evaluation(self, s4):
        f = simple_function([1.0, 2.0], [s4.ball("a", 1), s4.ball("c", 1)])
        assert f("a") == 1.0 and f("b") == 1.0 and f("c") == 2.0
        assert np.array_equal(f.values(), [1.0, 1.0, 2.0, 2.0])

    def test_overlap_rejected(self, s4):
        with pytest.raises(OverlappingBalls):
            simple_function([1.0, 2.0], [s4.ball("a", 1), s4.ball("a", 0)])

    def test_zero_function(self, s4):
        f = simple_function([0.0], [s4.ball("a", 1)])
        assert np.array_equal(f.values(), [0.0, 0.0, 0.0, 0.0])


def test_energy_scale_bounds_value(k4):
    rng = np.random.default_rng(1)
    f, g = rng.normal(size=4), rng.normal(size=4)
    val, scale = energy_and_scale(k4, f, g, None)
    assert abs(val) <= scale + 1e-15
