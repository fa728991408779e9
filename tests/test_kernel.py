"""Jump kernels: tails, the tail-jump constant, and validation."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraheat import JumpKernel, generator, isotropic_kernel, power_profile, tj_constant
from ultraheat.errors import (
    Asymmetric,
    MalformedCsv,
    NegativeProfile,
    NegativeWeight,
    NonzeroDiagonal,
    NotIsotropic,
)
from ultraheat import kernel as kernel_mod
from ultraheat.cli import generate_space
from ultraheat.kernel import ExponentConfig, JumpKernel, kernel_from_csv

from conftest import ball_trees, kernel_to_csv, random_scenario


class TestConstruction:
    def test_isotropic_values(self, s4):
        k = isotropic_kernel(s4, power_profile(3.0), scaling="none")
        assert k.w[0, 1] == 1.0          # d = 1
        assert k.w[0, 2] == 0.125        # d = 2, 2^-3

    def test_unit_profile(self, k2):
        assert k2.w[0, 1] == 1.0

    def test_negative_profile(self, s4):
        with pytest.raises(NegativeProfile):
            isotropic_kernel(s4, lambda r: -1.0)

    def test_mass_scaling(self, s4):
        masses = np.array([1.0, 2.0, 3.0, 4.0])
        space_spec = s4.to_spec()
        for child, m in zip(space_spec["children"][0]["children"], masses[:2]):
            child["mass"] = float(m)
        for child, m in zip(space_spec["children"][1]["children"], masses[2:]):
            child["mass"] = float(m)
        from ultraheat import build_tree
        space = build_tree(space_spec)
        k = isotropic_kernel(space, power_profile(3.0), scaling="mass")
        D = space.distance_matrix()
        safe = np.where(D > 0, D, 1.0)
        expected = np.where(D > 0, safe ** -3.0 * np.outer(space.masses, space.masses), 0.0)
        assert np.allclose(k.w, expected)

    def test_from_matrix_ok(self, s4):
        w = np.array([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]], float)
        assert JumpKernel(s4, w).w[0, 3] == 3.0

    def test_asymmetric_rejected(self, s4):
        w = np.zeros((4, 4)); w[0, 1] = 1.0
        with pytest.raises(Asymmetric):
            JumpKernel(s4, w)

    def test_nonzero_diagonal_rejected(self, s4):
        w = np.zeros((4, 4)); w[0, 0] = 1.0
        with pytest.raises(NonzeroDiagonal):
            JumpKernel(s4, w)

    def test_negative_weight_rejected(self, s4):
        w = np.zeros((4, 4)); w[0, 1] = w[1, 0] = -1.0
        with pytest.raises(NegativeWeight):
            JumpKernel(s4, w)

    def test_csv_round_trip(self, k4, tmp_path):
        path = tmp_path / "kernel.csv"
        path.write_text(kernel_to_csv(k4))
        k = kernel_from_csv(k4.space, str(path))
        assert np.array_equal(k.w, k4.w)

    @pytest.mark.parametrize("text", [
        "a,b,c,d\n0,1,1,1\n",                                 # one data row
        "a,b,c,d\n0,1,1,1\n1,0,1,1\n1,1,0,1\n1,1,1,0\n1,1,1,1\n",  # one row too many
        "a,b,c,d\n0,1,1\n1,0,1,1\n1,1,0,1\n1,1,1,0\n",      # a short row
        "a,b,c,d\n0,1,1,1\n1,0,1,1\n1,1,0,x\n1,1,1,0\n",    # non-numeric cell
        "a,a,c,d\n0,1,1,1\n1,0,1,1\n1,1,0,1\n1,1,1,0\n",    # repeated id
        "a,c\n0,1\n1,0\n",                                     # names only some points
    ])
    def test_csv_shape_and_cells_checked(self, s4, text, tmp_path):
        path = tmp_path / "kernel.csv"
        path.write_text(text)
        with pytest.raises(MalformedCsv):
            kernel_from_csv(s4, str(path))


class TestTail:
    def test_tail_values(self, s4, k4):
        a = s4.index("a")
        assert k4.tail_vector(1)[a] == pytest.approx(0.25, rel=1e-15)
        assert k4.tail_vector(2)[a] == 0.0
        assert k4.tail_vector(0.5)[a] == pytest.approx(1.25, rel=1e-15)

    def test_tail_non_increasing_right_continuous(self):
        for seed in range(6):
            _, kernel = random_scenario(seed)
            space = kernel.space
            radii = np.concatenate([[0.0], space.distance_levels,
                                    np.array(space.distance_levels) * 1.0001,
                                    [space.diam * 2]])
            for x in space.ids[:4]:
                vals = [kernel.tail_vector(r)[space.index(x)] for r in np.sort(radii)]
                assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))
                assert vals[-1] == 0.0
            for level in space.distance_levels:
                v_at = kernel.tail_vector(level)
                v_eps = kernel.tail_vector(level * (1 + 1e-13))
                assert np.allclose(v_at, v_eps, rtol=0, atol=0)


class TestTailJumpConstant:
    def test_s4_value(self, k4):
        assert tj_constant(k4, 1.0, 2.0) == pytest.approx(1.25, rel=1e-15)

    def test_s2_value(self, k2):
        assert tj_constant(k2, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_small_range_vanishes(self, k4):
        assert tj_constant(k4, 1.0, 1e-9) == pytest.approx(1.25e-9, rel=1e-12)

    def test_grid_scan_oracle(self):
        # brute force straight from the definition sup r^beta tail(., r):
        # a log grid plus points just below each distance level (the tail
        # is right-continuous, so sups are approached from the left)
        for seed in range(6):
            _, kernel = random_scenario(seed)
            space = kernel.space
            beta = 1.3
            r0 = space.diam
            exact = tj_constant(kernel, beta, r0)
            rs = np.concatenate([
                np.exp(np.linspace(np.log(r0 * 1e-8), np.log(r0 * (1 - 1e-12)), 2001)),
                [lvl * (1 - 1e-12) for lvl in space.distance_levels if lvl <= r0],
            ])
            brute = max(r ** beta * kernel.tail_sup(r) for r in rs)
            assert brute <= exact * (1 + 1e-12)
            assert brute >= exact * (1 - 1e-9)

    def test_monotone_in_range(self):
        _, kernel = random_scenario(2)
        r0s = np.linspace(0.1, kernel.space.diam, 8)
        vals = [tj_constant(kernel, 1.0, r) for r in r0s]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_scale_covariance(self, k4):
        doubled = JumpKernel(k4.space, 2.0 * k4.w)
        assert tj_constant(doubled, 1.0, 2.0) == pytest.approx(
            2.0 * tj_constant(k4, 1.0, 2.0), rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(ball_trees(), st.booleans(), st.booleans())
def test_isotropic_weights_are_the_profile_of_each_distance(case, growing, mass):
    # bitwise against the level masks of the distance matrix, times
    # np.outer of the masses
    space, exponent, scale = case
    profile = power_profile(-exponent if growing else exponent, scale)
    D = space.distance_matrix()
    ref = np.zeros_like(D)
    for level in space.distance_levels:
        ref[D == level] = profile(level)
    if mass:
        ref = ref * np.outer(space.masses, space.masses)
    w = isotropic_kernel(space, profile, scaling="mass" if mass else "none").w
    assert w.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind, params", [
    ("dyadic", {"depth": 9, "mass_law": "uniform"}),
    ("random", {"seed": 3, "max_points": 192, "depth": 6, "mass_law": "loguniform"}),
])
@pytest.mark.parametrize("block", [1, 1000, kernel_mod.MASS_BLOCK, 1 << 20])
def test_mass_scaling_blocks_keep_every_bit(kind, params, block):
    # any block of rows, one row to all, gives the bits of the row-by-row
    # products w[i] * (mu[i] * mu), on spaces of the bench workloads' sizes
    space, _ = generate_space(kind, **params)
    mu = space.masses
    ref = isotropic_kernel(space, power_profile(3.0)).w.copy()
    for i in range(len(space)):
        ref[i] *= mu[i] * mu
    with mock.patch.object(kernel_mod, "MASS_BLOCK", block):
        w = isotropic_kernel(space, power_profile(3.0), scaling="mass").w
    assert w.tobytes() == ref.tobytes()


@st.composite
def truncation_cases(draw):
    """A kernel with some of its pairs at weight zero: the isotropic kernel
    of a ball tree (chain nodes included) or the raw kernel of an odd-seed
    `random_scenario`, which is not isotropic."""
    if draw(st.booleans()):
        space, exponent, scale = draw(ball_trees(max_points=40))
        w = isotropic_kernel(space, power_profile(exponent, scale),
                             scaling="mass" if draw(st.booleans()) else "none").w
    else:
        space, kernel = random_scenario(2 * draw(st.integers(0, 15)) + 1)
        w = kernel.w
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    zero = rng.random(w.shape) < draw(st.sampled_from([0.0, 0.3, 0.8]))
    return JumpKernel(space, np.where(zero | zero.T, 0.0, w))


@settings(max_examples=40, deadline=None)
@given(truncation_cases())
def test_truncation_is_the_closed_ball_mask_bit_for_bit(kernel):
    # the reference is the mask each site wrote before `truncated` held it
    space, w, mu = kernel.space, kernel.w, kernel.mu
    D = space.distance_matrix()
    levels = list(space.distance_levels)
    mids = [(a + b) / 2 for a, b in zip([0.0] + levels, levels)]
    assert kernel.truncated(None) is w
    for rho in [0.0, *levels, *mids, space.diam, 2 * space.diam]:
        cut = kernel.truncated(rho)
        assert np.array_equal(cut, np.where(D <= rho, w, 0.0))
        assert np.array_equal(kernel.tail_vector(rho),
                              np.where(D > rho, w, 0.0).sum(axis=1) / mu)
        keep = D <= rho
        np.fill_diagonal(keep, False)
        w_eff = np.where(keep, w, 0.0)
        old = 2.0 * w_eff / mu[:, None]
        np.fill_diagonal(old, -(2.0 * w_eff.sum(axis=1) / mu))
        assert np.array_equal(generator(kernel, rho).matrix, old)
        # zero across the blocks of the rho-partition
        blocks = space.partition(rho)
        label = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
        assert not cut[label[:, None] != label[None, :]].any()


def test_symmetry_over_ball_pairs():
    rng = np.random.default_rng(0)
    for seed in range(4):
        _, kernel = random_scenario(seed)
        space = kernel.space
        balls = space.balls(include_points=True)
        for _ in range(10):
            b1 = balls[rng.integers(0, len(balls))]
            b2 = balls[rng.integers(0, len(balls))]
            i1, i2 = np.arange(b1.start, b1.stop), np.arange(b2.start, b2.stop)
            assert kernel.w[np.ix_(i1, i2)].sum() == pytest.approx(
                kernel.w[np.ix_(i2, i1)].sum(), rel=1e-13, abs=1e-300)


# the S4 nodes in preorder: the root (radius 2), a radius-1 ball, its leaves
# a and b, the other radius-1 ball, its leaves c and d
S4_NODE_PROFILE = [0.125, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]


def test_isotropy_profile_detection(s4, k4):
    profile = k4.node_profile()
    radius = s4.tree.radius
    assert set(profile[radius == 1.0]) == {1.0} and set(profile[radius == 2.0]) == {0.125}
    w = k4.w.copy()
    w[0, 2] = w[2, 0] = 0.3  # break level constancy
    with pytest.raises(NotIsotropic):
        JumpKernel(s4, w).node_profile()


def test_isotropy_scan_runs_once_per_kernel(s4, k4, monkeypatch):
    # the profile, or the reason there is none, is kept; callers get a
    # read-only view of it
    calls = []
    scan = JumpKernel._scan_profile
    monkeypatch.setattr(JumpKernel, "_scan_profile",
                        lambda self: calls.append(self) or scan(self))
    first = k4.node_profile()
    with pytest.raises(ValueError, match="read-only"):
        first[1] = 7.0
    assert k4.node_profile().tolist() == S4_NODE_PROFILE
    w = k4.w.copy()
    w[0, 2] = w[2, 0] = 0.3
    raw = JumpKernel(s4, w)
    for _ in range(2):
        with pytest.raises(NotIsotropic, match="vary on level 2.0"):
            raw.node_profile()
    assert calls == [k4, raw]


def test_kernel_leaves_the_callers_array_writable(s4, k4):
    w = k4.w.copy()
    for weights in (w, w[:, :]):
        kernel = JumpKernel(s4, weights)
        assert not kernel.w.flags.writeable
        assert weights.flags.writeable
    w[0, 1] = w[1, 0] = 2.0
    assert kernel.w[0, 1] == k4.w[0, 1]
    # a frozen array that owns its data is kept as it is, not copied
    w.setflags(write=False)
    assert JumpKernel(s4, w).w is w


def test_exponent_config():
    cfg = ExponentConfig(2.0, 1.0, 4.0)
    assert cfg.nu == 0.5
    assert cfg.k0(1.0) == pytest.approx(1.0 + 0.25)
    with pytest.raises(ValueError):
        ExponentConfig(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ExponentConfig(1.0, 1.0, 0.0)
