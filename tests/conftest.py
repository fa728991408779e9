import csv
import io

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from ultraheat import build_tree, generator, isotropic_kernel, power_profile
from ultraheat.cli import generate_space
from ultraheat.kernel import ExponentConfig, JumpKernel

# a failing draw prints the blob that `@reproduce_failure` replays, so that a
# failure seen once, in CI say, can be run again
settings.register_profile("ultraheat", print_blob=True)
settings.load_profile("ultraheat")

S4_SPEC = {
    "radius": 2,
    "children": [
        {"radius": 1, "children": [{"id": "a", "mass": 1}, {"id": "b", "mass": 1}]},
        {"radius": 1, "children": [{"id": "c", "mass": 1}, {"id": "d", "mass": 1}]},
    ],
}

S2_SPEC = {"radius": 1, "children": [{"id": "0", "mass": 1}, {"id": "1", "mass": 1}]}


@pytest.fixture
def s4():
    return build_tree(S4_SPEC)


@pytest.fixture
def s2():
    return build_tree(S2_SPEC)


@pytest.fixture
def k4(s4):
    """The canonical 4-point kernel: w = d^-3, no mass scaling."""
    return isotropic_kernel(s4, power_profile(3.0), scaling="none")


@pytest.fixture
def k2(s2):
    """Two points at distance 1, unit weight."""
    return isotropic_kernel(s2, lambda r: 1.0)


@pytest.fixture
def dyadic8():
    space, _ = generate_space("dyadic", depth=3, q=2.0)
    return space


@pytest.fixture
def k8(dyadic8):
    return isotropic_kernel(dyadic8, power_profile(3.0), scaling="mass")


def random_scenario(seed: int, max_points: int = 24, mass_law: str = "uniform"):
    """Seeded (space, kernel) pair; even seeds isotropic, odd seeds raw."""
    space, _ = generate_space("random", seed=seed, max_points=max_points,
                              mass_law=mass_law, depth=5)
    rng = np.random.default_rng(10_000 + seed)
    if seed % 2 == 0:
        kernel = isotropic_kernel(space, power_profile(float(rng.uniform(1, 4))),
                                  scaling="mass")
    else:
        w = rng.uniform(0, 1, (len(space), len(space)))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        kernel = JumpKernel(space, w)
    return space, kernel


def tilt_scenario(seed: int, max_points: int = 24):
    """Seeded (kernel, exponents, ball, rho, lam, f) for evolution checks."""
    space, kernel = random_scenario(seed, max_points=max_points)
    rng = np.random.default_rng(20_000 + seed)
    cfg = ExponentConfig(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)),
                         space.diam)
    balls = [b for b in space.balls() if 0 < b.radius < space.diam]
    ball = balls[int(rng.integers(0, len(balls)))] if balls else space.whole()
    levels = [r for r in space.distance_levels if r <= ball.radius]
    rho = levels[-1] if levels else ball.radius
    lam = float(rng.uniform(0.0, 4.0))
    f = np.abs(rng.normal(size=len(space))) + 0.01
    return kernel, cfg, ball, rho, lam, f


def profile_nodes(space, profile) -> np.ndarray:
    """The node array of `HierarchicalHeatKernel` for a profile callable on
    distances: profile(r_N) at each node N with two children or more, one
    evaluation per distinct radius, and 0.0 at the others.  A single-child
    chain node has no pair, so its radius need not be a profile level."""
    tree = space.tree
    branch = np.flatnonzero(tree.children >= 2)
    g = np.zeros(tree.parent.size)
    radii, level_of = np.unique(tree.radius[branch], return_inverse=True)
    g[branch] = np.array([float(profile(float(r))) for r in radii])[level_of]
    return g


def kernel_to_csv(kernel) -> str:
    """The weight matrix as CSV text that `kernel_from_csv` reads back: a
    header of point ids, then one row of exact float reprs per point."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(kernel.space.ids)
    for row in kernel.w:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue()


def exit_probability_slope(kernel, ball, x) -> float:
    """First-order rate of P_t 1_{B^c}(x) at t -> 0, Richardson-extrapolated."""
    t = 1e-5
    gen = generator(kernel)
    comp = 1.0 - ball.indicator()
    i = kernel.space.index(x)
    s1 = float(gen.apply(t, comp)[i]) / t
    s2 = float(gen.apply(t / 2, comp)[i]) / (t / 2)
    return 2 * s2 - s1


def lca_index(space):
    """n x n: the position in `space.tree` of the lowest common ancestor of
    each pair of points (the leaf on the diagonal), found by walking the
    parent pointers up from both leaves; the reference for `space.lca`."""
    parent = space.tree.parent.tolist()
    paths = []
    for node in space.tree.leaf.tolist():
        paths.append([node])
        while parent[paths[-1][-1]] >= 0:
            paths[-1].append(parent[paths[-1][-1]])
    above = [set(path) for path in paths]
    return np.array([[next(k for k in path if k in seen) for path in paths] for seen in above])


@st.composite
def ball_trees(draw, max_points: int = 64, max_levels: int = 6):
    """(space, exponent, scale) for an isotropic power profile on a random
    ball tree: 2 to `max_points` points on 1 to `max_levels` radius levels,
    single-child chain nodes allowed, unit or drawn masses."""
    levels = draw(st.integers(1, max_levels))
    q = draw(st.floats(1.5, 4.0))
    masses = None if draw(st.booleans()) else np.random.default_rng(draw(st.integers(0, 2**32)))
    ids = []

    def leaf():
        ids.append(f"p{len(ids)}")
        return {"id": ids[-1], "mass": 1.0 if masses is None else masses.uniform(0.1, 10.0)}

    def ball(level):
        # entered with room for at least two more points, so the first child
        # always fits and a full tree stops adding children
        children = []
        for _ in range(draw(st.integers(2 if level == levels else 1, 4))):
            room = max_points - len(ids)
            if children and room <= 0:
                break
            sub = level > 1 and room >= 2 and draw(st.booleans())
            children.append(ball(level - 1) if sub else leaf())
        return {"radius": q ** level, "children": children}

    space = build_tree(ball(levels))
    return space, draw(st.floats(0.5, 4.0)), draw(st.floats(0.1, 10.0))
