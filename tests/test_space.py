"""Ball-tree construction, distances, balls, and validation."""

import copy
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraheat import build_tree, from_distance_matrix, validate_ultrametric
from ultraheat.errors import (
    DimensionMismatch,
    EmptySpace,
    NonDecreasingRadii,
    NonPositiveMass,
    NotUltrametric,
    SpaceError,
    UnknownPoint,
)
from ultraheat.space import from_distance_csv, strong_triangle_excess, ultrametric_merges

from conftest import S4_SPEC, ball_trees, lca_index, random_scenario


class TestBuildTree:
    def test_s4_by_construction(self, s4):
        assert s4.ids == ("a", "b", "c", "d")
        assert s4.diam == 2.0
        assert sorted(set(s4.tree.radius[s4.lca(*np.indices((4, 4)))].flat)) == [0.0, 1.0, 2.0]

    def test_two_leaves(self, s2):
        assert s2.tree.radius[s2.lca(0, 1)] == 1.0
        assert s2.tree.volume[0] == 2.0

    def test_child_radius_above_parent_rejected(self):
        with pytest.raises(NonDecreasingRadii):
            build_tree({"radius": 2, "children": [
                {"radius": 3, "children": [{"id": "x", "mass": 1}, {"id": "y", "mass": 1}]},
                {"id": "z", "mass": 1},
            ]})

    @pytest.mark.parametrize("radius", [float("nan"), float("inf")])
    def test_nonfinite_radius_rejected(self, radius):
        # a NaN label passes every comparison with its children, and an
        # infinite one makes the distances inf - inf downstream
        with pytest.raises(NonDecreasingRadii):
            build_tree({"radius": radius, "children": [{"id": "x"}, {"id": "y"}]})

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(NonPositiveMass):
            build_tree({"radius": 1, "children": [{"id": "x", "mass": 0.0},
                                                  {"id": "y", "mass": 1}]})

    def test_empty_rejected(self):
        with pytest.raises(EmptySpace):
            build_tree({"radius": 1, "children": []})

    def test_duplicate_ids_rejected(self):
        # a space error, not an empty space
        with pytest.raises(SpaceError) as exc:
            build_tree({"radius": 1, "children": [{"id": "x"}, {"id": "y"}, {"id": "x"}]})
        assert type(exc.value) is SpaceError
        assert str(exc.value) == "duplicate point ids: ['x']"

    def test_singleton_leaf_spec(self):
        space = build_tree({"id": "only", "mass": 1.5})
        assert len(space) == 1 and space.diam == 0.0


class TestDistance:
    def test_siblings(self, s4):
        assert s4.tree.radius[s4.lca(s4.index("a"), s4.index("b"))] == 1.0

    def test_across_root(self, s4):
        assert s4.tree.radius[s4.lca(s4.index("a"), s4.index("c"))] == 2.0

    def test_identity(self, s4):
        assert s4.tree.radius[s4.lca(s4.index("a"), s4.index("a"))] == 0.0

    def test_unknown_point(self, s4):
        with pytest.raises(UnknownPoint):
            s4.index("nope")

    def test_matrix_matches_pairwise(self, s4):
        D = s4.distance_matrix()
        for i in range(len(s4)):
            for j in range(len(s4)):
                assert D[i, j] == s4.tree.radius[s4.lca(i, j)]


class TestBalls:
    def test_closed_ball(self, s4):
        assert s4.ball("a", 1).members == ("a", "b")
        assert s4.ball("a", 0.5).members == ("a",)
        assert s4.ball("a", 2).members == ("a", "b", "c", "d")

    def test_partition(self, s4):
        cells = s4.partition(1)
        assert [list(c.members) for c in cells] == [["a", "b"], ["c", "d"]]
        assert [list(c.members) for c in s4.partition(0.25)] == [["a"], ["b"], ["c"], ["d"]]

    def test_volume(self, s4):
        assert s4.ball("a", 2).volume == 4.0
        assert s4.ball("a", 1).volume == 2.0

    def test_nested_or_disjoint_exhaustive(self, s4):
        balls = s4.balls(include_points=True)
        for b1 in balls:
            for b2 in balls:
                inter = set(b1.members) & set(b2.members)
                assert (not inter or set(b1.members) <= set(b2.members)
                        or set(b2.members) <= set(b1.members))

    def test_partition_covers_for_every_radius(self):
        for seed in range(4):
            space, _ = random_scenario(seed)
            for r in (0.1,) + space.distance_levels:
                cells = space.partition(r)
                seen = [p for c in cells for p in c.members]
                assert sorted(seen) == sorted(space.ids)


class TestDistanceMatrixRoundTrip:
    def test_s4_round_trip(self, s4):
        D = s4.distance_matrix()
        rebuilt = from_distance_matrix(D, masses=s4.masses, ids=s4.ids)
        assert rebuilt.ids == s4.ids
        assert np.array_equal(rebuilt.distance_matrix(), D)

    def test_not_ultrametric_witness(self):
        D = np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=float)
        with pytest.raises(NotUltrametric) as err:
            from_distance_matrix(D, ids=["a", "b", "c"])
        assert err.value.witness == ("a", "b", "c")

    def test_empty_matrix_rejected(self):
        with pytest.raises(SpaceError, match="square and nonempty"):
            from_distance_matrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("extra", [
        {"masses": [1.0, 2.0, 3.0]}, {"masses": [1.0]}, {"ids": ["a"]}, {"ids": ["a", "b", "c"]}])
    def test_one_mass_and_id_per_row(self, extra):
        with pytest.raises(SpaceError, match="one id and one mass per row"):
            from_distance_matrix([[0.0, 1.0], [1.0, 0.0]], **extra)

    def test_singleton_matrix(self):
        space = from_distance_matrix(np.array([[0.0]]), ids=["z"])
        assert len(space) == 1

    def test_random_round_trips(self):
        for seed in range(6):
            space, _ = random_scenario(seed)
            D = space.distance_matrix()
            rebuilt = from_distance_matrix(D, masses=space.masses, ids=space.ids)
            got = rebuilt.distance_matrix()
            perm = [rebuilt.index(x) for x in space.ids]
            assert np.array_equal(got[np.ix_(perm, perm)], D)

    def test_csv_ingestion(self, s4, tmp_path):
        D = s4.distance_matrix()
        path = tmp_path / "distance.csv"
        path.write_text(",".join(s4.ids) + "\n" + "\n".join(
            ",".join(str(v) for v in row) for row in D))
        space = from_distance_csv(str(path))
        assert space.ids == s4.ids
        assert np.array_equal(space.distance_matrix(), D)


class TestValidation:
    def test_s4_passes(self, s4):
        assert validate_ultrametric(s4).passed

    def test_singleton_vacuous(self):
        space = build_tree({"id": "only", "mass": 1})
        assert validate_ultrametric(space).passed

    def test_corrupted_matrix_caught(self, s4):
        bad = s4.distance_matrix().copy()
        bad[0, 2] = bad[2, 0] = 5.0  # breaks the triangle through b
        report = validate_ultrametric(s4, distance_matrix=bad)
        failures = report.failures()
        assert failures and failures[0].witness["triple"]

    def test_crossing_balls_name_the_first_pair(self, s4):
        # nodes in depth-first order: root, {a,b}, a, b, {c,d}, c, d; stretching
        # {a,b} to [0, 3) makes it cross {c,d} = [2, 4)
        space = copy.deepcopy(s4)
        D = space.distance_matrix()
        stop = space.tree.stop.copy()
        stop[1] = 3
        space.tree = space.tree._replace(stop=stop)
        dichotomy = validate_ultrametric(space, distance_matrix=D).records[1]
        assert dichotomy.status == "fail"
        assert dichotomy.witness == {"spans": [(0, 3), (2, 4)]}

    # a matrix with more columns, fewer points or more rows than the space
    @pytest.mark.parametrize("shape", [(4, 5), (3, 3), (5, 4)])
    def test_matrix_of_another_shape_is_rejected(self, s4, shape):
        D = np.ones(shape)
        np.fill_diagonal(D, 0.0)
        with pytest.raises(DimensionMismatch):
            validate_ultrametric(s4, distance_matrix=D)

    def test_strong_triangle_exhaustive_random(self):
        for seed in range(8):
            space, _ = random_scenario(seed, max_points=64)
            D = space.distance_matrix()
            n = len(space)
            for z in range(n):
                assert np.all(D <= np.maximum.outer(D[:, z], D[z, :]) + 0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_induced_distance_is_ultrametric(seed):
    space, _ = random_scenario(seed % 50)
    D = space.distance_matrix()
    rng = np.random.default_rng(seed)
    n = len(space)
    for _ in range(16):
        x, y, z = rng.integers(0, n, 3)
        assert D[x, y] <= max(D[x, z], D[z, y])


def _flat_space(n: int):
    """n points in one ball, in the order p0 .. p{n-1}; only names the points."""
    if n == 1:
        return build_tree({"id": "p0", "mass": 1})
    return build_tree({"radius": 1, "children": [{"id": f"p{i}", "mass": 1} for i in range(n)]})


# entries from a few well-separated levels, so every matrix is either an
# ultrametric or breaks the strong triangle inequality by a whole level gap
@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sampled_from([0.5, 1.0, 1.5, 3.0]),
             min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))))
def test_from_distance_matrix_round_trips_or_names_a_violation(case):
    n, upper = case
    D = np.zeros((n, n))
    D[np.triu_indices(n, 1)] = upper
    D = D + D.T
    ids = [f"p{i}" for i in range(n)]
    audit = validate_ultrametric(_flat_space(n), distance_matrix=D).records[0]
    try:
        space = from_distance_matrix(D, ids=ids)
    except NotUltrametric as err:
        x, z, y = (ids.index(p) for p in err.witness)
        assert len({x, y, z}) == 3
        assert D[x, y] > max(D[x, z], D[z, y])
        assert audit.status == "fail"
        assert audit.witness["triple"] == err.witness
    else:
        perm = [space.index(p) for p in ids]
        assert np.array_equal(space.distance_matrix()[np.ix_(perm, perm)], D)
        assert audit.status == "pass"


def _first_crossing(spans):
    """The double loop of the ball-dichotomy scan, kept as its reference."""
    for i, (a0, a1) in enumerate(spans):
        for b0, b1 in spans[i + 1:]:
            if not (a1 <= b0 or b1 <= a0 or a0 <= b0 and b1 <= a1 or b0 <= a0 and a1 <= b1):
                return {"spans": [(a0, a1), (b0, b1)]}
    return None


# node spans edited at random, empty and reversed ones included
@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=39), st.lists(st.tuples(
    st.integers(min_value=0, max_value=10_000), st.booleans(),
    st.integers(min_value=-1, max_value=26)), max_size=3))
def test_dichotomy_scan_matches_the_double_loop(seed, edits):
    space, _ = random_scenario(seed)
    D = space.distance_matrix()
    start, stop = space.tree.start.copy(), space.tree.stop.copy()
    for k, at_stop, value in edits:
        (stop if at_stop else start)[k % start.size] = value
    space.tree = space.tree._replace(start=start, stop=stop)
    spans = list(zip(start.tolist(), stop.tolist()))
    dichotomy = validate_ultrametric(space, distance_matrix=D).records[1]
    assert dichotomy.witness == _first_crossing(spans)


# the round trip above reaches `ultrametric_merges` from both sides; this
# checks it against the independent exhaustive scan, zero distances included
@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]),
             min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))))
def test_merge_test_agrees_with_the_exhaustive_scan(case):
    n, upper = case
    D = np.zeros((n, n))
    D[np.triu_indices(n, 1)] = upper
    D = D + D.T
    assert (ultrametric_merges(D) is not None) == (strong_triangle_excess(D)[0] == 0)


def _s4_with(i, j, value, symmetric=True):
    D = build_tree(S4_SPEC).distance_matrix().copy()
    D[i, j] = value
    if symmetric:
        D[j, i] = value
    return D


# matrices the merge test may not take: it reads only the upper triangle,
# scipy's cophenet raises on negative heights and linkage on non-finite input
@pytest.mark.parametrize("D", [
    pytest.param(_s4_with(2, 0, 5.0, symmetric=False), id="asymmetric"),
    pytest.param(_s4_with(0, 1, -1.0), id="negative"),
    pytest.param(_s4_with(0, 1, np.nan), id="nan"),
    pytest.param(_s4_with(0, 2, np.inf), id="inf"),
])
def test_undecidable_matrix_gets_the_exhaustive_scan(s4, D):
    worst, triple = strong_triangle_excess(D)
    rec = validate_ultrametric(s4, distance_matrix=D).records[0]
    assert rec.measured == worst
    assert rec.status == ("pass" if worst <= 0.0 else "fail")
    assert rec.witness == (None if triple is None else {
        "triple": tuple(s4.ids[i] for i in triple), "excess": worst})


# an undefined excess counts as infinite, so the record fails: with d(a, b)
# NaN, the first such excess is d(b, c) against max(d(b, a), d(a, c))
@pytest.mark.parametrize("value,triple", [(np.nan, ("b", "a", "c")),
                                          (np.inf, ("a", "c", "b"))])
def test_nonfinite_distance_fails_and_names_its_triple(s4, value, triple):
    rec = validate_ultrametric(s4, distance_matrix=_s4_with(0, 1, value)).records[0]
    assert rec.status == "fail" and rec.measured == np.inf
    assert rec.witness == {"triple": triple, "excess": np.inf}


def test_rejecting_a_large_matrix_is_fast():
    # distinct entries in [1, 2], so no triple obeys the strong triangle
    # inequality; one clustering per distinct distance took about 40 s
    n = 200
    D = np.zeros((n, n))
    D[np.triu_indices(n, 1)] = np.random.default_rng(0).permutation(
        np.linspace(1.0, 2.0, n * (n - 1) // 2))
    start = time.perf_counter()
    with pytest.raises(NotUltrametric):
        from_distance_matrix(D + D.T)
    assert time.perf_counter() - start < 5.0


def test_ball_monotone_in_radius(s4):
    for x in s4.ids:
        prev: set = set()
        for r in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
            cur = set(s4.ball(x, r).members)
            assert prev <= cur
            prev = cur


def test_balls_same_radius_equal_or_disjoint():
    for seed in range(4):
        space, _ = random_scenario(seed)
        for r in space.distance_levels:
            balls = {space.ball(x, r) for x in space.ids}
            members = [set(b.members) for b in balls]
            for i, m1 in enumerate(members):
                for m2 in members[i + 1:]:
                    assert m1 == m2 or not (m1 & m2)


@settings(max_examples=40, deadline=None)
@given(ball_trees())
def test_array_tree_matches_first_principles(case):
    # single-child chain nodes included: their radius is no distance, but a
    # ball or partition of that radius is their member set
    space = case[0]
    tree, n = space.tree, len(space)
    lca = lca_index(space)
    assert np.array_equal(space.lca(*np.indices((n, n))), lca)
    D = space.distance_matrix()
    assert np.array_equal(D, tree.radius[lca])
    for r in sorted({0.0, *tree.radius.tolist(), *(1.2 * tree.radius).tolist()}):
        for x in range(n):
            within = np.flatnonzero(D[x] <= r)
            ball = space.ball(space.ids[x], r)
            assert np.arange(ball.start, ball.stop).tolist() == within.tolist()
        cells = space.partition(r)
        assert [c.start for c in cells] == sorted(c.start for c in cells)
        assert {tuple(range(c.start, c.stop)) for c in cells} == {
            tuple(np.flatnonzero(D[x] <= r)) for x in range(n)}
    for k in range(tree.parent.size):
        assert tree.volume[k] == pytest.approx(
            math.fsum(space.masses[tree.start[k]:tree.stop[k]]), rel=n * np.finfo(float).eps)
    rebuilt = build_tree(space.to_spec())
    assert rebuilt.ids == space.ids
    assert np.array_equal(rebuilt.masses, space.masses)
    assert all(np.array_equal(a, b) for a, b in zip(rebuilt.tree, space.tree))
