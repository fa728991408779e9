"""
Finite ultrametric measure spaces represented as rooted ball trees.

A space is a hierarchy of closed balls: internal nodes carry radius labels
that strictly decrease from the root, leaves carry the points and their
masses.  The distance of two points is the radius label of their lowest
common ancestor, so the strong triangle inequality

    d(x, y) <= max(d(x, z), d(z, y))

holds by construction and two balls are always nested or disjoint.

Leaves are stored in depth-first order (the canonical point order), which
makes every ball a contiguous slice of the point array and keeps all
derived matrices reproducible bit for bit across runs.  The tree itself is
`space.tree`, read-only arrays over the nodes in preorder (`BallTree`);
a `Ball` is a view of one node, and every walk of the tree (the lowest
common ancestors, distances, balls, partitions, and the heat engine of
`semigroup`) reads those arrays.

Balls are closed sets {y : d(x, y) <= r}; tail events elsewhere in the
package use the strict inequality d > r.
"""

import csv
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.cluster.hierarchy import cophenet, linkage
from scipy.spatial.distance import squareform

from .errors import (
    DimensionMismatch,
    EmptySpace,
    MalformedCsv,
    NonDecreasingRadii,
    NonPositiveMass,
    NotUltrametric,
    SpaceError,
    UnknownPoint,
)
from .reporting import CheckReport, json_text, record

# Nested radius labels must drop by at least this much to stay unambiguous.
RADIUS_GAP = 1e-12


class BallTree(NamedTuple):
    """The ball tree as read-only arrays over its nodes in preorder, root
    first.  A node's children follow it in order, each with its subtree,
    and the leaves come in point order."""

    parent: np.ndarray  # parent's position; -1 at the root
    start: np.ndarray  # the node's points are start .. stop - 1
    stop: np.ndarray
    radius: np.ndarray  # 0 at a leaf
    volume: np.ndarray  # mu of the ball, summed over the children in order
    children: np.ndarray  # number of children; 0 at a leaf
    leaf: np.ndarray  # the node of each point, in point order


class Ball:
    """A closed ball of the space: a tree node viewed as a point set.

    Balls compare by identity: compare `start` and `stop` to compare point
    sets."""

    __slots__ = ("space", "node", "start", "stop")

    def __init__(self, space: "UltrametricSpace", node: int):
        self.space = space
        self.node = node  # position in `space.tree`
        self.start, self.stop = int(space.tree.start[node]), int(space.tree.stop[node])

    @property
    def radius(self) -> float:
        return float(self.space.tree.radius[self.node])

    @property
    def volume(self) -> float:
        return float(self.space.tree.volume[self.node])

    @property
    def members(self) -> tuple:
        return self.space.ids[self.start:self.stop]

    def indicator(self) -> np.ndarray:
        out = np.zeros(len(self.space))
        out[self.start:self.stop] = 1.0
        return out

    def __len__(self) -> int:
        return self.stop - self.start

    def __repr__(self):
        return f"Ball(r={self.radius}, members={list(self.members)})"


class UltrametricSpace:
    """Finite ultrametric measure space backed by a rooted ball tree.

    Immutable after construction; safe for concurrent reads.

    Attributes
    ----------
    ids : tuple
        Point identifiers in canonical depth-first leaf order.
    masses : ndarray
        Point masses mu(x) > 0, aligned with `ids`.
    diam : float
        Radius label of the root (0 for a singleton).
    tree : BallTree
        The ball tree as read-only arrays over its nodes in preorder; `lca`
        and every `Ball` give positions in these arrays.
    """

    def __init__(self, tree: BallTree, ids, masses):
        if len(ids) == 0:
            raise EmptySpace("space has no points")
        self.ids = tuple(str(i) for i in ids)
        self.masses = np.asarray(masses, dtype=float)
        if np.any(self.masses <= 0.0) or not np.all(np.isfinite(self.masses)):
            bad = int(np.argmin(self.masses))
            raise NonPositiveMass(
                f"point {self.ids[bad]!r} has mass {self.masses[bad]}; masses must be > 0"
            )
        if len(set(self.ids)) != len(self.ids):
            seen, dupes = set(), set()
            for p in self.ids:
                (dupes if p in seen else seen).add(p)
            raise EmptySpace(f"duplicate point ids: {sorted(dupes)}")
        self.masses.setflags(write=False)
        self._index = {p: i for i, p in enumerate(self.ids)}

        # the first node in preorder whose label is not below its parent's
        low = (tree.radius[tree.parent[1:]] - tree.radius[1:] < RADIUS_GAP).nonzero()[0]
        if low.size:
            k = low[0] + 1
            raise NonDecreasingRadii(
                f"child radius {float(tree.radius[k])} under parent radius "
                f"{float(tree.radius[tree.parent[k]])}: "
                f"labels must strictly decrease (gap >= {RADIUS_GAP})"
            )
        for array in tree:
            array.setflags(write=False)
        self.tree = tree
        self._dmat = None

    # -- basic queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def diam(self) -> float:
        return float(self.tree.radius[0])

    def index(self, point_id) -> int:
        key = str(point_id)
        if key not in self._index:
            raise UnknownPoint(f"unknown point id {point_id!r}")
        return self._index[key]

    def lca(self, i, j) -> np.ndarray:
        """The position in `tree` of the lowest common ancestor of the points
        at indices i[k] and j[k] (the leaf when they are equal).  Of two
        distinct nodes, the later in preorder is not an ancestor of the
        other, so it moves to its parent until they meet."""
        parent = self.tree.parent
        a, b = self.tree.leaf[np.asarray(i)], self.tree.leaf[np.asarray(j)]
        while (a != b).any():
            a, b = np.where(a > b, parent[a], a), np.where(b > a, parent[b], b)
        return a

    def lca_matrix(self, values: list) -> np.ndarray:
        """The n x n matrix of values[lca(x, y)] for a list of floats
        `values` over the nodes of `tree`, 0.0 on the diagonal.  Each node
        with two children or more fills its block in preorder, so that a
        pair keeps the value of the lowest node over it."""
        n = len(self.ids)
        out = np.zeros((n, n))
        tree = self.tree
        for a, b, v, c in zip(tree.start.tolist(), tree.stop.tolist(), values,
                              tree.children.tolist()):
            if c >= 2:
                out[a:b, a:b] = v
        np.fill_diagonal(out, 0.0)
        return out

    def distance_matrix(self) -> np.ndarray:
        """Full pairwise distance matrix in canonical point order (cached)."""
        if self._dmat is None:
            self._dmat = self.lca_matrix(self.tree.radius.tolist())
            self._dmat.setflags(write=False)
        return self._dmat

    @property
    def distance_levels(self) -> tuple:
        """Sorted distinct positive distance values realised by point pairs."""
        tree = self.tree
        return tuple(sorted({r for r, c in zip(tree.radius.tolist(), tree.children.tolist())
                             if c >= 2}))

    # -- balls ----------------------------------------------------------------

    def ball(self, x, r: float) -> Ball:
        """The closed ball {y : d(x, y) <= r} as a tree node or singleton."""
        if r < 0:
            raise ValueError(f"ball radius must be >= 0, got {r}")
        parent, radius = self.tree.parent, self.tree.radius
        node = self.tree.leaf[self.index(x)]
        while parent[node] >= 0 and radius[parent[node]] <= r:
            node = parent[node]
        return Ball(self, int(node))

    def partition(self, r: float) -> list:
        """The pairwise-disjoint balls of radius r covering the space: the
        nodes of radius <= r whose parent's is > r, in preorder."""
        if r < 0:
            raise ValueError(f"partition radius must be >= 0, got {r}")
        top = self.tree.radius <= r
        top[1:] &= self.tree.radius[self.tree.parent[1:]] > r
        return [Ball(self, k) for k in np.flatnonzero(top).tolist()]

    def balls(self, include_points: bool = False) -> list:
        """All tree-node balls in depth-first order.

        With `include_points`, singleton leaf balls are appended as well.
        """
        out = [Ball(self, k) for k in np.flatnonzero(self.tree.children > 0).tolist()]
        if include_points:
            out.extend(Ball(self, k) for k in self.tree.leaf.tolist())
        return out

    def whole(self) -> Ball:
        return Ball(self, 0)

    # -- serialisation ----------------------------------------------------------

    def to_spec(self) -> dict:
        """Nested dict describing the tree; inverse of `build_tree`."""
        tree, specs = self.tree, []
        for k in range(tree.parent.size):
            i = int(tree.start[k])
            specs.append({"radius": float(tree.radius[k]), "children": []} if tree.children[k]
                         else {"id": self.ids[i], "mass": float(self.masses[i])})
            if k:
                specs[tree.parent[k]]["children"].append(specs[k])
        return specs[0]

    def __repr__(self):
        return f"UltrametricSpace(n={len(self.ids)}, diam={self.diam})"


# -- builders -------------------------------------------------------------------


_LEAF_KEYS = frozenset(("id", "mass"))
_NODE_KEYS = frozenset(("radius", "children"))


def json_number(value, what: str) -> float:
    """`value` as a float.  JSON true and false and strings are no numbers,
    though `float` takes them (SpaceError); numpy numbers are."""
    if isinstance(value, (bool, str)):
        raise SpaceError(f"{what} must be a number, got {value!r}")
    return float(value)


def build_tree(spec: dict) -> UltrametricSpace:
    """Build a space from a nested ball description.

    `spec` is a dict {"radius": R, "children": [...]} whose children are
    either further ball dicts or leaf dicts {"id": s, "mass": m} with s a
    non-empty string and R and m numbers (`json_number`).  A bare leaf dict
    describes a singleton space.  Any other key is an error.
    """
    ids: list = []
    masses: list = []
    nodes: list = []  # [parent, start, stop, radius, volume, children] in preorder

    def parse(obj, parent):
        if not isinstance(obj, dict):
            raise SpaceError(f"tree entry must be an object, got {obj!r}")
        known = _LEAF_KEYS if "id" in obj else _NODE_KEYS
        if not obj.keys() <= known:
            raise SpaceError(f"tree entry keys {sorted(obj)} must be id and mass, or radius "
                             f"and children")
        if "id" in obj:
            if not isinstance(obj["id"], str) or not obj["id"]:
                raise SpaceError(f"leaf id must be a non-empty string, got {obj['id']!r}")
            ids.append(obj["id"])
            masses.append(json_number(obj.get("mass", 1.0), "leaf mass"))
            nodes.append([parent, len(ids) - 1, len(ids), 0.0, masses[-1], 0])
            return nodes[-1]
        if "radius" not in obj:
            raise EmptySpace(f"node needs 'radius' or 'id': {obj!r}")
        radius = json_number(obj["radius"], "ball radius")
        if not 0 < radius < np.inf:
            raise NonDecreasingRadii(f"ball radius must be finite and > 0, got {radius}")
        entries = obj.get("children")
        if not entries:
            raise EmptySpace("ball with no children")
        node = [parent, len(ids), 0, radius, 0.0, len(entries)]
        k = len(nodes)
        nodes.append(node)
        volumes = [parse(entry, k)[4] for entry in entries]
        node[2], node[4] = len(ids), float(sum(volumes))
        return node

    parse(spec, -1)
    parent, start, stop, radius, volume, children = zip(*nodes)
    children = np.array(children)
    tree = BallTree(np.array(parent), np.array(start), np.array(stop), np.array(radius),
                    np.array(volume), children, (children == 0).nonzero()[0])
    return UltrametricSpace(tree, ids, masses)


def from_distance_matrix(matrix, masses=None, ids=None) -> UltrametricSpace:
    """Build the ball tree of an ultrametric distance matrix.

    Makes one ball per single-linkage merge height (`ultrametric_merges`),
    so the round trip `space.distance_matrix()` reproduces the input
    exactly; a matrix that is not ultrametric raises NotUltrametric with
    the triple of largest strong-triangle excess.
    """
    D = np.asarray(matrix, dtype=float)
    if D.ndim != 2 or not 0 < D.shape[0] == D.shape[1]:
        raise SpaceError(f"distance matrix must be square and nonempty, got shape {D.shape}")
    n = D.shape[0]
    if ids is None:
        ids = [str(i) for i in range(n)]
    ids = [str(i) for i in ids]
    if masses is None:
        masses = np.ones(n)
    if len(masses) != n or len(ids) != n:
        raise SpaceError(f"need one id and one mass per row of the {n}-row distance matrix, "
                         f"got {len(ids)} ids and {len(masses)} masses")
    if not np.array_equal(D, D.T):
        raise SpaceError("distance matrix must be symmetric")
    if np.any(np.diagonal(D) != 0.0):
        raise SpaceError("distance matrix must have zero diagonal")
    off = ~np.eye(n, dtype=bool)
    if np.any(D[off] <= 0.0) or not np.all(np.isfinite(D[off])):
        raise SpaceError("off-diagonal distances must be positive and finite")
    # a single point has no merges; linkage needs two rows
    merges = ultrametric_merges(D) if n > 1 else ()
    if merges is None:
        _, (x, z, y) = strong_triangle_excess(D)
        raise NotUltrametric(
            f"d({ids[x]},{ids[y]})={D[x, y]} > "
            f"max(d({ids[x]},{ids[z]}), d({ids[z]},{ids[y]}))={max(D[x, z], D[z, y])}",
            witness=(ids[x], ids[z], ids[y]),
        )

    # one ball per merge height: a merge at the height of a cluster it joins
    # extends that cluster.  Clusters are (smallest point index, height,
    # children); children go in order of their smallest point index.
    clusters = [(i, 0.0, None) for i in range(n)]
    for a, b, height, _ in merges:
        x, y = clusters[int(a)], clusters[int(b)]
        kids = (x[2] if x[1] == height else [x]) + (y[2] if y[1] == height else [y])
        clusters.append((min(x[0], y[0]), height, kids))

    def spec(first, height, kids):
        if kids is None:
            return {"id": ids[first], "mass": masses[first]}
        return {"radius": height, "children": [spec(*kid) for kid in sorted(kids)]}

    return build_tree(spec(*clusters[-1]))


def ultrametric_merges(D) -> np.ndarray | None:
    """Single-linkage merges of D when D is ultrametric, else None.

    D must be symmetric, finite and nonnegative with a zero diagonal and at
    least two rows.  It is ultrametric exactly when it equals its subdominant
    ultrametric, the cophenetic matrix of single linkage (Gower & Ross 1969);
    every merge height is an entry of D, so the comparison is exact.
    """
    merges = linkage(squareform(D, checks=False), "single")
    return merges if np.array_equal(squareform(cophenet(merges)), D) else None


def read_id_matrix(path, what: str) -> tuple[list, np.ndarray]:
    """(ids, matrix) from a CSV file whose header row lists point ids and
    whose data rows hold one number per id, one row per id; blank rows are
    skipped."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    ids = [c.strip() for c in rows[0]] if rows else []
    if not ids or len(rows) != len(ids) + 1 or any(len(r) != len(ids) for r in rows[1:]):
        raise MalformedCsv(
            f"{what} CSV needs a header of ids and one row of {len(ids)} values per id, "
            f"got {len(rows[1:])} data rows of widths {sorted({len(r) for r in rows[1:]})}"
        )
    if len(set(ids)) != len(ids):
        raise MalformedCsv(f"{what} CSV header repeats a point id: {ids}")
    try:
        return ids, np.array([[float(v) for v in row] for row in rows[1:]])
    except ValueError as exc:
        raise MalformedCsv(f"{what} CSV has a non-numeric cell: {exc}") from exc


def from_distance_csv(path) -> UltrametricSpace:
    """Read a distance matrix CSV file (header row of ids) into a space with
    unit masses."""
    ids, D = read_id_matrix(path, "distance")
    return from_distance_matrix(D, ids=ids)


def load_space(path) -> UltrametricSpace:
    """Load a space from a JSON tree file."""
    with open(path, "r", encoding="utf-8") as fh:
        return build_tree(json.load(fh))


def save_space(space: UltrametricSpace, path) -> None:
    Path(path).write_text(json_text(space.to_spec()) + "\n", encoding="utf-8")


# -- validation ------------------------------------------------------------------


def strong_triangle_excess(D) -> tuple[float, tuple | None]:
    """Largest excess d(x, y) - max(d(x, z), d(z, y)) over distinct x, z, y,
    floored at 0, with the index triple (x, z, y) attaining it (None when
    no triple has a positive excess).  An undefined (NaN) excess counts as
    infinite.  Exhaustive: one midpoint z at a time.
    """
    D = np.asarray(D, dtype=float)
    worst, triple = 0.0, None
    for z in range(D.shape[0]):
        far = np.maximum.outer(D[:, z], D[z, :])
        # subtract only where d(x, y) exceeds, so inf - inf never happens
        excess = np.subtract(D, far, out=np.zeros_like(D), where=D > far)
        excess[np.isnan(D) | np.isnan(far)] = np.inf
        excess[z, :] = -np.inf
        excess[:, z] = -np.inf
        np.fill_diagonal(excess, -np.inf)
        m = float(excess.max())
        if m > worst:
            worst = m
            x, y = map(int, np.unravel_index(np.argmax(excess), excess.shape))
            triple = (x, z, y)
    return worst, triple


def validate_ultrametric(space: UltrametricSpace, distance_matrix=None) -> CheckReport:
    """Check the strong triangle inequality and the ball dichotomy.

    `ultrametric_merges` decides the first on every matrix it may take; the
    exhaustive `strong_triangle_excess` only names a witness, or decides a
    matrix outside that test.  An explicit `distance_matrix` audits external
    data against this space's structure (used by negative-control tests);
    it must be n x n for the n points of the space (DimensionMismatch).
    """
    report = CheckReport()
    D = space.distance_matrix() if distance_matrix is None else np.asarray(distance_matrix)
    if D.shape != (len(space), len(space)):
        raise DimensionMismatch(f"distance matrix shape {D.shape} does not match "
                                f"{len(space)} points")
    decidable = (len(D) >= 2 and np.all(np.isfinite(D))
                 and np.all(D >= 0) and np.array_equal(D, D.T) and not np.any(np.diagonal(D)))
    if decidable and ultrametric_merges(D) is not None:
        worst, triple = 0.0, None
    else:
        worst, triple = strong_triangle_excess(D)
    witness = None if triple is None else {
        "triple": tuple(space.ids[i] for i in triple), "excess": worst}
    report.add(record(
        "ultrametric.strong_triangle",
        {"n": len(space)},
        measured=worst,
        bound=0.0,
        margin=0.0,
        ok=worst <= 0.0,
        witness=witness,
    ))

    # dichotomy: every pair of node balls is nested or disjoint; the witness
    # is the first crossing pair in node order.  Comparing each node with all
    # nodes finds it (a crossing with an earlier node stops the scan there)
    # and gives numpy's small-buffer cache one length to hold, not one per node.
    b0, b1 = space.tree.start, space.tree.stop
    spans = list(zip(b0.tolist(), b1.tolist()))
    bad_pair = None
    for a0, a1 in spans:
        crossing = ~((a1 <= b0) | (b1 <= a0) | (a0 <= b0) & (b1 <= a1) | (b0 <= a0) & (a1 <= b1))
        if crossing.any():
            bad_pair = {"spans": [(a0, a1), spans[int(np.argmax(crossing))]]}
            break
    report.add(record(
        "ultrametric.ball_dichotomy",
        {"nodes": len(spans)},
        measured=0.0 if bad_pair is None else 1.0,
        bound=0.0,
        margin=0.0,
        ok=bad_pair is None,
        witness=bad_pair,
    ))
    return report
