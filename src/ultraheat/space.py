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
derived matrices reproducible bit for bit across runs.

Balls are closed sets {y : d(x, y) <= r}; tail events elsewhere in the
package use the strict inequality d > r.
"""

import csv
import json

import numpy as np
from scipy.cluster.hierarchy import cophenet, linkage
from scipy.spatial.distance import squareform

from .errors import (
    EmptySpace,
    MalformedCsv,
    NonDecreasingRadii,
    NonPositiveMass,
    NotUltrametric,
    SpaceError,
    UnknownPoint,
)
from .reporting import CheckReport, record

# Nested radius labels must drop by at least this much to stay unambiguous.
RADIUS_GAP = 1e-12


class _Node:
    """Ball-tree node; leaves have no children and radius 0."""

    __slots__ = ("radius", "children", "parent", "start", "stop", "volume", "height")

    def __init__(self, radius: float, children=()):
        self.radius = float(radius)
        self.children = list(children)
        self.parent = None
        self.start = 0
        self.stop = 0
        self.volume = 0.0
        self.height = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self):
        return f"_Node(r={self.radius}, [{self.start}:{self.stop}])"


class Ball:
    """A closed ball of the space: a tree node viewed as a point set.

    Equality and hashing are by member set (leaf slice), so two nodes of a
    single-child chain describing the same set compare equal.
    """

    __slots__ = ("space", "node")

    def __init__(self, space: "UltrametricSpace", node: _Node):
        self.space = space
        self.node = node

    @property
    def radius(self) -> float:
        return self.node.radius

    @property
    def start(self) -> int:
        return self.node.start

    @property
    def stop(self) -> int:
        return self.node.stop

    @property
    def volume(self) -> float:
        return self.node.volume

    @property
    def members(self) -> tuple:
        return self.space.ids[self.node.start:self.node.stop]

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.node.start, self.node.stop)

    def indicator(self) -> np.ndarray:
        out = np.zeros(len(self.space))
        out[self.node.start:self.node.stop] = 1.0
        return out

    def __len__(self) -> int:
        return self.node.stop - self.node.start

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ball)
            and self.space is other.space
            and self.node.start == other.node.start
            and self.node.stop == other.node.stop
        )

    def __hash__(self) -> int:
        return hash((id(self.space), self.node.start, self.node.stop))

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
    """

    def __init__(self, root: _Node, ids, masses):
        if len(ids) == 0:
            raise EmptySpace("space has no points")
        self.root = root
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

        self._nodes: list[_Node] = []
        self._leaf_nodes: list[_Node] = [None] * len(self.ids)
        self._finalize(root)
        self._dmat = None

    # -- construction helpers ---------------------------------------------

    def _finalize(self, node: _Node, parent=None) -> None:
        node.parent = parent
        self._nodes.append(node)
        if node.is_leaf:
            # start/stop assigned by the builder
            node.volume = float(self.masses[node.start])
            node.height = 0
            self._leaf_nodes[node.start] = node
            return
        for child in node.children:
            if node.radius - child.radius < RADIUS_GAP:
                raise NonDecreasingRadii(
                    f"child radius {child.radius} under parent radius {node.radius}: "
                    f"labels must strictly decrease (gap >= {RADIUS_GAP})"
                )
            self._finalize(child, node)
        node.start = node.children[0].start
        node.stop = node.children[-1].stop
        node.volume = float(sum(c.volume for c in node.children))
        node.height = 1 + max(c.height for c in node.children)

    # -- basic queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def diam(self) -> float:
        return self.root.radius

    @property
    def total_mass(self) -> float:
        return float(self.root.volume)

    def index(self, point_id) -> int:
        key = str(point_id)
        if key not in self._index:
            raise UnknownPoint(f"unknown point id {point_id!r}")
        return self._index[key]

    def lca(self, i: int, j: int) -> _Node:
        """Lowest common ancestor node of the points at indices i and j
        (the leaf itself when i == j)."""
        a, b = self._leaf_nodes[i], self._leaf_nodes[j]
        while a is not b:
            if a.height < b.height:
                a = a.parent
            elif b.height < a.height:
                b = b.parent
            else:
                a, b = a.parent, b.parent
        return a

    def distance(self, x, y) -> float:
        """Radius of the lowest common ancestor ball; 0 iff x == y."""
        return self.lca(self.index(x), self.index(y)).radius

    def distance_matrix(self) -> np.ndarray:
        """Full pairwise distance matrix in canonical point order (cached)."""
        if self._dmat is None:
            n = len(self.ids)
            D = np.zeros((n, n))
            for node in self._nodes:
                if len(node.children) < 2:
                    continue
                for i, ci in enumerate(node.children):
                    for cj in node.children[i + 1:]:
                        D[ci.start:ci.stop, cj.start:cj.stop] = node.radius
                        D[cj.start:cj.stop, ci.start:ci.stop] = node.radius
            D.setflags(write=False)
            self._dmat = D
        return self._dmat

    @property
    def distance_levels(self) -> tuple:
        """Sorted distinct positive distance values realised by point pairs."""
        vals = {n.radius for n in self._nodes if len(n.children) >= 2}
        return tuple(sorted(vals))

    # -- balls ----------------------------------------------------------------

    def ball(self, x, r: float) -> Ball:
        """The closed ball {y : d(x, y) <= r} as a tree node or singleton."""
        if r < 0:
            raise ValueError(f"ball radius must be >= 0, got {r}")
        node = self._leaf_nodes[self.index(x)]
        while node.parent is not None and node.parent.radius <= r:
            node = node.parent
        return Ball(self, node)

    def partition(self, r: float) -> list:
        """The pairwise-disjoint balls of radius r covering the space."""
        if r < 0:
            raise ValueError(f"partition radius must be >= 0, got {r}")
        cells = []

        def select(node):
            if node.radius <= r:
                cells.append(Ball(self, node))
            else:
                for child in node.children:
                    select(child)

        select(self.root)
        return cells

    def balls(self, include_points: bool = False) -> list:
        """All tree-node balls in depth-first order.

        With `include_points`, singleton leaf balls are appended as well.
        """
        out = [Ball(self, n) for n in self._nodes if not n.is_leaf]
        if include_points:
            out.extend(Ball(self, n) for n in self._nodes if n.is_leaf)
        return out

    def whole(self) -> Ball:
        return Ball(self, self.root)

    # -- serialisation ----------------------------------------------------------

    def to_spec(self) -> dict:
        """Nested dict describing the tree; inverse of `build_tree`."""

        def emit(node):
            if node.is_leaf:
                return {"id": self.ids[node.start], "mass": float(self.masses[node.start])}
            return {"radius": node.radius, "children": [emit(c) for c in node.children]}

        return emit(self.root)

    def __repr__(self):
        return f"UltrametricSpace(n={len(self.ids)}, diam={self.diam})"


# -- builders -------------------------------------------------------------------


_LEAF_KEYS = frozenset(("id", "mass"))
_NODE_KEYS = frozenset(("radius", "children", "leaves"))


def build_tree(spec: dict) -> UltrametricSpace:
    """Build a space from a nested ball description.

    `spec` is a dict {"radius": R, "children": [...]} whose children are
    either further ball dicts or leaf dicts {"id": s, "mass": m} with s a
    non-empty string; the key "leaves" is accepted as a synonym for an
    all-leaf children list.  A bare leaf dict describes a singleton space.
    Any other key, or a node with both "children" and "leaves", is an error.
    """
    ids: list = []
    masses: list = []

    def parse(obj):
        if not isinstance(obj, dict):
            raise SpaceError(f"tree entry must be an object, got {obj!r}")
        known = _LEAF_KEYS if "id" in obj else _NODE_KEYS
        if not obj.keys() <= known or _NODE_KEYS <= obj.keys():
            raise SpaceError(f"tree entry keys {sorted(obj)} must be id and mass, or radius "
                             f"and one of children, leaves")
        if "id" in obj:
            if not isinstance(obj["id"], str) or not obj["id"]:
                raise SpaceError(f"leaf id must be a non-empty string, got {obj['id']!r}")
            node = _Node(0.0)
            node.start = len(ids)
            node.stop = node.start + 1
            ids.append(obj["id"])
            masses.append(float(obj.get("mass", 1.0)))
            return node
        if "radius" not in obj:
            raise EmptySpace(f"node needs 'radius' or 'id': {obj!r}")
        radius = float(obj["radius"])
        if not 0 < radius < np.inf:
            raise NonDecreasingRadii(f"ball radius must be finite and > 0, got {radius}")
        entries = obj.get("children", obj.get("leaves"))
        if not entries:
            raise EmptySpace("ball with no children")
        return _Node(radius, [parse(e) for e in entries])

    root = parse(spec)
    return UltrametricSpace(root, ids, masses)


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(space.to_spec(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- validation ------------------------------------------------------------------


def strong_triangle_excess(D) -> tuple[float, tuple | None]:
    """Largest excess d(x, y) - max(d(x, z), d(z, y)) over distinct x, z, y,
    floored at 0, with the index triple (x, z, y) attaining it (None when
    no triple has a positive excess).  Exhaustive: one midpoint z at a time.
    """
    D = np.asarray(D, dtype=float)
    worst, triple = 0.0, None
    for z in range(D.shape[0]):
        excess = D - np.maximum.outer(D[:, z], D[z, :])
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
    data against this space's structure (used by negative-control tests).
    """
    report = CheckReport()
    D = space.distance_matrix() if distance_matrix is None else np.asarray(distance_matrix)
    decidable = (D.ndim == 2 and 2 <= len(D) == D.shape[1] and np.all(np.isfinite(D))
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
    spans = [(nd.start, nd.stop) for nd in space._nodes]
    b0, b1 = np.array(spans).T
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
