"""
Generators, heat kernels, and semigroup evaluation.

Normalisation.  The quadratic form sums over ordered pairs, so the unique
generator with <-L f, g>_mu = E(f, g) carries a factor 2 over the naive
jump rate:

    (L f)(x) = 2 sum_y (f(y) - f(x)) w(x, y) / mu(x).

All constants downstream are stated under this convention.

Block exactness.  Range-truncated generators (`JumpKernel.truncated`) and
domain-restricted ones are assembled per connected component of the
retained pair graph, and each component is exponentiated separately.
Entries of the heat kernel across components are exact zeros by
construction, never the result of rounding a dense exponential.

Heat kernels are densities with respect to mu:
p_t(x, y) = (e^{tL})_{xy} / mu(y), symmetric and conservative on the full
space.

Evaluation.  A `SpectralGenerator` is the one way into the semigroup: its
`density` is the one matrix evaluation (`heat_matrix`, e^{tL}, is
`density(t) * mu`), its `apply` and `apply_grid` evolve functions, and the
Davies tilt e^{psi} e^{tL} e^{-psi} is `davies.tilted_evolution`, built on
`apply_grid`.

Fast isotropic path.  For kernels w(x, y) = g(N) mu(x) mu(y), N the lowest
common ancestor of x and y (`JumpKernel.node_profile`), the Haar basis of
the ball tree diagonalises the semigroup, so p_t(x, x) depends only on x
and p_t(x, y), x != y, only on N.  `HierarchicalHeatKernel` evaluates that
profile, the exit probabilities of every ball, the evolution P_t f of
functions (`apply_grid`) and the rho-truncated versions of all three on the
preorder arrays of `space.tree` in O(nodes * depth) per time, with no
n x n matrix.  Its `PairClasses` serve the DUE, wUE and chaining scans, the
exit-probability check and the curves, its `apply_values` the truncation
comparison, and its eigenvalues and `jump_rates` the Nash family
(`bounds.tree_function_family`); the switch is automatic
(`bounds.heat_pair_classes`, `bounds.function_family` and the truncation
comparison: hierarchical when `from_kernel` succeeds, dense on
`NotIsotropic`), and the dense `SpectralGenerator` stays the fallback and
the oracle.  All other checks evaluate the dense generator, built once per
(kernel, rho) by `generator`.  Every evaluator takes finite times >= 0
(`reporting.evaluation_times`).
"""

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.sparse.csgraph import connected_components

from .errors import EmptyDomain
from .form import _as_vector, energy_and_scale
from .kernel import JumpKernel
from .reporting import CheckReport, evaluation_times, positive_times, record
from .space import UltrametricSpace

# Eigenvalues within this of zero are clamped to exactly zero.
EIGENVALUE_CLAMP = 1e-12
N_DUALITY_PAIRS = 8  # random function pairs of the form/generator duality check


@dataclass(frozen=True)
class PairClasses:
    """The ordered pairs of points, grouped into classes on which a heat
    kernel takes one value.

    Class c has distance `dist[c]` and row-major-first pair
    `(rows[c], cols[c])`; the classes are sorted by that pair, so the first
    maximising class holds the row-major-first maximising pair.
    `values(t)` is p_t on every class and `index(i, j)` the class of each
    pair (i[k], j[k]).  `exits(values(t))` is `(sup, chain_min)`:
    sup[k] = sup_{x in B} P_t 1_{B^c}(x) on the k-th ball B of
    `space.balls()`, and chain_min[c] = min_x P_t 1_{P minus B}(x) on the
    c-th chain (B, P) of `ball_chains`, which is >= 0 where P_t 1_{B^c}
    does not increase from B to P.
    """

    dist: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: Callable[[float], np.ndarray]
    index: Callable[[np.ndarray, np.ndarray], np.ndarray]
    exits: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def ball_chains(space: UltrametricSpace) -> tuple[list, np.ndarray]:
    """The distinct chains [start, stop, parent start, parent stop] of a
    node's span inside its parent's, sorted, and the first node in preorder
    of each."""
    tree = space.tree
    up = tree.parent[1:]
    chains, first = np.unique(
        np.column_stack((tree.start[1:], tree.stop[1:], tree.start[up], tree.stop[up])),
        axis=0, return_index=True)
    return chains.tolist(), first + 1


def exit_probabilities(space: UltrametricSpace, dens: np.ndarray):
    """`PairClasses.exits` from the full-space density `dens` = p_t: the sup
    over each ball B of `space.balls()` of P_t 1_{B^c}, and the min over all
    points of P_t 1_{P minus B} on each chain (B, P) of `ball_chains`.  Each
    sums p_t(x, .) mu over ranges of points, in nonnegative terms: the
    complement of B is a prefix and a suffix, two running sums, and P minus
    B is the ranges [P.start, B.start) and [B.stop, P.stop), summed directly
    so that a small value is not the difference of two near 1.
    """
    n = len(space)
    weighted = (dens * space.masses).T  # [y, x] = p_t(x, y) mu(y)
    before, after = np.zeros((n + 1, n)), np.zeros((n + 1, n))
    np.cumsum(weighted, axis=0, out=before[1:])  # before[k]: the sum over y < k
    np.cumsum(weighted[::-1], axis=0, out=after[-2::-1])  # after[k]: over y >= k
    sup = [(before[b.start, b.start:b.stop] + after[b.stop, b.start:b.stop]).max()
           for b in space.balls()]
    chain_min = [(weighted[p0:b0].sum(axis=0) + weighted[b1:p1].sum(axis=0)).min()
                 for b0, b1, p0, p1 in ball_chains(space)[0]]
    return np.array(sup), np.array(chain_min)


class SpectralGenerator:
    """Generator of the (possibly truncated, possibly killed) form.

    Defined by <-L f, g>_mu = E_rho(f, g) over functions supported on the
    domain; for a strict sub-domain the diagonal keeps the full kill rate,
    so L is the principal sub-matrix of the whole-space generator.

    The eigenproblem is solved on the mu^{1/2}-symmetrised matrix, one
    connected component of the retained pair graph at a time.
    """

    def __init__(self, kernel: JumpKernel, rho: float | None = None, omega=None):
        space = kernel.space
        n = len(space)
        self.kernel = kernel
        self.space = space
        self.rho = None if rho is None else float(rho)
        if omega is None:
            idx = np.arange(n)
        else:
            idx = np.array(sorted({space.index(p) for p in omega}))
        if idx.size == 0:
            raise EmptyDomain("restriction domain is empty")
        self.omega = idx
        self.is_whole = idx.size == n

        w_eff = kernel.truncated(self.rho)

        mu = space.masses
        # full-row rates: jumps leaving the domain still drain mass
        rates = 2.0 * w_eff.sum(axis=1) / mu

        sub = w_eff[np.ix_(idx, idx)]
        self.matrix = 2.0 * sub / mu[idx][:, None]
        np.fill_diagonal(self.matrix, -rates[idx])

        self._mu = mu[idx]
        self._sqrt_mu = np.sqrt(self._mu)
        count, labels = connected_components(sub > 0, directed=False)
        # components are numbered by their smallest index, so blocks come in
        # index order, each sorted
        self.blocks = [np.flatnonzero(labels == c) for c in range(count)]
        self._eigs = []
        for block in self.blocks:
            a = -2.0 * sub[np.ix_(block, block)] / np.outer(
                self._sqrt_mu[block], self._sqrt_mu[block]
            )
            np.fill_diagonal(a, rates[idx[block]])
            lam, vec = np.linalg.eigh(a)
            lam[np.abs(lam) < EIGENVALUE_CLAMP] = 0.0
            self._eigs.append((lam, vec))

    @property
    def size(self) -> int:
        return self.omega.size

    def eigenpairs(self) -> list[tuple[float, np.ndarray]]:
        """(lambda_k, phi_k) with phi_k orthonormal in L2(mu), zero-padded
        outside the component that carries them."""
        out = []
        for block, (lam, vec) in zip(self.blocks, self._eigs):
            for k in range(lam.size):
                phi = np.zeros(self.size)
                phi[block] = vec[:, k] / self._sqrt_mu[block]
                out.append((float(lam[k]), phi))
        out.sort(key=lambda p: p[0])
        return out

    # -- evaluation ------------------------------------------------------------

    def density(self, t: float) -> np.ndarray:
        """Heat kernel p_t(x, y) = (e^{tL})_{xy} / mu(y) over the domain;
        exact zeros across components."""
        evaluation_times(t)
        out = np.zeros((self.size, self.size))
        for block, (lam, vec) in zip(self.blocks, self._eigs):
            core = (vec * np.exp(-lam * t)) @ vec.T  # e^{-t A} in the symmetrised basis
            core /= np.outer(self._sqrt_mu[block], self._sqrt_mu[block])
            out[np.ix_(block, block)] = core
        return out

    def heat_matrix(self, t: float) -> np.ndarray:
        """e^{tL} = density(t) * mu over the domain."""
        return self.density(t) * self._mu

    def pair_classes(self) -> PairClasses:
        """Every ordered pair of points as its own class, in row-major order,
        with the values of `density(t)`.  The generator must be a
        whole-domain one: `exits` reads `exit_probabilities`, which needs the
        whole space."""
        n = self.size
        rows, cols = np.divmod(np.arange(n * n), n)
        return PairClasses(self.space.distance_matrix().ravel(), rows, cols,
                           lambda t: self.density(t).ravel(),
                           lambda i, j: np.asarray(i) * n + np.asarray(j),
                           lambda values: exit_probabilities(self.space, values.reshape(n, n)))

    def apply(self, t: float, f) -> np.ndarray:
        """e^{tL} f; full-length input, full-length output (zero off-domain)."""
        return self.apply_grid([t], f)[:, 0]

    def apply_grid(self, times, f) -> np.ndarray:
        """e^{tL} f for every t in `times`; returns (n, len(times)).  `f` is
        a full-length vector (DimensionMismatch otherwise)."""
        v = _as_vector(self.kernel, f)
        ts = evaluation_times(times)
        sub = v[self.omega]
        out = np.zeros((len(self.space), ts.size))
        out_sub = np.zeros((self.size, ts.size))
        for block, (lam, vec) in zip(self.blocks, self._eigs):
            coeff = vec.T @ (sub[block] * self._sqrt_mu[block])
            evol = np.exp(-np.outer(lam, ts)) * coeff[:, None]
            out_sub[block, :] = (vec @ evol) / self._sqrt_mu[block][:, None]
        out[self.omega, :] = out_sub
        return out

    def __repr__(self):
        dom = "all" if self.is_whole else f"|{self.size}|"
        return f"SpectralGenerator(rho={self.rho}, omega={dom}, blocks={len(self.blocks)})"


def generator(kernel: JumpKernel, rho: float | None = None, omega=None) -> SpectralGenerator:
    """Generator of the rho-truncated form, optionally killed outside omega.
    With omega=None it is built once per (kernel, rho) and kept on the
    kernel; a generator is never changed after it is built."""
    if omega is not None:
        return SpectralGenerator(kernel, rho=rho, omega=omega)
    key = None if rho is None else float(rho)
    return kernel.kept(("generator", key), lambda: SpectralGenerator(kernel, rho=key))


# -- self checks -----------------------------------------------------------------


def semigroup_selfcheck(gen: SpectralGenerator, time_grid, seed: int = 0) -> CheckReport:
    """Symmetry, positivity, conservation, two-step consistency, and the
    form/generator duality, each at its stated tolerance."""
    report = CheckReport()
    mu = gen._mu
    times = positive_times(time_grid).tolist()

    worst_sym = worst_pos = worst_mass = worst_ck = 0.0
    wit_sym = wit_ck = None
    for t in times:
        dens = gen.density(t)
        scale = max(1.0, float(np.abs(dens).max()))
        asym = float(np.abs(dens - dens.T).max())
        if asym / scale > worst_sym:
            worst_sym, wit_sym = asym / scale, {"t": t}
        neg = float(dens.min())
        worst_pos = max(worst_pos, -min(neg, 0.0) / scale)
        if gen.is_whole:
            mass_err = float(np.abs(dens @ mu - 1.0).max())
            worst_mass = max(worst_mass, mass_err)
        two = gen.density(2 * t)
        comp = dens @ (dens * mu[None, :]).T
        ck = float(np.abs(two - comp).max()) / max(1.0, float(np.abs(two).max()))
        if ck > worst_ck:
            worst_ck, wit_ck = ck, {"t": t}

    report.add(record("semigroup.symmetry", {"times": times}, worst_sym, 1e-12, 0.0,
                      worst_sym <= 1e-12, wit_sym))
    report.add(record("semigroup.positivity", {"times": times}, worst_pos, 1e-12, 0.0,
                      worst_pos <= 1e-12))
    if gen.is_whole:
        report.add(record("semigroup.mass", {"times": times}, worst_mass, 1e-12, 0.0,
                          worst_mass <= 1e-12))
    report.add(record("semigroup.two_step", {"times": times}, worst_ck, 1e-10, 0.0,
                      worst_ck <= 1e-10, wit_ck))

    rng = np.random.default_rng(seed)
    worst_dual = 0.0
    full_mu = gen.space.masses
    for _ in range(N_DUALITY_PAIRS):
        f = np.zeros(len(gen.space))
        g = np.zeros(len(gen.space))
        f[gen.omega] = rng.normal(size=gen.size)
        g[gen.omega] = rng.normal(size=gen.size)
        lhs = -float((g[gen.omega] * full_mu[gen.omega]) @ (gen.matrix @ f[gen.omega]))
        rhs, scale = energy_and_scale(gen.kernel, f, g, gen.rho)
        err = abs(lhs - rhs) / max(abs(rhs), scale, 1.0)
        worst_dual = max(worst_dual, err)
    report.add(record("semigroup.duality", {"n_random": N_DUALITY_PAIRS, "seed": seed},
                      worst_dual, 1e-12, 0.0, worst_dual <= 1e-12))
    return report


# -- fast hierarchical path --------------------------------------------------------


def _sibling_slots(tree) -> tuple:
    """Where each non-root node sits among its siblings: (nodes, row, front,
    back, shape).  Node nodes[k] is in row row[k] of a table of the given
    shape, one row per parent, with a zero column before and after the
    children; front[k] is the column before it and back[k] the column after
    it counted from the right."""
    nodes = np.flatnonzero(tree.parent >= 0)  # in preorder, so siblings in order
    nodes = nodes[np.argsort(tree.parent[nodes], kind="stable")]
    parents, row = np.unique(tree.parent[nodes], return_inverse=True)
    front = np.arange(nodes.size) - np.searchsorted(row, row)
    width = int(tree.children.max())
    return nodes, row, front, width - 1 - front, (parents.size, width + 2)


def _sibling_sums(slots: tuple, values: np.ndarray) -> np.ndarray:
    """S(P minus B) for the ball B of every node and its parent P (0.0 at
    the root), with S(C) = values[C] for each node C (`values` may carry
    further axes): the values of B's siblings before it plus those after it,
    each side summed in order, so that a small sum is not the difference of
    two large ones.  `slots` is `_sibling_slots(tree)`; each side is one
    running sum along the rows of the table of siblings."""
    nodes, row, front, back, shape = slots
    table = np.zeros(shape + values.shape[1:])
    table[row, front + 1] = values[nodes]
    rest = np.zeros(values.shape)
    rest[nodes] = table.cumsum(axis=1)[row, front] + table[:, ::-1].cumsum(axis=1)[row, back]
    return rest


class HierarchicalHeatKernel:
    """Heat kernel of an isotropic mass-scaled kernel, one value per tree node.

    For w(x, y) = g(N) mu(x) mu(y), N the lowest common ancestor of x and y
    and g the node array of `JumpKernel.node_profile`, functions that are
    supported on a ball, constant on each of its children, and mean-zero
    are eigenfunctions (the Haar basis of the ball tree); the eigenvalue of
    ball N is

        lambda_N = 2 [ g(N) mu(N) + sum_{A above N} g(A) (mu(A) - mu(A_child)) ]

    with A_child the child of A on the path to N.  So p_t(x, x) depends only
    on the leaf x, and p_t(x, y) for x != y only on their lowest common
    ancestor N.  With m_N = 1 - e^{-lambda_N t}, both are sums over the
    strict ancestors A of x or N,

        p_t(x, x) = 1/mu(X) + sum_A e^{-lambda_A t} (1/mu(A_child) - 1/mu(A)),
        p_t(N) = m_N/mu(X) + sum_A e^{-lambda_A t} (1 - e^{-(lambda_N - lambda_A) t})
                                   (1/mu(A_child) - 1/mu(A)),

    each factor 1 - e^{-s} taken as -expm1(-s).  The terms are nonnegative
    where lambda_N >= lambda_A, as for a profile that does not grow with r,
    so small values keep their relative accuracy; elsewhere a term is taken
    as e^{-lambda_N t} (e^{-(lambda_A - lambda_N) t} - 1), so that no
    exponential overflows.  The exit probability from the ball of node B is
    the same at each of its points:

        P_t 1_{B^c} = sum_{A strictly above B} p_t(A) (mu(A) - mu(A_child)).

    The rho-truncated kernel has the profile g(N) 1_{r_N <= rho}.  Each largest
    ball of radius <= rho is then a space of its own: the sums restart at
    its root R, mu(X) becomes mu(R), and a node above rho has p_t = 0.0 by
    construction.

    The tree is read from the preorder arrays of `space.tree`.  Every sum
    runs over the pairs (node, strict ancestor) as one elementwise pass and a
    `bincount`, so an evaluation costs O(nodes * depth) flops per time, with
    no Python loop over nodes and no n x n matrix.  p_t(x, y) is
    `node_values(t)[space.lca(i, j)]` for the points i, j of x, y.
    """

    def __init__(self, space: UltrametricSpace, g):
        self.space = space
        tree = space.tree
        # the pairs (k, j) with j a non-root node on the path from the root to
        # k, k included, so that parent(j) runs over the strict ancestors of
        # k; sorted by k and then from the root down
        rows, cols = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
        node = np.arange(tree.parent.size)
        while (node > 0).any():
            rows.append(np.flatnonzero(node > 0))
            cols.append(node[node > 0])
            node = np.where(node > 0, tree.parent[node], 0)
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        order = np.lexsort((cols, rows))
        self._path_row, self._path_col = rows[order], cols[order]

        self._g = np.asarray(g, dtype=float)
        self._is_leaf = tree.children == 0
        self._siblings = _sibling_slots(tree)
        self._rest = _sibling_sums(self._siblings, tree.volume)
        self._set_range(None)

    def _set_range(self, rho: float | None) -> None:
        """The arrays that depend on the truncation range (None: none)."""
        tree = self.space.tree
        parent, volume = tree.parent, tree.volume
        inside = tree.radius <= (np.inf if rho is None else rho)
        g = np.where(inside, self._g, 0.0)
        keep = inside[parent[self._path_col]]
        row, col = self._path_row[keep], self._path_col[keep]
        up = parent[col]
        size = volume.size
        self.eigenvalue = 2.0 * (g * volume + self.jump_rates(rho))
        # the dense generator's convention, so that both engines agree
        self.eigenvalue[np.abs(self.eigenvalue) < EIGENVALUE_CLAMP] = 0.0
        # the root of each node's ball of radius <= rho: the ancestor that
        # starts its first pair, or the node itself when it has none
        root = np.arange(size)
        ks, first = np.unique(row, return_index=True)
        root[ks] = up[first]
        self._base = np.where(inside, 1.0 / volume[root], 0.0)
        self._row, self._up = row, up
        self._step = 1.0 / volume[col] - 1.0 / volume[up]
        at_leaf = tree.children[row] == 0
        # e^{-a t} - e^{-b t} = sign(b - a) e^{-min(a, b) t} (1 - e^{-|b - a| t}),
        # kept negated, so that each factor of `node_values` is one product
        # and one exponential; a leaf's own pair takes 1.0 for the last factor
        gap = np.where(at_leaf, 0.0, self.eigenvalue[row] - self.eigenvalue[up])
        self._neg_rate = -np.where(gap < 0, self.eigenvalue[row], self.eigenvalue[up])
        self._neg_gap, self._neg_sign = -np.abs(gap), -np.sign(gap)
        self._neg_eigenvalue, self._leaf_one = -self.eigenvalue, at_leaf.astype(float)
        self._sibling_mass = self._rest[col]
        # the pairs that start at a leaf, as (point, node, strict ancestor)
        self._leaf_pairs = tree.start[row[at_leaf]], col[at_leaf], up[at_leaf]

    def jump_rates(self, rho: float | None = None, above: bool = False) -> np.ndarray:
        """J(x, B^c) for the ball B of every node, the same at each point x
        of B: the sum over the strict ancestors A of B of
        g(A) (mu(A) - mu(A_child)), over the levels r_A <= rho that the
        rho-truncated kernel keeps (rho=None: all), or with `above` over the
        levels r_A > rho that it drops."""
        tree = self.space.tree
        up = tree.parent[self._path_col]
        keep = (tree.radius[up] <= (np.inf if rho is None else rho)) != above
        col, up = self._path_col[keep], up[keep]
        gain = self._g[up] * (tree.volume[up] - tree.volume[col])
        return np.bincount(self._path_row[keep], gain, minlength=tree.parent.size)

    @classmethod
    def from_kernel(cls, kernel: JumpKernel, rho: float | None = None) -> "HierarchicalHeatKernel":
        """The engine of the rho-truncated kernel (rho=None: the whole
        kernel); raises NotIsotropic when the kernel is not isotropic.  Each
        is built once per (kernel, rho) and kept on the kernel; a truncated
        one is derived from the arrays of the whole-space one, which is
        itself the engine of every rho >= the diameter."""
        heat = kernel.kept("heat", lambda: cls(kernel.space, kernel.node_profile()))
        if rho is None or rho >= kernel.space.diam:
            return heat
        rho = float(rho)
        return kernel.kept(("heat", rho), lambda: heat.truncated(rho))

    def truncated(self, rho: float) -> "HierarchicalHeatKernel":
        """The engine of the rho-truncated profile, sharing the tree arrays."""
        out = copy.copy(self)
        out._set_range(rho)
        return out

    def node_values(self, t) -> np.ndarray:
        """p_t at every node, in preorder: p_t(x, x) at the leaf of x, and at
        any other node the value of the pairs whose lowest common ancestor
        it is (0.0 above the truncation range).  For a vector of times, one
        row per time, each bitwise the row of its scalar call: the sums of
        all times are one `bincount`, time k in the bins from size * k on,
        which keeps the order of each sum."""
        times = evaluation_times(t)
        ts = times[..., None]  # one time: shape (1,); k times: (k, 1)
        terms = np.exp(self._neg_rate * ts) * self._step
        terms *= np.expm1(self._neg_gap * ts) * self._neg_sign + self._leaf_one
        own = np.where(self._is_leaf, 1.0, -np.expm1(self._neg_eigenvalue * ts))
        k, size = times.size, self._base.size
        bins = self._row if k == 1 else (self._row + size * np.arange(k)[:, None]).ravel()
        sums = np.bincount(bins, terms.ravel(), minlength=k * size).reshape(own.shape)
        return self._base * own + sums

    def apply_grid(self, times, f) -> np.ndarray:
        """P_t f for every t in `times`, as (n, len(times)) like
        `SpectralGenerator.apply_grid`, for f a vector of length n; for the
        rows of an (m, n) array, (m, n, len(times)).  The truncated engine
        gives Q_t f, which never crosses a ball above rho.  It is
        `apply_values` of `node_values(times)`."""
        return self.apply_values(self.node_values(np.reshape(times, -1)), f)

    def apply_values(self, values: np.ndarray, f) -> np.ndarray:
        """sum_y v(x, y) f(y) mu(y) for a kernel v given, like p_t, by one
        value per node, and for each row of `values` (one row per time); the
        shape is that of `apply_grid`.  Only the nodes inside this engine's
        range are read, so v must vanish above it; the whole engine reads
        every node, so it applies p_t - q_t, the difference of its
        `node_values` and a truncated engine's, and P_t f - Q_t f is one sum.
        With S(A) = sum_{y in A} f(y) mu(y) and C_x(N) the child of N that
        holds x,

            sum_y v(x, y) f(y) mu(y) = v(x, x) f(x) mu(x) + sum_N v(N) S(N minus C_x(N))

        over the strict ancestors N of x, with S(N minus C) summed over the
        siblings of C as `_sibling_sums` does for masses.  Each sum over
        pairs is one `bincount` over all functions and rows."""
        rows = _as_vector(self, f, rows=True)
        fmu = rows.reshape(-1, rows.shape[-1]) * self.space.masses
        (m, n), (k, size) = fmu.shape, values.shape
        point, col, up = self._leaf_pairs
        # S(C) of each function on every node C inside the range, in point order
        sums = np.bincount((col + size * np.arange(m)[:, None]).ravel(), fmu[:, point].ravel(),
                           minlength=m * size).reshape(m, size)
        terms = _sibling_sums(self._siblings, sums.T)[col].T[:, None, :] * values[:, up]
        off = np.bincount((point + n * np.arange(m * k)[:, None]).ravel(), terms.ravel(),
                          minlength=m * k * n).reshape(m, k, n)
        out = (values[:, self.space.tree.leaf] * fmu[:, None, :] + off).transpose(0, 2, 1)
        return out if rows.ndim == 2 else out[0]

    def exits(self, values: np.ndarray) -> np.ndarray:
        """P_t 1_{B^c} on the ball B of every node, from `node_values(t)`."""
        return np.bincount(self._row, values[self._up] * self._sibling_mass,
                           minlength=values.size)

    @cached_property
    def _chains(self):
        """For each chain (B, P) of `ball_chains`, in order: mu(P minus B),
        and the nodes whose p_t P_t 1_{P minus B} takes, times mu(P minus B),
        off the siblings of B (P, and each strict ancestor of P with two
        children or more), as arrays (starts, weight, meet) with the nodes of
        chain c from meet[starts[c]] on."""
        tree = self.space.tree
        starts, weight, meet = [], [], []
        for b in ball_chains(self.space)[1].tolist():
            p = tree.parent[b]
            starts.append(len(meet))
            weight.append(self._rest[b])
            meet.append(p)
            a = tree.parent[p]
            while a >= 0:
                if tree.children[a] >= 2:
                    meet.append(a)
                a = tree.parent[a]
        return (np.array(starts, dtype=int), np.array(weight, dtype=float),
                np.array(meet, dtype=int))

    def chain_minima(self, values: np.ndarray) -> np.ndarray:
        """min_x P_t 1_{P minus B}(x) on each chain (B, P) of `ball_chains`,
        from `node_values(t)`.  The function is p_t(P) mu(P minus B) on B
        and p_t(A) mu(P minus B) where x meets P at A; on a sibling C of B
        it exceeds its value on B by e^{-lambda_P t}, the evolution of the
        Haar function 1_C - (mu(C)/mu(P)) 1_P, so C never holds the
        minimum."""
        starts, weight, meet = self._chains
        return np.minimum.reduceat(values[meet], starts) * weight

    def pair_classes(self) -> PairClasses:
        """One class per point (distance 0) and one per node with at least
        two children (distance r_N).  A node's row-major-first pair joins
        the first leaf of its first child to the first leaf of its second
        child, which starts where the first child (next in preorder) stops."""
        tree = self.space.tree
        n, size = len(self.space), tree.parent.size
        b = np.flatnonzero(tree.children >= 2)
        nodes = np.concatenate((tree.leaf, b))
        rows = np.concatenate((np.arange(n), tree.start[b]))
        cols = np.concatenate((np.arange(n), tree.stop[b + 1]))
        dist = np.concatenate((np.zeros(n), tree.radius[b]))
        order = np.lexsort((cols, rows))
        nodes = nodes[order]
        klass = np.full(size, -1)
        klass[nodes] = np.arange(nodes.size)
        balls = np.flatnonzero(tree.children > 0)  # the nodes of `space.balls()`

        def exits(values):
            p = np.zeros(size)
            p[nodes] = values
            return self.exits(p)[balls], self.chain_minima(p)

        return PairClasses(dist[order], rows[order], cols[order],
                           lambda t: self.node_values(t)[nodes],
                           lambda i, j: klass[self.space.lca(i, j)], exits)
