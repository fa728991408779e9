"""
Generators, heat kernels, and semigroup evaluation.

Normalisation.  The quadratic form sums over ordered pairs, so the unique
generator with <-L f, g>_mu = E(f, g) carries a factor 2 over the naive
jump rate:

    (L f)(x) = 2 sum_y (f(y) - f(x)) w(x, y) / mu(x).

All constants downstream are stated under this convention.

Block exactness.  Range-truncated and domain-restricted generators are
assembled per connected component of the retained pair graph, and each
component is exponentiated separately.  Entries of the heat kernel across
components are exact zeros by construction, never the result of rounding a
dense exponential.

Heat kernels are densities with respect to mu:
p_t(x, y) = (e^{tL})_{xy} / mu(y), symmetric and conservative on the full
space.

Evaluation.  A `SpectralGenerator` is the one way into the semigroup: its
`density` is the one matrix evaluation (`heat_matrix`, e^{tL}, is
`density(t) * mu`), its `apply` and `apply_grid` evolve functions, and the
Davies tilt e^{psi} e^{tL} e^{-psi} is `davies.tilted_evolution`, built on
`apply_grid`.

Fast isotropic path.  For kernels w(x, y) = g(d(x, y)) mu(x) mu(y) the
Haar basis of the ball tree diagonalises the semigroup, so p_t(x, x) depends
only on x and p_t(x, y), x != y, only on the lowest common ancestor of x and
y.  `HierarchicalHeatKernel` evaluates that profile from per-node arrays in
O(nodes) per time, with no n x n matrix.  It serves the DUE, wUE and
chaining scans of `bounds` through `PairClasses`; the switch is automatic
(`bounds.heat_pair_classes`: hierarchical when `from_kernel` succeeds, dense
on `NotIsotropic`), and the dense `SpectralGenerator` stays the fallback
and the oracle.  All other checks evaluate the dense generator.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .errors import DimensionMismatch, EmptyDomain
from .form import energy_and_scale
from .kernel import JumpKernel
from .reporting import CheckReport, record
from .space import Ball, UltrametricSpace

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
    `values(t)` is p_t on every class.
    """

    dist: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: Callable[[float], np.ndarray]


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
        elif isinstance(omega, Ball):
            idx = omega.indices
        else:
            idx = np.array(sorted({space.index(p) for p in omega}))
        if idx.size == 0:
            raise EmptyDomain("restriction domain is empty")
        self.omega = idx
        self.is_whole = idx.size == n

        D = space.distance_matrix()
        keep = np.ones((n, n), dtype=bool) if self.rho is None else (D <= self.rho)
        np.fill_diagonal(keep, False)
        w_eff = np.where(keep, kernel.w, 0.0)

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

    def eigenvalues(self) -> np.ndarray:
        """All rate eigenvalues of -L in ascending order."""
        return np.sort(np.concatenate([lam for lam, _ in self._eigs]))

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
        """Every ordered pair of the domain as its own class, in row-major
        order, with the values of `density(t)`."""
        m = self.size
        rows, cols = np.divmod(np.arange(m * m), m)
        dist = self.space.distance_matrix()[np.ix_(self.omega, self.omega)].ravel()
        return PairClasses(dist, self.omega[rows], self.omega[cols],
                           lambda t: self.density(t).ravel())

    def apply(self, t: float, f) -> np.ndarray:
        """e^{tL} f; full-length input, full-length output (zero off-domain)."""
        v = np.asarray(f, dtype=float)
        if v.shape != (len(self.space),):
            raise DimensionMismatch(
                f"expected vector of length {len(self.space)}, got shape {v.shape}"
            )
        return self.apply_grid([t], v)[:, 0]

    def apply_grid(self, times, f) -> np.ndarray:
        """e^{tL} f for every t in `times`; returns (n, len(times))."""
        v = np.asarray(f, dtype=float)
        ts = np.asarray(times, dtype=float)
        if (ts < 0).any():
            raise ValueError(f"times must be >= 0, got {ts.min()}")
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
    """Generator of the rho-truncated form, optionally killed outside omega."""
    return SpectralGenerator(kernel, rho=rho, omega=omega)


# -- self checks -----------------------------------------------------------------


def semigroup_selfcheck(gen: SpectralGenerator, time_grid, seed: int = 0) -> CheckReport:
    """Symmetry, positivity, conservation, two-step consistency, and the
    form/generator duality, each at its stated tolerance."""
    report = CheckReport()
    mu = gen._mu
    times = [float(t) for t in time_grid]

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


class HierarchicalHeatKernel:
    """Heat kernel of an isotropic mass-scaled kernel, one value per tree node.

    For w(x, y) = g(d(x, y)) mu(x) mu(y), functions that are supported on a
    ball, constant on each of its children, and mean-zero are eigenfunctions
    (the Haar basis of the ball tree); the eigenvalue of ball N is

        lambda_N = 2 [ g(r_N) mu(N) + sum_{A above N} g(r_A) (mu(A) - mu(A_child)) ]

    with A_child the child of A on the path to N.  So p_t(x, x) depends only
    on the leaf x, and p_t(x, y) for x != y only on their lowest common
    ancestor N:

        p_t(x, x) = 1/mu(X) + S_t(x),
        p_t(x, y) = 1/mu(X) + S_t(N) - e^{-lambda_N t} / mu(N),

    where S_t(M) sums e^{-lambda_A t} (1/mu(A_child) - 1/mu(A)) over the
    strict ancestors A of M.  The nodes are kept as arrays in preorder and
    S_t is one sparse matvec over the root-to-node paths, so `diagonal` and
    `offdiagonal` cost O(nodes * depth) flops per time, with no Python loop
    over nodes and no n x n matrix.
    """

    def __init__(self, space: UltrametricSpace, profile):
        self.space = space
        nodes = space._nodes  # preorder, root first
        size = len(nodes)
        pos = {id(nd): k for k, nd in enumerate(nodes)}
        self.parent = np.array([-1] + [pos[id(nd.parent)] for nd in nodes[1:]], dtype=int)
        self.radius = np.array([nd.radius for nd in nodes])
        self.volume = np.array([nd.volume for nd in nodes])
        self.branching = np.array([len(nd.children) for nd in nodes], dtype=int)
        self._start = np.array([nd.start for nd in nodes], dtype=int)
        self._stop = np.array([nd.stop for nd in nodes], dtype=int)
        # nodes whose pairs meet there; a single-child chain node has none,
        # its projector is zero and its radius need not be a profile level
        self._branch = np.flatnonzero(self.branching >= 2)
        self._leaf = np.flatnonzero(self.branching == 0)  # in point order

        # row k marks the non-root nodes on the path from the root to k, k
        # included; with its columns sorted (preorder), one matvec sums every
        # root-to-node path from the root down
        rows, cols = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
        node = np.arange(size)
        while (node > 0).any():
            rows.append(np.flatnonzero(node > 0))
            cols.append(node[node > 0])
            node = np.where(node > 0, self.parent[node], 0)
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        self._paths = csr_array((np.ones(rows.size), (rows, cols)), shape=(size, size))
        self._paths.sort_indices()

        g = np.zeros(size)
        radii, level_of = np.unique(self.radius[self._branch], return_inverse=True)
        g[self._branch] = np.array([float(profile(float(r))) for r in radii])[level_of]
        up = self.parent[1:]
        gain = np.zeros(size)  # rate a node inherits from its parent's ball
        gain[1:] = g[up] * (self.volume[up] - self.volume[1:])
        self.eigenvalue = 2.0 * (g * self.volume + self._paths @ gain)
        # the dense generator's convention, so that both engines agree
        self.eigenvalue[np.abs(self.eigenvalue) < EIGENVALUE_CLAMP] = 0.0
        self._inv_volume = 1.0 / self.volume
        self._step = np.zeros(size)
        self._step[1:] = self._inv_volume[1:] - self._inv_volume[up]

    @classmethod
    def from_kernel(cls, kernel: JumpKernel) -> "HierarchicalHeatKernel":
        """Build from an explicit kernel; raises NotIsotropic otherwise."""
        return cls(kernel.space, kernel.isotropy_profile().__getitem__)

    def _profile(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(S_t, e^{-lambda t}) at every node."""
        decay = np.exp(-self.eigenvalue * t)
        return self._paths @ (decay[self.parent] * self._step), decay

    def diagonal(self, t: float) -> np.ndarray:
        """p_t(x, x) for every point x, in point order."""
        acc, _ = self._profile(t)
        return 1.0 / self.space.total_mass + acc[self._leaf]

    def offdiagonal(self, t: float) -> np.ndarray:
        """p_t at every node with at least two children, in preorder: the
        value of every pair whose lowest common ancestor is that node."""
        acc, decay = self._profile(t)
        b = self._branch
        return 1.0 / self.space.total_mass + acc[b] - decay[b] * self._inv_volume[b]

    def value(self, t: float, x, y) -> float:
        """p_t(x, y), looked up in `diagonal` or `offdiagonal`."""
        i, j = sorted((self.space.index(x), self.space.index(y)))
        if i == j:
            return float(self.diagonal(t)[i])
        # the ancestors of both points form a chain; the last in preorder is
        # the lowest
        b = self._branch
        k = np.flatnonzero((self._start[b] <= i) & (self._stop[b] > j))[-1]
        return float(self.offdiagonal(t)[k])

    def pair_classes(self) -> PairClasses:
        """One class per point (distance 0) and one per node with at least
        two children (distance r_N).  A node's row-major-first pair joins
        the first leaf of its first child to the first leaf of its second
        child, which starts where the first child (next in preorder) stops."""
        n, b = len(self.space), self._branch
        rows = np.concatenate((np.arange(n), self._start[b]))
        cols = np.concatenate((np.arange(n), self._stop[b + 1]))
        dist = np.concatenate((np.zeros(n), self.radius[b]))
        order = np.lexsort((cols, rows))
        return PairClasses(dist[order], rows[order], cols[order],
                           lambda t: np.concatenate((self.diagonal(t),
                                                     self.offdiagonal(t)))[order])

    def trace(self, t: float) -> float:
        """sum_x p_t(x, x) mu(x) = sum_k e^{-lambda_k t}, via multiplicities."""
        mult = np.maximum(self.branching - 1, 0)
        return 1.0 + float((mult * np.exp(-self.eigenvalue * t)).sum())

    def eigenvalues(self) -> np.ndarray:
        """All rate eigenvalues with multiplicity, ascending."""
        mult = np.maximum(self.branching - 1, 0)
        return np.sort(np.concatenate(([0.0], np.repeat(self.eigenvalue, mult))))
