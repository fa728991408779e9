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

Fast isotropic path.  For kernels w(x, y) = g(d(x, y)) mu(x) mu(y) the
eigenfunctions are adapted to the ball tree (constant on sibling subtrees),
so the kernel value p_t(x, y) is a sum along the ancestor path of the pair:
O(n * depth) precompute and O(depth) per query, with no n x n matrix.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components

from .errors import DimensionMismatch, EmptyDomain
from .form import energy_and_scale
from .kernel import JumpKernel
from .reporting import CheckReport, record
from .space import Ball, UltrametricSpace

# Eigenvalues within this of zero are clamped to exactly zero.
EIGENVALUE_CLAMP = 1e-12
N_DUALITY_PAIRS = 8  # random function pairs of the form/generator duality check


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

    @property
    def domain_ids(self) -> tuple:
        return tuple(self.space.ids[i] for i in self.omega)

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

    def eigen_residual(self) -> float:
        """Max residual |A v - lambda v| over all blocks (diagnostic)."""
        worst = 0.0
        for block, (lam, vec) in zip(self.blocks, self._eigs):
            a = -(self._sqrt_mu[block][:, None] * self.matrix[np.ix_(block, block)]
                  / self._sqrt_mu[block][None, :])
            worst = max(worst, float(np.abs(a @ vec - vec * lam).max()))
        return worst

    # -- evaluation ------------------------------------------------------------

    def _cores(self, t: float):
        """(block, e^{-t A} in the symmetrised basis) for every component."""
        for block, (lam, vec) in zip(self.blocks, self._eigs):
            yield block, (vec * np.exp(-lam * t)) @ vec.T

    def heat_matrix(self, t: float) -> np.ndarray:
        """e^{tL} over the domain; exact zeros across components."""
        out = np.zeros((self.size, self.size))
        for block, core in self._cores(t):
            scale = np.outer(1.0 / self._sqrt_mu[block], self._sqrt_mu[block])
            out[np.ix_(block, block)] = core * scale
        return out

    def density(self, t: float) -> np.ndarray:
        """Heat kernel p_t(x, y) = (e^{tL})_{xy} / mu(y) over the domain."""
        out = np.zeros((self.size, self.size))
        for block, core in self._cores(t):
            scale = np.outer(self._sqrt_mu[block], self._sqrt_mu[block])
            out[np.ix_(block, block)] = core / scale
        return out

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


@dataclass
class HeatKernelEntry:
    t: float
    values: np.ndarray  # density matrix over the generator's domain
    flavor: str
    points: tuple


@dataclass
class HeatKernelTable:
    """Heat kernel densities at a set of times, all of one flavor."""

    times: tuple
    flavor: str
    entries: dict = field(default_factory=dict)
    points: tuple = ()

    @classmethod
    def from_generator(cls, gen: SpectralGenerator, times) -> "HeatKernelTable":
        flavor = _flavor(gen)
        table = cls(times=tuple(sorted(float(t) for t in times)), flavor=flavor,
                    points=gen.domain_ids)
        for t in table.times:
            table.entries[t] = gen.density(t)
        return table

    def at(self, t: float) -> np.ndarray:
        return self.entries[float(t)]

    def entry(self, t: float) -> HeatKernelEntry:
        return HeatKernelEntry(float(t), self.entries[float(t)], self.flavor, self.points)

    def to_csv(self) -> str:
        lines = ["t,x,y,value"]
        for t in self.times:
            dens = self.entries[t]
            for i, x in enumerate(self.points):
                for j, y in enumerate(self.points):
                    lines.append(f"{float(t)!r},{x},{y},{float(dens[i, j])!r}")
        return "\n".join(lines) + "\n"


def _flavor(gen: SpectralGenerator) -> str:
    parts = []
    if gen.rho is not None:
        parts.append(f"truncated-{gen.rho}")
    if not gen.is_whole:
        parts.append("restricted")
    return "+".join(parts) if parts else "full"


def heat_kernel(gen: SpectralGenerator, t: float) -> HeatKernelEntry:
    """Heat kernel density at one time."""
    if t <= 0:
        raise ValueError(f"time must be > 0, got {t}")
    return HeatKernelEntry(float(t), gen.density(t), _flavor(gen), gen.domain_ids)


def truncated_heat_kernel(kernel: JumpKernel, rho: float, t: float) -> HeatKernelEntry:
    """Range-truncated heat kernel, exponentiated block by block."""
    if rho <= 0:
        raise ValueError(f"truncation range must be > 0, got {rho}")
    return heat_kernel(generator(kernel, rho=rho), t)


@dataclass(frozen=True)
class Perturbation:
    """Exponential tilt by psi = lam * 1_B for a ball B.

    `rho` records the truncation range the tilt is used with; for an exact
    tilt identity it must not exceed the ball radius.
    """

    ball: Ball
    lam: float
    rho: float | None = None

    def psi(self) -> np.ndarray:
        return self.lam * self.ball.indicator()


def apply(gen: SpectralGenerator, t: float, f) -> np.ndarray:
    """Semigroup action e^{tL} f."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    return gen.apply(t, f)


def perturbed_apply(gen: SpectralGenerator, t: float, pert: Perturbation, f) -> np.ndarray:
    """Tilted action e^{psi} e^{tL} (e^{-psi} f)."""
    psi = pert.psi()
    return np.exp(psi) * apply(gen, t, np.exp(-psi) * np.asarray(f, dtype=float))


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
    """Heat kernel evaluator for isotropic mass-scaled kernels.

    For w(x, y) = g(d(x, y)) mu(x) mu(y), functions that are supported on a
    ball, constant on each of its children, and mean-zero are eigenfunctions;
    the eigenvalue of ball N is

        lambda_N = 2 [ g(r_N) mu(N) + sum_{A above N} g(r_A) (mu(A) - mu(A_child)) ]

    with A_child the child of A on the path to N.  The kernel at a pair is
    then a sum over the ancestors of their lowest common ancestor, giving
    O(depth) per query after an O(n) sweep; no n x n matrix is formed.
    """

    def __init__(self, space: UltrametricSpace, profile):
        if isinstance(profile, dict):
            if "kind" in profile:
                from .kernel import profile_from_config
                profile = profile_from_config(profile)
            else:
                levels = dict(profile)
                profile = lambda r: levels[r]  # noqa: E731
        self.space = space
        self.profile = profile
        self._lam = {}      # node -> eigenvalue
        self._prefix = {}   # node -> accumulated ancestor rate
        self._walk(space.root, 0.0)

    @classmethod
    def from_kernel(cls, kernel: JumpKernel) -> "HierarchicalHeatKernel":
        """Build from an explicit kernel; raises NotIsotropic otherwise."""
        levels = kernel.isotropy_profile()
        return cls(kernel.space, dict(levels))

    def _walk(self, node, acc: float) -> None:
        if node.is_leaf:
            return
        if len(node.children) == 1:
            # single-child chain node: its projector is zero (the child
            # covers it), so no profile value is needed and nothing is
            # contributed to descendants either
            self._lam[node] = 2.0 * acc
            self._walk(node.children[0], acc)
            return
        g = float(self.profile(node.radius))
        self._lam[node] = 2.0 * (g * node.volume + acc)
        for child in node.children:
            self._walk(child, acc + g * (node.volume - child.volume))

    def value(self, t: float, x, y) -> float:
        """p_t(x, y) via the ancestor path of the pair."""
        space = self.space
        ix, iy = space.index(x), space.index(y)
        below = space.lca(ix, iy)
        total = 1.0 / space.total_mass
        if ix != iy:
            total += np.exp(-self._lam[below] * t) * (-1.0 / below.volume)
        node = below.parent
        while node is not None:
            total += np.exp(-self._lam[node] * t) * (1.0 / below.volume - 1.0 / node.volume)
            below = node
            node = node.parent
        return float(total)

    def diagonal(self, t: float) -> np.ndarray:
        """p_t(x, x) for all points, by one accumulation sweep over the tree.

        Each ancestor N of x contributes e^{-lambda_N t} (1/mu(C) - 1/mu(N))
        with C the child of N on the path to x.
        """
        out = np.full(len(self.space), 1.0 / self.space.total_mass)

        def sweep(node, acc):
            if node.is_leaf:
                out[node.start] += acc
                return
            lam_term = np.exp(-self._lam[node] * t)
            for child in node.children:
                sweep(child, acc + lam_term * (1.0 / child.volume - 1.0 / node.volume))

        sweep(self.space.root, 0.0)
        return out

    def trace(self, t: float) -> float:
        """sum_x p_t(x, x) mu(x) = sum_k e^{-lambda_k t}, via multiplicities."""
        total = 1.0
        for node, lam in self._lam.items():
            total += (len(node.children) - 1) * np.exp(-lam * t)
        return float(total)

    def eigenvalues(self) -> np.ndarray:
        """All rate eigenvalues with multiplicity, ascending."""
        vals = [0.0]
        for node, lam in self._lam.items():
            vals.extend([lam] * (len(node.children) - 1))
        return np.sort(np.array(vals))

