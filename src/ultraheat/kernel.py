"""
Symmetric jump kernels over an ultrametric space.

A kernel assigns a weight w(x, y) >= 0 to every ordered pair of distinct
points, symmetric with zero diagonal; w is the discrete symmetric jump
measure on off-diagonal pairs.  The associated transition function is

    J(x, A) = sum_{y in A} w(x, y) / mu(x),

and `tail(x, r) = J(x, {y : d(x, y) > r})` is its tail beyond radius r.

`tj_constant` returns the smallest C with r^beta * tail(x, r) <= C for all
points x and all r in (0, R0).  Tails are piecewise constant in r with
jumps exactly at the distance levels, so the supremum over continuous r is
computed exactly by scanning consecutive levels (no grid error).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    Asymmetric,
    ConfigError,
    MalformedCsv,
    NegativeProfile,
    NegativeWeight,
    NonzeroDiagonal,
    NotIsotropic,
)
from .space import UltrametricSpace, read_id_matrix


class JumpKernel:
    """Symmetric nonnegative weight matrix over point pairs, zero diagonal.

    Immutable after construction; concurrent reads are safe.  The weights
    are copied unless they are already a read-only array that owns its
    data, so the caller's array stays writable and cannot change the kernel.
    """

    def __init__(self, space: UltrametricSpace, weights):
        w = np.asarray(weights, dtype=float)
        if w.base is not None or (w is weights and w.flags.writeable):
            w = w.copy()
        n = len(space)
        if w.shape != (n, n):
            raise NegativeWeight(f"weight matrix shape {w.shape} does not match {n} points")
        if not np.all(np.isfinite(w)):
            raise NegativeWeight("weights must be finite")
        if np.any(w < 0):
            i, j = map(int, np.argwhere(w < 0)[0])
            raise NegativeWeight(f"w({space.ids[i]},{space.ids[j]}) = {w[i, j]} < 0")
        if not np.array_equal(w, w.T):
            i, j = map(int, np.argwhere(w != w.T)[0])
            raise Asymmetric(
                f"w({space.ids[i]},{space.ids[j]}) = {w[i, j]} != "
                f"w({space.ids[j]},{space.ids[i]}) = {w[j, i]}"
            )
        if np.any(np.diagonal(w) != 0):
            i = int(np.nonzero(np.diagonal(w))[0][0])
            raise NonzeroDiagonal(f"w({space.ids[i]},{space.ids[i]}) = {w[i, i]} != 0")
        self.space = space
        self.w = w
        self.w.setflags(write=False)
        self._pairs = None
        self._profile = None
        # the whole-space `semigroup.HierarchicalHeatKernel`, and the
        # whole-domain `semigroup.SpectralGenerator` of each rho, built there
        # on first use
        self._heat = None
        self._generators = {}

    @property
    def n(self) -> int:
        return len(self.space)

    @property
    def mu(self) -> np.ndarray:
        return self.space.masses

    def kept_pairs(self, rho=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pairs i < j with w(i, j) > 0 and d(i, j) <= rho as read-only arrays
        (i, j, 2 w(i, j)); rho=None keeps every pair.

        The list is built once per kernel and sorted stably by distance, so
        every truncation level selects a prefix of it.
        """
        if self._pairs is None:
            i, j = np.nonzero(np.triu(self.w > 0, 1))
            d = self.space.distance_matrix()[i, j]
            order = np.argsort(d, kind="stable")
            i, j = i[order], j[order]
            levels = np.array(self.space.distance_levels)
            ends = np.concatenate(([0], np.searchsorted(d[order], levels, side="right")))
            arrays = (levels, ends, i.astype(np.int32), j.astype(np.int32), 2.0 * self.w[i, j])
            for a in arrays:
                a.setflags(write=False)
            self._pairs = arrays
        levels, ends, i, j, w2 = self._pairs
        stop = len(i) if rho is None else ends[np.count_nonzero(levels <= rho)]
        return i[:stop], j[:stop], w2[:stop]

    def tail_vector(self, r: float) -> np.ndarray:
        """J(x, B(x, r)^c) = sum_{d(x,y) > r} w(x, y) / mu(x) for every point x."""
        D = self.space.distance_matrix()
        return np.where(D > r, self.w, 0.0).sum(axis=1) / self.mu

    def tail_sup(self, r: float) -> float:
        return float(self.tail_vector(r).max())

    def isotropy_profile(self) -> dict:
        """Return {distance level: profile value} for w = g(d) mu(x) mu(y).

        Raises NotIsotropic when the mass-scaled weights vary on a distance
        level by more than 1e-12 relative.  The scan runs once per kernel;
        its outcome, the profile or the reason it has none, is kept.
        """
        if self._profile is None:
            self._profile = self._scan_profile()
        if isinstance(self._profile, str):
            raise NotIsotropic(self._profile)
        return dict(self._profile)

    def _scan_profile(self):
        """The profile dict, or the message of the level it fails on."""
        D = self.space.distance_matrix()
        mu = self.mu
        scaled = self.w / np.outer(mu, mu)
        out = {}
        for level in self.space.distance_levels:
            vals = scaled[D == level]
            lo, hi = float(vals.min()), float(vals.max())
            if hi - lo > 1e-12 * max(abs(hi), 1e-300):
                return f"mass-scaled weights vary on level {level}: [{lo}, {hi}]"
            out[level] = 0.5 * (lo + hi)
        return out

    def __repr__(self):
        return f"JumpKernel(n={self.n})"


def power_profile(exponent: float, scale: float = 1.0):
    """Radial profile r -> scale * r**(-exponent)."""
    def profile(r: float) -> float:
        return scale * float(r) ** (-exponent)
    return profile


def profile_from_config(cfg: dict):
    """Profile callable from {"kind": "power", "exponent": s, "scale": c}."""
    unknown = sorted(set(cfg) - {"kind", "exponent", "scale"})
    if unknown:
        raise ConfigError(f"unknown config keys {unknown} in isotropic; "
                          f"known: kind, exponent, scale")
    if cfg.get("kind") != "power":
        raise ConfigError(f"unknown profile kind {cfg.get('kind')!r}")
    try:
        return power_profile(float(cfg["exponent"]), float(cfg.get("scale", 1.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"power profile needs a numeric exponent and scale: {exc!r}") from exc


def isotropic_kernel(space: UltrametricSpace, profile, scaling: str = "none") -> JumpKernel:
    """Kernel w(x, y) = profile(d(x, y)), optionally scaled by mu(x) mu(y).

    `profile` is a callable on distances.  Mass scaling is the canonical
    family for the fast hierarchical solver.
    """
    if scaling not in ("none", "mass"):
        raise ConfigError(f"scaling must be 'none' or 'mass', got {scaling!r}")
    g = {}
    for level in space.distance_levels:
        g[level] = float(profile(level))
        if g[level] < 0:
            raise NegativeProfile(f"profile({level}) = {g[level]} < 0")
    n = len(space)
    w = np.zeros((n, n))
    # each block in preorder, as `distance_matrix` fills D, so a pair keeps
    # the profile at the radius of the lowest node over it
    tree = space.tree
    for a, b, r, c in zip(tree.start.tolist(), tree.stop.tolist(),
                          tree.radius.tolist(), tree.children.tolist()):
        if c >= 2:
            w[a:b, a:b] = g[r]
    np.fill_diagonal(w, 0.0)
    if scaling == "mass":
        # w(x, y) mu(x) mu(y) row by row: the products of np.outer, with no
        # n x n temporary
        mu = space.masses
        for i in range(n):
            w[i] *= mu[i] * mu
    w.setflags(write=False)  # handed over: the kernel keeps it without a copy
    return JumpKernel(space, w)


def kernel_from_csv(space: UltrametricSpace, path) -> JumpKernel:
    """Read a weight matrix CSV file whose header row names every point of
    the space once, in any order."""
    ids, raw = read_id_matrix(path, "kernel")
    missing, unknown = sorted(set(space.ids) - set(ids)), sorted(set(ids) - set(space.ids))
    if missing or unknown:
        raise MalformedCsv(f"kernel CSV header must name every point of the space; "
                           f"missing {missing}, unknown {unknown}")
    perm = [space.index(i) for i in ids]
    w = np.zeros((len(space), len(space)))
    w[np.ix_(perm, perm)] = raw
    return JumpKernel(space, w)


def tj_constant(kernel: JumpKernel, beta: float, r0: float) -> float:
    """Smallest C with r^beta * tail(x, r) <= C for all x, r in (0, R0).

    The tail is right-continuous and constant between consecutive distance
    levels d_i < d_{i+1}, so the supremum over each interval is attained in
    the limit r -> min(d_{i+1}, R0) and the scan over levels is exact.
    """
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    if not 0 < r0 <= kernel.space.diam or kernel.space.diam == 0:
        if kernel.space.diam == 0:
            return 0.0
        raise ValueError(f"R0 must lie in (0, diam] = (0, {kernel.space.diam}], got {r0}")
    return tj_witness(kernel, beta, r0)["constant"]


def tj_witness(kernel: JumpKernel, beta: float, r0: float) -> dict:
    """The tail-jump level scan: its maximum under "constant", with the
    argmax point and the radius interval that attain it."""
    levels = [0.0] + list(kernel.space.distance_levels)
    best, info = 0.0, {"point": None, "r_sup": 0.0}
    for i, lo in enumerate(levels):
        if lo >= r0:
            break
        cap = min(levels[i + 1], r0) if i + 1 < len(levels) else r0
        tails = kernel.tail_vector(lo)
        x = int(np.argmax(tails))
        val = cap ** beta * float(tails[x])
        if val > best:
            best = val
            info = {"point": kernel.space.ids[x], "r_sup": cap, "level": lo}
    info["constant"] = best
    return info


@dataclass
class ExponentConfig:
    """Dimension/scaling exponents and the tail-range parameter; nu = beta /
    alpha is derived."""

    alpha: float
    beta: float
    r0: float
    nu: float = field(init=False)

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be > 0")
        if self.r0 <= 0:
            raise ValueError("R0 must be > 0")
        self.nu = self.beta / self.alpha

    def k0(self, rho: float) -> float:
        """Zero-order rate rho^-beta + R0^-beta entering the Nash bound."""
        return rho ** (-self.beta) + self.r0 ** (-self.beta)

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta, "R0": self.r0, "nu": self.nu}
