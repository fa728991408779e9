"""
The quadratic jump energy and its range truncation.

The energy of a pair of functions is the sum over ordered pairs of
distinct points

    E(f, g) = sum_{x != y} (f(x) - f(y)) (g(x) - g(y)) w(x, y),

which matches the double integral over the product space minus the
diagonal; indicator energies then satisfy E(1_B) = 2 j(B, B^c) with no
extra factor.  The rho-truncation keeps the pairs with d(x, y) <= rho, the
weights of `JumpKernel.truncated(rho)`.

The energy stays defined over ordered pairs, but `energy_and_scale` computes
it as twice the sum over the unordered pairs x < y with w(x, y) > 0, read
from the kernel's cached pair list (`JumpKernel.kept_pairs`).  That list is
sorted by distance, so E_rho is a sum over a prefix of it.  `energy_batch`
uses the dense quadratic operator of `JumpKernel.truncated(rho)` instead.
"""

import numpy as np

from .errors import DimensionMismatch
from .kernel import JumpKernel
from .reporting import IDENTITY_RTOL, CheckRecord, record
from .space import Ball

PAIR_BLOCK = 1 << 15  # pair terms that `tilt_sums` holds at a time


def _as_vector(owner, f, rows: bool = False) -> np.ndarray:
    """`f` as a float vector, which must have one entry per point of
    `owner.space` (the space of a kernel or of a heat engine); with `rows`,
    also the rows of a 2-D array of such vectors."""
    v, n = np.asarray(f, dtype=float), len(owner.space)
    if v.shape[-1:] != (n,) or v.ndim > 1 + rows:
        raise DimensionMismatch(f"expected vector of length {n}, got shape {v.shape}")
    return v


def energy_and_scale(kernel: JumpKernel, f, g, rho=None) -> tuple[float, float]:
    """Energy value together with its absolute-term sum.

    The scale sum_{pairs} |df| |dg| w bounds how much cancellation the
    signed sum contains; relative tolerances downstream are taken against
    it so that near-zero energies are not tested against rounding noise.
    """
    terms = pair_terms(_as_vector(kernel, f), _as_vector(kernel, g), *kernel.kept_pairs(rho))
    return float(terms.sum()), float(np.abs(terms).sum())


def pair_terms(f, g, i, j, w2, out=None) -> np.ndarray:
    """(f(i) - f(j)) (g(i) - g(j)) w2 for the pairs (i, j) of `kept_pairs`,
    along the last axis of f and g.  The rows of the result are
    C-contiguous, so each one sums in the same order as a single function's.
    `out` is three C-contiguous arrays of the result's shape: the result is
    written to the first, and the other two are overwritten."""
    if out is None:
        out = np.empty((3, *np.shape(f)[:-1], len(i)))
    terms, a, b = out
    # the indices are in range by construction; "clip" skips the bounds check
    f.take(i, axis=-1, mode="clip", out=terms)
    terms -= f.take(j, axis=-1, mode="clip", out=a)
    np.subtract(g.take(i, axis=-1, mode="clip", out=a),
                g.take(j, axis=-1, mode="clip", out=b), out=a)
    terms *= a
    terms *= w2
    return terms


def tilt_sums(F, G, lam, ind, pairs, touched) -> np.ndarray:
    """For each row f, g of F and G, with psi = lam[row] ind: the sum and
    the absolute sum of the `pair_terms` of (e^{-psi} f, e^{psi} g), then
    those of (f, g), as the rows of a 4 x rows array.

    `pairs` is a `kept_pairs` prefix and `touched` lists, sorted, the
    positions in it of the pairs with an endpoint where ind != 0: the only
    terms the tilt changes, since e^{-0.0} f == f exactly.  For the same
    reason a row with lam 0 is not tilted.  The rows are taken, those with
    lam != 0 first, in blocks of about PAIR_BLOCK terms."""
    i, j, w2 = pairs
    order = np.argsort(lam == 0, kind="stable")
    F, G, lam = F[order], G[order], lam[order]
    tilted = np.count_nonzero(lam)
    psi = np.multiply.outer(lam[:tilted], ind)
    tF, tG = np.exp(-psi) * F[:tilted], np.exp(psi) * G[:tilted]
    ti, tj, tw2 = i[touched], j[touched], w2[touched]
    step = max(1, PAIR_BLOCK // max(1, i.size))
    work = np.empty((3, min(step, len(F)), i.size))
    sums = np.empty((4, len(F)))
    for a in range(0, len(F), step):
        b = min(a + step, len(F))
        terms = pair_terms(F[a:b], G[a:b], i, j, w2, work[:, :b - a])
        sums[2, a:b] = terms.sum(axis=1)
        sums[3, a:b] = np.abs(terms, out=work[1, :b - a]).sum(axis=1)
        c = min(b, tilted)
        if c > a:
            terms = terms[:c - a]
            terms[:, touched] = pair_terms(tF[a:c], tG[a:c], ti, tj, tw2)
            sums[0, a:c] = terms.sum(axis=1)
            sums[1, a:c] = np.abs(terms, out=work[1, :c - a]).sum(axis=1)
    sums[:2, tilted:] = sums[2:, tilted:]
    out = np.empty_like(sums)
    out[:, order] = sums
    return out


def energy(kernel: JumpKernel, f, g) -> float:
    """Bilinear energy E(f, g) over all ordered off-diagonal pairs."""
    return energy_and_scale(kernel, f, g, None)[0]


def energy_batch(kernel: JumpKernel, functions: np.ndarray, rho=None) -> np.ndarray:
    """E_rho(u, u) for every column of `functions` (n x m).

    E_rho is unchanged by a constant added on a block of the rho-partition,
    so each column is shifted by its value at the first point of its block:
    a column constant on every block gets exactly 0, not a signed rounding
    error of about eps ||Q|| ||u||^2."""
    w = kernel.truncated(rho)
    q = -2.0 * w  # the symmetric Q with f^T Q g = E_rho(f, g)
    np.fill_diagonal(q, 2.0 * w.sum(axis=1))
    del w  # not kept beside q through the n x m products below
    blocks = kernel.space.partition(kernel.space.diam if rho is None else rho)
    v = functions[np.repeat([b.start for b in blocks], [len(b) for b in blocks])]
    np.subtract(functions, v, out=v)  # in place: one n x m temporary, not two
    return np.einsum("im,im->m", v, q @ v)


def indicator_energy_check(kernel: JumpKernel, ball: Ball) -> CheckRecord:
    """Check E(1_B, 1_B) = 2 j(B, B^c) by direct summation of both sides.

    The left side is the sum of the `pair_terms` of (1_B, 1_B): w2 on a pair
    with one endpoint in B and +0.0 on any other, formed as that array
    directly, so its sum has the bits of `energy(kernel, 1_B, 1_B)`."""
    i, j, w2 = kernel.kept_pairs()
    crossing = ((i >= ball.start) & (i < ball.stop)) != ((j >= ball.start) & (j < ball.stop))
    lhs = float(np.where(crossing, w2, 0.0).sum())
    inside = slice(ball.start, ball.stop)
    cross = kernel.w[inside, :].sum() - kernel.w[inside, inside].sum()
    rhs = 2.0 * float(cross)
    margin = IDENTITY_RTOL * max(abs(lhs), abs(rhs), 1.0)
    return record(
        "form.indicator_energy",
        {"ball": list(ball.members), "radius": ball.radius},
        measured=lhs,
        bound=rhs,
        margin=margin,
        ok=abs(lhs - rhs) <= margin,
    )
