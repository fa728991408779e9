"""
The quadratic jump energy and its range truncation.

The energy of a pair of functions is the sum over ordered pairs of
distinct points

    E(f, g) = sum_{x != y} (f(x) - f(y)) (g(x) - g(y)) w(x, y),

which matches the double integral over the product space minus the
diagonal; indicator energies then satisfy E(1_B) = 2 j(B, B^c) with no
extra factor.  The rho-truncation keeps the pairs with d(x, y) <= rho
(closed ball convention, as everywhere in the package).

The energy stays defined over ordered pairs, but `energy_and_scale` computes
it as twice the sum over the unordered pairs x < y with w(x, y) > 0, read
from the kernel's cached pair list (`JumpKernel.kept_pairs`).  That list is
sorted by distance, so E_rho is a sum over a prefix of it.  `energy_batch`
uses the dense quadratic operator instead.
"""

import numpy as np

from .errors import DimensionMismatch
from .kernel import JumpKernel
from .reporting import IDENTITY_RTOL, CheckRecord, record
from .space import Ball


def _as_vector(kernel: JumpKernel, f) -> np.ndarray:
    v = np.asarray(f, dtype=float)
    if v.shape != (kernel.n,):
        raise DimensionMismatch(f"expected vector of length {kernel.n}, got shape {v.shape}")
    return v


def energy_and_scale(kernel: JumpKernel, f, g, rho=None) -> tuple[float, float]:
    """Energy value together with its absolute-term sum.

    The scale sum_{pairs} |df| |dg| w bounds how much cancellation the
    signed sum contains; relative tolerances downstream are taken against
    it so that near-zero energies are not tested against rounding noise.
    """
    fv = _as_vector(kernel, f)
    gv = _as_vector(kernel, g)
    i, j, w2 = kernel.kept_pairs(rho)
    # the indices are in range by construction; "clip" skips the bounds check
    df = fv.take(i, mode="clip") - fv.take(j, mode="clip")
    dg = gv.take(i, mode="clip") - gv.take(j, mode="clip")
    terms = df * dg * w2
    return float(terms.sum()), float(np.abs(terms).sum())


def energy(kernel: JumpKernel, f, g) -> float:
    """Bilinear energy E(f, g) over all ordered off-diagonal pairs."""
    return energy_and_scale(kernel, f, g, None)[0]


def quadratic_operator(kernel: JumpKernel, rho=None) -> np.ndarray:
    """Symmetric matrix Q with f^T Q g = E_rho(f, g); used for fast batches."""
    w = kernel.w if rho is None else \
        np.where(kernel.space.distance_matrix() <= rho, kernel.w, 0.0)
    q = -2.0 * w
    np.fill_diagonal(q, 2.0 * w.sum(axis=1))
    return q


def energy_batch(kernel: JumpKernel, functions: np.ndarray, rho=None) -> np.ndarray:
    """E_rho(u, u) for every column of `functions` (n x m).

    E_rho is unchanged by a constant added on a block of the rho-partition,
    so each column is shifted by its value at the first point of its block:
    a column constant on every block gets exactly 0, not a signed rounding
    error of about eps ||Q|| ||u||^2."""
    q = quadratic_operator(kernel, rho)
    blocks = kernel.space.partition(kernel.space.diam if rho is None else rho)
    v = functions[np.repeat([b.start for b in blocks], [len(b) for b in blocks])]
    np.subtract(functions, v, out=v)  # in place: one n x m temporary, not two
    return np.einsum("im,im->m", v, q @ v)


def indicator_energy_check(kernel: JumpKernel, ball: Ball) -> CheckRecord:
    """Check E(1_B, 1_B) = 2 j(B, B^c) by direct summation of both sides."""
    ind = ball.indicator()
    lhs = energy(kernel, ind, ind)
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
