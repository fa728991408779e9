"""Exception types shared across the package."""


class UltraheatError(Exception):
    """Base class for all package errors."""


# -- space --------------------------------------------------------------------

class SpaceError(UltraheatError, ValueError):
    """Invalid ultrametric space construction or query."""


class EmptySpace(SpaceError):
    """Space description contains no points."""


class NonPositiveMass(SpaceError):
    """Every point must carry mass > 0."""


class NonDecreasingRadii(SpaceError):
    """Radius labels must strictly decrease from root to leaves."""


class UnknownPoint(SpaceError):
    """Point id not present in the space."""


class NotUltrametric(SpaceError):
    """Distance data violates the strong triangle inequality.

    `witness` holds a violating triple (x, z, y) with d(x,y) > max(d(x,z), d(z,y)).
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class MalformedCsv(UltraheatError, ValueError):
    """CSV input has the wrong number of rows or columns, or a non-numeric cell."""


# -- kernel -------------------------------------------------------------------

class KernelError(UltraheatError, ValueError):
    """Invalid jump kernel."""


class NegativeProfile(KernelError):
    """Radial profile returned a negative weight."""


class Asymmetric(KernelError):
    """Weight matrix is not symmetric."""


class NegativeWeight(KernelError):
    """Weight matrix has a negative entry."""


class NonzeroDiagonal(KernelError):
    """Weight matrix has a nonzero diagonal entry."""


# -- form ---------------------------------------------------------------------

class FormError(UltraheatError, ValueError):
    """Invalid energy-form input."""


class DimensionMismatch(FormError):
    """A function vector or a matrix does not match the point count."""


# -- semigroup ----------------------------------------------------------------

class EmptyDomain(UltraheatError, ValueError):
    """Restriction domain contains no points."""


class NotIsotropic(UltraheatError, ValueError):
    """Kernel is not isotropic with mass scaling; fast path unavailable."""


# -- davies checks ------------------------------------------------------------

class NegativeInput(UltraheatError, ValueError):
    """Check requires a nonnegative function."""


class StepTooCoarse(UltraheatError, ValueError):
    """Time grid too coarse for the finite-difference error model."""


class GridRefinementFailed(UltraheatError, RuntimeError):
    """Grid refinement did not stabilise the running supremum."""


class IntegratorFailure(UltraheatError, RuntimeError):
    """Adaptive ODE integration failed."""


# -- bounds -------------------------------------------------------------------

class ConditionFailure(UltraheatError, RuntimeError):
    """A step of the constant-tracking pipeline failed."""


# -- cli ----------------------------------------------------------------------

class UnknownGenerator(UltraheatError, ValueError):
    """Unrecognised space generator kind."""


class ConfigError(UltraheatError, ValueError):
    """Run configuration failed to parse or validate."""
