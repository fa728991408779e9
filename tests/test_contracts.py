"""The input contracts of the checks, as properties: a check that reads a
time grid, one time or a function raises a ValueError that names a bad one,
before it makes a record.

A grid holds at least one time and only finite times > 0, a function has
length n, and the tilted checks need f >= 0, not identically zero."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraheat import (
    generator,
    isotropic_kernel,
    lp_derivative_check,
    moser_iteration,
    ode_comparison_check,
    perturbation_identity_check,
    power_inequality_check,
    power_profile,
    semigroup_selfcheck,
    sup_bound_check,
    tail_probability_check,
    truncation_comparison_check,
    vanishing_check,
)
from ultraheat.davies import MIN_DERIVATIVE_GRID, OdeComparisonParams
from ultraheat.errors import DimensionMismatch, NegativeInput
from ultraheat.kernel import ExponentConfig

from conftest import ball_trees

# each bad time and the end of the message that names it
BAD_TIMES = {0.0: r"must be > 0, got 0\.0$", -1.0: r"must be > 0, got -1\.0$",
             math.inf: "must be finite, got inf$", math.nan: "must be finite, got nan$"}
GOOD_GRID = np.linspace(0.1, 1.0, MIN_DERIVATIVE_GRID).tolist()
ODE_PARAMS = OdeComparisonParams(b=1, p=2, theta=1, k=1, a=1)


@st.composite
def tilted_cases(draw):
    """(kernel, ball, rho) on a drawn ball tree, with rho <= r(B)."""
    space, exponent, scale = draw(ball_trees(max_points=24, max_levels=4))
    kernel = isotropic_kernel(space, power_profile(exponent, scale), scaling="mass")
    rho = space.distance_levels[0]
    ball = draw(st.sampled_from([b for b in space.balls() if b.radius >= rho]))
    return kernel, ball, rho


def _cfg(kernel):
    return ExponentConfig(1.0, 1.0, kernel.space.diam)


# every check that reads a time grid, as (kernel, ball, rho, grid) -> report
GRID_CHECKS = {
    "semigroup_selfcheck": lambda k, b, rho, g: semigroup_selfcheck(generator(k, rho=rho), g),
    "vanishing_check": lambda k, b, rho, g: vanishing_check(k, g),
    "tail_probability_check": lambda k, b, rho, g: tail_probability_check(k, 1.0, 1.0, 1.0, g),
    "truncation_comparison_check":
        lambda k, b, rho, g: truncation_comparison_check(k, rho, None, np.ones(k.n), g),
    "lp_derivative_check":
        lambda k, b, rho, g: lp_derivative_check(k, _cfg(k), rho, b, 1.0, np.ones(k.n), 1, g, 1.0),
    "sup_bound_check": lambda k, b, rho, g: sup_bound_check(k, _cfg(k), rho, b, 1.0, g, 1.0),
}

# every check of one time, as (kernel, ball, rho, t) -> record or report
TIME_CHECKS = {
    "moser_iteration": lambda k, b, rho, t: moser_iteration(k, _cfg(k), rho, b, 1.0, np.ones(k.n),
                                                            t=t, k_max=3, c_n=1.0),
    "ode_comparison_check": lambda k, b, rho, t: ode_comparison_check(ODE_PARAMS, t),
}

# every check of the tilted evolution, as (kernel, ball, rho, f) -> report
FUNCTION_CHECKS = {
    "lp_derivative_check":
        lambda k, b, rho, f: lp_derivative_check(k, _cfg(k), rho, b, 1.0, f, 1, GOOD_GRID, 1.0),
    "moser_iteration": lambda k, b, rho, f: moser_iteration(k, _cfg(k), rho, b, 1.0, f,
                                                            t=1.0, k_max=3, c_n=1.0),
}

# the other entry points that take a function, for the length rule
LENGTH_CHECKS = {
    **FUNCTION_CHECKS,
    "perturbation_identity_check":
        lambda k, b, rho, f: perturbation_identity_check(k, rho, b, 1.0, f, np.ones(k.n)),
    "power_inequality_check": lambda k, b, rho, f: power_inequality_check(k, rho, b, 1.0, f, 2.0),
    "apply_grid": lambda k, b, rho, f: generator(k, rho=rho).apply_grid(GOOD_GRID, f),
}


@pytest.mark.parametrize("name", GRID_CHECKS)
@settings(max_examples=20, deadline=None)
@given(tilted_cases(), st.sampled_from(list(BAD_TIMES)), st.data())
def test_a_grid_with_a_bad_time_is_rejected(name, case, bad, data):
    k = data.draw(st.integers(0, len(GOOD_GRID)))
    with pytest.raises(ValueError, match="^times " + BAD_TIMES[bad]):
        GRID_CHECKS[name](*case, GOOD_GRID[:k] + [bad] + GOOD_GRID[k:])


@pytest.mark.parametrize("name", GRID_CHECKS)
@settings(max_examples=10, deadline=None)
@given(tilted_cases())
def test_an_empty_grid_is_rejected(name, case):
    # the derivative check names its own, longer minimum
    with pytest.raises(ValueError, match="^need at least"):
        GRID_CHECKS[name](*case, [])


@pytest.mark.parametrize("name", TIME_CHECKS)
@settings(max_examples=20, deadline=None)
@given(tilted_cases(), st.sampled_from(list(BAD_TIMES)))
def test_a_bad_time_is_rejected(name, case, bad):
    with pytest.raises(ValueError, match="^times " + BAD_TIMES[bad]):
        TIME_CHECKS[name](*case, bad)


@pytest.mark.parametrize("name", LENGTH_CHECKS)
@settings(max_examples=20, deadline=None)
@given(tilted_cases(), st.sampled_from([-1, 1]))
def test_a_function_of_another_length_is_rejected(name, case, extra):
    kernel = case[0]
    with pytest.raises(DimensionMismatch, match=f"^expected vector of length {kernel.n},"):
        LENGTH_CHECKS[name](*case, np.ones(kernel.n + extra))


@pytest.mark.parametrize("name", FUNCTION_CHECKS)
@settings(max_examples=20, deadline=None)
@given(tilted_cases(), st.sampled_from([0.0, -0.5, math.nan]), st.data())
def test_a_zero_or_negative_function_is_rejected(name, case, bad, data):
    # f = 0 everywhere, or one entry < 0 or NaN
    f = np.zeros(case[0].n) if bad == 0.0 else np.ones(case[0].n)
    f[data.draw(st.integers(0, f.size - 1))] = bad
    error, message = (ValueError, "requires f not identically zero$") if bad == 0.0 \
        else (NegativeInput, "requires f >= 0$")
    with pytest.raises(error, match=message):
        FUNCTION_CHECKS[name](*case, f)
