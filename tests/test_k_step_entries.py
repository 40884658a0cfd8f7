"""The k-step entries check their start and step count before any work.

A k-step derivative, its limit check, the finite-difference oracle and the
point propagation each refuse a point start outside the window, or a step
count that is not an integer >= 0, before they apply or propagate the kernel
once.
"""

import numpy as np
import pytest

from mcmccalc.derivative import (
    fd_directional_derivative,
    iterated_derivative,
    iterated_derivative_limit_check,
)
from mcmccalc.errors import InvalidInputError
from mcmccalc.kernels import (
    BalancingFunction,
    HastingsFamily,
    HastingsKernel,
    ProposalKernel,
    iterate_point,
)
from mcmccalc.measures import Grid1D, gaussian_density

GRID = Grid1D(-8.0, 8.0, 513)
FAMILY = HastingsFamily(ProposalKernel.random_walk(1.0, GRID), BalancingFunction.barker())
MU = gaussian_density(GRID, 0.0, 1.0)
NU = gaussian_density(GRID, 0.3, 1.15)
KERNEL = FAMILY.at(MU)
F = np.cos(0.8 * GRID.nodes)

# entry -> call with a start x over 30 steps
K_STEP_ENTRIES = {
    "iterated_derivative": lambda x: iterated_derivative(KERNEL, x, F, 30),
    "iterated_derivative_limit_check": lambda x: iterated_derivative_limit_check(
        FAMILY, MU, NU, x, F, k_max=30),
    "fd_directional_derivative": lambda x: fd_directional_derivative(FAMILY, MU, NU, x, F, k=30),
    "iterate_point": lambda x: iterate_point(KERNEL, x, 30),
}
KERNEL_WORK = ("apply_to_function", "propagate_density", "propagate_point", "propagate_mixture")


@pytest.fixture
def kernel_work(monkeypatch):
    """Names of the kernel operations run while the fixture is active."""
    calls = []
    for name in KERNEL_WORK:
        def counted(self, *args, _name=name, _original=getattr(HastingsKernel, name)):
            calls.append(_name)
            return _original(self, *args)
        monkeypatch.setattr(HastingsKernel, name, counted)
    return calls


@pytest.mark.parametrize("entry", sorted(K_STEP_ENTRIES))
def test_a_start_outside_the_window_is_refused_before_any_kernel_work(entry, kernel_work):
    with pytest.raises(InvalidInputError, match=r"must sit inside the grid window \[-8, 8\], got 50"):
        K_STEP_ENTRIES[entry](50.0)
    assert kernel_work == []


@pytest.mark.parametrize("entry", sorted(K_STEP_ENTRIES))
def test_a_start_inside_the_window_runs_the_kernel(entry, kernel_work):
    K_STEP_ENTRIES[entry](0.37)
    assert kernel_work


def test_no_step_still_checks_the_window():
    with pytest.raises(InvalidInputError, match="must sit inside the grid window"):
        iterate_point(KERNEL, 50.0, 0)
    atom = iterate_point(KERNEL, 0.37, 0)
    assert (atom.x, atom.atom) == (0.37, 1.0) and not np.any(atom.density)


@pytest.mark.parametrize("steps", [-1, 2.5, 2.0, True, "2"])
def test_a_step_count_that_is_not_an_integer_of_at_least_zero_is_refused(steps, kernel_work):
    with pytest.raises(InvalidInputError, match="step count must be an integer >= 0"):
        iterate_point(KERNEL, 0.0, steps)
    assert kernel_work == []
