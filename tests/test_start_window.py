"""One window rule for every start.

Every public entry that takes a start point (a point law, a point-start
derivative or mean-value constant) or a chain start (the chain drivers, the
CLT config, the moment and rate checks) refuses a start outside the closed
grid window at entry, in one wording, and takes both window edges.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmccalc.calculus import gibbs_mvi_constants, hastings_mvi_constants, mvi_constants
from mcmccalc.derivative import (
    derivative_for_start,
    fd_directional_derivative,
    gibbs_derivative_at_point,
    hastings_derivative_at_point,
    iterated_derivative,
    iterated_derivative_limit_check,
)
from mcmccalc.ergodicity import DriftCertificate, check_v_moment_growth, estimate_geometric_rate
from mcmccalc.errors import InvalidInputError
from mcmccalc.feynman_kac import default_ssm_model
from mcmccalc.kernels import (
    BalancingFunction,
    GibbsFamily,
    HastingsFamily,
    ProposalKernel,
    apply_gibbs,
    apply_hastings,
    iterate_point,
)
from mcmccalc.measures import (
    Grid1D,
    Grid2D,
    WeightFunction,
    gaussian2d_density,
    gaussian_density,
)
from mcmccalc.samplers import SchemeConfig, run_imcmc, run_limiting_chain, run_smcmc

GRID = Grid1D(-8.0, 8.0, 65)
MODEL = default_ssm_model(GRID)
FAMILY = HastingsFamily(ProposalKernel.random_walk(1.0, GRID), BalancingFunction.barker())
MU = gaussian_density(GRID, 0.0, 1.0)
NU = gaussian_density(GRID, 0.3, 1.15)
KERNEL = FAMILY.at(MU)
F = np.cos(0.8 * GRID.nodes)
WEIGHT = WeightFunction.one_plus_square()
CERT = DriftCertificate(WEIGHT, 0.5, 1.0, 5.0, 1, 0.5)

AXIS = Grid1D(-6.0, 6.0, 33)
GRID2 = Grid2D(AXIS, AXIS)
MU2 = gaussian2d_density(GRID2, (0.0, 0.0), np.array([[1.0, 0.4], [0.4, 1.0]]))
NU2 = gaussian2d_density(GRID2, (0.2, -0.1), np.array([[1.21, 0.44], [0.44, 1.21]]))
GIBBS = GibbsFamily().at(MU2)
F2 = np.cos(0.6 * AXIS.nodes)[:, None] * np.tanh(AXIS.nodes)[None, :]

# entry -> call with a 1-D start x
ENTRIES = {
    "run_smcmc": lambda x: run_smcmc(FAMILY, MODEL, 2, 10, 1, x0=x),
    "run_imcmc": lambda x: run_imcmc(FAMILY, MODEL, 2, 10, 1, x0=x),
    "run_limiting_chain": lambda x: run_limiting_chain(KERNEL, x, 10, 1),
    "SchemeConfig": lambda x: SchemeConfig(family=FAMILY, model=MODEL, x0=x),
    "apply_hastings": lambda x: apply_hastings(KERNEL, x, F),
    "point_row": lambda x: KERNEL.point_row(x),
    "hastings_derivative_at_point": lambda x: hastings_derivative_at_point(KERNEL, x, F),
    "derivative_for_start": lambda x: derivative_for_start(KERNEL, x, F),
    "fd_directional_derivative": lambda x: fd_directional_derivative(FAMILY, MU, NU, x, F),
    "hastings_mvi_constants": lambda x: hastings_mvi_constants(FAMILY, MU, NU, x, WEIGHT),
    "mvi_constants-min-one": lambda x: mvi_constants(
        HastingsFamily(FAMILY.proposal, BalancingFunction.min_one()), MU, NU, x, WEIGHT),
    "check_v_moment_growth": lambda x: check_v_moment_growth(
        [KERNEL], WEIGHT, 1, cert=CERT, x0=x, checkpoints=(5,), n_reps=10),
    "estimate_geometric_rate": lambda x: estimate_geometric_rate(KERNEL, [0.0, x], 8, WEIGHT),
    "iterated_derivative": lambda x: iterated_derivative(KERNEL, x, F, 3),
    "iterated_derivative_limit_check": lambda x: iterated_derivative_limit_check(
        FAMILY, MU, NU, x, F, k_max=4),
    "iterate_point": lambda x: iterate_point(KERNEL, x, 2),
}

# entry -> call with a 2-D start (x1, x2)
ENTRIES_2D = {
    "run_limiting_chain-two-stage": lambda x: run_limiting_chain(GIBBS, x, 10, 1),
    "apply_gibbs": lambda x: apply_gibbs(GIBBS, x, F2),
    "gibbs_derivative_at_point": lambda x: gibbs_derivative_at_point(GIBBS, x, F2),
    "gibbs_mvi_constants": lambda x: gibbs_mvi_constants(GibbsFamily(), MU2, NU2, x, WEIGHT),
    "iterated_derivative-two-stage": lambda x: iterated_derivative(GIBBS, x, F2, 2),
}

OUTSIDE = st.one_of(st.floats(8.0, 1e6, exclude_min=True),
                    st.floats(-1e6, -8.0, exclude_max=True),
                    st.sampled_from([np.inf, -np.inf, np.nan]))
OUTSIDE_2D = st.one_of(st.floats(6.0, 1e6, exclude_min=True),
                       st.floats(-1e6, -6.0, exclude_max=True),
                       st.sampled_from([np.inf, np.nan]))


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@settings(max_examples=8, deadline=None)
@given(x=OUTSIDE)
def test_a_start_outside_the_window_is_refused(entry, x):
    with pytest.raises(InvalidInputError) as refused:
        ENTRIES[entry](x)
    assert str(refused.value) == f"must sit inside the grid window [-8, 8], got {x:g}"


@pytest.mark.parametrize("entry", sorted(ENTRIES_2D))
@settings(max_examples=8, deadline=None)
@given(x=OUTSIDE_2D, inside=st.floats(-6.0, 6.0), second=st.booleans())
def test_a_pair_outside_the_window_is_refused(entry, x, inside, second):
    start = (inside, x) if second else (x, inside)
    with pytest.raises(InvalidInputError) as refused:
        ENTRIES_2D[entry](start)
    assert str(refused.value) == ("must sit inside the grid window [-6, 6] x [-6, 6], "
                                  f"got ({start[0]:g}, {start[1]:g})")


@pytest.mark.parametrize("entry", sorted(ENTRIES_2D))
@pytest.mark.parametrize("start", [(0.5,), (0.5, -0.5, 0.0)], ids=["one", "three"])
def test_a_start_that_is_not_a_pair_is_refused_on_a_2d_grid(entry, start):
    with pytest.raises(InvalidInputError, match=r"must sit inside the grid window "
                                                r"\[-6, 6\] x \[-6, 6\], got \(0.5"):
        ENTRIES_2D[entry](start)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("edge", [GRID.lower, GRID.upper])
def test_both_window_edges_are_taken(entry, edge):
    ENTRIES[entry](edge)


@pytest.mark.parametrize("entry", sorted(ENTRIES_2D))
@pytest.mark.parametrize("edge", [(AXIS.lower, AXIS.upper), (AXIS.upper, AXIS.lower)])
def test_both_window_edges_of_a_pair_are_taken(entry, edge):
    ENTRIES_2D[entry](edge)
