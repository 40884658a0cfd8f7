"""One grid rule for every density input.

A kernel, its target, a density start, the direction nu - mu and the mixture
path all live on one grid.  Every public entry that takes a density (a start,
the second endpoint of a pair, a reference or a model's initial law) refuses
one from another grid at entry, in one wording that names both grids, before
any kernel work; a density on an equal grid object is taken.  Mean-value
constants only bound the kind of start they were built for.
"""

import numpy as np
import pytest

from mcmccalc.calculus import (
    empirical_mvi_check,
    gibbs_mvi_constants,
    hastings_mvi_constants,
    mvi_bound,
    mvi_constants,
    uniform_boundedness_scan,
    verify_ftc,
    verify_ftc_intrinsic,
)
from mcmccalc.derivative import (
    _value_at_start,
    derivative_for_start,
    fd_directional_derivative,
    gibbs_derivative,
    hastings_derivative,
    iterated_derivative,
    iterated_derivative_limit_check,
    interchange_margin,
)
from mcmccalc.ergodicity import check_resolvent_identity
from mcmccalc.errors import InvalidInputError
from mcmccalc.feynman_kac import FeynmanKacModel, boltzmann_gibbs, default_ssm_model
from mcmccalc.kernels import (
    BalancingFunction,
    GibbsFamily,
    GibbsKernel,
    HastingsFamily,
    HastingsKernel,
    ProposalKernel,
    check_invariance,
    iterate_density,
)
from mcmccalc.measures import (
    ContaminationCurve,
    Grid1D,
    Grid2D,
    SignedGridFunction,
    WeightFunction,
    gaussian2d_density,
    gaussian_density,
)
from mcmccalc.samplers import check_adaptation_conditions

GRID = Grid1D(-8.0, 8.0, 65)
OTHER = Grid1D(-6.0, 6.0, 65)
TWIN = Grid1D(-8.0, 8.0, 65)  # equal to GRID, another object
MESSAGE = ("density lives on Grid1D(lower=-6.0, upper=6.0, n_points=65), "
           "not on Grid1D(lower=-8.0, upper=8.0, n_points=65)")
FAMILY = HastingsFamily(ProposalKernel.random_walk(1.0, GRID), BalancingFunction.barker())
MIN_ONE = HastingsFamily(FAMILY.proposal, BalancingFunction.min_one())
MU = gaussian_density(GRID, 0.0, 1.0)
NU = gaussian_density(GRID, 0.3, 1.15)
KERNEL = FAMILY.at(MU)
MODEL = default_ssm_model(GRID)
F = np.cos(0.8 * GRID.nodes)
WEIGHT = WeightFunction.one_plus_square()
COV = np.array([[1.0, 0.4], [0.4, 1.0]])


def identity(y):
    return np.asarray(y, dtype=float).copy()


def start_on(grid):
    return gaussian_density(grid, 0.0, 0.7)


def direction_on(grid):
    return gaussian_density(grid, 0.3, 1.15)


def start_on_2d(grid):
    return gaussian2d_density(grid, (0.1, -0.2), 0.8 * COV)


def direction_on_2d(grid):
    return gaussian2d_density(grid, (0.2, -0.1), 1.1 * COV)


DENSITY_CONSTANTS = hastings_mvi_constants(FAMILY, MU, NU, start_on(GRID), WEIGHT, t_nodes=5)
POINT_CONSTANTS = hastings_mvi_constants(FAMILY, MU, NU, 0.37, WEIGHT, t_nodes=5)

# entry -> call with a start density rho (a reference or initial law for the
# entries that take one)
START_ENTRIES = {
    "_value_at_start": lambda rho: _value_at_start(KERNEL, rho, F),
    "iterate_density": lambda rho: iterate_density(KERNEL, rho, 30),
    "check_invariance": lambda rho: check_invariance(KERNEL, rho),
    "hastings_derivative": lambda rho: hastings_derivative(KERNEL, rho, F),
    "derivative_for_start": lambda rho: derivative_for_start(KERNEL, rho, F),
    "iterated_derivative": lambda rho: iterated_derivative(KERNEL, rho, F, 30),
    "iterated_derivative_limit_check": lambda rho: iterated_derivative_limit_check(
        FAMILY, MU, NU, rho, F, k_max=30),
    "fd_directional_derivative": lambda rho: fd_directional_derivative(
        FAMILY, MU, NU, rho, F, k=30),
    "verify_ftc": lambda rho: verify_ftc(FAMILY, MU, NU, rho, F, t_nodes=5),
    "verify_ftc_intrinsic": lambda rho: verify_ftc_intrinsic(
        FAMILY, MU, identity, rho, F, t_nodes=5, s_nodes=5),
    "hastings_mvi_constants": lambda rho: hastings_mvi_constants(
        FAMILY, MU, NU, rho, WEIGHT, t_nodes=5),
    "mvi_constants-min-one": lambda rho: mvi_constants(MIN_ONE, MU, NU, rho, WEIGHT, 5),
    "mvi_bound": lambda rho: mvi_bound(DENSITY_CONSTANTS, MU, NU, rho, WEIGHT),
    "empirical_mvi_check": lambda rho: empirical_mvi_check(
        FAMILY, MU, NU, rho, WEIGHT, DENSITY_CONSTANTS, n_trials=3),
    "FeynmanKacModel.transform": lambda rho: MODEL.transform(1, rho),
    "FeynmanKacModel-eta1": lambda rho: FeynmanKacModel(
        GRID, MODEL.potentials[:1], MODEL.mutations[:1], rho),
    "boltzmann_gibbs-grid": lambda rho: boltzmann_gibbs(
        rho, MODEL.potentials[0], MODEL.mutations[0], grid=GRID),
    "check_adaptation_conditions-sequence": lambda rho: check_adaptation_conditions([MU, rho]),
    "check_adaptation_conditions-reference": lambda rho: check_adaptation_conditions(
        [MU, NU], reference=rho),
}

# entry -> call with the second endpoint nu of the pair (mu, nu)
PAIR_ENTRIES = {
    "SignedGridFunction.difference": lambda nu: SignedGridFunction.difference(nu, MU),
    "ContaminationCurve": lambda nu: ContaminationCurve(MU, nu),
    "fd_directional_derivative": lambda nu: fd_directional_derivative(FAMILY, MU, nu, 0.37, F),
    "iterated_derivative_limit_check": lambda nu: iterated_derivative_limit_check(
        FAMILY, MU, nu, 0.37, F, k_max=30),
    "verify_ftc": lambda nu: verify_ftc(FAMILY, MU, nu, 0.37, F, t_nodes=5),
    "hastings_mvi_constants": lambda nu: hastings_mvi_constants(
        FAMILY, MU, nu, 0.37, WEIGHT, t_nodes=5),
    "mvi_constants-min-one": lambda nu: mvi_constants(MIN_ONE, MU, nu, 0.37, WEIGHT, 5),
    "uniform_boundedness_scan": lambda nu: uniform_boundedness_scan(
        FAMILY, MU, nu, WEIGHT, [0.0, 0.37], t_nodes=5),
    "mvi_bound": lambda nu: mvi_bound(POINT_CONSTANTS, MU, nu, 0.37, WEIGHT),
    "empirical_mvi_check": lambda nu: empirical_mvi_check(
        FAMILY, MU, nu, 0.37, WEIGHT, POINT_CONSTANTS, n_trials=3),
    "check_resolvent_identity": lambda nu: check_resolvent_identity(FAMILY, MU, nu, F),
}

AXIS = Grid1D(-6.0, 6.0, 33)
GRID2 = Grid2D(AXIS, AXIS)
OTHER2 = Grid2D(Grid1D(-5.0, 5.0, 33), Grid1D(-5.0, 5.0, 33))
TWIN2 = Grid2D(Grid1D(-6.0, 6.0, 33), Grid1D(-6.0, 6.0, 33))  # equal to GRID2
MESSAGE_2D = ("density lives on Grid2D(axis1=Grid1D(lower=-5.0, upper=5.0, n_points=33), "
              "axis2=Grid1D(lower=-5.0, upper=5.0, n_points=33)), "
              "not on Grid2D(axis1=Grid1D(lower=-6.0, upper=6.0, n_points=33), "
              "axis2=Grid1D(lower=-6.0, upper=6.0, n_points=33))")
GIBBS_FAMILY = GibbsFamily()
MU2 = gaussian2d_density(GRID2, (0.0, 0.0), COV)
NU2 = gaussian2d_density(GRID2, (0.2, -0.1), 1.1 * COV)
GIBBS = GIBBS_FAMILY.at(MU2)
F2 = np.cos(0.6 * AXIS.nodes)[:, None] * np.tanh(AXIS.nodes)[None, :]
DENSITY_CONSTANTS_2D = gibbs_mvi_constants(GIBBS_FAMILY, MU2, NU2, MU2, WEIGHT, t_nodes=5)
POINT_CONSTANTS_2D = gibbs_mvi_constants(GIBBS_FAMILY, MU2, NU2, (0.5, -0.5), WEIGHT, t_nodes=5)

START_ENTRIES_2D = {
    "_value_at_start": lambda rho: _value_at_start(GIBBS, rho, F2),
    "iterate_density": lambda rho: iterate_density(GIBBS, rho, 30),
    "check_invariance": lambda rho: check_invariance(GIBBS, rho),
    "gibbs_derivative": lambda rho: gibbs_derivative(GIBBS, rho, F2),
    "derivative_for_start": lambda rho: derivative_for_start(GIBBS, rho, F2),
    "iterated_derivative": lambda rho: iterated_derivative(GIBBS, rho, F2, 30),
    "fd_directional_derivative": lambda rho: fd_directional_derivative(
        GIBBS_FAMILY, MU2, NU2, rho, F2),
    "verify_ftc": lambda rho: verify_ftc(GIBBS_FAMILY, MU2, NU2, rho, F2, t_nodes=5),
    "gibbs_mvi_constants": lambda rho: gibbs_mvi_constants(
        GIBBS_FAMILY, MU2, NU2, rho, WEIGHT, t_nodes=5),
    "mvi_bound": lambda rho: mvi_bound(DENSITY_CONSTANTS_2D, MU2, NU2, rho, WEIGHT),
    "empirical_mvi_check": lambda rho: empirical_mvi_check(
        GIBBS_FAMILY, MU2, NU2, rho, WEIGHT, DENSITY_CONSTANTS_2D, n_trials=3),
}

PAIR_ENTRIES_2D = {
    "SignedGridFunction.difference": lambda nu: SignedGridFunction.difference(nu, MU2),
    "ContaminationCurve": lambda nu: ContaminationCurve(MU2, nu),
    "fd_directional_derivative": lambda nu: fd_directional_derivative(
        GIBBS_FAMILY, MU2, nu, (0.5, -0.5), F2),
    "verify_ftc": lambda nu: verify_ftc(GIBBS_FAMILY, MU2, nu, (0.5, -0.5), F2, t_nodes=5),
    "gibbs_mvi_constants": lambda nu: gibbs_mvi_constants(
        GIBBS_FAMILY, MU2, nu, (0.5, -0.5), WEIGHT, t_nodes=5),
    "mvi_bound": lambda nu: mvi_bound(POINT_CONSTANTS_2D, MU2, nu, (0.5, -0.5), WEIGHT),
    "empirical_mvi_check": lambda nu: empirical_mvi_check(
        GIBBS_FAMILY, MU2, nu, (0.5, -0.5), WEIGHT, POINT_CONSTANTS_2D, n_trials=3),
}


# (table, density builder, its grid's twin, the other grid, the message)
CASES = {
    "start": (START_ENTRIES, start_on, TWIN, OTHER, MESSAGE),
    "pair": (PAIR_ENTRIES, direction_on, TWIN, OTHER, MESSAGE),
    "start-2d": (START_ENTRIES_2D, start_on_2d, TWIN2, OTHER2, MESSAGE_2D),
    "pair-2d": (PAIR_ENTRIES_2D, direction_on_2d, TWIN2, OTHER2, MESSAGE_2D),
}
ALL = [(case, entry) for case, (table, *_) in CASES.items() for entry in sorted(table)]
KERNEL_WORK = ("apply_to_function", "propagate_density", "propagate_point", "propagate_mixture")


@pytest.fixture
def kernel_work(monkeypatch):
    """Names of the kernel operations run while the fixture is active."""
    calls = []
    for cls in (HastingsKernel, GibbsKernel):
        for name in KERNEL_WORK:
            if hasattr(cls, name):
                def counted(self, *args, _name=name, _original=getattr(cls, name)):
                    calls.append(_name)
                    return _original(self, *args)
                monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("case, entry", ALL, ids=[f"{c}-{e}" for c, e in ALL])
def test_a_density_from_another_grid_is_refused_before_any_kernel_work(case, entry,
                                                                      kernel_work):
    table, density_on, _, other, message = CASES[case]
    density = density_on(other)
    with pytest.raises(InvalidInputError) as refused:
        table[entry](density)
    assert str(refused.value) == message
    assert kernel_work == []


@pytest.mark.parametrize("case, entry", ALL, ids=[f"{c}-{e}" for c, e in ALL])
def test_a_density_on_an_equal_grid_object_is_taken(case, entry):
    table, density_on, twin, *_ = CASES[case]
    table[entry](density_on(twin))


# (constants, a start of the other kind, the kind they were built for, its kind)
MISMATCHES = {
    "density-constants-point-start": (DENSITY_CONSTANTS, 0.37, "density", "point"),
    "point-constants-density-start": (POINT_CONSTANTS, start_on(GRID), "point", "density"),
}


@pytest.mark.parametrize("mismatch", sorted(MISMATCHES))
def test_constants_only_bound_the_kind_of_start_they_were_built_for(mismatch):
    constants, start, built, given = MISMATCHES[mismatch]
    message = f"constants for a {built} start cannot bound a {given} start"
    with pytest.raises(InvalidInputError, match=message):
        mvi_bound(constants, MU, NU, start, WEIGHT)
    with pytest.raises(InvalidInputError, match=message):
        empirical_mvi_check(FAMILY, MU, NU, start, WEIGHT, constants, n_trials=3)


def test_a_derivative_refuses_a_direction_from_another_grid():
    deriv = hastings_derivative(KERNEL, start_on(GRID), F)
    with pytest.raises(InvalidInputError) as refused:
        deriv.action(SignedGridFunction.difference(direction_on(OTHER), start_on(OTHER)))
    assert str(refused.value) == MESSAGE
    twin = SignedGridFunction.difference(direction_on(TWIN), MU)
    same = SignedGridFunction.difference(NU, MU)
    assert deriv.action(twin) == deriv.action(same)


@pytest.mark.parametrize("which", ["nu", "rho"])
def test_the_interchange_margin_refuses_a_density_from_another_grid(which, monkeypatch):
    densities = {"nu": NU, "rho": start_on(GRID)}
    other = dict(densities, **{which: (direction_on if which == "nu" else start_on)(OTHER)})
    built = []
    matrix = ProposalKernel.matrix
    monkeypatch.setattr(ProposalKernel, "matrix",
                        lambda self, grid: built.append(grid) or matrix(self, grid))
    with pytest.raises(InvalidInputError) as refused:
        interchange_margin(FAMILY, MU, other["nu"], other["rho"], F)
    assert str(refused.value) == MESSAGE
    assert built == []  # refused before the envelope reads q
    monkeypatch.undo()
    twin = dict(densities, **{which: (direction_on if which == "nu" else start_on)(TWIN)})
    assert (interchange_margin(FAMILY, MU, twin["nu"], twin["rho"], F)
            == interchange_margin(FAMILY, MU, NU, start_on(GRID), F))
