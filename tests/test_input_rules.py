"""The input rules every public entry shares: one grid-function check, one
warm-start ceiling and one count check."""

import re

import numpy as np
import pytest

from mcmccalc.calculus import hastings_mvi_constants, pushforward_density
from mcmccalc.derivative import (
    derivative_for_start,
    generator_function,
    iterated_derivative,
)
from mcmccalc.errors import InvalidInputError, PreconditionError, ResourceLimitError
from mcmccalc.feynman_kac import (
    default_ssm_model,
    fk_decomposition_check,
    q_bar_chain,
    q_bar_operator,
    smcmc_variance_recursion,
)
from mcmccalc.kernels import (
    BalancingFunction,
    GibbsKernel,
    HastingsFamily,
    ProposalKernel,
    apply_gibbs,
    apply_gibbs_to_density,
    apply_hastings,
    apply_hastings_to_density,
    iterate_density,
    iterate_kernel,
)
from mcmccalc.measures import (
    Grid1D,
    Grid2D,
    WeightFunction,
    check_count,
    gaussian2d_density,
    gaussian_density,
    grid_function,
    integrate,
    v_norm_function,
)
from mcmccalc.samplers import SchemeConfig, clt_experiment, run_limiting_chain

GRID = Grid1D(-6.0, 6.0, 65)
GRID2 = Grid2D(Grid1D(-5.0, 5.0, 21), Grid1D(-5.0, 5.0, 21))
MU = gaussian_density(GRID, 0.0, 1.0)
NU = gaussian_density(GRID, 0.3, 1.1)
RHO = gaussian_density(GRID, 0.2, 0.8)
FAMILY = HastingsFamily(ProposalKernel.random_walk(1.0, GRID), BalancingFunction.barker())
KERN = FAMILY.at(MU)
F = np.cos(0.8 * GRID.nodes)
JOINT = gaussian2d_density(GRID2, [0.0, 0.0], np.array([[1.0, 0.4], [0.4, 1.0]]))
RHO2 = gaussian2d_density(GRID2, [0.1, 0.0], np.array([[0.6, 0.0], [0.0, 0.7]]))
GIBBS = GibbsKernel(JOINT)
X1, X2 = GRID2.mesh()
F2 = np.cos(0.6 * X1) * np.tanh(X2)
FK_GRID = Grid1D(-8.0, 8.0, 65)
FK_F = np.cos(FK_GRID.nodes)


@pytest.fixture(scope="module")
def fk():
    model = default_ssm_model(FK_GRID)
    family = HastingsFamily(ProposalKernel.random_walk(1.0, model.grid),
                            BalancingFunction.barker())
    return model, SchemeConfig(family=family, model=model)


# entry -> (valid values, call taking the values; ``fk`` is the model fixture)
ENTRIES = {
    "apply_hastings": (F, lambda f, fk: apply_hastings(KERN, 0.3, f)),
    "apply_hastings_to_density": (F, lambda f, fk: apply_hastings_to_density(KERN, RHO, f)),
    "apply_gibbs": (F2, lambda f, fk: apply_gibbs(GIBBS, (0.1, 0.2), f)),
    "apply_gibbs_to_density": (F2, lambda f, fk: apply_gibbs_to_density(GIBBS, RHO2, f)),
    "iterate_kernel": (F, lambda f, fk: iterate_kernel(KERN, f, 2)),
    "iterate_kernel-two-stage": (F2, lambda f, fk: iterate_kernel(GIBBS, f, 2)),
    "derivative_for_start-density": (F, lambda f, fk: derivative_for_start(KERN, RHO, f)),
    "derivative_for_start-point": (F, lambda f, fk: derivative_for_start(KERN, 0.3, f)),
    "derivative_for_start-two-stage": (F2, lambda f, fk: derivative_for_start(GIBBS, RHO2, f)),
    "derivative-action": (F, lambda f, fk: derivative_for_start(KERN, RHO, F).action(f)),
    "iterated_derivative": (F, lambda f, fk: iterated_derivative(KERN, RHO, f, 2)),
    "generator_function": (F, lambda f, fk: generator_function(KERN, f)),
    "q_bar_operator": (FK_F, lambda f, fk: q_bar_operator(fk[0], 1, f)),
    "q_bar_chain": (FK_F, lambda f, fk: q_bar_chain(fk[0], 0, 2, f)),
    "fk_decomposition_check": (FK_F, lambda f, fk: fk_decomposition_check(fk[0], fk[0].flow(1), f)),
    "smcmc_variance_recursion": (FK_F, lambda f, fk: smcmc_variance_recursion(
        fk[0], 1, f, [lambda g: 0.0])),
    # the chains evaluate the test function at their states, the check at the nodes
    "clt_experiment": (FK_F, lambda f, fk: clt_experiment(
        "smcmc", fk[1], lambda x: f if x is FK_GRID.nodes else np.cos(x), 100, 100, 1)),
    "integrate": (F, lambda f, fk: integrate(f, RHO)),
    "v_norm_function": (F, lambda f, fk: v_norm_function(f, np.ones(GRID.n_points))),
    "pushforward_density": (GRID.nodes, lambda f, fk: pushforward_density(MU, lambda x: f)),
}


def _spoil(values, how):
    bad = np.array(values, dtype=float)
    if how == "shape":
        return bad[..., :-1]
    bad.flat[3] = np.nan if how == "nan" else np.inf
    return bad


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_entry_refuses_a_bad_grid_function(entry, fk):
    good, call = ENTRIES[entry]
    call(good, fk)  # the valid values go through
    for how in ("nan", "inf", "shape"):
        with pytest.raises(InvalidInputError):
            call(_spoil(good, how), fk)


def test_grid_function_takes_a_callable_at_the_nodes():
    assert np.array_equal(grid_function(GRID, np.cos), np.cos(GRID.nodes))
    with pytest.raises(InvalidInputError, match="finite"):
        grid_function(GRID, lambda x: np.where(x > 0.0, np.inf, x))
    with pytest.raises(InvalidInputError, match=r"shape \(64,\), expected \(65,\)"):
        grid_function(GRID, np.ones(64))


def test_warm_start_refusals_name_the_node():
    cold = gaussian_density(GRID, 0.0, 2.5)
    ratio = cold.values / MU.values**2
    node = GRID.nodes[int(np.argmax(ratio))]
    expected = re.escape(f"ratio rho/mu^2 = {ratio.max():.3g} at node {node:.6g}")
    with pytest.raises(PreconditionError, match=expected):
        derivative_for_start(KERN, cold, F)
    # the mean-value constants name the curve point as well
    with pytest.raises(PreconditionError, match=r"at t=0: .*" + expected):
        hastings_mvi_constants(FAMILY, MU, NU, cold, WeightFunction.one_plus_square(),
                               t_nodes=5)

    wide = gaussian2d_density(GRID2, [0.0, 1.0], np.array([[1.0, 0.0], [0.0, 2.0]]))
    ratio2 = (GIBBS.w1 @ wide.values) / GIBBS.marginal2
    node2 = GRID2.axis2.nodes[int(np.argmax(ratio2))]
    with pytest.raises(PreconditionError,
                       match=re.escape(f"second-marginal ratio = {ratio2.max():.3g} "
                                       f"at node {node2:.6g}")):
        derivative_for_start(GIBBS, wide, F2, ratio_ceiling=0.5 * ratio2.max())
    derivative_for_start(GIBBS, wide, F2, ratio_ceiling=ratio2.max())


@pytest.mark.parametrize("bad", [3.0, True, -1, "3", None])
def test_counts_take_integers_only(bad):
    calls = [
        lambda: iterate_kernel(KERN, F, bad),
        lambda: iterate_density(KERN, RHO, bad),
        lambda: iterated_derivative(KERN, RHO, F, bad),
        lambda: run_limiting_chain(KERN, 0.0, bad, 1),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError, match="integer"):
            call()


def test_count_check_minimum_and_budget():
    assert check_count(np.int64(3), minimum=3, budget=3) == 3
    assert type(check_count(np.int64(3))) is int
    with pytest.raises(InvalidInputError, match="step count must be an integer >= 1, got 0"):
        check_count(0, minimum=1)
    with pytest.raises(ResourceLimitError, match="step count 4 exceeds budget 3"):
        check_count(4, budget=3)
    with pytest.raises(ResourceLimitError, match="exceeds budget 10"):
        iterate_kernel(KERN, F, 11, max_steps=10)
