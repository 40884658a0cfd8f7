"""The input rules every public entry shares: one grid-function check, one
warm-start ceiling, one count check and one positive-tolerance check."""

import math
import re

import numpy as np
import pytest

from mcmccalc import derivative
from mcmccalc.calculus import (
    empirical_mvi_check,
    hastings_mvi_constants,
    mh_mvi_constants,
    pushforward_density,
    verify_ftc,
    verify_ftc_intrinsic,
)
from mcmccalc.derivative import (
    derivative_for_start,
    fd_directional_derivative,
    generator_function,
    gibbs_derivative,
    hastings_derivative,
    iterated_derivative,
    iterated_derivative_limit_check,
    spike_density,
)
from mcmccalc.ergodicity import (
    DriftCertificate,
    check_minorization,
    check_resolvent_identity,
    check_v_moment_growth,
    estimate_geometric_rate,
    poisson_resolvent,
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
    DEFAULT_MAX_ITER,
    BalancingFunction,
    GibbsKernel,
    HastingsFamily,
    ProposalKernel,
    apply_gibbs,
    apply_hastings,
    iterate_density,
    iterate_kernel,
)
from mcmccalc.measures import (
    Grid1D,
    Grid2D,
    WeightFunction,
    check_count,
    check_positive,
    gaussian2d_density,
    gaussian_density,
    grid_function,
    simpson_weights,
    v_norm_function,
)
from mcmccalc.samplers import SchemeConfig, clt_experiment, run_limiting_chain, v_alpha_norm

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
V_SQ = WeightFunction.one_plus_square()
CERT = DriftCertificate(V_SQ, 0.5, 1.0, 5.0, 1, 0.5)
SMALL_SET = np.abs(GRID.nodes) <= 1.0


@pytest.fixture(scope="module")
def fk():
    model = default_ssm_model(FK_GRID)
    family = HastingsFamily(ProposalKernel.random_walk(1.0, model.grid),
                            BalancingFunction.barker())
    return model, SchemeConfig(family=family, model=model)


# entry -> (valid values, call taking the values; ``fk`` is the model fixture)
ENTRIES = {
    "apply_hastings": (F, lambda f, fk: apply_hastings(KERN, 0.3, f)),
    "apply_gibbs": (F2, lambda f, fk: apply_gibbs(GIBBS, (0.1, 0.2), f)),
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
    "v_norm_function": (F, lambda f, fk: v_norm_function(f, np.ones(GRID.n_points))),
    "v_alpha_norm": (F, lambda f, fk: v_alpha_norm(f, np.ones(GRID.n_points), 0.25)),
    "verify_ftc": (F, lambda f, fk: verify_ftc(FAMILY, MU, NU, 0.3, f, t_nodes=5)),
    "verify_ftc_intrinsic": (F, lambda f, fk: verify_ftc_intrinsic(
        FAMILY, MU, np.copy, RHO, f, t_nodes=5, s_nodes=5)),
    "fd_directional_derivative": (F, lambda f, fk: fd_directional_derivative(
        FAMILY, MU, NU, 0.3, f)),
    "poisson_resolvent": (F, lambda f, fk: poisson_resolvent(KERN, f)),
    "check_resolvent_identity": (F, lambda f, fk: check_resolvent_identity(FAMILY, MU, NU, f)),
    "pushforward_density": (GRID.nodes, lambda f, fk: pushforward_density(MU, lambda x: f)),
    # P(rho, f) is rho.expect(kernel.apply_to_function(f)); P(x, f) reads the
    # one-step law from x
    "GridDensity.expect": (F, lambda f, fk: RHO.expect(f)),
    "GridDensity.expect-2d": (F2, lambda f, fk: RHO2.expect(f)),
    "AtomPlusDensity.expect": (F, lambda f, fk: KERN.propagate_point(0.3).expect(f)),
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


def test_grid_function_takes_a_callable_on_the_2d_mesh():
    values = grid_function(GRID2, lambda x1, x2: np.cos(0.6 * x1) * np.tanh(x2))
    assert np.array_equal(values, F2)
    # a two-stage entry accepts the callable as it accepts its values
    assert np.array_equal(apply_gibbs(GIBBS, (0.0, 0.0), lambda x1, x2: x1),
                          apply_gibbs(GIBBS, (0.0, 0.0), X1))


def test_grid_function_refuses_a_callable_without_a_grid():
    with pytest.raises(InvalidInputError, match="no grid"):
        grid_function(GRID.shape(), np.cos)


def test_warm_start_refusals_name_the_node(monkeypatch):
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
        with monkeypatch.context() as patch:
            patch.setattr(derivative, "RATIO_CEILING", 0.5 * ratio2.max())
            derivative_for_start(GIBBS, wide, F2)
    with monkeypatch.context() as patch:
        patch.setattr(derivative, "RATIO_CEILING", ratio2.max())
        derivative_for_start(GIBBS, wide, F2)


def test_the_stationary_start_is_exempt_from_the_ceiling():
    # mu / mu^2 = 1 / mu passes the ceiling in the tails; the derivative at the
    # stationary start is f - P f, for any density with the target's values
    assert np.max(1.0 / MU.values) > derivative.RATIO_CEILING
    twin = gaussian_density(GRID, 0.0, 1.0)
    assert twin is not KERN.target
    for start in (KERN.target, twin):
        assert np.array_equal(hastings_derivative(KERN, start, F).density_part,
                              generator_function(KERN, F))
    # the limit check takes mu, and refuses the start iterated_derivative refuses
    iterated_derivative_limit_check(FAMILY, MU, NU, MU, F, k_max=3)
    cold = gaussian_density(GRID, 0.0, 2.5)
    for call in (lambda: iterated_derivative(KERN, cold, F, 3),
                 lambda: iterated_derivative_limit_check(FAMILY, MU, NU, cold, F, k_max=3)):
        with pytest.raises(PreconditionError, match=re.escape("ratio rho/mu^2 = 2.47e+14")):
            call()


MIN_ONE = HastingsFamily(FAMILY.proposal, BalancingFunction.min_one())

# entry -> a call that takes RHO (or RHO2 on the two-stage grid) as its start
CEILING_ENTRIES = {
    "derivative_for_start": lambda: derivative_for_start(KERN, RHO, F),
    "derivative_for_start-two-stage": lambda: derivative_for_start(GIBBS, RHO2, F2),
    "hastings_derivative": lambda: hastings_derivative(KERN, RHO, F),
    "gibbs_derivative": lambda: gibbs_derivative(GIBBS, RHO2, F2),
    "verify_ftc": lambda: verify_ftc(FAMILY, MU, NU, RHO, F, t_nodes=5),
    "hastings_mvi_constants": lambda: hastings_mvi_constants(FAMILY, MU, NU, RHO, V_SQ,
                                                             t_nodes=5),
    "mh_mvi_constants": lambda: mh_mvi_constants(MIN_ONE, MU, NU, RHO, V_SQ, t_nodes=5),
    "verify_ftc_intrinsic": lambda: verify_ftc_intrinsic(FAMILY, MU, np.copy, RHO, F,
                                                         t_nodes=5, s_nodes=5),
    "iterated_derivative": lambda: iterated_derivative(KERN, RHO, F, 2),
    "iterated_derivative_limit_check": lambda: iterated_derivative_limit_check(
        FAMILY, MU, NU, RHO, F, k_max=2),
}


@pytest.mark.parametrize("entry", sorted(CEILING_ENTRIES))
def test_every_entry_reads_the_one_ceiling_at_call_time(entry, monkeypatch):
    call = CEILING_ENTRIES[entry]
    assert derivative.RATIO_CEILING == 1e6
    call()
    monkeypatch.setattr(derivative, "RATIO_CEILING", 1.0)
    with pytest.raises(PreconditionError, match="exceeds ceiling 1$"):
        call()


@pytest.fixture(scope="module")
def constants():
    return hastings_mvi_constants(FAMILY, MU, NU, 0.3, V_SQ, t_nodes=5)


@pytest.mark.parametrize("bad", [3.0, True, -1, "3", None])
def test_counts_take_integers_only(bad, constants):
    calls = [
        lambda: iterate_kernel(KERN, F, bad),
        lambda: iterate_density(KERN, RHO, bad),
        lambda: iterated_derivative(KERN, RHO, F, bad),
        lambda: run_limiting_chain(KERN, 0.0, bad, 1),
        lambda: empirical_mvi_check(FAMILY, MU, NU, 0.3, V_SQ, constants, n_trials=bad),
        lambda: iterated_derivative_limit_check(FAMILY, MU, NU, RHO, F, k_max=bad),
        lambda: check_v_moment_growth([KERN], V_SQ, 1, CERT, n_reps=bad),
        lambda: check_v_moment_growth([KERN], V_SQ, 1, CERT, checkpoints=(5, bad)),
        lambda: spike_density(GRID, 0.0, bad),
        lambda: estimate_geometric_rate(KERN, [0.0], bad, V_SQ),
        lambda: Grid1D(-1.0, 1.0, bad),
        lambda: BalancingFunction.polynomial(bad),
        lambda: simpson_weights(bad),
        lambda: check_minorization([KERN], SMALL_SET, j=bad),
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
    with pytest.raises(ResourceLimitError, match=f"exceeds budget {DEFAULT_MAX_ITER}"):
        iterate_kernel(KERN, F, DEFAULT_MAX_ITER + 1)


@pytest.mark.parametrize("value, message", [
    (True, "resolvent tolerance must be a positive finite number, got True"),
    (np.True_, "resolvent tolerance must be a positive finite number, got "),
    ("a", "resolvent tolerance must be a positive finite number, got 'a'"),
    (None, "resolvent tolerance must be a positive finite number, got None"),
    (np.array([0.5]), "resolvent tolerance must be a positive finite number, got array"),
    (0, "resolvent tolerance must be positive and finite, got 0"),
    (-1.5, "resolvent tolerance must be positive and finite, got -1.5"),
    (math.inf, "resolvent tolerance must be positive and finite, got inf"),
    (math.nan, "resolvent tolerance must be positive and finite, got nan"),
    (np.float64(-2.0), "resolvent tolerance must be positive and finite, got -2"),
])
def test_positive_values_take_real_numbers_only(value, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        check_positive(value, "resolvent tolerance")
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        poisson_resolvent(KERN, F, tol=value)


@pytest.mark.parametrize("value", [1e-9, 2, np.float64(0.5), np.int64(3)])
def test_positive_values_pass_as_numbers(value):
    check_positive(value, "resolvent tolerance")


def test_counts_and_tolerances_below_their_minimum_are_refused(constants):
    refusals = [
        ("trial count must be an integer >= 1, got 0", lambda: empirical_mvi_check(
            FAMILY, MU, NU, 0.3, V_SQ, constants, n_trials=0)),
        ("k_max must be an integer >= 1, got 0", lambda: iterated_derivative_limit_check(
            FAMILY, MU, NU, RHO, F, k_max=0)),
        ("n_reps must be an integer >= 2, got 1", lambda: check_v_moment_growth(
            [KERN], V_SQ, 1, CERT, n_reps=1)),
        ("checkpoint must be an integer >= 1, got 0", lambda: check_v_moment_growth(
            [KERN], V_SQ, 1, CERT, checkpoints=(0, 5))),
        ("needs at least one checkpoint", lambda: check_v_moment_growth(
            [KERN], V_SQ, 1, CERT, checkpoints=())),
        ("spike half-width in cells must be an integer >= 1, got 0",
         lambda: spike_density(GRID, 0.0, 0)),
    ]
    for tol in (0.0, math.nan):
        message = f"resolvent tolerance must be positive and finite, got {tol:g}"
        refusals.append((message, lambda tol=tol: poisson_resolvent(KERN, F, tol=tol)))
    for message, call in refusals:
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            call()
    # the smallest admissible counts go through
    assert empirical_mvi_check(FAMILY, MU, NU, 0.3, V_SQ, constants, n_trials=1)["n_trials"] == 1
    assert len(iterated_derivative_limit_check(FAMILY, MU, NU, RHO, F, k_max=1)["gaps"]) == 1
    assert check_v_moment_growth([KERN], V_SQ, 1, CERT, checkpoints=(1,),
                                 n_reps=2)["chain_checks"][0]["n"] == 1
    assert spike_density(GRID, 0.0, 1).values[GRID.n_points // 2] > 0.0


# the five test-function entries -> what their result reports
REPORTED = {
    "verify_ftc": lambda rep: (rep.lhs, rep.rhs),
    "verify_ftc_intrinsic": lambda rep: (rep.lhs, rep.rhs),
    "fd_directional_derivative": lambda rep: rep.estimate,
    "poisson_resolvent": lambda table: table.values.tolist(),
    "check_resolvent_identity": lambda rep: rep["residual"],
}


@pytest.mark.parametrize("entry", sorted(REPORTED))
def test_test_function_entries_take_a_callable(entry, fk):
    _, call = ENTRIES[entry]
    reported = REPORTED[entry]
    assert reported(call(lambda x: np.cos(0.8 * x), fk)) == reported(call(F, fk))
