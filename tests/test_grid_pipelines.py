"""The dense N x N pipelines (target ratio, acceptance, derivative density,
mean-value budget) against their strided-view formulas in ``oracles``:
reading q's transpose from a cached C-ordered copy, computing in place and
building the budget's first term transposed must leave every bit as it was."""

import numpy as np
import pytest

from mcmccalc.calculus import _hastings_density_budget
from mcmccalc.derivative import _hastings_derivative_values
from mcmccalc.kernels import BalancingFunction, HastingsKernel, ProposalKernel
from mcmccalc.measures import Grid1D, gaussian_density

import oracles

DYADIC = Grid1D(-8.0, 8.0, 1025)      # every node and spacing exact in binary
NON_DYADIC = Grid1D(-6.0, 6.0, 241)   # h = 0.05: mirrored q entries round apart

BALANCINGS = {
    "barker": BalancingFunction.barker(),
    "gj2": BalancingFunction.polynomial(2),
    "min-one": BalancingFunction.min_one(),
}


def _proposal(grid, kind):
    if kind == "random-walk":
        return ProposalKernel.random_walk(0.8, grid)
    return ProposalKernel.independence(gaussian_density(grid, 0.5, 2.0))


CASES = [(DYADIC, "random-walk"), (NON_DYADIC, "random-walk"), (NON_DYADIC, "independence")]
CASE_IDS = ["dyadic-rw", "non-dyadic-rw", "independence"]


@pytest.fixture(scope="module", params=CASES, ids=CASE_IDS)
def case(request):
    grid = request.param[0]
    return (grid, _proposal(*request.param), gaussian_density(grid, 0.2, 1.1),
            gaussian_density(grid, -0.1, 0.6).values)


def test_transposed_proposal_matrix_is_q_itself_only_when_symmetric():
    rw = ProposalKernel.random_walk(0.8, DYADIC)
    assert rw.matrix_t(DYADIC) is rw.matrix(DYADIC)

    for prop in (ProposalKernel.random_walk(0.8, NON_DYADIC),
                 _proposal(NON_DYADIC, "independence")):
        q, qt = prop.matrix(NON_DYADIC), prop.matrix_t(NON_DYADIC)
        assert qt is not q and np.count_nonzero(q != q.T) > 0
        assert qt.flags.c_contiguous and not qt.flags.writeable
        assert np.array_equal(qt, q.T)
        assert prop.matrix_t(NON_DYADIC) is qt  # cached with q


@pytest.mark.parametrize("name", sorted(BALANCINGS))
def test_ratio_and_accept_matrices_match_the_strided_formulas(case, name):
    grid, prop, mu, rho = case
    kern = HastingsKernel(mu, prop, BALANCINGS[name], validate=False)
    q = kern.q_matrix
    # the kernel at the start's density (the fixture's rho)
    at_rho = HastingsKernel(gaussian_density(grid, -0.1, 0.6), prop, BALANCINGS[name],
                            validate=False)
    assert np.array_equal(at_rho.target.values, rho)
    for k in (kern, at_rho):
        got = k.ratio_matrix()
        want = oracles.ratio_matrix_where(q, k.target.values)
        assert got.flags.c_contiguous and np.array_equal(got, want)
    r = oracles.ratio_matrix_where(q, mu.values)
    g = oracles.barker_g_where if name == "barker" else kern.balancing.g
    a = kern.accept_matrix
    assert a.flags.c_contiguous and np.array_equal(a, q * g(r))


@pytest.mark.parametrize("name", ["barker", "gj2"])
def test_derivative_pieces_match_the_strided_formulas(case, name):
    grid, prop, mu, rho = case
    kern = HastingsKernel(mu, prop, BALANCINGS[name], validate=False)
    g_prime = oracles.barker_g_prime_where if name == "barker" else kern.balancing.g_prime
    gp = g_prime(oracles.ratio_matrix_where(kern.q_matrix, mu.values))
    f = np.cos(0.7 * grid.nodes) + 0.2 * grid.nodes
    w = grid.trapezoid_weights()
    dens = oracles.hastings_derivative_strided(kern.q_matrix, gp, mu.values, w, rho, f)
    assert np.array_equal(_hastings_derivative_values(kern, rho, f), dens)


@pytest.mark.parametrize("name", sorted(BALANCINGS))
def test_density_budget_matches_the_strided_formula(case, name):
    grid, prop, mu, rho = case
    kern = HastingsKernel(mu, prop, BALANCINGS[name], validate=False)
    v = 1.0 + grid.nodes**2
    gp_abs = None
    if name != "min-one":
        g_prime = oracles.barker_g_prime_where if name == "barker" else kern.balancing.g_prime
        gp_abs = np.abs(g_prime(oracles.ratio_matrix_where(kern.q_matrix, mu.values)))
    want = oracles.hastings_density_budget_strided(
        kern.q_matrix, gp_abs, mu.values, grid.trapezoid_weights(), rho, v)
    assert _hastings_density_budget(kern, rho, v, use_g_prime=gp_abs is not None) == want


SPECIAL = np.array([0.0, np.inf, np.nan, 1e308, 5e-324, 2.2250738585072014e-308,
                    1e154, 1e200, 0.5, 1.0, 3.0, 1e-300])


def test_barker_bodies_match_the_where_formulas_on_special_values():
    barker = BalancingFunction.barker()
    rng = np.random.default_rng(9)
    t = np.concatenate([SPECIAL, rng.lognormal(0.0, 8.0, 4000)])
    g, gp = barker.g(t), barker.g_prime(t)
    assert np.array_equal(g, oracles.barker_g_where(t), equal_nan=True)
    assert np.array_equal(gp, oracles.barker_g_prime_where(t), equal_nan=True)
    f_order = np.asfortranarray(t[:400].reshape(20, 20))
    assert np.array_equal(barker.g(f_order), oracles.barker_g_where(f_order), equal_nan=True)
    for i, value in enumerate(t[:200]):
        g0, gp0 = barker.g(value), barker.g_prime(np.float64(value))
        assert np.shape(g0) == () and np.shape(gp0) == ()
        assert np.array_equal(g0, oracles.barker_g_where(value), equal_nan=True)
        # the where formula squares a 0-d input through the scalar power,
        # which rounds apart from the array square; the body squares both alike
        assert np.array_equal(gp0, gp[i], equal_nan=True)
