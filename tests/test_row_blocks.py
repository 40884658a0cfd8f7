"""The dense N x N passes run one row block at a time: the mean-value budget
never holds an N x N array, and a grid with fewer rows than one block gives
the bits of the strided formulas in ``oracles`` (1025 rows, with a one-row
tail block, are covered by ``test_grid_pipelines``)."""

import tracemalloc

import numpy as np
import pytest

from mcmccalc.calculus import _hastings_density_budget
from mcmccalc.derivative import _hastings_derivative_values
from mcmccalc.kernels import BalancingFunction, HastingsKernel, ProposalKernel
from mcmccalc.measures import Grid1D, gaussian_density

import oracles

BALANCINGS = {
    "barker": BalancingFunction.barker(),
    "gj2": BalancingFunction.polynomial(2),
    "min-one": BalancingFunction.min_one(),
}


def _kernel(grid, name):
    return HastingsKernel(gaussian_density(grid, 0.2, 1.1), ProposalKernel.random_walk(1.0, grid),
                          BALANCINGS[name], validate=False)


@pytest.mark.parametrize("use_g_prime", [True, False])
def test_the_density_budget_allocates_less_than_one_dense_matrix(use_g_prime):
    grid = Grid1D(-8.0, 8.0, 1025)
    kern = _kernel(grid, "barker")
    rho = gaussian_density(grid, -0.1, 0.6).values
    v = 1.0 + grid.nodes**2
    kern.q_matrix_t  # the proposal's cached matrices are not the budget's
    tracemalloc.start()
    try:
        _hastings_density_budget(kern, rho, v, use_g_prime=use_g_prime)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.n_points**2 * 8


@pytest.mark.parametrize("name", sorted(BALANCINGS))
def test_a_grid_smaller_than_one_block_keeps_the_strided_bits(name):
    grid = Grid1D(-8.0, 8.0, 33)
    kern = _kernel(grid, name)
    q, mu, w = kern.q_matrix, kern.target.values, grid.trapezoid_weights()
    at_rho = HastingsKernel(gaussian_density(grid, -0.1, 0.6), kern.proposal,
                            kern.balancing, validate=False)
    rho = at_rho.target.values
    r = oracles.ratio_matrix_where(q, mu)
    assert np.array_equal(kern.ratio_matrix(), r)
    assert np.array_equal(at_rho.ratio_matrix(), oracles.ratio_matrix_where(q, rho))
    g = oracles.barker_g_where if name == "barker" else kern.balancing.g
    assert np.array_equal(kern.accept_matrix, q * g(r))

    v = 1.0 + grid.nodes**2
    gp_abs = None
    if name != "min-one":
        g_prime = oracles.barker_g_prime_where if name == "barker" else kern.balancing.g_prime
        gp = g_prime(r)
        gp_abs = np.abs(gp)
        f = np.cos(0.7 * grid.nodes) + 0.2 * grid.nodes
        assert np.array_equal(_hastings_derivative_values(kern, rho, f),
                              oracles.hastings_derivative_strided(q, gp, mu, w, rho, f))
    want = oracles.hastings_density_budget_strided(q, gp_abs, mu, w, rho, v)
    assert _hastings_density_budget(kern, rho, v, use_g_prime=gp_abs is not None) == want
