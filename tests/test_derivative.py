import numpy as np
import pytest

from mcmccalc.derivative import (
    derivative_for_start,
    drift_via_derivative,
    fd_directional_derivative,
    generator_function,
    gibbs_derivative,
    gibbs_derivative_at_point,
    hastings_derivative,
    hastings_derivative_at_point,
    interchange_margin,
    iterated_derivative,
    iterated_derivative_limit_check,
    spike_density,
)
from mcmccalc.errors import InvalidInputError, PreconditionError
from mcmccalc.kernels import (
    BalancingFunction,
    GibbsFamily,
    GibbsKernel,
    HastingsFamily,
    ProposalKernel,
)
from mcmccalc.measures import (
    Grid1D,
    Grid2D,
    GridDensity,
    SignedGridFunction,
    curve_at,
    ContaminationCurve,
    gaussian2d_density,
    gaussian_density,
    integrate_values,
)

import oracles


@pytest.fixture(scope="module")
def grid():
    return Grid1D(-8.0, 8.0, 513)


@pytest.fixture(scope="module")
def mu(grid):
    return gaussian_density(grid, 0.0, 1.0)


@pytest.fixture(scope="module")
def nu(grid):
    return gaussian_density(grid, 0.3, 1.15)


@pytest.fixture(scope="module")
def rho(grid):
    return gaussian_density(grid, 0.0, 0.45)


@pytest.fixture(scope="module")
def family(grid):
    return HastingsFamily(ProposalKernel.random_walk(1.0, grid), BalancingFunction.barker())


@pytest.fixture(scope="module")
def f_vals(grid):
    return np.cos(0.8 * grid.nodes) + 0.3 * np.tanh(grid.nodes)


class TrivialFamily:
    """P_pi(x, f) = pi(f) for every x: the one-step map whose derivative in
    the target is exactly chi(f)."""

    class _Kern:
        def __init__(self, target):
            self.grid = target.grid
            self.target = target

        def apply_to_function(self, f):
            val = integrate_values(self.grid, self.target.values * np.asarray(f, float))
            return np.full(self.grid.shape(), val)

    def at(self, target, validate=False):
        return TrivialFamily._Kern(target)


class RoughFamily:
    """Value map with a square-root kink in t: the oracle must refuse it."""

    class _Kern:
        def __init__(self, target, base):
            self.grid = target.grid
            self._c = np.sqrt(
                integrate_values(target.grid, np.abs(target.values - base))
            )

        def apply_to_function(self, f):
            return np.asarray(f, float) * (1.0 + self._c)

    def __init__(self, base_values):
        self._base = base_values

    def at(self, target, validate=False):
        return RoughFamily._Kern(target, self._base)


# ------------------------------------------------------------------- oracle

def test_oracle_exact_on_trivial_family(grid, mu, nu, rho, f_vals):
    rep = fd_directional_derivative(TrivialFamily(), mu, nu, rho, f_vals)
    truth = integrate_values(grid, (nu.values - mu.values) * f_vals)
    assert rep.converged
    assert rep.estimate == pytest.approx(truth, abs=1e-10)


def test_oracle_halves_with_midpoint_direction(family, grid, mu, nu, rho, f_vals):
    full = fd_directional_derivative(family, mu, nu, rho, f_vals).estimate
    mid = curve_at(ContaminationCurve(mu, nu), 0.5)
    half = fd_directional_derivative(family, mu, mid, rho, f_vals).estimate
    assert abs(half - 0.5 * full) <= 1e-5 * max(1.0, abs(full))


def test_oracle_flags_rough_value_maps(grid, mu, nu, rho, f_vals):
    rep = fd_directional_derivative(RoughFamily(mu.values), mu, nu, rho, f_vals)
    assert not rep.converged
    with pytest.raises(InvalidInputError):
        rep.require_converged()


def test_oracle_rejects_bad_steps(family, mu, nu, rho, f_vals):
    with pytest.raises(InvalidInputError):
        fd_directional_derivative(family, mu, nu, rho, f_vals, steps=(1e-2, 1e-3, 1e-4))


# -------------------------------------------------------- density starts

def test_hastings_derivative_matches_oracle(family, mu, nu, rho, f_vals):
    kern = family.at(mu)
    deriv = hastings_derivative(kern, rho, f_vals)
    chi = SignedGridFunction.difference(nu, mu)
    analytic = deriv.action(chi)
    rep = fd_directional_derivative(family, mu, nu, rho, f_vals).require_converged()
    assert abs(analytic - rep.estimate) <= 1e-3 * max(1.0, abs(rep.estimate))
    # far tighter in practice
    assert abs(analytic - rep.estimate) <= 2e-6 * max(1.0, abs(rep.estimate))


def test_hastings_derivative_centering(family, mu, rho, grid):
    rng = np.random.default_rng(12)
    for _ in range(5):
        f = np.sin(rng.uniform(0.2, 2.0) * grid.nodes + rng.uniform(0, 3))
        deriv = hastings_derivative(family.at(mu), rho, f)
        assert deriv.centering_residual() <= 1e-6


def test_hastings_derivative_linear_in_f(family, mu, nu, rho, grid):
    kern = family.at(mu)
    chi = SignedGridFunction.difference(nu, mu)
    f = np.cos(grid.nodes)
    g = np.tanh(0.5 * grid.nodes)
    sep = (
        hastings_derivative(kern, rho, f).action(chi)
        + hastings_derivative(kern, rho, g).action(chi)
    )
    joint = hastings_derivative(kern, rho, f + g).action(chi)
    assert abs(joint - sep) <= 1e-9


def test_hastings_derivative_preconditions(grid, mu, rho, f_vals):
    prop = ProposalKernel.random_walk(1.0, grid)
    kern_minone = family_kernel(grid, mu, prop, BalancingFunction.min_one())
    with pytest.raises(PreconditionError):
        hastings_derivative(kern_minone, rho, f_vals)

    kern = family_kernel(grid, mu, prop, BalancingFunction.barker())
    cold = gaussian_density(grid, 0.0, 2.5)  # tails far heavier than mu^2
    with pytest.raises(PreconditionError) as exc:
        hastings_derivative(kern, cold, f_vals)
    assert "node" in str(exc.value)

    unbounded = ProposalKernel(prop.density, tag="unbounded-variant", bounded=False)
    kern_ub = family_kernel(grid, mu, unbounded, BalancingFunction.barker())
    with pytest.raises(PreconditionError):
        hastings_derivative(kern_ub, rho, f_vals)


def family_kernel(grid, mu, prop, bal):
    from mcmccalc.kernels import HastingsKernel

    return HastingsKernel(mu, prop, bal, validate=False)


def test_generator_identity_hastings(family, mu, grid, f_vals):
    kern = family.at(mu)
    gen = generator_function(kern, f_vals)
    direct = f_vals - kern.apply_to_function(f_vals)
    assert np.max(np.abs(gen - direct)) <= 1e-6


# ---------------------------------------------------------- point starts

def test_point_derivative_matches_oracle(family, grid, mu, nu, f_vals):
    x = 0.75  # grid node
    kern = family.at(mu)
    deriv = hastings_derivative_at_point(kern, x, f_vals)
    chi = SignedGridFunction.difference(nu, mu)
    analytic = deriv.action(chi)
    rep = fd_directional_derivative(family, mu, nu, x, f_vals).require_converged()
    assert abs(analytic - rep.estimate) <= 1e-3 * max(1.0, abs(rep.estimate))


def test_point_derivative_spike_start_convergence(family, grid, mu, nu, f_vals):
    x = 0.75
    kern = family.at(mu)
    analytic = hastings_derivative_at_point(kern, x, f_vals).action(
        SignedGridFunction.difference(nu, mu)
    )
    errs = []
    for hw in (8, 4, 2):
        rep = fd_directional_derivative(family, mu, nu, spike_density(grid, x, hw), f_vals)
        errs.append(abs(rep.estimate - analytic))
    assert errs[-1] <= errs[0]
    assert errs[-1] <= 5e-4 * max(1.0, abs(analytic))


def test_point_derivative_centering_full_pairing(family, mu, grid, f_vals):
    deriv = hastings_derivative_at_point(family.at(mu), 0.75, f_vals)
    assert deriv.centering_residual() <= 1e-6


def test_point_derivative_rejects_min_one(grid, mu, f_vals):
    prop = ProposalKernel.random_walk(1.0, grid)
    kern = family_kernel(grid, mu, prop, BalancingFunction.min_one())
    with pytest.raises(PreconditionError):
        hastings_derivative_at_point(kern, 0.0, f_vals)


# ------------------------------------------------------------- two-stage

@pytest.fixture(scope="module")
def grid2():
    ax = Grid1D(-6.0, 6.0, 65)
    return Grid2D(ax, ax)


@pytest.fixture(scope="module")
def mu2(grid2):
    return gaussian2d_density(grid2, [0.0, 0.0], np.array([[1.0, 0.4], [0.4, 1.0]]))


@pytest.fixture(scope="module")
def nu2(grid2):
    return gaussian2d_density(grid2, [0.3, -0.2], np.array([[1.1, 0.15], [0.15, 0.9]]))


@pytest.fixture(scope="module")
def rho2(grid2):
    return gaussian2d_density(grid2, [0.0, 0.0], np.array([[0.49, 0.0], [0.0, 0.49]]))


@pytest.fixture(scope="module")
def f2_vals(grid2):
    x1, x2 = grid2.mesh()
    return np.cos(0.6 * x1) * np.tanh(x2) + 0.25 * x1


def test_gibbs_derivative_matches_oracle(grid2, mu2, nu2, rho2, f2_vals):
    fam = GibbsFamily()
    deriv = gibbs_derivative(fam.at(mu2), rho2, f2_vals)
    chi = SignedGridFunction.difference(nu2, mu2)
    analytic = deriv.action(chi)
    rep = fd_directional_derivative(fam, mu2, nu2, rho2, f2_vals).require_converged()
    assert abs(analytic - rep.estimate) <= 1e-3 * max(1.0, abs(rep.estimate))


def test_gibbs_derivative_centering(grid2, mu2, rho2, f2_vals):
    deriv = gibbs_derivative(GibbsFamily().at(mu2), rho2, f2_vals)
    assert deriv.centering_residual() <= 1e-6


def test_gibbs_derivative_warm_start_precondition(grid2, mu2, f2_vals):
    wide = gaussian2d_density(grid2, [0.0, 0.0], np.array([[1.0, 0.0], [0.0, 16.0]]))
    with pytest.raises(PreconditionError):
        gibbs_derivative(GibbsFamily().at(mu2), wide, f2_vals, ratio_ceiling=10.0)


def test_generator_identity_gibbs(grid2, mu2, f2_vals):
    kern = GibbsFamily().at(mu2)
    gen = generator_function(kern, f2_vals)
    direct = f2_vals - kern.apply_to_function(f2_vals)
    assert np.max(np.abs(gen - direct)) <= 1e-6


def test_gibbs_point_derivative_matches_oracle(grid2, mu2, nu2, f2_vals):
    fam = GibbsFamily()
    x = (0.5, -0.75)  # second coordinate on a grid node
    deriv = gibbs_derivative_at_point(fam.at(mu2), x, f2_vals)
    chi = SignedGridFunction.difference(nu2, mu2)
    analytic = deriv.action(chi)
    rep = fd_directional_derivative(fam, mu2, nu2, x, f2_vals).require_converged()
    assert abs(analytic - rep.estimate) <= 1e-3 * max(1.0, abs(rep.estimate))


def test_gibbs_point_derivative_spike_start_convergence(grid2, mu2, nu2, f2_vals):
    fam = GibbsFamily()
    x = (0.0, -0.75)
    analytic = gibbs_derivative_at_point(fam.at(mu2), x, f2_vals).action(
        SignedGridFunction.difference(nu2, mu2)
    )
    x1g, x2g = grid2.mesh()
    errs = []
    for hw_cells in (6, 3):
        hw = hw_cells * grid2.axis1.h
        tri = np.maximum(0.0, 1.0 - np.abs(x1g - x[0]) / hw) * np.maximum(
            0.0, 1.0 - np.abs(x2g - x[1]) / hw
        )
        spike2 = GridDensity(grid2, tri)
        rep = fd_directional_derivative(fam, mu2, nu2, spike2, f2_vals)
        errs.append(abs(rep.estimate - analytic))
    assert errs[-1] <= errs[0]
    assert errs[-1] <= 5e-4 * max(1.0, abs(analytic))


def test_gibbs_point_derivative_product_target_hand_formula(grid2, nu2):
    # product target: the a.c. part vanishes and the slice term carries all of it
    n1 = grid2.axis1.nodes
    n2 = grid2.axis2.nodes
    a = np.exp(-0.5 * ((n1 - 0.2) / 0.9) ** 2)
    b = np.exp(-0.5 * ((n2 + 0.1) / 1.1) ** 2)
    joint = GridDensity(grid2, np.outer(a, b), positive=True)
    kern = GibbsKernel(joint)
    f1 = np.tanh(n1)
    f2d = np.broadcast_to(f1[:, None], grid2.shape()).copy()
    x2_index = 20
    x = (0.0, float(n2[x2_index]))
    deriv = gibbs_derivative_at_point(kern, x, f2d)
    assert np.max(np.abs(deriv.density_part)) <= 1e-12
    chi = SignedGridFunction.difference(nu2, joint)
    w1 = grid2.axis1.trapezoid_weights()
    w2 = grid2.axis2.trapezoid_weights()
    b_norm = (w1 @ joint.values)  # second-marginal values
    expected = oracles.gibbs_point_action_product(
        n1, w1, joint.values @ w2, b_norm, f1, chi.values, x2_index
    )
    assert deriv.action(chi) == pytest.approx(expected, abs=1e-10)


# ------------------------------------------------------------- iterated

def test_iterated_derivative_two_step_decomposition(family, grid, mu, nu, rho, f_vals):
    kern = family.at(mu)
    chi = SignedGridFunction.difference(nu, mu)
    it = iterated_derivative(kern, rho, f_vals, 2)
    assert len(it.terms) == 2
    pf = kern.apply_to_function(f_vals)
    rho_p = kern.propagate_density(rho.values)
    t0 = hastings_derivative(kern, GridDensity(grid, rho_p), f_vals).action(chi)
    t1 = hastings_derivative(kern, rho, pf).action(chi)
    assert abs(it.terms[0].action(chi) - t0) <= 1e-9
    assert abs(it.terms[1].action(chi) - t1) <= 1e-9


def test_iterated_derivative_matches_oracle_k2_k3(family, grid, mu, nu, rho, f_vals):
    kern = family.at(mu)
    chi = SignedGridFunction.difference(nu, mu)
    for k, tol in ((2, 5e-4), (3, 1e-3)):
        analytic = iterated_derivative(kern, rho, f_vals, k).action(chi)
        rep = fd_directional_derivative(family, mu, nu, rho, f_vals, k=k).require_converged()
        assert abs(analytic - rep.estimate) <= tol * max(1.0, abs(rep.estimate))


def test_iterated_derivative_point_start_matches_oracle(family, grid, mu, nu, f_vals):
    kern = family.at(mu)
    chi = SignedGridFunction.difference(nu, mu)
    x = -1.25  # grid node
    analytic = iterated_derivative(kern, x, f_vals, 2).action(chi)
    rep = fd_directional_derivative(family, mu, nu, x, f_vals, k=2).require_converged()
    assert abs(analytic - rep.estimate) <= 5e-4 * max(1.0, abs(rep.estimate))


def test_iterated_limit_reaches_stationary_difference(grid, mu, nu, f_vals):
    base = gaussian_density(grid, 0.0, 1.4)
    fam = HastingsFamily(ProposalKernel.independence(base), BalancingFunction.barker())
    report = iterated_derivative_limit_check(fam, mu, nu, mu, f_vals, k_max=30)
    assert report["passed"]
    assert report["final_gap"] < 1e-3
    # gaps should shrink by orders of magnitude overall
    assert report["gaps"][-1] < 1e-2 * report["gaps"][0]


# ----------------------------------------------------- drift & domination

def test_drift_via_derivative_zero_function_fails(family, mu, grid):
    mask = np.abs(grid.nodes) <= 3.0
    rep = drift_via_derivative(family.at(mu), np.zeros(grid.n_points), mask, b=0.0)
    assert not rep["passed"]


def test_drift_via_derivative_scaled_weight_passes(family, mu, grid):
    kern = family.at(mu)
    mask = np.abs(grid.nodes) <= 3.0
    v = 1.0 + grid.nodes**2
    gen = generator_function(kern, v)  # = V - P V
    scale = 1.0 / np.min(gen[~mask])  # make the outside decrease at least 1
    assert scale > 0
    f = scale * v
    rep = drift_via_derivative(kern, f, mask, b=0.0)
    b = rep["b_needed"]
    rep2 = drift_via_derivative(kern, f, mask, b=b + 1e-9)
    assert rep2["passed"] and rep2["outside_ok"]


def test_interchange_margin_nonnegative(family, mu, nu, rho, f_vals):
    rep = interchange_margin(family, mu, nu, rho, f_vals)
    assert rep["finite"]
    assert rep["margin"] >= 0.0
    assert set(rep["actual_masses"]) == {0.0, 0.5, 1.0}


def test_derivative_for_start_dispatch(family, grid, mu, rho, f_vals, grid2, mu2, rho2, f2_vals):
    kern = family.at(mu)
    assert derivative_for_start(kern, rho, f_vals).singular_part is None
    assert derivative_for_start(kern, 0.5, f_vals).singular_part is not None
    gk = GibbsFamily().at(mu2)
    assert derivative_for_start(gk, rho2, f2_vals).slice_values is None
    assert derivative_for_start(gk, (0.0, 0.0), f2_vals).slice_values is not None
