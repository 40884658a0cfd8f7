import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mcmccalc.errors import (
    InternalConsistencyError,
    InvalidInputError,
    ResourceLimitError,
)
from mcmccalc.kernels import (
    AtomPlusDensity,
    BalancingFunction,
    GibbsKernel,
    HastingsFamily,
    HastingsKernel,
    ProposalKernel,
    acceptance_rate_quadrature,
    apply_gibbs,
    apply_gibbs_to_density,
    apply_hastings,
    apply_hastings_to_density,
    check_invariance,
    hastings_ratio,
    iterate_density,
    iterate_kernel,
    iterate_point,
    sample_from_grid_density,
    sample_step_detail,
)
from mcmccalc.measures import (
    Grid1D,
    Grid2D,
    GridDensity,
    gaussian2d_density,
    gaussian_density,
    integrate,
    integrate_values,
)
from mcmccalc.samplers import run_limiting_chain

import oracles


@pytest.fixture(scope="module")
def grid():
    return Grid1D(-8.0, 8.0, 1025)


@pytest.fixture(scope="module")
def std_normal(grid):
    return gaussian_density(grid, 0.0, 1.0)


@pytest.fixture(scope="module")
def rw_barker(grid, std_normal):
    prop = ProposalKernel.random_walk(1.0, grid)
    return HastingsKernel(std_normal, prop, BalancingFunction.barker())


# ---------------------------------------------------------------- balancing

def test_balancing_identity_random_points():
    rng = np.random.default_rng(2024)
    x = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=1000))
    for bal in (
        BalancingFunction.barker(),
        BalancingFunction.min_one(),
        BalancingFunction.polynomial(2),
        BalancingFunction.polynomial(8),
    ):
        lhs = bal.g(x)
        rhs = x * bal.g(1.0 / x)
        assert np.all(lhs >= 0.0) and np.all(lhs <= 1.0 + 1e-12)
        assert np.max(np.abs(lhs - rhs)) < 1e-9, bal.tag


def test_balancing_derivatives_match_centered_differences():
    x = np.geomspace(0.05, 20.0, 200)
    h = 1e-6
    for bal in (BalancingFunction.barker(), BalancingFunction.polynomial(3),
                BalancingFunction.polynomial(8)):
        fd = (bal.g(x + h) - bor_minus(bal, x, h)) / (2 * h)
        assert np.max(np.abs(bal.g_prime(x) - fd)) < 1e-6, bal.tag


def bor_minus(bal, x, h):
    return bal.g(x - h)


def test_min_one_has_no_derivative():
    assert BalancingFunction.min_one().g_prime is None


def test_polynomial_family_approaches_min_one_monotonically():
    x = np.linspace(0.1, 10.0, 400)
    target = np.minimum(1.0, x)
    prev_gap = None
    for j in (1, 2, 4, 8, 16, 64):
        gap = np.max(np.abs(BalancingFunction.polynomial(j).g(x) - target))
        if prev_gap is not None:
            assert gap <= prev_gap + 1e-12
        prev_gap = gap
    assert prev_gap <= 0.02  # j = 64


def test_polynomial_derivative_bounded_by_one():
    x = np.geomspace(1e-4, 1e4, 2000)
    for j in (1, 2, 5, 16):
        assert np.max(np.abs(BalancingFunction.polynomial(j).g_prime(x))) <= 1.0 + 1e-12


def test_balancing_derivative_identity():
    # g(t) = t g'(t) + g'(1/t) holds for the differentiable rules
    t = np.geomspace(1e-3, 1e3, 500)
    for bal in (BalancingFunction.barker(), BalancingFunction.polynomial(4)):
        resid = bal.g(t) - (t * bal.g_prime(t) + bal.g_prime(1.0 / t))
        assert np.max(np.abs(resid)) < 1e-9, bal.tag


def test_invalid_balancing_rejected():
    with pytest.raises(InvalidInputError):
        BalancingFunction.custom(lambda t: np.ones_like(np.asarray(t, float)), tag="always")


# ---------------------------------------------------------------- proposals

def test_random_walk_rows_integrate_to_one(grid):
    prop = ProposalKernel.random_walk(0.5, grid)
    assert prop.validate_rows(grid) < 1e-6


def test_random_walk_density_is_symmetric(grid):
    prop = ProposalKernel.random_walk(1.0, grid)
    x = grid.nodes[100:200]
    y = grid.nodes[700:800]
    assert np.allclose(prop.density(x, y), prop.density(y, x), rtol=0, atol=1e-15)


def test_random_walk_density_matches_sampler(grid):
    # seeded draws against the analytic reflected density via a coarse histogram
    prop = ProposalKernel.random_walk(1.5, grid)
    rng = np.random.default_rng(5)
    x0 = -7.5  # near the wall so reflection actually matters
    draws, _ = prop.propose(x0, prop.draw(rng, 40000))
    assert draws.min() >= grid.lower and draws.max() <= grid.upper
    edges = np.linspace(grid.lower, grid.upper, 33)
    hist, _ = np.histogram(draws, bins=edges, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    ref = prop.density(x0, centers)
    assert np.max(np.abs(hist - ref)) < 0.03


def test_independence_proposal(grid, std_normal):
    prop = ProposalKernel.independence(std_normal)
    assert prop.validate_rows(grid) < 1e-6
    rng = np.random.default_rng(17)
    draws, _ = prop.propose(0.0, prop.draw(rng, 20000))
    assert abs(draws.mean()) < 0.03
    assert abs(draws.std() - 1.0) < 0.03


def test_old_positional_proposal_call_fails_loudly(grid):
    # the sampler argument is gone: an old call must not bind it to ``tag``
    prop = ProposalKernel.random_walk(1.0, grid)
    with pytest.raises(TypeError):
        ProposalKernel(prop.density, lambda x, rng: (x, False), "tag", True)


def test_inverse_cdf_sampler_uniform_cells():
    g = Grid1D(0.0, 1.0, 5)
    vals = np.ones(5)
    u = np.linspace(0.001, 0.999, 999)
    x = sample_from_grid_density(g, vals, u)
    assert np.max(np.abs(x - u)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.05, 16.0 / 6.0),
       x0=st.floats(-8.0, 8.0), n=st.integers(1, 40),
       kind=st.sampled_from(["random-walk", "independence"]))
@example(seed=1, sigma=2.6, x0=8.0, n=40, kind="random-walk")
def test_vectorised_pair_equals_its_oracle(seed, sigma, x0, n, kind, grid):
    # one vectorised call of n draws: bit-equal, fold flags included, to n
    # draws of the sampler as first written from the same stream
    if kind == "random-walk":
        prop = ProposalKernel.random_walk(sigma, grid)

        def oracle(rng):
            return oracles.reflected_walk_sample(x0, rng, sigma, grid.lower, grid.upper)
    else:
        base = gaussian_density(grid, 0.5, sigma)
        prop = ProposalKernel.independence(base)

        def oracle(rng):
            return oracles.inverse_cdf_sample(grid.nodes, grid.h, base.values, rng)
    oracle_rng, pair_rng = (np.random.default_rng(seed) for _ in range(2))
    expected = [oracle(oracle_rng) for _ in range(n)]
    y, folded = prop.propose(x0, prop.draw(pair_rng, n))
    assert y.tobytes() == np.array([e[0] for e in expected]).tobytes()
    assert [e[1] for e in expected] == folded.tolist()


@pytest.mark.parametrize("x0, sigma, draws, folds", [
    (0.3, 0.5, np.linspace(-3.0, 3.0, 32), 0),
    (8.0, 2.6, np.linspace(0.1, 9.0, 32), 32),    # every step leaves at the top
    (-7.9, 2.6, np.linspace(-3.0, 3.0, 32), 16),  # half leave at the bottom
    (0.0, 2.6, np.linspace(-4.0, 4.0, 31), 8),    # some leave at each wall
    (0.3, 1.0, np.empty(0), 0),
], ids=["none", "all", "bottom", "both", "empty"])
def test_random_walk_propose_equals_mask_then_reflect(grid, x0, sigma, draws, folds):
    prop = ProposalKernel.random_walk(sigma, grid)
    y, folded = prop.propose(np.array([x0]), draws)
    ref, ref_folded = oracles.reflected_walk_propose(np.array([x0]), draws, sigma,
                                                     grid.lower, grid.upper)
    assert np.count_nonzero(ref_folded) == folds
    assert y.dtype == ref.dtype and y.tobytes() == ref.tobytes()
    assert folded.dtype == ref_folded.dtype and folded.tobytes() == ref_folded.tobytes()


# ---------------------------------------------------------------- hastings

def test_hastings_ratio_gaussian_value(rw_barker):
    # mu = N(0,1), symmetric proposal: r(0, 1) = mu(1)/mu(0) = exp(-1/2)
    got = hastings_ratio(rw_barker, 0.0, 1.0)
    assert got == pytest.approx(math.exp(-0.5), rel=1e-9)


def test_hastings_ratio_never_proposed_pairs(grid, std_normal):
    bal = BalancingFunction.min_one()

    def density(x, y):
        # localized proposal with hard support cutoff
        d = np.abs(np.asarray(y, float) - np.asarray(x, float))
        return np.where(d <= 1.0, 0.5, 0.0)

    prop = ProposalKernel(density, tag="band", bounded=True)
    kern = HastingsKernel(std_normal, prop, bal, validate=False)
    assert hastings_ratio(kern, -5.0, 5.0) == 1.0


def test_family_shares_one_read_only_proposal_matrix(grid, std_normal):
    prop = ProposalKernel.random_walk(1.0, grid)
    family = HastingsFamily(prop, BalancingFunction.barker())
    q = family.at(std_normal).q_matrix
    assert family.at(gaussian_density(grid, 0.5, 1.2)).q_matrix is q
    with pytest.raises(ValueError):
        q[0, 0] = 0.0
    fresh = prop.density(grid.nodes[:, None], grid.nodes[None, :])
    assert q.tobytes() == fresh.tobytes()
    other = Grid1D(-8.0, 8.0, 257)
    q_other = prop.matrix(other)
    assert q_other.shape == (257, 257)
    assert prop.matrix(grid) is not q  # the one-entry cache moved to the other grid
    assert prop.matrix(grid).tobytes() == q.tobytes()


def test_ratio_matrix_matches_where_formula(rw_barker, grid, std_normal):
    def band(x, y):
        d = np.abs(np.asarray(y, float) - np.asarray(x, float))
        return np.where(d <= 1.0, 0.5, 0.0)

    prop = ProposalKernel(band, tag="band", bounded=True)
    banded = HastingsKernel(std_normal, prop, BalancingFunction.min_one(), validate=False)
    skewed = gaussian_density(grid, 0.4, 0.8).values
    for kern, values in ((rw_barker, None), (rw_barker, skewed), (banded, None)):
        got = kern.ratio_matrix(values)
        mu = kern.target.values if values is None else values
        want = oracles.ratio_matrix_where(kern.q_matrix, mu)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    assert np.any(banded.q_matrix == 0.0)  # the band has never-proposed pairs


def test_apply_hastings_symmetry_zero(grid, std_normal):
    prop = ProposalKernel.random_walk(0.5, grid)
    kern = HastingsKernel(std_normal, prop, BalancingFunction.barker())
    val = apply_hastings(kern, 0.0, grid.nodes)
    assert abs(val) < 1e-8


def test_negative_rejection_mass_detected(grid, std_normal):
    base = ProposalKernel.random_walk(1.0, grid)
    inflated = ProposalKernel(
        lambda x, y: 1.2 * base.density(x, y), tag="inflated", bounded=True
    )
    kern = HastingsKernel(std_normal, inflated, BalancingFunction.min_one(), validate=False)
    with pytest.raises(InternalConsistencyError):
        kern.rejection_vector


def test_apply_to_density_at_stationarity(rw_barker, grid, std_normal):
    f = np.cos(0.7 * grid.nodes) + 0.2 * grid.nodes
    lhs = apply_hastings_to_density(rw_barker, std_normal, f)
    rhs = integrate(f, std_normal)
    assert abs(lhs - rhs) < 2e-6


def test_apply_to_density_spike_approaches_point(rw_barker, grid):
    f = np.tanh(grid.nodes) + 0.1 * np.cos(2.0 * grid.nodes)
    x0 = grid.nodes[560]  # 0.75, off-center so nothing cancels by symmetry
    point = apply_hastings(rw_barker, x0, f)
    errs = []
    for halfwidth_cells in (16, 8, 4):
        hw = halfwidth_cells * grid.h
        tri = np.maximum(0.0, 1.0 - np.abs(grid.nodes - x0) / hw)
        rho = GridDensity(grid, tri)
        errs.append(abs(apply_hastings_to_density(rw_barker, rho, f) - point))
    assert errs[2] <= errs[0]
    assert errs[2] < 5e-4


def test_stochasticity_and_monotonicity(rw_barker, grid):
    ones = np.ones(grid.n_points)
    assert np.max(np.abs(rw_barker.apply_to_function(ones) - 1.0)) < 1e-9
    rng = np.random.default_rng(3)
    f = rng.normal(size=grid.n_points)
    g = f + np.abs(rng.normal(size=grid.n_points))
    assert np.all(rw_barker.apply_to_function(g) - rw_barker.apply_to_function(f) >= -1e-12)


def test_iterate_kernel_conventions(rw_barker, grid):
    f = np.sin(grid.nodes)
    assert np.array_equal(iterate_kernel(rw_barker, f, 0), f)
    one = iterate_kernel(rw_barker, f, 1)
    assert np.allclose(one, rw_barker.apply_to_function(f), atol=0)
    two = iterate_kernel(rw_barker, f, 2)
    assert np.allclose(two, rw_barker.apply_to_function(one), atol=0)
    with pytest.raises(ResourceLimitError):
        iterate_kernel(rw_barker, f, 50, max_steps=10)
    with pytest.raises(InvalidInputError):
        iterate_kernel(rw_barker, f, -1)


def test_point_propagation_keeps_unit_mass(rw_barker):
    m = iterate_point(rw_barker, 0.5, 3)
    assert m.mass == pytest.approx(1.0, abs=1e-9)
    assert 0.0 < m.atom < 1.0
    # three-step point expectation agrees with iterating the function instead
    f = np.cos(rw_barker.grid.nodes)
    fwd = iterate_kernel(rw_barker, f, 3)
    assert m.expect(f) == pytest.approx(float(np.interp(0.5, rw_barker.grid.nodes, fwd)), abs=1e-9)


def test_invariance_residual_small_and_detects_wrong_target(grid):
    fine = Grid1D(-8.0, 8.0, 2048 + 1)
    mu = gaussian_density(fine, 0.0, 1.0)
    nu = gaussian_density(fine, 0.8, 1.25)
    prop = ProposalKernel.random_walk(1.0, fine)
    kern = HastingsKernel(mu, prop, BalancingFunction.min_one())
    assert check_invariance(kern) <= 5e-6
    assert check_invariance(kern, nu) > 0.01


def test_sample_step_frozen_balancing_never_moves(grid, std_normal):
    frozen = BalancingFunction.custom(
        lambda t: np.zeros_like(np.asarray(t, float)), tag="frozen"
    )
    prop = ProposalKernel.random_walk(1.0, grid)
    kern = HastingsKernel(std_normal, prop, frozen)
    run = run_limiting_chain(kern, 0.3, 50, np.random.default_rng(0))
    assert np.all(run.states == 0.3) and run.acceptance_rate == 0.0


def test_sample_step_detail_refuses_accept_reject_kernels(rw_barker):
    with pytest.raises(InvalidInputError, match="run_limiting_chain"):
        sample_step_detail(rw_barker, 0.0, np.random.default_rng(0))


def test_empirical_acceptance_matches_quadrature(rw_barker):
    n = 100_000
    run = run_limiting_chain(rw_barker, 0.0, n, np.random.default_rng(42))
    expected = acceptance_rate_quadrature(rw_barker)
    se = math.sqrt(expected * (1 - expected) / n)
    assert abs(run.acceptance_rate - expected) <= 3 * se


# ---------------------------------------------------------------- two-stage

@pytest.fixture(scope="module")
def grid2():
    ax = Grid1D(-6.0, 6.0, 129)
    return Grid2D(ax, ax)


@pytest.fixture(scope="module")
def corr_gauss(grid2):
    return gaussian2d_density(grid2, [0.0, 0.0], np.array([[1.0, 0.4], [0.4, 1.0]]))


def test_gibbs_ignores_first_coordinate(grid2, corr_gauss):
    kern = GibbsKernel(corr_gauss)
    x1g, x2g = grid2.mesh()
    f = np.sin(x1g) * np.cos(0.5 * x2g)
    a = apply_gibbs(kern, (-3.0, 0.7), f)
    b = apply_gibbs(kern, (2.5, 0.7), f)
    assert a == b


def test_gibbs_product_target_reduces_to_independent_integral(grid2):
    mu1 = np.exp(-0.5 * (grid2.axis1.nodes - 0.3) ** 2)
    mu2 = np.exp(-0.5 * ((grid2.axis2.nodes + 0.2) / 1.2) ** 2)
    joint = GridDensity(grid2, np.outer(mu1, mu2), positive=True)
    kern = GibbsKernel(joint)
    x1g, x2g = grid2.mesh()
    f = np.tanh(x1g) + x2g**2
    got = apply_gibbs(kern, (0.0, -1.3), f)
    w1 = grid2.axis1.trapezoid_weights()
    w2 = grid2.axis2.trapezoid_weights()
    p1 = joint.values @ w2
    p2 = w1 @ joint.values
    expected = float((w1 * p1) @ f @ (w2 * p2) / ((w1 @ p1) * (w2 @ p2)))
    assert got == pytest.approx(expected, abs=1e-12)


def test_gibbs_correlated_gaussian_vs_independent_oracle(grid2, corr_gauss):
    kern = GibbsKernel(corr_gauss)
    x1g, x2g = grid2.mesh()
    x2 = 0.75

    got_mean = apply_gibbs(kern, (0.0, x2), x1g)
    ora_mean = oracles.gibbs_step_expectation(x2, lambda y1, y2: y1 + 0.0 * y2, n=513)
    assert abs(got_mean - ora_mean) < 5e-6

    got_mix = apply_gibbs(kern, (0.0, x2), x1g * x2g)
    ora_mix = oracles.gibbs_step_expectation(x2, lambda y1, y2: y1 * y2, n=513)
    assert abs(got_mix - ora_mix) < 5e-6


def test_gibbs_invariance(grid2, corr_gauss):
    kern = GibbsKernel(corr_gauss)
    assert check_invariance(kern) <= 1e-8
    mu1 = np.exp(-0.5 * grid2.axis1.nodes**2)
    product = GridDensity(grid2, np.outer(mu1, mu1), positive=True)
    assert check_invariance(GibbsKernel(product)) <= 1e-8
    assert check_invariance(kern, product) > 0.01


def test_gibbs_density_propagation_matches_apply(grid2, corr_gauss):
    kern = GibbsKernel(corr_gauss)
    rho = gaussian2d_density(grid2, [0.4, -0.2], np.array([[0.5, 0.0], [0.0, 0.7]]))
    x1g, x2g = grid2.mesh()
    f = np.cos(x1g - 0.3 * x2g)
    via_function = apply_gibbs_to_density(kern, rho, f)
    pushed = kern.propagate_density(rho.values)
    via_measure = integrate_values(grid2, pushed * f)
    assert via_function == pytest.approx(via_measure, abs=1e-10)


def test_gibbs_sampler_conditional_means(grid2, corr_gauss):
    kern = GibbsKernel(corr_gauss)
    rng = np.random.default_rng(31)
    x = (0.0, 1.5)
    firsts = []
    for _ in range(4000):
        (y1, y2), _, _ = sample_step_detail(kern, x, rng)
        firsts.append(y1)
    firsts = np.array(firsts)
    # E[y1 | x2 = 1.5] = 0.4 * 1.5 = 0.6 for the correlated Gaussian
    assert abs(firsts.mean() - 0.6) < 3 * firsts.std() / math.sqrt(len(firsts))
