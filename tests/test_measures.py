import numpy as np
import pytest

from mcmccalc.errors import InvalidInputError, RangeError
from mcmccalc.measures import (
    ContaminationCurve,
    Grid1D,
    Grid2D,
    GridDensity,
    SignedGridFunction,
    WeightFunction,
    curve_at,
    gaussian2d_density,
    gaussian_density,
    integrate_values,
    simpson_weights,
    v_norm_function,
    v_norm_measure,
)

import oracles


def test_grid_validation():
    with pytest.raises(InvalidInputError):
        Grid1D(1.0, -1.0, 11)
    with pytest.raises(InvalidInputError):
        Grid1D(0.0, 1.0, 2)
    with pytest.raises(InvalidInputError):
        Grid1D(float("nan"), 1.0, 11)
    g = Grid1D(-2.0, 2.0, 5)
    assert g.h == pytest.approx(1.0)
    assert np.allclose(g.nodes, [-2, -1, 0, 1, 2])


def test_trapezoid_weights_integrate_linear_exactly():
    g = Grid1D(0.0, 3.0, 7)
    w = g.trapezoid_weights()
    assert np.sum(w) == pytest.approx(3.0, abs=1e-14)
    # trapezoid is exact on affine functions
    assert np.sum(w * (2.0 * g.nodes + 1.0)) == pytest.approx(12.0, abs=1e-12)


def test_trapezoid_weights_are_shared_and_read_only():
    g = Grid1D(0.0, 3.0, 7)
    w = g.trapezoid_weights()
    assert w is g.trapezoid_weights()
    with pytest.raises(ValueError):
        w[0] = 1.0
    with pytest.raises(ValueError):
        w *= 2.0
    assert w.tobytes() == np.array([0.25, 0.5, 0.5, 0.5, 0.5, 0.5, 0.25]).tobytes()


def test_density_mass_and_validation():
    g = Grid1D(-8.0, 8.0, 1025)
    mu = gaussian_density(g, 0.0, 1.0)
    assert abs(mu.mass - 1.0) <= 1e-10
    with pytest.raises(InvalidInputError):
        GridDensity(g, -np.ones(g.n_points))
    bad = np.ones(g.n_points)
    bad[3] = np.nan
    with pytest.raises(InvalidInputError):
        GridDensity(g, bad)
    # non-normalized constructor enforces unit mass
    with pytest.raises(InvalidInputError):
        GridDensity(g, np.ones(g.n_points), normalize=False)


def test_density_positivity_floor():
    g = Grid1D(-8.0, 8.0, 513)
    mu = gaussian_density(g, 0.0, 0.3, positive=True)
    assert mu.values.min() > 0.0


def test_signed_difference_has_zero_mass():
    g = Grid1D(-8.0, 8.0, 801)
    mu = gaussian_density(g, 0.0, 1.0)
    nu = gaussian_density(g, 0.5, 1.2)
    chi = SignedGridFunction.difference(nu, mu)
    assert abs(chi.mass) <= 1e-10


def test_v_norm_function_examples():
    g = Grid1D(-5.0, 5.0, 501)
    V = WeightFunction.one_plus_square().values_on(g)
    # f == V has norm exactly 1
    assert v_norm_function(V, V) == pytest.approx(1.0, abs=1e-14)
    # identity against V == 1 peaks at the boundary
    ones = np.ones(g.n_points)
    assert v_norm_function(g.nodes, ones) == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(InvalidInputError):
        v_norm_function(np.array([1.0, np.inf]), np.array([1.0, 1.0]))


def test_v_norm_measure_disjoint_masses():
    g = Grid1D(0.0, 10.0, 2001)
    left = np.where(g.nodes < 4.0, 1.0, 0.0)
    right = np.where(g.nodes > 6.0, 1.0, 0.0)
    mu = GridDensity(g, left)
    nu = GridDensity(g, right)
    chi = SignedGridFunction.difference(nu, mu)
    ones = np.ones(g.n_points)
    assert v_norm_measure(chi, ones) == pytest.approx(2.0, abs=1e-12)


def test_v_norm_measure_grid_mismatch():
    g1 = Grid1D(-8.0, 8.0, 101)
    g2 = Grid1D(-8.0, 8.0, 201)
    mu = gaussian_density(g1, 0.0, 1.0)
    nu = gaussian_density(g2, 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        SignedGridFunction.difference(nu, mu)


def test_v_norm_measure_two_gaussians_vs_dense_oracle():
    g = Grid1D(-8.0, 9.0, 6801)
    mu = gaussian_density(g, 0.0, 1.0)
    nu = gaussian_density(g, 1.0, 1.0)
    chi = SignedGridFunction.difference(nu, mu)
    got = v_norm_measure(chi, np.ones(g.n_points))
    assert abs(got - oracles.FROZEN["tv_gauss_0_1_vs_1_1"]) < 1e-6
    # and the frozen value matches a fresh run of the oracle
    assert oracles.dense_tv_two_gaussians() == pytest.approx(
        oracles.FROZEN["tv_gauss_0_1_vs_1_1"], abs=1e-15
    )


def test_v_norm_measure_equals_abs_integral_exactly():
    rng = np.random.default_rng(7)
    g = Grid1D(-3.0, 3.0, 301)
    vals = rng.normal(size=g.n_points)
    chi = SignedGridFunction(g, vals)
    assert v_norm_measure(chi, np.ones(g.n_points)) == integrate_values(g, np.abs(vals))


def test_v_norm_measure_triangle_inequality():
    rng = np.random.default_rng(11)
    g = Grid1D(-4.0, 4.0, 257)
    V = WeightFunction.one_plus_square().values_on(g)
    for _ in range(25):
        a = SignedGridFunction(g, rng.normal(size=g.n_points))
        b = SignedGridFunction(g, rng.normal(size=g.n_points))
        ab = SignedGridFunction(g, a.values + b.values)
        assert v_norm_measure(ab, V) <= v_norm_measure(a, V) + v_norm_measure(b, V) + 1e-12


def test_curve_at_contract():
    g = Grid1D(-8.0, 8.0, 513)
    mu = gaussian_density(g, 0.0, 1.0)
    nu = gaussian_density(g, 1.0, 1.3)
    curve = ContaminationCurve(mu, nu)
    with pytest.raises(RangeError):
        curve_at(curve, -0.01)
    with pytest.raises(RangeError):
        curve_at(curve, 1.5)
    assert curve_at(curve, 0.0) is mu
    assert curve_at(curve, 1.0) is nu
    mid = curve_at(curve, 0.37)
    assert abs(mid.mass - 1.0) <= 1e-12
    # nodal linearity is exact
    assert np.array_equal(mid.values, (1 - 0.37) * mu.values + 0.37 * nu.values)


def test_curve_linearity_against_three_point_combination():
    g = Grid1D(-6.0, 6.0, 257)
    mu = gaussian_density(g, -0.5, 0.9)
    nu = gaussian_density(g, 0.8, 1.1)
    curve = ContaminationCurve(mu, nu)
    a = curve_at(curve, 0.25).values
    b = curve_at(curve, 0.75).values
    mid = curve_at(curve, 0.5).values
    assert np.allclose(0.5 * (a + b), mid, rtol=0, atol=1e-16)


def test_integrate_contract():
    g = Grid1D(-8.0, 8.0, 2049)
    mu = gaussian_density(g, 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        mu.expect(np.full(g.n_points, np.nan))
    assert mu.expect(np.full(g.n_points, 3.25)) == pytest.approx(3.25, abs=1e-10)
    second = mu.expect(g.nodes**2)
    assert abs(second - 1.0) <= 1e-4
    assert abs(second - oracles.FROZEN["second_moment_trunc8"]) < 1e-6


EXPECT_GRIDS = {
    "1d": Grid1D(-6.0, 6.0, 65),
    "2d": Grid2D(Grid1D(-6.0, 6.0, 33), Grid1D(-5.0, 5.0, 41)),
}


@pytest.mark.parametrize("dim", sorted(EXPECT_GRIDS))
def test_expect_takes_a_callable_at_the_nodes(dim):
    g = EXPECT_GRIDS[dim]
    if dim == "1d":
        rho, fn, at_nodes = gaussian_density(g, 0.2, 0.8), np.cos, np.cos(g.nodes)
    else:
        x1, x2 = g.mesh()
        rho = gaussian2d_density(g, [0.1, 0.0], np.array([[0.6, 0.0], [0.0, 0.7]]))
        fn, at_nodes = (lambda a, b: np.cos(a) * np.tanh(b)), np.cos(x1) * np.tanh(x2)
    assert rho.expect(fn) == rho.expect(at_nodes)


def test_weight_functions():
    g = Grid1D(-8.0, 8.0, 101)
    for w in (WeightFunction.const(), WeightFunction.one_plus_square(), WeightFunction.exp_abs(0.5)):
        vals = w.values_on(g)
        assert vals.min() >= 1.0
    v = WeightFunction.exp_abs(2.0)
    assert v.values_on(g).max() == pytest.approx(np.exp(16.0))
    sqrtv = v.power(0.5)
    assert np.allclose(sqrtv.values_on(g), np.exp(np.abs(g.nodes)))
    with pytest.raises(InvalidInputError):
        WeightFunction(lambda x: 0.5 * np.ones_like(x), "bad").values_on(g)


def test_simpson_weights():
    with pytest.raises(InvalidInputError):
        simpson_weights(4)
    w = simpson_weights(33)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-14)
    t = np.linspace(0, 1, 33)
    # Simpson is exact on cubics
    assert np.sum(w * t**3) == pytest.approx(0.25, abs=1e-14)


def test_density_interpolation_matches_nodes():
    g = Grid1D(-8.0, 8.0, 257)
    mu = gaussian_density(g, 0.0, 1.0)
    assert mu.at(g.nodes[17]) == pytest.approx(mu.values[17], rel=1e-15)
    # between nodes: linear interpolation
    x = 0.5 * (g.nodes[10] + g.nodes[11])
    assert mu.at(x) == pytest.approx(0.5 * (mu.values[10] + mu.values[11]), rel=1e-14)


def test_point_evaluation_refuses_a_2d_density():
    g = Grid2D(Grid1D(-6.0, 6.0, 33), Grid1D(-6.0, 6.0, 41))
    mu = gaussian2d_density(g, [0.0, 0.0], np.array([[1.0, 0.4], [0.4, 1.0]]))
    with pytest.raises(InvalidInputError, match="1-D grid"):
        mu.at((0.5, -0.5))


def test_gaussian2d_density_marginal():
    g = Grid2D(Grid1D(-6.0, 6.0, 97), Grid1D(-6.0, 6.0, 97))
    mu = gaussian2d_density(g, [0.0, 0.0], np.array([[1.0, 0.4], [0.4, 1.0]]))
    assert abs(mu.mass - 1.0) <= 1e-10
    w2 = g.axis2.trapezoid_weights()
    marg1 = mu.values @ w2
    ref = np.exp(-0.5 * g.axis1.nodes**2)
    ref = ref / integrate_values(g.axis1, ref)
    assert np.max(np.abs(marg1 - ref)) < 1e-6
