import numpy as np
import pytest

import oracles
from mcmccalc.errors import (
    DegenerateWeightsError,
    InvalidInputError,
    RangeError,
)
from mcmccalc.ergodicity import (
    asymptotic_variance,
    check_log_concave_tails,
    poisson_resolvent,
)
from mcmccalc.feynman_kac import (
    DEFAULT_OBSERVATION_COUNT,
    DEFAULT_OBSERVATION_SEED,
    EmpiricalMeasure,
    FeynmanKacModel,
    MUTATION_CHUNK,
    MutationKernel,
    SSM_NOISE_STD,
    SsmBootstrapModel,
    boltzmann_gibbs,
    bounded_map,
    default_ssm_model,
    fk_decomposition_check,
    gaussian_mutation,
    load_default_observations,
    q_bar_chain,
    q_bar_operator,
    simulate_ssm_observations,
    smcmc_variance_recursion,
)
from mcmccalc.kernels import BalancingFunction, HastingsFamily, ProposalKernel
from mcmccalc.measures import Grid1D, GridDensity, gaussian_density


@pytest.fixture(scope="module")
def grid():
    return Grid1D(-8.0, 8.0, 513)


@pytest.fixture(scope="module")
def model(grid):
    return default_ssm_model(grid)


@pytest.fixture(scope="module")
def f_vals(grid):
    return np.cos(0.8 * grid.nodes) + 0.3 * np.tanh(grid.nodes)


@pytest.fixture(scope="module")
def eta_base(grid):
    return gaussian_density(grid, 0.3, 1.1)


@pytest.fixture(scope="module")
def emp100():
    rng = np.random.default_rng(42)
    return EmpiricalMeasure(rng.normal(0.0, np.sqrt(0.5), size=100))


@pytest.fixture(scope="module")
def quad_variance(grid, model):
    """Deterministic stand-in variance functionals: plain quadrature variance
    of the grid function under the reference flow at one level."""
    w = grid.trapezoid_weights()

    def at_level(level):
        eta = model.flow(level)

        def fn(g):
            m = float(np.sum(w * eta.values * g))
            return float(np.sum(w * eta.values * (g - m) ** 2))

        return fn

    return at_level


# ---------------------------------------------------------------------------
# mutation kernels and bounded maps
# ---------------------------------------------------------------------------

def test_mutation_rows_are_normalised(grid):
    move = gaussian_mutation(np.tanh, SSM_NOISE_STD)
    rows = move.rows(grid, np.array([-3.0, 0.0, 1.7]))
    masses = rows @ grid.trapezoid_weights()
    assert rows.shape == (3, grid.n_points)
    assert np.max(np.abs(masses - 1.0)) < 1e-14


def test_mutation_rows_evaluate_each_run_of_repeats_once(grid, model):
    move = model.mutation(1)
    evaluated = []

    def counting(x, y):
        evaluated.append(x.shape[0])
        return move.density(x, y)

    counted = MutationKernel(counting, move.tag)
    rng = np.random.default_rng(4)
    # runs of equal consecutive points, as a rejecting chain stores them; one
    # run straddles the chunk boundary of the empirical transform
    points = rng.normal(0.0, 1.5, size=900)
    lengths = rng.integers(1, 9, size=900)
    xs = np.repeat(points, lengths)
    starts = np.cumsum(lengths) - lengths
    cut = int(np.searchsorted(starts, MUTATION_CHUNK, side="right")) - 1
    assert starts[cut] < MUTATION_CHUNK < starts[cut] + lengths[cut]
    xs = xs[:MUTATION_CHUNK + 500]
    w = grid.trapezoid_weights()
    for sl in (slice(0, 7), slice(0, MUTATION_CHUNK), slice(MUTATION_CHUNK, None)):
        evaluated.clear()
        rows = counted.rows(grid, xs[sl])
        expected = oracles.mutation_rows_every_point(move.density, grid.nodes, w, xs[sl])
        assert rows.tobytes() == expected.tobytes()
        assert evaluated == [1 + int(np.count_nonzero(np.diff(xs[sl])))]
    # the empirical transform, chunk by chunk, against rows at every point
    g_at = model.potential_at(1, xs)
    acc = np.zeros(grid.n_points)
    for start in range(0, xs.size, MUTATION_CHUNK):
        sl = slice(start, start + MUTATION_CHUNK)
        acc += g_at[sl] @ oracles.mutation_rows_every_point(
            move.density, grid.nodes, w, xs[sl])
    expected = GridDensity(grid, acc / float(g_at.sum()), normalize=True, positive=True)
    assert np.array_equal(model.transform(1, EmpiricalMeasure(xs)).values,
                          expected.values)
    # distinct points keep the one-call path
    evaluated.clear()
    counted.rows(grid, points[:50])
    assert evaluated == [50]


@pytest.mark.parametrize("xs", [[0.4], [-1.0, 0.4, 2.0], [0.4, 0.4, 0.4, 2.0]],
                         ids=["one point", "distinct", "repeats"])
def test_mutation_rows_leave_the_density_array_untouched(grid, xs):
    returned = []

    def density(x, y):
        out = np.exp(-0.5 * (y - x) ** 2)
        returned.append((out, out.copy()))
        return out

    rows = MutationKernel(density).rows(grid, np.array(xs))
    assert rows.shape == (len(xs), grid.n_points)
    [(out, before)] = returned
    assert rows is not out and out.tobytes() == before.tobytes()


def test_mutation_rejects_bad_densities(grid):
    with pytest.raises(InvalidInputError):
        MutationKernel(lambda x, y: y - x).rows(grid, np.array([0.0]))  # negatives
    with pytest.raises(InvalidInputError):
        MutationKernel(lambda x, y: np.zeros_like(y - x)).rows(grid, np.array([0.0]))
    with pytest.raises(InvalidInputError):
        MutationKernel(lambda x, y: np.ones(7)).rows(grid, np.array([0.0]))
    with pytest.raises(InvalidInputError):
        gaussian_mutation(np.tanh, 0.0)
    with pytest.raises(InvalidInputError):
        gaussian_mutation(3.0, 1.0)


@pytest.mark.parametrize("x, y", [
    (np.linspace(-9.0, 9.0, 37)[:, None], np.linspace(-8.0, 8.0, 513)[None, :]),
    (np.array([0.3, 7.9]), np.array([1.0, -2.5])),
    (0.3, np.linspace(-8.0, 8.0, 9)),
    (0.3, 1.7),
    (np.float64(-4.0), np.array(2.5)),
])
def test_gaussian_density_has_the_bits_of_its_formula(x, y):
    std = SSM_NOISE_STD
    got = gaussian_mutation(np.tanh, std).density(x, y)
    z = (y - np.tanh(x)) / std
    want = 1.0 / (std * np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * z * z)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
def test_per_step_checks_reject_nonfinite_and_negative_values(grid, eta_base, bad):
    # clean on the grid nodes, ``bad`` only from far outside the window
    move = MutationKernel(lambda x, y: np.where(x > 100.0, bad, 1.0) + 0.0 * y)
    model = FeynmanKacModel(grid, [lambda y: np.where(y > 100.0, bad, 1.0)], [move],
                            eta_base)
    xs = np.array([0.0, 200.0])
    with pytest.raises(InvalidInputError, match="mutation density must be finite"):
        move.rows(grid, xs)
    with pytest.raises(InvalidInputError, match="potential values must be finite"):
        model.potential_at(1, xs)
    assert move.rows(grid, xs[:1]).shape == (1, grid.n_points)
    assert move.rows(grid, xs[:0]).shape == (0, grid.n_points)
    assert model.potential_at(1, xs[:0]).shape == (0,)


def test_bounded_map_registry():
    for tag in ("tanh", "arctan"):
        phi = bounded_map(tag, 0.7)
        xs = np.linspace(-40.0, 40.0, 101)
        vals = phi(xs)
        assert np.all(np.abs(vals) <= 0.7 + 1e-15)
        assert np.max(np.abs(vals + phi(-xs))) < 1e-15  # odd
    assert bounded_map("tanh", 2.0)(np.array([30.0])) == pytest.approx(2.0)
    with pytest.raises(InvalidInputError):
        bounded_map("logistic", 1.0)
    with pytest.raises(InvalidInputError):
        bounded_map("tanh", -1.0)


def test_empirical_measure_basics():
    emp = EmpiricalMeasure(np.array([1.0, 2.0, 4.0]))
    assert emp.n_samples == 3
    assert emp.expect(lambda x: x) == pytest.approx(7.0 / 3.0)
    with pytest.raises(InvalidInputError):
        EmpiricalMeasure(np.array([]))
    with pytest.raises(InvalidInputError):
        EmpiricalMeasure(np.array([1.0, np.nan]))
    with pytest.raises(InvalidInputError):
        EmpiricalMeasure(np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        emp.expect(np.ones(3))


# ---------------------------------------------------------------------------
# the reweight/mutate transform
# ---------------------------------------------------------------------------

def test_flat_potential_is_pure_mutation(grid, eta_base):
    move = gaussian_mutation(np.tanh, SSM_NOISE_STD)
    out = boltzmann_gibbs(eta_base, lambda y: np.ones_like(y), move)
    mat = move.rows(grid, grid.nodes)
    w = grid.trapezoid_weights()
    direct = (w * eta_base.values) @ mat
    direct = direct / np.sum(w * direct)
    assert np.max(np.abs(out.values - direct)) < 1e-14
    assert out.mass == pytest.approx(1.0, abs=1e-12)


def test_transform_ignores_potential_scale(model, eta_base):
    move = model.mutations[0]
    g = model.potentials[0]
    out_a = boltzmann_gibbs(eta_base, g, move)
    out_b = boltzmann_gibbs(eta_base, lambda y: 7.3 * g(y), move)
    assert np.max(np.abs(out_a.values - out_b.values)) < 1e-14


def test_discrete_bayes_masses(grid):
    # two atoms at 0 and 1, potential 1 vs 3, near-identity move: the updated
    # law must put (1/4, 3/4) on the two bumps
    narrow = gaussian_mutation(lambda x: x, 0.05, tag="near-identity")
    emp = EmpiricalMeasure(np.array([0.0, 1.0]))
    post = boltzmann_gibbs(
        emp, lambda y: np.where(np.abs(y) < 0.5, 1.0, 3.0), narrow, grid=grid)
    w = grid.trapezoid_weights()
    left = grid.nodes < 0.5
    assert float(np.sum((w * post.values)[left])) == pytest.approx(0.25, abs=1e-12)
    assert float(np.sum((w * post.values)[~left])) == pytest.approx(0.75, abs=1e-12)
    ref = oracles.discrete_bayes_update([0.5, 0.5], [1.0, 3.0], np.eye(2))
    assert ref == pytest.approx([0.25, 0.75], abs=1e-15)


def test_ssm_update_matches_closed_form_mixture(grid, model, emp100):
    out = model.transform(1, emp100)
    ref = oracles.ssm_mixture_closed_form(
        grid.nodes, float(model.observations[0]), emp100.samples)
    assert np.max(np.abs(out.values - ref)) < 1e-12
    peak = float(np.max(ref))
    assert peak == pytest.approx(oracles.FROZEN["ssm_mixture_peak_seed42"], abs=1e-12)
    assert float(np.max(out.values)) == pytest.approx(peak, abs=1e-12)


def test_ssm_update_matches_direct_loop(grid, model, emp100):
    out = model.transform(1, emp100)
    probe = grid.nodes[::8]
    s1 = float(model.observations[0])
    ref = oracles.mixture_reweight_move(
        emp100.samples,
        lambda y: np.exp(-((s1 - y) ** 2)),
        lambda y, x: np.exp(-((x - np.tanh(y)) ** 2)) / np.sqrt(np.pi),
        probe,
    )
    assert np.max(np.abs(out.values[::8] - ref)) < 1e-10


def test_transform_error_paths(grid, model, eta_base, emp100):
    move = model.mutations[0]
    with pytest.raises(DegenerateWeightsError):
        boltzmann_gibbs(eta_base, lambda y: np.zeros_like(y), move)
    far = EmpiricalMeasure(np.array([500.0, 600.0]))
    with pytest.raises(DegenerateWeightsError):
        boltzmann_gibbs(far, model.potentials[0], move, grid=grid)
    with pytest.raises(InvalidInputError):
        boltzmann_gibbs(emp100, model.potentials[0], move)  # no grid given
    with pytest.raises(InvalidInputError):
        boltzmann_gibbs(emp100, np.ones(513), move, grid=grid)  # not callable
    with pytest.raises(InvalidInputError):
        boltzmann_gibbs([0.0, 1.0], model.potentials[0], move, grid=grid)
    other = Grid1D(-4.0, 4.0, 129)
    with pytest.raises(InvalidInputError):
        boltzmann_gibbs(eta_base, model.potentials[0], move, grid=other)


# ---------------------------------------------------------------------------
# models and reference flows
# ---------------------------------------------------------------------------

def test_model_construction_guards(grid, eta_base):
    move = gaussian_mutation(np.tanh, SSM_NOISE_STD)
    with pytest.raises(InvalidInputError):
        FeynmanKacModel(grid, [lambda y: -np.ones_like(y)], [move], eta_base)
    with pytest.raises(InvalidInputError):
        FeynmanKacModel(grid, [lambda y: np.ones_like(y)], [], eta_base)
    with pytest.raises(InvalidInputError):
        FeynmanKacModel(grid, [lambda y: np.ones_like(y)], [np.eye(3)], eta_base)
    other = gaussian_density(Grid1D(-4.0, 4.0, 129), 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        FeynmanKacModel(grid, [lambda y: np.ones_like(y)], [move], other)


def test_bootstrap_model_guards(grid):
    with pytest.raises(InvalidInputError):
        SsmBootstrapModel(grid, [])
    with pytest.raises(InvalidInputError):
        SsmBootstrapModel(grid, [0.5], phi=lambda x: 1.5 * np.tanh(x), phi_bar=1.0)
    with pytest.raises(InvalidInputError):
        SsmBootstrapModel(grid, [0.5], phi_bar=0.0)
    assert "bootstrap" in SsmBootstrapModel(grid, [0.5]).describe()


def test_reference_flow_iteration(grid, model):
    assert model.n_levels == DEFAULT_OBSERVATION_COUNT
    assert model.flow(1) is model.eta1
    fl2, fl3 = model.flow(2), model.flow(3)
    assert fl2.mass == pytest.approx(1.0, abs=1e-12)
    assert fl2.expect(grid.nodes) == pytest.approx(0.388356797458439, rel=1e-9)
    assert fl3.expect(grid.nodes) == pytest.approx(0.3699213381534758, rel=1e-9)
    assert model.flow(model.n_levels + 1).mass == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(RangeError):
        model.flow(model.n_levels + 2)
    with pytest.raises(InvalidInputError):
        model.flow(1.5)
    assert model.flow_potential_mass(1) == pytest.approx(0.4350296951362776, rel=1e-10)


def test_mutation_matrix_shared_across_levels(model):
    # the bootstrap model reuses one mutation object, so the cached matrices
    # must be the same array, not eight copies
    assert model.mutation_matrix(1) is model.mutation_matrix(5)


def test_shipped_observations_regenerate():
    obs = load_default_observations()
    again = simulate_ssm_observations(
        bounded_map("tanh", 1.0), DEFAULT_OBSERVATION_COUNT, DEFAULT_OBSERVATION_SEED)
    assert np.array_equal(obs, again)
    with pytest.raises(InvalidInputError):
        simulate_ssm_observations(np.tanh, 0, 1)


# ---------------------------------------------------------------------------
# lookahead operators
# ---------------------------------------------------------------------------

def test_lookahead_is_one_for_flat_inputs(grid, eta_base):
    move = gaussian_mutation(np.tanh, SSM_NOISE_STD)
    flat = FeynmanKacModel(grid, [lambda y: np.ones_like(y)], [move], eta_base)
    out = q_bar_operator(flat, 1, np.ones(grid.n_points))
    assert np.max(np.abs(out - 1.0)) < 1e-13


def test_lookahead_chain_conventions(model, f_vals):
    assert np.array_equal(q_bar_chain(model, 2, 2, f_vals), f_vals)  # identity
    assert np.array_equal(q_bar_chain(model, 0, 1, f_vals),
                          q_bar_operator(model, 1, f_vals))
    g2 = np.sin(0.5 * model.grid.nodes)
    lhs = q_bar_operator(model, 1, 2.0 * f_vals - 3.0 * g2)
    rhs = 2.0 * q_bar_operator(model, 1, f_vals) - 3.0 * q_bar_operator(model, 1, g2)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_lookahead_validation(model, f_vals):
    with pytest.raises(RangeError):
        q_bar_operator(model, model.n_levels + 1, f_vals)
    with pytest.raises(RangeError):
        q_bar_chain(model, 3, 2, f_vals)
    with pytest.raises(RangeError):
        q_bar_chain(model, -1, 2, f_vals)
    with pytest.raises(InvalidInputError):
        q_bar_operator(model, 1, f_vals[:-1])
    with pytest.raises(InvalidInputError):
        q_bar_operator(model, 1, np.full_like(f_vals, np.inf))
    with pytest.raises(InvalidInputError):
        q_bar_chain(model, 0.5, 2, f_vals)


# ---------------------------------------------------------------------------
# the first-order decomposition
# ---------------------------------------------------------------------------

def test_decomposition_vanishes_on_the_flow(model, f_vals):
    res = fk_decomposition_check(model, model.flow(1), f_vals)
    assert res["lhs"] == 0.0
    assert res["rhs"] == 0.0
    assert res["residual"] == 0.0


def test_decomposition_vanishes_for_constants(model, emp100, grid):
    res = fk_decomposition_check(model, emp100, np.full(grid.n_points, 2.5))
    assert res["lhs"] == 0.0
    assert res["residual"] == 0.0


def test_decomposition_closes_for_empirical_input(model, f_vals):
    rng = np.random.default_rng(7)
    emp = EmpiricalMeasure(rng.normal(0.4, 1.0, size=500))
    res = fk_decomposition_check(model, emp, f_vals)
    # the identity is algebraic: the two sides agree to rounding even though
    # each side is visibly nonzero
    assert abs(res["lhs"]) > 1e-3
    assert res["lhs"] == pytest.approx(-0.002909738277929952, rel=1e-9)
    assert res["residual"] < 1e-12


def test_decomposition_closes_for_grid_input(model, f_vals, grid):
    off = gaussian_density(grid, 1.0, 0.8)
    res = fk_decomposition_check(model, off, f_vals)
    direct = (model.transform(1, off).expect(f_vals)
              - model.flow(2).expect(f_vals))
    assert res["lhs"] == pytest.approx(direct, abs=1e-15)
    assert abs(res["lhs"]) > 1e-3
    assert res["residual"] < 1e-12


def test_decomposition_at_a_later_level(model, f_vals):
    rng = np.random.default_rng(7)
    emp = EmpiricalMeasure(rng.normal(0.4, 1.0, size=500))
    res = fk_decomposition_check(model, emp, f_vals, level=3)
    assert abs(res["lhs"]) > 1e-3
    assert res["residual"] < 1e-12


def test_filter_updates_have_log_concave_tails(model):
    # likelihood-weighted mixtures of Normal(phi(Y), 1/2) bumps with
    # |phi| <= 1 stay log-concave past z = 2 at tilt gamma = 2
    for seed in range(5):
        rng = np.random.default_rng(seed)
        emp = EmpiricalMeasure(rng.normal(0.0, np.sqrt(0.5), size=200))
        rep = check_log_concave_tails([model.transform(1, emp)],
                                      gamma=2.0 * model.phi_bar,
                                      z=2.0 * model.phi_bar)
        assert rep.passed
        assert rep.worst_violation == 0.0


# ---------------------------------------------------------------------------
# the variance recursion
# ---------------------------------------------------------------------------

def test_recursion_depth_one_is_a_single_centered_term(model, f_vals, quad_variance, grid):
    rec = smcmc_variance_recursion(model, 1, f_vals, [quad_variance(1)])
    w = grid.trapezoid_weights()
    center = float(np.sum(w * model.flow(1).values * f_vals))
    assert rec["terms"] == [pytest.approx(quad_variance(1)(f_vals - center), abs=1e-15)]
    assert rec["total"] == pytest.approx(rec["terms"][0])
    assert rec["depth"] == 1


def test_recursion_kills_constants(model, grid, quad_variance):
    rec = smcmc_variance_recursion(
        model, 2, np.full(grid.n_points, 3.3), [quad_variance(1), quad_variance(2)])
    assert rec["total"] < 1e-25


def test_recursion_depth_two_terms(model, f_vals, quad_variance):
    rec = smcmc_variance_recursion(
        model, 2, f_vals, [quad_variance(1), quad_variance(2)])
    assert rec["terms"][0] == pytest.approx(0.0015185698129289086, rel=1e-9)
    assert rec["terms"][1] == pytest.approx(0.06381193756312768, rel=1e-9)
    assert rec["total"] == pytest.approx(sum(rec["terms"]))

    alt = smcmc_variance_recursion(
        model, 2, f_vals, [quad_variance(1), quad_variance(2)],
        centering="per-level")
    # the final-level term is centered the same way under both conventions,
    # the earlier term is not
    assert alt["terms"][1] == pytest.approx(rec["terms"][1], rel=1e-12)
    assert alt["terms"][0] == pytest.approx(0.001645210944715914, rel=1e-9)
    assert abs(alt["terms"][0] - rec["terms"][0]) > 1e-5


def test_recursion_with_resolvent_variance_matches_series_oracle(grid, model, f_vals):
    # wire a real asymptotic-variance functional (Poisson resolvent route)
    # for the level-1 limiting chain and compare the depth-1 prediction with
    # the from-scratch autocovariance series
    fam = HastingsFamily(ProposalKernel.random_walk(1.0, grid),
                         BalancingFunction.barker())
    kern = fam.at(model.flow(1), validate=True)

    def sigma2(g):
        return asymptotic_variance(kern, poisson_resolvent(kern, g))

    rec = smcmc_variance_recursion(model, 1, f_vals, [sigma2])
    ref = oracles.rw_barker_autocov_variance(
        -8.0, 8.0, 513, 0.0, np.sqrt(0.5), 1.0,
        lambda x: np.cos(0.8 * x) + 0.3 * np.tanh(x))
    assert rec["total"] == pytest.approx(ref, rel=1e-8)


def test_recursion_validation(model, f_vals, quad_variance):
    with pytest.raises(InvalidInputError):
        smcmc_variance_recursion(model, 2, f_vals, [quad_variance(1)])
    with pytest.raises(InvalidInputError):
        smcmc_variance_recursion(model, 2, f_vals,
                                 [quad_variance(1), quad_variance(2)],
                                 centering="middle")
    with pytest.raises(InvalidInputError):
        smcmc_variance_recursion(model, 0, f_vals, [quad_variance(1)])
    with pytest.raises(RangeError):
        smcmc_variance_recursion(model, model.n_levels + 2, f_vals,
                                 [quad_variance(1)] * (model.n_levels + 2))
    with pytest.raises(InvalidInputError):
        smcmc_variance_recursion(model, 1, f_vals, [None])
    with pytest.raises(InvalidInputError):
        smcmc_variance_recursion(model, 1, f_vals, [lambda g: -1.0])
