import math

import numpy as np
import pytest

from mcmccalc import ergodicity
from mcmccalc.ergodicity import (
    DriftCertificate,
    a1_level_floor,
    asymptotic_variance,
    check_drift,
    check_log_concave_tails,
    check_minorization,
    check_resolvent_identity,
    check_v_moment_growth,
    estimate_geometric_rate,
    find_drift_parameters,
    level_set_mask,
    poisson_resolvent,
    resolvent_bound_margin,
)
from mcmccalc.errors import (
    InvalidInputError,
    PreconditionError,
    ResourceLimitError,
)
from mcmccalc.kernels import (
    AtomPlusDensity,
    BalancingFunction,
    GibbsKernel,
    HastingsFamily,
    HastingsKernel,
    ProposalKernel,
)
from mcmccalc.measures import (
    Grid1D,
    Grid2D,
    GridDensity,
    WeightFunction,
    gaussian2d_density,
    gaussian_density,
    integrate_values,
)
from mcmccalc.samplers import run_limiting_chain

import oracles


class IidKernel:
    """Independent-refresh chain: every step replaces the state with a fresh
    draw from ``base``, so the one-step law from anywhere is ``base`` itself.
    Closed forms for everything make this the cleanest cross-check: P f is
    the constant base(f), the k-step law equals the target from k = 1 on,
    and the Poisson solution is the centered f.
    """

    def __init__(self, base: GridDensity, target=None):
        self.grid = base.grid
        self.base = base
        self.target = base if target is None else target
        self._w = base.grid.trapezoid_weights()

    @property
    def accept_matrix(self):
        return np.tile(self.base.values, (self.grid.n_points, 1))

    def apply_to_function(self, f_values):
        val = float(np.sum(self._w * self.base.values * np.asarray(f_values, dtype=float)))
        return np.full(self.grid.n_points, val)

    def propagate_density(self, values):
        mass = float(np.sum(self._w * np.asarray(values, dtype=float)))
        return self.base.values * mass

    def propagate_mixture(self, m: AtomPlusDensity) -> AtomPlusDensity:
        total = m.atom + float(np.sum(self._w * m.density))
        return AtomPlusDensity(self.grid, m.x, 0.0, self.base.values * total)


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
def family(grid):
    return HastingsFamily(ProposalKernel.random_walk(1.0, grid), BalancingFunction.barker())


@pytest.fixture(scope="module")
def rw(family, mu):
    return HastingsKernel(mu, family.proposal, family.balancing)


@pytest.fixture(scope="module")
def v_sq():
    return WeightFunction.one_plus_square()


@pytest.fixture(scope="module")
def v_exp():
    return WeightFunction.exp_abs(1.0)


@pytest.fixture(scope="module")
def f_vals(grid):
    return np.cos(0.8 * grid.nodes) + 0.3 * np.tanh(grid.nodes)


@pytest.fixture(scope="module")
def iid(grid):
    return IidKernel(gaussian_density(grid, 0.0, 1.4))


@pytest.fixture(scope="module")
def iid_cert(iid, v_sq):
    b = float(np.sum(iid.grid.trapezoid_weights() * iid.base.values
                     * v_sq.values_on(iid.grid)))
    return check_drift([iid], v_sq, 0.5, b, 2.0 * b * 1.01)


@pytest.fixture(scope="module")
def cauchy(grid):
    return GridDensity.from_callable(grid, lambda x: 1.0 / (1.0 + x ** 2),
                                     description="cauchy-like")


@pytest.fixture(scope="module")
def cert_exp(rw, v_exp):
    return find_drift_parameters(rw, v_exp)


@pytest.fixture(scope="module")
def rate_rep(rw, v_exp):
    return estimate_geometric_rate(rw, [-6.0, -2.0, 0.0, 1.0, 4.0], 40, v_exp)


@pytest.fixture(scope="module")
def rw_table(rw, f_vals):
    return poisson_resolvent(rw, f_vals)


@pytest.fixture(scope="module")
def grid2():
    axis = Grid1D(-6.0, 6.0, 65)
    return Grid2D(axis, axis)


@pytest.fixture(scope="module")
def gibbs(grid2):
    joint = gaussian2d_density(grid2, (0.0, 0.0), np.array([[1.0, 0.4], [0.4, 1.0]]))
    return GibbsKernel(joint)


@pytest.fixture(scope="module")
def f2_vals(grid2):
    x1, x2 = grid2.mesh()
    return np.cos(0.6 * x1) * np.tanh(x2) + 0.25 * x1


@pytest.fixture(scope="module")
def small_mask(v_sq, grid):
    # {1 + x^2 <= 3.25} = {|x| <= 1.5}, 97 nodes at this resolution
    return level_set_mask(v_sq, grid, 1.0 + 1.5 ** 2)


# --- drift -------------------------------------------------------------------

def test_level_floor_formula():
    assert a1_level_floor(0.5, 10.0) == pytest.approx(9.0)
    assert a1_level_floor(0.9, 0.1) == pytest.approx(-0.5)


def test_iid_projection_is_constant(iid, v_sq):
    pv = iid.apply_to_function(v_sq.values_on(iid.grid))
    assert float(np.max(pv) - np.min(pv)) == 0.0
    # base(1 + x^2) = 1 + 1.4^2 up to window truncation
    assert pv[0] == pytest.approx(2.96, abs=1e-5)


def test_iid_drift_certificate(iid, iid_cert):
    assert iid_cert.passed
    assert iid_cert.margin > 0.05
    # kappa for the refresh chain is exactly the base mass of the level set
    reach = math.sqrt(iid_cert.d - 1.0)
    analytic = math.erf(reach / (1.4 * math.sqrt(2.0)))
    assert iid_cert.kappa == pytest.approx(analytic, abs=5e-3)
    assert "rate=0.5" in iid_cert.describe()


def test_drift_below_floor_raises(rw, v_exp):
    with pytest.raises(PreconditionError, match="below the admissible floor"):
        check_drift([rw], v_exp, 0.5, 10.0, 1.2)


def test_certificate_field_validation(v_sq):
    with pytest.raises(InvalidInputError, match="drift rate"):
        DriftCertificate(v_sq, 1.1, 1.0, 5.0, 1, 0.5)
    with pytest.raises(InvalidInputError, match="allowance b"):
        DriftCertificate(v_sq, 0.5, -1.0, 5.0, 1, 0.5)
    with pytest.raises(InvalidInputError, match="order"):
        DriftCertificate(v_sq, 0.5, 1.0, 5.0, 3, 0.5)
    with pytest.raises(InvalidInputError, match="small-set constant"):
        DriftCertificate(v_sq, 0.5, 1.0, 5.0, 1, 0.0)
    with pytest.raises(PreconditionError, match="floor"):
        DriftCertificate(v_sq, 0.5, 10.0, 1.2, 1, 0.5)


def test_heavy_tail_fails_exponential_drift(family, cauchy, v_exp):
    kern = HastingsKernel(cauchy, family.proposal, family.balancing)
    res = check_drift([kern], v_exp, 0.9, 2.0, 20.0)
    assert not res.passed
    assert res.worst_gap > 1.0
    assert abs(res.worst_node) > 5.0  # violation sits in the tail
    assert "drift violated" in res.describe()


def test_minorization_shortfall_returns_failure(iid, v_sq, iid_cert, monkeypatch):
    monkeypatch.setattr(ergodicity, "KAPPA_FLOOR", 0.999)
    res = check_drift([iid], v_sq, 0.5, iid_cert.b, iid_cert.d)
    assert not res.passed
    assert res.worst_node == "level-set minorization"
    assert 0.05 < res.worst_gap < 0.2
    assert "fell short" in res.describe()


def test_explicit_kappa_skips_minorization(iid, v_sq, iid_cert):
    cert = check_drift([iid], v_sq, 0.5, iid_cert.b, iid_cert.d, kappa=0.25)
    assert cert.passed and cert.kappa == 0.25


def test_exponential_weight_certificate(cert_exp, v_exp):
    assert cert_exp is not None and cert_exp.passed
    assert cert_exp.drift_rate == pytest.approx(0.85)
    assert cert_exp.b < 0.7
    assert cert_exp.d < 10.0  # level set reaches |x| ~ 2.2, far from the walls
    assert cert_exp.kappa > 1e-5
    assert cert_exp.d >= a1_level_floor(cert_exp.drift_rate, cert_exp.b)
    assert v_exp.description in cert_exp.describe()


def test_square_weight_certificate_on_window(rw, v_sq):
    cert = find_drift_parameters(rw, v_sq)
    assert cert is not None and cert.passed
    assert cert.drift_rate <= 0.95


def test_joint_certificate_covers_both_targets(family, mu, nu, v_exp):
    pair = [family.at(mu), family.at(nu)]
    cert = check_drift(pair, v_exp, 0.9, 1.1, 16.0)
    assert cert.passed and cert.n_kernels == 2
    # tighten b below what the wider target needs and the second kernel fails
    res = check_drift(pair, v_exp, 0.9, 0.55, 16.0)
    assert not res.passed and res.kernel_index == 1


def test_empty_level_set_rejected(v_sq, grid):
    with pytest.raises(InvalidInputError, match="empty"):
        level_set_mask(v_sq, grid, 0.5)


def test_gibbs_drift_certificate(gibbs, v_sq):
    cert = find_drift_parameters(gibbs, v_sq)
    assert cert is not None and cert.passed
    assert cert.drift_rate == pytest.approx(0.5)
    assert cert.kappa > 1e-3


# --- minorization ------------------------------------------------------------

def test_grid_kappa_dominates_closed_form(rw, small_mask):
    rep_grid = check_minorization([rw], small_mask, j=1, method="grid")
    rep_cf = check_minorization([rw], small_mask, j=1, method="random-walk")
    assert rep_grid.passed and rep_cf.passed
    assert 0.01 < rep_grid.inf_kappa < 0.02
    assert 0.004 < rep_cf.inf_kappa < 0.006
    assert rep_grid.inf_kappa >= rep_cf.inf_kappa


def test_closed_form_dominated_pointwise(rw, mu, grid, small_mask):
    # the accept density really does sit above kappa * restricted target,
    # start and landing node both inside the set
    kappa = check_minorization([rw], small_mask, method="random-walk").inf_kappa
    cand = mu.values * small_mask / integrate_values(grid, mu.values * small_mask)
    idx = np.flatnonzero(small_mask)
    gap = rw.accept_matrix[np.ix_(idx, idx)] - kappa * cand[idx][None, :]
    assert float(np.min(gap)) > 0.0


def test_two_steps_mix_more(rw, small_mask):
    rep1 = check_minorization([rw], small_mask, j=1)
    rep2 = check_minorization([rw], small_mask, j=2)
    assert rep2.j == 2
    assert rep2.inf_kappa > rep1.inf_kappa


def test_independence_minorizes_whole_space(grid, mu):
    base = gaussian_density(grid, 0.0, 2.0)
    kern = HastingsKernel(mu, ProposalKernel.independence(base),
                          BalancingFunction.min_one(), validate=True)
    beta = float(np.min(base.values / mu.values))
    rep = check_minorization([kern], np.ones(grid.n_points, dtype=bool), j=1)
    assert 0.49 < beta < 0.51
    # with the min-one rule the constant is exactly the worst base/target ratio
    assert rep.inf_kappa == pytest.approx(beta, abs=1e-12)


def test_proposal_hole_kills_minorization(grid, mu, v_sq):
    def density(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.where(np.abs(y - 4.0) <= 0.5, 0.0, 1.0 / 15.0)
        return np.broadcast_to(out, np.broadcast(x, y).shape).copy()

    hole = ProposalKernel(density, tag="flat-with-hole", bounded=True)
    kern = HastingsKernel(mu, hole, BalancingFunction.min_one(), validate=False)
    mask = level_set_mask(v_sq, grid, 1.0 + 5.0 ** 2)
    rep = check_minorization([kern], mask, j=1)
    assert rep.inf_kappa == 0.0
    assert not rep.passed


def test_closed_form_needs_random_walk(grid, mu):
    base = gaussian_density(grid, 0.0, 2.0)
    kern = HastingsKernel(mu, ProposalKernel.independence(base),
                          BalancingFunction.min_one(), validate=False)
    with pytest.raises(PreconditionError, match="random-walk"):
        check_minorization([kern], np.ones(grid.n_points, dtype=bool),
                           method="random-walk")


def test_closed_form_needs_contiguous_set(rw, small_mask):
    gap_mask = small_mask.copy()
    gap_mask[np.flatnonzero(gap_mask)[40]] = False
    with pytest.raises(InvalidInputError, match="contiguous"):
        check_minorization([rw], gap_mask, method="random-walk")


def test_mask_shape_mismatch(rw):
    with pytest.raises(InvalidInputError, match="does not match"):
        check_minorization([rw], np.ones(100, dtype=bool))


def test_minorization_order_validated(rw, small_mask):
    with pytest.raises(InvalidInputError, match="order"):
        check_minorization([rw], small_mask, j=3)
    with pytest.raises(InvalidInputError, match="method"):
        check_minorization([rw], small_mask, method="guess")


def test_gibbs_minorization(gibbs, grid2, v_sq):
    mask = level_set_mask(v_sq, grid2, 3.0)
    rep1 = check_minorization([gibbs], mask, j=1)
    rep2 = check_minorization([gibbs], mask, j=2)
    assert rep1.passed
    assert 0.15 < rep1.inf_kappa < 0.25
    assert rep2.inf_kappa > rep1.inf_kappa


# --- tail log-concavity ------------------------------------------------------

def test_gaussian_tails_log_concave(mu, nu):
    rep = check_log_concave_tails([mu, nu], 1.0, 2.0)
    assert rep.passed
    assert rep.worst_violation <= 1e-12
    assert rep.n_checked == 2


def test_heavy_tails_fail_log_concavity(cauchy):
    rep = check_log_concave_tails([cauchy], 0.5, 1.0)
    assert not rep.passed
    assert rep.worst_violation > 1e-3
    assert rep.worst_index == 0


def test_rate_too_steep_for_offset_gaussian(nu):
    # N(0.3, 1.15) only decays at rate 2 beyond x ~ 2.9; z = 1 is too early
    assert not check_log_concave_tails([nu], 2.0, 1.0).passed


def test_log_concave_validation(mu, gibbs):
    with pytest.raises(InvalidInputError, match="positive"):
        check_log_concave_tails([mu], 0.0, 1.0)
    with pytest.raises(InvalidInputError, match=">= 0"):
        check_log_concave_tails([mu], 1.0, -1.0)
    with pytest.raises(InvalidInputError, match="no tail"):
        check_log_concave_tails([mu], 1.0, 9.0)
    with pytest.raises(InvalidInputError, match="1-D"):
        check_log_concave_tails([gibbs.target], 1.0, 1.0)
    with pytest.raises(InvalidInputError, match="at least one"):
        check_log_concave_tails([], 1.0, 1.0)


# --- geometric rate ----------------------------------------------------------

def test_rate_fit_reference(rate_rep):
    assert rate_rep.passed
    assert 0.84 < rate_rep.beta_est < 0.86
    assert rate_rep.r_squared > 0.99
    assert rate_rep.c_est < 3.5
    assert rate_rep.l_value < 7.0


def test_envelope_dominates_every_sample(rate_rep):
    ks = np.arange(1, rate_rep.k_max + 1)
    env = rate_rep.c_est * rate_rep.beta_est ** ks
    assert np.all(rate_rep.sup_curve <= env * (1.0 + 1e-12))


def test_rate_survives_grid_doubling(rate_rep):
    g = Grid1D(-8.0, 8.0, 257)
    kern = HastingsFamily(ProposalKernel.random_walk(1.0, g),
                          BalancingFunction.barker()).at(gaussian_density(g, 0.0, 1.0))
    rep = estimate_geometric_rate(kern, [-6.0, -2.0, 0.0, 1.0, 4.0], 40,
                                  WeightFunction.exp_abs(1.0))
    assert abs(rep.beta_est - rate_rep.beta_est) < 1e-4


def test_refresh_chain_rate_is_zero(iid, v_sq):
    rep = estimate_geometric_rate(iid, [-3.0, 0.0, 2.0], 12, v_sq)
    assert rep.passed
    assert rep.beta_est == 0.0 and rep.c_est == 0.0
    assert rep.l_value == 1.0
    assert float(np.max(rep.sup_curve)) <= 1e-13


def test_rate_requires_invariant_target(grid, mu, v_sq):
    broken = IidKernel(gaussian_density(grid, 0.0, 1.4), target=mu)
    with pytest.raises(PreconditionError, match="invariant"):
        estimate_geometric_rate(broken, [0.0], 10, v_sq)


def test_rate_input_validation(rw, gibbs, v_sq):
    with pytest.raises(InvalidInputError, match="nothing to fit"):
        estimate_geometric_rate(rw, [0.0], 4, v_sq)
    with pytest.raises(InvalidInputError, match="at least one start"):
        estimate_geometric_rate(rw, [], 20, v_sq)
    with pytest.raises(InvalidInputError, match="1-D"):
        estimate_geometric_rate(gibbs, [0.0], 20, v_sq)


# --- Poisson resolvent -------------------------------------------------------

def test_poisson_equation_reference(rw_table):
    assert rw_table.poisson_residual <= 1e-6
    assert rw_table.centering_residual <= 1e-12
    assert 100 < rw_table.truncation_k < 200
    assert rw_table.tail_bound < 1e-7


def test_refresh_chain_resolvent_is_centered_f(iid, f_vals):
    tab = poisson_resolvent(iid, f_vals)
    assert tab.truncation_k == 1
    centered = f_vals - tab.target_mean
    assert float(np.max(np.abs(tab.values - centered))) <= 1e-14


def test_constant_f_resolvent_vanishes(rw, grid):
    tab = poisson_resolvent(rw, np.ones(grid.n_points))
    assert tab.truncation_k == 1
    assert float(np.max(np.abs(tab.values))) <= 1e-14


def test_rate_tail_dominates_empirical(rw, f_vals, rate_rep, v_exp, rw_table):
    tab = poisson_resolvent(rw, f_vals, rate=rate_rep, weight=v_exp)
    assert tab.tail_bound >= rw_table.tail_bound
    with pytest.raises(InvalidInputError, match="weight"):
        poisson_resolvent(rw, f_vals, rate=rate_rep)


def test_resolvent_iteration_cap(rw, f_vals, monkeypatch):
    monkeypatch.setattr(ergodicity, "RESOLVENT_K_CAP", 3)
    with pytest.raises(ResourceLimitError, match="resolvent series"):
        poisson_resolvent(rw, f_vals)


def test_resolvent_bound_margin(rw_table, v_exp, rate_rep):
    for alpha in (1.0, 0.5):
        out = resolvent_bound_margin(rw_table, v_exp, rate_rep, alpha=alpha)
        assert out["ok"] and out["lhs"] < out["rhs"]
    with pytest.raises(InvalidInputError, match="exponent"):
        resolvent_bound_margin(rw_table, v_exp, rate_rep, alpha=0.0)


def test_asymptotic_variance_matches_series_oracle(rw, rw_table):
    var = asymptotic_variance(rw, rw_table)
    ref = oracles.rw_barker_autocov_variance(
        -8.0, 8.0, 513, 0.0, 1.0, 1.0,
        lambda x: np.cos(0.8 * x) + 0.3 * np.tanh(x))
    assert var == pytest.approx(ref, rel=1e-8)


def test_gibbs_resolvent_and_variance(gibbs, grid2, f2_vals):
    tab = poisson_resolvent(gibbs, f2_vals)
    assert tab.poisson_residual <= 1e-6
    assert tab.centering_residual <= 1e-12
    var = asymptotic_variance(gibbs, tab)
    ref = oracles.gibbs_autocov_variance(
        grid2.axis1.trapezoid_weights(), grid2.axis2.trapezoid_weights(),
        gibbs.target.values, f2_vals)
    assert var == pytest.approx(ref, rel=1e-8)


def test_resolvent_identity_reference(family, mu, nu, f_vals):
    out = check_resolvent_identity(family, mu, nu, f_vals)
    assert out["residual"] <= 1e-8
    assert out["lhs_sup"] > 0.5  # the two resolvents genuinely differ
    assert all(k > 50 for k in out["truncations"])


def test_resolvent_identity_same_target(family, mu, f_vals):
    out = check_resolvent_identity(family, mu, mu, f_vals)
    assert out["residual"] <= 1e-15
    assert out["lhs_sup"] <= 1e-15


def test_resolvent_csv_roundtrip(rw_table, gibbs, f2_vals, tmp_path):
    p1 = tmp_path / "resolvent1d.csv"
    rw_table.write_csv(p1)
    back = np.loadtxt(p1, delimiter=",", skiprows=1)
    assert back.shape == (513, 3)
    assert np.allclose(back[:, 1], rw_table.values)
    assert p1.read_text().splitlines()[0] == "node,resolvent,f"

    tab2 = poisson_resolvent(gibbs, f2_vals)
    p2 = tmp_path / "resolvent2d.csv"
    tab2.write_csv(p2)
    back2 = np.loadtxt(p2, delimiter=",", skiprows=1)
    assert back2.shape == (65 * 65, 4)
    assert np.allclose(back2[:, 2], tab2.values.ravel())


# --- moment growth -----------------------------------------------------------

def test_v_moment_reference(rw, v_exp, cert_exp):
    out = check_v_moment_growth([rw], v_exp, 2, cert=cert_exp, x0=0.0,
                                checkpoints=(5, 10, 20), n_reps=100, seed=7)
    # target second V-moment: E exp(2|X|) = 2 e^2 Phi(2) for a unit Gaussian
    analytic = math.exp(2.0) * (1.0 + math.erf(2.0 / math.sqrt(2.0)))
    assert out["moments"][0] == pytest.approx(analytic, rel=1e-4)
    assert out["jensen_ok"]
    assert out["propagated_ok"]
    assert len(out["chain_checks"]) == 3
    assert all(c["ok"] for c in out["chain_checks"])
    assert out["passed"]


def test_v_moment_square_weight_analytic(rw, v_sq):
    out = check_v_moment_growth([rw], v_sq, 2)
    # E (1 + X^2)^2 = 1 + 2 E X^2 + E X^4 = 6 for the unit Gaussian
    assert out["moments"][0] == pytest.approx(6.0, rel=1e-9)
    assert out["jensen_ok"]
    assert out["propagated_worst_gap"] is None
    assert out["passed"]


def test_moment_power_validated(rw, v_sq):
    with pytest.raises(InvalidInputError, match="integer"):
        check_v_moment_growth([rw], v_sq, 0)
    with pytest.raises(InvalidInputError, match="integer"):
        check_v_moment_growth([rw], v_sq, 1.5)


def test_moment_chain_leg_reproducible(rw, v_exp, cert_exp):
    a = check_v_moment_growth([rw], v_exp, 2, cert=cert_exp, checkpoints=(5,),
                              n_reps=40, seed=11)
    b = check_v_moment_growth([rw], v_exp, 2, cert=cert_exp, checkpoints=(5,),
                              n_reps=40, seed=11)
    assert a["chain_checks"][0]["mean"] == b["chain_checks"][0]["mean"]


def test_moment_chain_leg_runs_the_limiting_chain(rw, v_exp, cert_exp):
    # replication r is run_limiting_chain on child r, read after c steps
    checkpoints, n_reps, seed, x0 = (3, 5, 10), 30, 7, 0.25
    out = check_v_moment_growth([rw], v_exp, 2, cert=cert_exp, x0=x0,
                                checkpoints=checkpoints, n_reps=n_reps, seed=seed)
    runs = [run_limiting_chain(rw, x0, max(checkpoints), np.random.default_rng(child)).states
            for child in np.random.SeedSequence(seed).spawn(n_reps)]
    assert [c["n"] for c in out["chain_checks"]] == list(checkpoints)
    for check, c in zip(out["chain_checks"], checkpoints):
        want = np.mean([v_exp(states[c - 1]) for states in runs])
        assert check["mean"] == float(want)


def test_moment_chain_leg_refuses_a_proposal_without_its_vectorised_pair(
        rw, mu, v_exp, cert_exp):
    density_only = ProposalKernel(rw.proposal.density, tag="density-only")
    kern = HastingsKernel(mu, density_only, BalancingFunction.barker(), validate=False)
    with pytest.raises(InvalidInputError, match="no vectorised sampler"):
        check_v_moment_growth([kern], v_exp, 2, cert=cert_exp)
