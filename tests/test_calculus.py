import numpy as np
import pytest

from mcmccalc import derivative
from mcmccalc.calculus import (
    MviConstants,
    empirical_mvi_check,
    gibbs_mvi_constants,
    hastings_mvi_constants,
    mh_mvi_constants,
    mvi_bound,
    mvi_constants,
    perp_gap,
    pushforward_density,
    random_bv_function,
    uniform_boundedness_scan,
    verify_ftc,
    verify_ftc_intrinsic,
)
from mcmccalc.errors import InvalidInputError, PreconditionError
from mcmccalc.kernels import (
    BalancingFunction,
    GibbsFamily,
    HastingsFamily,
    ProposalKernel,
)
from mcmccalc.measures import (
    Grid1D,
    Grid2D,
    SignedGridFunction,
    WeightFunction,
    gaussian2d_density,
    gaussian_density,
    v_norm_measure,
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
def min_one_family(grid):
    return HastingsFamily(ProposalKernel.random_walk(1.0, grid), BalancingFunction.min_one())


@pytest.fixture(scope="module")
def f_vals(grid):
    return np.cos(0.8 * grid.nodes) + 0.3 * np.tanh(grid.nodes)


@pytest.fixture(scope="module")
def grid2():
    axis = Grid1D(-6.0, 6.0, 65)
    return Grid2D(axis, axis)


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


# ---------------------------------------------------------------------------
# curve-integral identity, mixture form
# ---------------------------------------------------------------------------

def test_ftc_same_measure_is_exactly_zero(family, mu, rho, f_vals):
    rep = verify_ftc(family, mu, mu, rho, f_vals, t_nodes=5)
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0


def test_ftc_constant_function_vanishes(family, mu, nu, rho, grid):
    rep = verify_ftc(family, mu, nu, rho, np.full(grid.n_points, 2.5), t_nodes=5)
    assert rep.residual <= 1e-14


def test_ftc_density_start_reference(family, mu, nu, rho, f_vals):
    rep = verify_ftc(family, mu, nu, rho, f_vals, t_nodes=33)
    assert abs(rep.lhs) > 1e-3  # the check is not vacuous
    assert rep.residual <= 1e-6


def test_ftc_point_start_reference(family, mu, nu, f_vals):
    rep = verify_ftc(family, mu, nu, 0.75, f_vals, t_nodes=33)
    assert abs(rep.lhs) > 1e-3
    assert rep.residual <= 1e-5


def test_ftc_residual_drops_under_refinement(family, mu, nu, f_vals):
    # Refine both knobs at once: halve the grid spacing and double the
    # t-intervals.  The residual is dominated by the t-quadrature, so the
    # coarse/fine ratio is far above the factor-2 gate.
    coarse_grid = Grid1D(-8.0, 8.0, 257)
    coarse_fam = HastingsFamily(
        ProposalKernel.random_walk(1.0, coarse_grid), BalancingFunction.barker()
    )
    coarse = verify_ftc(
        coarse_fam,
        gaussian_density(coarse_grid, 0.0, 1.0),
        gaussian_density(coarse_grid, 0.3, 1.15),
        gaussian_density(coarse_grid, 0.0, 0.45),
        np.cos(0.8 * coarse_grid.nodes) + 0.3 * np.tanh(coarse_grid.nodes),
        t_nodes=5,
    )
    fine = verify_ftc(
        family,
        mu,
        nu,
        gaussian_density(mu.grid, 0.0, 0.45),
        f_vals,
        t_nodes=9,
    )
    assert coarse.residual >= 2.0 * fine.residual


def test_ftc_gibbs_density_start(mu2, nu2, rho2, f2_vals):
    rep = verify_ftc(GibbsFamily(), mu2, nu2, rho2, f2_vals, t_nodes=33)
    assert abs(rep.lhs) > 1e-3
    assert rep.residual <= 1e-6


def test_ftc_gibbs_point_start(mu2, nu2, f2_vals):
    rep = verify_ftc(GibbsFamily(), mu2, nu2, (0.5, -0.75), f2_vals, t_nodes=33)
    assert abs(rep.lhs) > 1e-3
    assert rep.residual <= 1e-5


def test_ftc_gibbs_refinement(mu2, nu2, rho2, f2_vals):
    coarse = verify_ftc(GibbsFamily(), mu2, nu2, rho2, f2_vals, t_nodes=5)
    fine = verify_ftc(GibbsFamily(), mu2, nu2, rho2, f2_vals, t_nodes=9)
    assert coarse.residual >= 2.0 * fine.residual


def test_ftc_rejects_even_or_tiny_node_counts(family, mu, nu, rho, f_vals):
    with pytest.raises(InvalidInputError):
        verify_ftc(family, mu, nu, rho, f_vals, t_nodes=8)
    with pytest.raises(InvalidInputError):
        verify_ftc(family, mu, nu, rho, f_vals, t_nodes=3)


def test_ftc_failure_names_curve_location(min_one_family, mu, nu, rho, f_vals):
    # The min-one balancing has no derivative anywhere on the curve, so the
    # wrapped error should point at the first quadrature node.
    with pytest.raises(PreconditionError, match=r"curve at t=0"):
        verify_ftc(min_one_family, mu, nu, rho, f_vals, t_nodes=5)


def test_ftc_report_carries_integrand(family, mu, nu, rho, f_vals):
    rep = verify_ftc(family, mu, nu, rho, f_vals, t_nodes=9)
    assert rep.node_actions.shape == (9,)
    assert np.all(np.isfinite(rep.node_actions))
    assert rep.t_nodes == 9


@pytest.mark.parametrize("fine_nodes, coarse_nodes", [(33, 17), (35, 19)])
@pytest.mark.parametrize("two_stage", [False, True])
def test_ftc_reuse_is_bit_equal_to_a_fresh_call(request, monkeypatch, tmp_path, two_stage,
                                                 fine_nodes, coarse_nodes):
    import mcmccalc.calculus as calculus

    names = ("mu2", "nu2", "rho2", "f2_vals") if two_stage else ("mu", "nu", "rho", "f_vals")
    mu, nu, rho, f = (request.getfixturevalue(n) for n in names)
    family = GibbsFamily() if two_stage else request.getfixturevalue("family")
    fine = verify_ftc(family, mu, nu, rho, f, t_nodes=fine_nodes)
    fresh = verify_ftc(family, mu, nu, rho, f, t_nodes=coarse_nodes)

    log = tmp_path / "evaluated"  # one line per call, forked workers' calls included
    log.write_text("")
    real = calculus.derivative_for_start

    def counting(kern, *args):
        with open(log, "a") as out:
            out.write("call\n")
        return real(kern, *args)

    monkeypatch.setattr(calculus, "derivative_for_start", counting)
    reused = verify_ftc(family, mu, nu, rho, f, t_nodes=coarse_nodes, reuse=fine)
    evaluated = log.read_text().splitlines()
    assert (reused.lhs, reused.rhs, reused.residual) == (fresh.lhs, fresh.rhs, fresh.residual)
    assert reused.node_actions.tobytes() == fresh.node_actions.tobytes()
    assert reused.ts.tobytes() == fresh.ts.tobytes()
    new_ts = set(fresh.ts.tolist()) - set(fine.ts.tolist())
    assert len(evaluated) == len(new_ts)
    assert (len(new_ts) == 0) == (fine_nodes == 33)


def test_ftc_reuse_refuses_a_report_from_other_inputs(family, mu, nu, rho, f_vals, grid):
    fine = verify_ftc(family, mu, nu, rho, f_vals, t_nodes=9)
    same = {"family": family, "mu": mu, "nu": nu, "start": rho, "f_values": f_vals}
    others = {
        "family": HastingsFamily(family.proposal, family.balancing),  # equal, not the same
        "mu": gaussian_density(grid, 0.0, 1.0),
        "nu": gaussian_density(grid, 0.3, 1.15),
        "start": gaussian_density(grid, 0.0, 0.45),
        "f_values": f_vals.copy(),
    }
    for key, value in others.items():
        with pytest.raises(InvalidInputError, match="other inputs"):
            verify_ftc(**{**same, key: value}, t_nodes=5, reuse=fine)


# ---------------------------------------------------------------------------
# pushforward densities and the transport-map form
# ---------------------------------------------------------------------------

def test_pushforward_identity_map(mu):
    image = pushforward_density(mu, lambda y: np.asarray(y, dtype=float).copy())
    assert np.max(np.abs(image.values - mu.values)) <= 1e-14


def test_pushforward_affine_matches_shifted_gaussian(grid, mu):
    # Shift by 4 grid cells so the inverse lands on nodes exactly.
    image = pushforward_density(mu, lambda y: y + 0.125)
    analytic = gaussian_density(grid, 0.125, 1.0)
    assert np.max(np.abs(image.values - analytic.values)) <= 1e-8


def test_pushforward_rejects_decreasing_map(mu):
    with pytest.raises(PreconditionError, match="strictly increasing"):
        pushforward_density(mu, lambda y: -y)


def test_pushforward_is_one_dimensional_only(mu2):
    with pytest.raises(InvalidInputError):
        pushforward_density(mu2, lambda y: y)


def test_intrinsic_identity_map_is_zero(family, mu, rho, f_vals):
    rep = verify_ftc_intrinsic(
        family, mu, lambda y: np.asarray(y, dtype=float).copy(), rho, f_vals,
        t_nodes=5, s_nodes=5,
    )
    assert rep.rhs == 0.0
    assert rep.residual <= 1e-14


def test_intrinsic_tapered_shift_reference(family, mu, rho, f_vals):
    # A hard shift walks mass off the window; taper the displacement to zero
    # at the edges instead.
    rep = verify_ftc_intrinsic(
        family, mu, lambda y: y + 0.35 * np.exp(-(y**2) / 2.0), rho, f_vals,
        t_nodes=17, s_nodes=9,
    )
    assert abs(rep.lhs) > 1e-3
    assert rep.residual <= 1e-4
    assert rep.extra["pushforward"].mass == pytest.approx(1.0, abs=1e-9)


def test_intrinsic_residual_shrinks_on_finer_grid(family, mu, rho, f_vals):
    fine_grid = Grid1D(-8.0, 8.0, 1025)
    fine_fam = HastingsFamily(
        ProposalKernel.random_walk(1.0, fine_grid), BalancingFunction.barker()
    )
    transport = lambda y: y + 0.35 * np.exp(-(y**2) / 2.0)
    coarse = verify_ftc_intrinsic(family, mu, transport, rho, f_vals,
                                  t_nodes=17, s_nodes=9)
    fine = verify_ftc_intrinsic(
        fine_fam,
        gaussian_density(fine_grid, 0.0, 1.0),
        transport,
        gaussian_density(fine_grid, 0.0, 0.45),
        np.cos(0.8 * fine_grid.nodes) + 0.3 * np.tanh(fine_grid.nodes),
        t_nodes=17,
        s_nodes=9,
    )
    assert fine.residual < coarse.residual


def test_intrinsic_rejects_map_leaving_window(family, mu, rho, f_vals):
    with pytest.raises(PreconditionError, match="into itself"):
        verify_ftc_intrinsic(family, mu, lambda y: y + 0.5, rho, f_vals)


def test_intrinsic_is_for_1d_accept_reject(mu2, rho2, f2_vals):
    with pytest.raises(InvalidInputError):
        verify_ftc_intrinsic(GibbsFamily(), mu2, lambda y: y, rho2, f2_vals)


# ---------------------------------------------------------------------------
# mean-value constants
# ---------------------------------------------------------------------------

def test_constants_validate_themselves():
    with pytest.raises(InvalidInputError):
        MviConstants(-1.0, 0.0, "1", 5, "density", "none")
    with pytest.raises(InvalidInputError):
        MviConstants(np.inf, 0.0, "1", 5, "density", "none")
    with pytest.raises(InvalidInputError):
        MviConstants(1.0, 0.5, "1", 5, "density", "none")  # density has no gap


def test_density_start_budget_has_no_singular_piece(family, mu, nu, rho):
    c = hastings_mvi_constants(family, mu, nu, rho, WeightFunction.one_plus_square(),
                               t_nodes=9)
    assert c.start_kind == "density"
    assert c.perp_pairing == "none"
    assert c.m_perp == 0.0
    assert c.m_rho > 0.0


def test_independence_tv_budget_matches_oracle(grid, mu, nu, monkeypatch):
    # V = 1 and rho = mu collapse the two-term budget to a form a from-scratch
    # script can integrate directly.  The compact window makes rho = mu a
    # legal start once the ratio guard is lifted explicitly.
    monkeypatch.setattr(derivative, "RATIO_CEILING", float("inf"))
    base = gaussian_density(grid, 0.0, 1.4)
    fam = HastingsFamily(ProposalKernel.independence(base), BalancingFunction.barker())
    c = hastings_mvi_constants(fam, mu, nu, mu, WeightFunction.const(), t_nodes=9)
    expected = oracles.independence_mvi_budget_tv(
        grid.nodes, grid.trapezoid_weights(), mu.values, nu.values, base.values, 9
    )
    assert c.m_rho == pytest.approx(expected, rel=1e-12)
    assert c.m_perp == 0.0


def test_gibbs_tv_budget_matches_oracle(grid2, mu2, nu2):
    c = gibbs_mvi_constants(GibbsFamily(), mu2, nu2, mu2, WeightFunction.const(),
                            t_nodes=9)
    expected = oracles.gibbs_mvi_budget_tv(
        grid2.axis1.trapezoid_weights(),
        grid2.axis2.trapezoid_weights(),
        mu2.values,
        nu2.values,
        9,
    )
    assert c.m_rho == pytest.approx(expected, rel=1e-12)


def test_polynomial_balancing_constants_below_min_one(family, min_one_family, mu, nu, rho):
    # |g_j'| <= 1 pointwise, so every polynomial-balancing budget sits below
    # the min-one budget that drops the factor.
    v = WeightFunction.one_plus_square()
    cap = mh_mvi_constants(min_one_family, mu, nu, rho, v, t_nodes=9).m_rho
    for j in (1, 2, 4, 8, 16):
        fam_j = HastingsFamily(
            ProposalKernel.random_walk(1.0, mu.grid), BalancingFunction.polynomial(j)
        )
        c = hastings_mvi_constants(fam_j, mu, nu, rho, v, t_nodes=9)
        assert 0.0 < c.m_rho <= cap + 1e-9


@pytest.mark.parametrize("start", ["density", "point"])
@pytest.mark.parametrize("kind", ["hastings", "min-one", "two-stage"])
def test_mvi_constants_dispatch_to_the_family_constants(request, kind, start):
    if kind == "two-stage":
        fam, direct = GibbsFamily(), gibbs_mvi_constants
        mu_, nu_ = request.getfixturevalue("mu2"), request.getfixturevalue("nu2")
        at = request.getfixturevalue("rho2") if start == "density" else (0.5, -0.75)
    else:
        fam = request.getfixturevalue("family" if kind == "hastings" else "min_one_family")
        direct = hastings_mvi_constants if kind == "hastings" else mh_mvi_constants
        mu_, nu_ = request.getfixturevalue("mu"), request.getfixturevalue("nu")
        at = request.getfixturevalue("rho") if start == "density" else 0.5
    v = WeightFunction.one_plus_square()
    got = mvi_constants(fam, mu_, nu_, at, v, t_nodes=5)
    assert repr(got) == repr(direct(fam, mu_, nu_, at, v, t_nodes=5))
    assert got.start_kind == start


def test_differentiable_constants_reject_min_one(min_one_family, mu, nu, rho):
    with pytest.raises(PreconditionError, match="min-one"):
        hastings_mvi_constants(min_one_family, mu, nu, rho, WeightFunction.const())


def test_min_one_constants_reject_smooth_balancing(family, mu, nu, rho):
    with pytest.raises(PreconditionError, match="min-one"):
        mh_mvi_constants(family, mu, nu, rho, WeightFunction.const())


def test_cold_start_trips_ceiling_naming_curve_location(family, mu, nu, grid):
    cold = gaussian_density(grid, 0.0, 2.5)
    with pytest.raises(PreconditionError, match=r"at t=0"):
        hastings_mvi_constants(family, mu, nu, cold, WeightFunction.one_plus_square(),
                               t_nodes=5)


def test_bound_assembles_norm_and_gap(family, mu, nu):
    v = WeightFunction.one_plus_square()
    c = hastings_mvi_constants(family, mu, nu, 0.5, v, t_nodes=9)
    assert c.perp_pairing == "point-gap"
    chi = SignedGridFunction.difference(nu, mu)
    manual = c.m_rho * v_norm_measure(chi, v.values_on(mu.grid)) + c.m_perp * abs(
        mu.at(0.5) - nu.at(0.5)
    )
    assert mvi_bound(c, mu, nu, 0.5, v) == pytest.approx(manual, rel=1e-14)


def test_two_stage_gap_is_slice_mass(grid2, mu2, nu2):
    v = WeightFunction.const()
    c = gibbs_mvi_constants(GibbsFamily(), mu2, nu2, (0.5, -0.75), v, t_nodes=5)
    assert c.perp_pairing == "slice-mass"
    # -0.75 sits on a grid column, so the interpolated section is exact.
    col = int(round((-0.75 - grid2.axis2.lower) / grid2.axis2.h))
    expected = grid2.axis1.trapezoid_weights() @ np.abs(
        mu2.values[:, col] - nu2.values[:, col]
    )
    assert perp_gap(c, mu2, nu2, (0.5, -0.75)) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# randomized probes of the bounds
# ---------------------------------------------------------------------------

def test_random_probe_functions_are_v_bounded(grid, grid2):
    v1 = WeightFunction.one_plus_square().values_on(grid)
    v2 = WeightFunction.one_plus_square().values_on(grid2)
    for seed in (0, 1, 2):
        f1 = random_bv_function(grid, v1, np.random.default_rng(seed))
        f2 = random_bv_function(grid2, v2, np.random.default_rng(seed))
        assert np.all(np.abs(f1) <= v1 * (1 + 1e-12))
        assert np.all(np.abs(f2) <= v2 * (1 + 1e-12))
    again = random_bv_function(grid, v1, np.random.default_rng(2))
    assert np.array_equal(again, f1)


def test_empirical_check_hastings_density(family, mu, nu, rho):
    v = WeightFunction.one_plus_square()
    c = hastings_mvi_constants(family, mu, nu, rho, v, t_nodes=9)
    out = empirical_mvi_check(family, mu, nu, rho, v, c, n_trials=50, seed=11)
    assert out["violations"] == 0
    assert 0.0 < out["max_ratio"] <= 1.0


def test_empirical_check_hastings_point(family, mu, nu):
    v = WeightFunction.one_plus_square()
    c = hastings_mvi_constants(family, mu, nu, 0.0, v, t_nodes=9)
    out = empirical_mvi_check(family, mu, nu, 0.0, v, c, n_trials=50, seed=12)
    assert out["violations"] == 0
    assert 0.0 < out["max_ratio"] <= 1.0


def test_empirical_check_min_one_point(min_one_family, mu, nu):
    v = WeightFunction.one_plus_square()
    c = mh_mvi_constants(min_one_family, mu, nu, 0.5, v, t_nodes=9)
    out = empirical_mvi_check(min_one_family, mu, nu, 0.5, v, c, n_trials=50, seed=13)
    assert out["violations"] == 0
    assert 0.0 < out["max_ratio"] <= 1.0


def test_empirical_check_gibbs_density(mu2, nu2, rho2):
    v = WeightFunction.one_plus_square()
    c = gibbs_mvi_constants(GibbsFamily(), mu2, nu2, rho2, v, t_nodes=9)
    out = empirical_mvi_check(GibbsFamily(), mu2, nu2, rho2, v, c, n_trials=50, seed=14)
    assert out["violations"] == 0
    assert 0.0 < out["max_ratio"] <= 1.0


def test_empirical_check_gibbs_point(mu2, nu2):
    v = WeightFunction.one_plus_square()
    c = gibbs_mvi_constants(GibbsFamily(), mu2, nu2, (0.5, -0.75), v, t_nodes=9)
    out = empirical_mvi_check(
        GibbsFamily(), mu2, nu2, (0.5, -0.75), v, c, n_trials=50, seed=15
    )
    assert out["violations"] == 0
    assert 0.0 < out["max_ratio"] <= 1.0


def test_empirical_check_degenerates_cleanly_when_nu_is_mu(family, mu, rho):
    v = WeightFunction.one_plus_square()
    c = hastings_mvi_constants(family, mu, mu, rho, v, t_nodes=5)
    out = empirical_mvi_check(family, mu, mu, rho, v, c, n_trials=10, seed=7)
    assert out["bound"] == 0.0
    assert out["violations"] == 0
    assert out["max_ratio"] == 0.0


@pytest.mark.parametrize("start", ["density", 0.37, 0.0, -8.0, 8.0])
@pytest.mark.parametrize("fam", ["family", "min_one_family"])
def test_empirical_check_representer_matches_per_trial_kernels(request, fam, start, mu, nu,
                                                               rho, grid):
    family = request.getfixturevalue(fam)
    start = rho if start == "density" else start
    v = WeightFunction.one_plus_square()
    fs = [random_bv_function(grid, v.values_on(grid), np.random.default_rng(child))
          for child in np.random.SeedSequence(21).spawn(300)]
    kernels = [(k.accept_matrix, k.rejection_vector, k.target.values)
               for k in (family.at(mu), family.at(nu))]

    def per_trial(bound):
        return oracles.mvi_trials_per_trial(kernels, grid.trapezoid_weights(), grid.nodes,
                                            rho.values if start is rho else start, fs, bound,
                                            family.proposal.density, family.balancing.g)

    c = mvi_constants(family, mu, nu, start, v, t_nodes=5)
    out = empirical_mvi_check(family, mu, nu, start, v, c, n_trials=300, seed=21)
    worst, ratio, _ = per_trial(out["bound"])
    if worst == 0.0:
        # min-one from a window edge: the two laws differ by about 1e-52, below
        # the rounding of each P(start, f), which the per-trial form rounds away
        assert out["worst_lhs"] < 1e-40
        return
    # shrink the budget below the worst trial, so that some trials violate it
    c = MviConstants(0.7 * ratio * c.m_rho, 0.7 * ratio * c.m_perp, c.v_tag, c.t_nodes,
                     c.start_kind, c.perp_pairing)
    out = empirical_mvi_check(family, mu, nu, start, v, c, n_trials=300, seed=21)
    worst, ratio, violations = per_trial(out["bound"])
    assert out["worst_lhs"] == pytest.approx(worst, rel=1e-13, abs=0.0)
    assert out["max_ratio"] == pytest.approx(ratio, rel=1e-13, abs=0.0)
    assert out["violations"] == violations
    assert 0 < violations < 300


# ---------------------------------------------------------------------------
# scanning point-start constants over the window
# ---------------------------------------------------------------------------

def test_scan_flags_random_walk_edge_growth(min_one_family, mu, nu):
    scan = uniform_boundedness_scan(
        min_one_family, mu, nu, WeightFunction.const(),
        np.linspace(-7.5, 7.5, 15), t_nodes=5,
    )
    # min-one RW budgets blow up like 1/mu_t(x) toward the window edge: still
    # finite on the truncation, but flagged as non-uniform.
    assert scan["all_finite"]
    assert scan["flagged_growth"]
    assert scan["edge_to_median"] > 100.0


def test_scan_two_stage_constants_stay_finite(mu2, nu2):
    points = [(0.0, x2) for x2 in np.linspace(-5.5, 5.5, 9)]
    scan = uniform_boundedness_scan(
        GibbsFamily(), mu2, nu2, WeightFunction.const(), points, t_nodes=5
    )
    assert scan["all_finite"]
    assert scan["max_m_x"] < 1e6
    assert len(scan["m_x"]) == len(points)
