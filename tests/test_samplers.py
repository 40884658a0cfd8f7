"""Chain drivers: seed discipline, scheme equalities, and the CLT harness.

Full-scale variance gates live in the acceptance suite; here the experiments
run at reduced size against pinned seeded values, and the structural
identities (replication composability, scheme reductions, reproducibility)
are checked exactly.
"""

import dataclasses
import subprocess
import sys

import numpy as np
import numpy.random as npr
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

import oracles
from mcmccalc.errors import (
    DegenerateWeightsError,
    InvalidInputError,
    RangeError,
    ResourceLimitError,
)
from mcmccalc.feynman_kac import (
    EmpiricalMeasure,
    FeynmanKacModel,
    MutationKernel,
    default_ssm_model,
    gaussian_mutation,
)
from mcmccalc.kernels import (
    BalancingFunction,
    GibbsFamily,
    GibbsKernel,
    HastingsFamily,
    HastingsKernel,
    ProposalKernel,
    check_invariance,
)
from mcmccalc.measures import (
    Grid1D,
    Grid2D,
    GridDensity,
    POSITIVE_FLOOR,
    WeightFunction,
    gaussian2d_density,
    gaussian_density,
)
from mcmccalc import samplers
from mcmccalc.samplers import (
    AdaptationTrace,
    ChainRun,
    SchemeConfig,
    batch_means_variance,
    check_adaptation_conditions,
    clt_experiment,
    run_imcmc,
    run_limiting_chain,
    run_smcmc,
    v_alpha_norm,
)


def f_smooth(x):
    return np.cos(0.8 * np.asarray(x, dtype=float)) + 0.3 * np.tanh(x)


def f_clip(x):
    return np.clip(x, -8.0, 8.0)


@pytest.fixture(scope="module")
def model():
    return default_ssm_model()


@pytest.fixture(scope="module")
def grid(model):
    return model.grid


@pytest.fixture(scope="module")
def family(grid):
    return HastingsFamily(ProposalKernel.random_walk(1.0, grid),
                          BalancingFunction.barker())


@pytest.fixture(scope="module")
def flow1_kernel(family, model):
    return family.at(model.flow(1), validate=False)


@pytest.fixture(scope="module")
def long_run(family, grid):
    target = gaussian_density(grid, 0.0, 1.0)
    kernel = family.at(target, validate=False)
    return target, run_limiting_chain(kernel, 0.0, 100_000, 42)


@pytest.fixture(scope="module")
def smcmc_report(family, model):
    cfg = SchemeConfig(family=family, model=model)
    return clt_experiment("smcmc", cfg, f_smooth, 2000, 100, 314)


@pytest.fixture(scope="module")
def imcmc_report(family, model):
    cfg = SchemeConfig(family=family, model=model)
    return clt_experiment("imcmc", cfg, f_smooth, 1500, 100, 606)


# ---------------------------------------------------------------------------
# limiting chains
# ---------------------------------------------------------------------------

def test_limiting_chain_reaches_the_target_mean(long_run, grid):
    target, run = long_run
    assert run.n_steps == 100_000
    assert run.acceptance_rate == pytest.approx(0.41824, abs=1e-12)
    assert run.truncation_events == 0
    avg = float(np.mean(f_smooth(run.states)))
    assert avg == pytest.approx(0.7267798693916947, rel=1e-12)
    ref = target.expect(f_smooth(grid.nodes))
    bm = batch_means_variance(run, f_smooth, 40)
    assert bm == pytest.approx(0.996801402728903, rel=1e-9)
    assert abs(avg - ref) < 3.0 * np.sqrt(bm / run.n_steps)


def test_limiting_chain_is_bit_reproducible(flow1_kernel):
    a = run_limiting_chain(flow1_kernel, 0.0, 3000, 42)
    b = run_limiting_chain(flow1_kernel, 0.0, 3000, 42)
    assert np.array_equal(a.states, b.states)
    assert a.acceptance_rate == b.acceptance_rate
    c = run_limiting_chain(flow1_kernel, 0.0, 3000, 43)
    assert not np.array_equal(a.states, c.states)


def test_limiting_chain_seed_forms_agree(flow1_kernel):
    by_int = run_limiting_chain(flow1_kernel, 0.0, 500, 5)
    by_seq = run_limiting_chain(flow1_kernel, 0.0, 500, npr.SeedSequence(5))
    assert np.array_equal(by_int.states, by_seq.states)
    assert by_int.seed == 5
    expected = int(npr.SeedSequence(5).generate_state(1, np.uint64)[0])
    assert by_seq.seed == expected


def test_limiting_chain_generator_escape_hatch(flow1_kernel):
    child = npr.SeedSequence(5).spawn(3)[2]
    a = run_limiting_chain(flow1_kernel, 0.0, 400, npr.default_rng(child))
    b = run_limiting_chain(flow1_kernel, 0.0, 400, npr.default_rng(child))
    assert np.array_equal(a.states, b.states)
    assert a.seed == 0
    with pytest.raises(InvalidInputError):
        samplers._level_streams(npr.default_rng(child), 2)


def test_limiting_chain_empty_run(flow1_kernel):
    run = run_limiting_chain(flow1_kernel, 0.0, 0, 3)
    assert run.states.shape == (0,)
    assert run.acceptance_rate == 0.0
    assert run.truncation_events == 0


def test_limiting_chain_two_stage_scan():
    axis = Grid1D(-6.0, 6.0, 65)
    dens = gaussian2d_density(Grid2D(axis, axis), (0.0, 0.0),
                              [[1.0, 0.4], [0.4, 1.0]])
    run = run_limiting_chain(GibbsKernel(dens), (0.0, 0.0), 20_000, 8)
    assert run.states.shape == (20_000, 2)
    assert run.acceptance_rate == 1.0
    assert run.kernel_descriptor.startswith("two-stage scan")
    assert np.max(np.abs(run.states.mean(axis=0))) < 0.05


def test_limiting_chain_validation(flow1_kernel, model):
    with pytest.raises(InvalidInputError):
        run_limiting_chain(flow1_kernel, 0.0, -3, 1)
    with pytest.raises(InvalidInputError):
        run_limiting_chain(flow1_kernel, 0.0, 2.5, 1)
    prop = ProposalKernel(lambda x, y: np.ones_like(np.asarray(y, dtype=float)),
                          tag="custom")
    kern = HastingsKernel(model.flow(1), prop, BalancingFunction.barker(),
                          validate=False)
    with pytest.raises(InvalidInputError, match="no vectorised sampler"):
        run_limiting_chain(kern, 0.0, 10, 1)


def test_chain_run_record_validation():
    with pytest.raises(InvalidInputError):
        ChainRun(np.zeros(4), 0, "k", 1.2, 0)
    with pytest.raises(InvalidInputError):
        ChainRun(np.zeros(4), 0, "k", 0.5, -1)
    with pytest.raises(InvalidInputError):
        ChainRun(np.zeros((2, 2, 2)), 0, "k", 0.5, 0)
    run = ChainRun(np.zeros(4), 9, "kern", 0.5, 2)
    assert "kern" in run.describe() and "2 boundary folds" in run.describe()


# ---------------------------------------------------------------------------
# rejection runs of a lane
# ---------------------------------------------------------------------------

def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _one_chain_lane(grid, proposal, balancing, target, x0=0.0, seed=7):
    lane = samplers._Lane(grid, proposal, balancing, np.array([x0]),
                          [npr.default_rng(seed)])
    lane.set_target(target)
    return lane


def _assert_run_matches_stepping(make_lane, n):
    """``run(n)`` against ``n`` steps of an identical lane: states, accept
    flags, state, target value, counts, cursor and the next step agree bit
    for bit.  Returns the lane that ran."""
    ran, stepped = make_lane(), make_lane()
    shape = (len(ran.rngs), n)
    out, moved = np.empty(shape), np.empty(shape, dtype=bool)
    ref, ref_moved = np.empty(shape), np.empty(shape, dtype=bool)
    ran.run(n, out, moved)
    oracles.stepped_run(stepped, n, ref, ref_moved)
    assert _same(out, ref) and _same(moved, ref_moved)
    for name in ("x", "mu_x", "accept_count", "fold_count"):
        assert _same(getattr(ran, name), getattr(stepped, name)), name
    assert ran._cursor == stepped._cursor
    assert _same(ran.step(), stepped.step())
    assert _same(ran.mu_x, stepped.mu_x) and _same(ran.accepted, stepped.accepted)
    return ran


def _proposal(kind, grid, sigma=1.0):
    if kind == "random-walk":
        return ProposalKernel.random_walk(sigma, grid)
    return ProposalKernel.independence(gaussian_density(grid, 0.5, 2.0))


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2500])
@pytest.mark.parametrize("table", ["1-D", "(1, N)"])
@pytest.mark.parametrize("balancing", [BalancingFunction.barker(),
                                       BalancingFunction.min_one(),
                                       BalancingFunction.polynomial(2)],
                         ids=["barker", "min-one", "gj2"])
@pytest.mark.parametrize("kind", ["random-walk", "independence"])
def test_lane_run_matches_stepping(kind, balancing, table, n, model, grid):
    target = (model.flow(1).values if table == "1-D"
              else model.flow(2).values[None, :])
    proposal = _proposal(kind, grid)
    lane = _assert_run_matches_stepping(
        lambda: _one_chain_lane(grid, proposal, balancing, target, x0=0.3), n)
    assert n == 1 or lane.accept_count[0] > 0


def test_lane_run_matches_stepping_with_folds(model, grid):
    proposal = ProposalKernel.random_walk(2.6, grid)  # near the widest sigma
    lane = _assert_run_matches_stepping(
        lambda: _one_chain_lane(grid, proposal, BalancingFunction.barker(),
                                model.flow(1).values, x0=grid.upper), 1500)
    assert lane.fold_count[0] > 0


def test_lane_run_matches_stepping_without_target_mass(grid):
    proposal = ProposalKernel.random_walk(1.0, grid)
    zero = np.zeros(grid.n_points)
    # a massless target never accepts: every round ends without a hit
    lane = _assert_run_matches_stepping(
        lambda: _one_chain_lane(grid, proposal, BalancingFunction.barker(),
                                zero, x0=1.5), 2100)
    assert lane.accept_count[0] == 0 and lane.x[0] == 1.5
    # a vanishing forward density puts every ratio on its fallback of 1
    vanishing = dataclasses.replace(proposal, symmetric=False)
    vanishing.q_pair = lambda x, y: (0.0 * proposal.q_pair(x, y)[0],
                                     proposal.q_pair(x, y)[1])
    lane = _assert_run_matches_stepping(
        lambda: _one_chain_lane(grid, vanishing, BalancingFunction.barker(),
                                zero, x0=1.5), 2100)
    assert 0.4 < lane.accept_count[0] / 2101 < 0.6  # g(1) = 1/2


@pytest.mark.parametrize("table", ["1-D", "(R, N)"])
def test_lane_run_of_several_chains_matches_stepping(table, grid, model):
    proposal = ProposalKernel.random_walk(1.0, grid)
    target = (model.flow(1).values if table == "1-D"
              else np.vstack([model.flow(j).values for j in (1, 2, 3)]))

    def make_lane():
        lane = samplers._Lane(grid, proposal, BalancingFunction.barker(),
                              np.array([-1.0, 0.3, 2.0]),
                              [npr.default_rng(s) for s in (1, 2, 3)])
        lane.set_target(target)
        return lane

    # 1500 steps then 1100 more: the second run starts mid-block
    ran, stepped = make_lane(), make_lane()
    for n in (1500, 1100):
        out, ref = np.empty((3, n)), np.empty((3, n))
        ran.run(n, out)
        oracles.stepped_run(stepped, n, ref)
        assert _same(out, ref)
    for name in ("x", "mu_x", "accept_count", "fold_count", "accepted"):
        assert _same(getattr(ran, name), getattr(stepped, name)), name
    assert _same(ran.step(), stepped.step())
    assert np.all(ran.accept_count > 0)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.05, 2.6),
       x0=st.floats(-8.0, 8.0), n=st.integers(0, 1100))
def test_lane_run_equals_stepping_on_generated_inputs(seed, sigma, x0, n, model):
    grid = model.grid
    proposal = ProposalKernel.random_walk(sigma, grid)
    _assert_run_matches_stepping(
        lambda: _one_chain_lane(grid, proposal, BalancingFunction.barker(),
                                model.flow(1).values, x0=x0, seed=seed), n)


@pytest.mark.parametrize("kind", ["random-walk", "independence"])
def test_chain_runs_equal_the_stepping_engines(monkeypatch, kind, model, grid):
    family = HastingsFamily(_proposal(kind, grid), BalancingFunction.barker())
    weight = WeightFunction.one_plus_square()

    def runs():
        seq = [run for run, _ in run_smcmc(family, model, 3, 1500, 21)]
        inter, trace = run_imcmc(family, model, 2, 1500, 22, trace_weight=weight)
        lim = run_limiting_chain(family.at(model.flow(1), validate=False),
                                 0.5, 2100, 23)
        return seq + inter + [lim], trace

    fast, fast_trace = runs()
    monkeypatch.setattr(samplers._Lane, "run", oracles.stepped_run)
    slow, slow_trace = runs()
    for a, b in zip(fast, slow):
        assert _same(a.states, b.states)
        assert (a.acceptance_rate, a.truncation_events, a.kernel_descriptor) == (
            b.acceptance_rate, b.truncation_events, b.kernel_descriptor)
    for name in ("sup_increments", "v_increments", "snapshots"):
        assert _same(getattr(fast_trace, name), getattr(slow_trace, name))


def _moving_rows(grid, n, reps=1, start=0):
    """``n`` steps of per-chain target rows (n x reps x N): Gaussian bumps
    whose centres swing across the window, massless below -2."""
    k = np.arange(start, start + n)[:, None, None]
    centres = 3.0 * np.sin(k / 40.0 + np.arange(reps)[None, :, None])
    rows = np.exp(-0.5 * (grid.nodes - centres) ** 2)
    rows[..., grid.nodes < -2.0] = 0.0
    return rows


def _moving_lane(grid, proposal, balancing, x0s, seeds):
    return samplers._Lane(grid, proposal, balancing, np.asarray(x0s, float),
                          [npr.default_rng(s) for s in seeds])


def _assert_moving_run_matches_stepping(make_lane, chunks):
    """``run_moving`` over each block of rows in ``chunks`` against the
    stepping oracle on an identical lane: states, accept flags, state,
    target value, counts, cursor and the next step agree bit for bit.
    Returns the lane that ran."""
    ran, stepped = make_lane(), make_lane()
    for rows in chunks:
        shape = (len(ran.rngs), len(rows))
        out, moved = np.empty(shape), np.empty(shape, dtype=bool)
        ref, ref_moved = np.empty(shape), np.empty(shape, dtype=bool)
        ran.run_moving(rows, out, moved)
        oracles.stepped_moving_run(stepped, rows, ref, ref_moved)
        assert _same(out, ref) and _same(moved, ref_moved)
        for name in ("x", "mu_x", "accept_count", "fold_count", "accepted"):
            assert _same(getattr(ran, name), getattr(stepped, name)), name
        assert ran._cursor == stepped._cursor
    assert _same(ran.step(), stepped.step())
    assert _same(ran.mu_x, stepped.mu_x) and _same(ran.accepted, stepped.accepted)
    return ran


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2500])
@pytest.mark.parametrize("balancing", [BalancingFunction.barker(),
                                       BalancingFunction.min_one(),
                                       BalancingFunction.polynomial(2)],
                         ids=["barker", "min-one", "gj2"])
@pytest.mark.parametrize("kind", ["random-walk", "independence"])
def test_lane_moving_run_matches_stepping(kind, balancing, n, grid):
    proposal = _proposal(kind, grid)
    lane = _assert_moving_run_matches_stepping(
        lambda: _moving_lane(grid, proposal, balancing, [0.3], [7]),
        [_moving_rows(grid, n)])
    assert n == 1 or lane.accept_count[0] > 0


def test_lane_moving_run_of_several_chains_starts_mid_block(grid):
    proposal = ProposalKernel.random_walk(1.0, grid)
    # 1500 steps then 1100 more: the second run starts mid-block; the
    # chain started at -3 sits where every row is massless (floored)
    lane = _assert_moving_run_matches_stepping(
        lambda: _moving_lane(grid, proposal, BalancingFunction.barker(),
                             [-3.0, 0.3, 2.0], [1, 2, 3]),
        [_moving_rows(grid, 1500, 3), _moving_rows(grid, 1100, 3, start=1500)])
    assert np.all(lane.accept_count > 0)


def test_lane_moving_run_against_massless_rows(grid):
    proposal = ProposalKernel.random_walk(1.0, grid)
    lane = _assert_moving_run_matches_stepping(
        lambda: _moving_lane(grid, proposal, BalancingFunction.barker(),
                             [1.5], [4]),
        [np.zeros((1100, 1, grid.n_points))])
    assert lane.accept_count[0] == 0 and lane.mu_x[0] == POSITIVE_FLOOR


def test_lane_moving_run_matches_stepping_with_folds(grid):
    # the widest step from the lower wall, against bumps that swing near it
    sigma = (grid.upper - grid.lower) / 6.0
    proposal = ProposalKernel.random_walk(sigma, grid)
    centres = grid.lower + 1.5 + np.sin(np.arange(1500) / 40.0)[:, None, None]
    rows = np.exp(-0.5 * (grid.nodes - centres) ** 2)
    lane = _assert_moving_run_matches_stepping(
        lambda: _moving_lane(grid, proposal, BalancingFunction.barker(),
                             [grid.lower], [5]),
        [rows])
    assert lane.fold_count[0] > 0 and lane.accept_count[0] > 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.05, 2.6),
       x0=st.floats(-8.0, 8.0), n=st.integers(1, 1100),
       start=st.integers(0, 500))
def test_lane_moving_run_equals_stepping_on_generated_inputs(seed, sigma, x0,
                                                            n, start, model):
    grid = model.grid
    proposal = ProposalKernel.random_walk(sigma, grid)
    _assert_moving_run_matches_stepping(
        lambda: _moving_lane(grid, proposal, BalancingFunction.barker(),
                             [x0], [seed]),
        [_moving_rows(grid, n, start=start)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.05, 2.6),
       x0=st.floats(-8.0, 8.0), start=st.integers(0, 500),
       balancing=st.sampled_from([BalancingFunction.barker(),
                                  BalancingFunction.min_one(),
                                  BalancingFunction.polynomial(2)]))
def test_symmetric_ratio_matches_the_ratio_with_q(seed, sigma, x0, start,
                                                  balancing, model):
    grid = model.grid
    proposal = ProposalKernel.random_walk(sigma, grid)
    lane = _moving_lane(grid, proposal, balancing, [x0], [seed])
    # a row massless below -2: starts there sit on the floor
    lane.set_target(_moving_rows(grid, 1, start=start)[0])
    rng = npr.default_rng(seed)
    x = lane.x
    d, u = rng.standard_normal(samplers.RUN_BLOCK), rng.uniform(size=samplers.RUN_BLOCK)
    y, _, mu_x, mu_y, accept = lane._proposals(x, lane.mu_x, lane.target, d, u)
    ratio = lane._hastings_ratio(x, mu_x, y, mu_y)
    with_q = oracles.hastings_ratio_with_q(proposal, x, mu_x, y, mu_y)
    assert np.all(np.abs(ratio - with_q)
                  <= 4.0 * np.spacing(np.maximum(ratio, with_q)))
    assert _same(accept, u < balancing.g(with_q))


@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_imcmc_engine_stored_equals_lockstep(reps, p, family, model):
    def engine(collect_states):
        streams, _ = samplers._replication_streams(11, reps, p)
        return samplers._imcmc_engine(
            family, model, p, 1100, streams, 0.0, f=f_clip,
            f_nodes=f_clip(model.grid.nodes), collect_states=collect_states,
            trace_weight=WeightFunction.one_plus_square())

    stored, lockstep = engine(True), engine(False)
    assert stored["states"].shape == (p, reps, 1100)
    for name in ("finals", "accepts", "folds"):
        assert len(stored[name]) == p
        for a, b in zip(stored[name], lockstep[name]):
            assert _same(a, b), name
    for name in ("f_sums", "center_sums"):
        assert _same(stored[name], lockstep[name]), name
    for name in ("sup_increments", "v_increments", "snapshots"):
        assert _same(getattr(stored["trace"], name),
                     getattr(lockstep["trace"], name)), name
    assert np.max(stored["trace"].sup_increments) > 0.0


def test_state_storage_cap_refuses_before_allocating(monkeypatch, family, model,
                                                     flow1_kernel):
    monkeypatch.setattr(samplers, "STATE_STORAGE_CAP", 1000)
    for call in (lambda n: run_smcmc(family, model, 2, n, 1),
                 lambda n: run_imcmc(family, model, 2, n, 1),
                 lambda n: run_limiting_chain(flow1_kernel, 0.0, 2 * n, 1)):
        with pytest.raises(ResourceLimitError, match="1002 stored states need"):
            call(501)
        call(500)
    # a CLT run stores only its limiting chain, and is refused before any
    # replication runs
    engine_calls = []
    monkeypatch.setattr(samplers, "_smcmc_engine",
                        lambda *args, **kwargs: engine_calls.append(args))
    config = SchemeConfig(family=family, model=model)
    with pytest.raises(ResourceLimitError, match="1002 stored states need"):
        clt_experiment("smcmc", config, f_smooth, 1002, 100, 1)
    assert engine_calls == []


# ---------------------------------------------------------------------------
# batch means
# ---------------------------------------------------------------------------

def test_batch_means_on_independent_draws(grid):
    # independence proposal drawing the target itself never rejects, so the
    # chain is a stream of independent draws with known variance
    target = gaussian_density(grid, 0.0, 1.0)
    fam = HastingsFamily(ProposalKernel.independence(target),
                         BalancingFunction.min_one())
    run = run_limiting_chain(fam.at(target, validate=False), 0.0, 100_000, 5)
    assert run.acceptance_rate == 1.0
    f_nodes = f_smooth(grid.nodes)
    analytic = target.expect(f_nodes ** 2) - target.expect(f_nodes) ** 2
    bm = batch_means_variance(run, f_smooth, 1000)
    assert abs(bm / analytic - 1.0) < 0.15


def test_batch_means_agrees_with_resolvent_route(long_run, grid):
    target, run = long_run
    from mcmccalc.ergodicity import asymptotic_variance, poisson_resolvent
    from mcmccalc.kernels import HastingsKernel as HK
    fam = HastingsFamily(ProposalKernel.random_walk(1.0, grid),
                         BalancingFunction.barker())
    kern = fam.at(target, validate=False)
    f_nodes = f_smooth(grid.nodes)
    centered = f_nodes - target.expect(f_nodes)
    sigma2 = asymptotic_variance(kern, poisson_resolvent(kern, centered))
    bm = batch_means_variance(run, f_smooth, 400)
    assert abs(bm / sigma2 - 1.0) < 0.15


def test_batch_means_ignores_leading_remainder(flow1_kernel):
    run = run_limiting_chain(flow1_kernel, 0.0, 1013, 6)
    trimmed = ChainRun(run.states[13:], 0, "trim", 0.5, 0)
    assert batch_means_variance(run, f_smooth, 20) == pytest.approx(
        batch_means_variance(trimmed, f_smooth, 20), abs=0.0)


def test_batch_means_validation(flow1_kernel):
    run = run_limiting_chain(flow1_kernel, 0.0, 30, 1)
    with pytest.raises(InvalidInputError, match=">= 20"):
        batch_means_variance(run, f_smooth, 6)
    with pytest.raises(InvalidInputError, match="cannot fill"):
        batch_means_variance(run, f_smooth, 40)
    with pytest.raises(InvalidInputError):
        batch_means_variance(run, "not callable", 20)


# ---------------------------------------------------------------------------
# sequential scheme
# ---------------------------------------------------------------------------

def test_smcmc_depth_one_is_the_limiting_chain(family, model, flow1_kernel):
    lim = run_limiting_chain(flow1_kernel, 0.0, 5000, 99)
    seq = run_smcmc(family, model, 1, 5000, 99)
    assert len(seq) == 1
    run, emp = seq[0]
    assert np.array_equal(run.states, lim.states)
    assert emp.n_samples == 5000


def test_smcmc_levels_target_the_mixture(family, model, grid):
    levels = run_smcmc(family, model, 2, 20_000, 7)
    (r1, e1), (r2, e2) = levels
    assert 0.3 < r1.acceptance_rate < 0.5
    assert 0.3 < r2.acceptance_rate < 0.5
    target2 = model.transform(1, e1)
    kern2 = family.at(target2, validate=False)
    assert check_invariance(kern2) < 1e-12
    f_nodes = f_smooth(grid.nodes)
    assert abs(e2.expect(f_smooth) - target2.expect(f_nodes)) < 0.02
    assert "mixture target level 2" in r2.kernel_descriptor


def test_smcmc_is_bit_reproducible_and_init_matters(family, model):
    a = run_smcmc(family, model, 2, 1000, 17)
    b = run_smcmc(family, model, 2, 1000, 17)
    c = run_smcmc(family, model, 2, 1000, 17, level_init="fixed")
    for (ra, _), (rb, _) in zip(a, b):
        assert np.array_equal(ra.states, rb.states)
    # the level-1 chain is shared; the restart changes level 2 only
    assert np.array_equal(a[0][0].states, c[0][0].states)
    assert not np.array_equal(a[1][0].states, c[1][0].states)


def test_smcmc_degenerate_weights_name_the_level(family, model, grid):
    nodes = grid.nodes.copy()

    def on_node_only(y):
        y = np.asarray(y, dtype=float)
        hit = np.isclose(y[..., None], nodes, rtol=0.0, atol=1e-12).any(axis=-1)
        return np.where(hit, 1.0, 0.0)

    mutation = gaussian_mutation(np.tanh, np.sqrt(0.5))
    tricky = FeynmanKacModel(grid, [on_node_only], [mutation], model.flow(1))
    with pytest.raises(DegenerateWeightsError, match="level 2"):
        run_smcmc(family, tricky, 2, 50, 4, x0=0.123456)


def test_smcmc_validation(family, model):
    with pytest.raises(RangeError, match="model has 8"):
        run_smcmc(family, model, 12, 100, 1)
    with pytest.raises(InvalidInputError):
        run_smcmc(family, model, 2, 0, 1)
    with pytest.raises(InvalidInputError):
        run_smcmc(family, model, 2, 100, 1, level_init="warm")
    with pytest.raises(InvalidInputError):
        run_smcmc(GibbsFamily(), model, 2, 100, 1)


# ---------------------------------------------------------------------------
# interacting scheme
# ---------------------------------------------------------------------------

def test_imcmc_depth_one_is_the_limiting_chain(family, model, flow1_kernel):
    lim = run_limiting_chain(flow1_kernel, 0.0, 1500, 55)
    inter = run_imcmc(family, model, 1, 1500, 55)
    assert len(inter) == 1
    assert np.array_equal(inter[0].states, lim.states)


def test_imcmc_is_bit_reproducible(family, model):
    a = run_imcmc(family, model, 2, 800, 99)
    b = run_imcmc(family, model, 2, 800, 99)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.states, rb.states)
    assert "running mixture level 2" in a[1].kernel_descriptor


def test_imcmc_frozen_lower_level_is_homogeneous(family, model, grid):
    eta = gaussian_density(grid, 0.3, 1.1)
    frozen = run_imcmc(family, model, 2, 4000, 123, freeze_lower=eta)
    kern = family.at(model.transform(1, eta), validate=False)
    stream = npr.default_rng(npr.SeedSequence(123).spawn(2)[1])
    lim = run_limiting_chain(kern, 0.0, 4000, stream)
    assert np.array_equal(frozen[1].states, lim.states)
    assert "frozen mixture" in frozen[1].kernel_descriptor
    # the frozen target never moves, so the adaptation trace is silent
    _, trace = run_imcmc(family, model, 2, 800, 99, freeze_lower=eta,
                         trace_weight=WeightFunction.one_plus_square())
    assert float(np.max(trace.sup_increments)) == 0.0
    with pytest.raises(InvalidInputError, match="depth-2"):
        run_imcmc(family, model, 3, 100, 1, freeze_lower=eta)


def test_imcmc_trace_statistics_trend_down(family, model):
    weight = WeightFunction.one_plus_square()
    runs, trace = run_imcmc(family, model, 2, 20_000, 5, trace_weight=weight)
    assert isinstance(trace, AdaptationTrace)
    assert trace.sup_increments.shape == (20_000,)
    report = check_adaptation_conditions(trace, weight=weight, family=family)
    assert report.passed
    assert report.slope_sup < -0.1
    assert report.slope_v < -0.1
    assert report.d1_sup_stats[-1] < np.max(report.d1_sup_stats) / 3.0
    assert report.scan_all_finite
    assert report.c1_gaps[-1] == 0.0  # reference defaults to the last snapshot


def test_checkpoints_are_the_unique_geometric_marks():
    for n in range(1, 5001):
        marks = np.geomspace(1, n, min(samplers._TRACE_POINTS, n)).astype(int)
        assert _same(samplers._checkpoint_indices(n), np.unique(marks)), n


def test_imcmc_run_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use, which costs every run 10 ms
    script = (
        "import sys\n"
        "from mcmccalc.feynman_kac import default_ssm_model\n"
        "from mcmccalc.kernels import BalancingFunction, HastingsFamily, ProposalKernel\n"
        "from mcmccalc.measures import WeightFunction\n"
        "from mcmccalc.samplers import run_imcmc\n"
        "model = default_ssm_model()\n"
        "family = HastingsFamily(ProposalKernel.random_walk(1.0, model.grid),\n"
        "                        BalancingFunction.barker())\n"
        "run_imcmc(family, model, 2, 200, 3,\n"
        "          trace_weight=WeightFunction.one_plus_square())\n"
        "assert 'numpy.ma' not in sys.modules\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr


def test_imcmc_validation(family, model):
    with pytest.raises(RangeError, match="model has 8"):
        run_imcmc(family, model, 11, 100, 1)
    with pytest.raises(InvalidInputError):
        run_imcmc(family, model, 2, 0, 1)


# ---------------------------------------------------------------------------
# adaptation diagnostics on explicit density sequences
# ---------------------------------------------------------------------------

def test_adaptation_frozen_sequence_passes_trivially(grid):
    d = gaussian_density(grid, 0.0, 1.0)
    report = check_adaptation_conditions([d, d, d, d, d])
    assert report.passed
    assert float(np.max(report.d1_sup_stats)) == 0.0
    assert report.slope_sup == 0.0 and report.slope_v == 0.0
    assert float(np.max(report.c1_gaps)) == 0.0


def test_adaptation_alternating_sequence_fails(grid):
    a = gaussian_density(grid, 0.0, 1.0)
    b = gaussian_density(grid, 0.5, 1.2)
    report = check_adaptation_conditions([a, b] * 12)
    assert not report.passed
    assert report.slope_sup > 0.3  # square-root growth of the partial sums
    assert not report.sup_trending


def test_adaptation_reference_and_scan(grid, family):
    mids = np.linspace(0.5, 0.0, 9)
    seq = [gaussian_density(grid, m, 1.0) for m in mids]
    ref = gaussian_density(grid, 0.0, 1.0)
    report = check_adaptation_conditions(seq, family=family, reference=ref,
                                         scan_points=[-1.0, 0.0, 1.0])
    assert report.c1_shrinking
    assert report.c1_gaps[-1] == pytest.approx(0.0, abs=1e-15)
    assert report.scan_max_m_x is not None and np.isfinite(report.scan_max_m_x)
    assert report.scan_all_finite


def test_adaptation_validation(grid):
    d = gaussian_density(grid, 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        check_adaptation_conditions([d])
    with pytest.raises(InvalidInputError):
        check_adaptation_conditions([d, "not a density"])
    other = gaussian_density(Grid1D(-4.0, 4.0, 65), 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        check_adaptation_conditions([d, other])


# ---------------------------------------------------------------------------
# the CLT harness
# ---------------------------------------------------------------------------

def test_experiment_replication_equals_standalone_run(family, model):
    reps, n = 3, 400
    streams, _ = samplers._replication_streams(77, reps, 2)
    engine = samplers._smcmc_engine(family, model, 2, n, streams, 0.0,
                                    "previous-final", collect_states=True,
                                    f=f_clip)
    children = npr.SeedSequence(77).spawn(reps + 1)
    for r in range(reps):
        levels = run_smcmc(family, model, 2, n, children[r])
        for j in (0, 1):
            assert np.array_equal(levels[j][0].states,
                                  engine["levels"][j]["states"][r])
        total = 0.0
        for value in f_clip(levels[1][0].states):  # the stepping order
            total += value
        assert engine["levels"][1]["f_sums"][r] == total


def test_incremental_mixture_matches_the_transform(family, model, grid):
    reps, n = 2, 400
    streams, _ = samplers._replication_streams(77, reps, 2)
    stored = samplers._smcmc_engine(family, model, 2, n, streams, 0.0,
                                    "previous-final", collect_states=True)
    streams2, _ = samplers._replication_streams(77, reps, 2)
    running = samplers._smcmc_engine(family, model, 2, n, streams2, 0.0,
                                     "previous-final", collect_states=False)
    w = grid.trapezoid_weights()
    for r in range(reps):
        emp = EmpiricalMeasure(stored["levels"][0]["states"][r])
        dens = model.transform(1, emp)
        table = running["final_table"][r]
        assert np.max(np.abs(table / (table @ w) - dens.values)) < 1e-12


def _run_engine(monkeypatch, accumulator, scheme, p, reps, family, model):
    """One engine run with ``accumulator`` standing in for the mixture
    accumulator; returns the engine output and every accumulator built."""
    built = []

    class Recording(accumulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(samplers, "_MixtureAccumulator", Recording)
    streams, _ = samplers._replication_streams(5, reps, p)
    if scheme == "smcmc":
        out = samplers._smcmc_engine(family, model, p, 300, streams, 0.0,
                                     "previous-final", collect_states=False,
                                     f=f_clip)
    else:
        out = samplers._imcmc_engine(family, model, p, 300, streams, 0.0,
                                     f=f_clip, f_nodes=f_clip(model.grid.nodes),
                                     collect_states=True)
    return out, built


@pytest.mark.parametrize("scheme", ["smcmc", "imcmc"])
@pytest.mark.parametrize("reps", [1, 5])
@pytest.mark.parametrize("p", [2, 3])
def test_mixture_cache_matches_dense_accumulation(monkeypatch, scheme, reps, p,
                                                  family, model, grid):
    cached, cached_accs = _run_engine(monkeypatch, samplers._MixtureAccumulator,
                                      scheme, p, reps, family, model)
    dense, dense_accs = _run_engine(monkeypatch, oracles.DenseMixtureAccumulator,
                                    scheme, p, reps, family, model)
    assert len(cached_accs) == len(dense_accs) == p - 1
    w = grid.trapezoid_weights()
    for a, b in zip(cached_accs, dense_accs):
        if reps == 1:  # the same single-row products as the dense path
            assert np.array_equal(a.table, b.table)
        np.testing.assert_allclose(a.table, b.table, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(a.table @ w, b.table @ w, rtol=1e-12, atol=0.0)
    if scheme == "smcmc":
        for a, b in zip(cached["levels"], dense["levels"]):
            assert np.array_equal(a["finals"], b["finals"])
            assert np.array_equal(a["accepts"], b["accepts"])
        assert np.array_equal(cached["levels"][-1]["f_sums"],
                              dense["levels"][-1]["f_sums"])
    else:
        assert np.array_equal(cached["states"], dense["states"])
        np.testing.assert_allclose(cached["center_sums"], dense["center_sums"],
                                   rtol=1e-12, atol=0.0)
        top, top_dense = cached_accs[-1], dense_accs[-1]
        np.testing.assert_allclose(top.center_num, top_dense.center_num,
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(top.center_den, top_dense.center_den,
                                   rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("scheme, reps", [
    ("smcmc", 6),  # the replicated running mixture, stepped in lockstep
    ("imcmc", 1),  # the stored one-chain loop of run_imcmc
])
def test_mixture_recomputes_rows_only_for_moved_chains(monkeypatch, family,
                                                       model, scheme, reps):
    computed = []
    rows = MutationKernel.rows

    def counting_rows(self, grid, xs):
        out = rows(self, grid, xs)
        computed.append(out.shape[0])
        return out

    monkeypatch.setattr(MutationKernel, "rows", counting_rows)
    n = 300
    if scheme == "smcmc":
        streams, _ = samplers._replication_streams(8, reps, 2)
        out = samplers._smcmc_engine(family, model, 2, n, streams, 0.0,
                                     "previous-final", collect_states=False)
        accepts = int(out["levels"][0]["accepts"].sum())
    else:
        lower, _ = run_imcmc(family, model, 2, n, 8)
        accepts = round(lower.acceptance_rate * n)
    # every chain on the first step, then one row per accepted move
    assert computed[0] == reps
    assert accepts <= sum(computed) <= reps + accepts < reps * n


@pytest.mark.parametrize("n_rows", [1, 5])
def test_matrix_rows_at_reads_each_row_at_its_own_point(grid, n_rows):
    rng = npr.default_rng(n_rows)
    table = rng.uniform(0.5, 2.0, size=(n_rows, grid.n_points))
    # two points per row, as a proposal step gathers them; the last node too
    xs = rng.uniform(grid.lower, grid.upper, size=(2, n_rows))
    xs[1, -1] = grid.upper
    want = [[np.interp(x, grid.nodes, row) for x, row in zip(point, table)]
            for point in xs]
    np.testing.assert_allclose(samplers._matrix_rows_at(grid, table, xs), want,
                               rtol=1e-13, atol=0.0)


def test_normality_statistics_match_scipy():
    rng = npr.default_rng(3)
    for sample in (rng.standard_normal(200), rng.gamma(2.0, size=150),
                   3.0 + 0.1 * rng.standard_t(4, size=120)):
        z = (sample - np.mean(sample)) / np.std(sample, ddof=1)
        expected = (scipy_stats.skew(z), scipy_stats.kurtosis(z),
                    scipy_stats.kstest(z, "norm").statistic)
        np.testing.assert_allclose(samplers._normality(sample), expected,
                                   rtol=1e-12, atol=0.0)


def test_clt_smcmc_report_matches_pinned_values(smcmc_report):
    rep = smcmc_report
    assert rep.scheme == "smcmc" and rep.depth == 2
    assert rep.n_steps == 2000 and rep.replications == 100
    assert rep.replication_variance == pytest.approx(0.411391, abs=5e-6)
    assert rep.asymptotic_variance_poisson == pytest.approx(0.415209, abs=5e-6)
    assert rep.replication_variance_deterministic == pytest.approx(0.447346, abs=5e-6)
    assert rep.extra_variance == pytest.approx(0.007942, abs=5e-6)
    assert rep.predicted_variance_deterministic == pytest.approx(
        rep.asymptotic_variance_poisson + rep.extra_variance, rel=1e-12)
    assert rep.asymptotic_variance_batchmeans == pytest.approx(0.375482, abs=5e-6)
    assert rep.estimate == pytest.approx(0.857632, abs=5e-6)
    assert rep.f_fractional_norm == pytest.approx(1.037695, abs=5e-6)
    assert rep.fractional_exponent == 0.25
    assert rep.d1_sup_stats is None
    # reduced-scale gates, generous against replication noise
    assert 0.75 < rep.replication_variance / rep.asymptotic_variance_poisson < 1.25
    assert 0.75 < (rep.replication_variance_deterministic
                   / rep.predicted_variance_deterministic) < 1.25
    sk, ku, ks = rep.normality_stats
    assert abs(sk) < 0.5 and abs(ku) < 1.0 and ks < 0.12
    assert "replication" in rep.describe()


def test_clt_imcmc_report_doubles_the_extra_term(imcmc_report, smcmc_report):
    rep = imcmc_report
    assert rep.scheme == "imcmc"
    assert rep.replication_variance == pytest.approx(0.37554, abs=5e-5)
    assert rep.replication_variance_deterministic == pytest.approx(0.39460, abs=5e-5)
    # the interacting scheme carries twice the sequential approximation term
    assert rep.extra_variance == pytest.approx(2.0 * smcmc_report.extra_variance,
                                               rel=1e-9)
    assert 0.75 < rep.replication_variance / rep.asymptotic_variance_poisson < 1.25
    assert 0.75 < (rep.replication_variance_deterministic
                   / rep.predicted_variance_deterministic) < 1.25
    assert rep.d1_sup_stats is not None
    # the scaled partial sums ramp up while the mixture forms, peak, and decay
    assert rep.d1_sup_stats[-1] < 0.7 * np.max(rep.d1_sup_stats)
    assert rep.d1_sup_stats[-1] < rep.d1_sup_stats[-2] < rep.d1_sup_stats[-3]
    assert rep.d1_checkpoints[-1] == 1500


def test_clt_constant_function_kills_the_statistic(family, model):
    cfg = SchemeConfig(family=family, model=model)

    def const(x):
        return np.full_like(np.asarray(x, dtype=float), 2.5)

    rep = clt_experiment("smcmc", cfg, const, 2000, 100, 9)
    assert rep.replication_variance < 1e-25
    assert rep.replication_variance_deterministic < 1e-25
    assert rep.normality_stats == (0.0, 0.0, 0.0)


def test_clt_doubling_steps_halves_the_error_variance(family, model):
    cfg = SchemeConfig(family=family, model=model)
    short = clt_experiment("smcmc", cfg, f_clip, 2000, 200, 21)
    long = clt_experiment("smcmc", cfg, f_clip, 4000, 200, 21)
    unscaled_ratio = (short.replication_variance / 2000) / (
        long.replication_variance / 4000)
    assert 1.6 < unscaled_ratio < 2.4


def test_clt_independence_proposal_scheme(model, grid):
    base = gaussian_density(grid, 0.0, 1.3)
    fam = HastingsFamily(ProposalKernel.independence(base),
                         BalancingFunction.min_one())
    cfg = SchemeConfig(family=fam, model=model)
    rep = clt_experiment("smcmc", cfg, f_smooth, 2000, 100, 11)
    assert 0.8 < rep.replication_variance / rep.asymptotic_variance_poisson < 1.25
    assert 0.8 < (rep.replication_variance_deterministic
                  / rep.predicted_variance_deterministic) < 1.25


def test_clt_experiment_validation(family, model):
    cfg = SchemeConfig(family=family, model=model)
    with pytest.raises(InvalidInputError):
        clt_experiment("other", cfg, f_clip, 2000, 100, 1)
    with pytest.raises(InvalidInputError, match="100 replications"):
        clt_experiment("smcmc", cfg, f_clip, 2000, 50, 1)
    with pytest.raises(InvalidInputError):
        clt_experiment("smcmc", cfg, "not callable", 2000, 100, 1)
    with pytest.raises(InvalidInputError, match="below the batch count"):
        clt_experiment("smcmc", cfg, f_clip, 30, 100, 1)
    deep = SchemeConfig(family=family, model=model, p_levels=3)
    with pytest.raises(InvalidInputError, match="depth-2"):
        clt_experiment("imcmc", deep, f_clip, 500, 100, 1)
    warm = SchemeConfig(family=family, model=model, level_init="previous-final")
    with pytest.raises(InvalidInputError, match="start at x0"):
        clt_experiment("imcmc", warm, f_clip, 500, 100, 1)
    with pytest.raises(InvalidInputError):
        clt_experiment("smcmc", "not a config", f_clip, 2000, 100, 1)


def test_scheme_config_validation(family, model):
    with pytest.raises(RangeError, match=r"alpha must lie in \(0, 1/2\)"):
        SchemeConfig(family=family, model=model, alpha=0.5)
    with pytest.raises(RangeError):
        SchemeConfig(family=family, model=model, alpha=0.0)
    with pytest.raises(InvalidInputError):
        SchemeConfig(family=family, model=model, x0=11.0)
    with pytest.raises(InvalidInputError):
        SchemeConfig(family=family, model=model, batch_count=5)
    with pytest.raises(RangeError):
        SchemeConfig(family=family, model=model, p_levels=12)
    with pytest.raises(InvalidInputError):
        SchemeConfig(family=family, model=model, level_init="warm")
    cfg = SchemeConfig(family=family, model=model)
    assert cfg.weight is not None  # defaulted quadratic growth weight
    assert cfg.alpha == 0.25


def test_fractional_norm_values_and_validation(grid):
    weight = WeightFunction.one_plus_square().values_on(grid)
    val = v_alpha_norm(f_clip(grid.nodes), weight, 0.25)
    assert val == pytest.approx(2.817485228658589, rel=1e-12)
    with pytest.raises(RangeError):
        v_alpha_norm(f_clip(grid.nodes), weight, 0.7)
    with pytest.raises(InvalidInputError):
        v_alpha_norm(f_clip(grid.nodes), weight[:-1], 0.25)
    with pytest.raises(InvalidInputError):
        v_alpha_norm(f_clip(grid.nodes), np.full(grid.n_points, 0.5), 0.25)
