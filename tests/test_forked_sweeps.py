"""Forked sweeps of the grid kinds: the FTC curve points, the density-start
mean-value budgets, the mean-value trials and the ergodicity sample chains
each make one ``run_forked`` call, give the same bits at one and two workers
and leave no child behind; the sweeps that stay in the caller fork nothing."""

import dataclasses
import os

import numpy as np
import pytest

from mcmccalc import calculus, cli
from mcmccalc.calculus import (
    MviConstants,
    _hastings_start_law,
    empirical_mvi_check,
    gibbs_mvi_constants,
    hastings_mvi_constants,
    mh_mvi_constants,
    mvi_bound,
    random_bv_function,
    verify_ftc,
)
from mcmccalc.errors import PreconditionError
from mcmccalc.feynman_kac import default_ssm_model
from mcmccalc.kernels import BalancingFunction, GibbsFamily, HastingsFamily, ProposalKernel
from mcmccalc.measures import (
    Grid1D,
    Grid2D,
    GridDensity,
    WeightFunction,
    gaussian2d_density,
    gaussian_density,
    integrate_values,
)
from mcmccalc.workers import run_forked, shards, worker_count

GRID = Grid1D(-8.0, 8.0, 257)
MU = gaussian_density(GRID, 0.0, 1.0)
NU = gaussian_density(GRID, 0.3, 1.15)
RHO = gaussian_density(GRID, 0.0, 0.45)
WEIGHT = WeightFunction.one_plus_square()


def _family(balancing):
    return HastingsFamily(ProposalKernel.random_walk(1.0, GRID), balancing)


def _barker_constants():
    return hastings_mvi_constants(_family(BalancingFunction.barker()), MU, NU, RHO, WEIGHT)


def _min_one_constants():
    return mh_mvi_constants(_family(BalancingFunction.min_one()), MU, NU, RHO, WEIGHT)


def _ftc(start):
    def call():
        report = verify_ftc(_family(BalancingFunction.barker()), MU, NU, start,
                            np.cos(0.8 * GRID.nodes))
        return report.lhs, report.rhs, report.residual, report.node_actions
    return call


def _trials(start):
    constants = (MviConstants(2.0, 0.0, WEIGHT.description, 5, "density", "none")
                 if isinstance(start, GridDensity) else
                 MviConstants(2.0, 0.5, WEIGHT.description, 5, "point", "point-gap"))
    return lambda: empirical_mvi_check(_family(BalancingFunction.barker()), MU, NU, start,
                                       WEIGHT, constants, n_trials=40, seed=7)


GRID2 = Grid2D(Grid1D(-6.0, 6.0, 33), Grid1D(-6.0, 6.0, 33))
MU2 = gaussian2d_density(GRID2, [0.0, 0.0], np.array([[1.0, 0.4], [0.4, 1.0]]))
NU2 = gaussian2d_density(GRID2, [0.3, -0.2], np.array([[1.1, 0.15], [0.15, 0.9]]))


def _two_stage_trials(start):
    constants = gibbs_mvi_constants(GibbsFamily(), MU2, NU2, start, WEIGHT, t_nodes=5)
    return empirical_mvi_check(GibbsFamily(), MU2, NU2, start, WEIGHT, constants,
                               n_trials=4, seed=3)


def _sample_sets():
    model = default_ssm_model(Grid1D(-8.0, 8.0, 129))
    family = HastingsFamily(ProposalKernel.random_walk(1.0, model.grid),
                            BalancingFunction.barker())
    return [empirical.samples for empirical in cli._sample_sets(family, model, 11, 5, 300)]


def _fields(result):
    if dataclasses.is_dataclass(result):
        return dataclasses.astuple(result)
    if isinstance(result, dict):
        return [result[key] for key in sorted(result)]
    return result


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# (module whose run_forked the sweep calls, the call)
SWEEPS = {
    "FTC curve points, density start": (calculus, _ftc(RHO)),
    "FTC curve points, point start": (calculus, _ftc(0.37)),
    "barker constants, density start": (calculus, _barker_constants),
    "min-one constants, density start": (calculus, _min_one_constants),
    "trials, density start": (calculus, _trials(RHO)),
    "trials, point start": (calculus, _trials(0.37)),
    "ergodicity sample sets": (cli, _sample_sets),
    "two-stage trials, density start": (calculus, lambda: _two_stage_trials(MU2)),
    "two-stage trials, point start": (calculus, lambda: _two_stage_trials((0.5, -0.75))),
}


@pytest.mark.parametrize("name", SWEEPS)
def test_a_sweep_forks_once_and_keeps_its_bits(monkeypatch, name):
    module, call = SWEEPS[name]
    counts = []

    def counting(run, pieces):
        counts.append(len(pieces))
        return run_forked(run, pieces)

    monkeypatch.setattr(module, "run_forked", counting)
    results, expected = [], []
    for threads in ("1", "2"):
        monkeypatch.setenv("MCMCCALC_THREADS", threads)
        results.append(call())
        expected.append(worker_count(2))  # 2 wherever two CPUs can fork
    assert counts == expected
    _no_children_left()
    one, two = (_fields(result) for result in results)
    assert len(one) == len(two)
    for a, b in zip(one, two):
        assert _same_bits(a, b)


def _refuse_to_fork(run, pieces):
    raise AssertionError("this sweep must not fork")


def test_a_forked_ftc_curve_point_names_its_t_in_the_caller(monkeypatch):
    monkeypatch.setenv("MCMCCALC_THREADS", "2")
    narrow = gaussian_density(GRID, 0.0, 0.4)  # only t = 1 puts rho/mu_t^2 over the ceiling
    with pytest.raises(PreconditionError,
                       match=r"derivative unavailable along the curve at t=1: .*exceeds ceiling"):
        verify_ftc(_family(BalancingFunction.barker()), MU, narrow, RHO, np.cos(GRID.nodes),
                   t_nodes=5)  # t = 1 is in the last of two shards, a forked one
    _no_children_left()


def test_a_curve_point_over_the_warm_start_ceiling_is_refused_before_any_fork(monkeypatch):
    monkeypatch.setattr(calculus, "run_forked", _refuse_to_fork)
    narrow = gaussian_density(GRID, 0.0, 0.4)  # only t = 1 puts rho/mu_t^2 over the ceiling
    with pytest.raises(PreconditionError, match=r"along the curve at t=1: .*exceeds ceiling"):
        hastings_mvi_constants(_family(BalancingFunction.barker()), MU, narrow, RHO, WEIGHT)


@pytest.mark.parametrize("call", [
    lambda: hastings_mvi_constants(_family(BalancingFunction.barker()), MU, NU, 0.37,
                                   WEIGHT, t_nodes=5),
    lambda: mh_mvi_constants(_family(BalancingFunction.min_one()), MU, NU, -1.01, WEIGHT,
                             t_nodes=5),
    lambda: gibbs_mvi_constants(GibbsFamily(), MU2, NU2, MU2, WEIGHT, t_nodes=5),
], ids=["barker point start", "min-one point start", "two-stage density start"])
def test_point_starts_and_two_stage_constants_fork_nothing(monkeypatch, call):
    monkeypatch.setattr(calculus, "run_forked", _refuse_to_fork)
    monkeypatch.setenv("MCMCCALC_THREADS", "2")
    call()


@pytest.mark.parametrize("start", [RHO, 0.37])
def test_the_largest_trial_ratio_is_the_largest_per_trial_ratio(start):
    family = _family(BalancingFunction.barker())
    constants = hastings_mvi_constants(family, MU, NU, start, WEIGHT, t_nodes=5)
    got = empirical_mvi_check(family, MU, NU, start, WEIGHT, constants, n_trials=60, seed=2)
    bound = mvi_bound(constants, MU, NU, start, WEIGHT)
    law = (_hastings_start_law(family.at(MU), start)
           - _hastings_start_law(family.at(NU), start))
    v = WEIGHT.values_on(GRID)
    ratios = [abs(integrate_values(GRID, law * random_bv_function(
        GRID, v, np.random.default_rng(child)))) / bound
        for child in np.random.SeedSequence(2).spawn(60)]
    assert got["max_ratio"] == max(ratios)


@pytest.mark.parametrize("count, n_workers", [(1, 1), (5, 1), (5, 2), (17, 2), (2, 2),
                                              (200, 3)])
def test_shards_cover_the_pieces_in_order_and_evenly(count, n_workers):
    ranges = shards(count, n_workers)
    assert len(ranges) == n_workers
    assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
    assert ranges[-1][1] == count
    sizes = [hi - lo for lo, hi in ranges]
    assert max(sizes) - min(sizes) <= 1
