"""The config validator and the library share one copy of each input rule:
a bad value is refused at config time (exit 2, before any output exists) in
the words of the library routine that would refuse it at run time."""

import json

import numpy as np
import pytest

from mcmccalc.calculus import verify_ftc
from mcmccalc.cli import load_config, main
from mcmccalc.errors import ConfigError
from mcmccalc.feynman_kac import default_ssm_model
from mcmccalc.kernels import BalancingFunction, HastingsFamily, ProposalKernel
from mcmccalc.measures import (
    Grid1D,
    Grid2D,
    gaussian2d_density,
    gaussian_density,
    gaussian_mixture_density,
)
from mcmccalc.samplers import SchemeConfig, clt_experiment, run_smcmc

MODEL = default_ssm_model(Grid1D(-8.0, 8.0, 65))
FAMILY = HastingsFamily(ProposalKernel.random_walk(1.0, MODEL.grid),
                        BalancingFunction.barker())
WINDOW = Grid1D(-8.0, 8.0, 513)
NON_PD = [[1.0, 2.0], [2.0, 1.0]]


def _config(**over):
    return SchemeConfig(family=FAMILY, model=MODEL, **over)


def _clt(scheme="smcmc", n=2000, replications=100, **over):
    return clt_experiment(scheme, _config(**over), np.cos, n, replications, 1)


def _two_stage(key, cov):
    return {"family": {"kind": "two-stage"},
            key: {"shape": "gaussian2d", "mean": [0.0, 0.0], "cov": cov}}


# (kind, config overrides, key path, the library call that refuses the value)
RULES = {
    "replications": ("clt-report", {"replications": 50}, "replications",
                     lambda: _clt(replications=50)),
    "batch-count": ("clt-report", {"batch_count": 10}, "batch_count",
                    lambda: _config(batch_count=10)),
    "depth-smcmc": ("smcmc-run", {"depth": 10}, "depth",
                    lambda: run_smcmc(FAMILY, MODEL, 10, 100, 1)),
    "depth-clt": ("clt-report", {"depth": 10}, "depth",
                  lambda: _config(p_levels=10)),
    "sigma-wide": ("derivative-check", {"family": {"sigma": 5.0}}, "family.sigma",
                   lambda: ProposalKernel.random_walk(5.0, WINDOW)),
    "sigma-negative": ("smcmc-run", {"family": {"sigma": -2.0}}, "family.sigma",
                       lambda: ProposalKernel.random_walk(-2.0, WINDOW)),
    "alpha": ("clt-report", {"alpha": 0.7}, "alpha", lambda: _config(alpha=0.7)),
    "scheme": ("clt-report", {"scheme": "annealed"}, "scheme",
               lambda: _clt(scheme="annealed")),
    "imcmc-depth": ("clt-report", {"scheme": "imcmc", "depth": 3}, "depth",
                    lambda: _clt(scheme="imcmc", p_levels=3)),
    "imcmc-level-init": ("clt-report", {"scheme": "imcmc", "level_init": "previous-final"},
                         "level_init",
                         lambda: _clt(scheme="imcmc", level_init="previous-final")),
    "steps-below-batches": ("clt-report", {"steps": 30}, "steps", lambda: _clt(n=30)),
    "level-init-smcmc": ("smcmc-run", {"level_init": "warm"}, "level_init",
                         lambda: run_smcmc(FAMILY, MODEL, 2, 100, 1, level_init="warm")),
    "level-init-clt": ("clt-report", {"level_init": "warm"}, "level_init",
                       lambda: _config(level_init="warm")),
    "cov": ("derivative-check", _two_stage("target", NON_PD), "target.cov",
            lambda: gaussian2d_density(Grid2D(WINDOW, WINDOW), [0.0, 0.0], NON_PD)),
    "window": ("mvi-check", {"grid": {"lower": 1.0, "upper": -1.0}}, "grid",
               lambda: Grid1D(1.0, -1.0, 33)),
    "mixture": ("derivative-check",
                {"target": {"shape": "mixture", "means": [0.0, 3.0], "stds": [1.0],
                            "weights": [0.5, 0.5]}}, "target",
                lambda: gaussian_mixture_density(WINDOW, [0.0, 3.0], [1.0], [0.5, 0.5])),
    "gaussian-std": ("mvi-check", {"direction": {"shape": "gaussian", "std": -1.0}},
                     "direction.std", lambda: gaussian_density(WINDOW, 0.0, -1.0)),
    "t-nodes-even": ("ftc-check", {"t_nodes": 8}, "t_nodes",
                     lambda: verify_ftc(FAMILY, MODEL.flow(1), MODEL.flow(2), 0.0,
                                        np.cos(MODEL.grid.nodes), t_nodes=8)),
    "steps-smcmc": ("smcmc-run", {"steps": 0}, "steps",
                    lambda: run_smcmc(FAMILY, MODEL, 2, 0, 1)),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_config_problem_quotes_the_library_refusal(rule):
    kind, over, path, call = RULES[rule]
    with pytest.raises(ValueError) as refused:
        call()
    with pytest.raises(ConfigError) as exc:
        load_config(None, kind=kind, overrides=over)
    assert f"{path}: {refused.value}" in exc.value.problems


def _exits_2_without_output(tmp_path, capsys, kind, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": kind, **config}), encoding="utf-8")
    rc = main([kind, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("kind", ["derivative-check", "ftc-check", "mvi-check"])
@pytest.mark.parametrize("key", ["target", "direction"])
def test_non_positive_definite_cov_exits_2_before_compute(tmp_path, capsys, kind, key):
    err = _exits_2_without_output(tmp_path, capsys, kind, _two_stage(key, NON_PD))
    assert f"{key}.cov: covariance must be symmetric positive definite" in err


def test_non_positive_definite_start_cov_exits_2_before_compute(tmp_path, capsys):
    config = {"family": {"kind": "two-stage"},
              "start": {"density": {"shape": "gaussian2d", "cov": NON_PD}}}
    err = _exits_2_without_output(tmp_path, capsys, "derivative-check", config)
    assert "start.density.cov: covariance must be symmetric positive definite" in err


def test_bad_clt_protocol_exits_2_before_compute(tmp_path, capsys):
    err = _exits_2_without_output(tmp_path, capsys, "clt-report",
                                  {"alpha": 0.7, "replications": 50})
    assert "alpha: alpha must lie in (0, 1/2), got 0.7" in err
    assert "replications: need at least 100 replications, got 50" in err


def test_admissible_edges_pass_both_sides():
    # the largest random-walk width, the deepest depth and the smallest counts
    assert load_config(None, kind="derivative-check",
                       overrides={"family": {"sigma": 16.0 / 6.0}})
    assert load_config(None, kind="clt-report", overrides={
        "depth": 9, "replications": 100, "batch_count": 20, "steps": 20,
        "alpha": 0.49}).settings["depth"] == 9
    ProposalKernel.random_walk(16.0 / 6.0, WINDOW)
    _config(p_levels=9, batch_count=20, alpha=0.49)
