"""Point starts between the grid nodes.

A point start is read through the kernel's own law from that point (the row
that ``apply_hastings`` and ``apply_gibbs`` integrate against), by the value
the finite-difference oracle and the FTC left side take, by the point
derivative and by the mean-value trials alike.  So the identities that hold
at a node start hold off the nodes too: the derivative is centred, it agrees
with the oracle, and the FTC residual falls as the t-rule is refined.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmccalc.calculus import _hastings_start_law, verify_ftc
from mcmccalc.cli import main
from mcmccalc.derivative import _value_at_start, derivative_for_start, fd_directional_derivative
from mcmccalc.kernels import (
    BalancingFunction,
    GibbsFamily,
    HastingsFamily,
    ProposalKernel,
    apply_hastings,
)
from mcmccalc.measures import (
    Grid1D,
    Grid2D,
    SignedGridFunction,
    gaussian2d_density,
    gaussian_density,
    integrate_values,
)

# the CLI's curve-kind defaults
GRID = Grid1D(-8.0, 8.0, 513)
MU = gaussian_density(GRID, 0.0, 1.0)
NU = gaussian_density(GRID, 0.3, 1.15)
F = np.cos(0.8 * GRID.nodes) + 0.3 * np.tanh(GRID.nodes)
FAMILIES = {
    "barker": HastingsFamily(ProposalKernel.random_walk(1.0, GRID), BalancingFunction.barker()),
    "gj2": HastingsFamily(ProposalKernel.random_walk(1.0, GRID),
                          BalancingFunction.polynomial(2)),
}

AXIS = Grid1D(-6.0, 6.0, 65)
GRID2 = Grid2D(AXIS, AXIS)
MU2 = gaussian2d_density(GRID2, (0.0, 0.0), np.array([[1.0, 0.4], [0.4, 1.0]]))
NU2 = gaussian2d_density(GRID2, (0.2, -0.1), np.array([[1.21, 0.44], [0.44, 1.21]]))
F2 = (np.cos(0.6 * AXIS.nodes)[:, None] * np.tanh(AXIS.nodes)[None, :]
      + 0.25 * AXIS.nodes[:, None])

# (family, start); 0.37, 1.01 and -0.7 all lie strictly between nodes
CASES = {
    "barker-0.37": ("barker", 0.37),
    "barker-1.01": ("barker", 1.01),
    "gj2-0.37": ("gj2", 0.37),
    "gj2-1.01": ("gj2", 1.01),
    "two-stage-(0.5,-0.7)": ("two-stage", (0.5, -0.7)),
}


def _inputs(name):
    fam, start = CASES[name]
    if fam == "two-stage":
        return GibbsFamily(), MU2, NU2, start, F2
    return FAMILIES[fam], MU, NU, start, F


@pytest.mark.parametrize("name", sorted(CASES))
def test_off_node_derivative_is_centred_and_matches_the_oracle(name):
    family, mu, nu, start, f = _inputs(name)
    deriv = derivative_for_start(family.at(mu), start, f)
    assert deriv.centering_residual() <= 1e-12
    analytic = deriv.action(SignedGridFunction.difference(nu, mu))
    oracle = fd_directional_derivative(family, mu, nu, start, f).require_converged()
    assert abs(analytic - oracle.estimate) <= 1e-8 * max(1.0, abs(oracle.estimate))


@pytest.mark.parametrize("name", sorted(CASES))
def test_off_node_ftc_residual_refines(name):
    family, mu, nu, start, f = _inputs(name)
    fine = verify_ftc(family, mu, nu, start, f, t_nodes=33)
    coarse = verify_ftc(family, mu, nu, start, f, t_nodes=17, reuse=fine)
    assert fine.residual <= 0.5 * coarse.residual


@settings(max_examples=40, deadline=None)
@given(x=st.floats(GRID.lower, GRID.upper), balancing=st.sampled_from(sorted(FAMILIES)))
def test_point_law_and_centering_on_generated_starts(x, balancing):
    kern = FAMILIES[balancing].at(MU)
    value = _value_at_start(kern, x, F)
    assert value == apply_hastings(kern, x, F)
    law = integrate_values(GRID, _hastings_start_law(kern, x) * F)
    assert law == pytest.approx(value, rel=1e-12, abs=1e-15)
    assert derivative_for_start(kern, x, F).centering_residual() <= 1e-12


CLI_STARTS = {
    "barker-0.37": {"start": {"point": 0.37}},
    "barker-1.01": {"start": {"point": 1.01}},
    "gj2-0.37": {"start": {"point": 0.37}, "family": {"balancing": {"exponent": 2}}},
    "gj2-1.01": {"start": {"point": 1.01}, "family": {"balancing": {"exponent": 2}}},
    "two-stage-(0.5,-0.7)": {"start": {"point": [0.5, -0.7]},
                             "family": {"kind": "two-stage"}},
}


@pytest.mark.parametrize("kind", ["derivative-check", "ftc-check", "mvi-check"])
@pytest.mark.parametrize("name", sorted(CLI_STARTS))
def test_off_node_point_starts_pass_every_curve_check(tmp_path, kind, name):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(CLI_STARTS[name], kind=kind)), encoding="utf-8")
    out = tmp_path / "out"
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(row["passed"] for row in manifest["checks"])
