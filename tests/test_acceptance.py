"""End-to-end acceptance suite.

One test per shipped guarantee, each printing a single PASS/FAIL line (run
with ``pytest tests/test_acceptance.py -v -s`` to see them).  The two
fluctuation criteria replicate 200 chains of 10^5 steps each and dominate
the runtime (~2 min apiece); everything else finishes in seconds.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from mcmccalc.calculus import (
    empirical_mvi_check,
    gibbs_mvi_constants,
    mvi_constants,
    verify_ftc,
)
from mcmccalc.cli import main as cli_main
from mcmccalc.derivative import (
    derivative_for_start,
    fd_directional_derivative,
    iterated_derivative,
    iterated_derivative_limit_check,
)
from mcmccalc.ergodicity import (
    asymptotic_variance,
    check_drift,
    check_log_concave_tails,
    check_resolvent_identity,
    find_drift_parameters,
    poisson_resolvent,
)
from mcmccalc.feynman_kac import default_ssm_model, q_bar_operator
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
    gaussian_mixture_density,
)
from mcmccalc.samplers import SchemeConfig, clt_experiment, run_smcmc


def verdict(number, label, ok, detail):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ------------------------------------------------------------ shared setup

GRID = Grid1D(-8.0, 8.0, 513)
MU = gaussian_density(GRID, 0.0, 1.0)
NU = gaussian_density(GRID, 0.3, 1.15)
RHO = gaussian_density(GRID, 0.0, 0.45)
F = np.cos(0.8 * GRID.nodes) + 0.3 * np.tanh(GRID.nodes)
FAMILY = HastingsFamily(ProposalKernel.random_walk(1.0, GRID),
                        BalancingFunction.barker())

AXIS = Grid1D(-6.0, 6.0, 65)
GRID2 = Grid2D(AXIS, AXIS)
MU2 = gaussian2d_density(GRID2, (0.0, 0.0), np.array([[1.0, 0.4], [0.4, 1.0]]))
NU2 = gaussian2d_density(GRID2, (0.2, -0.1), np.array([[1.21, 0.44], [0.44, 1.21]]))
RHO2 = gaussian2d_density(GRID2, (0.0, 0.0), np.array([[0.2025, 0.0], [0.0, 0.2025]]))
F2 = (np.cos(0.6 * GRID2.axis1.nodes)[:, None] * np.tanh(GRID2.axis2.nodes)[None, :]
      + 0.25 * GRID2.axis1.nodes[:, None])


@pytest.fixture(scope="module")
def derivative_sweep():
    """20 randomized single-site configs plus 10 two-coordinate configs.

    Returns the worst analytic-vs-oracle relative gap, every centering
    residual seen, and the elapsed wall time.
    """

    t0 = time.time()
    rng = np.random.default_rng(20260821)
    balancings = [BalancingFunction.barker,
                  lambda: BalancingFunction.polynomial(2),
                  lambda: BalancingFunction.polynomial(8)]
    worst = 0.0
    centerings = []

    for i in range(20):
        bal = balancings[i % 3]()
        if i % 2 == 0:
            proposal = ProposalKernel.random_walk(rng.uniform(0.6, 2.0), GRID)
        else:
            base = gaussian_density(GRID, rng.uniform(-0.5, 0.5), rng.uniform(1.0, 1.6))
            proposal = ProposalKernel.independence(base)
        family = HastingsFamily(proposal, bal)
        if i % 5 == 0:
            m = rng.uniform(0.3, 1.0)
            w = rng.uniform(0.3, 0.7)
            mu = gaussian_mixture_density(GRID, [-m, m],
                                          list(rng.uniform(0.8, 1.1, 2)), [w, 1.0 - w])
        else:
            mu = gaussian_density(GRID, rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.25))
        nu = gaussian_density(GRID, rng.uniform(-0.4, 0.6), rng.uniform(0.9, 1.3))
        if i % 4 == 0:
            start = float(GRID.nodes[rng.integers(192, 321)])
        else:
            start = gaussian_density(GRID, rng.uniform(-0.15, 0.15),
                                     rng.uniform(0.4, 0.5))
        a, b, c = rng.uniform(0.4, 1.2), rng.uniform(0.4, 1.2), rng.uniform(0.0, 3.0)
        d, e = rng.uniform(0.4, 1.2), rng.uniform(0.3, 1.0)
        f = a * np.cos(b * GRID.nodes + c) + d * np.tanh(e * GRID.nodes)
        deriv = derivative_for_start(family.at(mu), start, f)
        analytic = deriv.action(SignedGridFunction.difference(nu, mu))
        rep = fd_directional_derivative(family, mu, nu, start, f).require_converged()
        worst = max(worst, abs(analytic - rep.estimate) / max(1.0, abs(rep.estimate)))
        centerings.append(deriv.centering_residual())

    n1, n2 = GRID2.axis1.nodes, GRID2.axis2.nodes
    for j in range(10):
        s1, s2 = rng.uniform(0.9, 1.2, 2)
        corr = rng.uniform(-0.5, 0.5)
        cov = np.array([[s1 * s1, corr * s1 * s2], [corr * s1 * s2, s2 * s2]])
        mu2 = gaussian2d_density(GRID2, tuple(rng.uniform(-0.3, 0.3, 2)), cov)
        t1, t2 = rng.uniform(0.9, 1.2, 2)
        cn = rng.uniform(-0.4, 0.4)
        nu2 = gaussian2d_density(GRID2, tuple(rng.uniform(-0.3, 0.4, 2)),
                                 np.array([[t1 * t1, cn * t1 * t2],
                                           [cn * t1 * t2, t2 * t2]]))
        if j % 2 == 0:
            start = (float(n1[rng.integers(22, 43)]), float(n2[rng.integers(22, 43)]))
        else:
            s = rng.uniform(0.42, 0.5)
            start = gaussian2d_density(GRID2, (0.0, 0.0),
                                       np.array([[s * s, 0.0], [0.0, s * s]]))
        a, b, c = rng.uniform(0.4, 1.0), rng.uniform(0.4, 0.9), rng.uniform(0.0, 3.0)
        d, e = rng.uniform(0.4, 1.0), rng.uniform(0.1, 0.4)
        f2 = a * np.cos(b * n1 + c)[:, None] * np.tanh(d * n2)[None, :] + e * n1[:, None]
        fam2 = GibbsFamily()
        deriv = derivative_for_start(fam2.at(mu2), start, f2)
        analytic = deriv.action(SignedGridFunction.difference(nu2, mu2))
        rep = fd_directional_derivative(fam2, mu2, nu2, start, f2).require_converged()
        worst = max(worst, abs(analytic - rep.estimate) / max(1.0, abs(rep.estimate)))
        centerings.append(deriv.centering_residual())

    return {"worst_rel": worst, "centerings": centerings,
            "elapsed": time.time() - t0}


def _clt_run(scheme, **scheme_kwargs):
    model = default_ssm_model(GRID)
    config = SchemeConfig(family=FAMILY, model=model, p_levels=2,
                          batch_count=400, **scheme_kwargs)
    t0 = time.time()
    rep = clt_experiment(scheme, config, lambda x: np.clip(x, -8.0, 8.0),
                         100000, 200, 1234)
    return rep, model, time.time() - t0


@pytest.fixture(scope="module")
def smcmc_clt():
    return _clt_run("smcmc")


@pytest.fixture(scope="module")
def imcmc_clt():
    return _clt_run("imcmc", level_init="fixed")


# ------------------------------------------------------------ the criteria


def test_criterion_01_derivative_matches_oracle(derivative_sweep):
    worst = derivative_sweep["worst_rel"]
    elapsed = derivative_sweep["elapsed"]
    verdict(1, "derivative vs finite-difference oracle",
            worst <= 1e-3 and elapsed <= 120.0,
            f"worst relative gap {worst:.3e} over 30 randomized configs "
            f"(tolerance 1e-3), {elapsed:.1f}s")


def test_criterion_02_derivative_densities_are_centered(derivative_sweep):
    residuals = derivative_sweep["centerings"]
    worst = max(residuals)
    verdict(2, "target integral of every derivative density",
            len(residuals) == 30 and worst <= 1e-6,
            f"worst |centering| {worst:.3e} across {len(residuals)} "
            "derivatives (tolerance 1e-6)")


def test_criterion_03_generator_identity_both_families():
    kern = FAMILY.at(MU)
    at_mu = derivative_for_start(kern, MU, F, check_start=False)
    gap_h = float(np.max(np.abs(at_mu.density_part - (F - kern.apply_to_function(F)))))
    kern2 = GibbsFamily().at(MU2)
    at_mu2 = derivative_for_start(kern2, MU2, F2, check_start=False)
    gap_g = float(np.max(np.abs(at_mu2.density_part - (F2 - kern2.apply_to_function(F2)))))
    verdict(3, "derivative density at the target equals f - Pf",
            gap_h <= 1e-6 and gap_g <= 1e-6,
            f"sup gaps {gap_h:.3e} (single-site) / {gap_g:.3e} (two-coordinate)")


def test_criterion_04_path_integral_of_the_derivative():
    cases = [
        ("single-site density", FAMILY, MU, NU, RHO, F, 1e-6),
        ("single-site point", FAMILY, MU, NU, 0.75, F, 1e-5),
        ("two-coordinate density", GibbsFamily(), MU2, NU2, RHO2, F2, 1e-6),
        ("two-coordinate point", GibbsFamily(), MU2, NU2, (0.5, -0.75), F2, 1e-5),
    ]
    ok = True
    details = []
    for name, fam, mu, nu, start, f, bound in cases:
        fine = verify_ftc(fam, mu, nu, start, f, t_nodes=33)
        coarse = verify_ftc(fam, mu, nu, start, f, t_nodes=17)
        refined = fine.residual * 2.0 <= coarse.residual or fine.residual <= 1e-13
        ok = ok and fine.residual <= bound and refined
        details.append(f"{name} {fine.residual:.1e} (x{coarse.residual / max(fine.residual, 1e-300):.0f} refinement)")
    verdict(4, "endpoint gap equals the integrated derivative", ok,
            "; ".join(details))


def test_criterion_05_mean_value_inequalities():
    t0 = time.time()
    rng = np.random.default_rng(7321)
    bal_makers = [BalancingFunction.barker, BalancingFunction.min_one,
                  lambda: BalancingFunction.polynomial(2),
                  lambda: BalancingFunction.polynomial(8)]
    trials = violations = 0
    max_ratio = 0.0

    for i in range(12):
        bal = bal_makers[i % 4]()
        if i % 2 == 0:
            proposal = ProposalKernel.random_walk(rng.uniform(0.7, 1.8), GRID)
        else:
            proposal = ProposalKernel.independence(
                gaussian_density(GRID, rng.uniform(-0.4, 0.4), rng.uniform(1.0, 1.5)))
        family = HastingsFamily(proposal, bal)
        mu = gaussian_density(GRID, rng.uniform(-0.3, 0.3), rng.uniform(0.85, 1.2))
        nu = gaussian_density(GRID, rng.uniform(-0.3, 0.5), rng.uniform(0.9, 1.25))
        start = gaussian_density(GRID, rng.uniform(-0.1, 0.1), rng.uniform(0.4, 0.5))
        weight = (WeightFunction.one_plus_square() if i % 3
                  else WeightFunction.exp_abs(rng.uniform(0.5, 1.5)))
        const = mvi_constants(family, mu, nu, start, weight)
        res = empirical_mvi_check(family, mu, nu, start, weight, const,
                                  n_trials=50, seed=1000 + i)
        trials += res["n_trials"]
        violations += res["violations"]
        max_ratio = max(max_ratio, res["max_ratio"])

    n1, n2 = GRID2.axis1.nodes, GRID2.axis2.nodes
    for j in range(8):
        s1, s2 = rng.uniform(0.9, 1.2, 2)
        corr = rng.uniform(-0.5, 0.5)
        cov = np.array([[s1 * s1, corr * s1 * s2], [corr * s1 * s2, s2 * s2]])
        mu2 = gaussian2d_density(GRID2, tuple(rng.uniform(-0.3, 0.3, 2)), cov)
        t1, t2 = rng.uniform(0.9, 1.2, 2)
        cn = rng.uniform(-0.4, 0.4)
        nu2 = gaussian2d_density(GRID2, tuple(rng.uniform(-0.3, 0.4, 2)),
                                 np.array([[t1 * t1, cn * t1 * t2],
                                           [cn * t1 * t2, t2 * t2]]))
        if j % 2 == 0:
            start = (float(n1[rng.integers(22, 43)]), float(n2[rng.integers(22, 43)]))
        else:
            s = rng.uniform(0.42, 0.5)
            start = gaussian2d_density(GRID2, (0.0, 0.0),
                                       np.array([[s * s, 0.0], [0.0, s * s]]))
        weight = (WeightFunction.one_plus_square() if j % 2
                  else WeightFunction.exp_abs(rng.uniform(0.4, 1.0)))
        fam2 = GibbsFamily()
        const = gibbs_mvi_constants(fam2, mu2, nu2, start, weight)
        res = empirical_mvi_check(fam2, mu2, nu2, start, weight, const,
                                  n_trials=50, seed=2000 + j)
        trials += res["n_trials"]
        violations += res["violations"]
        max_ratio = max(max_ratio, res["max_ratio"])

    elapsed = time.time() - t0
    verdict(5, "mean-value bounds hold in randomized trials",
            trials == 1000 and violations == 0 and elapsed <= 300.0,
            f"{violations} violations in {trials} trials; empirical max "
            f"ratio {max_ratio:.4f} of the bound; {elapsed:.1f}s")


def test_criterion_06_iterated_derivatives_and_ergodic_limit():
    kern = FAMILY.at(MU)
    chi = SignedGridFunction.difference(NU, MU)
    worst = 0.0
    for start in (RHO, 0.75):
        for k in (2, 3):
            analytic = iterated_derivative(kern, start, F, k).action(chi)
            rep = fd_directional_derivative(FAMILY, MU, NU, start, F,
                                            k=k).require_converged()
            worst = max(worst, abs(analytic - rep.estimate) / max(1.0, abs(rep.estimate)))

    base = gaussian_density(GRID, 0.0, 1.4)
    fam_ind = HastingsFamily(ProposalKernel.independence(base),
                             BalancingFunction.barker())
    limit = iterated_derivative_limit_check(fam_ind, MU, NU, MU, F, k_max=30)
    verdict(6, "iterated derivatives and their ergodic limit",
            worst <= 1e-3 and limit["passed"] and limit["final_gap"] < 1e-3,
            f"worst k=2,3 relative gap {worst:.3e}; stationary-difference "
            f"gap {limit['final_gap']:.3e} by k=30")


def test_criterion_07_poisson_machinery():
    kern = FAMILY.at(MU)
    centered = F - MU.expect(F)
    table = poisson_resolvent(kern, centered)
    # independent recheck of the defining equation (I - P) Rf = f - mu(f)
    recheck = float(np.max(np.abs(
        table.values - kern.apply_to_function(table.values) - centered)))
    identity = check_resolvent_identity(FAMILY, MU, NU, F)
    verdict(7, "resolvent solves its equation and the two-target identity",
            table.poisson_residual <= 1e-6 and recheck <= 1e-6
            and identity["residual"] <= 1e-5,
            f"equation residual {table.poisson_residual:.3e} "
            f"(recheck {recheck:.3e}); identity residual "
            f"{identity['residual']:.3e}")


def test_criterion_08_sampled_target_certification():
    model = default_ssm_model(GRID)
    children = np.random.SeedSequence(881).spawn(50)
    mixtures = []
    for child in children:
        (_, empirical), = run_smcmc(FAMILY, model, 1, 1000, seed=child)
        mixtures.append(model.transform(1, empirical))

    gamma = 2.0 * model.phi_bar
    tails = check_log_concave_tails(mixtures, gamma, gamma)

    weight = WeightFunction.exp_abs(gamma)
    kernels = [FAMILY.at(d, validate=False) for d in mixtures]
    # a single certificate must dominate every sampled target, so combine
    # the per-kernel displays before re-checking across all of them
    parts = [find_drift_parameters(k, weight) for k in kernels]
    cert = check_drift(kernels, weight,
                       max(p.drift_rate for p in parts),
                       max(p.b for p in parts) + 1e-9,
                       max(p.d for p in parts),
                       j=max(p.j for p in parts))
    verdict(8, "bootstrap mixtures certified ergodic",
            all(tails.passed_each) and tails.n_checked == 50 and cert.passed,
            f"tails {sum(tails.passed_each)}/50 at gamma=z={gamma:g}; one "
            f"drift certificate (rate {cert.drift_rate:g}, b {cert.b:.3f}, "
            f"kappa {cert.kappa:.4f}) across {cert.n_kernels} kernels")


@pytest.mark.slow
def test_criterion_09_sequential_fluctuations(smcmc_clt):
    rep, _, elapsed = smcmc_clt
    sigma2 = rep.asymptotic_variance_poisson
    ratio_res = rep.replication_variance / sigma2
    ratio_bm = rep.replication_variance / rep.asymptotic_variance_batchmeans
    ratio_det = (rep.replication_variance_deterministic
                 / rep.predicted_variance_deterministic)
    skew, kurt, ks = rep.normality_stats
    ok = (abs(ratio_res - 1.0) <= 0.2 and abs(ratio_bm - 1.0) <= 0.2
          and abs(ratio_det - 1.0) <= 0.2
          and abs(skew) <= 0.25 and abs(kurt) <= 0.5 and ks < 0.08
          and elapsed <= 900.0)
    verdict(9, "sequential-scheme fluctuation theorem", ok,
            f"variance ratios {ratio_res:.3f} (resolvent) / {ratio_bm:.3f} "
            f"(batch means) / {ratio_det:.3f} (deterministic centering); "
            f"skew {skew:+.3f}, excess kurtosis {kurt:+.3f}, KS {ks:.3f}; "
            f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_10_interacting_fluctuations(imcmc_clt):
    rep, model, elapsed = imcmc_clt
    sigma2 = rep.asymptotic_variance_poisson

    # independent oracle for the interacting extra term: twice the top-level
    # chain variance of the propagated, final-target-centered function
    f_nodes = np.clip(GRID.nodes, -8.0, 8.0)
    centered = f_nodes - model.flow(2).expect(f_nodes)
    h = q_bar_operator(model, 1, centered)
    kern1 = FAMILY.at(model.flow(1), validate=False)
    w2 = 2.0 * asymptotic_variance(kern1, poisson_resolvent(kern1, h))
    oracle_gap = abs(rep.extra_variance - w2) / w2

    ratio_res = rep.replication_variance / sigma2
    ratio_det = (rep.replication_variance_deterministic
                 / rep.predicted_variance_deterministic)
    skew, kurt, ks = rep.normality_stats
    d1 = np.asarray(rep.d1_sup_stats)
    trending = (d1[-1] <= 0.25 * d1.max()
                and d1[-1] < d1[-2] < d1[-3])
    ok = (oracle_gap <= 1e-6
          and abs(ratio_res - 1.0) <= 0.2 and abs(ratio_det - 1.0) <= 0.2
          and abs(skew) <= 0.25 and abs(kurt) <= 0.5 and ks < 0.08
          and trending and elapsed <= 900.0)
    verdict(10, "interacting-scheme fluctuation theorem", ok,
            f"extra-variance oracle gap {oracle_gap:.1e}; variance ratios "
            f"{ratio_res:.3f} / {ratio_det:.3f}; skew {skew:+.3f}, excess "
            f"kurtosis {kurt:+.3f}, KS {ks:.3f}; partial sums "
            f"{d1.max():.3f} -> {d1[-1]:.4f}; {elapsed:.0f}s")


def test_criterion_11_determinism(tmp_path):
    config = tmp_path / "chain.json"
    config.write_text(json.dumps({"kind": "smcmc-run", "steps": 2000,
                                  "seed": 77}), encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = cli_main(["smcmc-run", "--config", str(config), "--out", str(out_a)])
    rc_b = cli_main(["smcmc-run", "--config", str(config), "--out", str(out_b)])
    seq_same = (out_a / "chains.csv").read_bytes() == (out_b / "chains.csv").read_bytes()

    config2 = tmp_path / "interacting.json"
    config2.write_text(json.dumps({"kind": "imcmc-run", "steps": 1500,
                                   "seed": 77}), encoding="utf-8")
    out_c, out_d = tmp_path / "c", tmp_path / "d"
    rc_c = cli_main(["imcmc-run", "--config", str(config2), "--out", str(out_c)])
    rc_d = cli_main(["imcmc-run", "--config", str(config2), "--out", str(out_d)])
    int_same = (out_c / "chains.csv").read_bytes() == (out_d / "chains.csv").read_bytes()

    verdict(11, "identical config+seed gives byte-identical chain CSVs",
            seq_same and int_same and rc_a == rc_b == rc_c == rc_d == 0,
            "sequential and interacting reruns both byte-equal "
            f"({Path(out_a / 'chains.csv').stat().st_size} and "
            f"{Path(out_c / 'chains.csv').stat().st_size} bytes)")
