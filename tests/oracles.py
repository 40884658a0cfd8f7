"""Independent reference computations used by the test suite.

Everything in this file is deliberately written against plain numpy/scipy,
without importing the package, so package bugs cannot leak into the expected
values.  Scalar constants frozen into test files were produced by the
functions here (see FROZEN below and tests that re-derive them).
"""

import numpy as np
from scipy.stats import norm


def dense_tv_two_gaussians(lower=-8.0, upper=9.0, n=100_001, m1=0.0, s1=1.0, m2=1.0, s2=1.0):
    """Plain-quadrature total variation integral of |phi1 - phi2| on a very
    fine grid, with each Gaussian renormalized to unit mass on the interval."""
    x = np.linspace(lower, upper, n)
    w = np.full(n, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    p = norm.pdf(x, m1, s1)
    q = norm.pdf(x, m2, s2)
    p = p / np.sum(w * p)
    q = q / np.sum(w * q)
    return float(np.sum(w * np.abs(p - q)))


def analytic_tv_two_unit_gaussians():
    """Closed form for the untruncated integral of |N(0,1)-N(1,1)|."""
    return float(2.0 * (norm.cdf(0.5) - norm.cdf(-0.5)))


def dense_second_moment_standard_gaussian(bound=8.0, n=100_001):
    x = np.linspace(-bound, bound, n)
    w = np.full(n, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    p = norm.pdf(x)
    p = p / np.sum(w * p)
    return float(np.sum(w * x * x * p))


def gibbs_step_expectation(x2, f, lower=-6.0, upper=6.0, n=513, rho=0.4):
    """One deterministic-scan two-stage step for the correlated bivariate
    normal, computed from closed-form conditionals on a fine grid.

    Start at second coordinate ``x2``; draw y1 ~ cond(.|x2), y2 ~ cond(.|y1);
    return E[f(y1, y2)].  Conditionals are N(rho*z, 1-rho^2) truncated to the
    window and renormalized — an independent path from any joint-table code.
    """
    x = np.linspace(lower, upper, n)
    w = np.full(n, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    s = np.sqrt(1.0 - rho * rho)

    def cond(z):
        d = norm.pdf(x, rho * z, s)
        return d / np.sum(w * d)

    c1 = cond(x2)                      # density of y1 given x2
    inner = np.empty(n)
    for i, y1 in enumerate(x):         # E[f(y1, y2) | y1]
        c2 = cond(y1)
        inner[i] = np.sum(w * f(y1, x) * c2)
    return float(np.sum(w * c1 * inner))


def discrete_bayes_update(prior, likelihood, transition):
    """Reweight-then-move on a two-point space, exact arithmetic shape.

    prior: length-2 probabilities; likelihood: length-2 positives;
    transition: 2x2 row-stochastic.  Returns the updated length-2 law.
    """
    prior = np.asarray(prior, float)
    likelihood = np.asarray(likelihood, float)
    transition = np.asarray(transition, float)
    weighted = prior * likelihood
    weighted = weighted / weighted.sum()
    return weighted @ transition


def ssm_mixture_closed_form(nodes, obs_value, samples, phi=np.tanh, noise_var=0.5):
    """Closed-form filter update for the bounded-drift state-space pair:
    likelihood-weighted mixture of the one-step predictive Gaussians,

        sum_i exp(-(s - Y_i)^2) * N(x; phi(Y_i), 1/2) / sum_i exp(-(s - Y_i)^2),

    evaluated at ``nodes`` with true (untruncated) normal densities.
    """
    samples = np.asarray(samples, float)
    weights = np.exp(-((obs_value - samples) ** 2))
    rows = norm.pdf(np.asarray(nodes, float)[None, :],
                    phi(samples)[:, None], np.sqrt(noise_var))
    return (weights[:, None] * rows).sum(axis=0) / weights.sum()


def mixture_reweight_move(samples, potential, kernel_density, xs):
    """Independent direct-loop evaluation of the reweight/move map applied to
    an empirical measure: returns density values at query points ``xs``.

    potential(y) > 0, kernel_density(y, x) the mutation density.  Pure
    python accumulation, no vectorized shortcuts shared with the package.
    """
    num = np.zeros_like(np.asarray(xs, float))
    den = 0.0
    for y in samples:
        g = potential(y)
        den += g
        num = num + g * np.array([kernel_density(y, x) for x in xs])
    return num / den


# --- FROZEN constants (produced by the functions above; regenerated in tests)
# dense_tv_two_gaussians()            -> 0.7658498434002704
# analytic_tv_two_unit_gaussians()    -> 0.7658498450960525  (untruncated)
# dense_second_moment_standard_gaussian() -> 0.9999999999999191
FROZEN = {
    "tv_gauss_0_1_vs_1_1": 0.7658498434002704,
    "tv_gauss_untruncated": 0.7658498450960525,
    "second_moment_trunc8": 0.9999999999999191,
    # ssm_mixture_closed_form peak on the 513-node window, first shipped
    # observation, 100 Normal(0, 1/2) samples from default_rng(42)
    "ssm_mixture_peak_seed42": 0.5149147954489445,
}


def gibbs_point_action_product(grid1_nodes, w1, a_vals, b_vals, f1_vals, chi_vals, x2_index):
    """Hand-derived derivative action for a product joint target a(y1)b(y2),
    a point start with second coordinate at node ``x2_index``, and a test
    function depending on the first coordinate only.

    For that configuration the absolutely continuous part of the derivative
    vanishes and the whole action concentrates on the slice y2 = x2:

        action(chi) = (1/b(x2)) * int chi(y1, x2) (f1(y1) - a(f1)) dy1.
    """
    a = a_vals / np.sum(w1 * a_vals)
    a_f1 = float(np.sum(w1 * a * f1_vals))
    chi_slice = chi_vals[:, x2_index]
    return float(
        (np.sum(w1 * chi_slice * f1_vals) - a_f1 * np.sum(w1 * chi_slice)) / b_vals[x2_index]
    )


def independence_mvi_budget_tv(nodes, w, mu_vals, nu_vals, base_vals, t_nodes):
    """Direct transcription of the two-term V=1 budget for an independence
    proposal with the Barker rule and start rho = mu, built from scratch:

        term1(z; t) = 2 * (mu(z)/mu_t(z)) * base(z) * sup_y g'(r_t(z, y))
        term2(z; t) = 2 * mu_t(z) * sup_y [ base(y) g'(r_t(y, z)) mu(y)/mu_t(y)^2 ]

    with r_t(x, y) = mu_t(y) base(x) / (mu_t(x) base(y)) and
    g'(u) = 1/(1+u)^2, Simpson in t, trapezoid in z.
    """
    ts = np.linspace(0.0, 1.0, t_nodes)
    # Simpson weights, from scratch
    h = 1.0 / (t_nodes - 1)
    tw = np.ones(t_nodes)
    tw[1:-1:2] = 4.0
    tw[2:-1:2] = 2.0
    tw *= h / 3.0

    total = 0.0
    for t, wt in zip(ts, tw):
        mu_t = (1.0 - t) * mu_vals + t * nu_vals
        term1 = np.empty(nodes.size)
        term2 = np.empty(nodes.size)
        for j in range(nodes.size):
            r_from_z = mu_t * base_vals[j] / (mu_t[j] * base_vals)   # r_t(z_j, y)
            r_to_z = mu_t[j] * base_vals / (mu_t * base_vals[j])     # r_t(y, z_j)
            gp_from = 1.0 / (1.0 + r_from_z) ** 2
            gp_to = 1.0 / (1.0 + r_to_z) ** 2
            term1[j] = 2.0 * (mu_vals[j] / mu_t[j]) * base_vals[j] * np.max(gp_from)
            term2[j] = 2.0 * mu_t[j] * np.max(base_vals * gp_to * mu_vals / mu_t**2)
        total += wt * float(w @ (term1 + term2))
    return total


def gibbs_mvi_budget_tv(w1, w2, mu_vals2d, nu_vals2d, t_nodes):
    """Direct transcription of the four-term V=1 budget for the two-stage
    kernel with start rho = mu: with V = 1 the conditional V-averages are 1,
    so the budget collapses to

        2 * sup over second coordinate of rho_2/mu_{2,t}
          + 2 * sup over first coordinate of A_t/mu_{1,t},
        A_t(y1) = integral of rho_2(u2) * mu_{1|2,t}(u2, y1) du2,

    Simpson in t.  Everything is recomputed from the raw value arrays.
    """
    h = 1.0 / (t_nodes - 1)
    tw = np.ones(t_nodes)
    tw[1:-1:2] = 4.0
    tw[2:-1:2] = 2.0
    tw *= h / 3.0

    rho2 = w1 @ mu_vals2d
    total = 0.0
    for t, wt in zip(np.linspace(0.0, 1.0, t_nodes), tw):
        joint_t = (1.0 - t) * mu_vals2d + t * nu_vals2d
        m1_t = joint_t @ w2
        m2_t = w1 @ joint_t
        # mu_{1|2,t}(u2, y1) = joint_t[y1, u2] / m2_t[u2]
        a_t = (joint_t / m2_t[None, :]) @ (w2 * rho2)
        total += wt * (2.0 * np.max(rho2 / m2_t) + 2.0 * np.max(a_t / m1_t))
    return total


def rw_barker_autocov_variance(lower, upper, n, mean, std, sigma, f_of_x,
                               k_terms=600, tol=1e-14):
    """Long-run variance of ergodic averages for the reflected random-walk
    chain with the t/(1+t) acceptance rule, rebuilt from scratch: the
    one-step matrix (three-image proposal, target ratio, acceptance,
    rejection mass) is assembled here in raw numpy, and the variance is the
    autocovariance series

        var = c_0 + 2 * sum_{k >= 1} cov(f(X_0), f(X_k))

    with each covariance a stationary quadrature of f against the k-step
    image of the centered f.
    """
    x = np.linspace(lower, upper, n)
    h = x[1] - x[0]
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    mu = np.maximum(norm.pdf(x, mean, std), 1e-300)
    mu = mu / np.sum(w * mu)
    d0 = x[None, :] - x[:, None]
    d1 = (2.0 * upper - x[None, :]) - x[:, None]
    d2 = (2.0 * lower - x[None, :]) - x[:, None]
    q = norm.pdf(d0, 0.0, sigma) + norm.pdf(d1, 0.0, sigma) + norm.pdf(d2, 0.0, sigma)
    r = (mu[None, :] * q.T) / (mu[:, None] * q)
    a = q * r / (1.0 + r)
    rej = 1.0 - a @ w
    f = f_of_x(x)
    fb = f - float(np.sum(w * mu * f))
    total = float(np.sum(w * mu * fb * fb))
    g = fb.copy()
    for _ in range(k_terms):
        g = a @ (w * g) + rej * g
        term = 2.0 * float(np.sum(w * mu * fb * g))
        total += term
        if abs(term) < tol:
            break
    return total


def gibbs_autocov_variance(w1, w2, joint_vals, f_vals, k_terms=400, tol=1e-14):
    """Autocovariance-series variance for the two-stage kernel, conditionals
    rebuilt from the raw joint table.  One kernel application is

        (P f)(x1, x2) = int c1(y1 | x2) [ int c2(y2 | y1) f(y1, y2) dy2 ] dy1,

    independent of x1, done in quadrature form below.
    """
    m1 = joint_vals @ w2
    m2 = w1 @ joint_vals
    c_1g2 = joint_vals / m2[None, :]
    c_2g1 = joint_vals / m1[:, None]
    ww = np.outer(w1, w2)

    def apply(fv):
        inner = (c_2g1 * fv) @ w2
        out = (w1 * inner) @ c_1g2
        return np.broadcast_to(out[None, :], fv.shape).copy()

    fb = f_vals - float(np.sum(ww * joint_vals * f_vals))
    total = float(np.sum(ww * joint_vals * fb * fb))
    g = fb.copy()
    for _ in range(k_terms):
        g = apply(g)
        term = 2.0 * float(np.sum(ww * joint_vals * fb * g))
        total += term
        if abs(term) < tol:
            break
    return total


def ratio_matrix_where(q, mu_values):
    """Target ratio r(node_i, node_j) = mu_j q_ji / (mu_i q_ij), with 1 on
    never-proposed pairs, in the two-temporary ``np.where`` form."""
    num = mu_values[None, :] * q.T
    den = mu_values[:, None] * q
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = num / den
    return np.where(den > 0.0, r, 1.0)


class DenseMixtureAccumulator:
    """Per-step dense accumulation of a running reweight/mutate mixture: on
    every step, every chain's normalised mutation row and potential are
    recomputed from its current state, whether the chain moved or not.

    Drop-in for the chain engines' accumulator (same constructor, ``add``
    and ``add_block``); ``moved`` is ignored.  The model is only called
    through its ``grid``, ``mutation(level).rows`` and ``potential_at``.
    """

    def __init__(self, model, level, reps, wf=None):
        self.model = model
        self.level = level
        self.wf = wf
        self.table = np.zeros((reps, model.grid.n_points))
        self.center_num = np.zeros(reps)
        self.center_den = np.zeros(reps)

    def add(self, x, moved):
        rows = self.model.mutation(self.level).rows(self.model.grid, x)
        g_at = self.model.potential_at(self.level, x)
        self.table += g_at[:, None] * rows
        if self.wf is not None:
            self.center_num += g_at * (rows @ self.wf)
            self.center_den += g_at

    def add_block(self, x, moved, tables):
        """One ``add`` per step (column of ``x``); the table after step i
        goes to ``tables[i]``."""
        for i in range(x.shape[1]):
            self.add(x[:, i], moved[:, i])
            tables[i] = self.table


def hastings_ratio_with_q(proposal, x, mu_x, y, mu_y):
    """The chain's Hastings ratio with the proposal density in both
    directions, as first written: ``mu_y q(y, x) / (mu_x q(x, y))``, and 1
    where the denominator vanishes."""
    q_xy, q_yx = proposal.q_pair(x, y)
    num = mu_y * q_yx
    den = mu_x * q_xy
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(den > 0.0, num / den, 1.0)


def two_stage_density_expectation(nodes1, nodes2, joint, rho, f):
    """P(rho, f) for the two-stage kernel of the joint node values ``joint``:
    draw y1 from joint(. | x2), then y2 from joint(. | y1), under the start
    ``rho``; every integral is a trapezoid sum over the nodes."""
    w1 = np.trapezoid(np.eye(len(nodes1)), nodes1, axis=1)
    w2 = np.trapezoid(np.eye(len(nodes2)), nodes2, axis=1)
    second_given_first = joint / (joint @ w2)[:, None]
    first_given_second = joint / (w1 @ joint)[None, :]
    g = (second_given_first * f) @ w2                  # E[f(y1, y2) | y1]
    h = (w1 * g) @ first_given_second                  # E[g(y1) | x2]
    return float(((w1 @ rho) * w2) @ h)


def stepped_run(lane, n, out, moved=None):
    """The per-step loop a lane's ``run`` replaces: ``n`` calls to
    ``lane.step()``, storing every chain's state and accept flag in column
    ``k``.  Drop-in for ``_Lane.run`` (same signature)."""
    for k in range(n):
        out[:, k] = lane.step()
        if moved is not None:
            moved[:, k] = lane.accepted


def stepped_moving_run(lane, rows, out, moved=None):
    """The per-step loop a lane's ``run_moving`` replaces: for step ``k``,
    write ``rows[k]`` (one target row per chain) into the target, then
    ``refresh()`` and ``step()``.  Drop-in for ``_Lane.run_moving`` (same
    signature)."""
    for k, table in enumerate(rows):
        lane.target = np.array(table)
        lane.refresh()
        out[:, k] = lane.step()
        if moved is not None:
            moved[:, k] = lane.accepted


def mutation_rows_every_point(density, nodes, weights, xs):
    """Quadrature-normalised mutation rows with the density evaluated at
    every start point, repeats included."""
    raw = np.asarray(density(xs[:, None], nodes[None, :]), dtype=float)
    return raw / (raw @ weights)[:, None]


def reflected_walk_sample(x, rng, sigma, lower, upper):
    """One scalar random-walk proposal as the sampler was first written: a
    normal step, folded into [lower, upper] by reflection when it leaves the
    window.  Returns (proposal, folded)."""
    z = x + sigma * rng.standard_normal()
    if lower <= z <= upper:
        return z, False
    width = upper - lower
    d = np.mod(z - lower, 2.0 * width)
    return float(lower + width - np.abs(d - width)), True


def reflected_walk_propose(x, draws, sigma, lower, upper):
    """The random-walk pair's ``propose`` as first vectorised: the fold mask
    of the steps that leave [lower, upper], then the reflection wherever it
    is set.  Returns (proposals, fold mask)."""
    z = x + sigma * draws
    folded = (z < lower) | (z > upper)
    if folded.any():
        width = upper - lower
        d = np.mod(z - lower, 2.0 * width)
        z = np.where(folded, lower + width - np.abs(d - width), z)
    return z, folded


def inverse_cdf_sample(nodes, h, values, rng):
    """One scalar independence proposal as the sampler was first written: a
    uniform through the inverse CDF of the piecewise-linear density with
    node ``values`` (spacing ``h``), solving the cell's quadratic for the
    offset.  Returns (proposal, False)."""
    v = np.asarray(values, float)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * h * (v[:-1] + v[1:]))])
    uu = rng.uniform() * cdf[-1]
    k = min(max(int(np.searchsorted(cdf, uu, side="right")) - 1, 0), v.size - 2)
    a, b = v[k], v[k + 1]
    c0 = -((uu - cdf[k]) / h)
    disc = a * a - 4.0 * (0.5 * (b - a)) * c0
    denom = a + np.sqrt(max(disc, 0.0))
    s = -2.0 * c0 / denom if denom > 0.0 else 0.0
    return float(nodes[k] + min(max(s, 0.0), 1.0) * h), False


def barker_g_where(t):
    """Barker's rule t / (1 + t), 1 at t = inf, in the ``np.where`` form."""
    t = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore"):
        out = t / (1.0 + t)
    return np.where(np.isinf(t), 1.0, out)


def barker_g_prime_where(t):
    """Derivative 1 / (1 + t)^2 of Barker's rule, 0 at t = inf."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + t) ** 2
    return np.where(np.isinf(t), 0.0, out)


def hastings_derivative_strided(q, gp, mu, w, rho, f):
    """Accept/reject derivative density for the density start ``rho``, from
    the proposal matrix ``q`` and ``gp = g'(r)`` at the node pairs, each
    transpose read as a strided view."""
    m1 = gp.T * q
    s = w * (rho / mu)
    term1 = f * (m1 @ s) - m1 @ (s * f)
    m2 = q.T * gp
    wm = w * mu
    c = m2 @ (wm * f)
    d = m2 @ wm
    return term1 - (rho / mu**2) * (c - f * d)


def hastings_density_budget_strided(q, gp_abs, mu, w, rho, v):
    """Two-term mean-value budget of one curve point for a density start,
    with ``gp_abs = |g'(r)|`` at the node pairs (None: no g' factor), both
    terms maximised over the first axis of strided products."""
    vv = v[:, None] + v[None, :]
    fac1, fac2 = (1.0, 1.0) if gp_abs is None else (gp_abs.T, gp_abs)
    a = vv * (rho / mu)[None, :] * q * fac1 / v[:, None]
    b = vv * mu[None, :] * q.T * fac2 * (rho / mu**2)[:, None] / v[:, None]
    return float(w @ np.max(a, axis=0) + w @ np.max(b, axis=0))


def mvi_trials_per_trial(kernels, w, nodes, start, fs, bound, q, g):
    """Mean-value trials scored by applying both kernels to every test
    function.  ``kernels`` holds (accept matrix, rejection vector, target
    node values) for mu and for nu; ``start`` is density node values or a
    point.  A point x is scored by its exact row, built here from the
    proposal density ``q`` and the balancing rule ``g``: acceptance density
    q(x, y) g(r(x, y)) with r = mu(y) q(y, x) / (mu(x) q(x, y)) (1 where the
    denominator vanishes; mu(x) interpolated, floored at 1e-300), and the
    rejected mass left at x.  Returns (worst |P_mu f - P_nu f|, worst ratio
    to ``bound``, violations)."""
    def value(a, rej, mu, f):
        if np.ndim(start):
            return float(np.sum(w * start * (a @ (w * f) + rej * f)))
        q_xy, q_yx = q(start, nodes), q(nodes, start)
        den = max(float(np.interp(start, nodes, mu)), 1e-300) * q_xy
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = np.where(den > 0.0, mu * q_yx / den, 1.0)
        row = q_xy * g(r)
        stay = max(1.0 - float(np.sum(w * row)), 0.0)
        return float(np.sum(w * row * f)) + stay * float(np.interp(start, nodes, f))

    lhs = np.array([abs(value(*kernels[0], f) - value(*kernels[1], f)) for f in fs])
    violations = int(np.sum(lhs > bound * (1.0 + 1e-9) + 1e-15))
    return float(lhs.max()), float(lhs.max() / bound), violations
