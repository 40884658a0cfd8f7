"""Stability certificates for kernels on truncated grids.

The pieces fit together in the usual Foster--Lyapunov order:

* ``check_drift`` verifies a geometric drift display ``P V <= rate * V + b``
  on the level set's complement, node by node, across a whole list of kernels
  at once, and bundles the result into a :class:`DriftCertificate`;
* ``check_minorization`` produces the small-set constant for the level set,
  either by direct grid minimization against the restricted target or by the
  closed-form random-walk bound;
* ``check_log_concave_tails`` is the tail criterion that feeds exponential
  drift functions for random-walk chains;
* ``estimate_geometric_rate`` measures the V-distance decay of k-step
  transitions and fits the geometric envelope ``V(x) * C * beta**k``;
* ``poisson_resolvent`` turns that decay into a solution of the Poisson
  equation with an explicit truncation tail bound, which
  ``check_resolvent_identity`` and ``asymptotic_variance`` then consume.

Everything here works at quadrature level: no sampling is involved except in
the chain leg of ``check_v_moment_growth`` (``samplers.run_limiting_chain``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    PreconditionError,
    ResourceLimitError,
)
from .kernels import (
    AtomPlusDensity,
    GibbsKernel,
    HastingsKernel,
    check_invariance,
    iterate_point,
)
from .measures import (
    GridDensity,
    WeightFunction,
    check_count,
    check_in_window,
    check_on_grid,
    check_positive,
    grid_function,
    integrate_values,
    v_norm_function,
)

DRIFT_NODE_TOL = 1e-9
DRIFT_RATES = (0.5, 0.7, 0.85, 0.95)
POISSON_GATE = 1e-6
K_BURN = 3  # leading steps the geometric-rate fit leaves out
RATE_INVARIANCE_TOL = 1e-8


# ---------------------------------------------------------------------------
# drift and minorization
# ---------------------------------------------------------------------------

def a1_level_floor(drift_rate: float, b: float) -> float:
    """Smallest admissible level-set radius for a (rate, b) drift pair."""
    return b / (2.0 * (1.0 - drift_rate)) - 1.0


def check_drift_pair(drift_rate: float, b: float, d: float) -> None:
    """Refuse a drift display unless ``0 < drift_rate < 1``, the excursion
    allowance ``b`` is finite and >= 0, and the level-set radius ``d``
    reaches the admissible floor."""
    if not (0.0 < drift_rate < 1.0):
        raise InvalidInputError(f"drift rate must lie in (0, 1), got {drift_rate}")
    if not (np.isfinite(b) and b >= 0.0):
        raise InvalidInputError(f"excursion allowance b must be finite and >= 0, got {b}")
    floor = a1_level_floor(drift_rate, b)
    if d < floor - 1e-12:
        raise PreconditionError(
            f"level-set radius d = {d:g} is below the admissible floor "
            f"b/(2(1-rate)) - 1 = {floor:g}"
        )


def _check_order(j: int) -> None:
    if check_count(j, "small-set order", minimum=1) > 2:
        raise InvalidInputError(f"small-set order must be 1 or 2, got {j}")


@dataclass
class DriftCertificate:
    """A verified drift/minorization pair.

    ``weight`` is the drift function V (everywhere >= 1), ``drift_rate`` the
    contraction factor, ``b`` the bounded excursion allowance on the level
    set ``C = {V <= d}``, and ``(j, kappa)`` the small-set order and constant
    for C.  Construction re-checks the admissibility constraints, so a
    certificate object is evidence by itself; ``margin`` records the worst
    node slack of the drift display across the kernels it was checked on.
    """

    weight: WeightFunction
    drift_rate: float
    b: float
    d: float
    j: int
    kappa: float
    margin: float = float("nan")
    n_kernels: int = 0

    def __post_init__(self):
        check_drift_pair(self.drift_rate, self.b, self.d)
        _check_order(self.j)
        if not (0.0 < self.kappa <= 1.0):
            raise InvalidInputError(f"small-set constant must lie in (0, 1], got {self.kappa}")

    @property
    def passed(self) -> bool:
        return True

    def describe(self) -> str:
        return (
            f"drift[{self.weight.description}: rate={self.drift_rate:g}, b={self.b:g}, "
            f"d={self.d:g}, j={self.j}, kappa={self.kappa:.3g}]"
        )


@dataclass
class DriftFailure:
    """Worst offender of a failed drift check."""

    kernel_index: int
    worst_node: object
    worst_gap: float
    drift_rate: float
    b: float
    d: float

    @property
    def passed(self) -> bool:
        return False

    def describe(self) -> str:
        tail = (f"(kernel #{self.kernel_index}; rate={self.drift_rate:g}, "
                f"b={self.b:g}, d={self.d:g})")
        if isinstance(self.worst_node, str):
            return f"{self.worst_node} fell short by {self.worst_gap:.3g} {tail}"
        return f"drift violated by {self.worst_gap:.3g} at node {self.worst_node} {tail}"


def level_set_mask(weight: WeightFunction, grid, d: float) -> np.ndarray:
    """Boolean node mask of ``{V <= d}``."""
    mask = weight.values_on(grid) <= d
    if not np.any(mask):
        raise InvalidInputError(
            f"level set {{{weight.description} <= {d:g}}} is empty on the grid"
        )
    return mask


def _worst_node(grid, flat_index: int):
    if grid.ndim == 1:
        return float(grid.nodes[flat_index])
    i, j = np.unravel_index(flat_index, grid.shape())
    return (float(grid.axis1.nodes[i]), float(grid.axis2.nodes[j]))


def check_drift(kernels: Sequence, weight: WeightFunction, drift_rate: float,
                b: float, d: float, j: int = 1, kappa: Optional[float] = None,
                kappa_floor: float = 1e-8):
    """Verify ``P V <= drift_rate * V + b * 1{V <= d}`` at every node of every
    kernel, then complete the certificate with a small-set constant.

    Returns a :class:`DriftCertificate` on success and a
    :class:`DriftFailure` naming the worst node otherwise.  Passing ``kappa``
    skips the minorization computation and records the given constant
    (validated for range) instead.
    """
    kernels = list(kernels)
    if not kernels:
        raise InvalidInputError("need at least one kernel to certify")
    check_drift_pair(drift_rate, b, d)
    worst_gap = -np.inf
    worst_idx = 0
    worst_flat = 0
    margin = np.inf
    for idx, kern in enumerate(kernels):
        v = weight.values_on(kern.grid)
        allowed = drift_rate * v + b * (v <= d)
        pv = kern.apply_to_function(v)
        slack = pv - allowed - DRIFT_NODE_TOL * (1.0 + np.abs(allowed))
        flat = int(np.argmax(slack))
        if slack.flat[flat] > worst_gap:
            worst_gap = slack.flat[flat]
            worst_idx = idx
            worst_flat = flat
        margin = min(margin, float(np.min(allowed - pv)))
    if worst_gap > 0.0:
        grid = kernels[worst_idx].grid
        return DriftFailure(worst_idx, _worst_node(grid, worst_flat),
                            float(worst_gap), drift_rate, b, d)
    if kappa is None:
        mask = level_set_mask(weight, kernels[0].grid, d)
        rep = check_minorization(kernels, mask, j=j, kappa_floor=kappa_floor)
        kappa = rep.inf_kappa
        if not rep.passed:
            return DriftFailure(int(np.argmin(rep.kappas)), "level-set minorization",
                                kappa_floor - kappa, drift_rate, b, d)
    return DriftCertificate(weight, drift_rate, b, d, j, float(kappa),
                            margin=float(margin), n_kernels=len(kernels))


def find_drift_parameters(kernel, weight: WeightFunction):
    """Scan the rates ``DRIFT_RATES`` and return the first certificate the
    grid accepts, choosing the smallest workable (b, d) for each rate.

    For a fixed rate the tightest allowance is ``b = max(P V - rate * V)``
    over the grid and the tightest level set must contain every node where
    the excursion term is actually needed, as well as the admissibility
    floor.  Returns ``None`` when no scanned rate works.
    """
    v = weight.values_on(kernel.grid)
    pv = kernel.apply_to_function(v)
    for rate in DRIFT_RATES:
        excess = pv - rate * v
        b = float(np.max(excess))
        if b <= 0.0:
            # Contracts everywhere; any nonempty level set will do.
            d = max(a1_level_floor(rate, 0.0), float(np.min(v)))
            cert = check_drift([kernel], weight, rate, 0.0, d)
        else:
            slack = b * 1e-9
            needed = v[excess > slack]
            d = float(np.max(needed)) if needed.size else float(np.min(v))
            d = max(d, a1_level_floor(rate, b)) * (1.0 + 1e-12)
            cert = check_drift([kernel], weight, rate, b, d)
        if cert.passed:
            return cert
    return None


@dataclass
class MinorizationReport:
    """Per-kernel small-set constants for one level set."""

    kappas: np.ndarray
    inf_kappa: float
    j: int
    method: str
    kappa_floor: float

    @property
    def passed(self) -> bool:
        return self.inf_kappa >= self.kappa_floor


def _restricted_candidate(kern, mask: np.ndarray) -> np.ndarray:
    """The target conditioned on the level set, as node values."""
    vals = kern.target.values * mask
    mass = integrate_values(kern.grid, vals)
    if mass <= 0.0:
        raise InvalidInputError("level set carries no target mass")
    return vals / mass


def _gibbs_transition_density(kern: GibbsKernel, col_index: int, j: int) -> np.ndarray:
    # One sweep from any x with second coordinate on column ``col_index``:
    # draw the first coordinate from its conditional given x2, then the
    # second given the fresh first coordinate.
    dens = kern.cond_1g2[:, col_index][:, None] * kern.cond_2g1
    for _ in range(j - 1):
        dens = kern.propagate_density(dens)
    return dens


def check_minorization(kernels: Sequence, mask: np.ndarray, j: int = 1,
                       kappa_floor: float = 1e-8,
                       method: str = "grid") -> MinorizationReport:
    """Small-set constants for the masked node set, per kernel.

    ``method="grid"`` minimizes the j-step transition density against the
    restricted-target candidate over start and landing nodes in the set —
    the generic route, valid for both kernel families.  ``method="random-walk"``
    uses the closed form: with ``eps`` the proposal floor over the set,
    ``peak`` the target's maximum on it and ``mass`` its target mass,

        kappa = small_value_factor * eps * mass / peak,

    a valid constant because the acceptance rule is at least
    ``small_value_factor * min(1, ratio)`` and the proposal is symmetric.
    """
    kernels = list(kernels)
    if not kernels:
        raise InvalidInputError("need at least one kernel")
    _check_order(j)
    mask = np.asarray(mask, dtype=bool)
    kappas = np.empty(len(kernels))
    for idx, kern in enumerate(kernels):
        grid = kern.grid
        expect_shape = grid.shape()
        if mask.shape != expect_shape:
            raise InvalidInputError(
                f"level-set mask shape {mask.shape} does not match the grid {expect_shape}"
            )
        if not np.any(mask):
            raise InvalidInputError("level-set mask is empty")
        candidate = _restricted_candidate(kern, mask)
        if method == "random-walk":
            kappas[idx] = _random_walk_kappa(kern, mask)
            continue
        if method != "grid":
            raise InvalidInputError(f"unknown minorization method '{method}'")
        inside = candidate[mask]
        worst = np.inf
        if grid.ndim == 1 and j == 1:
            # column minima over the start nodes, then the ratio: dividing by
            # a positive number is monotone and min is exact, so this is the
            # minimum of the per-row ratios bit for bit
            a = kern.accept_matrix
            lowest = np.min(a, axis=0, where=mask[:, None], initial=np.inf)[mask]
            worst = float(np.min(lowest / inside))
        elif grid.ndim == 1:
            start_nodes = np.flatnonzero(mask)
            for i in start_nodes:
                dens = iterate_point(kern, float(grid.nodes[i]), j).density
                worst = min(worst, float(np.min(dens[mask] / inside)))
        else:
            cols = np.flatnonzero(np.any(mask, axis=0))
            for c in cols:
                dens = _gibbs_transition_density(kern, int(c), j)
                worst = min(worst, float(np.min(dens[mask] / inside)))
        kappas[idx] = max(worst, 0.0)
    return MinorizationReport(kappas, float(np.min(kappas)), j, method, kappa_floor)


def _random_walk_kappa(kern: HastingsKernel, mask: np.ndarray) -> float:
    if kern.grid.ndim != 1:
        raise InvalidInputError("the closed-form constant needs a 1-D accept/reject kernel")
    if kern.proposal.tag != "random-walk":
        raise PreconditionError(
            f"the closed-form constant needs a random-walk proposal, got '{kern.proposal.tag}'"
        )
    idx = np.flatnonzero(mask)
    if np.any(np.diff(idx) != 1):
        raise InvalidInputError("the closed-form constant needs a contiguous level set")
    eps = float(np.min(kern.q_matrix[np.ix_(idx, idx)]))
    peak = float(np.max(kern.target.values[mask]))
    mass = integrate_values(kern.grid, kern.target.values * mask)
    kappa = kern.balancing.small_value_factor * eps * mass / peak
    return float(min(kappa, 1.0))


# ---------------------------------------------------------------------------
# tail log-concavity
# ---------------------------------------------------------------------------

@dataclass
class LogConcaveReport:
    """Outcome of the tail log-concavity check for a batch of densities."""

    gamma: float
    z: float
    passed_each: np.ndarray
    worst_violation: float
    worst_index: int
    n_checked: int

    @property
    def passed(self) -> bool:
        return bool(np.all(self.passed_each))


def check_log_concave_tails(densities: Sequence[GridDensity], gamma: float,
                            z: float) -> LogConcaveReport:
    """Do all the densities decay at exponential rate ``gamma`` beyond ``z``?

    The pairwise tail condition (the log of the density drops by at least
    ``gamma`` times the distance, moving outward from ``z`` on either side)
    is equivalent to monotonicity of ``log density + gamma * x`` on the right
    tail and of ``log density - gamma * x`` on the left tail, which is what
    gets checked — consecutive nodes imply every pair, up to 1e-10.
    """
    densities = list(densities)
    if not densities:
        raise InvalidInputError("need at least one density")
    check_positive(gamma, "decay rate")
    if z < 0.0:
        raise InvalidInputError(f"tail threshold must be >= 0, got {z}")
    passed = np.zeros(len(densities), dtype=bool)
    worst = -np.inf
    worst_index = 0
    for idx, dens in enumerate(densities):
        grid = dens.grid
        if grid.ndim != 1:
            raise InvalidInputError("tail log-concavity is a 1-D check")
        if z >= grid.upper:
            raise InvalidInputError(
                f"tail threshold {z:g} leaves no tail inside the window [{grid.lower:g}, {grid.upper:g}]"
            )
        logs = np.log(dens.values)
        right = grid.nodes >= z
        left = grid.nodes <= -z
        viol = 0.0
        if np.count_nonzero(right) >= 2:
            climb = np.diff((logs + gamma * grid.nodes)[right])
            viol = max(viol, float(np.max(climb)))
        if np.count_nonzero(left) >= 2:
            drop = -np.diff((logs - gamma * grid.nodes)[left])
            viol = max(viol, float(np.max(drop)))
        passed[idx] = viol <= 1e-10
        if viol > worst:
            worst = viol
            worst_index = idx
    return LogConcaveReport(gamma, z, passed, float(worst), worst_index, len(densities))


# ---------------------------------------------------------------------------
# geometric rate
# ---------------------------------------------------------------------------

@dataclass
class RateReport:
    """Fitted geometric envelope for k-step V-distances.

    ``sup_curve[k-1]`` is the worst start-normalized distance at step k;
    ``c_est`` is inflated so the envelope dominates every sampled point, and
    ``r_squared`` documents how straight the decay is in log scale.
    """

    c_est: float
    beta_est: float
    r_squared: float
    k_burn: int
    k_max: int
    sup_curve: np.ndarray
    passed: bool

    @property
    def l_value(self) -> float:
        """max(C, 1/(1-beta)) — the constant the resolvent bounds use."""
        if not self.passed:
            return float("inf")
        if self.beta_est <= 0.0:
            return max(self.c_est, 1.0)
        return max(self.c_est, 1.0 / (1.0 - self.beta_est))


def estimate_geometric_rate(kernel, x0s: Sequence[float], k_max: int,
                            weight: WeightFunction) -> RateReport:
    """Measure ``||P^k(x, .) - target||_V`` decay and fit its geometric envelope.

    The k-step point law keeps its surviving rejection atom explicitly, so
    the V-distance is the atom mass times V(x) plus the integrated density
    gap.  The fit runs least squares on the log of the start-normalized sup
    curve over ``k in [K_BURN, k_max]``; the multiplier is then inflated so
    the fitted envelope dominates every sampled point, not just the
    regression line.
    """
    if not hasattr(kernel, "propagate_mixture"):
        raise InvalidInputError("rate estimation walks atom-tracking point laws of 1-D kernels")
    x0s = [float(x) for x in x0s]
    if not x0s:
        raise InvalidInputError("need at least one start")
    for x0 in x0s:
        check_in_window(kernel.grid, x0)
    if check_count(k_max, "k_max") < K_BURN + 2:
        raise InvalidInputError(f"k_max = {k_max} leaves nothing to fit past k_burn = {K_BURN}")
    resid = check_invariance(kernel)
    if resid > RATE_INVARIANCE_TOL:
        raise PreconditionError(
            f"kernel does not hold its target invariant (residual {resid:.3g})"
        )
    grid = kernel.grid
    w = grid.trapezoid_weights()
    v = weight.values_on(grid)
    mu_vals = kernel.target.values
    curves = np.empty((len(x0s), k_max))
    for i, x0 in enumerate(x0s):
        m = AtomPlusDensity(grid, x0, 1.0, np.zeros(grid.n_points))
        vx = float(weight(x0))
        for k in range(k_max):
            m = kernel.propagate_mixture(m)
            dist = m.atom * vx + float(w @ (v * np.abs(m.density - mu_vals)))
            curves[i, k] = dist / vx
    sup_curve = np.max(curves, axis=0)
    if float(np.max(sup_curve)) <= 1e-13:
        # One-step forgetting: every point law already sits on the target.
        return RateReport(0.0, 0.0, 1.0, K_BURN, k_max, sup_curve, True)
    ks = np.arange(K_BURN, k_max + 1)
    ys = np.log(np.maximum(sup_curve[K_BURN - 1:], 1e-300))
    slope, intercept = np.polyfit(ks, ys, 1)
    fitted = slope * ks + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    beta = float(np.exp(slope))
    if beta >= 1.0:
        return RateReport(float("inf"), beta, r_squared, K_BURN, k_max, sup_curve, False)
    # Inflate the multiplier until the envelope covers every sampled distance,
    # transient included, not just the fitted segment.
    c_est = float(np.max(sup_curve / beta ** np.arange(1, k_max + 1)))
    return RateReport(c_est, beta, r_squared, K_BURN, k_max, sup_curve, True)


# ---------------------------------------------------------------------------
# Poisson resolvent
# ---------------------------------------------------------------------------

@dataclass
class ResolventTable:
    """Truncated solution of the Poisson equation for one (kernel, f) pair.

    ``values`` holds the partial sums of centered k-step expectations up to
    ``truncation_k``; ``tail_bound`` estimates everything cut off.  The two
    residual fields are computed at construction so the table certifies
    itself: ``(P - Id) values = mean - f`` up to ``poisson_residual``, and
    the target integral of ``values`` is ``centering_residual``.
    """

    grid: object
    values: np.ndarray
    truncation_k: int
    tail_bound: float
    f_values: np.ndarray
    target_mean: float
    poisson_residual: float
    centering_residual: float

    def write_csv(self, path) -> None:
        if self.grid.ndim == 1:
            rows = np.column_stack([self.grid.nodes, self.values, self.f_values])
            header = "node,resolvent,f"
        else:
            x1, x2 = self.grid.mesh()
            rows = np.column_stack([
                x1.ravel(), x2.ravel(), self.values.ravel(), self.f_values.ravel()
            ])
            header = "node1,node2,resolvent,f"
        np.savetxt(path, rows, delimiter=",", header=header, comments="")


def poisson_resolvent(kernel, f_values, tol: float = 1e-8,
                      weight: Optional[WeightFunction] = None,
                      rate: Optional[RateReport] = None,
                      k_cap: int = 20000) -> ResolventTable:
    """Sum the centered k-step expectations of ``f`` until the tail is paid for.

    The truncated sum satisfies the Poisson equation exactly up to the first
    dropped term, so iteration continues until the running increment is small
    enough for both the requested tail tolerance and the equation gate.  The
    reported ``tail_bound`` uses the fitted geometric envelope when a rate
    report is supplied (with ``weight`` naming its V), and the empirical
    decay ratio of the final increments otherwise.
    """
    grid = kernel.grid
    f_values = grid_function(grid, f_values)
    check_positive(tol, "resolvent tolerance")
    check_count(k_cap, "k_cap", minimum=1)
    w = grid.trapezoid_weights()
    mu_vals = kernel.target.values
    mean = float(np.sum(w * mu_vals * f_values))
    centered = f_values - mean
    acc = centered.copy()
    g = centered.copy()
    heads = [float(np.max(np.abs(g)))]
    k = 0
    while True:
        g = kernel.apply_to_function(g)
        k += 1
        acc += g
        head = float(np.max(np.abs(g)))
        heads.append(head)
        ratio = _late_decay_ratio(heads)
        stop_head = min(tol * max(1.0 - ratio, 1e-3), 0.5 * POISSON_GATE)
        if head <= stop_head:
            break
        if k >= k_cap:
            raise ResourceLimitError(
                f"resolvent series still at increment {head:.3g} after {k} terms "
                f"(late decay ratio {ratio:.4f})"
            )
    ratio = _late_decay_ratio(heads)
    if rate is not None:
        if weight is None:
            raise InvalidInputError("a rate-based tail bound needs the weight the rate was fit with")
        v = weight.values_on(grid)
        f_norm = v_norm_function(f_values, v)
        tail = f_norm * float(np.max(v)) * rate.c_est * rate.beta_est ** (k + 1) / (
            1.0 - rate.beta_est
        ) if rate.beta_est > 0 else 0.0
    else:
        tail = head / max(1.0 - ratio, 1e-3)
    # The equation residual: applying the kernel to the partial sum should
    # reproduce mean - f up to the first dropped term.
    eq_gap = kernel.apply_to_function(acc) - acc + centered
    poisson_residual = float(np.max(np.abs(eq_gap)))
    centering_residual = abs(float(np.sum(w * mu_vals * acc)))
    if poisson_residual > POISSON_GATE or centering_residual > POISSON_GATE:
        raise InternalConsistencyError(
            f"resolvent table failed its own gates: equation residual "
            f"{poisson_residual:.3g}, centering {centering_residual:.3g}"
        )
    return ResolventTable(grid, acc, k, float(tail), f_values, mean,
                          poisson_residual, centering_residual)


def _late_decay_ratio(heads) -> float:
    """Geometric-mean ratio of the last few positive increments, clamped to [0, 0.999]."""
    tailvals = [h for h in heads[-6:] if h > 0.0]
    if len(tailvals) < 2:
        return 0.0
    ratios = np.array(tailvals[1:]) / np.array(tailvals[:-1])
    return float(min(max(np.exp(np.mean(np.log(np.maximum(ratios, 1e-12)))), 0.0), 0.999))


def resolvent_bound_margin(table: ResolventTable, weight: WeightFunction,
                           rate: RateReport, alpha: float = 1.0) -> dict:
    """How much headroom the table has under the envelope bound
    ``|Rf| <= V^alpha * L^2 * ||f||_{V^alpha}``."""
    if not (0.0 < alpha <= 1.0):
        raise InvalidInputError(f"norm exponent must lie in (0, 1], got {alpha}")
    v_alpha = weight.power(alpha).values_on(table.grid)
    lhs = float(np.max(np.abs(table.values) / v_alpha))
    rhs = rate.l_value ** 2 * v_norm_function(table.f_values, v_alpha)
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs, "alpha": alpha}


def asymptotic_variance(kernel, table: ResolventTable) -> float:
    """Long-run variance of grid averages of f under the kernel:
    the target integral of ``(Rf)^2 - (P Rf)^2``."""
    w = kernel.grid.trapezoid_weights()
    pr = kernel.apply_to_function(table.values)
    val = float(np.sum(w * kernel.target.values * (table.values ** 2 - pr ** 2)))
    return max(val, 0.0)


def check_resolvent_identity(family, mu: GridDensity, nu: GridDensity, f_values,
                             tol: float = 1e-9) -> dict:
    """Residual of the two-target resolvent difference identity.

    The difference of resolvents equals the first resolvent applied to the
    kernel difference of the second resolvent, plus the (mu - nu)-average of
    the second resolvent added as a constant.  All three resolvents are run
    to the same tolerance so their truncation tails match.
    """
    check_on_grid(mu.grid, nu)
    f_values = grid_function(mu.grid, f_values)
    check_positive(tol, "resolvent tolerance")
    kern_mu = family.at(mu)
    kern_nu = family.at(nu)
    r_nu = poisson_resolvent(kern_nu, f_values, tol=tol)
    r_mu = poisson_resolvent(kern_mu, f_values, tol=tol)
    bridge = kern_nu.apply_to_function(r_nu.values) - kern_mu.apply_to_function(r_nu.values)
    r_bridge = poisson_resolvent(kern_mu, bridge, tol=tol)
    w = mu.grid.trapezoid_weights()
    shift = float(np.sum(w * (mu.values - nu.values) * r_nu.values))
    gap = r_nu.values - r_mu.values - (r_bridge.values + shift)
    return {
        "residual": float(np.max(np.abs(gap))),
        "lhs_sup": float(np.max(np.abs(r_nu.values - r_mu.values))),
        "shift": shift,
        "truncations": (r_nu.truncation_k, r_mu.truncation_k, r_bridge.truncation_k),
    }


# ---------------------------------------------------------------------------
# moment growth
# ---------------------------------------------------------------------------

def check_v_moment_growth(kernels: Sequence, weight: WeightFunction, j_power: int,
                          cert: Optional[DriftCertificate] = None,
                          x0: float = 0.0, checkpoints=(5, 10, 20),
                          n_reps: int = 100, seed: int = 0) -> dict:
    """Are the j-th V-moments of the targets bounded, and does the drift
    propagate to the j-th root of V?

    Three legs: (1) quadrature of ``target(V^j)`` per kernel; (2) the
    root-power drift — ``P(V^{1/j}) <= (P V)^{1/j}`` nodewise by convexity,
    and when a certificate is supplied also
    ``P(V^{1/j}) <= rate^{1/j} V^{1/j} + b^{1/j}`` on its level set; (3) when
    a certificate is supplied and the first kernel lives on a 1-D grid, the
    iterated expectation bound ``E V(chain_n) <= rate^n V(x0) + b/(1-rate)``
    against ``n_reps`` replications from ``x0`` (in the grid window) at the
    given checkpoints, allowing three standard errors of Monte Carlo slack.
    Replication ``r`` runs ``run_limiting_chain`` on child ``r`` of ``SeedSequence(seed)``.
    """
    kernels = list(kernels)
    j_power = check_count(j_power, "moment power", minimum=1)
    chain_leg = cert is not None and kernels and kernels[0].grid.ndim == 1
    if chain_leg:
        check_in_window(kernels[0].grid, x0)
        n_reps = check_count(n_reps, "n_reps", minimum=2)
        targets = sorted({check_count(c, "checkpoint", minimum=1) for c in checkpoints})
        if not targets:
            raise InvalidInputError("the chain leg needs at least one checkpoint")
    moments = []
    jensen_worst = -np.inf
    propagated_worst = -np.inf
    for kern in kernels:
        v = weight.values_on(kern.grid)
        w = kern.grid.trapezoid_weights()
        moments.append(float(np.sum(w * kern.target.values * v ** j_power)))
        root = v ** (1.0 / j_power)
        p_root = kern.apply_to_function(root)
        p_v = kern.apply_to_function(v)
        jensen_worst = max(jensen_worst, float(np.max(p_root - p_v ** (1.0 / j_power))))
        if cert is not None:
            mask = v <= cert.d
            allowed = cert.drift_rate ** (1.0 / j_power) * root + cert.b ** (
                1.0 / j_power
            ) * mask
            propagated_worst = max(propagated_worst, float(np.max(p_root - allowed)))
    moments = np.asarray(moments)
    out = {
        "moments": moments,
        "sup_moment": float(np.max(moments)),
        "moments_bounded": bool(np.all(np.isfinite(moments))),
        "jensen_worst_gap": float(jensen_worst),
        "jensen_ok": jensen_worst <= 1e-9,
        "propagated_worst_gap": float(propagated_worst) if cert is not None else None,
        "propagated_ok": (propagated_worst <= 1e-9) if cert is not None else None,
        "chain_checks": [],
    }
    if chain_leg:
        # imported here: samplers imports this module at module level
        from .samplers import run_limiting_chain
        kern = kernels[0]
        v0 = float(weight(x0))
        horizon = max(targets)
        samples = {c: np.empty(n_reps) for c in targets}
        for r, child in enumerate(np.random.SeedSequence(seed).spawn(n_reps)):
            states = run_limiting_chain(kern, x0, horizon, np.random.default_rng(child)).states
            for c in targets:
                samples[c][r] = weight(states[c - 1])
        lam, b = cert.drift_rate, cert.b
        for c in targets:
            vals = samples[c]
            bound = lam ** c * v0 + b * (1.0 - lam ** c) / (1.0 - lam)
            mean = float(np.mean(vals))
            se = float(np.std(vals, ddof=1) / np.sqrt(n_reps))
            out["chain_checks"].append(
                {"n": c, "mean": mean, "bound": bound, "se": se,
                 "ok": mean <= bound + 3.0 * se}
            )
    out["passed"] = bool(
        out["moments_bounded"]
        and out["jensen_ok"]
        and (out["propagated_ok"] in (None, True))
        and all(c["ok"] for c in out["chain_checks"])
    )
    return out
