"""Curve integrals and Lipschitz budgets for the target-to-kernel map.

Two groups of tools:

* ``verify_ftc`` / ``verify_ftc_intrinsic`` check the scalar identity

      P_mu(start, f) - P_nu(start, f) = integral over t in [0,1] of the
      one-step derivative action at (1-t) mu + t nu, direction mu - nu,

  the second form rewriting the right side through a transport map pushing
  ``mu`` onto ``nu`` and the spatial derivative of the derivative's density.

* ``mvi_constants`` (dispatching to ``hastings_mvi_constants``,
  ``mh_mvi_constants`` or ``gibbs_mvi_constants``) produces explicit
  constants for the mean-value bound

      |P_mu(start, f) - P_nu(start, f)|
          <= m_rho * ||mu - nu||_V + m_perp * <start-specific gap>

  valid for every test function with |f| <= V.  Density starts always get
  ``m_perp = 0``.  For accept/reject point starts the gap is
  ``|mu(x) - nu(x)|``; for two-stage point starts the derivative's singular
  piece lives on the slice ``{y2 = x2}``, so the gap is the slice mass
  ``int |mu - nu|(y1, x2) dy1`` (see ``MviConstants.perp_pairing``).

``empirical_mvi_check`` probes those bounds with random V-bounded functions,
and ``uniform_boundedness_scan`` maps the point-start constants over the
window to expose boundary growth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .derivative import (
    DEFAULT_RATIO_CEILING,
    Start,
    _check_warm_start,
    _value_at_start,
    derivative_for_start,
    hastings_derivative,
)
from .errors import InvalidInputError, PreconditionError
from .kernels import GibbsFamily, HastingsFamily, HastingsKernel, _BLOCK_ROWS, _row_blocks
from .measures import (
    ContaminationCurve,
    GridDensity,
    SignedGridFunction,
    WeightFunction,
    check_count,
    check_start,
    curve_at,
    grid_function,
    integrate_values,
    interp_slice,
    simpson_weights,
    slice_weights,
    v_norm_measure,
)
from .workers import run_forked, shards, worker_count

FTC_T_NODES = 33
MVI_T_NODES = 17


def _t_quadrature(t_nodes: int):
    check_count(t_nodes, "t-quadrature node count", minimum=5)
    return np.linspace(0.0, 1.0, t_nodes), simpson_weights(t_nodes)


# ---------------------------------------------------------------------------
# curve-integral identity
# ---------------------------------------------------------------------------

@dataclass
class FtcReport:
    """Both sides of the curve identity and their gap.

    ``lhs`` is the direct kernel difference P_mu - P_nu; ``rhs`` the Simpson
    t-quadrature of derivative actions in direction mu - nu.  ``node_actions``
    stores the integrand at the curve points ``ts`` for refinement studies.
    ``inputs`` holds what ``verify_ftc`` was called with, so a later call can
    reuse the integrand only for the same inputs.
    """

    lhs: float
    rhs: float
    residual: float
    t_nodes: int
    node_actions: np.ndarray
    ts: np.ndarray
    extra: dict = field(default_factory=dict)
    inputs: tuple = field(default=(), repr=False, compare=False)


def verify_ftc(family, mu: GridDensity, nu: GridDensity, start: Start, f_values,
               t_nodes: int = FTC_T_NODES,
               ratio_ceiling: float = DEFAULT_RATIO_CEILING,
               reuse: Optional[FtcReport] = None) -> FtcReport:
    """Check P_mu(start,f) - P_nu(start,f) against the t-integral of
    derivative actions along the mixture segment.

    ``reuse`` is an earlier report for the same inputs (typically a finer
    t-rule): its ``lhs`` and its actions at every t it shares with this rule
    (matched as exact floats) are taken as they are, so only the new curve
    points are differentiated.  The result is bit-equal to a fresh call.
    The curve points to differentiate run in contiguous shards in forked
    workers (:func:`~mcmccalc.workers.run_forked`).

    Raises
    ------
    PreconditionError
        If the derivative is unavailable at some curve point; the message
        names the offending t.
    InvalidInputError
        If ``reuse`` was built from other inputs (compared by identity).
    """
    check_start(mu.grid, start)
    f_ref = grid_function(mu.grid, f_values)
    ts, wts = _t_quadrature(t_nodes)
    inputs = (family, mu, nu, start, f_values, ratio_ceiling)
    known = {}
    if reuse is not None:
        if (len(reuse.inputs) != len(inputs)
                or any(a is not b for a, b in zip(reuse.inputs[:5], inputs[:5]))
                or reuse.inputs[5] != ratio_ceiling):
            raise InvalidInputError(
                "the reused FTC report was built from other inputs "
                "(family, densities, start, function or ratio ceiling)"
            )
        known = dict(zip(reuse.ts.tolist(), reuse.node_actions.tolist()))
    curve = ContaminationCurve(mu, nu)
    chi = mu.values - nu.values   # direction matching the lhs orientation

    if reuse is not None:
        lhs = reuse.lhs
    else:  # before the fork, so that every worker shares the proposal matrices
        lhs = _value_at_start(family.at(mu), start, f_ref) - _value_at_start(
            family.at(nu), start, f_ref
        )

    todo = [t for t in ts if t not in known]

    def differentiate(lo: int, hi: int) -> list:
        out = []
        for t in todo[lo:hi]:
            kern_t = family.at(curve_at(curve, t))
            try:
                deriv = derivative_for_start(kern_t, start, f_ref, ratio_ceiling)
            except PreconditionError as exc:
                raise PreconditionError(
                    f"derivative unavailable along the curve at t={t:.6g}: {exc}"
                ) from exc
            out.append(deriv.action(chi))
        return out

    # a shard stops at its first bad point, and the earliest failed shard raises
    parts = run_forked(differentiate, shards(len(todo), worker_count(len(todo)))) if todo else []
    fresh = iter([a for part in parts for a in part])
    actions = np.array([known[t] if t in known else next(fresh) for t in ts])
    rhs = float(wts @ actions)
    return FtcReport(float(lhs), rhs, abs(lhs - rhs), t_nodes, actions, ts,
                     inputs=inputs)


def pushforward_density(mu: GridDensity, transport) -> GridDensity:
    """Density of the image of ``mu`` under a strictly increasing 1-D map,
    by the interpolated inverse and its slope; nodes outside the map's range
    get zero before renormalization."""
    grid = mu.grid
    if grid.ndim != 1:
        raise InvalidInputError("pushforward densities are 1-D only")
    t_vals = grid_function(grid, transport, "transport map")
    if np.any(np.diff(t_vals) <= 0.0):
        raise PreconditionError("transport map must be strictly increasing on the grid")
    inverse = np.interp(grid.nodes, t_vals, grid.nodes)
    slope = np.interp(inverse, grid.nodes, np.gradient(t_vals, grid.nodes))
    vals = mu.at(inverse) / slope
    # Zero only nodes a full cell beyond the image; a node missing the image
    # by a sliver (a map that barely pulls off the wall) keeps its clamped
    # value instead of becoming a floor-level well.
    vals[(grid.nodes < t_vals[0] - grid.h) | (grid.nodes > t_vals[-1] + grid.h)] = 0.0
    return GridDensity(grid, vals, normalize=True, positive=True,
                       description="pushforward")


def verify_ftc_intrinsic(family, mu: GridDensity, transport, rho: GridDensity,
                         f_values, t_nodes: int = MVI_T_NODES, s_nodes: int = 9) -> FtcReport:
    """Transport-map form of the curve identity on 1-D accept/reject families.

    With nu the pushforward of mu, the right side integrates the *spatial*
    derivative of the derivative density between y and transport(y):

        rhs = integral over t of sum_y weights * mu(y) *
              [D_t'(s) integrated for s from transport(y) to y].

    The transport must map the truncation window into itself (a map walking
    mass off the window makes the mixture vanish at boundary nodes and the
    derivative blow up there); use a boundary-tapered displacement instead of
    a hard shift.  The derivative density must look continuously
    differentiable on the grid — a jump in its finite differences raises.
    A density start's warm-start ceiling is ``DEFAULT_RATIO_CEILING``.
    """
    grid = mu.grid
    if grid.ndim != 1 or not isinstance(family, HastingsFamily):
        raise InvalidInputError("the transport-map identity is for 1-D accept/reject families")
    check_start(grid, rho)
    f = grid_function(grid, f_values)
    t_vals = grid_function(grid, transport, "transport map")
    cushion = 1e-9 * (grid.upper - grid.lower)
    if t_vals[0] < grid.lower - cushion or t_vals[-1] > grid.upper + cushion:
        raise PreconditionError(
            "transport map must send the truncation window into itself "
            f"(range [{t_vals[0]:.6g}, {t_vals[-1]:.6g}] vs window "
            f"[{grid.lower:g}, {grid.upper:g}])"
        )
    nu = pushforward_density(mu, transport)
    ts, wts = _t_quadrature(t_nodes)
    s_grid, s_wts = _t_quadrature(s_nodes)
    curve = ContaminationCurve(mu, nu)

    displacement = t_vals - grid.nodes
    w = grid.trapezoid_weights()
    node_vals = np.empty(t_nodes)
    for m, t in enumerate(ts):
        kern_t = family.at(curve_at(curve, t))
        dens = hastings_derivative(kern_t, rho, f).density_part
        slope = np.gradient(dens, grid.nodes)
        jump = np.max(np.abs(np.diff(slope))) / (np.max(np.abs(slope)) + 1e-300)
        if jump > 0.5:
            raise PreconditionError(
                f"derivative density looks non-smooth at t={t:.6g} "
                f"(finite-difference jump ratio {jump:.3g})"
            )
        # inner quadrature of D' along each segment [y, transport(y)]
        points = grid.nodes[None, :] + s_grid[:, None] * displacement[None, :]
        slope_there = np.interp(points.ravel(), grid.nodes, slope).reshape(points.shape)
        inner = s_wts @ slope_there
        node_vals[m] = -float(np.sum(w * mu.values * displacement * inner))

    lhs = _value_at_start(family.at(mu), rho, f) - _value_at_start(family.at(nu), rho, f)
    rhs = float(wts @ node_vals)
    return FtcReport(float(lhs), rhs, abs(lhs - rhs), t_nodes, node_vals, ts,
                     extra={"s_nodes": s_nodes, "pushforward": nu})


# ---------------------------------------------------------------------------
# mean-value inequality constants
# ---------------------------------------------------------------------------

@dataclass
class MviConstants:
    """Lipschitz budget for one (family, mu, nu, start, V) combination.

    ``m_rho`` multiplies ||mu - nu||_V.  ``m_perp`` multiplies the
    start-specific gap named by ``perp_pairing``:

    * ``"none"``       — density start, m_perp = 0;
    * ``"point-gap"``  — accept/reject point start, gap |mu(x) - nu(x)|;
    * ``"slice-mass"`` — two-stage point start, gap int |mu-nu|(y1, x2) dy1.
    """

    m_rho: float
    m_perp: float
    v_tag: str
    t_nodes: int
    start_kind: str
    perp_pairing: str

    def __post_init__(self):
        if not (np.isfinite(self.m_rho) and np.isfinite(self.m_perp)):
            raise InvalidInputError("mean-value constants must be finite")
        if self.m_rho < 0 or self.m_perp < 0:
            raise InvalidInputError("mean-value constants must be nonnegative")
        if self.start_kind == "density" and self.m_perp != 0.0:
            raise InvalidInputError("density starts have no singular budget")


def _curve_kernels(family, mu, nu, ts):
    curve = ContaminationCurve(mu, nu)
    for t in ts:
        yield family.at(curve_at(curve, t))


def _hastings_density_budget(kern: HastingsKernel, rho_values, v, use_g_prime: bool) -> float:
    """Two-term per-z-sup budget for one curve point (density start).

    Both terms are built a row block at a time (the kernel's ratio blocks)
    from C-ordered operands, each with its factors in the order of its
    formula, so no N x N array is formed.  The first is built transposed,
    rows indexed by z, so that it reads q's transpose and g' in memory order
    and takes its sup along each row; V(y) + V(z) is the same sum at [y, z]
    and [z, y].  The second, rows indexed by y, keeps a running max of its
    blocks' column maxima.
    """
    qt = kern.q_matrix_t
    mu_t = kern.target.values
    w = kern.grid.trapezoid_weights()
    n = qt.shape[0]
    rho_mu, rho_mu2 = rho_values / mu_t, rho_values / mu_t**2
    if use_g_prime:  # [y, z] = |g'(r(y, z))|
        blocks = ((rows, np.abs(kern.balancing.g_prime(r), out=r))
                  for rows, r in kern._ratio_blocks(mu_t))
    else:  # without g' the factor is 1, and leaving it out is exact
        blocks = ((rows, None) for rows in _row_blocks(n))
    buf = np.empty((min(_BLOCK_ROWS, n), n))
    first = np.empty(n)
    second = np.full(n, -np.inf)
    for rows, gp in blocks:
        block = buf[:rows.stop - rows.start]
        for factors, v_y, axis in (
            # [z, y]: (V(y)+V(z)) * rho(z)/mu_t(z) * q(y,z) * |g'(r(z,y))| / V(y)
            ((rho_mu[rows, None], qt[rows], gp), v[None, :], 1),
            # [y, z]: (V(y)+V(z)) * mu_t(z) * q(z,y) * |g'(r(y,z))| * rho(y)/mu_t(y)^2 / V(y)
            ((mu_t[None, :], qt[rows], gp, rho_mu2[rows, None]), v[rows, None], 0),
        ):
            np.add(v[rows, None], v[None, :], out=block)
            for factor in factors:
                if factor is not None:
                    np.multiply(block, factor, out=block)
            np.divide(block, v_y, out=block)
            if axis:
                np.max(block, axis=1, out=first[rows])
            else:
                np.maximum(second, np.max(block, axis=0), out=second)
    return float(w @ first + w @ second)


def _hastings_point_budget(kern: HastingsKernel, x: float, v, vx: float,
                           q_to_x, minorize_indicator: bool):
    """(m_rho piece, m_perp piece) for one curve point (point start)."""
    nodes = kern.grid.nodes
    w = kern.grid.trapezoid_weights()
    mu_t = kern.target.values
    mu_x = kern.target_at(x)
    r_from_x = kern.ratio_at(x, nodes)
    if minorize_indicator:
        fac_main = 1.0
        fac_perp = (r_from_x <= 1.0).astype(float)
    else:
        fac_main = np.abs(kern.balancing.g_prime(r_from_x))
        fac_perp = fac_main
    main = np.max((v + vx) * fac_main * q_to_x / (mu_x * v))
    perp = float(w @ ((vx + v) * mu_t * q_to_x * fac_perp)) / mu_x**2
    return float(main), perp


def _start_kind(start) -> str:
    return "density" if isinstance(start, GridDensity) else "point"


def _accept_reject_mvi_constants(family: HastingsFamily, mu: GridDensity,
                                 nu: GridDensity, start: Start,
                                 weight: WeightFunction, t_nodes: int,
                                 ratio_ceiling: float, smooth: bool) -> MviConstants:
    """Both accept/reject constants: ``smooth`` keeps the g' factor in the
    main budgets; without it the singular integral is restricted to the
    sub-level set {z : r(x, z) <= 1} instead.

    A density start's curve points are checked against the warm-start
    ceiling, and the proposal matrices built, in this process; the budgets
    then run in contiguous shards of curve points in forked workers
    (:func:`~mcmccalc.workers.run_forked`).
    A point start's budgets cost O(N) each and run here."""
    check_start(mu.grid, start)
    ts, wts = _t_quadrature(t_nodes)
    v = weight.values_on(mu.grid)
    if _start_kind(start) == "density":
        kernels = list(_curve_kernels(family, mu, nu, ts))
        for t, kern in zip(ts, kernels):
            try:
                _check_warm_start(start.values / kern.target.values**2, kern.grid.nodes,
                                  ratio_ceiling)
            except PreconditionError as exc:
                raise PreconditionError(
                    f"mean-value budget unavailable along the curve at t={t:.6g}: {exc}"
                ) from exc
        family.proposal.matrix_t(mu.grid)  # every kernel's q and q^T, built before the fork

        def budgets(lo: int, hi: int) -> list:
            return [_hastings_density_budget(kern, start.values, v, use_g_prime=smooth)
                    for kern in kernels[lo:hi]]

        parts = run_forked(budgets, shards(t_nodes, worker_count(t_nodes)))
        vals = np.array([b for part in parts for b in part])
        return MviConstants(float(wts @ vals), 0.0, weight.description, t_nodes,
                            "density", "none")
    x = float(start)
    vx = float(weight(x))
    q_to_x = None
    mains = np.empty(t_nodes)
    perps = np.empty(t_nodes)
    for m, kern in enumerate(_curve_kernels(family, mu, nu, ts)):
        if q_to_x is None:
            q_to_x = np.asarray(kern.proposal.density(kern.grid.nodes, np.asarray(x)), float)
        mains[m], perps[m] = _hastings_point_budget(kern, x, v, vx, q_to_x, not smooth)
    return MviConstants(float(wts @ mains), float(wts @ perps), weight.description,
                        t_nodes, "point", "point-gap")


def hastings_mvi_constants(family: HastingsFamily, mu: GridDensity, nu: GridDensity,
                           start: Start, weight: WeightFunction,
                           t_nodes: int = MVI_T_NODES,
                           ratio_ceiling: float = DEFAULT_RATIO_CEILING) -> MviConstants:
    """Mean-value constants for a differentiable accept/reject family.

    Density starts: the two-term (t, z)-quadrature with the g' factor and
    ``m_perp = 0``.  Point starts: the per-t sup budget plus the singular
    integral, paired against |mu(x) - nu(x)|.
    """
    if family.balancing.g_prime is None:
        raise PreconditionError(
            f"balancing '{family.balancing.tag}' has no derivative; use the "
            "min-one constants instead"
        )
    return _accept_reject_mvi_constants(family, mu, nu, start, weight, t_nodes,
                                        ratio_ceiling, smooth=True)


def mh_mvi_constants(family: HastingsFamily, mu: GridDensity, nu: GridDensity,
                     start: Start, weight: WeightFunction,
                     t_nodes: int = MVI_T_NODES) -> MviConstants:
    """Mean-value constants for the min-one family, obtained as the smooth-
    balancing limit: no g' factor in the main budgets, and the singular
    integral restricted to the sub-level set {z : r(x, z) <= 1}.  A density
    start's warm-start ceiling is ``DEFAULT_RATIO_CEILING``."""
    if family.balancing.tag != "min-one":
        raise PreconditionError(
            f"these constants are for the min-one family, got '{family.balancing.tag}'"
        )
    return _accept_reject_mvi_constants(family, mu, nu, start, weight, t_nodes,
                                        DEFAULT_RATIO_CEILING, smooth=False)


CONDITIONAL_CEILING = 1e12


def gibbs_mvi_constants(family: GibbsFamily, mu: GridDensity, nu: GridDensity,
                        start, weight: WeightFunction,
                        t_nodes: int = MVI_T_NODES) -> MviConstants:
    """Mean-value constants for the two-stage family.

    Density starts: the four-term t-quadrature built from the conditional
    V-averages, ``m_perp = 0``.  Point starts: the absolutely continuous
    budget uses |f(y) - (conditional V-average)(y1)| <= V(y) + (V-average)(y1)
    and the singular budget bounds the slice functional, so ``m_perp`` pairs
    with the slice mass of |mu - nu| at x2 — not with a point gap.  The
    slice budget is t-integrated like its siblings.
    """
    check_start(mu.grid, start)
    ts, wts = _t_quadrature(t_nodes)
    v2 = weight.values_on(mu.grid)
    kind = _start_kind(start)
    mains = np.empty(t_nodes)
    perps = np.zeros(t_nodes)
    for m, kern in enumerate(_curve_kernels(family, mu, nu, ts)):
        if not (np.all(np.isfinite(kern.cond_1g2)) and np.all(np.isfinite(kern.cond_2g1))
                and kern.cond_1g2.max() < CONDITIONAL_CEILING
                and kern.cond_2g1.max() < CONDITIONAL_CEILING):
            raise PreconditionError(
                f"conditional density unbounded on the grid at t={ts[m]:.6g}"
            )
        mv = kern.conditional_mean_first(v2)     # half-step V-average, over y1
        if kind == "density":
            rho2 = kern.w1 @ start.values
            s2 = rho2 / kern.marginal2
            pv = kern.apply_over_second(v2)      # full-step V-average, over y2
            pulled = (kern.w2 * rho2) @ kern.cond_1g2
            a_over_m1 = pulled / kern.marginal1
            t1 = np.max(s2[None, :] * mv[:, None] / v2)
            t2 = np.max((s2 * pv)[None, :] / v2)
            t3 = np.max(a_over_m1)
            t4 = np.max((a_over_m1 * mv)[:, None] / v2)
            mains[m] = t1 + t2 + t3 + t4
        else:
            x1, x2 = float(start[0]), float(start[1])
            c1x = kern.conditional_first_given_second(x2)
            mu2_x2 = float(np.interp(x2, kern.grid.axis2.nodes, kern.marginal2))
            mains[m] = np.max(
                (v2 + mv[:, None]) * (c1x / kern.marginal1)[:, None] / v2
            )
            perps[m] = (np.max(mv) + kern.apply_from_x2(x2, v2)) / mu2_x2
    if kind == "density":
        return MviConstants(float(wts @ mains), 0.0, weight.description, t_nodes,
                            "density", "none")
    return MviConstants(float(wts @ mains), float(wts @ perps), weight.description, t_nodes,
                        "point", "slice-mass")


def mvi_constants(family, mu: GridDensity, nu: GridDensity, start,
                  weight: WeightFunction, t_nodes: int = MVI_T_NODES) -> MviConstants:
    """Mean-value constants for any family: two-stage, min-one or
    differentiable accept/reject."""
    if isinstance(family, GibbsFamily):
        return gibbs_mvi_constants(family, mu, nu, start, weight, t_nodes)
    if family.balancing.tag == "min-one":
        return mh_mvi_constants(family, mu, nu, start, weight, t_nodes)
    return hastings_mvi_constants(family, mu, nu, start, weight, t_nodes)


# ---------------------------------------------------------------------------
# probing the bounds
# ---------------------------------------------------------------------------

def perp_gap(constants: MviConstants, mu: GridDensity, nu: GridDensity, start) -> float:
    """The start-specific gap the singular budget multiplies."""
    if constants.perp_pairing == "none":
        return 0.0
    if constants.perp_pairing == "point-gap":
        x = float(start)
        return abs(mu.at(x) - nu.at(x))
    grid = mu.grid
    gap = np.abs(mu.values - nu.values)
    section = interp_slice(grid.axis2, gap.T, float(start[1]))
    return float(grid.axis1.trapezoid_weights() @ section)


def mvi_bound(constants: MviConstants, mu: GridDensity, nu: GridDensity, start,
              weight: WeightFunction) -> float:
    """Right-hand side of the mean-value inequality for one (mu, nu, start)."""
    check_start(mu.grid, start)
    if constants.start_kind != _start_kind(start):
        raise InvalidInputError(f"constants for a {constants.start_kind} start cannot bound "
                                f"a {_start_kind(start)} start")
    v = weight.values_on(mu.grid)
    chi = SignedGridFunction.difference(nu, mu)
    return constants.m_rho * v_norm_measure(chi, v) + constants.m_perp * perp_gap(
        constants, mu, nu, start
    )


def _hastings_start_law(kern: HastingsKernel, start) -> np.ndarray:
    """Node values ``d`` of the one-step law from ``start`` (a density or a
    1-D point), so that ``P(start, f) = integrate_values(grid, d * f)``.

    A density start's law is ``rho P``.  Its vector-matrix product runs in
    numpy's own single-threaded loop (``einsum``), in a fixed order: a BLAS
    product of either orientation can round differently at another BLAS
    thread count.  A point start's law is the kernel's own row from that
    point (:meth:`HastingsKernel.point_row`), the law :func:`apply_hastings`
    integrates against.  Its rejection atom is split on the two nodes that
    bracket the point, each share over the node's quadrature weight.
    """
    w = kern.grid.trapezoid_weights()
    if isinstance(start, GridDensity):
        a, rej, rho = kern.accept_matrix, kern.rejection_vector, start.values
        return np.einsum("ij,i->j", a, w * rho) + rej * rho
    law, rej = kern.point_row(float(start))
    k, frac = slice_weights(kern.grid, float(start))
    law[k] += (1.0 - frac) * rej / w[k]
    law[k + 1] += frac * rej / w[k + 1]
    return law


BV_TERMS = 6


def random_bv_function(grid, weight_values, rng) -> np.ndarray:
    """A random function with |f| <= V: V times a ``BV_TERMS``-term
    trigonometric mixture whose coefficients have absolute sum 1."""
    coeffs = rng.uniform(-1.0, 1.0, BV_TERMS)
    coeffs /= np.sum(np.abs(coeffs))
    freqs = rng.uniform(0.25, 3.0, (BV_TERMS, grid.ndim))
    phases = rng.uniform(0.0, 2.0 * np.pi, (BV_TERMS, grid.ndim))
    if grid.ndim == 1:
        base = sum(
            coeffs[k] * np.sin(freqs[k, 0] * grid.nodes + phases[k, 0])
            for k in range(BV_TERMS)
        )
    else:
        x1, x2 = grid.mesh()
        base = sum(
            coeffs[k]
            * np.sin(freqs[k, 0] * x1 + phases[k, 0])
            * np.sin(freqs[k, 1] * x2 + phases[k, 1])
            for k in range(BV_TERMS)
        )
    return weight_values * base


def empirical_mvi_check(family, mu: GridDensity, nu: GridDensity, start,
                        weight: WeightFunction, constants: MviConstants,
                        n_trials: int = 50, seed: int = 0) -> dict:
    """Probe the mean-value bound with random V-bounded test functions.

    Each trial draws f on its own child stream (so the reduction is
    order-free), computes |P_mu(start,f) - P_nu(start,f)| and compares it to
    the f-independent right side.  Reports the violation count and the
    largest observed ratio.

    For accept/reject families the difference of the two one-step laws from
    ``start`` is formed once (:func:`_hastings_start_law`), and each trial
    pairs it with f in O(N); a two-stage trial applies both kernels in
    O(N1 N2).  Either way the trials run in contiguous shards in forked
    workers (:func:`~mcmccalc.workers.run_forked`), and the shard maxima and
    violation counts combine exactly.  Two-stage trials were timed before
    they were forked: on two cores, 1000 of them at 65 x 65 and 129 x 129
    nodes took about two thirds of their serial time, with the same bits.
    """
    n_trials = check_count(n_trials, "trial count", minimum=1)
    bound = mvi_bound(constants, mu, nu, start, weight)
    kern_mu = family.at(mu)
    kern_nu = family.at(nu)
    grid = mu.grid
    v = weight.values_on(grid)
    if isinstance(kern_mu, HastingsKernel):
        law = _hastings_start_law(kern_mu, start) - _hastings_start_law(kern_nu, start)

        def gap(f):
            return integrate_values(grid, law * f)
    else:
        def gap(f):
            return _value_at_start(kern_mu, start, f) - _value_at_start(kern_nu, start, f)
    streams = np.random.SeedSequence(seed).spawn(n_trials)

    def probe(lo: int, hi: int) -> tuple:
        """(largest |gap|, violation count) over trials ``lo..hi-1``."""
        worst, violations = 0.0, 0
        for child in streams[lo:hi]:
            lhs = abs(gap(random_bv_function(grid, v, np.random.default_rng(child))))
            worst = max(worst, lhs)
            if lhs > bound * (1.0 + 1e-9) + 1e-15:
                violations += 1
        return worst, violations

    parts = run_forked(probe, shards(n_trials, worker_count(n_trials)))
    worst_lhs = max(worst for worst, _ in parts)
    return {
        "n_trials": n_trials,
        "violations": sum(count for _, count in parts),
        # a correctly rounded division by bound > 0 is monotone, so this is
        # the largest of the per-trial ratios, bit for bit
        "max_ratio": worst_lhs / bound if bound > 0 else 0.0,
        "bound": bound,
        "worst_lhs": worst_lhs,
        "v_tag": weight.description,
    }


def uniform_boundedness_scan(family, mu: GridDensity, nu: GridDensity,
                             weight: WeightFunction, points,
                             t_nodes: int = 9) -> dict:
    """Point-start constants swept over starting locations.

    Dispatches on the family through :func:`mvi_constants` and reports the
    maxima plus an edge-growth diagnostic: the ratio of the worst edge value
    of m_x to its median over the scan.
    Feeding a compactly-supported scan of a two-stage family gives finite
    maxima; a random-walk family with V = 1 grows like 1 / target(x) toward
    the window edge and gets flagged.
    """
    m_x = []
    m_perp = []
    for p in points:
        start = tuple(p) if isinstance(family, GibbsFamily) else float(p)
        c = mvi_constants(family, mu, nu, start, weight, t_nodes)
        m_x.append(c.m_rho)
        m_perp.append(c.m_perp)
    m_x = np.asarray(m_x)
    m_perp = np.asarray(m_perp)
    edge = max(m_x[0], m_x[-1])
    median = float(np.median(m_x))
    edge_to_median = edge / median if median > 0 else np.inf
    return {
        "points": list(points),
        "m_x": m_x,
        "m_perp": m_perp,
        "max_m_x": float(np.max(m_x)),
        "max_m_perp": float(np.max(m_perp)),
        "all_finite": bool(np.all(np.isfinite(m_x)) and np.all(np.isfinite(m_perp))),
        "edge_to_median": float(edge_to_median),
        "flagged_growth": bool(edge_to_median > 5.0),
        "v_tag": weight.description,
    }
