"""Directional derivatives of the transition map in its target argument.

For a kernel family ``pi -> P_pi`` (one proposal/balancing pair, or the
two-stage construction) and a start ``rho`` (a density or a point mass), the
map ``t -> P_{(1-t) mu + t nu}(rho, f)`` is differentiable at ``t = 0`` and
its derivative is an integral against the direction ``chi = nu - mu``:

    d/dt P_{mu_t}(rho, f) |_{t=0}  =  action of the derivative on chi.

This module computes that derivative two independent ways:

* analytically — closed-form density (plus a point/slice term for point
  starts) assembled from the kernel pieces, exact at the quadrature level;
* numerically — a Richardson-extrapolated finite-difference oracle along the
  contamination segment (:func:`fd_directional_derivative`).

It also provides k-step derivatives via the product rule
(:func:`iterated_derivative`), their ergodic limit check, the
generator-form drift check, and a domination diagnostic for the
differentiation-under-the-integral step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from . import measures
from .errors import InvalidInputError, PreconditionError
from .kernels import (
    AtomPlusDensity,
    GibbsKernel,
    HastingsFamily,
    HastingsKernel,
    apply_gibbs,
    apply_hastings,
    iterate_kernel,
)
from .measures import (
    ContaminationCurve,
    GridDensity,
    SignedGridFunction,
    check_count,
    check_in_window,
    check_on_grid,
    curve_at,
    grid_function,
    integrate_values,
    interp_slice,
)

RATIO_CEILING = 1e6  # warm starts: rho / mu^2 at most this on the grid
FD_STEPS = (1e-2, 5e-3, 2.5e-3)

PointStart = Union[float, tuple]
Start = Union[GridDensity, PointStart]


# ---------------------------------------------------------------------------
# derivative container
# ---------------------------------------------------------------------------

@dataclass
class KernelDerivative:
    """The derivative of ``pi -> P_pi(start, f)`` at ``pi = at``.

    ``density_part`` holds the grid values of the absolutely continuous
    component.  For accept/reject point starts, ``singular_part`` is the
    scalar coefficient S of the point mass at the start, paired as
    ``chi(start) * S``.  For two-stage point starts the second component
    concentrates on the line ``y2 = start[1]`` instead of a point:
    ``slice_values`` (over first-coordinate nodes) is paired with
    ``chi(., slice_point)``.  A point start may sit anywhere in the window;
    both components differentiate the kernel's own law from that point.

    ``action(chi)`` evaluates the derivative against a zero-mass direction.
    """

    at: GridDensity
    start: Start
    test_function: np.ndarray
    density_part: np.ndarray
    singular_part: Optional[float] = None
    slice_point: Optional[float] = None
    slice_values: Optional[np.ndarray] = None
    scale: float = 1.0  # start mass carried through linear combinations

    def action(self, chi) -> float:
        grid = self.at.grid
        if isinstance(chi, SignedGridFunction):
            check_on_grid(grid, chi)
            chi_values = chi.values
        else:
            chi_values = grid_function(grid, chi, "direction")
        total = integrate_values(grid, chi_values * self.density_part)
        if self.singular_part is not None:
            chi_x = float(np.interp(float(self.start), grid.nodes, chi_values))
            total += self.scale * chi_x * self.singular_part
        if self.slice_values is not None:
            chi_slice = interp_slice(grid.axis2, chi_values.T, self.slice_point)
            w1 = grid.axis1.trapezoid_weights()
            total += float(np.sum(w1 * chi_slice * self.slice_values))
        return float(total)

    def centering_residual(self) -> float:
        """Pairing of the full derivative with the base target itself; zero in
        exact arithmetic (density starts reduce to the integral of
        ``mu * density_part``)."""
        return abs(self.action(self.at.values))


@dataclass
class IteratedDerivative:
    """Product-rule expansion of the k-step derivative: term ``j`` is the
    one-step derivative with start ``P^(k-1-j)(rho)`` and test function
    ``P^j f``."""

    terms: List[KernelDerivative]
    k: int

    def action(self, chi) -> float:
        return float(sum(t.action(chi) for t in self.terms))


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleReport:
    steps: Sequence[float]
    raw: List[float]
    richardson1: List[float]
    estimate: float
    spread: float
    converged: bool

    def require_converged(self):
        if not self.converged:
            raise InvalidInputError(
                f"finite-difference oracle did not stabilize (spread {self.spread:.3g})"
            )
        return self


def _value_at_start(kernel, start, f_values) -> float:
    """P(start, f) for one kernel: a density start integrates P f, and a point
    start reads the kernel's own law from that point.  A density start must
    live on the kernel's grid."""
    if isinstance(start, GridDensity):
        check_on_grid(kernel.grid, start)
        return start.expect(kernel.apply_to_function(f_values))
    if isinstance(kernel, GibbsKernel):
        return apply_gibbs(kernel, start, f_values)
    return apply_hastings(kernel, float(start), f_values)


def _family_value(family, target, start, f_values, k):
    kern = family.at(target)
    return _value_at_start(kern, start, iterate_kernel(kern, f_values, k - 1))


def fd_directional_derivative(family, mu: GridDensity, nu: GridDensity, start: Start,
                              f_values, k: int = 1) -> OracleReport:
    """Directional derivative of ``pi -> P_pi^k(start, f)`` at ``mu`` toward
    ``nu - mu``, by one-sided differences along the contamination segment with
    two Richardson levels (the three steps ``FD_STEPS`` are halved successively).

    The report flags ``converged = False`` when the two first-level
    extrapolations disagree by more than ``1e-3 * max(1, |estimate|)``.
    """
    k = check_count(k, minimum=1)
    measures.check_start(mu.grid, start)
    f_values = grid_function(mu.grid, f_values)
    curve = ContaminationCurve(mu, nu)
    base = _family_value(family, mu, start, f_values, k)
    raw = [
        (_family_value(family, curve_at(curve, t), start, f_values, k) - base) / t
        for t in FD_STEPS
    ]
    r1 = [2.0 * raw[1] - raw[0], 2.0 * raw[2] - raw[1]]
    estimate = (4.0 * r1[1] - r1[0]) / 3.0
    spread = abs(r1[1] - r1[0])
    converged = spread <= 1e-3 * max(1.0, abs(estimate))
    return OracleReport(FD_STEPS, raw, r1, float(estimate), float(spread), bool(converged))


def spike_density(grid, x: float, halfwidth_cells: int = 4) -> GridDensity:
    """Normalized triangular bump centered at ``x`` — a point-mass stand-in
    for oracle runs (shrink ``halfwidth_cells`` for a width study)."""
    hw = check_count(halfwidth_cells, "spike half-width in cells", minimum=1) * grid.h
    vals = np.maximum(0.0, 1.0 - np.abs(grid.nodes - x) / hw)
    return GridDensity(grid, vals, description=f"spike(x={x:g})")


# ---------------------------------------------------------------------------
# accept/reject family: closed forms
# ---------------------------------------------------------------------------

def _require_differentiable(kernel: HastingsKernel):
    if kernel.balancing.g_prime is None:
        raise PreconditionError(
            f"balancing '{kernel.balancing.tag}' has no derivative; "
            "derivative operations need a differentiable rule"
        )
    if not kernel.proposal.bounded:
        raise PreconditionError(
            f"proposal '{kernel.proposal.tag}' is not flagged bounded"
        )


def _check_warm_start(ratio: np.ndarray, nodes: np.ndarray,
                      label: str = "ratio rho/mu^2") -> None:
    """Refuse a start whose start-to-target ``ratio`` (one value per node of
    ``nodes``) exceeds ``RATIO_CEILING``; the message names the worst node."""
    worst = int(np.argmax(ratio))
    if ratio[worst] > RATIO_CEILING:
        raise PreconditionError(
            f"start-to-target {label} = {ratio[worst]:.3g} at node "
            f"{nodes[worst]:.6g} exceeds ceiling {RATIO_CEILING:g}"
        )


def _hastings_derivative_values(kernel: HastingsKernel, rho_values: np.ndarray,
                                f: np.ndarray) -> np.ndarray:
    """Density part of the accept/reject derivative for an a.c. start with
    node values ``rho_values`` (any nonnegative mass; the formula is linear)."""
    grid = kernel.grid
    w = grid.trapezoid_weights()
    mu = kernel.target.values

    # m2[i, j] = q(z_j, y_i) g'(r(y_i, z_j)), and m1 = m2.T holds the same
    # products; m1 is copied C-ordered, which keeps its matrix-vector products
    # (and their rounding) on the row-major BLAS path
    qt, g_prime = kernel.q_matrix_t, kernel.balancing.g_prime
    m2 = np.empty(qt.shape)
    for rows, r in kernel._ratio_blocks(mu):
        np.multiply(qt[rows], g_prime(r), out=m2[rows])
    m1 = np.ascontiguousarray(m2.T)  # [i, j] = g'(r(z_j, y_i)) q(y_i, z_j)
    s = w * (rho_values / mu)
    a = m1 @ s
    b = m1 @ (s * f)
    term1 = f * a - b

    wm = w * mu
    c = m2 @ (wm * f)
    d = m2 @ wm
    term2 = -(rho_values / mu**2) * (c - f * d)
    return term1 + term2


def hastings_derivative(kernel: HastingsKernel, rho: GridDensity, f_values) -> KernelDerivative:
    """Derivative of the accept/reject map for a warm density start.

    Preconditions: differentiable balancing rule, bounded proposal, and
    ``rho / mu^2`` below ``RATIO_CEILING`` on the grid, unless ``rho`` equals
    the target: the stationary start, whose derivative is ``f - P f``.
    """
    _require_differentiable(kernel)
    check_on_grid(kernel.grid, rho)
    if not np.array_equal(rho.values, kernel.target.values):
        _check_warm_start(rho.values / kernel.target.values**2, kernel.grid.nodes)
    f = grid_function(kernel.grid, f_values)
    return KernelDerivative(kernel.target, rho, f,
                            _hastings_derivative_values(kernel, rho.values, f))


def _density_derivative(kernel, rho: GridDensity, f_values) -> KernelDerivative:
    """Derivative for a density start of either family without the warm-start
    ceiling: the stationary start (:func:`generator_function`) and the starts
    a k-step expansion propagates, which inherit warmness from the original
    one."""
    f = grid_function(kernel.grid, f_values)
    if isinstance(kernel, GibbsKernel):
        dens = _gibbs_derivative_values(kernel, rho.values, f)
    else:
        _require_differentiable(kernel)
        dens = _hastings_derivative_values(kernel, rho.values, f)
    return KernelDerivative(kernel.target, rho, f, dens)


def hastings_derivative_at_point(kernel: HastingsKernel, x: float, f_values) -> KernelDerivative:
    """Derivative of :func:`apply_hastings` for a point start ``delta_x``.

    The result has an absolutely continuous part and the point coefficient
    ``S = -int mu * density_part / mu(x)``, paired as ``chi(x) * S``, so its
    pairing with the target itself vanishes.  It reads one row, in O(N).
    """
    _require_differentiable(kernel)
    grid = kernel.grid
    check_in_window(grid, x)
    f = grid_function(kernel.grid, f_values)
    nodes = grid.nodes
    fx = float(np.interp(x, nodes, f))
    mu_x = kernel.target_at(x)

    q_to_x = kernel.proposal.density(nodes, np.asarray(float(x)))
    gp_from_x = kernel.balancing.g_prime(kernel.ratio_at(float(x), nodes))
    dens = (f - fx) * gp_from_x * q_to_x / mu_x
    singular = -integrate_values(grid, kernel.target.values * dens) / mu_x
    return KernelDerivative(kernel.target, float(x), f, dens, singular_part=singular)


# ---------------------------------------------------------------------------
# two-stage family: closed forms
# ---------------------------------------------------------------------------

def _gibbs_derivative_values(kernel: GibbsKernel, rho_values: np.ndarray,
                             f: np.ndarray) -> np.ndarray:
    rho2 = kernel.w1 @ rho_values
    mf = kernel.conditional_mean_first(f)           # over first-coordinate nodes
    pf2 = kernel.apply_over_second(f)               # over second-coordinate nodes
    pulled = (kernel.w2 * rho2) @ kernel.cond_1g2   # over first-coordinate nodes
    return (
        (rho2 / kernel.marginal2)[None, :] * (mf[:, None] - pf2[None, :])
        + (pulled / kernel.marginal1)[:, None] * (f - mf[:, None])
    )


def gibbs_derivative(kernel: GibbsKernel, rho: GridDensity, f_values) -> KernelDerivative:
    """Derivative of the two-stage map for a warm density start (the start
    enters through its second marginal; that marginal must stay below
    ``RATIO_CEILING`` times the target's)."""
    check_on_grid(kernel.grid, rho)
    _check_warm_start((kernel.w1 @ rho.values) / kernel.marginal2,
                      kernel.grid.axis2.nodes, "second-marginal ratio")
    f = grid_function(kernel.grid, f_values)
    return KernelDerivative(kernel.target, rho, f, _gibbs_derivative_values(kernel, rho.values, f))


def gibbs_derivative_at_point(kernel: GibbsKernel, x, f_values) -> KernelDerivative:
    """Derivative of the two-stage map for a point start ``delta_x``,
    ``x = (x1, x2)``.

    The second component concentrates on the slice ``{y2 = x2}``: it is
    returned in ``slice_values`` (a function of the first coordinate) and
    paired with ``chi(., x2)``, not with a point evaluation.
    """
    grid = kernel.grid
    check_in_window(grid, x)
    x2 = float(x[1])
    f = grid_function(kernel.grid, f_values)
    mf = kernel.conditional_mean_first(f)
    c1x = kernel.conditional_first_given_second(x2)
    mu2_x2 = float(np.interp(x2, grid.axis2.nodes, kernel.marginal2))
    dens = (f - mf[:, None]) * (c1x / kernel.marginal1)[:, None]
    p_from_x2 = kernel.apply_from_x2(x2, f)
    slice_vals = (mf - p_from_x2) / mu2_x2
    return KernelDerivative(
        kernel.target, (float(x[0]), x2), f, dens,
        slice_point=x2, slice_values=slice_vals,
    )


# ---------------------------------------------------------------------------
# dispatch helpers
# ---------------------------------------------------------------------------

def derivative_for_start(kernel, start: Start, f_values) -> KernelDerivative:
    """One-step derivative for either start kind, for either family."""
    if isinstance(kernel, GibbsKernel):
        if isinstance(start, GridDensity):
            return gibbs_derivative(kernel, start, f_values)
        return gibbs_derivative_at_point(kernel, start, f_values)
    if isinstance(start, GridDensity):
        return hastings_derivative(kernel, start, f_values)
    return hastings_derivative_at_point(kernel, float(start), f_values)


# ---------------------------------------------------------------------------
# iterated derivative (product rule through k steps)
# ---------------------------------------------------------------------------

def iterated_derivative(kernel, start: Start, f_values, k: int) -> IteratedDerivative:
    """Derivative of ``pi -> P_pi^k(start, f)`` at the kernel's own target.

    Expands by the product rule into ``k`` one-step terms; term ``j`` uses the
    forward-propagated start ``P^(k-1-j)(start)`` and the backward-propagated
    test function ``P^j f``.  Point starts under the accept/reject family
    propagate as an atom plus a density; both pieces are differentiated and
    combined linearly.  Only the start itself meets ``RATIO_CEILING``.
    """
    k = check_count(k, minimum=1)
    measures.check_start(kernel.grid, start)
    f_seq, starts = _propagated(kernel, start, grid_function(kernel.grid, f_values), k)
    return IteratedDerivative([_k_step_term(kernel, start, starts[k - 1 - j], f_seq[j])
                               for j in range(k)], k)


def _propagated(kernel, start, f, count: int):
    """The test functions ``P^j f`` and starts ``P^j(start)``, ``j < count``."""
    f_seq = [f]
    for _ in range(count - 1):
        f_seq.append(kernel.apply_to_function(f_seq[-1]))
    starts: List = [start]
    for _ in range(count - 1):
        starts.append(_propagate_start(kernel, starts[-1]))
    return f_seq, starts


def _propagate_start(kernel, start):
    if isinstance(start, GridDensity):
        return GridDensity(kernel.grid, np.maximum(kernel.propagate_density(start.values), 0.0),
                           normalize=True, positive=False, description="propagated")
    if isinstance(start, AtomPlusDensity):
        return kernel.propagate_mixture(start)
    if isinstance(kernel, GibbsKernel):
        x2 = float(start[1])
        c1 = kernel.conditional_first_given_second(x2)
        dens = kernel.cond_2g1 * c1[:, None]
        return GridDensity(kernel.grid, dens, normalize=True, positive=False,
                           description="propagated-point")
    return kernel.propagate_point(float(start))


def _k_step_term(kernel, start, s, f_j) -> KernelDerivative:
    """One product-rule term: the start ``s`` meets the ceiling when it is
    ``start`` itself, not when it was propagated from it."""
    return (derivative_for_start(kernel, s, f_j) if s is start
            else _derivative_of_propagated(kernel, s, f_j))


def _derivative_of_propagated(kernel, s, f_j) -> KernelDerivative:
    if isinstance(s, AtomPlusDensity):
        point = hastings_derivative_at_point(kernel, s.x, f_j)
        dens_values = _hastings_derivative_values(kernel, s.density, f_j)
        return KernelDerivative(
            kernel.target, s.x, f_j,
            s.atom * point.density_part + dens_values,
            singular_part=point.singular_part, scale=s.atom,
        )
    if isinstance(s, GridDensity):
        return _density_derivative(kernel, s, f_j)
    return derivative_for_start(kernel, s, f_j)


def iterated_derivative_limit_check(family: HastingsFamily, mu: GridDensity,
                                    nu: GridDensity, start: Start, f_values,
                                    k_max: int = 30) -> dict:
    """Check that the k-step derivative action in direction ``nu - mu``
    approaches ``(nu - mu)(f)`` as k grows.

    Returns a report with the per-k gaps; ``passed`` requires the final gap
    below 1e-3 and an overall geometric decay profile.  Only ``start``
    itself meets ``RATIO_CEILING``, which its usual value, ``mu``, the
    stationary start, is exempt from.
    """
    k_max = check_count(k_max, "k_max", minimum=1)
    measures.check_start(mu.grid, start)
    chi = SignedGridFunction.difference(nu, mu)
    kernel = family.at(mu)
    f = grid_function(kernel.grid, f_values)
    target = integrate_values(kernel.grid, chi.values * f)
    f_seq, starts = _propagated(kernel, start, f, k_max)
    # the k-step action sums the one-step terms (P^(k-1-j) start, P^j f)
    actions = [sum(_k_step_term(kernel, start, starts[k - 1 - j], f_seq[j]).action(chi)
                   for j in range(k))
               for k in range(1, k_max + 1)]
    gaps = [abs(a - target) for a in actions]

    final_ok = gaps[-1] < 1e-3
    # geometric profile: compare the last quarter to the first quarter
    q = max(1, k_max // 4)
    head = max(np.mean(gaps[:q]), 1e-300)
    tail = np.mean(gaps[-q:])
    decaying = tail < 0.5 * head or gaps[-1] < 1e-5
    return {
        "target": target,
        "actions": actions,
        "gaps": gaps,
        "final_gap": gaps[-1],
        "passed": bool(final_ok and decaying),
    }


# ---------------------------------------------------------------------------
# generator drift and domination diagnostics
# ---------------------------------------------------------------------------

def generator_function(kernel, f_values) -> np.ndarray:
    """The derivative density at the stationary start, which collapses to
    ``f - P f`` (checked elsewhere to rounding error)."""
    return _density_derivative(kernel, kernel.target, f_values).density_part


def drift_via_derivative(kernel, f_values, set_mask, b: float) -> dict:
    """Check the unit-drift inequality ``-(f - P f)(x) <= -1 + b * 1_C(x)``
    node by node, up to 1e-9, with the left side computed through the
    derivative route.

    Returns pass/fail, the worst margin, and the smallest admissible ``b``.
    """
    set_mask = np.asarray(set_mask, dtype=bool)
    if set_mask.shape != kernel.grid.shape():
        raise InvalidInputError("small-set mask shape does not match the grid")
    drift = generator_function(kernel, f_values)  # = f - P f
    bound = -1.0 + b * set_mask.astype(float)
    margin = bound - (-drift)
    worst = float(margin.min())
    inside = np.where(set_mask, 1.0 - drift, -np.inf)
    b_needed = float(max(0.0, inside.max()))
    outside_ok = bool(np.all(drift[~set_mask] >= 1.0 - 1e-9)) if np.any(~set_mask) else True
    return {
        "passed": bool(worst >= -1e-9),
        "worst_margin": worst,
        "b_needed": b_needed,
        "outside_ok": outside_ok,
    }


def interchange_margin(family: HastingsFamily, mu: GridDensity, nu: GridDensity,
                       rho: GridDensity, f_values) -> dict:
    """Domination diagnostic for differentiating under the integral sign.

    Since every density on the segment is bounded below by ``min(mu, nu)``
    pointwise and ``|g'| <= 1``, the t-derivative integrand is dominated by a
    t-free envelope.  The report compares the envelope mass with the actual
    integrand mass at t in {0, 1/2, 1}.
    """
    for density in (nu, rho):
        check_on_grid(mu.grid, density)
    kernel0 = family.at(mu)
    f = np.abs(grid_function(kernel0.grid, f_values))
    grid = kernel0.grid
    w = grid.trapezoid_weights()
    q = kernel0.q_matrix
    qt = kernel0.q_matrix_t
    m = np.minimum(mu.values, nu.values)
    big = np.maximum(mu.values, nu.values)

    fsum = f[:, None] + f[None, :]
    env = fsum * (
        (rho.values / m)[None, :] * q
        + (rho.values / m**2)[:, None] * big[None, :] * qt
    )
    envelope_mass = float(w @ env @ w)

    curve = ContaminationCurve(mu, nu)
    actual = {}
    for t in (0.0, 0.5, 1.0):
        mut = curve_at(curve, t)
        kt = family.at(mut)
        gp = np.abs(kernel0.balancing.g_prime(kt.ratio_matrix()))
        integrand = fsum * (
            (rho.values / mut.values)[None, :] * q * gp.T
            + (rho.values / mut.values**2)[:, None] * mut.values[None, :] * qt * gp
        )
        actual[t] = float(w @ integrand @ w)
    worst = max(actual.values())
    return {
        "envelope_mass": envelope_mass,
        "actual_masses": actual,
        "margin": envelope_mass - worst,
        "finite": bool(np.isfinite(envelope_mass)),
    }
