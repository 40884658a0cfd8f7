"""Transition kernels on truncated grids.

Two families are implemented.

* :class:`HastingsKernel` — accept/reject chains built from a proposal density
  ``q`` and a balancing rule ``g`` mapping the target ratio
  ``r(x, y) = mu(y) q(y, x) / (mu(x) q(x, y))`` to an acceptance probability:

      P(x, f) = \\int f(y) q(x, y) g(r(x, y)) dy  +  f(x) * rejection_mass(x).

  By the balancing identity ``g(t) = t * g(1/t)`` the kernel satisfies
  detailed balance for the target *exactly* at the quadrature level, so grid
  invariance residuals sit at rounding error.

* :class:`GibbsKernel` — a deterministic-scan two-stage kernel on a product
  grid that refreshes the first coordinate from its conditional given the
  second, then the second given the new first.  Its moves depend on the
  starting point only through the second coordinate.

The module also provides point-mass propagation (``P^k(delta_x, .)`` kept as
an explicit atom plus a density part), the two-stage sampling step and
invariance checks; accept/reject chains are simulated in :mod:`mcmccalc.samplers`.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import InternalConsistencyError, InvalidInputError
from .measures import (
    Grid1D,
    Grid2D,
    GridDensity,
    POSITIVE_FLOOR,
    check_count,
    check_in_window,
    check_on_grid,
    check_positive,
    grid_function,
    integrate_values,
    interp_slice,
)

NEG_REJECTION_TOL = 1e-9
PROPOSAL_ROW_TOL = 1e-6
DEFAULT_MAX_ITER = 100_000
# Rows per block of the dense N x N passes: at N = 1025 each operand block is
# 262 KB, so a block's ratio, g or g' and product stay in a 2 MB L2 cache.
_BLOCK_ROWS = 32


# ---------------------------------------------------------------------------
# balancing rules
# ---------------------------------------------------------------------------

def _sum_powers(u: np.ndarray, m: int) -> np.ndarray:
    """S_m(u) = 1 + u + ... + u**m by Horner (m >= 0)."""
    acc = np.ones_like(u)
    for _ in range(m):
        acc = 1.0 + u * acc
    return acc


def _poly_g(x: np.ndarray, j: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    small = x <= 1.0
    xs = np.where(small, x, 1.0)
    lo = xs * _sum_powers(xs, j - 1) / _sum_powers(xs, j)
    with np.errstate(divide="ignore"):
        u = np.where(small, 1.0, 1.0 / np.maximum(x, 1.0))
    hi = _sum_powers(u, j - 1) / _sum_powers(u, j)
    return np.where(small, lo, hi)


def _poly_g_prime(x: np.ndarray, j: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    small = x <= 1.0
    xs = np.where(small, x, 1.0)
    # N'(x) = 1 + 2 x + ... + j x^(j-1), Horner from the top coefficient
    acc = np.full_like(xs, float(j))
    for i in range(j - 1, 0, -1):
        acc = acc * xs + float(i)
    lo = acc / _sum_powers(xs, j) ** 2
    with np.errstate(divide="ignore"):
        u = np.where(small, 1.0, 1.0 / np.maximum(x, 1.0))
    # T(u) = u^(j-1) + 2 u^(j-2) + ... + j
    t = np.ones_like(u)
    for i in range(2, j + 1):
        t = t * u + float(i)
    hi = u ** (j + 1) * t / _sum_powers(u, j) ** 2
    return np.where(small, lo, hi)


@dataclass
class BalancingFunction:
    """Acceptance rule ``g: (0, inf) -> [0, 1]`` with ``g(t) = t g(1/t)``.

    ``g_prime`` is ``None`` when the rule is not differentiable (the min-one
    rule); derivative-based operations must then refuse to run.
    ``small_value_factor`` is the constant ``inf_{t<=1} g(t)/min(1,t)`` used
    when converting min-one minorization bounds to this rule.

    ``g`` and ``g_prime`` must act elementwise, ``custom`` rules included:
    the dense kernel passes apply them to the target ratio one row block at
    a time, so an entry must not depend on the other entries of its array.
    """

    g: Callable[[np.ndarray], np.ndarray]
    g_prime: Optional[Callable[[np.ndarray], np.ndarray]]
    tag: str
    small_value_factor: float = 1.0

    def __post_init__(self):
        self._validate_identity()

    def _validate_identity(self):
        t = np.geomspace(1e-6, 1e6, 64)
        lhs = self.g(t)
        rhs = t * self.g(1.0 / t)
        if not np.all(np.isfinite(lhs)) or np.any(lhs < -1e-15) or np.any(lhs > 1 + 1e-12):
            raise InvalidInputError(f"balancing '{self.tag}' must map into [0, 1]")
        err = np.max(np.abs(lhs - rhs))
        if err > 1e-9:
            raise InvalidInputError(
                f"balancing '{self.tag}' violates g(t) = t*g(1/t) by {err:.3g}"
            )

    @staticmethod
    def barker() -> "BalancingFunction":
        # each body fills one buffer shaped like ``t`` (0-d for a scalar)
        def g(t):
            t = np.asarray(t, dtype=float)
            out = np.add(1.0, t, out=np.empty_like(t))
            with np.errstate(invalid="ignore"):
                np.divide(t, out, out=out)
            np.copyto(out, 1.0, where=np.isinf(t))
            return out

        def gp(t):
            t = np.asarray(t, dtype=float)
            out = np.add(1.0, t, out=np.empty_like(t))
            with np.errstate(over="ignore"):
                np.square(out, out=out)
                np.divide(1.0, out, out=out)
            np.copyto(out, 0.0, where=np.isinf(t))
            return out

        return BalancingFunction(g, gp, "barker", small_value_factor=0.5)

    @staticmethod
    def min_one() -> "BalancingFunction":
        return BalancingFunction(
            lambda t: np.minimum(1.0, np.asarray(t, dtype=float)),
            None,
            "min-one",
            small_value_factor=1.0,
        )

    @staticmethod
    def polynomial(j: int) -> "BalancingFunction":
        """g_j(t) = (t + ... + t^j) / (1 + ... + t^j); approaches min-one as
        j grows, stays differentiable with |g_j'| <= 1."""
        j = check_count(j, "polynomial balancing order", minimum=1)
        return BalancingFunction(
            lambda t: _poly_g(t, j),
            lambda t: _poly_g_prime(t, j),
            f"gj({j})",
            small_value_factor=j / (j + 1.0),
        )

    @staticmethod
    def custom(g, tag="custom") -> "BalancingFunction":
        """A rule from ``g`` alone: no derivative, and a measured small-value factor."""
        t = np.geomspace(1e-8, 1.0, 512)
        small_value_factor = float(np.min(np.asarray(g(t), dtype=float) / np.minimum(1.0, t)))
        return BalancingFunction(g, None, tag, small_value_factor)


# ---------------------------------------------------------------------------
# proposals
# ---------------------------------------------------------------------------

def reflect_into(lo: float, hi: float, z):
    """Fold real numbers into [lo, hi] by repeated boundary reflection."""
    width = hi - lo
    d = np.mod(np.asarray(z, dtype=float) - lo, 2.0 * width)
    return lo + width - np.abs(d - width)


def check_random_walk_sigma(sigma: float, lower: float, upper: float) -> None:
    """Refuse a random-walk step size outside ``0 < sigma <= (upper - lower)/6``:
    a wider step could cross the window twice, and the density's two mirror
    images would no longer match the folding sampler."""
    check_positive(sigma, "random-walk sigma")
    if sigma > (upper - lower) / 6.0:
        raise InvalidInputError(
            f"random-walk sigma {sigma:g} is too wide for the window [{lower:g}, {upper:g}]; "
            f"at most (upper - lower)/6 = {(upper - lower) / 6.0:g}")


def _cell_root(a, b, target_over_h):
    """Solve a*s + (b-a)/2*s^2 = target for s in [0, 1]; a, b >= 0."""
    c2 = 0.5 * (b - a)
    c0 = -target_over_h
    disc = a * a - 4.0 * c2 * c0
    denom = a + np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -2.0 * c0 / denom
    s = np.where(denom > 0.0, s, 0.0)
    return np.clip(s, 0.0, 1.0)


def sample_from_grid_density(grid: Grid1D, values: np.ndarray, u):
    """Map uniforms in (0,1) through the inverse CDF of the piecewise-linear
    density defined by node values (exact within each cell)."""
    v = np.asarray(values, dtype=float)
    cell = 0.5 * grid.h * (v[:-1] + v[1:])
    cdf = np.concatenate([[0.0], np.cumsum(cell)])
    total = cdf[-1]
    uu = np.asarray(u, dtype=float) * total
    k = np.clip(np.searchsorted(cdf, uu, side="right") - 1, 0, grid.n_points - 2)
    s = _cell_root(v[k], v[k + 1], (uu - cdf[k]) / grid.h)
    return grid.nodes[k] + s * grid.h


@dataclass
class ProposalKernel:
    """Proposal density with its vectorised sampler.

    ``density(x, y)`` must broadcast over arrays; every other field is
    keyword-only.  ``bounded`` marks a uniformly bounded density
    (precondition of the derivative operations).

    The chain drivers move many proposals at once through the vectorised
    pair: ``draw(rng, count)`` reads ``count`` raw draws from the stream and
    ``propose(x, draws)`` maps them to proposals from ``x`` with their fold
    mask; the chain drivers refuse a proposal without them.  ``symmetric``
    marks ``density(x, y) == density(y, x)``: ``q`` then cancels from the
    chain drivers' Hastings ratio, which reads only the target,
    ``mu(y) / mu(x)``.  The drivers read :meth:`q_pair` only for asymmetric
    proposals.

    On a grid, :meth:`matrix` gives ``q`` at the node pairs and
    :meth:`matrix_t` its transpose as a C-ordered array, so that every
    product with ``q(y, x)`` reads memory in order instead of through the
    strided view ``matrix(grid).T``.  When the matrix equals its transpose
    bit for bit (a random walk on a grid of exactly representable nodes),
    :meth:`matrix_t` returns the matrix itself and costs no memory.
    """

    density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    _: KW_ONLY
    tag: str
    bounded: bool = True
    params: dict = field(default_factory=dict)
    draw: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None
    propose: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = None
    symmetric: bool = False
    _matrix: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def q_pair(self, x, y):
        """(q(x, y), q(y, x)) for broadcasting ``x`` and ``y``; a symmetric
        proposal evaluates ``q(x, y)`` once for both, since the random walk's
        mirror terms round differently in the two argument orders."""
        q = self.density(x, y)
        return (q, q) if self.symmetric else (q, self.density(y, x))

    def matrix(self, grid: Grid1D) -> np.ndarray:
        """q(node_i, node_j) on ``grid``, rows indexed by the *from* state.

        The target enters an accept/reject kernel only through its ratio, so
        this matrix is assembled once per grid and shared by every kernel
        built on this proposal (every member of a family).  It is read-only.
        """
        return self._matrices(grid)[0]

    def matrix_t(self, grid: Grid1D) -> np.ndarray:
        """q(node_j, node_i) on ``grid``: the transpose of :meth:`matrix`,
        C-ordered and read-only; :meth:`matrix` itself when it is symmetric
        bit for bit."""
        return self._matrices(grid)[1]

    def _matrices(self, grid: Grid1D) -> tuple:
        if self._matrix is None or self._matrix[0] != grid:
            n = grid.nodes
            q = np.asarray(self.density(n[:, None], n[None, :]))
            q.flags.writeable = False
            qt = q if np.array_equal(q, q.T) else np.ascontiguousarray(q.T)
            qt.flags.writeable = False
            self._matrix = (grid, q, qt)
        return self._matrix[1:]

    def validate_rows(self, grid: Grid1D) -> float:
        """Largest deviation of quadrature row mass from 1 over grid starts."""
        sums = self.matrix(grid) @ grid.trapezoid_weights()
        worst = float(np.max(np.abs(sums - 1.0)))
        if worst > PROPOSAL_ROW_TOL:
            raise InvalidInputError(f"proposal '{self.tag}' rows integrate to 1 +/- "
                                    f"{worst:.3g} (tol {PROPOSAL_ROW_TOL:g})")
        return worst

    @staticmethod
    def random_walk(sigma: float, grid: Grid1D) -> "ProposalKernel":
        """Gaussian step reflected at the window walls.

        The density adds the two first mirror images, which matches the
        folding sampler for any step size that cannot cross the window twice
        and keeps the kernel symmetric in (x, y).
        """
        lo, hi = grid.lower, grid.upper
        check_random_walk_sigma(sigma, lo, hi)
        inv = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
        s2 = 2.0 * sigma * sigma

        def density(x, y):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            d0 = y - x
            d1 = (2.0 * hi - y) - x
            d2 = (2.0 * lo - y) - x
            return inv * (
                np.exp(-d0 * d0 / s2) + np.exp(-d1 * d1 / s2) + np.exp(-d2 * d2 / s2)
            )

        def draw(rng, count):
            return rng.standard_normal(count)

        def propose(x, draws):
            z = x + sigma * draws
            folded = (z < lo) | (z > hi)
            # most calls stay inside the window: count_nonzero tests the mask
            # in one C call, and the reflection is built only on a fold
            if np.count_nonzero(folded):
                z = np.where(folded, reflect_into(lo, hi, z), z)
            return z, folded

        return ProposalKernel(density, tag="random-walk", params={"sigma": sigma},
                              draw=draw, propose=propose, symmetric=True)

    @staticmethod
    def independence(base: GridDensity) -> "ProposalKernel":
        if base.grid.ndim != 1:
            raise InvalidInputError("independence proposal needs a 1-D base density")
        grid = base.grid
        vals = base.values

        def density(x, y):
            y = np.asarray(y, dtype=float)
            out = np.interp(y, grid.nodes, vals)
            return np.broadcast_to(out, np.broadcast(np.asarray(x, dtype=float), y).shape).copy()

        def draw(rng, count):
            return rng.uniform(size=count)

        def propose(x, draws):
            y = sample_from_grid_density(grid, vals, draws)
            return y, np.zeros(np.shape(draws), dtype=bool)

        return ProposalKernel(density, tag="independence", params={"base": base.description},
                              draw=draw, propose=propose)


# ---------------------------------------------------------------------------
# point-mass mixtures (atom + density), used by k-step propagation
# ---------------------------------------------------------------------------

@dataclass
class AtomPlusDensity:
    """Measure of the form ``atom * delta_x + density(y) dy`` on a 1-D grid."""

    grid: Grid1D
    x: float
    atom: float
    density: np.ndarray

    @property
    def mass(self) -> float:
        return self.atom + integrate_values(self.grid, self.density)

    def expect(self, f_values: np.ndarray) -> float:
        fx = float(np.interp(self.x, self.grid.nodes, f_values))
        return self.atom * fx + integrate_values(self.grid, self.density * f_values)


# ---------------------------------------------------------------------------
# accept/reject kernel
# ---------------------------------------------------------------------------

def _row_blocks(n: int):
    """Slices over the rows of an n x n matrix, ``_BLOCK_ROWS`` at a time."""
    for lo in range(0, n, _BLOCK_ROWS):
        yield slice(lo, min(lo + _BLOCK_ROWS, n))


class HastingsKernel:
    """Accept/reject kernel for a grid target.

    Parameters
    ----------
    target : GridDensity
        Invariant density (must carry the positivity floor).
    proposal : ProposalKernel
    balancing : BalancingFunction
    validate : bool
        Check proposal row masses on the target grid (default True).
    """

    def __init__(self, target: GridDensity, proposal: ProposalKernel,
                 balancing: BalancingFunction, validate: bool = True):
        if target.grid.ndim != 1:
            raise InvalidInputError("accept/reject kernels live on 1-D grids")
        if not target.positive:
            raise InvalidInputError("target must be a positive-floored density")
        self.target = target
        self.proposal = proposal
        self.balancing = balancing
        self.grid: Grid1D = target.grid
        self._accept = None
        self._rej = None
        if validate:
            proposal.validate_rows(self.grid)

    # -- cached node matrices ------------------------------------------------

    @property
    def q_matrix(self) -> np.ndarray:
        """q(node_i, node_j), rows indexed by the *from* state.

        The proposal's matrix on this grid (:meth:`ProposalKernel.matrix`):
        shared by every kernel of a family, and read-only.
        """
        return self.proposal.matrix(self.grid)

    @property
    def q_matrix_t(self) -> np.ndarray:
        """q(node_j, node_i), C-ordered (:meth:`ProposalKernel.matrix_t`)."""
        return self.proposal.matrix_t(self.grid)

    def ratio_matrix(self, target_values: Optional[np.ndarray] = None) -> np.ndarray:
        """r(node_i, node_j) for this kernel's target (or for substitute
        target values, used when sweeping along contamination curves), as a
        fresh C-ordered array the caller may overwrite."""
        mu = self.target.values if target_values is None else np.asarray(target_values)
        out = np.empty(self.q_matrix.shape)
        for rows, r in self._ratio_blocks(mu):
            out[rows] = r
        return out

    def _ratio_blocks(self, mu: np.ndarray):
        """Yield ``(rows, r)`` over consecutive blocks of ``_BLOCK_ROWS`` rows,
        ``r`` holding r(node_i, node_j) for the target values ``mu`` and i in
        ``rows``, in one buffer that the next block overwrites.  A pass that
        follows on the block finds it in cache; every entry is elementwise,
        so the bits do not depend on the blocking."""
        q, qt = self.q_matrix, self.q_matrix_t
        n = q.shape[0]
        buf = np.empty((min(_BLOCK_ROWS, n), n))
        for rows in _row_blocks(n):
            den = np.multiply(mu[rows, None], q[rows], out=buf[:rows.stop - rows.start])
            num = mu[None, :] * qt[rows]
            never = ~(den > 0.0)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                np.divide(num, den, out=den)
            np.copyto(den, 1.0, where=never)
            yield rows, den

    def _parts(self):
        if self._accept is None:
            q, g = self.q_matrix, self.balancing.g
            a = np.empty(q.shape)
            for rows, r in self._ratio_blocks(self.target.values):
                np.multiply(q[rows], g(r), out=a[rows])
            row = a @ self.grid.trapezoid_weights()
            rej = 1.0 - row
            worst = float(rej.min())
            if worst < -NEG_REJECTION_TOL:
                node = self.grid.nodes[int(rej.argmin())]
                raise InternalConsistencyError(
                    f"negative rejection mass {worst:.3g} at node {node:.6g}"
                )
            self._accept = a
            self._rej = np.maximum(rej, 0.0)
        return self._accept, self._rej

    @property
    def accept_matrix(self) -> np.ndarray:
        return self._parts()[0]

    @property
    def rejection_vector(self) -> np.ndarray:
        return self._parts()[1]

    # -- pointwise pieces (continuous state allowed) --------------------------

    def target_at(self, x) -> float:
        return float(max(self.target.at(x), POSITIVE_FLOOR))

    def ratio_at(self, x, y):
        """r(x, y) with y scalar or array; x scalar (off-grid allowed)."""
        y = np.asarray(y, dtype=float)
        mu_x = self.target_at(x)
        mu_y = np.interp(y, self.grid.nodes, self.target.values)
        q_xy = self.proposal.density(x, y)
        q_yx = self.proposal.density(y, np.asarray(x, dtype=float))
        num = mu_y * q_yx
        den = mu_x * q_xy
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r = num / den
        return np.where(den > 0.0, r, 1.0)

    def point_row(self, x):
        """(acceptance density q(x,.)g(r(x,.)) on nodes, rejection mass at x)."""
        check_in_window(self.grid, x)
        row = self.proposal.density(x, self.grid.nodes) * self.balancing.g(self.ratio_at(x, self.grid.nodes))
        rej = 1.0 - integrate_values(self.grid, row)
        if rej < -NEG_REJECTION_TOL:
            raise InternalConsistencyError(f"negative rejection mass {rej:.3g} at x={x:.6g}")
        return row, max(rej, 0.0)

    # -- applications ---------------------------------------------------------

    def apply_to_function(self, f_values: np.ndarray) -> np.ndarray:
        """(P f) on grid nodes."""
        a, rej = self._parts()
        f_values = np.asarray(f_values, dtype=float)
        return a @ (self.grid.trapezoid_weights() * f_values) + rej * f_values

    def propagate_density(self, rho_values: np.ndarray) -> np.ndarray:
        """(rho P) node values for an absolutely continuous start."""
        a, rej = self._parts()
        rho_values = np.asarray(rho_values, dtype=float)
        return (self.grid.trapezoid_weights() * rho_values) @ a + rej * rho_values

    def propagate_point(self, x: float) -> AtomPlusDensity:
        row, rej = self.point_row(x)
        return AtomPlusDensity(self.grid, float(x), rej, row)

    def propagate_mixture(self, m: AtomPlusDensity) -> AtomPlusDensity:
        step = self.propagate_point(m.x)
        dens = self.propagate_density(m.density) + m.atom * step.density
        return AtomPlusDensity(self.grid, m.x, m.atom * step.atom, dens)


# ---------------------------------------------------------------------------
# deterministic-scan two-stage kernel
# ---------------------------------------------------------------------------

class GibbsKernel:
    """Two-stage conditional-refresh kernel for a joint grid density.

    One step from ``(x1, x2)``: draw ``y1`` from the first-coordinate
    conditional given ``x2``, then ``y2`` from the second-coordinate
    conditional given ``y1``.  The starting first coordinate never enters.
    """

    def __init__(self, joint: GridDensity):
        if joint.grid.ndim != 2:
            raise InvalidInputError("two-stage kernels need a 2-D joint density")
        if not joint.positive:
            raise InvalidInputError("joint target must be a positive-floored density")
        self.target = joint
        self.grid: Grid2D = joint.grid
        v = joint.values
        self.w1 = self.grid.axis1.trapezoid_weights()
        self.w2 = self.grid.axis2.trapezoid_weights()
        self.marginal1 = v @ self.w2              # over first coordinate
        self.marginal2 = self.w1 @ v              # over second coordinate
        # cond_1g2[k, i]: density over y1 (index i) given second coordinate node k
        self.cond_1g2 = (v / self.marginal2[None, :]).T
        # cond_2g1[i, j]: density over y2 (index j) given first coordinate node i
        self.cond_2g1 = v / self.marginal1[:, None]
        worst = max(
            float(np.max(np.abs(self.cond_1g2 @ self.w1 - 1.0))),
            float(np.max(np.abs(self.cond_2g1 @ self.w2 - 1.0))),
        )
        if worst > PROPOSAL_ROW_TOL:
            raise InternalConsistencyError(
                f"conditional rows integrate to 1 +/- {worst:.3g}"
            )

    def conditional_first_given_second(self, x2: float) -> np.ndarray:
        """Density over the first coordinate given a (possibly off-grid) x2."""
        row = interp_slice(self.grid.axis2, self.target.values.T, x2)
        return row / float(row @ self.w1)

    def conditional_second_given_first(self, x1: float) -> np.ndarray:
        row = interp_slice(self.grid.axis1, self.target.values, x1)
        return row / float(row @ self.w2)

    def conditional_mean_first(self, f_values: np.ndarray) -> np.ndarray:
        """Mf over first-coordinate nodes: average of f(y1, .) under the
        second-coordinate conditional."""
        return (self.cond_2g1 * np.asarray(f_values, dtype=float)) @ self.w2

    def apply_over_second(self, f_values: np.ndarray) -> np.ndarray:
        """(P f) as a function of the second coordinate node index."""
        mf = self.conditional_mean_first(f_values)
        return self.cond_1g2 @ (self.w1 * mf)

    def apply_to_function(self, f_values: np.ndarray) -> np.ndarray:
        g = self.apply_over_second(f_values)
        return np.broadcast_to(g[None, :], self.grid.shape()).copy()

    def propagate_density(self, rho_values: np.ndarray) -> np.ndarray:
        rho2 = self.w1 @ np.asarray(rho_values, dtype=float)
        pull = (self.w2 * rho2) @ self.cond_1g2        # density of y1
        return self.cond_2g1 * pull[:, None]

    def apply_from_x2(self, x2: float, f_values: np.ndarray) -> float:
        c1 = self.conditional_first_given_second(x2)
        mf = self.conditional_mean_first(f_values)
        return float((self.w1 * c1) @ mf)


Kernel = Union[HastingsKernel, GibbsKernel]


# ---------------------------------------------------------------------------
# families: kernels indexed by their target, used for curves and flows
# ---------------------------------------------------------------------------

@dataclass
class HastingsFamily:
    """Accept/reject kernels sharing one proposal and balancing rule, indexed
    by the target density."""

    proposal: ProposalKernel
    balancing: BalancingFunction

    def at(self, target: GridDensity, validate: bool = False) -> HastingsKernel:
        return HastingsKernel(target, self.proposal, self.balancing, validate=validate)


@dataclass
class GibbsFamily:
    """Two-stage kernels indexed by the joint target."""

    def at(self, target: GridDensity, validate: bool = False) -> GibbsKernel:
        return GibbsKernel(target)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def hastings_ratio(kernel: HastingsKernel, x: float, y: float) -> float:
    """Target ratio r(x, y); returns 1 on never-proposed pairs."""
    return float(kernel.ratio_at(x, y))


def apply_hastings(kernel: HastingsKernel, x: float, f_values) -> float:
    """One-step expectation P(x, f) from a (possibly off-grid) point."""
    f_values = grid_function(kernel.grid, f_values)
    row, rej = kernel.point_row(x)
    fx = float(np.interp(x, kernel.grid.nodes, f_values))
    return integrate_values(kernel.grid, row * f_values) + rej * fx


def apply_hastings_to_density(kernel: HastingsKernel, rho: GridDensity, f_values) -> float:
    """P(rho, f) = integral of P(x, f) under the start density rho."""
    check_on_grid(kernel.grid, rho)
    f_values = grid_function(kernel.grid, f_values)
    pf = kernel.apply_to_function(f_values)
    return integrate_values(kernel.grid, rho.values * pf)


def apply_gibbs(kernel: GibbsKernel, x, f_values) -> float:
    """One-step expectation of the two-stage kernel from x = (x1, x2)."""
    check_in_window(kernel.grid, x)
    return kernel.apply_from_x2(float(x[1]), grid_function(kernel.grid, f_values))


def apply_gibbs_to_density(kernel: GibbsKernel, rho: GridDensity, f_values) -> float:
    check_on_grid(kernel.grid, rho)
    f_values = grid_function(kernel.grid, f_values)
    rho2 = kernel.w1 @ rho.values
    g = kernel.apply_over_second(f_values)
    return float((kernel.w2 * rho2) @ g)


def iterate_kernel(kernel: Kernel, f_values, steps: int, max_steps: int = DEFAULT_MAX_ITER):
    """P^steps f on the grid; steps = 0 returns a copy of the input values."""
    steps = check_count(steps, budget=max_steps)
    out = np.array(grid_function(kernel.grid, f_values))
    for _ in range(steps):
        out = kernel.apply_to_function(out)
    return out


def iterate_density(kernel: Kernel, rho: GridDensity, steps: int) -> np.ndarray:
    """(rho P^steps) node values, for at most ``DEFAULT_MAX_ITER`` steps."""
    check_on_grid(kernel.grid, rho)
    steps = check_count(steps, budget=DEFAULT_MAX_ITER)
    out = np.array(rho.values, dtype=float)
    for _ in range(steps):
        out = kernel.propagate_density(out)
    return out


def iterate_point(kernel: HastingsKernel, x: float, steps: int) -> AtomPlusDensity:
    """P^steps(delta_x, .) with the surviving atom tracked explicitly."""
    check_in_window(kernel.grid, x)
    steps = check_count(steps)
    m = AtomPlusDensity(kernel.grid, float(x), 1.0, np.zeros(kernel.grid.n_points))
    for _ in range(steps):
        m = kernel.propagate_mixture(m)
    return m


def sample_step_detail(kernel: GibbsKernel, x, rng: np.random.Generator):
    """One two-stage transition from ``x = (x1, x2)``, reading one uniform for
    ``y1`` and then one for ``y2``; returns ``((y1, y2), True, False)``."""
    if not isinstance(kernel, GibbsKernel):
        raise InvalidInputError("sample_step_detail steps two-stage kernels only; "
                                "simulate an accept/reject chain with run_limiting_chain")
    u1, u2 = rng.uniform(), rng.uniform()
    c1 = kernel.conditional_first_given_second(float(x[1]))
    y1 = float(sample_from_grid_density(kernel.grid.axis1, c1, u1))
    c2 = kernel.conditional_second_given_first(y1)
    y2 = float(sample_from_grid_density(kernel.grid.axis2, c2, u2))
    return (y1, y2), True, False


def acceptance_rate_quadrature(kernel: HastingsKernel) -> float:
    """Stationary acceptance probability by quadrature."""
    return 1.0 - integrate_values(
        kernel.grid, kernel.target.values * kernel.rejection_vector
    )


def check_invariance(kernel: Kernel, candidate: Optional[GridDensity] = None) -> float:
    """Total-variation residual of one propagation step applied to a candidate
    invariant density (the kernel target by default)."""
    cand = kernel.target if candidate is None else candidate
    check_on_grid(kernel.grid, cand)
    out = kernel.propagate_density(cand.values)
    diff = np.abs(out - cand.values)
    return integrate_values(kernel.grid, diff)
