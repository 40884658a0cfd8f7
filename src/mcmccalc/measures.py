"""Grids, densities and norms.

Everything downstream works with probability densities represented by their
values on a uniform truncated grid, integrated with trapezoid weights.  This
module owns that representation:

* :class:`Grid1D` / :class:`Grid2D` — uniform node sets with quadrature weights,
* :class:`GridDensity` — a nonnegative unit-mass density on a grid,
* :class:`SignedGridFunction` — a signed density (typically a difference of
  two densities, i.e. a zero-mass direction),
* :class:`WeightFunction` — a weight ``V >= 1`` used for weighted sup norms,
* :class:`ContaminationCurve` — the segment ``(1-t)*mu + t*nu``,

plus the basic operations on them: integration, weighted norms of functions
and of signed measures, curve evaluation, and CSV/JSON serialization with
bit-exact round-trips.  It also holds the input rules every module
shares: :func:`grid_function` for node-value functions, :func:`check_count`
for integer counts, :func:`check_positive`, :func:`check_window`,
:func:`check_in_window`, :func:`check_on_grid`, :func:`check_start`,
:func:`check_mixture` and :func:`check_covariance`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import InvalidInputError, RangeError, ResourceLimitError

# Densities flagged `positive` are floored at this value so ratios of densities
# stay finite on the whole grid.
POSITIVE_FLOOR = 1e-300

# Unit-mass tolerance for densities (relative to total mass 1).
MASS_TOL = 1e-10


def _fmt(x: float) -> str:
    """Format a float with 17 significant digits (bit-exact round trip)."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on a closed interval.

    Parameters
    ----------
    lower, upper : float
        Interval endpoints, ``lower < upper``.
    n_points : int
        Number of nodes, at least 3.

    Attributes
    ----------
    nodes : ndarray
        The node coordinates (read-only).
    h : float
        Node spacing ``(upper - lower) / (n_points - 1)``.
    """

    lower: float
    upper: float
    n_points: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_window(self.lower, self.upper)
        object.__setattr__(self, "n_points", check_count(self.n_points, "n_points", minimum=3))
        nodes = np.linspace(self.lower, self.upper, self.n_points)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        w = np.full(self.n_points, self.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        w.flags.writeable = False
        object.__setattr__(self, "_weights", w)

    @property
    def h(self) -> float:
        return (self.upper - self.lower) / (self.n_points - 1)

    @property
    def ndim(self) -> int:
        return 1

    def trapezoid_weights(self) -> np.ndarray:
        """Quadrature weights of the composite trapezoid rule on the nodes
        (read-only: built once per grid, and every caller shares them)."""
        return self._weights

    def shape(self):
        return (self.n_points,)


@dataclass(frozen=True)
class Grid2D:
    """Tensor product of two 1-D grids; quadrature weights are the outer
    product of the axis weights."""

    axis1: Grid1D
    axis2: Grid1D

    @property
    def ndim(self) -> int:
        return 2

    def shape(self):
        return (self.axis1.n_points, self.axis2.n_points)

    def trapezoid_weights(self) -> np.ndarray:
        return np.outer(self.axis1.trapezoid_weights(), self.axis2.trapezoid_weights())

    def mesh(self):
        """Node coordinate arrays ``(X1, X2)`` with indexing='ij'."""
        return np.meshgrid(self.axis1.nodes, self.axis2.nodes, indexing="ij")


Grid = Union[Grid1D, Grid2D]


def integrate_values(grid: Grid, values: np.ndarray) -> float:
    """Trapezoid integral of node values over the grid."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape():
        raise InvalidInputError(
            f"value array shape {values.shape} does not match grid shape {grid.shape()}"
        )
    return float(np.sum(grid.trapezoid_weights() * values))


def _interp1(grid: Grid1D, values: np.ndarray, x) -> np.ndarray:
    return np.interp(np.asarray(x, dtype=float), grid.nodes, values)


def slice_weights(axis: Grid1D, x: float) -> tuple:
    """``(k, f)``: linear interpolation at ``x`` weighs node ``k`` of ``axis``
    by ``1 - f`` and node ``k + 1`` by ``f``."""
    pos = np.interp(x, axis.nodes, np.arange(axis.n_points, dtype=float))
    k = min(int(pos), axis.n_points - 2)
    return k, pos - k


def interp_slice(axis: Grid1D, rows: np.ndarray, x: float) -> np.ndarray:
    """Linear interpolation at ``x`` between the rows of ``rows``, one per
    node of ``axis`` (pass ``values.T`` to slice along a second axis)."""
    k, f = slice_weights(axis, x)
    return (1.0 - f) * rows[k] + f * rows[k + 1]


def _interp2(grid: Grid2D, values: np.ndarray, x1, x2):
    """Bilinear interpolation at (x1, x2); scalar or array arguments."""
    a1, a2 = grid.axis1, grid.axis2
    x1 = np.clip(np.asarray(x1, dtype=float), a1.lower, a1.upper)
    x2 = np.clip(np.asarray(x2, dtype=float), a2.lower, a2.upper)
    t1 = (x1 - a1.lower) / a1.h
    t2 = (x2 - a2.lower) / a2.h
    i1 = np.minimum(t1.astype(int), a1.n_points - 2)
    i2 = np.minimum(t2.astype(int), a2.n_points - 2)
    f1 = t1 - i1
    f2 = t2 - i2
    v00 = values[i1, i2]
    v10 = values[i1 + 1, i2]
    v01 = values[i1, i2 + 1]
    v11 = values[i1 + 1, i2 + 1]
    return (
        v00 * (1 - f1) * (1 - f2)
        + v10 * f1 * (1 - f2)
        + v01 * (1 - f1) * f2
        + v11 * f1 * f2
    )


class GridDensity:
    """A probability density on a grid.

    Stores node values; the trapezoid integral must equal one to within
    ``1e-10`` (the constructor normalizes by default).  With ``positive=True``
    the values are floored at ``1e-300`` so pointwise ratios are always
    defined.

    Parameters
    ----------
    grid : Grid1D or Grid2D
    values : array_like
        Nonnegative node values, shape matching the grid.
    normalize : bool
        Divide by the current mass (default True).
    positive : bool
        Apply the positivity floor and mark the density as safe to divide by.
    description : str
        Free-form tag carried through serialization.
    """

    def __init__(self, grid, values, normalize=True, positive=False, description=""):
        values = np.array(grid_function(grid.shape(), values, "density values"))
        if np.any(values < 0):
            worst = float(values.min())
            raise InvalidInputError(f"density values must be >= 0, min is {worst}")
        if positive:
            values = np.maximum(values, POSITIVE_FLOOR)
        mass = float(np.sum(grid.trapezoid_weights() * values))
        if normalize:
            if mass <= 0:
                raise InvalidInputError("cannot normalize a zero-mass density")
            values = values / mass
        else:
            if abs(mass - 1.0) > MASS_TOL:
                raise InvalidInputError(
                    f"density mass {mass!r} differs from 1 by more than {MASS_TOL}"
                )
        values.flags.writeable = False
        self.grid = grid
        self.values = values
        self.positive = bool(positive)
        self.description = description

    @classmethod
    def from_callable(cls, grid, fn, description=""):
        if grid.ndim == 1:
            vals = fn(grid.nodes)
        else:
            vals = fn(*grid.mesh())
        return cls(grid, vals, normalize=True, positive=True, description=description)

    @property
    def mass(self) -> float:
        return integrate_values(self.grid, self.values)

    def at(self, *x):
        """Evaluate by linear (1-D) or bilinear (2-D) interpolation."""
        if self.grid.ndim == 1:
            return _interp1(self.grid, self.values, x[0])
        if len(x) == 1:
            x = tuple(np.asarray(x[0]).T) if np.ndim(x[0]) else x[0]
        return _interp2(self.grid, self.values, x[0], x[1])

    def expect(self, f_values) -> float:
        """Integral of a node-value function against this density."""
        return integrate_values(self.grid, np.asarray(f_values, dtype=float) * self.values)


class SignedGridFunction:
    """A signed density on a grid; typically a direction ``nu - mu``."""

    def __init__(self, grid, values, description=""):
        values = np.array(grid_function(grid.shape(), values, "signed density values"))
        values.flags.writeable = False
        self.grid = grid
        self.values = values
        self.description = description

    @classmethod
    def difference(cls, nu: GridDensity, mu: GridDensity) -> "SignedGridFunction":
        check_on_grid(mu.grid, nu)
        return cls(nu.grid, nu.values - mu.values, description="difference")

    @property
    def mass(self) -> float:
        return integrate_values(self.grid, self.values)

    def at(self, *x):
        if self.grid.ndim == 1:
            return _interp1(self.grid, self.values, x[0])
        return _interp2(self.grid, self.values, x[0], x[1])


@dataclass
class WeightFunction:
    """A weight ``V >= 1`` for weighted sup / L1 norms.

    ``evaluator`` maps node coordinate arrays to values: one array argument on
    a 1-D grid, two on a 2-D grid.  ``description`` is a short tag such as
    ``"const-1"``, ``"one-plus-square"`` or ``"exp-gamma-abs(0.5)"``.
    """

    evaluator: Callable[..., np.ndarray]
    description: str = "custom"

    def values_on(self, grid) -> np.ndarray:
        if grid.ndim == 1:
            vals = np.asarray(self.evaluator(grid.nodes), dtype=float)
        else:
            vals = np.asarray(self.evaluator(*grid.mesh()), dtype=float)
        vals = np.broadcast_to(vals, grid.shape()).astype(float)
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError(f"weight '{self.description}' is not finite on the grid")
        if np.any(vals < 1.0 - 1e-12):
            raise InvalidInputError(
                f"weight '{self.description}' dips below 1 on the grid (min {vals.min()})"
            )
        return np.maximum(vals, 1.0)

    def __call__(self, *x):
        return self.evaluator(*x)

    @staticmethod
    def const() -> "WeightFunction":
        return WeightFunction(lambda *xs: np.ones_like(np.asarray(xs[0], dtype=float)), "const-1")

    @staticmethod
    def one_plus_square() -> "WeightFunction":
        return WeightFunction(
            lambda *xs: 1.0 + sum(np.asarray(x, dtype=float) ** 2 for x in xs),
            "one-plus-square",
        )

    @staticmethod
    def exp_abs(gamma: float) -> "WeightFunction":
        check_positive(gamma, "exp-gamma-abs gamma")

        def _eval(*xs):
            s = sum(np.abs(np.asarray(x, dtype=float)) for x in xs)
            return np.exp(gamma * s)

        return WeightFunction(_eval, f"exp-gamma-abs({gamma:g})")

    def power(self, alpha: float) -> "WeightFunction":
        """The weight ``V**alpha`` (still >= 1 for alpha >= 0)."""
        if alpha < 0:
            raise InvalidInputError("weight power needs alpha >= 0")
        ev = self.evaluator
        return WeightFunction(
            lambda *xs: np.asarray(ev(*xs), dtype=float) ** alpha,
            f"{self.description}^{alpha:g}",
        )


@dataclass(frozen=True)
class ContaminationCurve:
    """The line segment ``t -> (1-t)*mu + t*nu`` between two densities."""

    mu: GridDensity
    nu: GridDensity

    def __post_init__(self):
        check_on_grid(self.mu.grid, self.nu)

    @property
    def grid(self):
        return self.mu.grid


def curve_at(curve: ContaminationCurve, t: float) -> GridDensity:
    """Evaluate a contamination curve at ``t`` in [0, 1].

    Endpoints return the stored densities unchanged; interior values are the
    exact nodal convex combination (no renormalization needed — the mass is 1
    to within 1e-12 automatically).
    """
    if not (isinstance(t, (int, float)) and math.isfinite(t)):
        raise InvalidInputError(f"curve parameter must be a finite number, got {t!r}")
    if t < 0.0 or t > 1.0:
        raise RangeError(f"curve parameter must lie in [0, 1], got {t}")
    if t == 0.0:
        return curve.mu
    if t == 1.0:
        return curve.nu
    vals = (1.0 - t) * curve.mu.values + t * curve.nu.values
    positive = curve.mu.positive or curve.nu.positive
    return GridDensity(curve.grid, vals, normalize=False, positive=positive,
                       description=f"curve(t={t:g})")


def grid_function(grid, f, what: str = "test function") -> np.ndarray:
    """Node values of the function ``f`` on ``grid``, checked.

    ``f`` is an array of the grid's shape, or a callable evaluated at the
    nodes of a 1-D grid or on the node mesh of a 2-D one.  ``grid`` may also
    be a bare shape tuple, for values whose grid is not at hand.

    Raises
    ------
    InvalidInputError
        If the values have the wrong shape or contain NaN/inf, or if a
        callable comes with a bare shape.
    """
    if isinstance(grid, tuple):
        if callable(f):
            raise InvalidInputError(f"{what} is a callable but no grid is given "
                                    "to evaluate it on; pass its node values")
        shape = grid
    else:
        shape = grid.shape()
        if callable(f):
            f = f(grid.nodes) if grid.ndim == 1 else f(*grid.mesh())
    vals = np.asarray(f, dtype=float)
    if vals.shape != shape:
        raise InvalidInputError(f"{what} has shape {vals.shape}, expected {shape}")
    if not np.all(np.isfinite(vals)):
        raise InvalidInputError(f"{what} must be finite on the grid")
    return vals


def check_positive(value: float, what: str) -> None:
    """Refuse ``value`` unless it is a real number (not a bool), positive
    and finite."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise InvalidInputError(f"{what} must be a positive finite number, got {value!r}")
    if not 0.0 < value < math.inf:
        raise InvalidInputError(f"{what} must be positive and finite, got {value:g}")


def check_window(lower: float, upper: float) -> None:
    """Refuse a grid window unless its ends are finite and ``lower < upper``."""
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise InvalidInputError("grid endpoints must be finite")
    if not lower < upper:
        raise InvalidInputError(f"the window needs lower < upper, got [{lower:g}, {upper:g}]")


def check_in_window(grid: Grid, x) -> None:
    """Refuse a start ``x`` (a point, or a chain's first state) outside the
    closed window of ``grid``: a number on a Grid1D, a pair on a Grid2D."""
    axes, coords = ((grid,), (x,)) if grid.ndim == 1 else ((grid.axis1, grid.axis2), tuple(x))
    if len(coords) != len(axes) or not all(a.lower <= c <= a.upper
                                           for a, c in zip(axes, coords)):
        window = " x ".join(f"[{a.lower:g}, {a.upper:g}]" for a in axes)
        got = ", ".join(f"{float(c):g}" for c in coords)
        raise InvalidInputError(f"must sit inside the grid window {window}, got "
                                + (got if grid.ndim == 1 else f"({got})"))


def check_on_grid(grid: Grid, density) -> None:
    """Refuse a density or signed function whose grid is not (equal to) ``grid``."""
    if density.grid != grid:
        raise InvalidInputError(f"density lives on {density.grid}, not on {grid}")


def check_start(grid: Grid, start) -> None:
    """Refuse a start off ``grid``: a density on another grid, or a point outside its window."""
    (check_on_grid if isinstance(start, GridDensity) else check_in_window)(grid, start)


def check_covariance(cov) -> float:
    """Determinant of the 2x2 covariance ``cov``, after checking that the
    matrix is symmetric (to 1e-12) and positive definite."""
    cov = np.asarray(cov, dtype=float)
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    if abs(cov[0, 1] - cov[1, 0]) > 1e-12 or cov[0, 0] <= 0 or det <= 0:
        raise InvalidInputError(
            f"covariance must be symmetric positive definite, got {cov.tolist()}")
    return det


def check_mixture(means, stds, weights) -> tuple:
    """The three mixture parameter arrays, after checking that they hold one
    entry per component, that every std is positive and that the weights are
    nonnegative with a positive sum."""
    means, stds, weights = (np.asarray(v, dtype=float) for v in (means, stds, weights))
    if means.ndim != 1 or not means.size or not means.shape == stds.shape == weights.shape:
        raise InvalidInputError("mixture needs one mean, std and weight per component, got "
                                f"{means.size}, {stds.size} and {weights.size}")
    if np.any(stds <= 0) or np.any(weights < 0) or weights.sum() <= 0:
        raise InvalidInputError("mixture needs positive stds and nonnegative weights")
    return means, stds, weights


def check_count(value, what: str = "step count", minimum: Optional[int] = 0,
                budget: Optional[int] = None) -> int:
    """``value`` as an ``int`` after checking that it is an integer (not a
    bool, not an integral float) of at least ``minimum`` (of any size when
    ``minimum`` is None, for indices whose range the caller checks).

    Raises
    ------
    InvalidInputError
        If the value is not such an integer.
    ResourceLimitError
        If ``budget`` is given and the value exceeds it.
    """
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or (minimum is not None and value < minimum)):
        least = "" if minimum is None else f" >= {minimum}"
        raise InvalidInputError(f"{what} must be an integer{least}, got {value!r}")
    if budget is not None and value > budget:
        raise ResourceLimitError(f"{what} {value} exceeds budget {budget}")
    return int(value)


def integrate(f_values, rho: GridDensity) -> float:
    """Expectation of a node-value function under a grid density (see
    :func:`grid_function` for what ``f_values`` may be and what it refuses)."""
    return rho.expect(grid_function(rho.grid, f_values))


def v_norm_function(f_values, weight_values) -> float:
    """Weighted sup norm ``sup |f| / V`` over grid nodes, from node values."""
    weight_values = np.asarray(weight_values, dtype=float)
    f_values = grid_function(weight_values.shape, f_values, "function values")
    return float(np.max(np.abs(f_values) / weight_values))


def v_norm_measure(chi: SignedGridFunction, weight_values) -> float:
    """Weighted total-variation norm ``integral of V * |chi|``, from the node
    values of V.

    With ``V == 1`` this is the plain TV integral: two mutually singular unit
    masses are at distance 2.
    """
    weight_values = grid_function(chi.values.shape, weight_values, "weight values")
    return integrate_values(chi.grid, weight_values * np.abs(chi.values))


def simpson_weights(n_nodes: int) -> np.ndarray:
    """Composite Simpson weights for ``n_nodes`` equispaced nodes (odd, >= 3)
    on the unit interval."""
    if check_count(n_nodes, "Simpson node count", minimum=3) % 2 == 0:
        raise InvalidInputError(f"Simpson rule needs an odd node count >= 3, got {n_nodes}")
    h = 1.0 / (n_nodes - 1)
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_density(density: GridDensity, csv_path) -> None:
    """Write a density to ``<csv_path>`` plus a JSON header ``<csv_path>.json``.

    1-D files have columns (node, value); 2-D files (node1, node2, value).
    Floats are written with 17 significant digits so a round trip reproduces
    the array bit for bit.
    """
    csv_path = Path(csv_path)
    grid = density.grid
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if grid.ndim == 1:
            writer.writerow(["node", "value"])
            for x, v in zip(grid.nodes, density.values):
                writer.writerow([_fmt(x), _fmt(v)])
            header = {
                "lower": grid.lower,
                "upper": grid.upper,
                "n_points": grid.n_points,
                "description": density.description,
            }
        else:
            writer.writerow(["node1", "node2", "value"])
            for i, x1 in enumerate(grid.axis1.nodes):
                for j, x2 in enumerate(grid.axis2.nodes):
                    writer.writerow([_fmt(x1), _fmt(x2), _fmt(density.values[i, j])])
            header = {
                "lower": [grid.axis1.lower, grid.axis2.lower],
                "upper": [grid.axis1.upper, grid.axis2.upper],
                "n_points": [grid.axis1.n_points, grid.axis2.n_points],
                "description": density.description,
            }
    with open(csv_path.with_suffix(csv_path.suffix + ".json"), "w") as fh:
        json.dump(header, fh, indent=2)
        fh.write("\n")


def load_density(csv_path, positive=False) -> GridDensity:
    """Inverse of :func:`save_density`."""
    csv_path = Path(csv_path)
    with open(csv_path.with_suffix(csv_path.suffix + ".json")) as fh:
        header = json.load(fh)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    if isinstance(header["n_points"], list):
        g1 = Grid1D(header["lower"][0], header["upper"][0], header["n_points"][0])
        g2 = Grid1D(header["lower"][1], header["upper"][1], header["n_points"][1])
        grid = Grid2D(g1, g2)
        vals = np.array([float(r[2]) for r in body]).reshape(grid.shape())
    else:
        grid = Grid1D(header["lower"], header["upper"], header["n_points"])
        vals = np.array([float(r[1]) for r in body])
    return GridDensity(grid, vals, normalize=False, positive=positive,
                       description=header.get("description", ""))


# convenient named densities used throughout tests and configs ---------------

def gaussian_density(grid: Grid1D, mean: float, std: float, positive=True) -> GridDensity:
    check_positive(std, "gaussian std")
    z = (grid.nodes - mean) / std
    vals = np.exp(-0.5 * z * z)
    return GridDensity(grid, vals, positive=positive,
                       description=f"gaussian(mean={mean:g},std={std:g})")


def gaussian_mixture_density(grid: Grid1D, means, stds, weights) -> GridDensity:
    means, stds, weights = check_mixture(means, stds, weights)
    vals = np.zeros(grid.n_points)
    for m, s, w in zip(means, stds, weights / weights.sum()):
        vals += w * np.exp(-0.5 * ((grid.nodes - m) / s) ** 2) / (s * math.sqrt(2 * math.pi))
    return GridDensity(grid, vals, positive=True, description="gaussian-mixture")


def gaussian2d_density(grid: Grid2D, mean, cov) -> GridDensity:
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    det = check_covariance(cov)
    inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[1, 0], cov[0, 0]]]) / det
    x1, x2 = grid.mesh()
    d1 = x1 - mean[0]
    d2 = x2 - mean[1]
    q = inv[0, 0] * d1 * d1 + (inv[0, 1] + inv[1, 0]) * d1 * d2 + inv[1, 1] * d2 * d2
    vals = np.exp(-0.5 * q)
    return GridDensity(grid, vals, positive=True,
                       description=f"gaussian2d(mean={mean.tolist()},cov={cov.tolist()})")
