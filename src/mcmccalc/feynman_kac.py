"""Reweight/mutate flows for sequences of targets on a shared grid.

A flow is driven by per-level pairs ``(G_p, M_p)``: a positive potential
``G_p`` and a mutation kernel ``M_p`` with a bounded transition density.  One
update step sends a distribution ``eta`` to the Boltzmann-Gibbs transform

    transform(eta)(y) = integral eta(dx) G_p(x) M_p(x, y) / eta(G_p),

which reweights by the potential and then moves mass through the mutation.
Iterating from an initial density produces the *reference flow*
``eta_1, eta_2, ...`` — the deterministic targets that sequential chain
algorithms track with empirical measures.

Everything here lives on a one-dimensional truncated grid.  Mutation rows are
re-normalised against the grid quadrature so that ``M(x, 1) = 1`` holds
*exactly*; that convention makes the transform mass-preserving and closes the
first-order decomposition (:func:`fk_decomposition_check`) to rounding error
instead of leaking the quadrature defect of each row.

The worked model is a bootstrap filter for a state-space pair

    W_{p+1} | W_p     ~  Normal(phi(W_p), 1/2),
    S_{p+1} | W_{p+1} ~  Normal(W_{p+1}, 1/2),

with a bounded drift map ``|phi| <= phi_bar``: level ``p`` uses the potential
``G_p(y) = exp(-(s_p - y)^2)`` (the likelihood of the recorded observation
``s_p``) and a ``Normal(phi(.), 1/2)`` mutation.  A frozen observation record
ships with the package so demos and experiments are reproducible.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DegenerateWeightsError,
    InvalidInputError,
    RangeError,
)
from .measures import (
    Grid1D,
    GridDensity,
    check_count,
    check_on_grid,
    check_positive,
    gaussian_density,
    grid_function,
)

MUTATION_CHUNK = 4096
DEFAULT_OBSERVATION_SEED = 11
DEFAULT_OBSERVATION_COUNT = 8
_OBSERVATION_FILE = "ssm_observations.csv"

# Both state-space noise variances are fixed at 1/2, so the likelihood of an
# observation s at latent position y is exp(-(s - y)^2) up to a constant.
SSM_NOISE_STD = math.sqrt(0.5)


def _check_finite_nonnegative(a: np.ndarray, what: str) -> None:
    """Refuse ``a`` unless every entry lies in [0, inf); NaN propagates
    through ``min`` and fails the test.  Empty input passes."""
    if a.size and not (a.min() >= 0.0 and a.max() < np.inf):
        raise InvalidInputError(f"{what} must be finite and nonnegative")


def check_row_masses(xs: np.ndarray, mass: np.ndarray) -> None:
    """Refuse the mutation rows from the points ``xs`` unless every mass is positive."""
    if not (mass > 0.0).all():
        raise InvalidInputError("mutation row from x=%g carries no mass on the grid"
                                % float(xs[int(np.argmin(mass))]))


def _check_flow_grid(grid) -> None:
    if grid.ndim != 1:
        raise InvalidInputError("reweight/mutate flows are one-dimensional")


def check_depth(p, pairs: int) -> int:
    """``p`` as an ``int`` after checking that a depth-``p`` scheme fits a
    model of ``pairs`` reweight/mutate pairs: levels ``1..p`` are fed by the
    pairs ``1..p-1``."""
    p = check_count(p, "depth", minimum=1)
    if p - 1 > pairs:
        raise RangeError("depth %d needs %d reweight/mutate pairs, the model has %d"
                         % (p, p - 1, pairs))
    return p


# ---------------------------------------------------------------------------
# mutation kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MutationKernel:
    """A Markov move described by a transition density ``density(x, y)``.

    ``density`` must broadcast over numpy arrays in both arguments and return
    nonnegative finite values.  Every row is divided by its grid quadrature
    mass, by :meth:`rows` or by the chain mixtures, which take their masses
    from :meth:`densities` in groups of their own and check them with
    :func:`check_row_masses`; so the density only has to be correct up to
    an x-dependent constant.
    """

    density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    tag: str = "custom"

    def rows(self, grid: Grid1D, xs: np.ndarray) -> np.ndarray:
        """Quadrature-normalised transition rows from the points ``xs``.

        Returns an array of shape ``(len(xs), grid.n_points)`` whose i-th row
        integrates to one against the trapezoid weights: :meth:`densities`,
        each row divided by its mass.  The masses come from one
        matrix-vector product over all the rows.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        raw, own = self.densities(grid, xs)
        mass = raw @ grid.trapezoid_weights()
        check_row_masses(xs, mass)
        # raw may be the density's own array: leave it as it is
        return np.divide(raw, mass[:, None], out=raw if own else None)

    def densities(self, grid: Grid1D, xs: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Unnormalised rows ``density(x, nodes)`` from the points ``xs``,
        shape ``(len(xs), grid.n_points)``, checked finite and nonnegative
        unless its ``_in_range`` flag is set, and whether the array is this call's own.

        A run of equal consecutive points (a chain that rejected) evaluates
        the density once and repeats the row in a new array; without
        repeats the array may be the density's own.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if xs.ndim != 1:
            raise InvalidInputError("mutation rows expect a flat array of start points")
        pts = xs
        if xs.size > 1:
            first = np.empty(xs.size, dtype=bool)
            first[0] = True
            np.not_equal(xs[1:], xs[:-1], out=first[1:])
            if not first.all():
                pts = xs[first]
        raw = np.asarray(self.density(pts[:, None], grid.nodes[None, :]), dtype=float)
        if raw.shape != (pts.size, grid.n_points):
            raise InvalidInputError(
                "mutation density returned shape %r, expected %r"
                % (raw.shape, (pts.size, grid.n_points))
            )
        if not getattr(self.density, "_in_range", False):
            _check_finite_nonnegative(raw, "mutation density")
        if pts is xs:
            return raw, False
        return raw[np.cumsum(first) - 1], True


def gaussian_mutation(mean_map: Callable[[np.ndarray], np.ndarray],
                      std: float,
                      tag: str = "gaussian") -> MutationKernel:
    """Mutation ``x -> Normal(mean_map(x), std^2)``."""
    if not callable(mean_map):
        raise InvalidInputError("mean_map must be callable")
    check_positive(std, "mutation std")
    norm = 1.0 / (std * math.sqrt(2.0 * math.pi))

    def density(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # norm * exp(-0.5 * z * z), z = (y - mean_map(x)) / std, in two buffers
        z = np.asarray(np.subtract(y, mean_map(x)))
        np.divide(z, std, out=z)
        out = np.multiply(-0.5, z, out=np.empty_like(z))
        np.multiply(out, z, out=out)
        np.exp(out, out=out)
        np.multiply(norm, out, out=out)
        return out if out.ndim else out[()]

    # norm * exp(-0.5 * z * z) lies in [0, norm]: with a finite norm the rows need
    # no scan (a NaN mean gives a NaN mass, which check_row_masses refuses)
    density._in_range = math.isfinite(norm)
    return MutationKernel(density=density, tag=tag)


_BOUNDED_MAPS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "tanh": np.tanh,
    "arctan": lambda x: (2.0 / math.pi) * np.arctan(x),
}


def bounded_map(tag: str, bound: float) -> Callable[[np.ndarray], np.ndarray]:
    """A named odd map scaled to take values in ``[-bound, bound]``."""
    if tag not in _BOUNDED_MAPS:
        raise InvalidInputError(
            "unknown bounded map %r (known: %s)" % (tag, ", ".join(sorted(_BOUNDED_MAPS)))
        )
    check_positive(bound, "bounded map bound")
    base = _BOUNDED_MAPS[tag]

    def phi(x: np.ndarray) -> np.ndarray:
        return bound * base(np.asarray(x, dtype=float))

    return phi


# ---------------------------------------------------------------------------
# empirical measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalMeasure:
    """A uniformly weighted collection of real-valued sample points."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.atleast_1d(np.asarray(self.samples, dtype=float))
        if samples.ndim != 1 or samples.size == 0:
            raise InvalidInputError("an empirical measure needs a nonempty flat sample array")
        if not np.all(np.isfinite(samples)):
            raise InvalidInputError("sample points must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    def expect(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """Sample mean of ``fn`` (a callable evaluated at the points)."""
        if not callable(fn):
            raise InvalidInputError("EmpiricalMeasure.expect takes a callable")
        vals = np.asarray(fn(self.samples), dtype=float)
        return float(np.mean(vals))


MeasureLike = Union[GridDensity, EmpiricalMeasure]
PotentialLike = Union[Callable[[np.ndarray], np.ndarray], np.ndarray, Sequence[float]]


# ---------------------------------------------------------------------------
# the Boltzmann-Gibbs transform
# ---------------------------------------------------------------------------

def _potential_on_nodes(potential: PotentialLike, grid: Grid1D) -> np.ndarray:
    if callable(potential):
        vals = np.asarray(potential(grid.nodes), dtype=float)
    else:
        vals = np.asarray(potential, dtype=float)
    if vals.shape != (grid.n_points,):
        raise InvalidInputError(
            "potential evaluates to shape %r on a grid of %d nodes"
            % (vals.shape, grid.n_points)
        )
    _check_finite_nonnegative(vals, "potential values")
    return vals


def boltzmann_gibbs(eta: MeasureLike,
                    potential: PotentialLike,
                    mutation: MutationKernel,
                    grid: Optional[Grid1D] = None) -> GridDensity:
    """Reweight ``eta`` by the potential, then push through the mutation.

    For grid input this is quadrature against the normalised mutation rows;
    for an :class:`EmpiricalMeasure` it is the finite mixture

        sum_i G(Y_i) M(Y_i, .) / sum_i G(Y_i),

    evaluated exactly at each sample point (no interpolation).  Raises
    :class:`DegenerateWeightsError` when the total potential weight vanishes.
    """
    if isinstance(eta, GridDensity):
        _check_flow_grid(eta.grid)
        if grid is not None:
            check_on_grid(grid, eta)
        grid = eta.grid
        g_vals = _potential_on_nodes(potential, grid)
        weighted = grid.trapezoid_weights() * eta.values * g_vals
        total = float(weighted.sum())
        if not math.isfinite(total) or total <= 0.0:
            raise DegenerateWeightsError(
                "eta(G) = %g: the potential kills the whole grid density" % total
            )
        mixed = _accumulate_rows(mutation, grid, grid.nodes, weighted)
        return GridDensity(grid, mixed / total, normalize=True, positive=True,
                           description="bg-transform")
    if isinstance(eta, EmpiricalMeasure):
        if grid is None:
            raise InvalidInputError("empirical input needs an explicit output grid")
        _check_flow_grid(grid)
        if not callable(potential):
            raise InvalidInputError(
                "empirical input needs a callable potential (samples sit off the grid)"
            )
        g_at = np.asarray(potential(eta.samples), dtype=float)
        if g_at.shape != eta.samples.shape:
            raise InvalidInputError("potential must return one value per sample")
        _check_finite_nonnegative(g_at, "potential values")
        total = float(g_at.sum())
        if not math.isfinite(total) or total <= 0.0:
            raise DegenerateWeightsError(
                "all %d sample weights vanished under the potential" % eta.n_samples
            )
        mixed = _accumulate_rows(mutation, grid, eta.samples, g_at)
        return GridDensity(grid, mixed / total, normalize=True, positive=True,
                           description="bg-transform")
    raise InvalidInputError("eta must be a GridDensity or an EmpiricalMeasure")


def _accumulate_rows(mutation: MutationKernel, grid: Grid1D,
                     xs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i weights[i] * normalised_row(xs[i], .), chunked to bound memory."""
    acc = np.zeros(grid.n_points)
    for start in range(0, xs.size, MUTATION_CHUNK):
        sl = slice(start, start + MUTATION_CHUNK)
        acc += weights[sl] @ mutation.rows(grid, xs[sl])
    return acc


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

class FeynmanKacModel:
    """Per-level ``(potential, mutation)`` pairs plus an initial density.

    Level indices are one-based.  The model owns the reference flow: lazily
    iterating the Boltzmann-Gibbs transform from ``eta1`` yields
    ``flow(1) = eta1`` through ``flow(n_levels + 1)``, each a
    :class:`~mcmccalc.measures.GridDensity` on the shared grid.  Mutation
    matrices (normalised rows from every node) are cached per level.

    Validated at construction: equal numbers of potentials and mutations,
    every potential strictly positive on the grid, and ``eta1`` living on the
    model grid.  Mutation rows are checked (finite, nonnegative, positive
    mass) when first materialised.
    """

    def __init__(self, grid: Grid1D,
                 potentials: Sequence[Callable[[np.ndarray], np.ndarray]],
                 mutations: Sequence[MutationKernel],
                 eta1: GridDensity) -> None:
        _check_flow_grid(grid)
        potentials = list(potentials)
        mutations = list(mutations)
        if not potentials or len(potentials) != len(mutations):
            raise InvalidInputError(
                "need matching nonempty potential/mutation sequences, got %d and %d"
                % (len(potentials), len(mutations))
            )
        for p, g in enumerate(potentials, start=1):
            if not callable(g):
                raise InvalidInputError("level-%d potential must be callable" % p)
            vals = _potential_on_nodes(g, grid)
            if np.any(vals <= 0.0):
                raise InvalidInputError(
                    "level-%d potential must be strictly positive on the grid" % p
                )
        for p, m in enumerate(mutations, start=1):
            if not isinstance(m, MutationKernel):
                raise InvalidInputError("level-%d mutation must be a MutationKernel" % p)
        if not isinstance(eta1, GridDensity):
            raise InvalidInputError("eta1 must be a GridDensity")
        check_on_grid(grid, eta1)
        self.grid = grid
        self.potentials = potentials
        self.mutations = mutations
        self.eta1 = eta1
        self._flows: List[GridDensity] = [eta1]
        self._matrices: Dict[int, np.ndarray] = {}
        self._g_nodes: Dict[int, np.ndarray] = {}
        self._g_mass: Dict[int, float] = {}

    @property
    def n_levels(self) -> int:
        return len(self.potentials)

    def _check_level(self, level: int) -> int:
        level = check_count(level, "level index", minimum=None)
        if not 1 <= level <= self.n_levels:
            raise RangeError(
                "level %d outside 1..%d" % (level, self.n_levels)
            )
        return level

    def potential_at(self, level: int, xs: np.ndarray) -> np.ndarray:
        level = self._check_level(level)
        vals = np.asarray(self.potentials[level - 1](np.asarray(xs, dtype=float)),
                          dtype=float)
        _check_finite_nonnegative(vals, "potential values")
        return vals

    def potential_nodes(self, level: int) -> np.ndarray:
        level = self._check_level(level)
        if level not in self._g_nodes:
            self._g_nodes[level] = _potential_on_nodes(
                self.potentials[level - 1], self.grid)
        return self._g_nodes[level]

    def mutation(self, level: int) -> MutationKernel:
        return self.mutations[self._check_level(level) - 1]

    def mutation_matrix(self, level: int) -> np.ndarray:
        """Normalised node-to-node mutation rows for one level (cached)."""
        level = self._check_level(level)
        if level not in self._matrices:
            kernel = self.mutations[level - 1]
            # identical kernel objects share one matrix
            for other, mat in self._matrices.items():
                if self.mutations[other - 1] is kernel:
                    self._matrices[level] = mat
                    break
            else:
                self._matrices[level] = kernel.rows(self.grid, self.grid.nodes)
        return self._matrices[level]

    def transform(self, level: int, eta: MeasureLike) -> GridDensity:
        """One Boltzmann-Gibbs update of ``eta`` with this level's pair."""
        level = self._check_level(level)
        return boltzmann_gibbs(eta, self.potentials[level - 1],
                               self.mutations[level - 1], grid=self.grid)

    def flow(self, p: int) -> GridDensity:
        """Reference flow at level ``p`` (1-based; defined up to n_levels+1)."""
        p = check_count(p, "flow level", minimum=None)
        if not 1 <= p <= self.n_levels + 1:
            raise RangeError("flow level %d outside 1..%d" % (p, self.n_levels + 1))
        while len(self._flows) < p:
            k = len(self._flows)  # next update uses pair k
            self._flows.append(self.transform(k, self._flows[-1]))
        return self._flows[p - 1]

    def flow_potential_mass(self, level: int) -> float:
        """eta_level(G_level): the normalising constant of the transform."""
        level = self._check_level(level)
        if level not in self._g_mass:
            eta = self.flow(level)
            mass = float(np.sum(self.grid.trapezoid_weights()
                                * eta.values * self.potential_nodes(level)))
            if not math.isfinite(mass) or mass <= 0.0:
                raise DegenerateWeightsError(
                    "reference flow puts weight %g on the level-%d potential"
                    % (mass, level)
                )
            self._g_mass[level] = mass
        return self._g_mass[level]


class SsmBootstrapModel(FeynmanKacModel):
    """Bootstrap filter for the bounded-drift state-space pair above.

    Level ``p`` carries the likelihood potential
    ``G_p(y) = exp(-(s_p - y)^2)`` of the recorded observation ``s_p`` and a
    ``Normal(phi(.), 1/2)`` mutation.  The drift map must satisfy
    ``|phi| <= phi_bar`` on the grid; with the default ``phi = tanh`` the
    bound is ``phi_bar = 1``.  The initial density is the signal's own
    one-step marginal from the origin, ``Normal(0, 1/2)``.
    """

    def __init__(self, grid: Grid1D,
                 observations: Sequence[float],
                 phi: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 phi_bar: float = 1.0) -> None:
        obs = np.atleast_1d(np.asarray(observations, dtype=float))
        if obs.ndim != 1 or obs.size == 0 or not np.all(np.isfinite(obs)):
            raise InvalidInputError("observations must be a nonempty finite sequence")
        check_positive(phi_bar, "phi_bar")
        if phi is None:
            phi = bounded_map("tanh", phi_bar)
        drift = np.asarray(phi(grid.nodes), dtype=float)
        if np.any(np.abs(drift) > phi_bar * (1.0 + 1e-12)):
            worst = float(np.max(np.abs(drift)))
            raise InvalidInputError(
                "drift map exceeds its stated bound on the grid (%.6g > %.6g)"
                % (worst, phi_bar)
            )

        def make_potential(s: float) -> Callable[[np.ndarray], np.ndarray]:
            def g(y: np.ndarray) -> np.ndarray:
                d = np.asarray(y, dtype=float) - s
                return np.exp(-d * d)
            return g

        move = gaussian_mutation(phi, SSM_NOISE_STD, tag="bootstrap")
        super().__init__(grid,
                         [make_potential(float(s)) for s in obs],
                         [move] * obs.size,
                         gaussian_density(grid, 0.0, SSM_NOISE_STD))
        self.phi = phi
        self.phi_bar = float(phi_bar)
        self.observations = obs

    def describe(self) -> str:
        return ("bootstrap state-space model: %d observations, |phi| <= %g, "
                "on [%g, %g] (%d nodes)" % (
                    self.n_levels, self.phi_bar,
                    self.grid.lower, self.grid.upper, self.grid.n_points))


# ---------------------------------------------------------------------------
# lookahead operators and the first-order decomposition
# ---------------------------------------------------------------------------

def q_bar_operator(model: FeynmanKacModel, level: int,
                   f_values: np.ndarray) -> np.ndarray:
    """One-level lookahead: weight by the potential, mutate, rescale.

    Returns the node values of

        x  ->  G_level(x) * M_level(x, f) / eta_level(G_level),

    where ``eta_level`` is the reference flow.  The output is a plain grid
    function, so the operator composes.
    """
    level = model._check_level(level)
    f_vals = grid_function(model.grid, f_values)
    m_f = model.mutation_matrix(level) @ (model.grid.trapezoid_weights() * f_vals)
    return model.potential_nodes(level) * m_f / model.flow_potential_mass(level)


def _q_bar_at_points(model: FeynmanKacModel, level: int,
                     f_values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Same operator, evaluated exactly at off-grid points (no interpolation)."""
    level = model._check_level(level)
    f_vals = grid_function(model.grid, f_values)
    xs = np.asarray(xs, dtype=float)
    weighted_f = model.grid.trapezoid_weights() * f_vals
    out = np.empty(xs.size)
    for start in range(0, xs.size, MUTATION_CHUNK):
        sl = slice(start, start + MUTATION_CHUNK)
        rows = model.mutation(level).rows(model.grid, xs[sl])
        out[sl] = rows @ weighted_f
    return model.potential_at(level, xs) * out / model.flow_potential_mass(level)


def q_bar_chain(model: FeynmanKacModel, j: int, p: int,
                f_values: np.ndarray) -> np.ndarray:
    """Composition ``Q_{j+1} o ... o Q_p`` of lookahead operators.

    ``j = p`` is the identity (empty composition); ``j = 0`` is allowed and
    starts the chain at the first level.  Requires ``0 <= j <= p <= n_levels``.
    """
    j = check_count(j, "chain index j", minimum=None)
    p = check_count(p, "chain index p", minimum=None)
    if not 0 <= j <= p <= model.n_levels:
        raise RangeError(
            "chain indices must satisfy 0 <= j <= p <= %d, got j=%d, p=%d"
            % (model.n_levels, j, p)
        )
    g_vals = grid_function(model.grid, f_values)
    for level in range(p, j, -1):
        g_vals = q_bar_operator(model, level, g_vals)
    return g_vals


def fk_decomposition_check(model: FeynmanKacModel,
                           eta_n: MeasureLike,
                           f_values: np.ndarray,
                           level: int = 1) -> Dict[str, float]:
    """First-order decomposition of the transform's error at one level.

    With ``eta`` the reference flow at ``level`` and ``c`` the transformed
    expectation ``transform(eta_n)(f)``, the identity

        [transform(eta_n) - transform(eta)](f)
            = [eta_n - eta]( Q_level(f - c) )

    is algebraic: the empirical leg vanishes by the choice of ``c`` and the
    reference leg closes because mutation rows integrate to one exactly.
    Returns the two sides and their absolute gap, which should sit at
    rounding error regardless of how far ``eta_n`` is from the flow.
    """
    level = model._check_level(level)
    f_vals = grid_function(model.grid, f_values)
    weights = model.grid.trapezoid_weights()
    eta_ref = model.flow(level)
    phi_ref = model.flow(level + 1)
    phi_n = model.transform(level, eta_n)

    center = phi_n.expect(f_vals)
    lhs = center - phi_ref.expect(f_vals)

    shifted = f_vals - center
    q_grid = q_bar_operator(model, level, shifted)
    ref_leg = float(np.sum(weights * eta_ref.values * q_grid))
    if isinstance(eta_n, EmpiricalMeasure):
        emp_leg = float(np.mean(_q_bar_at_points(model, level, shifted,
                                                 eta_n.samples)))
    else:
        emp_leg = float(np.sum(weights * eta_n.values * q_grid))
    rhs = emp_leg - ref_leg
    return {
        "lhs": float(lhs),
        "rhs": float(rhs),
        "residual": float(abs(lhs - rhs)),
        "center": float(center),
    }


# ---------------------------------------------------------------------------
# the variance recursion
# ---------------------------------------------------------------------------

def smcmc_variance_recursion(model: FeynmanKacModel,
                             p: int,
                             f_values: np.ndarray,
                             sigma2_functionals: Sequence[Callable[[np.ndarray], float]],
                             centering: str = "final") -> Dict[str, object]:
    """Predicted asymptotic variance of a depth-``p`` sequential chain.

    The level-``j`` chain contributes the asymptotic variance of the grid
    function obtained by centering ``f`` and pushing it down through the
    lookahead chain ``Q_j o ... o Q_{p-1}`` (identity when ``j = p``); the
    prediction is the sum over ``j = 1..p``.  ``sigma2_functionals[j-1]``
    must map a grid function to the asymptotic variance of the level-``j``
    limiting chain — the caller picks the estimator (exact resolvent form or
    batch means on a long run).

    ``centering="final"`` subtracts ``flow(p)(f)`` inside every term;
    ``"per-level"`` subtracts ``flow(j)(f)`` in term ``j`` instead, which is
    useful for comparing the two readings but does not match the two-level
    expansion once ``p > 1``.
    """
    p = check_depth(p, model.n_levels)
    if centering not in ("final", "per-level"):
        raise InvalidInputError('centering must be "final" or "per-level"')
    functionals = list(sigma2_functionals)
    if len(functionals) < p:
        raise InvalidInputError(
            "missing per-level variance estimates: got %d, need %d"
            % (len(functionals), p)
        )
    for j, fn in enumerate(functionals[:p], start=1):
        if not callable(fn):
            raise InvalidInputError("level-%d variance estimate is not callable" % j)
    f_vals = grid_function(model.grid, f_values)

    final_center = model.flow(p).expect(f_vals)
    terms: List[float] = []
    for j in range(1, p + 1):
        center = final_center if centering == "final" else model.flow(j).expect(f_vals)
        pushed = q_bar_chain(model, j - 1, p - 1, f_vals - center)
        value = float(functionals[j - 1](pushed))
        if not math.isfinite(value) or value < -1e-12:
            raise InvalidInputError(
                "level-%d variance estimate returned %g" % (j, value)
            )
        terms.append(max(value, 0.0))
    return {
        "total": float(sum(terms)),
        "terms": terms,
        "centering": centering,
        "depth": p,
    }


# ---------------------------------------------------------------------------
# frozen observations for the worked model
# ---------------------------------------------------------------------------

def simulate_ssm_observations(phi: Callable[[np.ndarray], np.ndarray], count: int,
                              seed: int) -> np.ndarray:
    """Draw an observation record from the state-space pair, started at 0."""
    count = check_count(count, "observation count", minimum=1)
    rng = np.random.default_rng(seed)
    w = 0.0
    out = np.empty(count)
    for i in range(count):
        w = float(rng.normal(float(phi(np.asarray(w))), SSM_NOISE_STD))
        out[i] = rng.normal(w, SSM_NOISE_STD)
    return out


def load_default_observations() -> np.ndarray:
    """The observation record shipped with the package (see the CSV header)."""
    resource = importlib.resources.files("mcmccalc") / "data" / _OBSERVATION_FILE
    with resource.open("r", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if header != ["level", "observation"]:
            raise InvalidInputError(
                "unexpected observation file header: %r" % (header,)
            )
        values = [float(row[1]) for row in reader]
    if len(values) != DEFAULT_OBSERVATION_COUNT:
        raise InvalidInputError(
            "observation file holds %d rows, expected %d"
            % (len(values), DEFAULT_OBSERVATION_COUNT)
        )
    return np.asarray(values)


def default_ssm_model(grid: Optional[Grid1D] = None,
                      phi_bar: float = 1.0) -> SsmBootstrapModel:
    """The reference bootstrap model: tanh drift, shipped observations."""
    if grid is None:
        grid = Grid1D(-8.0, 8.0, 513)
    return SsmBootstrapModel(grid, load_default_observations(),
                             phi=bounded_map("tanh", phi_bar),
                             phi_bar=phi_bar)
