"""Chain simulators and the central-limit-theorem harness.

Three simulation schemes share one vectorised accept/reject engine:

* :func:`run_limiting_chain` — a homogeneous chain driven by a fixed kernel;
* :func:`run_smcmc` — sequential levels: level 1 targets the initial flow
  density, level ``p`` targets the reweight/mutate transform of the previous
  level's *completed* empirical measure;
* :func:`run_imcmc` — interacting levels: at step ``k`` the level-``p``
  chain moves against the transform of the level-``(p-1)`` *running*
  empirical measure of steps ``1..k``, so its target is refined each
  iteration.

Seed discipline: every public run operation accepts an integer or a
``numpy.random.SeedSequence`` and derives one child stream per level via
``spawn``; :func:`clt_experiment` derives one child per replication and then
per level, so replication ``r`` of an experiment reproduces a standalone run
seeded with that child.  Identical (configuration, seed) pairs give
bit-identical state sequences.  A raw ``numpy.random.Generator`` is accepted
as an escape hatch and consumed directly (its runs record seed 0).

Within a replication the per-step draw order is fixed: blocks of proposal
draws, then blocks of acceptance uniforms, from the replication's own stream
(``DRAW_BLOCK`` normals or uniforms, then as many acceptance uniforms, and
so on).  The lanes draw and propose through the proposal's own vectorised
pair (``ProposalKernel.draw`` and ``propose``, which the random-walk and
independence families define); a proposal without it is refused with
instructions rather than silently looped.  A proposal ``y`` from ``x`` is
accepted when a uniform falls below ``g`` of the Hastings ratio
``mu(y) q(y, x) / (mu(x) q(x, y))``; a symmetric proposal's ``q`` cancels, so
its chains read only the target, ``mu(y) / mu(x)``.

A chain that rejects stays where it is.  So a chain whose states are
stored advances a rejection run at a time: from its state the next proposals
are judged together as if all were rejected, and the first accepted one ends
the run.  Against a fixed target (the limiting chain, every level of a stored
sequential run, level 1 of a stored interacting run) every proposal reads the
one target; an upper level of a stored interacting run reads, for each
proposal, that step's row of its running mixture, so its levels run one after
another, and each block of the mixture's rows is built at once from the block
of states below.  Rounds stop at draw-block ends, so the streams are read in
the order above and the states are bit-identical to stepping one step at a
time.  The replicated engines whose states are not stored (their mixtures
and running sums need every step of every chain) step in lockstep.

The CLT harness validates the two asymptotic-variance displays: the
random-centered statistic (each replication centered at its own realised
target mean) against the limiting chain's variance, and the
deterministic-centered statistic against that variance plus the
approximation term — the sequential scheme's extra term from the variance
recursion, the interacting scheme's doubled version of it.  The asymptotic
variance is estimated at full weight (not the fractional power the test-class
restriction uses); the report records the fractional exponent alongside.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DegenerateWeightsError,
    InvalidInputError,
    RangeError,
    ResourceLimitError,
)
from .feynman_kac import (
    EmpiricalMeasure,
    FeynmanKacModel,
    check_depth,
    smcmc_variance_recursion,
)
from .ergodicity import asymptotic_variance, poisson_resolvent
from .calculus import uniform_boundedness_scan
from .workers import run_forked, worker_count
from .kernels import (
    GibbsKernel,
    HastingsFamily,
    HastingsKernel,
    ProposalKernel,
    sample_step_detail,
)
from .measures import (
    Grid1D,
    GridDensity,
    POSITIVE_FLOOR,
    WeightFunction,
    check_count,
    check_in_window,
    check_on_grid,
    grid_function,
    v_norm_function,
)

DRAW_BLOCK = 1024
RUN_BLOCK = 32  # proposals judged together in one rejection run (_Lane.run)
MIN_BATCHES = 20
DEFAULT_BATCH_COUNT = 40  # batches of the batch-means variance
DEFAULT_ALPHA = 0.25  # exponent of the V**alpha norm in the CLT report
MIN_REPLICATIONS = 100
STATE_STORAGE_CAP = 200_000_000  # stored states (levels * replications * steps)
_TRACE_POINTS = 48
SCAN_PAIRS = 4  # snapshot pairs the adaptation check scans for derivative constants

SeedLike = Union[int, np.integer, np.random.SeedSequence, np.random.Generator]


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def _as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return np.random.SeedSequence(int(seed))
    raise InvalidInputError("seed must be an integer or a numpy SeedSequence")


def _seed_digest(seed: SeedLike) -> int:
    """64-bit record of the seed for run metadata."""
    if isinstance(seed, np.random.Generator):
        return 0
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return int(seed)
    return int(_as_seed_sequence(seed).generate_state(1, np.uint64)[0])


def _level_streams(seed: SeedLike, levels: int) -> List[np.random.Generator]:
    if isinstance(seed, np.random.Generator):
        if levels != 1:
            raise InvalidInputError(
                "a raw Generator seeds exactly one stream; multi-level runs "
                "need an integer or SeedSequence seed"
            )
        return [seed]
    children = _as_seed_sequence(seed).spawn(levels)
    return [np.random.default_rng(c) for c in children]


def _replication_streams(seed: SeedLike, replications: int,
                         levels: int) -> Tuple[List[List[np.random.Generator]],
                                               np.random.SeedSequence]:
    """Per-replication, per-level streams plus one spare child."""
    parent = _as_seed_sequence(seed)
    children = parent.spawn(replications + 1)
    per_rep = [[np.random.default_rng(c) for c in child.spawn(levels)]
               for child in children[:replications]]
    return per_rep, children[replications]


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainRun:
    """One simulated chain: the generated states (the start point excluded),
    the seed record, and acceptance bookkeeping."""

    states: np.ndarray
    seed: int
    kernel_descriptor: str
    acceptance_rate: float
    truncation_events: int

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=float)
        if states.ndim not in (1, 2):
            raise InvalidInputError("chain states must be a 1-D or 2-D array")
        object.__setattr__(self, "states", states)
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise InvalidInputError(
                "acceptance rate %g outside [0, 1]" % self.acceptance_rate
            )
        check_count(self.truncation_events, "truncation count")

    @property
    def n_steps(self) -> int:
        return int(self.states.shape[0])

    def describe(self) -> str:
        return "%d steps of %s (accept %.3f, %d boundary folds)" % (
            self.n_steps, self.kernel_descriptor,
            self.acceptance_rate, self.truncation_events)


@dataclass(frozen=True)
class CltReport:
    """Replication distribution of the scaled ergodic-average error.

    ``replication_variance`` and ``normality_stats`` describe the
    random-centered statistic (every replication centered at its own realised
    target mean); the ``*_deterministic`` twins describe centering at the
    grid reference flow.  ``predicted_variance_deterministic`` is the
    limiting-chain variance plus the approximation term (``extra_variance``).
    """

    scheme: str
    depth: int
    n_steps: int
    replications: int
    estimate: float
    asymptotic_variance_batchmeans: float
    asymptotic_variance_poisson: float
    replication_variance: float
    replication_variance_deterministic: float
    predicted_variance_deterministic: float
    extra_variance: float
    normality_stats: Tuple[float, float, float]
    normality_stats_deterministic: Tuple[float, float, float]
    f_fractional_norm: float
    fractional_exponent: float
    d1_checkpoints: Optional[np.ndarray] = None
    d1_sup_stats: Optional[np.ndarray] = None
    d1_v_stats: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        for name in ("asymptotic_variance_batchmeans", "asymptotic_variance_poisson",
                     "replication_variance", "replication_variance_deterministic",
                     "predicted_variance_deterministic", "extra_variance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise InvalidInputError("%s must be finite and >= 0, got %g"
                                        % (name, value))
        check_count(self.replications, "replication count", minimum=1)

    def describe(self) -> str:
        sk, ku, ks = self.normality_stats
        lines = [
            "%s depth %d: n=%d, %d replications" % (
                self.scheme, self.depth, self.n_steps, self.replications),
            "  estimate %.6g (grid reference in predicted variances)" % self.estimate,
            "  random-centered replication variance %.6g vs sigma2 %.6g "
            "(batch means %.6g)" % (
                self.replication_variance, self.asymptotic_variance_poisson,
                self.asymptotic_variance_batchmeans),
            "  deterministic-centered variance %.6g vs sigma2+extra %.6g "
            "(extra %.6g)" % (
                self.replication_variance_deterministic,
                self.predicted_variance_deterministic, self.extra_variance),
            "  normality: skew %.3f, excess kurtosis %.3f, KS %.3f" % (sk, ku, ks),
        ]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the stepping lane
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _row_starts(rows: int, n_points: int) -> np.ndarray:
    """Flat offsets of the rows of a C-ordered ``rows`` x ``n_points`` table
    (read-only: every caller shares it)."""
    starts = np.arange(0, rows * n_points, n_points)
    starts.flags.writeable = False
    return starts


def _matrix_rows_at(grid: Grid1D, table: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Per-row linear interpolation: row ``r`` of ``table`` at ``xs[..., r]``
    (``xs`` broadcasts against the rows), gathered from the flat table."""
    pos = (xs - grid.lower) / grid.h
    idx = np.minimum(np.maximum(pos.astype(np.int64), 0), grid.n_points - 2)
    frac = pos - idx
    at = idx + _row_starts(*table.shape)
    flat = table.reshape(-1)
    return flat[at] * (1.0 - frac) + flat[at + 1] * frac


class _Lane:
    """R parallel accept/reject chains against a shared or per-chain target.

    :meth:`step` moves all R chains one step in lockstep, for engines whose
    per-step consumers (mixtures, running sums) need every step.
    :meth:`run` moves every chain ``n`` steps against its fixed target, and
    :meth:`run_moving` against per-step tables, both a rejection run at a
    time.  All three read the same draws in the same order and share the
    acceptance arithmetic, so a run reproduces the states, counts and cursor
    of stepping (with the target refreshed before each step) bit for bit.

    ``accepted`` holds the accept mask of the latest step: a chain whose
    entry is False still sits where it was before that step.  The proposal
    must carry its vectorised pair (``ProposalKernel.draw`` and
    ``propose``).

    The round arithmetic (:meth:`_proposals`) runs under its caller's
    ``np.errstate(over="ignore")``: :meth:`step` enters it once per step and
    :meth:`_advance` once per run, not once per round.
    """

    def __init__(self, grid: Grid1D, proposal: ProposalKernel, balancing,
                 x0s: np.ndarray, rngs: Sequence[np.random.Generator]):
        if proposal.propose is None:
            raise InvalidInputError(
                "proposal '%s' has no vectorised sampler; the chain drivers "
                "support the random-walk and independence families" % proposal.tag
            )
        self.grid = grid
        self.proposal = proposal
        self.balancing = balancing
        self.x = np.array(x0s, dtype=float)
        self.rngs = list(rngs)
        if self.x.shape != (len(self.rngs),):
            raise InvalidInputError("one start point per stream required")
        self._cursor = DRAW_BLOCK
        self._draws: Optional[np.ndarray] = None
        self._accept_u: Optional[np.ndarray] = None
        self.accept_count = np.zeros(len(self.rngs), dtype=np.int64)
        self.fold_count = np.zeros(len(self.rngs), dtype=np.int64)
        self.accepted: Optional[np.ndarray] = None
        self.target: Optional[np.ndarray] = None
        self.mu_x: Optional[np.ndarray] = None

    # target handling ------------------------------------------------------

    def set_target(self, table: np.ndarray) -> None:
        self.target = table
        self.refresh()

    def refresh(self) -> None:
        """Recompute the cached target value at the current states (call after
        mutating a per-chain target table in place)."""
        self.mu_x = np.maximum(self._target_at(self.target, self.x),
                               POSITIVE_FLOOR)

    def _target_at(self, table: np.ndarray, xs: np.ndarray) -> np.ndarray:
        if table.ndim == 1:
            return np.interp(xs, self.grid.nodes, table)
        return _matrix_rows_at(self.grid, table, xs)

    # stepping ---------------------------------------------------------------

    def _refill(self) -> None:
        count = len(self.rngs)
        draws = np.empty((count, DRAW_BLOCK))
        accept_u = np.empty((count, DRAW_BLOCK))
        for r, rng in enumerate(self.rngs):
            draws[r] = self.proposal.draw(rng, DRAW_BLOCK)
            accept_u[r] = rng.uniform(size=DRAW_BLOCK)
        self._draws = draws
        self._accept_u = accept_u
        self._cursor = 0

    def _proposals(self, x: np.ndarray, mu_x: Optional[np.ndarray],
                   table: np.ndarray, d: np.ndarray, u: np.ndarray):
        """Proposals from the states ``x`` (target values ``mu_x``) for the
        draws ``d``, with their fold mask, the target values at ``x`` and at
        the proposals, and the accept mask under the uniforms ``u``.  Every
        operation is elementwise, so one chain may pass several steps' draws
        at once: each is judged as if the chain were still at ``x``.  With
        ``mu_x`` None, ``table`` holds one row per draw, and the value at
        ``x`` is read from each row in the same gather as the proposal's."""
        y, folded = self.proposal.propose(x, d)
        if mu_x is None:
            xy = np.empty((2, y.size))
            xy[0] = x
            xy[1] = y
            mu_x, mu_y = _matrix_rows_at(self.grid, table, xy)
            mu_x = np.maximum(mu_x, POSITIVE_FLOOR)
        else:
            mu_y = self._target_at(table, y)
        ratio = self._hastings_ratio(x, mu_x, y, mu_y)
        return y, folded, mu_x, mu_y, u < self.balancing.g(ratio)

    def _hastings_ratio(self, x: np.ndarray, mu_x: np.ndarray, y: np.ndarray,
                        mu_y: np.ndarray) -> np.ndarray:
        """``mu(y) q(y, x) / (mu(x) q(x, y))``, and 1 where the denominator
        vanishes.  A symmetric proposal's ``q`` cancels, and ``mu_x`` is at
        least ``POSITIVE_FLOOR``, so its ratio is ``mu_y / mu_x``; that may
        overflow to inf, which the packaged balancing functions map to 1.
        The overflow stays silent under the caller's
        ``np.errstate(over="ignore")`` (see :class:`_Lane`)."""
        if self.proposal.symmetric:
            return mu_y / mu_x
        q_xy, q_yx = self.proposal.q_pair(x, y)
        num = mu_y * q_yx
        den = mu_x * q_xy
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(den > 0.0, num / den, 1.0)

    def step(self) -> np.ndarray:
        """Move every chain one step; returns the new states."""
        if self._cursor == DRAW_BLOCK:
            self._refill()
        d = self._draws[:, self._cursor]
        u = self._accept_u[:, self._cursor]
        self._cursor += 1

        with np.errstate(over="ignore"):
            y, folded, _, mu_y, accept = self._proposals(self.x, self.mu_x,
                                                         self.target, d, u)
        self.accepted = accept
        self.x = np.where(accept, y, self.x)
        self.mu_x = np.where(accept, np.maximum(mu_y, POSITIVE_FLOOR), self.mu_x)
        self.accept_count += accept
        self.fold_count += folded
        return self.x

    def run(self, n: int, out: np.ndarray,
            moved: Optional[np.ndarray] = None) -> None:
        """Move every chain ``n`` steps against its fixed target.

        Chain ``r``'s state after step ``k`` goes to ``out[r, k]`` and, when
        ``moved`` is given, whether that step was accepted to
        ``moved[r, k]``.  The chains do not interact, so within each draw
        block they advance in turn, each a rejection run at a time (see
        :meth:`_run_chain`); the cursor then moves past the block's steps,
        so each stream is consumed as under :meth:`step`.
        """
        self._advance(n, out, moved, None)

    def run_moving(self, rows: np.ndarray, out: np.ndarray,
                   moved: Optional[np.ndarray] = None) -> None:
        """Move every chain ``len(rows)`` steps, step ``k`` against the
        per-chain table ``rows[k]`` (R x N), as :meth:`run` does against a
        fixed one.

        Stepping would write ``rows[k]`` into the target, :meth:`refresh`
        and :meth:`step`; here each proposal reads its own step's row, for
        the current state's value as well.  Afterwards the target is (a
        copy of) the last table.
        """
        self._advance(len(rows), out, moved, rows)
        if len(rows):
            self.target = rows[-1].copy()

    def _advance(self, n: int, out: np.ndarray, moved: Optional[np.ndarray],
                 rows: Optional[np.ndarray]) -> None:
        # step hands self.x to its callers; update a private copy in place
        self.x = self.x.copy()
        self.mu_x = (np.empty_like(self.x) if self.mu_x is None
                     else self.mu_x.copy())
        done = 0
        with np.errstate(over="ignore"):
            while done < n:
                if self._cursor == DRAW_BLOCK:
                    self._refill()
                m = min(n - done, DRAW_BLOCK - self._cursor)
                last = np.empty(len(self.rngs), dtype=bool)
                for r in range(len(self.rngs)):
                    last[r] = self._run_chain(
                        r, out[r, done:done + m],
                        None if moved is None else moved[r, done:done + m],
                        None if rows is None else rows[done:done + m, r])
                self.accepted = last
                self._cursor += m
                done += m

    def _run_chain(self, r: int, out: np.ndarray, moved: Optional[np.ndarray],
                   rows: Optional[np.ndarray]) -> bool:
        """Advance chain ``r`` ``len(out)`` steps over its draws from the
        cursor, against its fixed target or, when given, against ``rows``
        (its table row for each step); returns whether the last step was
        accepted.

        A rejected chain stays where it is, so from state ``x`` the next
        proposals are judged together as if every one were rejected, and the
        first accepted one ends the run of rejections.  A round takes at
        most ``RUN_BLOCK`` proposals.  Rounds run under the caller's
        ``np.errstate(over="ignore")`` (:meth:`_advance` enters it), and
        write the chain's state and target value through views; the accept
        and fold counts are added to the lane's once, at the end.
        """
        x = self.x[r:r + 1]
        mu_x = self.mu_x[r:r + 1]
        state = x[0]
        if rows is None:
            table = self.target if self.target.ndim == 1 else self.target[r:r + 1]
            mu_in = mu_x
        else:  # proposal i is judged against step i's row, as refresh does
            mu_in = None
        draws = self._draws[r, self._cursor:]
        uniforms = self._accept_u[r, self._cursor:]
        accepts = folds = 0
        n = len(out)
        done = 0
        while done < n:
            k = min(n - done, RUN_BLOCK)
            if rows is not None:
                table = rows[done:done + k]
            y, folded, mu_now, mu_y, accept = self._proposals(
                x, mu_in, table, draws[done:done + k], uniforms[done:done + k])
            j = int(accept.argmax())
            hit = bool(accept[j])
            used = j + 1 if hit else k
            out[done:done + used] = state
            if hit:
                state = out[done + j] = x[0] = y[j]
                mu_x[0] = max(mu_y[j], POSITIVE_FLOOR)
                accepts += 1
            else:
                mu_x[0] = mu_now[-1]
            if moved is not None:
                moved[done:done + used] = accept[:used]
            folds += np.count_nonzero(folded[:used])
            done += used
        self.accept_count[r] += accepts
        self.fold_count[r] += folds
        return hit


class _MixtureAccumulator:
    """Running per-chain mixture of potential-weighted mutation rows.

    Row ``r`` of ``table`` is ``sum_k G(x_r^k) M(x_r^k, .)`` over the states
    added so far.  A chain that rejected its last move sits at the same point,
    so its weighted row ``G(x_r) M(x_r, .)`` is kept per chain and recomputed
    only for the chains that moved (all of them on the first step).  With the
    quadrature vector ``wf`` of a test function, the accumulator also keeps
    ``center_num`` and ``center_den``, the running sums of
    ``G(x_r) M(x_r, wf)`` and ``G(x_r)``: their ratio is the realised mean of
    the test function under row ``r``'s normalised mixture.
    """

    def __init__(self, model: FeynmanKacModel, level: int, reps: int,
                 wf: Optional[np.ndarray] = None):
        self._model = model
        self._level = level
        self._mutation = model.mutation(level)
        self._wf = wf
        self._fresh = True
        self.table = np.zeros((reps, model.grid.n_points))
        self._weighted_rows = np.empty_like(self.table)
        if wf is not None:
            self._g = np.empty(reps)
            self._g_moment = np.empty(reps)
            self.center_num = np.zeros(reps)
            self.center_den = np.zeros(reps)

    def add(self, x: np.ndarray, moved: np.ndarray) -> None:
        """Add every chain's current state ``x``; ``moved`` flags the chains
        whose state changed since the previous call."""
        self._recompute(x, slice(None) if self._fresh else np.flatnonzero(moved))
        self.table += self._weighted_rows
        if self._wf is not None:
            self.center_num += self._g_moment
            self.center_den += self._g

    def add_steps(self, xs: np.ndarray, moved: np.ndarray,
                  out: np.ndarray) -> Optional[np.ndarray]:
        """Add ``m`` consecutive steps: column ``i`` of the R x m arrays
        ``xs`` and ``moved`` is what :meth:`add` takes for step ``i``, and
        ``out[i]`` (``out`` is m x R x N) receives the table after step ``i``.  With ``wf``,
        returns the m x R realised means ``center_num / center_den`` after
        each step.

        Rows, potentials and moments are recomputed only on the steps where
        some chain moved, for the same chains as :meth:`add`, so each
        normalising product rounds as there; the other steps repeat the
        cached values.  Each running sum is one accumulate seeded with its
        running value, which adds in the order of :meth:`add`.
        """
        m = xs.shape[1]
        live = moved.any(axis=0)
        every = moved.all(axis=0)
        if self._fresh:
            live[0] = every[0] = True
        steps = np.flatnonzero(live).tolist()
        first = steps[0] if steps else m
        centers = self._wf is not None
        out[:first] = self._weighted_rows
        if centers:
            g_sums = np.empty((m, len(self.table)))
            moment_sums = np.empty_like(g_sums)
            g_sums[:first] = self._g
            moment_sums[:first] = self._g_moment
        for i, end in zip(steps, steps[1:] + [m]):
            self._recompute(xs[:, i],
                            slice(None) if every[i] else np.flatnonzero(moved[:, i]))
            out[i:end] = self._weighted_rows
            if centers:
                g_sums[i:end] = self._g
                moment_sums[i:end] = self._g_moment
        out[0] += self.table
        np.cumsum(out, axis=0, out=out)
        self.table[...] = out[-1]
        if not centers:
            return None
        moment_sums[0] += self.center_num
        g_sums[0] += self.center_den
        np.cumsum(moment_sums, axis=0, out=moment_sums)
        np.cumsum(g_sums, axis=0, out=g_sums)
        self.center_num[...] = moment_sums[-1]
        self.center_den[...] = g_sums[-1]
        return moment_sums / g_sums

    def _recompute(self, x: np.ndarray, idx) -> None:
        """Recompute the cached weighted rows (and potentials and moments)
        of the chains ``idx`` (a sorted index array, or every chain) at their
        states in ``x``.

        The rows come from one :meth:`MutationKernel.rows` call per block of
        ``MIN_REPLICATIONS`` chains: a normalising product rounds with the
        rows that share its call, so a chain's row then depends on its own
        block only, whichever process runs the block.
        """
        self._fresh = False
        xs = x[idx]
        if not xs.size:
            return
        g_at = self._model.potential_at(self._level, xs)
        if self._wf is not None:
            self._g[idx] = g_at
        reps = len(self.table)
        if reps <= MIN_REPLICATIONS:
            # one block: the split below gives the same call, but its index
            # arithmetic and indexed writes add 15-20 us a call, 6% of the
            # one-chain runs' time (BENCH_18.json, "single_block_branch")
            blocks = [(xs, g_at, idx)]
        else:
            chains = np.arange(reps)[idx]
            cuts = np.searchsorted(chains, range(MIN_REPLICATIONS, reps, MIN_REPLICATIONS))
            edges = [0, *cuts.tolist(), chains.size]
            blocks = [(xs[a:b], g_at[a:b], chains[a:b])
                      for a, b in zip(edges, edges[1:]) if b > a]
        for points, g, chains in blocks:
            rows = self._mutation.rows(self._model.grid, points)
            if self._wf is not None:
                self._g_moment[chains] = g * (rows @ self._wf)
            self._weighted_rows[chains] = np.multiply(g[:, None], rows, out=rows)


# ---------------------------------------------------------------------------
# homogeneous chains
# ---------------------------------------------------------------------------

def check_state_storage(count: int) -> None:
    """Refuse, before anything is allocated, a run that would keep more than
    ``STATE_STORAGE_CAP`` states in memory; the message gives the estimate."""
    if count > STATE_STORAGE_CAP:
        gb = 8e-9  # one float64 state
        raise ResourceLimitError(
            "%d stored states need %.3g GB, above the cap of %d states (%.3g GB)"
            % (count, gb * count, STATE_STORAGE_CAP, gb * STATE_STORAGE_CAP))


def _gibbs_chain(kernel: GibbsKernel, x0, n: int, rng) -> Tuple[np.ndarray, int]:
    states = np.empty((n, 2))
    x = (float(x0[0]), float(x0[1]))
    for k in range(n):
        x, _, _ = sample_step_detail(kernel, x, rng)
        states[k] = x
    return states, n  # two-stage moves always accept


def run_limiting_chain(kernel, x0, n: int, seed: SeedLike) -> ChainRun:
    """Simulate ``n`` homogeneous transitions of a fixed kernel.

    Accept/reject kernels run through the vectorised lane; two-stage kernels
    step through their conditional inverse CDFs.  The run is deterministic
    given the seed; the states exclude the start ``x0``, inside the window.
    """
    n = check_count(n)
    check_state_storage(n)
    gibbs = isinstance(kernel, GibbsKernel)
    if not (gibbs or isinstance(kernel, HastingsKernel)):
        raise InvalidInputError(
            "run_limiting_chain drives 1-D accept/reject or two-stage kernels"
        )
    check_in_window(kernel.grid, x0)
    rng = _level_streams(seed, 1)[0]
    if gibbs:
        states, accepted = _gibbs_chain(kernel, x0, n, rng)
        folds = 0
        descriptor = "two-stage scan @ %s" % kernel.target.description
    else:
        lane = _Lane(kernel.grid, kernel.proposal, kernel.balancing,
                     np.array([float(x0)]), [rng])
        lane.set_target(kernel.target.values)
        states = np.empty(n)
        lane.run(n, states[None, :])
        accepted, folds = int(lane.accept_count[0]), int(lane.fold_count[0])
        descriptor = "%s+%s @ %s" % (kernel.proposal.tag, kernel.balancing.tag,
                                     kernel.target.description)
    return ChainRun(states, _seed_digest(seed), descriptor, accepted / n if n else 0.0,
                    folds)


def check_batch_count(batch_count) -> int:
    """``batch_count`` as an ``int`` of at least ``MIN_BATCHES``."""
    return check_count(batch_count, "batch count", minimum=MIN_BATCHES)


def check_run_length(n, batch_count: int) -> int:
    """``n`` as an ``int`` after checking that a run of ``n`` steps fills
    ``batch_count`` batches."""
    n = check_count(n)
    if n < batch_count:
        raise InvalidInputError("run length %d is below the batch count %d: it cannot "
                                "fill the batches" % (n, batch_count))
    return n


def batch_means_variance(run: ChainRun, f: Callable[[np.ndarray], np.ndarray],
                         batch_count: int = DEFAULT_BATCH_COUNT) -> float:
    """Batch-means estimate of the asymptotic variance of the scaled average.

    The last ``batch_count * (n // batch_count)`` states are split into equal
    batches (any leading remainder is treated as extra warm-up).
    """
    if not callable(f):
        raise InvalidInputError("batch means needs a callable test function")
    batch_count = check_batch_count(batch_count)
    n = check_run_length(run.n_steps, batch_count)
    size = n // batch_count
    vals = np.asarray(f(run.states[n - size * batch_count:]), dtype=float)
    means = vals.reshape(batch_count, size).mean(axis=1)
    grand = float(vals.mean())
    return float(size * np.sum((means - grand) ** 2) / (batch_count - 1))


# ---------------------------------------------------------------------------
# sequential scheme
# ---------------------------------------------------------------------------

def _resolve_family(family) -> HastingsFamily:
    if not isinstance(family, HastingsFamily):
        raise InvalidInputError("the chain drivers take a HastingsFamily")
    return family


def check_level_init(level_init: str) -> None:
    if level_init not in ("previous-final", "fixed"):
        raise InvalidInputError('level_init must be "previous-final" or "fixed", got %r'
                                % (level_init,))


def _level_descriptor(family: HastingsFamily, level: int, text: str) -> str:
    return "%s+%s @ level %d: %s" % (family.proposal.tag, family.balancing.tag,
                                     level, text)


def _smcmc_engine(family: HastingsFamily, model: FeynmanKacModel, p: int,
                  n: int, streams: Sequence[Sequence[np.random.Generator]],
                  x0: float, level_init: str, collect_states: bool,
                  f: Optional[Callable] = None) -> Dict[str, object]:
    """Advance all replications through the sequential levels.

    ``streams[r][j]`` drives replication ``r`` at level ``j+1``.  When states
    are not collected, the mixture for the next level's target accumulates
    on the fly in a :class:`_MixtureAccumulator`, one weighted sample row per
    replication and step; a replication's row is recomputed only on the steps
    where its chain moved, and reused from the row cache after a rejection.
    When states are collected, each level moves against its fixed target
    with :meth:`_Lane.run`.
    """
    grid = model.grid
    reps = len(streams)
    weights = grid.trapezoid_weights()

    levels: List[Dict[str, object]] = []
    x0s = np.full(reps, float(x0))
    target: np.ndarray = model.flow(1).values
    target_text = "reference flow level 1"

    for level in range(1, p + 1):
        lane = _Lane(grid, family.proposal, family.balancing, x0s,
                     [streams[r][level - 1] for r in range(reps)])
        lane.set_target(target)
        build_next = level < p
        mixture = (_MixtureAccumulator(model, level, reps)
                   if (build_next and not collect_states) else None)
        states = np.empty((reps, n)) if collect_states else None
        f_sums = np.zeros(reps) if (f is not None and level == p) else None

        if collect_states:
            lane.run(n, states)
            if f_sums is not None:
                for x in states.T:
                    f_sums += f(x)
        else:
            for k in range(n):
                x = lane.step()
                if mixture is not None:
                    mixture.add(x, lane.accepted)
                if f_sums is not None:
                    f_sums += f(x)

        levels.append({
            "states": states,
            "finals": lane.x.copy(),
            "accepts": lane.accept_count.copy(),
            "folds": lane.fold_count.copy(),
            "f_sums": f_sums,
            "descriptor": _level_descriptor(family, level, target_text),
        })

        if build_next:
            if collect_states:
                tables = []
                for r in range(reps):
                    try:
                        dens = model.transform(level, EmpiricalMeasure(states[r]))
                    except DegenerateWeightsError as err:
                        raise DegenerateWeightsError(
                            "level %d target degenerate: %s" % (level + 1, err)
                        ) from err
                    tables.append(dens.values)
                target = np.vstack(tables) if reps > 1 else tables[0]
            else:
                row_mass = mixture.table @ weights
                if not np.all(np.isfinite(row_mass)) or np.any(row_mass <= 0.0):
                    raise DegenerateWeightsError(
                        "level %d target degenerate: empirical mixture carries "
                        "no weight" % (level + 1)
                    )
                target = mixture.table
            target_text = "mixture target level %d" % (level + 1)
            x0s = lane.x.copy() if level_init == "previous-final" else np.full(reps, float(x0))

    # the level-p target in table form, for the random centering
    if p == 1:
        final_table = np.broadcast_to(model.flow(1).values, (reps, grid.n_points))
    else:
        final_table = target
    return {"levels": levels, "final_table": final_table}


def run_smcmc(family, model: FeynmanKacModel, p_levels: int, n: int,
              seed: SeedLike, x0: float = 0.0,
              level_init: str = "previous-final"
              ) -> List[Tuple[ChainRun, EmpiricalMeasure]]:
    """Run the sequential scheme once; per level, the chain and its samples.

    Level 1 targets the initial flow density; level ``p`` targets the
    reweight/mutate transform of level ``p-1``'s completed sample set.  Each
    level starts from the previous level's final state by default
    (``level_init="fixed"`` restarts every level at ``x0``).
    """
    family = _resolve_family(family)
    n = check_count(n, minimum=1)
    p_levels = check_depth(p_levels, model.n_levels)
    check_in_window(model.grid, x0)
    check_level_init(level_init)
    check_state_storage(p_levels * n)
    streams = [_level_streams(seed, p_levels)]
    engine = _smcmc_engine(family, model, p_levels, n, streams,
                           float(x0), level_init, collect_states=True)
    digest = _seed_digest(seed)
    out = []
    for level in engine["levels"]:
        states = level["states"][0]
        run = ChainRun(states, digest, level["descriptor"],
                       float(level["accepts"][0]) / n, int(level["folds"][0]))
        out.append((run, EmpiricalMeasure(states)))
    return out


# ---------------------------------------------------------------------------
# interacting scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdaptationTrace:
    """Per-step increments of the evolving top-level target of one run,
    plus thinned density snapshots for derivative scans."""

    grid: Grid1D
    sup_increments: np.ndarray
    v_increments: np.ndarray
    checkpoints: np.ndarray
    snapshots: np.ndarray
    weight_tag: str


def _checkpoint_indices(n: int) -> np.ndarray:
    if n <= 1:
        return np.array([n], dtype=int) if n else np.array([], dtype=int)
    # the marks rise, so dropping adjacent repeats is np.unique (which would
    # import numpy.ma on first use)
    marks = np.geomspace(1, n, min(_TRACE_POINTS, n)).astype(int)
    return marks[np.concatenate(([True], marks[1:] != marks[:-1]))]


class _TraceRecorder:
    """Fills ``trace``, the adaptation trace of replication 0's top-level
    target, from the table rows of consecutive steps, a block at a time."""

    def __init__(self, grid: Grid1D, n: int, weight: WeightFunction):
        marks = _checkpoint_indices(n)
        self.trace = AdaptationTrace(
            grid=grid, sup_increments=np.zeros(n), v_increments=np.zeros(n),
            checkpoints=marks, snapshots=np.zeros((marks.size, grid.n_points)),
            weight_tag=weight.description)
        self._weights = grid.trapezoid_weights()
        self._weighted_v = self._weights * weight.values_on(grid)
        self._prev: Optional[np.ndarray] = None
        self._next_mark = 0

    def record(self, rows: np.ndarray, k0: int) -> None:
        """Record steps ``k0, k0 + 1, ...`` from their table rows."""
        m = len(rows)
        # one 1-D product per row: a stacked gemv rounds the masses differently
        mass = np.array([row @ self._weights for row in rows])
        mu = rows / mass[:, None]
        prev = mu[:1] if self._prev is None else self._prev[None, :]
        delta = np.abs(mu - np.concatenate([prev, mu[:-1]]))
        self.trace.sup_increments[k0:k0 + m] = delta.max(axis=1)
        self.trace.v_increments[k0:k0 + m] = (self._weighted_v * delta).sum(axis=1)
        self._prev = mu[-1]
        marks, snaps = self.trace.checkpoints, self.trace.snapshots
        while self._next_mark < marks.size and marks[self._next_mark] <= k0 + m:
            snaps[self._next_mark] = mu[marks[self._next_mark] - 1 - k0]
            self._next_mark += 1


def _imcmc_engine(family: HastingsFamily, model: FeynmanKacModel, p: int,
                  n: int, streams: Sequence[Sequence[np.random.Generator]],
                  x0: float, f: Optional[Callable] = None,
                  f_nodes: Optional[np.ndarray] = None,
                  freeze_lower: Optional[GridDensity] = None,
                  collect_states: bool = False,
                  trace_weight: Optional[WeightFunction] = None
                  ) -> Dict[str, object]:
    """Advance all replications through the interacting levels.

    At step ``k`` the level-``j`` chain (``j >= 2``) moves against the
    running mixture of the level-``(j-1)`` states of steps ``1..k``, a
    :class:`_MixtureAccumulator` that caches each chain's weighted row,
    potential and ``f``-moment and recomputes them only for the chains whose
    last step was accepted.  The top level's running target mean of ``f``
    accumulates incrementally for the random-centered statistic.

    A level's target at step ``k`` depends on the level below only up to
    step ``k``, so when states are collected the levels run one after
    another: level 1 with :meth:`_Lane.run`, then each level ``j >= 2`` in
    blocks of ``RUN_BLOCK`` steps, where the block's level-``(j-1)`` states
    join the mixture together (:meth:`_MixtureAccumulator.add_steps` keeps
    each step's table, computing rows only on steps where a chain moved),
    and :meth:`_Lane.run_moving` advances level ``j`` against those tables.
    Otherwise (the replicated CLT engine) the levels step in lockstep, and
    the mixture takes one step at a time; the trace still records
    ``RUN_BLOCK`` steps at a time.  In a stored depth-2 run,
    ``freeze_lower`` replaces the running mixture with the fixed transform
    of a density, and level 2 runs with :meth:`_Lane.run`.
    """
    grid = model.grid
    reps = len(streams)
    weights = grid.trapezoid_weights()
    if freeze_lower is not None and (p != 2 or not collect_states):
        raise InvalidInputError(
            "freezing the lower level is a depth-2 device of stored runs")

    lanes = [_Lane(grid, family.proposal, family.balancing,
                   np.full(reps, float(x0)),
                   [streams[r][level - 1] for r in range(reps)])
             for level in range(1, p + 1)]
    lanes[0].set_target(model.flow(1).values)

    f_sums = np.zeros(reps) if f is not None else None
    center_sums = np.zeros(reps) if f is not None else None
    wf = weights * f_nodes if f_nodes is not None else None
    mixtures = [] if freeze_lower is not None else [
        _MixtureAccumulator(model, j - 1, reps,
                            wf if (j == p and f is not None) else None)
        for j in range(2, p + 1)
    ]
    tracer = (_TraceRecorder(grid, n, trace_weight)
              if trace_weight is not None else None)

    states = None
    if collect_states:
        states = np.empty((p, reps, n))
        # the accept flags of the level below, overwritten block by block
        # with the current level's once they have joined its mixture
        moved = np.empty((reps, n), dtype=bool)
        lanes[0].run(n, states[0], moved)
        if freeze_lower is not None:
            frozen_table = model.transform(1, freeze_lower).values
            lanes[1].set_target(frozen_table)
            lanes[1].run(n, states[1], moved)
        rows = np.empty((min(RUN_BLOCK, n), reps, grid.n_points))
        for j, mixture in enumerate(mixtures, start=2):
            top = j == p
            for k0 in range(0, n, RUN_BLOCK):
                m = min(RUN_BLOCK, n - k0)
                means = mixture.add_steps(states[j - 2, :, k0:k0 + m],
                                          moved[:, k0:k0 + m], rows[:m])
                if top and f is not None:
                    means[0] += center_sums
                    center_sums = np.cumsum(means, axis=0)[-1]
                lanes[j - 1].run_moving(rows[:m], states[j - 1, :, k0:k0 + m],
                                        moved[:, k0:k0 + m])
                if top and tracer is not None:
                    tracer.record(rows[:m, 0], k0)
        if f is not None:
            for x in states[-1].T:
                f_sums += f(x)
                if freeze_lower is not None:
                    center_sums += float(np.sum(weights * frozen_table * f_nodes))
    else:
        # replication 0's top-level rows, recorded a block at a time as above
        trace_rows = (np.empty((min(RUN_BLOCK, n), grid.n_points))
                      if tracer is not None and mixtures else None)
        for k in range(n):
            x_prev = lanes[0].step()
            moved = lanes[0].accepted
            for mixture, lane in zip(mixtures, lanes[1:]):
                mixture.add(x_prev, moved)
                if k == 0:
                    lane.set_target(mixture.table)
                else:
                    lane.refresh()
                x_prev = lane.step()
                moved = lane.accepted
            if f is not None:
                f_sums += f(x_prev)
                center_sums += mixtures[-1].center_num / mixtures[-1].center_den
            if trace_rows is not None:
                i = k % RUN_BLOCK
                trace_rows[i] = mixtures[-1].table[0]
                if i == RUN_BLOCK - 1 or k == n - 1:
                    tracer.record(trace_rows[:i + 1], k - i)

    result: Dict[str, object] = {
        "states": states,
        "finals": [lane.x.copy() for lane in lanes],
        "accepts": [lane.accept_count.copy() for lane in lanes],
        "folds": [lane.fold_count.copy() for lane in lanes],
        "f_sums": f_sums,
        "center_sums": center_sums,
        "descriptors": [
            _level_descriptor(family, 1, "reference flow level 1")
        ] + [
            _level_descriptor(family, j,
                              "frozen mixture" if freeze_lower is not None
                              else "running mixture level %d" % j)
            for j in range(2, p + 1)
        ],
    }
    if tracer is not None:
        result["trace"] = tracer.trace
    return result


def run_imcmc(family, model: FeynmanKacModel, p_levels: int, n: int,
              seed: SeedLike, x0: float = 0.0,
              freeze_lower: Optional[GridDensity] = None,
              trace_weight: Optional[WeightFunction] = None
              ) -> Union[List[ChainRun], Tuple[List[ChainRun], AdaptationTrace]]:
    """Run the interacting scheme once; one chain per level.

    All levels start at ``x0``; at step ``k`` level ``p`` moves against the
    transform of level ``p-1``'s running sample set of steps ``1..k``.  The
    levels run one after another (see :func:`_imcmc_engine`), which gives
    the same states as stepping them together.  ``freeze_lower`` replaces
    the running measure with a fixed density (a depth-2 diagnostic: the top
    chain becomes homogeneous).
    Passing ``trace_weight`` additionally returns the adaptation trace of the
    top-level target (per-step sup and weighted-norm increments, thinned
    snapshots).
    """
    family = _resolve_family(family)
    n = check_count(n, minimum=1)
    p_levels = check_depth(p_levels, model.n_levels)
    check_in_window(model.grid, x0)
    if freeze_lower is not None:
        check_on_grid(model.grid, freeze_lower)
    check_state_storage(p_levels * n)
    streams = [_level_streams(seed, p_levels)]
    engine = _imcmc_engine(family, model, p_levels, n, streams, float(x0),
                           freeze_lower=freeze_lower, collect_states=True,
                           trace_weight=trace_weight)
    digest = _seed_digest(seed)
    runs = []
    for j in range(p_levels):
        runs.append(ChainRun(
            engine["states"][j][0], digest, engine["descriptors"][j],
            float(engine["accepts"][j][0]) / n, int(engine["folds"][j][0])))
    if trace_weight is not None:
        return runs, engine["trace"]
    return runs


# ---------------------------------------------------------------------------
# experiment configuration and the CLT harness
# ---------------------------------------------------------------------------

def check_alpha(alpha: float) -> None:
    """Refuse a fractional exponent outside the open interval (0, 1/2)."""
    if not (0.0 < alpha < 0.5):
        raise RangeError("alpha must lie in (0, 1/2), got %g" % alpha)


def check_scheme(scheme: str) -> None:
    if scheme not in ("smcmc", "imcmc"):
        raise InvalidInputError('scheme must be "smcmc" or "imcmc", got %r' % (scheme,))


def check_scheme_depth(scheme: str, p_levels: int) -> None:
    if scheme == "imcmc" and p_levels != 2:
        raise InvalidInputError("interacting-scheme variance predictions are depth-2 "
                                "only, got depth %d" % p_levels)


def check_scheme_start(scheme: str, level_init: Optional[str]) -> None:
    if scheme == "imcmc" and level_init not in (None, "fixed"):
        raise InvalidInputError(
            'interacting levels start at x0; level_init must be "fixed" or unset')


def check_replications(replications) -> int:
    if (not isinstance(replications, (int, np.integer)) or isinstance(replications, bool)
            or replications < MIN_REPLICATIONS):
        raise InvalidInputError("need at least %d replications, got %r"
                                % (MIN_REPLICATIONS, replications))
    return int(replications)


def v_alpha_norm(f_values: np.ndarray, weight_values: np.ndarray,
                 alpha: float) -> float:
    """sup |f| / V**alpha; the exponent must lie strictly inside (0, 1/2)."""
    check_alpha(alpha)
    v_vals = np.asarray(weight_values, dtype=float)
    if np.any(v_vals < 1.0 - 1e-12):
        raise InvalidInputError("weight values must be >= 1")
    return v_norm_function(f_values, v_vals ** alpha)


@dataclass
class SchemeConfig:
    """What a CLT experiment runs: family, model, depth, starts, norms."""

    family: HastingsFamily
    model: FeynmanKacModel
    p_levels: int = 2
    x0: float = 0.0
    level_init: Optional[str] = None
    alpha: float = DEFAULT_ALPHA
    weight: Optional[WeightFunction] = None
    batch_count: int = DEFAULT_BATCH_COUNT

    def __post_init__(self) -> None:
        _resolve_family(self.family)
        if not isinstance(self.model, FeynmanKacModel):
            raise InvalidInputError("config needs a reweight/mutate model")
        check_depth(self.p_levels, self.model.n_levels)
        check_in_window(self.model.grid, self.x0)
        if self.level_init is not None:
            check_level_init(self.level_init)
        check_alpha(self.alpha)
        if self.weight is None:
            self.weight = WeightFunction.one_plus_square()
        check_batch_count(self.batch_count)


def _normality(stat: np.ndarray) -> Tuple[float, float, float]:
    """Skewness, excess kurtosis and the one-sample Kolmogorov-Smirnov
    distance to N(0, 1) of the standardised statistic (biased moments, the
    operation order of ``scipy.stats.skew``/``kurtosis``/``kstest``)."""
    spread = float(np.std(stat, ddof=1))
    if spread <= 1e-12 * (1.0 + abs(float(np.mean(stat)))):
        return 0.0, 0.0, 0.0  # constant to rounding
    z = (stat - float(np.mean(stat))) / spread
    d = z - np.mean(z)
    d2 = d * d
    m2 = np.mean(d2)
    skew = np.mean(d2 * d) / m2 ** 1.5
    kurtosis = np.mean(d2 * d2) / m2 ** 2.0 - 3.0
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in np.sort(z)])
    n = cdf.size
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    return float(skew), float(kurtosis), float(max(d_plus, d_minus))


def _sigma_functionals(family: HastingsFamily, model: FeynmanKacModel,
                       p: int) -> List[Callable[[np.ndarray], float]]:
    fns = []
    for j in range(1, p + 1):
        kern = family.at(model.flow(j), validate=False)

        def fn(g, _kern=kern):
            return asymptotic_variance(_kern, poisson_resolvent(_kern, g))

        fns.append(fn)
    return fns


def clt_experiment(scheme: str, config: SchemeConfig,
                   f: Callable[[np.ndarray], np.ndarray], n: int,
                   replications: int, seed: SeedLike) -> CltReport:
    """Replicate a scheme and compare the scaled-average error distribution
    with the predicted normal laws.

    Every replication owns a spawned stream (its chains reproduce standalone
    runs seeded with that child).  The random-centered statistic subtracts
    each replication's realised top-level target mean; the deterministic one
    subtracts the grid reference flow's mean.  Predictions: the top-level
    limiting chain's asymptotic variance (resolvent route, with a batch-means
    cross-check on a fresh limiting run) for random centering, plus the
    variance-recursion approximation term — doubled for the interacting
    scheme — for deterministic centering.

    The replications run in contiguous shards of whole blocks of
    ``MIN_REPLICATIONS``: the first shard in this process, the others in
    forked worker processes (as many as :func:`~mcmccalc.workers.worker_count`
    allows).  Each block's chains and rows do not depend on the other
    blocks, so the report does not depend on the number of workers.
    """
    check_scheme(scheme)
    if not isinstance(config, SchemeConfig):
        raise InvalidInputError("config must be a SchemeConfig")
    if not callable(f):
        raise InvalidInputError("the test function must be callable")
    reps = check_replications(replications)
    n = check_run_length(n, config.batch_count)
    check_state_storage(n)  # the limiting chain's states
    p = int(config.p_levels)
    check_scheme_depth(scheme, p)
    check_scheme_start(scheme, config.level_init)

    model = config.model
    grid = model.grid
    f_nodes = grid_function(grid, f)
    fractional_norm = v_alpha_norm(f_nodes, config.weight.values_on(grid),
                                   config.alpha)

    streams, spare = _replication_streams(seed, reps, p)
    weights = grid.trapezoid_weights()

    # predictions, before the replications: their dense temporaries then
    # peak over a smaller heap
    rec = smcmc_variance_recursion(model, p, f_nodes,
                                   _sigma_functionals(config.family, model, p))
    sigma2 = rec["terms"][p - 1]
    approx_extra = float(sum(rec["terms"][:p - 1]))
    if scheme == "imcmc":
        approx_extra *= 2.0
    predicted_det = sigma2 + approx_extra

    limiting_kernel = config.family.at(model.flow(p), validate=False)
    limiting = run_limiting_chain(limiting_kernel, config.x0, n, spare)
    sigma2_bm = batch_means_variance(limiting, f, config.batch_count)

    def shard(lo: int, hi: int) -> Dict[str, object]:
        """What the report reads of replications ``lo..hi-1``: the ``f``
        sums, and the realised top-level means (smcmc: one pair of products
        per block of final table rows) or their running sums (imcmc)."""
        if scheme == "smcmc":
            engine = _smcmc_engine(config.family, model, p, n, streams[lo:hi], config.x0,
                                   config.level_init or "previous-final",
                                   collect_states=False, f=f)
            table = engine["final_table"]
            centers = [(rows @ (weights * f_nodes)) / (rows @ weights)
                       for rows in np.split(table, range(MIN_REPLICATIONS, hi - lo,
                                                         MIN_REPLICATIONS))]
            return {"f_sums": engine["levels"][-1]["f_sums"],
                    "centers": np.concatenate(centers)}
        engine = _imcmc_engine(config.family, model, p, n, streams[lo:hi], config.x0,
                               f=f, f_nodes=f_nodes,
                               trace_weight=config.weight if lo == 0 else None)
        out = {"f_sums": engine["f_sums"], "center_sums": engine["center_sums"]}
        if lo == 0:
            out["trace"] = engine["trace"]
        return out

    # contiguous shards of whole replication blocks (see _MixtureAccumulator),
    # fixed by R and the worker count, concatenated in replication order
    blocks = range(0, reps, MIN_REPLICATIONS)
    workers = worker_count(len(blocks))
    starts = [blocks[len(blocks) * i // workers] for i in range(workers)] + [reps]
    parts = run_forked(shard, list(zip(starts, starts[1:])))
    joined = {key: value if key == "trace" else np.concatenate([part[key] for part in parts])
              for key, value in parts[0].items()}
    averages = joined["f_sums"] / n
    trace_obj = joined.get("trace")
    if scheme == "smcmc":
        stat_random = math.sqrt(n) * (averages - joined["centers"])
    else:
        stat_random = (joined["f_sums"] - joined["center_sums"]) / math.sqrt(n)

    det_center = model.flow(p).expect(f_nodes)
    stat_det = math.sqrt(n) * (averages - det_center)

    report = CltReport(
        scheme=scheme,
        depth=p,
        n_steps=n,
        replications=reps,
        estimate=float(np.mean(averages)),
        asymptotic_variance_batchmeans=sigma2_bm,
        asymptotic_variance_poisson=float(sigma2),
        replication_variance=float(np.var(stat_random, ddof=1)),
        replication_variance_deterministic=float(np.var(stat_det, ddof=1)),
        predicted_variance_deterministic=float(predicted_det),
        extra_variance=float(approx_extra),
        normality_stats=_normality(stat_random),
        normality_stats_deterministic=_normality(stat_det),
        f_fractional_norm=fractional_norm,
        fractional_exponent=float(config.alpha),
        d1_checkpoints=None if trace_obj is None else trace_obj.checkpoints,
        d1_sup_stats=None if trace_obj is None else _partial_sum_stats(
            trace_obj.sup_increments, trace_obj.checkpoints),
        d1_v_stats=None if trace_obj is None else _partial_sum_stats(
            trace_obj.v_increments, trace_obj.checkpoints),
    )
    return report


# ---------------------------------------------------------------------------
# adaptation diagnostics
# ---------------------------------------------------------------------------

def _partial_sum_stats(increments: np.ndarray, marks: np.ndarray) -> np.ndarray:
    sums = np.cumsum(increments)
    marks = np.asarray(marks, dtype=int)
    return sums[marks - 1] / np.sqrt(marks)


def _trend_slope(marks: np.ndarray, stats_vals: np.ndarray) -> Tuple[float, bool]:
    """Log-log slope of the statistic over the later checkpoints; all-zero
    statistics trend trivially."""
    if np.max(stats_vals) <= 1e-14:
        return 0.0, True
    keep = stats_vals > 0.0
    marks = marks[keep]
    stats_vals = stats_vals[keep]
    if marks.size < 2:
        return 0.0, False
    half = marks.size // 2
    xs = np.log(marks[half:].astype(float))
    ys = np.log(stats_vals[half:])
    if xs.size < 2:
        return 0.0, False
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, slope < 0.0


@dataclass(frozen=True)
class AdaptationReport:
    """Diagnostics for the diminishing-adaptation conditions of a run."""

    checkpoints: np.ndarray
    d1_sup_stats: np.ndarray
    d1_v_stats: np.ndarray
    slope_sup: float
    slope_v: float
    sup_trending: bool
    v_trending: bool
    c1_gaps: np.ndarray
    c1_shrinking: bool
    scan_max_m_x: Optional[float]
    scan_max_m_perp: Optional[float]
    scan_all_finite: Optional[bool]
    passed: bool


def check_adaptation_conditions(artifacts, weight: Optional[WeightFunction] = None,
                                family: Optional[HastingsFamily] = None,
                                reference: Optional[GridDensity] = None,
                                scan_points: Optional[Sequence[float]] = None
                                ) -> AdaptationReport:
    """Diminishing-adaptation diagnostics from run artifacts.

    ``artifacts`` is either an :class:`AdaptationTrace` (from
    :func:`run_imcmc`) or an explicit sequence of target densities.  Reported:
    the two scaled partial sums of per-step target increments (sup norm and
    weighted norm) with their log-log trend slopes — both must head to zero —
    the sup-gap of the snapshots to the reference density (the last snapshot
    when none is given), and, when a family is supplied, point-start
    derivative constants scanned along consecutive snapshot pairs.
    """
    weight = weight or WeightFunction.one_plus_square()
    if isinstance(artifacts, AdaptationTrace):
        grid = artifacts.grid
        sup_inc = artifacts.sup_increments
        v_inc = artifacts.v_increments
        marks = artifacts.checkpoints
        snapshots = artifacts.snapshots
    else:
        densities = list(artifacts)
        if len(densities) < 2:
            raise InvalidInputError("need at least two target densities")
        if not all(isinstance(d, GridDensity) for d in densities):
            raise InvalidInputError(
                "density-sequence artifacts must be GridDensity objects"
            )
        grid = densities[0].grid
        for d in densities:
            check_on_grid(grid, d)
        v_vals = weight.values_on(grid)
        w = grid.trapezoid_weights()
        sup_inc = np.zeros(len(densities))
        v_inc = np.zeros(len(densities))
        for k in range(1, len(densities)):
            delta = densities[k].values - densities[k - 1].values
            sup_inc[k] = float(np.max(np.abs(delta)))
            v_inc[k] = float(np.sum(w * v_vals * np.abs(delta)))
        marks = np.arange(1, len(densities) + 1)
        snapshots = np.vstack([d.values for d in densities])
    if reference is not None:
        check_on_grid(grid, reference)

    sup_stats = _partial_sum_stats(sup_inc, marks)
    v_stats = _partial_sum_stats(v_inc, marks)
    slope_sup, sup_ok = _trend_slope(marks, sup_stats)
    slope_v, v_ok = _trend_slope(marks, v_stats)

    ref_vals = reference.values if reference is not None else snapshots[-1]
    c1_gaps = np.max(np.abs(snapshots - ref_vals[None, :]), axis=1)
    c1_ok = bool(c1_gaps[-1] <= c1_gaps[0] + 1e-15)

    scan_m_x = scan_m_perp = scan_finite = None
    if family is not None and snapshots.shape[0] >= 2:
        pair_count = min(SCAN_PAIRS, snapshots.shape[0] - 1)
        picks = np.unique(np.linspace(1, snapshots.shape[0] - 1,
                                      pair_count).astype(int))
        pts = (list(scan_points) if scan_points is not None
               else list(np.linspace(-3.0, 3.0, 5)))
        m_x_all, m_perp_all, finite_all = [], [], []
        for k in picks:
            mu = GridDensity(grid, snapshots[k], normalize=True, positive=True)
            nu = GridDensity(grid, snapshots[k - 1], normalize=True, positive=True)
            scan = uniform_boundedness_scan(family, mu, nu, weight, pts)
            m_x_all.append(scan["max_m_x"])
            m_perp_all.append(scan["max_m_perp"])
            finite_all.append(scan["all_finite"])
        scan_m_x = float(np.max(m_x_all))
        scan_m_perp = float(np.max(m_perp_all))
        scan_finite = bool(all(finite_all))

    passed = bool(sup_ok and v_ok and (scan_finite is not False))
    return AdaptationReport(
        checkpoints=np.asarray(marks, dtype=int),
        d1_sup_stats=sup_stats,
        d1_v_stats=v_stats,
        slope_sup=slope_sup,
        slope_v=slope_v,
        sup_trending=sup_ok,
        v_trending=v_ok,
        c1_gaps=c1_gaps,
        c1_shrinking=c1_ok,
        scan_max_m_x=scan_m_x,
        scan_max_m_perp=scan_m_perp,
        scan_all_finite=scan_finite,
        passed=passed,
    )
