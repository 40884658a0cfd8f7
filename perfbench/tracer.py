"""Spans around the public entry points of each mcmccalc module.

A :class:`Tracer` replaces each entry point with a wrapper that records one
span per call: name, start, end, parent span and, for a few entry points, the
work the call did (rows produced, chain steps, bytes of dense matrices).  The
spans stay in memory and are written out when the traced run ends.  Names
that other modules imported with ``from .x import y`` are patched where they
are looked up; methods and properties are patched on their class.
:meth:`Tracer.uninstall` puts every original back.

The analysis half (:func:`self_times`, :func:`pass_metrics`) turns the spans
of one pass into the per-layer metrics.  A layer's self time is the time its
spans cover minus the part of that covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import weakref
from time import perf_counter

# layer (module of mcmccalc) -> entry points; "Class.attr" names a method or
# property, a bare name a module-level function.
ENTRY_POINTS = {
    "measures": ("GridDensity.__init__", "curve_at", "integrate_values"),
    "kernels": ("HastingsFamily.at", "GibbsFamily.at", "HastingsKernel.q_matrix",
                "HastingsKernel.ratio_matrix", "HastingsKernel.accept_matrix",
                "HastingsKernel.apply_to_function", "HastingsKernel.propagate_density",
                "check_invariance"),
    "derivative": ("derivative_for_start", "fd_directional_derivative",
                   "generator_function"),
    "calculus": ("verify_ftc", "hastings_mvi_constants", "mh_mvi_constants",
                 "gibbs_mvi_constants", "empirical_mvi_check"),
    "ergodicity": ("poisson_resolvent", "asymptotic_variance", "check_drift",
                   "find_drift_parameters", "estimate_geometric_rate",
                   "check_resolvent_identity", "check_log_concave_tails"),
    "feynman_kac": ("MutationKernel.rows", "FeynmanKacModel.potential_at",
                    "FeynmanKacModel.transform", "FeynmanKacModel.flow",
                    "smcmc_variance_recursion", "default_ssm_model"),
    "samplers": ("clt_experiment", "run_smcmc", "run_imcmc", "run_limiting_chain",
                 "batch_means_variance", "check_adaptation_conditions"),
    "cli": ("load_config", "run_experiment"),
}
LAYERS = tuple(ENTRY_POINTS)

# span record fields
NAME, START, END, PARENT, EXTRA, ERROR = range(6)

_MARK = "_perfbench_span"


def _chain_runs(result):
    """The ChainRun objects a sampler entry point returned."""
    name = type(result).__name__
    if name == "ChainRun":
        return [result]
    if isinstance(result, tuple):  # run_imcmc with a trace: (runs, trace)
        return list(result[0])
    return [item[0] if isinstance(item, tuple) else item for item in result]


def _chain_counts(tracer, args, result):
    runs = _chain_runs(result)
    steps = sum(run.n_steps for run in runs)
    return {"steps": steps, "proposals": steps,
            "accepts": sum(round(run.acceptance_rate * run.n_steps) for run in runs),
            "folds": sum(run.truncation_events for run in runs)}


def _q_matrix_counts(tracer, args, result):
    kernel = args[0]
    if kernel in tracer.assembled:
        return None
    tracer.assembled.add(kernel)
    return {"assembly": 1, "bytes": result.nbytes}


# entry point -> hook(tracer, args, result) giving the counts the span carries
_HOOKS = {
    "kernels:HastingsKernel.q_matrix": _q_matrix_counts,
    "kernels:HastingsKernel.ratio_matrix": lambda t, a, r: {"bytes": r.nbytes},
    "derivative:fd_directional_derivative":
        lambda t, a, r: {"evals": 1 + len(r.steps), "converged": int(r.converged)},
    "calculus:verify_ftc": lambda t, a, r: {"nodes": r.t_nodes},
    "calculus:empirical_mvi_check": lambda t, a, r: {"trials": r["n_trials"]},
    "ergodicity:poisson_resolvent": lambda t, a, r: {"terms": r.truncation_k},
    "feynman_kac:MutationKernel.rows":
        lambda t, a, r: {"rows": r.shape[0], "bytes": r.nbytes},
    "samplers:clt_experiment":
        lambda t, a, r: {"steps": r.n_steps * r.replications * r.depth},
    "samplers:run_smcmc": _chain_counts,
    "samplers:run_imcmc": _chain_counts,
    "samplers:run_limiting_chain": _chain_counts,
}


class Tracer:
    """Wraps the entry points of the loaded mcmccalc modules and records spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.assembled = weakref.WeakSet()  # kernels whose q_matrix was built
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if hook is not None:
                span[EXTRA] = hook(self, args, result)
            return result

        setattr(traced, _MARK, name)
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        loaded = [m for key, m in sys.modules.items()
                  if key == "mcmccalc" or key.startswith("mcmccalc.")]
        for layer, entries in ENTRY_POINTS.items():
            module = importlib.import_module("mcmccalc." + layer)
            for entry in entries:
                name = f"{layer}:{entry}"
                if "." in entry:
                    cls_name, attr = entry.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    if isinstance(original, property):
                        wrapped = property(self._wrap(name, original.fget), original.fset,
                                           original.fdel, original.__doc__)
                    else:
                        wrapped = self._wrap(name, original)
                    setattr(cls, attr, wrapped)
                    self._patches.append((cls, attr, original))
                    continue
                original = getattr(module, entry)
                wrapped = self._wrap(name, original)
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans}


# --------------------------------------------------------------------------
# analysis


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [span[END] - span[START] - _covered(kids, span[START], span[END])
            for span, kids in zip(spans, children)]


def _outermost(spans, names, lo, hi) -> list:
    """Spans in [lo, hi] named in ``names`` with no ancestor named in ``names``."""
    picked = []
    for span in spans:
        if span[NAME] not in names or span[START] < lo or span[END] > hi:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            picked.append(span)
    return picked


def _total(spans) -> float:
    return sum(span[END] - span[START] for span in spans)


def _extra(spans, name, key) -> int:
    return sum((span[EXTRA] or {}).get(key, 0) for span in spans if span[NAME] == name)


def worker_metrics(worker: dict) -> dict:
    """Per-layer sums for one traced experiment (one worker process).

    ``worker`` holds the worker's ``spans`` plus ``run_start``/``run_end``, the
    interval around its ``run_experiment`` call, which is the traced wall time.
    """
    lo, hi = worker["run_start"], worker["run_end"]
    spans = worker["spans"]
    inside = [i for i, s in enumerate(spans) if s[START] >= lo and s[END] <= hi]
    selfs = self_times(spans)
    out = {f"{layer}.{key}": 0 for layer in LAYERS for key in ("self_s", "calls", "errors")}
    for span in spans:
        layer = span[NAME].split(":")[0]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.errors"] += int(span[ERROR])
    for i in inside:
        out[spans[i][NAME].split(":")[0] + ".self_s"] += selfs[i]
    run = [spans[i] for i in inside]
    top = [(s[START], s[END]) for s in run if s[PARENT] < 0]
    wall = hi - lo
    out["trace.unspanned_s"] = wall - _covered(top, lo, hi)
    out["trace.wall_s"] = wall
    out["trace.spans"] = len(run)
    out["cli.load_config_s"] = _total(s for s in spans if s[NAME] == "cli:load_config")

    q = "kernels:HastingsKernel.q_matrix"
    apply = {"kernels:HastingsKernel.apply_to_function",
             "kernels:HastingsKernel.propagate_density", "kernels:check_invariance"}
    out["kernels.assemblies"] = _extra(run, q, "assembly")
    out["kernels.assembly_s"] = _total(s for s in run if s[NAME] == q and s[EXTRA])
    out["kernels.dense_bytes"] = (_extra(run, q, "bytes")
                                  + _extra(run, "kernels:HastingsKernel.ratio_matrix", "bytes"))
    out["kernels.apply_calls"] = sum(1 for s in run if s[NAME] in apply)
    out["kernels.apply_s"] = _total(_outermost(spans, apply, lo, hi))

    fd = "derivative:fd_directional_derivative"
    out["derivative.oracle_evals"] = _extra(run, fd, "evals")
    out["derivative.oracle_calls"] = sum(1 for s in run if s[NAME] == fd)
    out["derivative.oracle_converged"] = _extra(run, fd, "converged")

    out["calculus.ftc_nodes"] = _extra(run, "calculus:verify_ftc", "nodes")
    out["calculus.mvi_trials"] = _extra(run, "calculus:empirical_mvi_check", "trials")

    pr = "ergodicity:poisson_resolvent"
    out["ergodicity.resolvent_s"] = _total(_outermost(spans, {pr}, lo, hi))
    out["ergodicity.resolvent_terms"] = _extra(run, pr, "terms")

    rows = "feynman_kac:MutationKernel.rows"
    out["feynman_kac.rows_calls"] = sum(1 for s in run if s[NAME] == rows)
    out["feynman_kac.rows"] = _extra(run, rows, "rows")
    out["feynman_kac.rows_s"] = _total(_outermost(spans, {rows}, lo, hi))
    out["feynman_kac.row_bytes"] = _extra(run, rows, "bytes")
    out["feynman_kac.potential_s"] = _total(
        _outermost(spans, {"feynman_kac:FeynmanKacModel.potential_at"}, lo, hi))
    out["feynman_kac.transform_s"] = _total(
        _outermost(spans, {"feynman_kac:FeynmanKacModel.transform"}, lo, hi))

    chains = ("samplers:clt_experiment", "samplers:run_smcmc", "samplers:run_imcmc",
              "samplers:run_limiting_chain")
    for key in ("steps", "proposals", "accepts", "folds"):
        out[f"samplers.{key}"] = sum(_extra(run, name, key) for name in chains)
    out["samplers.prediction_s"] = _total(_outermost(spans, {
        "samplers:run_limiting_chain", "samplers:batch_means_variance",
        "feynman_kac:smcmc_variance_recursion"}, lo, hi))
    return out


def pass_metrics(workers: list, design_layers) -> dict:
    """Per-layer metrics of one traced pass over a workload's experiments.

    Work and time add up over the pass's experiments; the set-up pieces
    (import, config loading) are per process and reported as medians.
    """
    parts = [worker_metrics(w) for w in workers]
    out = {key: sum(p[key] for p in parts) for key in parts[0]}
    out["cli.load_config_s"] = statistics.median(p["cli.load_config_s"] for p in parts)
    out["mcmccalc.import_s"] = statistics.median(w["import_s"] for w in workers)
    out["cli.artifact_bytes"] = sum(w["artifact_bytes"] for w in workers)

    calls = out.pop("derivative.oracle_calls")
    converged = out.pop("derivative.oracle_converged")
    out["derivative.oracle_converged_ratio"] = converged / calls if calls else 0.0
    out["samplers.chain_steps"] = out.pop("samplers.steps")
    accepts, folds = out.pop("samplers.accepts"), out.pop("samplers.folds")
    proposals = out["samplers.proposals"]
    out["samplers.accept_ratio"] = accepts / proposals if proposals else 0.0
    out["samplers.fold_ratio"] = folds / proposals if proposals else 0.0
    self_s = out["samplers.self_s"]
    out["samplers.steps_per_s"] = out["samplers.chain_steps"] / self_s if self_s else 0.0

    layer_self = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.balance_residual_s"] = layer_self + out["trace.unspanned_s"] - out["trace.wall_s"]
    designed = sum(out[f"{layer}.self_s"] for layer in design_layers)
    out["trace.design_share"] = designed / layer_self if layer_self else 0.0
    return out
