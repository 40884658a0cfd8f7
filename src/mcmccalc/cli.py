"""Config-driven experiment runner: one JSON config in, machine-first reports out.

Seven subcommands, one per experiment kind::

    mcmccalc derivative-check  --config cfg.json    analytic vs finite-difference
    mcmccalc ftc-check         --config cfg.json    endpoint gap vs integrated slope
    mcmccalc mvi-check         --config cfg.json    randomized mean-value bounds
    mcmccalc ergodicity-check  --config cfg.json    tails / drift / resolvent suite
    mcmccalc smcmc-run         --config cfg.json    sequential chain, CSV trace
    mcmccalc imcmc-run         --config cfg.json    interacting chain, CSV trace
    mcmccalc clt-report        --config cfg.json    fluctuation summary with gates

Every run writes a ``manifest.json`` next to its reports: config digest,
package version, timestamps, one pass/fail row per configured check, and a
sha256 for each file written.  The process exit code is a pure function of
the check rows: 0 when all passed, 1 when any failed, 2 for a config problem
(every problem is reported before any output exists; a value the library
would refuse is refused by its own rule, in its words), 3 when a library
routine raised while running or an output could not be written (the message
names the experiment kind and stage).

Config reference -- any key may be omitted; defaults in brackets.

Shared keys
    kind        experiment kind; must match the subcommand when both given
    grid        {"lower", "upper", "points"}   [-8, 8, 513; two-stage: -6, 6, 65]
    seed        integer >= 0                   [1; clt-report: 1234]
    output_dir  directory for reports          ["mcmccalc-out", or $MCMCCALC_OUT_DIR]

Spec vocabularies
    density     {"shape": "gaussian", "mean": 0.0, "std": 1.0}
                {"shape": "mixture", "means": [..], "stds": [..], "weights": [..]}
                {"shape": "gaussian2d", "mean": [a, b], "cov": [[..], [..]]}
    family      {"kind": "hastings", "proposal": "random-walk", "sigma": 1.0,
                 "balancing": "barker"}                                  [as shown]
                with sigma <= (upper - lower)/6;
                proposal "independence" takes "base" (a density spec);
                balancing is "barker", "min-one", or {"exponent": j};
                {"kind": "two-stage"} selects the coordinate-scan kernel
                (derivative-check / ftc-check / mvi-check only)
    weight      {"kind": "one-plus-square"} or {"kind": "exp-abs", "rate": r}
    start       {"density": <density spec>} or {"point": x} / {"point": [a, b]}
                [gaussian, mean 0, std 0.45; two-stage: product of those];
                a point may sit anywhere in the grid window, on or between
                nodes, and is read through the kernel's own law from it
    function    "cos-tanh" | "clipped-identity" | "cos2d-mix" (two-stage)
    model       {"phi_bar": 1.0}   bound used by the packaged observation model

Per-kind keys
    derivative-check   family target direction start function
                       tolerance {derivative_rel 1e-3, centering 1e-6,
                                  generator 1e-6, invariance 1e-8}
    ftc-check          family target direction start function t_nodes [33, odd, >= 7]
                       tolerance {residual 1e-6 density / 1e-5 point,
                                  refinement_factor 2.0}
    mvi-check          family target direction start weight trials [1000]
    ergodicity-check   model family function sample_sets [5] chain_steps [1500]
                       tolerance {poisson 1e-6, identity 1e-5}
    smcmc-run          model family depth [2, at most 9] steps [20000] x0 [0.0]
                       level_init ["previous-final" or "fixed"] invariance_target
                       tolerance {invariance 1e-8}
    imcmc-run          model family depth [2, at most 9] steps [20000] x0 [0.0]
                       weight invariance_target tolerance {invariance 1e-8}
    clt-report         scheme ["smcmc"; "imcmc" needs depth 2 and level_init
                       "fixed" or unset] model family depth [2] steps [100000]
                       replications [200, >= 100] function ["clipped-identity"]
                       alpha [0.25, in (0, 1/2)] batch_count [40, >= 20, <= steps]
                       x0 [0.0] level_init [unset] tolerance {variance_rel 0.2,
                       skew 0.25, excess_kurtosis 0.5, ks 0.08}

Every start lies in the closed grid window: a start point, each coordinate
of a two-stage pair, and the chain start x0 of smcmc-run, imcmc-run and
clt-report; anything else is a config problem (exit 2).

The clt-report defaults are the reference fluctuation protocol (about two
minutes of compute) and its default seed is 1234; the gate statistics are
noisy below that scale, so shorter runs should widen the tolerances.

``invariance_target`` (a density spec) replaces the claimed invariant law in
the chain-level invariance check; pointing it at the wrong density is the
supported negative control and fails the run with exit code 1.

Environment: MCMCCALC_OUT_DIR supplies the default output directory and
MCMCCALC_THREADS caps the numeric thread pools and the worker processes of
clt-report and of the grid kinds' forked sweeps.  Nothing else is read.
OPENBLAS_THREAD_TIMEOUT, when unset, is set to 8 for the BLAS library.
"""

from __future__ import annotations

import os

from .workers import run_forked, shards, thread_cap, worker_count

# Thread caps must reach the BLAS layer before numpy loads it; honoured when
# this module is the process entry point, harmless otherwise.  OpenBLAS's
# idle helper threads sleep after 2^8 cycles instead of spinning for 2^28,
# so a forked sweep's processes do not take each other's cores; an explicit
# value wins.
_THREADS = thread_cap()
if _THREADS is not None:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, str(_THREADS))
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "8")

import argparse
import csv
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from . import __version__
from .calculus import (
    _start_kind,
    empirical_mvi_check,
    mvi_constants,
    verify_ftc,
)
from .derivative import (
    derivative_for_start,
    fd_directional_derivative,
    generator_function,
)
from .ergodicity import (
    DRIFT_RATES,
    check_drift,
    check_log_concave_tails,
    check_resolvent_identity,
    estimate_geometric_rate,
    find_drift_parameters,
    poisson_resolvent,
)
from .errors import ConfigError, PreconditionError, ResourceLimitError
from .feynman_kac import DEFAULT_OBSERVATION_COUNT, check_depth, default_ssm_model
from .kernels import (
    BalancingFunction,
    GibbsFamily,
    HastingsFamily,
    ProposalKernel,
    check_invariance,
    check_random_walk_sigma,
)
from .measures import (
    Grid1D,
    Grid2D,
    GridDensity,
    SignedGridFunction,
    WeightFunction,
    check_count,
    check_covariance,
    check_in_window,
    check_mixture,
    check_positive,
    check_window,
    gaussian2d_density,
    gaussian_density,
    gaussian_mixture_density,
    simpson_weights,
)
from .samplers import (
    DEFAULT_ALPHA,
    DEFAULT_BATCH_COUNT,
    SchemeConfig,
    check_adaptation_conditions,
    check_alpha,
    check_batch_count,
    check_level_init,
    check_replications,
    check_run_length,
    check_scheme,
    check_scheme_depth,
    check_scheme_start,
    check_state_storage,
    clt_experiment,
    run_imcmc,
    run_smcmc,
)

KINDS = (
    "derivative-check",
    "ftc-check",
    "mvi-check",
    "ergodicity-check",
    "smcmc-run",
    "imcmc-run",
    "clt-report",
)

_SHARED_KEYS = {"kind", "grid", "seed", "output_dir"}
_KIND_KEYS = {
    "derivative-check": {"family", "target", "direction", "start", "function", "tolerance"},
    "ftc-check": {"family", "target", "direction", "start", "function", "t_nodes", "tolerance"},
    "mvi-check": {"family", "target", "direction", "start", "weight", "trials"},
    "ergodicity-check": {"model", "family", "function", "sample_sets", "chain_steps", "tolerance"},
    "smcmc-run": {"model", "family", "depth", "steps", "x0", "level_init",
                  "invariance_target", "tolerance"},
    "imcmc-run": {"model", "family", "depth", "steps", "x0", "weight",
                  "invariance_target", "tolerance"},
    "clt-report": {"scheme", "model", "family", "depth", "steps", "replications",
                   "function", "alpha", "batch_count", "x0", "level_init", "tolerance"},
}

_TOLERANCE_DEFAULTS = {
    "derivative-check": {"derivative_rel": 1e-3, "centering": 1e-6,
                         "generator": 1e-6, "invariance": 1e-8},
    "ftc-check": {"residual": None, "refinement_factor": 2.0},  # residual default by start kind
    "ergodicity-check": {"poisson": 1e-6, "identity": 1e-5},
    "smcmc-run": {"invariance": 1e-8},
    "imcmc-run": {"invariance": 1e-8},
    "clt-report": {"variance_rel": 0.2, "skew": 0.25, "excess_kurtosis": 0.5, "ks": 0.08},
}

_MODEL_KINDS = {"ergodicity-check", "smcmc-run", "imcmc-run", "clt-report"}

# Residual below this is integration noise; refinement ratios stop meaning
# anything there and the refinement check passes outright.
_REFINEMENT_FLOOR = 1e-12
CSV_BLOCK = 4096  # chain steps per string that chains.csv is written in


# --------------------------------------------------------------------------
# validation toolkit


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class _Problems:
    def __init__(self):
        self.items: List[str] = []

    def add(self, path: str, message: str) -> None:
        self.items.append(f"{path}: {message}" if path else message)


def _take_number(spec, key, path, problems, default, positive=None):
    """A finite number; with ``positive`` (the quantity's name), a positive one."""
    value = spec.get(key, default)
    if not _is_number(value):
        problems.add(f"{path}{key}", "must be a finite number")
        return default
    if positive and not _rule(problems, f"{path}{key}", check_positive, value, positive):
        return default
    return float(value)


def _rule(problems: _Problems, path: str, check, *args, lead: str = "") -> bool:
    """Whether the library's own input rule ``check(*args)`` holds; a refusal
    is reported under ``path`` in the library's words (after ``lead``).  The
    library's input errors are ValueErrors."""
    try:
        check(*args)
    except (ValueError, ResourceLimitError) as err:
        problems.add(path, f"{lead}{err}")
        return False
    return True


def _take_int(spec, key, path, problems, default, minimum=None):
    value = spec.get(key, default)
    if not _is_int(value):
        problems.add(f"{path}{key}", "must be an integer")
        return default
    if minimum is not None and value < minimum:
        problems.add(f"{path}{key}", f"must be >= {minimum}, got {value}")
        return default
    return int(value)


def _take_choice(spec, key, path, problems, default, choices):
    value = spec.get(key, default)
    if not isinstance(value, str) or value not in choices:
        problems.add(f"{path}{key}", "must be one of %s" % ", ".join(repr(c) for c in choices))
        return default
    return value


def _reject_unknown(spec: dict, allowed, path: str, problems: _Problems) -> None:
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        problems.add(
            path.rstrip("."),
            "unknown key(s) %s; allowed: %s"
            % (", ".join(repr(k) for k in unknown), ", ".join(sorted(allowed))),
        )


def _expect_object(value, path, problems) -> Optional[dict]:
    if value is None:
        return {}
    if not isinstance(value, dict):
        problems.add(path, "must be a JSON object")
        return None
    return value


def _check_grid(spec, problems, two_stage: bool) -> dict:
    default = ({"lower": -6.0, "upper": 6.0, "points": 65} if two_stage
               else {"lower": -8.0, "upper": 8.0, "points": 513})
    obj = _expect_object(spec, "grid", problems)
    if obj is None or not obj:
        return default
    _reject_unknown(obj, {"lower", "upper", "points"}, "grid.", problems)
    lower = _take_number(obj, "lower", "grid.", problems, default["lower"])
    upper = _take_number(obj, "upper", "grid.", problems, default["upper"])
    points = _take_int(obj, "points", "grid.", problems, default["points"], minimum=33)
    if not _rule(problems, "grid", check_window, lower, upper):
        return default
    return {"lower": lower, "upper": upper, "points": points}


def _check_density(spec, path, problems, two_stage: bool, default: dict) -> dict:
    obj = _expect_object(spec, path, problems)
    if obj is None or not obj:
        return dict(default)
    shape = _take_choice(obj, "shape", f"{path}.", problems, None,
                         ("gaussian", "mixture", "gaussian2d"))
    if shape is None:
        return dict(default)
    if two_stage and shape != "gaussian2d":
        problems.add(path, f"the two-stage family needs shape 'gaussian2d', got '{shape}'")
        return dict(default)
    if not two_stage and shape == "gaussian2d":
        problems.add(path, "shape 'gaussian2d' only pairs with the two-stage family")
        return dict(default)
    if shape == "gaussian":
        _reject_unknown(obj, {"shape", "mean", "std"}, f"{path}.", problems)
        return {
            "shape": "gaussian",
            "mean": _take_number(obj, "mean", f"{path}.", problems, 0.0),
            "std": _take_number(obj, "std", f"{path}.", problems, 1.0, "gaussian std"),
        }
    if shape == "mixture":
        _reject_unknown(obj, {"shape", "means", "stds", "weights"}, f"{path}.", problems)
        out = {"shape": "mixture"}
        for key in ("means", "stds", "weights"):
            seq = obj.get(key)
            if not isinstance(seq, list) or not all(_is_number(v) for v in seq):
                problems.add(f"{path}.{key}", "must be a list of finite numbers")
                return dict(default)
            out[key] = [float(v) for v in seq]
        if not _rule(problems, path, check_mixture, out["means"], out["stds"], out["weights"]):
            return dict(default)
        return out
    _reject_unknown(obj, {"shape", "mean", "cov"}, f"{path}.", problems)
    mean = obj.get("mean", [0.0, 0.0])
    cov = obj.get("cov", [[1.0, 0.4], [0.4, 1.0]])
    if not (isinstance(mean, list) and len(mean) == 2 and all(_is_number(v) for v in mean)):
        problems.add(f"{path}.mean", "must be a pair of numbers")
        return dict(default)
    flat = cov if isinstance(cov, list) and len(cov) == 2 else None
    if (flat is None or any(not isinstance(row, list) or len(row) != 2 for row in flat)
            or any(not _is_number(v) for row in flat for v in row)):
        problems.add(f"{path}.cov", "must be a 2x2 matrix of numbers")
        return dict(default)
    if not _rule(problems, f"{path}.cov", check_covariance, flat):
        return dict(default)
    return {"shape": "gaussian2d", "mean": [float(v) for v in mean],
            "cov": [[float(v) for v in row] for row in flat]}


_DEFAULT_TARGET = {"shape": "gaussian", "mean": 0.0, "std": 1.0}
_DEFAULT_DIRECTION = {"shape": "gaussian", "mean": 0.3, "std": 1.15}
_DEFAULT_START = {"shape": "gaussian", "mean": 0.0, "std": 0.45}
_DEFAULT_TARGET_2D = {"shape": "gaussian2d", "mean": [0.0, 0.0],
                      "cov": [[1.0, 0.4], [0.4, 1.0]]}
_DEFAULT_DIRECTION_2D = {"shape": "gaussian2d", "mean": [0.2, -0.1],
                         "cov": [[1.21, 0.44], [0.44, 1.21]]}
_DEFAULT_START_2D = {"shape": "gaussian2d", "mean": [0.0, 0.0],
                     "cov": [[0.2025, 0.0], [0.0, 0.2025]]}


def _check_family(spec, problems, kind: str) -> dict:
    obj = _expect_object(spec, "family", problems)
    default = {"kind": "hastings", "proposal": "random-walk", "sigma": 1.0,
               "balancing": "barker"}
    if obj is None or not obj:
        return default
    fam_kind = _take_choice(obj, "kind", "family.", problems, "hastings",
                            ("hastings", "two-stage"))
    if fam_kind == "two-stage":
        _reject_unknown(obj, {"kind"}, "family.", problems)
        if kind in _MODEL_KINDS:
            problems.add("family",
                         "the two-stage family has no sequential driver; "
                         "chain experiments need kind 'hastings'")
        return {"kind": "two-stage"}
    _reject_unknown(obj, {"kind", "proposal", "sigma", "base", "balancing"},
                    "family.", problems)
    proposal = _take_choice(obj, "proposal", "family.", problems, "random-walk",
                            ("random-walk", "independence"))
    out = {"kind": "hastings", "proposal": proposal}
    if proposal == "random-walk":
        if "base" in obj:
            problems.add("family.base", "only the independence proposal takes a base density")
        out["sigma"] = _take_number(obj, "sigma", "family.", problems, 1.0)
    else:
        if "sigma" in obj:
            problems.add("family.sigma", "only the random-walk proposal takes a width")
        out["base"] = _check_density(obj.get("base"), "family.base", problems,
                                     False, _DEFAULT_DIRECTION)
    bal = obj.get("balancing", "barker")
    if isinstance(bal, str):
        out["balancing"] = _take_choice(obj, "balancing", "family.", problems,
                                        "barker", ("barker", "min-one"))
    elif isinstance(bal, dict):
        _reject_unknown(bal, {"exponent"}, "family.balancing.", problems)
        out["balancing"] = {"exponent": _take_int(bal, "exponent", "family.balancing.",
                                                  problems, 2, minimum=1)}
    else:
        problems.add("family.balancing",
                     "must be 'barker', 'min-one', or {\"exponent\": j}")
        out["balancing"] = "barker"
    return out


def _check_weight(spec, problems) -> dict:
    obj = _expect_object(spec, "weight", problems)
    if obj is None or not obj:
        return {"kind": "one-plus-square"}
    w_kind = _take_choice(obj, "kind", "weight.", problems, "one-plus-square",
                          ("one-plus-square", "exp-abs"))
    if w_kind == "exp-abs":
        _reject_unknown(obj, {"kind", "rate"}, "weight.", problems)
        return {"kind": "exp-abs",
                "rate": _take_number(obj, "rate", "weight.", problems, 1.0,
                                     "exp-gamma-abs gamma")}
    _reject_unknown(obj, {"kind"}, "weight.", problems)
    return {"kind": "one-plus-square"}


def _check_start(spec, problems, two_stage: bool, grid) -> dict:
    default = {"density": dict(_DEFAULT_START_2D if two_stage else _DEFAULT_START)}
    obj = _expect_object(spec, "start", problems)
    if obj is None or not obj:
        return default
    _reject_unknown(obj, {"density", "point"}, "start.", problems)
    if "density" in obj and "point" in obj:
        problems.add("start", "give either a density or a point, not both")
        return default
    if "point" in obj:
        pt = obj["point"]
        if two_stage:
            if not (isinstance(pt, list) and len(pt) == 2 and all(_is_number(v) for v in pt)):
                problems.add("start.point", "two-stage starts are pairs of numbers")
                return default
        elif not _is_number(pt):
            problems.add("start.point", "must be a finite number")
            return default
        if not _rule(problems, "start.point", check_in_window, grid, pt):
            return default
        return {"point": [float(v) for v in pt] if two_stage else float(pt)}
    return {"density": _check_density(obj.get("density"), "start.density", problems,
                                      two_stage, default["density"])}


def _check_model(spec, problems) -> dict:
    obj = _expect_object(spec, "model", problems)
    if obj is None or not obj:
        return {"phi_bar": 1.0}
    _reject_unknown(obj, {"phi_bar"}, "model.", problems)
    return {"phi_bar": _take_number(obj, "phi_bar", "model.", problems, 1.0, "phi_bar")}


def _check_tolerance(spec, problems, kind: str) -> dict:
    defaults = dict(_TOLERANCE_DEFAULTS.get(kind, {}))
    obj = _expect_object(spec, "tolerance", problems)
    if obj is None:
        return defaults
    _reject_unknown(obj, set(defaults), "tolerance.", problems)
    out = {}
    for key, fallback in defaults.items():
        if key in obj:
            out[key] = _take_number(obj, key, "tolerance.", problems,
                                    fallback if fallback is not None else 1e-6,
                                    f"{key} tolerance")
        else:
            out[key] = fallback
    return out


def _check_function(spec, problems, two_stage: bool, default: str) -> str:
    tags = ("cos2d-mix",) if two_stage else ("cos-tanh", "clipped-identity")
    value = spec if spec is not None else default
    if not isinstance(value, str) or value not in tags:
        problems.add("function", "must be one of %s" % ", ".join(repr(t) for t in tags))
        return default
    return value


def _validate_config(raw, expected_kind: Optional[str], problems: _Problems) -> dict:
    if not isinstance(raw, dict):
        problems.add("", "the config must be a JSON object")
        return {"kind": expected_kind or KINDS[0]}
    kind = raw.get("kind", expected_kind)
    if kind is None:
        problems.add("kind", "required; one of %s" % ", ".join(KINDS))
        return {"kind": KINDS[0]}
    if kind not in KINDS:
        problems.add("kind", f"unknown experiment kind '{kind}'")
        return {"kind": KINDS[0]}
    if expected_kind is not None and kind != expected_kind:
        problems.add("kind", f"config says '{kind}' but the subcommand is '{expected_kind}'")

    _reject_unknown(raw, _SHARED_KEYS | _KIND_KEYS[kind], "", problems)

    family = _check_family(raw.get("family"), problems, kind)
    two_stage = family["kind"] == "two-stage"
    default_seed = 1234 if kind == "clt-report" else 1
    out = {
        "kind": kind,
        "family": family,
        "grid": _check_grid(raw.get("grid"), problems, two_stage),
        "seed": _take_int(raw, "seed", "", problems, default_seed, minimum=0),
        "output_dir": raw.get("output_dir"),
    }
    if out["output_dir"] is not None and not isinstance(out["output_dir"], str):
        problems.add("output_dir", "must be a string")
        out["output_dir"] = None
    if "sigma" in family:
        _rule(problems, "family.sigma", check_random_walk_sigma, family["sigma"],
              out["grid"]["lower"], out["grid"]["upper"])

    if kind in ("derivative-check", "ftc-check", "mvi-check"):
        out["target"] = _check_density(raw.get("target"), "target", problems, two_stage,
                                       _DEFAULT_TARGET_2D if two_stage else _DEFAULT_TARGET)
        out["direction"] = _check_density(raw.get("direction"), "direction", problems,
                                          two_stage,
                                          _DEFAULT_DIRECTION_2D if two_stage
                                          else _DEFAULT_DIRECTION)
        out["start"] = _check_start(raw.get("start"), problems, two_stage,
                                    _build_grid2(out) if two_stage else _build_grid(out))
    if kind in ("derivative-check", "ftc-check", "ergodicity-check", "clt-report"):
        default_fn = ("cos2d-mix" if two_stage
                      else "clipped-identity" if kind == "clt-report" else "cos-tanh")
        out["function"] = _check_function(raw.get("function"), problems, two_stage, default_fn)
    if kind in _MODEL_KINDS:
        out["model"] = _check_model(raw.get("model"), problems)

    if kind == "ftc-check":
        out["t_nodes"] = _take_int(raw, "t_nodes", "", problems, 33, minimum=7)
        _rule(problems, "t_nodes", simpson_weights, out["t_nodes"])  # refuses an even count
    if kind == "mvi-check":
        out["weight"] = _check_weight(raw.get("weight"), problems)
        out["trials"] = _take_int(raw, "trials", "", problems, 1000, minimum=1)
    if kind == "ergodicity-check":
        out["sample_sets"] = _take_int(raw, "sample_sets", "", problems, 5, minimum=2)
        out["chain_steps"] = _take_int(raw, "chain_steps", "", problems, 1500, minimum=100)
        _rule(problems, "chain_steps", check_state_storage, out["chain_steps"],
              lead="chain_steps is too large: ")

    def _window_x0():
        x0 = _take_number(raw, "x0", "", problems, 0.0)
        return x0 if _rule(problems, "x0", check_in_window, _build_grid(out), x0) else 0.0

    if kind in ("smcmc-run", "imcmc-run", "clt-report"):
        out["depth"] = raw.get("depth", 2)
        if not _rule(problems, "depth", check_depth, out["depth"], DEFAULT_OBSERVATION_COUNT):
            out["depth"] = 2
    if kind in ("smcmc-run", "imcmc-run"):
        out["steps"] = raw.get("steps", 20000)
        if _rule(problems, "steps", check_count, out["steps"], "step count", 1):
            _rule(problems, "steps", check_state_storage, out["depth"] * out["steps"],
                  lead="depth x steps is too large: ")
        out["x0"] = _window_x0()
        if "invariance_target" in raw:
            out["invariance_target"] = _check_density(raw["invariance_target"],
                                                      "invariance_target", problems,
                                                      False, _DEFAULT_TARGET)
    if kind == "smcmc-run":
        out["level_init"] = raw.get("level_init", "previous-final")
        _rule(problems, "level_init", check_level_init, out["level_init"])
    if kind == "imcmc-run":
        out["weight"] = _check_weight(raw.get("weight"), problems)
    if kind == "clt-report":
        scheme = out["scheme"] = raw.get("scheme", "smcmc")
        _rule(problems, "scheme", check_scheme, scheme)
        _rule(problems, "depth", check_scheme_depth, scheme, out["depth"])
        out["replications"] = raw.get("replications", 200)
        _rule(problems, "replications", check_replications, out["replications"])
        out["batch_count"] = raw.get("batch_count", DEFAULT_BATCH_COUNT)
        if not _rule(problems, "batch_count", check_batch_count, out["batch_count"]):
            out["batch_count"] = DEFAULT_BATCH_COUNT
        out["steps"] = raw.get("steps", 100000)
        if _rule(problems, "steps", check_run_length, out["steps"], out["batch_count"]):
            _rule(problems, "steps", check_state_storage, out["steps"],
                  lead="steps is too large: ")
        out["x0"] = _window_x0()
        out["alpha"] = _take_number(raw, "alpha", "", problems, DEFAULT_ALPHA)
        _rule(problems, "alpha", check_alpha, out["alpha"])
        level_init = out["level_init"] = raw.get("level_init")
        if level_init is None or _rule(problems, "level_init", check_level_init, level_init):
            _rule(problems, "level_init", check_scheme_start, scheme, level_init)
    if kind in _TOLERANCE_DEFAULTS:
        out["tolerance"] = _check_tolerance(raw.get("tolerance"), problems, kind)

    return out


# --------------------------------------------------------------------------
# config loading


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment description plus provenance of its source."""

    kind: str
    settings: Dict[str, object]
    source: Optional[str]
    digest: str


def load_config(path: Optional[Union[str, os.PathLike]], kind: Optional[str] = None,
                overrides: Optional[dict] = None) -> ExperimentConfig:
    """Read, validate and normalize a config file.

    Raises :class:`ConfigError` carrying *every* problem found, not just the
    first.  ``path=None`` validates an empty config (all defaults) for the
    given ``kind``.  ``overrides`` are command-line values that replace the
    corresponding file keys before validation.
    """

    problems = _Problems()
    raw: object = {}
    blob = b"{}"
    if path is not None:
        try:
            blob = Path(path).read_bytes()
        except OSError as err:
            raise ConfigError([f"cannot read config file {path!r}: {err}"]) from err
        try:
            raw = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ConfigError([f"config file {path!r} is not valid JSON: {err}"]) from err
    if isinstance(raw, dict) and overrides:
        raw = dict(raw)
        raw.update(overrides)
    settings = _validate_config(raw, kind, problems)
    if problems.items:
        raise ConfigError(problems.items)
    digest = hashlib.sha256(blob).hexdigest()
    return ExperimentConfig(kind=settings["kind"], settings=settings,
                            source=None if path is None else os.fspath(path), digest=digest)


# --------------------------------------------------------------------------
# builders (config -> library objects)


def _build_grid(settings) -> Grid1D:
    g = settings["grid"]
    return Grid1D(g["lower"], g["upper"], g["points"])


def _build_grid2(settings) -> Grid2D:
    axis = _build_grid(settings)
    return Grid2D(axis, axis)


def _build_density(spec: dict, grid) -> GridDensity:
    if spec["shape"] == "gaussian":
        return gaussian_density(grid, spec["mean"], spec["std"])
    if spec["shape"] == "mixture":
        return gaussian_mixture_density(grid, spec["means"], spec["stds"], spec["weights"])
    return gaussian2d_density(grid, tuple(spec["mean"]), np.asarray(spec["cov"]))


def _build_family(spec: dict, grid):
    if spec["kind"] == "two-stage":
        return GibbsFamily()
    if spec["proposal"] == "random-walk":
        proposal = ProposalKernel.random_walk(spec["sigma"], grid)
    else:
        proposal = ProposalKernel.independence(_build_density(spec["base"], grid))
    bal = spec["balancing"]
    if isinstance(bal, dict):
        balancing = BalancingFunction.polynomial(bal["exponent"])
    elif bal == "min-one":
        balancing = BalancingFunction.min_one()
    else:
        balancing = BalancingFunction.barker()
    return HastingsFamily(proposal, balancing)


def _build_weight(spec: dict) -> WeightFunction:
    if spec["kind"] == "exp-abs":
        return WeightFunction.exp_abs(spec["rate"])
    return WeightFunction.one_plus_square()


def _build_start(spec: dict, grid):
    if "point" in spec:
        pt = spec["point"]
        return tuple(pt) if isinstance(pt, list) else pt
    return _build_density(spec["density"], grid)


def _function_values(tag: str, grid) -> np.ndarray:
    if tag == "cos2d-mix":
        n1 = grid.axis1.nodes
        n2 = grid.axis2.nodes
        return np.cos(0.6 * n1)[:, None] * np.tanh(n2)[None, :] + 0.25 * n1[:, None]
    return _function_callable(tag, grid)(grid.nodes)


def _function_callable(tag: str, grid: Grid1D) -> Callable[[np.ndarray], np.ndarray]:
    if tag == "cos-tanh":
        return lambda x: np.cos(0.8 * np.asarray(x)) + 0.3 * np.tanh(x)
    lower, upper = grid.lower, grid.upper
    return lambda x: np.clip(x, lower, upper)


# --------------------------------------------------------------------------
# run plumbing


class _StageFailure(RuntimeError):
    """A library routine raised; remembers where so the message has context."""

    def __init__(self, kind: str, stage: str, err: BaseException):
        super().__init__(f"[{kind}/{stage}] {type(err).__name__}: {err}")
        self.kind = kind
        self.stage = stage


@contextmanager
def _stage(kind: str, stage: str):
    try:
        yield
    except _StageFailure:
        raise
    except Exception as err:
        raise _StageFailure(kind, stage, err) from err


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, header: List[str], rows) -> None:
    """Write ``rows`` of Python numbers (``tolist()`` values, not numpy scalars)
    under ``header``; the csv module writes a float as its repr, as
    :func:`_write_chain_csv` does."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _check_row(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _residual_row(name, value, bound) -> dict:
    return _check_row(name, value <= bound, f"residual {value:.3e} (tolerance {bound:.1e})")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --------------------------------------------------------------------------
# experiment handlers; each returns (checks, report payload, files written)


def _curve_inputs(kind, settings):
    """Grid, family, target, direction, start and, for the kinds that take a
    ``function``, its node values: the inputs of the three curve kinds."""
    two_stage = settings["family"]["kind"] == "two-stage"
    with _stage(kind, "build-inputs"):
        grid = _build_grid2(settings) if two_stage else _build_grid(settings)
        family = _build_family(settings["family"], grid)
        mu = _build_density(settings["target"], grid)
        nu = _build_density(settings["direction"], grid)
        start = _build_start(settings["start"], grid)
        f_values = (_function_values(settings["function"], grid)
                    if "function" in settings else None)
    return grid, family, mu, nu, start, f_values


def _model_inputs(kind, settings):
    """Family, the packaged model on the grid and, for the kinds that take a
    ``function``, its callable: the inputs of the four model kinds."""
    with _stage(kind, "build-inputs"):
        grid = _build_grid(settings)
        family = _build_family(settings["family"], grid)
        model = default_ssm_model(grid, phi_bar=settings["model"]["phi_bar"])
        f = (_function_callable(settings["function"], grid)
             if "function" in settings else None)
    return family, model, f


def _level_reports(runs):
    """One report entry per level of a chain run."""
    return [
        {"level": i + 1, "descriptor": run.kernel_descriptor,
         "acceptance_rate": run.acceptance_rate,
         "truncation_events": run.truncation_events,
         "mean_state": float(np.mean(run.states))}
        for i, run in enumerate(runs)
    ]


def _write_d1_statistics(out_dir: Path, checkpoints, sup_stats, v_stats) -> Path:
    path = out_dir / "d1_statistics.csv"
    _write_csv(path, ["checkpoint", "sup_stat", "v_stat"],
               zip(checkpoints.tolist(), sup_stats.tolist(), v_stats.tolist()))
    return path


def _write_chain_csv(path: Path, runs) -> None:
    """chains.csv: the bytes :func:`_write_csv` gives the rows ``(level,
    step, state)``, written a string per ``CSV_BLOCK`` steps.  Each run of
    consecutive states with the same float64 bits (so -0.0 is not 0.0) takes
    its repr once."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("level,step,state\n")
        for level, run in enumerate(runs, start=1):
            head = "%d," % level
            for k0 in range(0, run.states.size, CSV_BLOCK):
                block = run.states[k0:k0 + CSV_BLOCK]
                new = np.concatenate(([True], np.diff(block.view(np.int64)) != 0))
                tails = [",%r\n" % v for v in block[new].tolist()]
                fh.write("".join([head + str(k) + tails[i] for k, i in zip(
                    range(k0 + 1, k0 + 1 + block.size), (np.cumsum(new) - 1).tolist())]))


def _invariance_checks(kind, settings, family, model, out):
    """Level-1 invariance row; ``invariance_target`` swaps in the claimed law."""
    with _stage(kind, "invariance"):
        kern = family.at(model.flow(1))
        claimed_spec = settings.get("invariance_target")
        if claimed_spec is not None:
            candidate = _build_density(claimed_spec, kern.grid)
            residual = check_invariance(kern, candidate=candidate)
            detail = "claimed target vs chain law: residual %.3e (tolerance %.1e)"
        else:
            residual = check_invariance(kern)
            detail = "chain target fixed-point residual %.3e (tolerance %.1e)"
        bound = settings["tolerance"]["invariance"]
        out["invariance_residual"] = float(residual)
        return [_check_row("level-1-invariance", residual <= bound,
                           detail % (residual, bound))]


def _run_derivative_check(settings, out_dir: Path):
    kind = "derivative-check"
    two_stage = settings["family"]["kind"] == "two-stage"
    tol = settings["tolerance"]
    grid, family, mu, nu, start, f_values = _curve_inputs(kind, settings)
    with _stage(kind, "build-inputs"):
        kern = family.at(mu)

    checks = []
    report = {}
    if not two_stage:
        with _stage(kind, "invariance"):
            residual = check_invariance(kern)
            report["invariance_residual"] = float(residual)
            checks.append(_residual_row("target-invariance", residual, tol["invariance"]))

    with _stage(kind, "analytic-derivative"):
        deriv = derivative_for_start(kern, start, f_values)
        analytic = deriv.action(SignedGridFunction.difference(nu, mu))
        centering = deriv.centering_residual()
    with _stage(kind, "difference-oracle"):
        oracle = fd_directional_derivative(family, mu, nu, start, f_values)
    rel_gap = abs(analytic - oracle.estimate) / max(1.0, abs(oracle.estimate))
    checks.append(_check_row("oracle-converged", oracle.converged,
                             f"halving spread {oracle.spread:.3e}"))
    checks.append(_check_row("analytic-vs-oracle", rel_gap <= tol["derivative_rel"],
                             f"relative gap {rel_gap:.3e} (tolerance {tol['derivative_rel']:.1e})"))
    checks.append(_residual_row("centering", centering, tol["centering"]))

    with _stage(kind, "generator-identity"):
        # f - P f by applying the kernel, independently of the derivative formulas
        direct = f_values - kern.apply_to_function(f_values)
        gen_gap = float(np.max(np.abs(generator_function(kern, f_values) - direct)))
    checks.append(_residual_row("generator-identity", gen_gap, tol["generator"]))

    report.update({
        "analytic_action": float(analytic),
        "oracle_estimate": float(oracle.estimate),
        "oracle_spread": float(oracle.spread),
        "relative_gap": float(rel_gap),
        "centering_residual": float(centering),
        "generator_gap": gen_gap,
        "start_kind": _start_kind(start),
    })

    files = {}
    if not two_stage and deriv.density_part is not None:
        with _stage(kind, "write-artifacts"):
            path = out_dir / "derivative_density.csv"
            _write_csv(path, ["node", "density"],
                       zip(grid.nodes.tolist(),
                           np.asarray(deriv.density_part, dtype=float).tolist()))
            files["derivative_density"] = path
    return checks, report, files


def _run_ftc_check(settings, out_dir: Path):
    kind = "ftc-check"
    tol = settings["tolerance"]
    grid, family, mu, nu, start, f_values = _curve_inputs(kind, settings)

    start_kind = _start_kind(start)
    bound = tol["residual"]
    if bound is None:
        bound = 1e-5 if start_kind == "point" else 1e-6

    t_nodes = settings["t_nodes"]
    with _stage(kind, "fine-integration"):
        fine = verify_ftc(family, mu, nu, start, f_values, t_nodes=t_nodes)
    coarse_nodes = max(5, (t_nodes + 1) // 2)
    if coarse_nodes % 2 == 0:
        coarse_nodes += 1
    with _stage(kind, "coarse-integration"):
        coarse = verify_ftc(family, mu, nu, start, f_values, t_nodes=coarse_nodes,
                            reuse=fine)

    factor = tol["refinement_factor"]
    refined = (fine.residual <= _REFINEMENT_FLOOR
               or fine.residual * factor <= coarse.residual)
    checks = [
        _residual_row("endpoint-vs-integral", fine.residual, bound),
        _check_row("residual-refines", refined,
                   f"{coarse_nodes} nodes: {coarse.residual:.3e} -> "
                   f"{t_nodes} nodes: {fine.residual:.3e} (factor {factor:g})"),
    ]
    report = {
        "lhs": float(fine.lhs),
        "rhs": float(fine.rhs),
        "residual": float(fine.residual),
        "coarse_residual": float(coarse.residual),
        "t_nodes": t_nodes,
        "coarse_nodes": coarse_nodes,
        "start_kind": start_kind,
        "residual_bound": float(bound),
    }
    with _stage(kind, "write-artifacts"):
        path = out_dir / "ftc_actions.csv"
        ts = np.linspace(0.0, 1.0, t_nodes)
        _write_csv(path, ["t", "action"], zip(ts.tolist(), fine.node_actions.tolist()))
    return checks, report, {"ftc_actions": path}


def _run_mvi_check(settings, out_dir: Path):
    kind = "mvi-check"
    grid, family, mu, nu, start, _ = _curve_inputs(kind, settings)
    with _stage(kind, "build-inputs"):
        weight = _build_weight(settings["weight"])

    with _stage(kind, "bounding-constants"):
        constants = mvi_constants(family, mu, nu, start, weight)
    with _stage(kind, "randomized-trials"):
        result = empirical_mvi_check(family, mu, nu, start, weight, constants,
                                     n_trials=settings["trials"], seed=settings["seed"])

    checks = [
        _check_row("no-violations", result["violations"] == 0,
                   "%d violations in %d trials; worst ratio %.4f of bound"
                   % (result["violations"], result["n_trials"], result["max_ratio"])),
    ]
    report = {
        "m_start": float(constants.m_rho),
        "m_perpendicular": float(constants.m_perp),
        "weight": constants.v_tag,
        "trials": int(result["n_trials"]),
        "violations": int(result["violations"]),
        "max_ratio": float(result["max_ratio"]),
        "worst_lhs": float(result["worst_lhs"]),
        "bound_sample": float(result["bound"]),
    }
    return checks, report, {}


def _sample_sets(family, model, seed: int, count: int, steps: int) -> list:
    """The samples of ``count`` one-level chains of ``steps`` steps, each on
    its own stream spawned from ``seed``, in order.  The chains run in
    contiguous shards in forked workers
    (:func:`~mcmccalc.workers.run_forked`)."""
    children = np.random.SeedSequence(seed).spawn(count)

    def chains(lo: int, hi: int) -> list:
        return [run_smcmc(family, model, 1, steps, seed=child)[0][1] for child in children[lo:hi]]

    return [empirical for part in run_forked(chains, shards(count, worker_count(count)))
            for empirical in part]


def _run_ergodicity_check(settings, out_dir: Path):
    kind = "ergodicity-check"
    tol = settings["tolerance"]
    family, model, f = _model_inputs(kind, settings)
    f_values = f(model.grid.nodes)

    with _stage(kind, "sample-mixtures"):
        mixtures = [model.transform(1, empirical) for empirical in _sample_sets(
            family, model, settings["seed"], settings["sample_sets"], settings["chain_steps"])]

    gamma = 2.0 * model.phi_bar
    with _stage(kind, "tail-bounds"):
        tails = check_log_concave_tails(mixtures, gamma, gamma)
    with _stage(kind, "drift-certificate"):
        weight = WeightFunction.exp_abs(gamma)
        kernels = [family.at(d) for d in mixtures]
        # one certificate must hold across every sampled target: combine the
        # per-kernel displays (each is dominated by the max-parameter one)
        parts = [find_drift_parameters(k, weight) for k in kernels]
        if None in parts:
            raise PreconditionError(
                "no drift certificate for sampled kernel %d at any scanned rate %s"
                % (parts.index(None), ", ".join(f"{r:g}" for r in DRIFT_RATES))
            )
        cert = check_drift(kernels, weight,
                           max(p.drift_rate for p in parts),
                           max(p.b for p in parts) + 1e-9,
                           max(p.d for p in parts),
                           j=max(p.j for p in parts))
        del kernels[1:]  # only the first is read below: free the others' matrices
    with _stage(kind, "geometric-rate"):
        rate = estimate_geometric_rate(kernels[0], (-3.0, 0.0, 3.0), 40, weight)
    with _stage(kind, "poisson-equation"):
        centered = f_values - mixtures[0].expect(f_values)
        table = poisson_resolvent(kernels[0], centered)
    with _stage(kind, "resolvent-identity"):
        identity = check_resolvent_identity(family, mixtures[0], mixtures[1], f_values)

    checks = [
        _check_row("log-concave-tails", all(tails.passed_each),
                   "%d/%d sampled mixtures; worst violation %.3e"
                   % (sum(tails.passed_each), tails.n_checked, tails.worst_violation)),
        _check_row("drift-certificate", cert.passed,
                   cert.describe() if not cert.passed else
                   "rate %.2f, b=%.3g, d=%.3g, kappa=%.3g across %d kernels"
                   % (cert.drift_rate, cert.b, cert.d, cert.kappa, cert.n_kernels)),
        _check_row("geometric-rate", rate.passed,
                   "beta %.4f, C %.3g, r^2 %.4f" % (rate.beta_est, rate.c_est, rate.r_squared)),
        _residual_row("poisson-equation", table.poisson_residual, tol["poisson"]),
        _residual_row("resolvent-identity", identity["residual"], tol["identity"]),
    ]
    report = {
        "sample_sets": settings["sample_sets"],
        "chain_steps": settings["chain_steps"],
        "gamma": gamma,
        "tails_passed": int(sum(tails.passed_each)),
        "worst_tail_violation": float(tails.worst_violation),
        "drift_margin": float(cert.margin) if cert.passed else None,
        "rate_beta": float(rate.beta_est),
        "rate_c": float(rate.c_est),
        "poisson_residual": float(table.poisson_residual),
        "resolvent_truncation": int(table.truncation_k),
        "identity_residual": float(identity["residual"]),
    }
    files = {}
    with _stage(kind, "write-artifacts"):
        if cert.passed:
            cert_path = out_dir / "certificate.json"
            _write_json(cert_path, {
                "V_tag": weight.description,
                "drift_rate": cert.drift_rate,
                "b": cert.b,
                "d": cert.d,
                "j": cert.j,
                "kappa": cert.kappa,
                "beta_est": rate.beta_est,
                "C_est": rate.c_est,
            })
            files["certificate"] = cert_path
        res_path = out_dir / "resolvent.csv"
        table.write_csv(res_path)
        files["resolvent"] = res_path
    return checks, report, files


def _run_smcmc(settings, out_dir: Path):
    kind = "smcmc-run"
    family, model, _ = _model_inputs(kind, settings)
    with _stage(kind, "run-chains"):
        levels = run_smcmc(family, model, settings["depth"], settings["steps"],
                           seed=settings["seed"], x0=settings["x0"],
                           level_init=settings["level_init"])
    runs = [run for run, _ in levels]

    report = {"levels": _level_reports(runs)}
    checks = _invariance_checks(kind, settings, family, model, report)
    finite = all(np.all(np.isfinite(run.states)) for run in runs)
    checks.append(_check_row("states-finite", finite,
                             "%d levels x %d steps" % (len(runs), settings["steps"])))

    with _stage(kind, "write-artifacts"):
        path = out_dir / "chains.csv"
        _write_chain_csv(path, runs)
    return checks, report, {"chains": path}


def _run_imcmc(settings, out_dir: Path):
    kind = "imcmc-run"
    family, model, _ = _model_inputs(kind, settings)
    with _stage(kind, "build-inputs"):
        weight = _build_weight(settings["weight"])
    with _stage(kind, "run-chains"):
        runs, trace = run_imcmc(family, model, settings["depth"], settings["steps"],
                                seed=settings["seed"], x0=settings["x0"],
                                trace_weight=weight)

    report = {"levels": _level_reports(runs)}
    checks = _invariance_checks(kind, settings, family, model, report)
    if settings["depth"] >= 2:
        with _stage(kind, "adaptation-diagnostics"):
            adaptation = check_adaptation_conditions(trace)
        checks.append(_check_row(
            "adaptation-diagnostics", adaptation.passed,
            "partial-sum slopes %.3f / %.3f (negative means the running mixture settles)"
            % (adaptation.slope_sup, adaptation.slope_v)))
        report["adaptation"] = {
            "slope_sup": adaptation.slope_sup,
            "slope_v": adaptation.slope_v,
            "scan_max_m_x": adaptation.scan_max_m_x,
            "scan_all_finite": adaptation.scan_all_finite,
        }

    files = {}
    with _stage(kind, "write-artifacts"):
        path = out_dir / "chains.csv"
        _write_chain_csv(path, runs)
        files["chains"] = path
        if settings["depth"] >= 2:
            files["d1_statistics"] = _write_d1_statistics(
                out_dir, adaptation.checkpoints, adaptation.d1_sup_stats,
                adaptation.d1_v_stats)
    return checks, report, files


def _run_clt_report(settings, out_dir: Path):
    kind = "clt-report"
    tol = settings["tolerance"]
    family, model, f = _model_inputs(kind, settings)
    with _stage(kind, "build-inputs"):
        config = SchemeConfig(family=family, model=model,
                              p_levels=settings["depth"], x0=settings["x0"],
                              level_init=settings["level_init"],
                              alpha=settings["alpha"],
                              batch_count=settings["batch_count"])
    with _stage(kind, "replicated-runs"):
        rep = clt_experiment(settings["scheme"], config, f,
                             settings["steps"], settings["replications"],
                             settings["seed"])

    sigma2 = rep.asymptotic_variance_poisson
    ratio_random = rep.replication_variance / sigma2
    ratio_det = rep.replication_variance_deterministic / rep.predicted_variance_deterministic
    skew, kurt, ks = rep.normality_stats
    checks = [
        _check_row("replication-variance",
                   abs(ratio_random - 1.0) <= tol["variance_rel"],
                   f"measured/predicted {ratio_random:.4f} (tolerance +-{tol['variance_rel']:.0%})"),
        _check_row("deterministic-variance",
                   abs(ratio_det - 1.0) <= tol["variance_rel"],
                   f"measured/predicted {ratio_det:.4f} (tolerance +-{tol['variance_rel']:.0%})"),
        _check_row("skewness", abs(skew) <= tol["skew"],
                   f"|{skew:.4f}| <= {tol['skew']:g}"),
        _check_row("excess-kurtosis", abs(kurt) <= tol["excess_kurtosis"],
                   f"|{kurt:.4f}| <= {tol['excess_kurtosis']:g}"),
        _check_row("normality-distance", ks < tol["ks"],
                   f"{ks:.4f} < {tol['ks']:g}"),
    ]
    if rep.d1_sup_stats is not None:
        final = float(rep.d1_sup_stats[-1])
        peak = float(np.max(rep.d1_sup_stats))
        checks.append(_check_row("d1-partial-sums-trend", final < peak,
                                 f"final {final:.4f} vs peak {peak:.4f}"))

    report = {
        "scheme": rep.scheme,
        "depth": rep.depth,
        "steps": rep.n_steps,
        "replications": rep.replications,
        "estimate": rep.estimate,
        "asymptotic_variance_poisson": sigma2,
        "asymptotic_variance_batchmeans": rep.asymptotic_variance_batchmeans,
        "replication_variance": rep.replication_variance,
        "replication_variance_deterministic": rep.replication_variance_deterministic,
        "predicted_variance_deterministic": rep.predicted_variance_deterministic,
        "extra_variance": rep.extra_variance,
        "normality": {"skew": skew, "excess_kurtosis": kurt, "ks_distance": ks},
        "normality_deterministic": {
            "skew": rep.normality_stats_deterministic[0],
            "excess_kurtosis": rep.normality_stats_deterministic[1],
            "ks_distance": rep.normality_stats_deterministic[2],
        },
        "fractional_norm": rep.f_fractional_norm,
        "fractional_exponent": rep.fractional_exponent,
    }
    files = {}
    if rep.d1_sup_stats is not None:
        with _stage(kind, "write-artifacts"):
            files["d1_statistics"] = _write_d1_statistics(
                out_dir, rep.d1_checkpoints, rep.d1_sup_stats, rep.d1_v_stats)
    return checks, report, files


_HANDLERS = {
    "derivative-check": _run_derivative_check,
    "ftc-check": _run_ftc_check,
    "mvi-check": _run_mvi_check,
    "ergodicity-check": _run_ergodicity_check,
    "smcmc-run": _run_smcmc,
    "imcmc-run": _run_imcmc,
    "clt-report": _run_clt_report,
}


def _resolve_out_dir(config: ExperimentConfig, flag_value: Optional[str]) -> Path:
    if flag_value:
        return Path(flag_value)
    configured = config.settings.get("output_dir")
    if configured:
        return Path(configured)
    env = os.environ.get("MCMCCALC_OUT_DIR")
    if env:
        return Path(env)
    return Path("mcmccalc-out")


def run_experiment(config: ExperimentConfig, out_dir: Optional[str] = None) -> int:
    """Run one validated experiment; write reports and a manifest.

    Returns the process exit code: 0 when every configured check passed,
    1 otherwise.  Library and I/O failures (an output directory that cannot
    be created, a file that cannot be written) propagate as exceptions that
    carry the experiment kind and stage in their message.
    """

    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    out = _resolve_out_dir(config, out_dir)
    with _stage(config.kind, "write-artifacts"):
        out.mkdir(parents=True, exist_ok=True)

    checks, report, files = _HANDLERS[config.kind](config.settings, out)

    report_path = out / (config.kind.replace("-", "_") + "_report.json")
    payload = {"kind": config.kind, "settings": config.settings,
               "checks": checks, **report}
    with _stage(config.kind, "write-artifacts"):
        _write_json(report_path, payload)
    files = {"report": report_path, **files}

    exit_code = 0 if all(row["passed"] for row in checks) else 1
    manifest = {
        "artifact_version": __version__,
        "kind": config.kind,
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config_source": config.source,
        "config_digest": config.digest,
        "settings": config.settings,
        "seed": config.settings["seed"],
        "checks": checks,
        "all_passed": exit_code == 0,
        "exit_code": exit_code,
        "outputs": {name: {"path": path.name, "sha256": _sha256(path)}
                    for name, path in sorted(files.items())},
    }
    with _stage(config.kind, "write-artifacts"):
        _write_json(out / "manifest.json", manifest)
    return exit_code


# --------------------------------------------------------------------------
# argument parsing


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="mcmccalc",
        description="Grid-based sanity checks and chain experiments for "
                    "target-derivative calculus.",
    )
    parser.add_argument("--version", action="version", version=f"mcmccalc {__version__}")
    sub = parser.add_subparsers(dest="kind", required=True, metavar="KIND")
    help_lines = {
        "derivative-check": "compare the analytic target-derivative with a finite-difference oracle",
        "ftc-check": "integrate the derivative along a contamination path and compare endpoints",
        "mvi-check": "randomized mean-value inequality trials",
        "ergodicity-check": "tail, drift, rate and resolvent certificates on the packaged model",
        "smcmc-run": "sequential multilevel chain with CSV trace",
        "imcmc-run": "interacting multilevel chain with adaptation diagnostics",
        "clt-report": "replicated fluctuation experiment with normality gates",
    }
    for kind in KINDS:
        p = sub.add_parser(kind, help=help_lines[kind])
        p.add_argument("--config", metavar="FILE",
                       help="JSON config (omit to run the documented defaults)")
        p.add_argument("--seed", type=int, metavar="N", help="override the config seed")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (overrides config and MCMCCALC_OUT_DIR)")
        if kind == "clt-report":
            p.add_argument("--reps", type=int, metavar="N",
                           help="override the replication count")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "reps", None) is not None:
        overrides["replications"] = args.reps
    try:
        config = load_config(args.config, kind=args.kind, overrides=overrides)
    except ConfigError as err:
        for problem in err.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    try:
        return run_experiment(config, out_dir=args.out)
    except _StageFailure as err:
        print(f"error {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
