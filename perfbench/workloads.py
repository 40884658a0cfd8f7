"""The benchmark's workloads and the configs they hand to the library.

Every workload is a closed loop: its experiments run one at a time, each in a
fresh interpreter, and the next starts only when the previous one finished.
The benchmark seed only picks the library seed of each experiment, so the
amount of work, and with it the timings, stays the same from seed to seed.
"""

from __future__ import annotations

import json
from pathlib import Path

# Reference outputs are stored for this many seed slots; benchmark seed s
# uses slot s mod SLOTS, so every run is checked against a stored reference.
SLOTS = 8

# Library default seeds; slot 0 is the documented default of each kind.
_DEFAULT_SEED = {"clt-report": 1234}

_GRID_1025 = {"lower": -8.0, "upper": 8.0, "points": 1025}
# Reduced clt-report length: the reference protocol runs 10^5 steps.
CLT_STEPS = 2000
_CLT = {"depth": 2, "replications": 200, "steps": CLT_STEPS,
        "grid": {"lower": -8.0, "upper": 8.0, "points": 513},
        "function": "clipped-identity"}

# name -> experiments (kind, config overrides), the layers designed to hold
# most of its self time, and why the workload is in the benchmark.
WORKLOADS = {
    "grid-calculus": {
        "experiments": [
            ("derivative-check", {"grid": _GRID_1025}),
            ("ftc-check", {"grid": _GRID_1025}),
            ("mvi-check", {"grid": _GRID_1025}),
            ("ergodicity-check", {"grid": _GRID_1025}),
        ],
        "layers": ("kernels", "derivative", "calculus", "ergodicity"),
        "why": "dense 1025x1025 kernels (8.4 MB each, beyond L2, inside L3): "
               "assembly, kernel applications and resolvent iteration dominate",
    },
    "clt-sequential": {
        "experiments": [("clt-report", dict(_CLT, scheme="smcmc"))],
        "layers": ("feynman_kac", "samplers"),
        "why": "R=200 x N=513 mutation rows and their accumulation into the "
               "next level's mixture table dominate; kernel assembly is negligible",
    },
    "clt-interacting": {
        "experiments": [("clt-report", dict(_CLT, scheme="imcmc"))],
        "layers": ("feynman_kac", "samplers"),
        "why": "same layers as clt-sequential, but each step writes the "
               "per-chain mixture and the next level reads it at 2 points per chain",
    },
    "chain-trace": {
        "experiments": [("smcmc-run", {}), ("imcmc-run", {})],
        "layers": ("samplers", "cli"),
        "why": "R=1 chains: per-step lane dispatch, the CSV writer and the "
               "transform of stored samples, which R x N vectorisation leaves alone",
    },
}


def library_seed(kind: str, seed: int) -> int:
    """The library seed one experiment of ``kind`` gets for benchmark ``seed``."""
    return _DEFAULT_SEED.get(kind, 1) + seed % SLOTS


def configs(workload: str, seed: int) -> list:
    """The workload's configs for benchmark ``seed``: a list of (kind, config)."""
    return [(kind, dict(overrides, kind=kind, seed=library_seed(kind, seed)))
            for kind, overrides in WORKLOADS[workload]["experiments"]]


def write_configs(workload: str, seed: int, directory: Path) -> list:
    """Write the workload's config files; return a list of (kind, path)."""
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for index, (kind, config) in enumerate(configs(workload, seed)):
        path = directory / f"{index}-{kind}.json"
        path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
        written.append((kind, path))
    return written
