"""Output guard: decides whether one experiment (one operation) failed.

An operation fails when it raises or exits 2/3, when a deterministic check
row of its report fails, when it misses its stored reference, or when it
differs from the first run of the same config in the same benchmark run.
The CLT statistical gates are recorded but never count: at the reduced
length the benchmark runs, the replication statistics need wider tolerances
than the defaults, which are set for the 10^5-step reference protocol.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Check rows that test a statistic of a finite random run, not an identity.
STATISTICAL_CHECKS = frozenset({
    "replication-variance", "deterministic-variance", "skewness",
    "excess-kurtosis", "normality-distance", "d1-partial-sums-trend",
    "adaptation-diagnostics",
})

# Report numbers must match the reference this closely.  The tightest
# tolerance tier-1 puts on a pinned value is rel=1e-12.
REL_TOL = 1e-12
ABS_TOL = 1e-15


def _flatten(obj, prefix, out) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(obj[key], f"{prefix}{key}.", out)
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            _flatten(value, f"{prefix}{index}.", out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix[:-1]] = obj


def digest(out_dir: Path, kind: str) -> dict:
    """The numbers, check rows and file hashes one experiment produced."""
    report = json.loads((out_dir / (kind.replace("-", "_") + "_report.json"))
                        .read_text(encoding="utf-8"))
    numbers = {}
    _flatten({k: v for k, v in report.items() if k not in ("settings", "checks")},
             "", numbers)
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}
    return {"numbers": numbers,
            "checks": {row["name"]: row["passed"] for row in report["checks"]},
            "files": files}


def reference_entry(d: dict) -> dict:
    """What is stored as the reference: report numbers and chain CSV hashes."""
    return {"numbers": d["numbers"],
            "chains_sha256": d["files"].get("chains.csv")}


def reference_problems(d: dict, reference: dict) -> list:
    found = []
    if d["files"].get("chains.csv") != reference["chains_sha256"]:
        found.append("chains.csv differs from the stored sha256")
    got, want = d["numbers"], reference["numbers"]
    if set(got) != set(want):
        found.append("report fields differ from the reference: %s"
                     % sorted(set(got) ^ set(want)))
    for key in sorted(set(got) & set(want)):
        if not math.isclose(got[key], want[key], rel_tol=REL_TOL, abs_tol=ABS_TOL):
            found.append(f"{key} = {got[key]!r}, reference {want[key]!r}")
    return found


def problems(exit_code, error, d, reference, first) -> list:
    """Why the operation failed; empty when it did not.

    ``d`` is the operation's digest (None when it wrote no report),
    ``reference`` the stored reference for its config and ``first`` the
    digest of the first run of the same config in this benchmark run; either
    is None when there is nothing to compare with.
    """
    if error is not None:
        return [f"raised {error}"]
    if exit_code not in (0, 1):
        return [f"exit code {exit_code}"]
    if d is None:
        return ["no report written"]
    found = [f"check row {name} failed" for name, passed in d["checks"].items()
             if not passed and name not in STATISTICAL_CHECKS]
    if reference is not None:
        found += reference_problems(d, reference)
    if first is not None and (d["numbers"] != first["numbers"] or d["files"] != first["files"]):
        found.append("output differs from an earlier run at the same seed")
    return found


def failed_gates(d) -> list:
    """Statistical gates that failed: recorded, never counted as failures."""
    if d is None:
        return []
    return sorted(name for name, passed in d["checks"].items()
                  if not passed and name in STATISTICAL_CHECKS)
