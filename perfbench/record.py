"""Write perfbench/record.json: the machine, the traced split and the
reference protocol, as context for the benchmark's numbers.

Usage (from the root of a checkout): python3 perfbench/record.py

* machine: CPU model, usable processors, L2/L3 sizes, the Python, numpy,
  scipy and OpenBLAS versions, and the pinned MCMCCALC_THREADS;
* traced split: one traced run of every workload (``run.py --trace 1`` for
  the ``run_seconds`` of BENCHMARK.json; it includes the single-threaded
  pass) with each layer's share of the self time, checked against the
  layers the workload is designed to load;
* reference protocol: one ``mcmccalc clt-report`` per scheme at the
  documented defaults (200 replications x 10^5 steps), wall time and peak
  RSS.  This is context, not a workload; it takes several minutes.
"""

from __future__ import annotations

import json
import platform
import shutil
import subprocess
import sys
from pathlib import Path

from run import BENCHMARK, NPROC, REFERENCES, ROOT, WORK, worker_env
from tracer import LAYERS
from workloads import WORKLOADS

RECORD = Path(__file__).resolve().parent / "record.json"
_CACHE = Path("/sys/devices/system/cpu/cpu0/cache")
THREADS = json.loads(REFERENCES.read_text(encoding="utf-8"))["threads"]


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(_CACHE.glob("index*")):
        level = (index / "level").read_text().strip()
        if level in ("2", "3"):
            caches[f"l{level}"] = {"size": (index / "size").read_text().strip(),
                                   "shared_cpu_list":
                                       (index / "shared_cpu_list").read_text().strip()}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu,
        "nproc": NPROC,
        "caches_per_cpu0": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "MCMCCALC_THREADS": THREADS,
        "note": "The largest array any workload builds is one dense 1025x1025 "
                "float64 matrix (8.4 MB); every working set fits in L3, so "
                "bytes are computed from array shapes and reported without a "
                "bandwidth ratio.",
    }


def traced_split(seconds: float) -> dict:
    out = {}
    for name, spec in WORKLOADS.items():
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("run.py")),
                               "--workload", name, "--seed", "0", "--seconds",
                               str(seconds), "--trace", "1"],
                              cwd=str(ROOT), capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise RuntimeError(f"traced run of {name} failed: {proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        values = {k: m["value"] for k, m in result["metrics"].items()}
        total = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        share = values["trace.design_share"]
        out[name] = {
            "correct": result["correct"],
            "self_share": {layer: round(values[f"{layer}.self_s"] / total, 4)
                           for layer in LAYERS},
            "designed_layers": list(spec["layers"]),
            "designed_share": round(share, 4),
            "isolates_designed_layers": share > 0.5,
            "traced_wall_s": values["trace.wall_s"],
            "untraced_wall_s": values["trace.untraced_wall_s"],
            "overhead_s": values["trace.overhead_s"],
            "threads1_wall_s": values["threads1.wall_s"],
            "metrics": values,
        }
    return out


def reference_protocol() -> dict:
    out = {}
    for scheme in ("smcmc", "imcmc"):
        directory = WORK / f"protocol-{scheme}"
        directory.mkdir(parents=True, exist_ok=True)
        config = directory / "config.json"
        config.write_text(json.dumps({"kind": "clt-report", "scheme": scheme}))
        # a fresh child per scheme, so RUSAGE_CHILDREN holds only its peak
        code = ("import resource, subprocess, sys, time; t = time.perf_counter(); "
                "rc = subprocess.run([sys.executable, '-m', 'mcmccalc.cli', 'clt-report', "
                "'--config', sys.argv[1], '--out', sys.argv[2]]).returncode; "
                "print(rc, time.perf_counter() - t, "
                "resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)")
        proc = subprocess.run([sys.executable, "-c", code, str(config), str(directory / "out")],
                              env=worker_env(THREADS), cwd=str(ROOT), capture_output=True, text=True)
        shutil.rmtree(directory, ignore_errors=True)
        rc, wall, rss = proc.stdout.split()
        out[scheme] = {"command": f"mcmccalc clt-report --config {{scheme: {scheme}}}",
                       "replications": 200, "steps": 100000, "exit_code": int(rc),
                       "wall_s": float(wall), "peak_rss_mb": float(rss)}
    return out


def main() -> int:
    seconds = json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"]
    record = {"machine": machine(), "traced_split": traced_split(seconds),
              "reference_protocol": reference_protocol()}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
