"""mcmccalc benchmark: runs one workload for a fixed time and reports on it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

A run repeats passes over the workload's experiments (see workloads.py) for
about S seconds, at least twice, so each run also checks that the same
configs give the same outputs.  Each experiment runs in a fresh interpreter
with ``MCMCCALC_THREADS`` pinned to the thread count references.json was
made at (outputs are byte-stable only at a fixed thread count).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics: ``setup_s`` (median over processes of importing
``mcmccalc.cli`` and loading the workload's configs), ``wall_s`` (median over
passes of the experiments' run time after set-up), both at the reference
speed of worker.py, and ``peak_rss_mb`` (median over passes of the largest
resident set of a pass's processes).
``attempted``/``failed`` count experiments; guard.py says when one fails.

With ``--trace 1`` it alternates untraced and traced passes, adds one traced
pass at ``MCMCCALC_THREADS=1``, and reports the per-layer metrics of
tracer.py, with times as measured (no speed sampling), including the tracing overhead and the share of self time held by
the layers the workload is designed to load.  A human summary of every run,
with ``error_rate`` and the recorded CLT gates, goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import guard
import tracer
from worker import REFERENCE_SPIN_S
from workloads import WORKLOADS, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
BENCHMARK = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_runs"

NPROC = len(os.sched_getaffinity(0))
# Every process a run starts must have ended this long after --seconds: room
# for the pass that overruns, the single-threaded pass and a slow machine.
DEADLINE_SLACK_S = 145.0
# The traced time must equal the layer self times plus un-spanned time.
BALANCE_TOL_S = 1e-6


def worker_env(threads: int) -> dict:
    """Environment of an mcmccalc process: this checkout's sources, and a
    thread cap that only ``MCMCCALC_THREADS`` sets."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "MCMCCALC_OUT_DIR")}
    env.update(PYTHONPATH=str(SRC), MCMCCALC_THREADS=str(threads))
    return env


class BenchmarkError(RuntimeError):
    """The run cannot produce a result."""


class Workload:
    """One benchmark run of one workload: its configs, passes and verdicts."""

    def __init__(self, name: str, seed: int, work_dir: Path, references: dict,
                 seconds: float = 0.0, sample: bool = False):
        self.name = name
        self.sample = sample
        self.seed = seed
        self.work_dir = work_dir
        self.configs = [(kind, str(path)) for kind, path in
                        write_configs(name, seed, work_dir / "configs")]
        slot = references["workloads"][name].get(str(seed % references["slots"]), {})
        self.references = [slot.get(f"{index}-{kind}")
                           for index, (kind, _) in enumerate(self.configs)]
        self.threads = references["threads"]
        self.first = [None] * len(self.configs)
        self.started = perf_counter()
        self.deadline_s = seconds + DEADLINE_SLACK_S
        self.passes = 0

    def run_pass(self, trace: bool, threads: int | None = None) -> list:
        """Run every experiment once, in order; return the worker results.

        Outputs are byte-stable only at a fixed thread count, so a pass at
        another count is checked for failures but not compared with the
        references or with earlier passes.
        """
        threads = self.threads if threads is None else threads
        pinned = threads == self.threads
        self.passes += 1
        env = worker_env(threads)
        results = []
        for index, (kind, _) in enumerate(self.configs):
            tag = f"p{self.passes}-{index}"
            out = self.work_dir / tag
            job = {"src": str(SRC), "configs": [path for _, path in self.configs],
                   "index": index, "out": str(out), "trace": trace,
                   "sample": self.sample,
                   "run_id": f"{self.name}/{self.seed}/{tag}",
                   "result": str(self.work_dir / f"{tag}.result.json")}
            job_path = self.work_dir / f"{tag}.job.json"
            job_path.write_text(json.dumps(job), encoding="utf-8")
            res = self._spawn(job, job_path, env)
            res["kind"] = kind
            d = None
            if res.get("exit_code") in (0, 1) and res.get("error") is None:
                try:
                    d = guard.digest(out, kind)
                except (OSError, ValueError, KeyError) as err:
                    res["error"] = f"unreadable report: {err}"
            res["problems"] = guard.problems(
                res.get("exit_code"), res.get("error"), d,
                self.references[index] if pinned else None,
                self.first[index] if pinned else None)
            res["gates"] = guard.failed_gates(d)
            if pinned and self.first[index] is None and d is not None:
                self.first[index] = d
            res["digest"] = d
            shutil.rmtree(out, ignore_errors=True)
            results.append(res)
        return results

    def _spawn(self, job, job_path, env) -> dict:
        remaining = self.deadline_s - (perf_counter() - self.started)
        if remaining <= 0:
            raise BenchmarkError("out of time before starting an experiment")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                                  env=env, cwd=str(ROOT), stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=remaining)
        except subprocess.TimeoutExpired as err:
            raise BenchmarkError("an experiment outran the deadline") from err
        result_path = Path(job["result"])
        if proc.returncode != 0 or not result_path.is_file():
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
            return {"exit_code": None,
                    "error": f"worker exit {proc.returncode}: {' | '.join(tail)}"}
        return json.loads(result_path.read_text(encoding="utf-8"))

    def elapsed(self) -> float:
        return perf_counter() - self.started


def _keep_going(workload: Workload, seconds: float, done: int) -> bool:
    """Another pass while the expected finish is nearer to ``seconds`` than not."""
    return done < 2 or workload.elapsed() * (1.0 + 0.5 / done) < seconds


def end_to_end(passes: list) -> dict:
    """Set-up is per process; wall time and peak memory are per pass.  An
    experiment whose process died counts as taking no time; it also fails."""
    workers = [w for p in passes for w in p if "setup_s" in w]
    if not workers:
        raise BenchmarkError("no experiment got through set-up")
    return {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "wall_s": statistics.median(sum(w.get("wall_s", 0.0) for w in p) for p in passes),
        "peak_rss_mb": statistics.median(max(w.get("peak_rss_mb", 0.0) for w in p)
                                         for p in passes),
    }


def run_untraced(workload: Workload, seconds: float):
    passes = []
    while _keep_going(workload, seconds, len(passes)):
        passes.append(workload.run_pass(trace=False))
    return passes, end_to_end(passes), []


def run_traced(workload: Workload, seconds: float):
    untraced, traced = [], []
    while _keep_going(workload, seconds, len(untraced) + len(traced)):
        if len(traced) < len(untraced):
            traced.append(workload.run_pass(trace=True))
        else:
            untraced.append(workload.run_pass(trace=False))
    single = workload.run_pass(trace=True, threads=1)
    design = WORKLOADS[workload.name]["layers"]

    faults = []
    ok = [p for p in traced if all("spans" in w and "run_end" in w for w in p)]
    layers = [tracer.pass_metrics(p, design) for p in ok]
    if not layers:
        raise BenchmarkError("no traced pass completed")
    # median_low: every value is one pass's, so counts stay exact integers
    metrics = {key: statistics.median_low(m[key] for m in layers) for key in layers[0]}
    for m in layers:
        if abs(m["trace.balance_residual_s"]) > BALANCE_TOL_S:
            faults.append("layer self times + un-spanned time miss the traced wall "
                          "time by %.3g s" % m["trace.balance_residual_s"])
    untraced_wall = end_to_end(untraced)["wall_s"]
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    metrics["threads1.wall_s"] = sum(w.get("wall_s", 0.0) for w in single)
    return untraced + traced + [single], metrics, faults


def run_workload(name: str, seed: int, seconds: float, trace: bool, references: dict,
                 units: dict):
    work_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        workload = Workload(name, seed, work_dir, references, seconds, sample=not trace)
        if None in workload.references:
            raise BenchmarkError(f"references.json has no outputs for {name} at seed {seed}")
        passes, metrics, faults = (run_traced if trace else run_untraced)(workload, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    workers = [w for p in passes for w in p]
    failed = [w for w in workers if w["problems"]]
    for w in failed:
        print(f"{name}: {w['kind']} failed: {'; '.join(w['problems'])}", file=sys.stderr)
    for fault in faults:
        print(f"{name}: {fault}", file=sys.stderr)
    if set(metrics) != set(units):
        raise BenchmarkError("metrics differ from BENCHMARK.json: %s"
                             % sorted(set(metrics) ^ set(units)))
    result = {
        "correct": not failed and not faults,
        "attempted": len(workers),
        "failed": len(failed),
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in metrics},
    }
    _summarise(name, result, passes, trace, metrics)
    return result


def _summarise(name, result, passes, trace, metrics) -> None:
    workers = [w for p in passes for w in p]
    rate = result["failed"] / result["attempted"]
    parts = [f"{key} {m['value']:.6g} {m['unit']}" for key, m in result["metrics"].items()
             if not trace or key.startswith("trace.") or key.endswith("self_s")]
    sampled = [p for p in passes if all("spin_s" in w for w in p)]
    if sampled:
        parts.append("as measured: setup %.6g s, wall %.6g s, one spin %.4g us (reference %.4g)"
                     % (statistics.median(w["setup_raw_s"] for p in sampled for w in p),
                        statistics.median(sum(w["wall_raw_s"] for w in p) for p in sampled),
                        1e6 * statistics.median(w["spin_s"] for p in sampled for w in p),
                        1e6 * REFERENCE_SPIN_S))
    print(f"{name}: " + ", ".join(parts)
          + f", error_rate {rate:.6g} ({result['failed']}/{result['attempted']})",
          file=sys.stderr)
    gates = sorted({g for w in workers for g in w.get("gates", [])})
    if gates:
        print(f"{name}: statistical gates failed at this reduced length (recorded, "
              f"not counted): {', '.join(gates)}", file=sys.stderr)
    if trace:
        share = metrics["trace.design_share"]
        verdict = "isolates" if share > 0.5 else "does NOT isolate"
        print(f"{name}: {verdict} its designed layers "
              f"{'+'.join(WORKLOADS[name]['layers'])}: {share:.1%} of layer self time",
              file=sys.stderr)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mcmccalc" / "__init__.py").is_file():
        print(f"no mcmccalc sources under {SRC}", file=sys.stderr)
        return 2
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    if references["threads"] != NPROC:
        print(f"note: MCMCCALC_THREADS is pinned to {references['threads']}, the count "
              f"references.json was made at; {NPROC} processors are usable here",
              file=sys.stderr)
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         references, units)
    except BenchmarkError as err:
        print(f"benchmark stopped: {err}", file=sys.stderr)
        return 3
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        for name, res in results.items():
            for key, m in res["metrics"].items():
                print(f"{name} {key} {m['value']:.6g} {m['unit']}")
            print(f"{name} error_rate {res['failed'] / res['attempted']:.6g} ratio")
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": m for name, r in results.items()
                        for key, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
