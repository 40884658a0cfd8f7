"""Run one mcmccalc experiment in a fresh interpreter and report on it.

Usage: python3 perfbench/worker.py JOB.json

The job file names the workload's config files, which of them to run, the
output directory, whether to trace, whether to sample the machine's speed,
and where to write the result.  Set-up is the import of ``mcmccalc.cli`` plus
``load_config`` for every config of the workload, as a CLI call pays it; wall
time is the ``run_experiment`` call.  Nothing but the standard library is
imported before ``mcmccalc.cli``, so ``MCMCCALC_THREADS`` reaches the BLAS
layer before numpy loads it.

On a shared host the speed of a virtual CPU drifts by tens of percent over
minutes, longer than one benchmark run.  So, when
sampling, ``setup_s`` and ``wall_s`` are given at a fixed reference speed:
every ``SAMPLE_EVERY_S`` of wall time a signal handler, in the experiment's own
thread, times ``SPIN_ITERATIONS`` rounds of a fixed pure-Python loop; the
elapsed time, less the time spent sampling, is scaled by
``REFERENCE_SPIN_S`` over the mean time of one spin in that interval.  The
times as measured are kept as ``setup_raw_s`` and ``wall_raw_s``.
"""

import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

SAMPLE_EVERY_S = 0.01
SPIN_ITERATIONS = 1500
# The reference speed: one spin in 100 us (about what the machine in
# record.json manages; CPython 3.11 on a 2-vCPU Xeon VM).
REFERENCE_SPIN_S = 1e-4


def _spin() -> int:
    total = 0
    for i in range(SPIN_ITERATIONS):
        total += i * i
    return total


class SpeedSampler:
    """Times ``_spin`` every ``SAMPLE_EVERY_S`` of wall time while started."""

    def __init__(self):
        self.spin_s = 0.0
        self.samples = 0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _spin()
        self.spin_s += perf_counter() - start
        self.samples += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def mark(self) -> tuple:
        return perf_counter(), self.spin_s, self.samples


def at_reference_speed(since: tuple, until: tuple) -> float:
    """Elapsed time between two marks, less the time spent sampling, at the
    reference speed."""
    (t0, spin0, n0), (t1, spin1, n1) = since, until
    if n1 == n0:
        raise RuntimeError("no speed sample in the interval")
    spin = spin1 - spin0
    return (t1 - t0 - spin) * REFERENCE_SPIN_S * (n1 - n0) / spin


def run(job: dict) -> dict:
    sampler = SpeedSampler() if job["sample"] else None
    if sampler is not None:
        sampler.start()
        marks = [sampler.mark()]
    started = perf_counter()
    import mcmccalc.cli as cli
    import_s = perf_counter() - started

    src = Path(job["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"imported mcmccalc from {cli.__file__}, not from {src}")

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer(job["run_id"])
        tracer.install()
    result = {"import_s": import_s, "exit_code": None, "error": None}
    try:
        loaded = perf_counter()
        configs = [cli.load_config(path) for path in job["configs"]]
        result["setup_s"] = import_s + perf_counter() - loaded
        if sampler is not None:
            marks.append(sampler.mark())
        result["run_start"] = perf_counter()
        try:
            result["exit_code"] = cli.run_experiment(configs[job["index"]], job["out"])
        except Exception as err:  # reported as a failed operation
            result["exit_code"] = 3
            result["error"] = f"{type(err).__name__}: {err}"
        result["run_end"] = perf_counter()
        if sampler is not None:
            marks.append(sampler.mark())
    finally:
        if tracer is not None:
            tracer.uninstall()
            result.update(tracer.dump())
        if sampler is not None:
            sampler.stop()
    result["wall_s"] = result["run_end"] - result["run_start"]
    if sampler is not None:
        result["setup_raw_s"] = result["setup_s"]
        result["wall_raw_s"] = result["wall_s"]
        result["setup_s"] = at_reference_speed(marks[0], marks[1])
        result["wall_s"] = at_reference_speed(marks[1], marks[2])
        result["spin_s"] = (marks[2][1] - marks[0][1]) / (marks[2][2] - marks[0][2])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = Path(job["out"])
    result["artifact_bytes"] = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
    return result


def main(argv) -> int:
    job_path = Path(argv[1])
    job = json.loads(job_path.read_text(encoding="utf-8"))
    result = run(job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
