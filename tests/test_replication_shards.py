"""Replication shards: the CLT engines split into contiguous blocks of
``MIN_REPLICATIONS`` replications give the bits of one run, the report does
not depend on the number of worker processes, and a forked worker's failure
reaches the caller with no process left behind."""

import dataclasses
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from mcmccalc import samplers, workers
from mcmccalc.errors import DegenerateWeightsError
from mcmccalc.feynman_kac import MutationKernel, default_ssm_model
from mcmccalc.kernels import BalancingFunction, HastingsFamily, ProposalKernel
from mcmccalc.measures import WeightFunction
from mcmccalc.samplers import MIN_REPLICATIONS, SchemeConfig, clt_experiment
from mcmccalc.workers import run_forked, worker_count


def f_clip(x):
    return np.clip(x, -8.0, 8.0)


@pytest.fixture(scope="module")
def model():
    return default_ssm_model()


@pytest.fixture(scope="module")
def family(model):
    return HastingsFamily(ProposalKernel.random_walk(1.0, model.grid),
                          BalancingFunction.barker())


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _engine(scheme, family, model, p, n, reps, lo, hi, trace):
    streams, _ = samplers._replication_streams(31, reps, p)
    if scheme == "smcmc":
        out = samplers._smcmc_engine(family, model, p, n, streams[lo:hi], 0.0,
                                     "previous-final", collect_states=False, f=f_clip)
        top = out["levels"][-1]
        return {"finals": [level["finals"] for level in out["levels"]],
                "accepts": [level["accepts"] for level in out["levels"]],
                "folds": [level["folds"] for level in out["levels"]],
                "f_sums": top["f_sums"], "table": out["final_table"]}
    out = samplers._imcmc_engine(family, model, p, n, streams[lo:hi], 0.0, f=f_clip,
                                 f_nodes=f_clip(model.grid.nodes),
                                 trace_weight=trace)
    return {key: out.get(key) for key in ("finals", "accepts", "folds", "f_sums",
                                          "center_sums", "trace")}


def _joined(parts, key):
    first = parts[0][key]
    if isinstance(first, list):
        return [np.concatenate([part[key][j] for part in parts]) for j in range(len(first))]
    return np.concatenate([part[key] for part in parts])


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("scheme, p, reps", [
    ("smcmc", 2, 200), ("smcmc", 3, 250), ("imcmc", 2, 200), ("imcmc", 2, 250),
])
def test_block_shards_reproduce_the_whole_run(scheme, p, reps, family, model):
    n = 40
    trace = WeightFunction.one_plus_square()
    whole = _engine(scheme, family, model, p, n, reps, 0, reps, trace)
    parts = [_engine(scheme, family, model, p, n, reps, 0, MIN_REPLICATIONS, trace),
             _engine(scheme, family, model, p, n, reps, MIN_REPLICATIONS, reps, None)]
    for key in whole:
        if key == "trace":  # replication 0's, from the first shard
            if scheme == "imcmc":
                for field in ("checkpoints", "sup_increments", "v_increments", "snapshots"):
                    assert _same_bits(getattr(whole["trace"], field),
                                      getattr(parts[0]["trace"], field))
        elif isinstance(whole[key], list):
            for got, want in zip(_joined(parts, key), whole[key]):
                assert _same_bits(got, want), key
        else:
            assert _same_bits(_joined(parts, key), whole[key]), key


def _recorded_rows(monkeypatch):
    sizes = []
    rows = MutationKernel.rows

    def recording(self, grid, xs):
        sizes.append(np.size(xs))
        return rows(self, grid, xs)

    monkeypatch.setattr(MutationKernel, "rows", recording)
    return sizes


@pytest.mark.parametrize("reps", [MIN_REPLICATIONS, 2 * MIN_REPLICATIONS + 30])
def test_mixture_rows_are_formed_one_block_at_a_time(monkeypatch, reps, model):
    rng = np.random.default_rng(3)
    x = rng.uniform(-3.0, 3.0, (12, reps))
    moved = rng.uniform(size=(12, reps)) < 0.02  # some steps move no chain at all
    moved[5, :MIN_REPLICATIONS] = False
    sizes = _recorded_rows(monkeypatch)
    whole = samplers._MixtureAccumulator(model, 1, reps, np.ones(model.grid.n_points))
    for xk, mk in zip(x, moved):
        whole.add(xk, mk)
    blocks = [slice(b, b + MIN_REPLICATIONS) for b in range(0, reps, MIN_REPLICATIONS)]
    live = [[True] * len(blocks)] + [[mk[block].any() for block in blocks] for mk in moved[1:]]
    if reps == MIN_REPLICATIONS:  # one rows call per step where some chain moved
        assert len(sizes) == sum(any(step) for step in live)
    else:
        assert len(sizes) == sum(sum(step) for step in live)
    assert max(sizes) <= MIN_REPLICATIONS
    # each block's rows, sums and moments are those of a run of that block alone
    for block in blocks:
        alone = samplers._MixtureAccumulator(model, 1, len(x[0, block]),
                                             np.ones(model.grid.n_points))
        for xk, mk in zip(x, moved):
            alone.add(xk[block], mk[block])
        assert _same_bits(alone.table, whole.table[block])
        assert _same_bits(alone.center_num, whole.center_num[block])
        assert _same_bits(alone.center_den, whole.center_den[block])


@pytest.mark.parametrize("scheme", ["smcmc", "imcmc"])
def test_the_report_does_not_depend_on_the_worker_count(monkeypatch, scheme, family,
                                                        model):
    pieces = []

    def counting(run, shards):
        pieces.append(len(shards))
        return run_forked(run, shards)

    monkeypatch.setattr(samplers, "run_forked", counting)
    config = SchemeConfig(family=family, model=model)
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("MCMCCALC_THREADS", threads)
        reports.append(clt_experiment(scheme, config, f_clip, 200, 2 * MIN_REPLICATIONS, 8))
    assert pieces == [1, worker_count(2)]  # 2 wherever two CPUs can fork
    _no_children_left()
    for field in dataclasses.fields(samplers.CltReport):
        one, two = (getattr(report, field.name) for report in reports)
        assert _same_bits(one, two), field.name


def test_worker_count_follows_the_thread_cap(monkeypatch):
    monkeypatch.delenv("MCMCCALC_THREADS", raising=False)
    cpus = worker_count(1 << 20)
    assert cpus >= 1
    monkeypatch.setenv("MCMCCALC_THREADS", "1")
    assert worker_count(4) == 1
    for cap in ("", "0", "x", "-2"):
        monkeypatch.setenv("MCMCCALC_THREADS", cap)
        assert worker_count(4) == min(4, cpus)
    monkeypatch.delenv("MCMCCALC_THREADS")
    assert worker_count(1) == 1
    monkeypatch.setattr(sys, "platform", "darwin")
    assert worker_count(4) == 1


def test_one_worker_while_other_threads_run(monkeypatch):
    monkeypatch.delenv("MCMCCALC_THREADS", raising=False)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert worker_count(4) == 1
    finally:
        release.set()
        other.join()
    assert worker_count(4) == min(4, len(os.sched_getaffinity(0)))


def _running(pid):
    """Whether ``pid`` is a live process (a zombie is not)."""
    try:
        stat = Path("/proc/%d/stat" % pid).read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux's")
def test_children_die_with_a_killed_caller(tmp_path):
    script = """
import os, sys, time
from mcmccalc.workers import run_forked

def run(i):
    if i:
        open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(60)

run_forked(run, [(0,), (1,), (2,)])
"""
    env = dict(os.environ, PYTHONPATH=str(Path(workers.__file__).parents[1]))
    caller = subprocess.Popen([sys.executable, "-c", script, str(tmp_path)], env=env)
    try:
        deadline = time.monotonic() + 30
        while len(list(tmp_path.iterdir())) < 2 and time.monotonic() < deadline:
            assert caller.poll() is None
            time.sleep(0.05)
        children = [int(path.name) for path in tmp_path.iterdir()]
        assert len(children) == 2
    finally:
        caller.send_signal(signal.SIGKILL)
        caller.wait()
    deadline = time.monotonic() + 10
    while any(map(_running, children)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, children))


def _fail_in(piece):
    def run(i):
        if i == piece:
            raise DegenerateWeightsError("piece %d has no weight" % i)
        return i * i
    return run


def test_forked_pieces_come_back_in_order():
    assert run_forked(_fail_in(-1), [(0,), (1,), (2,)]) == [0, 1, 4]
    _no_children_left()


def test_a_child_error_reaches_the_caller_with_its_type_and_message():
    with pytest.raises(DegenerateWeightsError, match="^piece 2 has no weight$"):
        run_forked(_fail_in(2), [(0,), (1,), (2,)])
    _no_children_left()


def test_a_child_error_that_cannot_travel_keeps_its_name_and_message():
    class Local(Exception):  # pickled by reference, so it cannot be rebuilt
        pass

    def run(i):
        if i:
            raise Local("lost at %d" % i)
        return i

    with pytest.raises(RuntimeError, match="^Local: lost at 1$"):
        run_forked(run, [(0,), (1,)])
    _no_children_left()


def test_a_child_that_dies_is_reported():
    def run(i):
        if i:
            os._exit(7)
        return i

    with pytest.raises(RuntimeError, match="ended without a result"):
        run_forked(run, [(0,), (1,)])
    _no_children_left()


def test_an_error_here_stops_the_children_at_once():
    def run(i):
        if i == 0:
            raise DegenerateWeightsError("first piece failed")
        time.sleep(30)
        return i

    began = time.perf_counter()
    with pytest.raises(DegenerateWeightsError, match="first piece failed"):
        run_forked(run, [(0,), (1,), (2,)])
    assert time.perf_counter() - began < 10
    _no_children_left()


def test_a_shard_error_surfaces_from_the_clt_run(monkeypatch, family, model):
    parent = os.getpid()
    engine = samplers._smcmc_engine

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            raise DegenerateWeightsError("level 2 target degenerate in a worker")
        return engine(*args, **kwargs)

    monkeypatch.setattr(samplers, "_smcmc_engine", failing)
    monkeypatch.setattr(samplers, "worker_count", lambda pieces: pieces)
    config = SchemeConfig(family=family, model=model)
    with pytest.raises(DegenerateWeightsError, match="degenerate in a worker"):
        clt_experiment("smcmc", config, f_clip, 100, 2 * MIN_REPLICATIONS, 5)
    _no_children_left()
