"""Self-tests of the benchmark: python3 -m pytest perfbench/tests -q"""

import subprocess
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import guard  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_configs_from_a_seed_repeat_exactly(tmp_path):
    for name in workloads.WORKLOADS:
        assert workloads.configs(name, 5) == workloads.configs(name, 5)
        a = workloads.write_configs(name, 5, tmp_path / "a" / name)
        b = workloads.write_configs(name, 5, tmp_path / "b" / name)
        assert [p.read_bytes() for _, p in a] == [p.read_bytes() for _, p in b]
    seeds = [c["seed"] for _, c in workloads.configs("clt-sequential", 0)]
    assert seeds == [1234]
    assert workloads.configs("clt-sequential", 1) != workloads.configs("clt-sequential", 0)
    assert (workloads.configs("chain-trace", 3)
            == workloads.configs("chain-trace", 3 + workloads.SLOTS))


def _span(name, start, end, parent, extra=None):
    return [name, start, end, parent, extra, False]


def test_self_times_subtract_child_coverage():
    spans = [
        _span("cli:run_experiment", 1.0, 11.0, -1),
        _span("samplers:run_smcmc", 2.0, 6.0, 0),
        _span("feynman_kac:MutationKernel.rows", 3.0, 4.0, 1, {"rows": 7, "bytes": 56}),
        _span("feynman_kac:MutationKernel.rows", 4.5, 5.0, 1, {"rows": 3, "bytes": 24}),
        _span("measures:integrate_values", 7.0, 8.0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.5, 1.0, 0.5, 1.0])

    worker = {"spans": [_span("cli:load_config", 0.1, 0.2, -1)] + [
        [s[0], s[1], s[2], s[3] + 1 if s[3] >= 0 else -1, s[4], s[5]] for s in spans],
        "run_start": 0.5, "run_end": 12.0, "import_s": 1.0, "artifact_bytes": 10}
    m = tracer.pass_metrics([worker], ("feynman_kac", "samplers"))
    assert m["cli.self_s"] == pytest.approx(5.0)
    assert m["cli.load_config_s"] == pytest.approx(0.1)
    assert m["samplers.self_s"] == pytest.approx(2.5)
    assert m["feynman_kac.self_s"] == pytest.approx(1.5)
    assert m["feynman_kac.rows"] == 10 and m["feynman_kac.rows_calls"] == 2
    assert m["feynman_kac.row_bytes"] == 80
    assert m["trace.unspanned_s"] == pytest.approx(1.5)
    assert m["trace.wall_s"] == pytest.approx(11.5)
    assert m["trace.balance_residual_s"] == pytest.approx(0.0, abs=1e-12)
    assert m["trace.design_share"] == pytest.approx(4.0 / 10.0)


def _digest(value=0.5, chains="aa", gate=True, invariance=True):
    return {"numbers": {"levels.0.mean_state": value, "invariance_residual": 1e-17},
            "checks": {"level-1-invariance": invariance, "adaptation-diagnostics": gate},
            "files": {"chains.csv": chains, "imcmc_run_report.json": "bb"}}


def test_guard_flags_tampered_reference_and_nondeterministic_rerun():
    d = _digest()
    ref = guard.reference_entry(d)
    assert guard.problems(0, None, d, ref, d) == []
    # a statistical gate may fail (exit 1) without counting
    assert guard.problems(1, None, _digest(gate=False), ref, None) == []
    assert guard.problems(1, None, _digest(invariance=False), ref, None)

    tampered = {"numbers": dict(ref["numbers"], **{"levels.0.mean_state": 0.5 + 1e-9}),
                "chains_sha256": ref["chains_sha256"]}
    assert guard.problems(0, None, d, tampered, None)
    assert guard.problems(0, None, d, dict(ref, chains_sha256="cc"), None)

    rerun = _digest(chains="dd")
    found = guard.problems(0, None, rerun, guard.reference_entry(rerun), d)
    assert found == ["output differs from an earlier run at the same seed"]
    assert guard.problems(3, "RuntimeError: x", None, ref, None)
    assert guard.problems(2, None, None, ref, None)


def test_guard_digest_reads_reports_and_hashes_files(tmp_path):
    (tmp_path / "smcmc_run_report.json").write_text(
        '{"kind": "smcmc-run", "settings": {"seed": 1}, "levels": [{"mean_state": 0.25}],'
        ' "checks": [{"name": "states-finite", "passed": true, "detail": ""}]}')
    (tmp_path / "chains.csv").write_text("level,step,state\n1,1,0.5\n")
    (tmp_path / "manifest.json").write_text("{}")
    d = guard.digest(tmp_path, "smcmc-run")
    assert d["numbers"] == {"levels.0.mean_state": 0.25}
    assert d["checks"] == {"states-finite": True}
    assert sorted(d["files"]) == ["chains.csv", "smcmc_run_report.json"]


def _bindings():
    """Identity of every module global and class attribute of mcmccalc."""
    found = {}
    for key, mod in list(sys.modules.items()):
        if key == "mcmccalc" or key.startswith("mcmccalc."):
            for attr, value in vars(mod).items():
                found[(key, attr)] = id(value)
                if isinstance(value, type) and value.__module__ == key:
                    for cattr, member in vars(value).items():
                        found[(key, attr, cattr)] = id(member)
    return found


def test_wrappers_are_removed_after_a_traced_run():
    import mcmccalc.cli as cli
    from mcmccalc.measures import Grid1D, gaussian_density

    before = _bindings()
    t = tracer.Tracer("selftest")
    t.install()
    try:
        assert hasattr(cli.run_smcmc, "_perfbench_span")  # patched where looked up
        assert len([k for k, v in _bindings().items() if before.get(k) != v]) > 20
        grid = Grid1D(-4.0, 4.0, 65)
        mu = gaussian_density(grid, 0.0, 1.0)
        cli.check_invariance(cli.HastingsFamily(
            cli.ProposalKernel.random_walk(1.0, grid), cli.BalancingFunction.barker()).at(mu))
    finally:
        t.uninstall()
    names = {span[tracer.NAME] for span in t.spans}
    assert {"kernels:check_invariance", "kernels:HastingsKernel.q_matrix",
            "measures:GridDensity.__init__"} <= names
    assert _bindings() == before


def test_times_are_scaled_to_the_reference_speed():
    # 100 spins at twice the reference spin time: the machine ran at half the
    # reference speed, so the time outside the spins is halved
    ref = worker.REFERENCE_SPIN_S
    assert worker.at_reference_speed((0.0, 0.0, 0), (10.0, 200 * ref, 100)) \
        == pytest.approx((10.0 - 200 * ref) / 2)
    assert worker.at_reference_speed((1.0, 0.5, 7), (3.0, 0.5 + 50 * ref, 57)) \
        == pytest.approx(2.0 - 50 * ref)
    with pytest.raises(RuntimeError):
        worker.at_reference_speed((0.0, 0.0, 3), (1.0, 0.0, 3))


def test_speed_sampler_samples_while_started():
    from time import perf_counter

    sampler = worker.SpeedSampler()
    sampler.start()
    try:
        since = sampler.mark()
        while perf_counter() - since[0] < 0.2:
            pass
        until = sampler.mark()
    finally:
        sampler.stop()
    assert until[2] - since[2] >= 5
    assert worker.at_reference_speed(since, until) > 0.0
    count = sampler.samples
    stop = perf_counter()
    while perf_counter() - stop < 0.05:
        pass
    assert sampler.samples == count


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chain-trace",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
