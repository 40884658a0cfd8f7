import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mcmccalc import __version__
from mcmccalc.cli import ExperimentConfig, load_config, main, run_experiment
from mcmccalc.errors import ConfigError


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_manifest(out_dir):
    return json.loads((Path(out_dir) / "manifest.json").read_text())


def check_map(manifest):
    return {row["name"]: row for row in manifest["checks"]}


# ---------------------------------------------------------------- validation


def test_defaults_fill_in():
    cfg = load_config(None, kind="derivative-check")
    assert isinstance(cfg, ExperimentConfig)
    s = cfg.settings
    assert s["grid"] == {"lower": -8.0, "upper": 8.0, "points": 513}
    assert s["seed"] == 1
    assert s["family"] == {"kind": "hastings", "proposal": "random-walk",
                           "sigma": 1.0, "balancing": "barker"}
    assert s["target"] == {"shape": "gaussian", "mean": 0.0, "std": 1.0}
    assert s["direction"] == {"shape": "gaussian", "mean": 0.3, "std": 1.15}
    assert s["start"] == {"density": {"shape": "gaussian", "mean": 0.0, "std": 0.45}}
    assert s["function"] == "cos-tanh"
    assert s["tolerance"]["derivative_rel"] == 1e-3
    assert s["tolerance"]["generator"] == 1e-6


def test_clt_defaults_are_the_reference_protocol():
    cfg = load_config(None, kind="clt-report")
    s = cfg.settings
    assert (s["scheme"], s["depth"]) == ("smcmc", 2)
    assert (s["steps"], s["replications"], s["seed"]) == (100000, 200, 1234)
    assert s["function"] == "clipped-identity"
    assert s["alpha"] == 0.25
    assert s["tolerance"] == {"variance_rel": 0.2, "skew": 0.25,
                              "excess_kurtosis": 0.5, "ks": 0.08}


def test_every_problem_reported_not_just_the_first(tmp_path):
    path = write_config(tmp_path, {
        "kind": "clt-report",
        "alpha": 0.7,
        "steps": "many",
        "frobnicate": 1,
        "family": {"kind": "hastings", "sigma": -2.0, "balancing": "sometimes"},
        "tolerance": {"skew": 0.25, "mystery": 1.0},
    })
    with pytest.raises(ConfigError) as exc:
        load_config(path, kind="clt-report")
    problems = exc.value.problems
    assert len(problems) >= 5
    joined = "\n".join(problems)
    assert "'frobnicate'" in joined
    assert "alpha must lie in (0, 1/2), got 0.7" in joined
    assert "family.sigma" in joined
    assert "family.balancing" in joined
    assert "'mystery'" in joined


def test_unknown_key_lists_the_allowed_set(tmp_path):
    path = write_config(tmp_path, {"kind": "mvi-check", "t_nodes": 33})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    (problem,) = exc.value.problems
    assert "'t_nodes'" in problem
    assert "trials" in problem  # the allowed keys are spelled out


def test_kind_mismatch_and_unknown_kind(tmp_path):
    path = write_config(tmp_path, {"kind": "clt-report"})
    with pytest.raises(ConfigError, match="subcommand is 'ftc-check'"):
        load_config(path, kind="ftc-check")
    bad = write_config(tmp_path, {"kind": "resonance-check"}, name="bad.json")
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        load_config(bad)
    empty = write_config(tmp_path, {}, name="empty.json")
    with pytest.raises(ConfigError, match="required"):
        load_config(empty)


def test_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "nope.json"), kind="mvi-check")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(broken), kind="mvi-check")


def test_cross_field_rules(tmp_path):
    path = write_config(tmp_path, {
        "kind": "smcmc-run",
        "family": {"kind": "two-stage"},
        "x0": 55.0,
    })
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    joined = "\n".join(exc.value.problems)
    assert "no sequential driver" in joined
    assert "grid window" in joined

    mixed = write_config(tmp_path, {
        "kind": "derivative-check",
        "target": {"shape": "gaussian2d", "mean": [0.0, 0.0],
                   "cov": [[1.0, 0.0], [0.0, 1.0]]},
    }, name="mixed.json")
    with pytest.raises(ConfigError, match="two-stage"):
        load_config(mixed)

    imcmc_walk = write_config(tmp_path, {
        "kind": "clt-report", "scheme": "imcmc", "level_init": "previous-final",
    }, name="imcmc.json")
    with pytest.raises(ConfigError, match="start at x0"):
        load_config(imcmc_walk)


def test_overrides_replace_file_values(tmp_path):
    path = write_config(tmp_path, {"kind": "mvi-check", "seed": 4, "trials": 17})
    cfg = load_config(path, overrides={"seed": 11})
    assert cfg.settings["seed"] == 11
    assert cfg.settings["trials"] == 17


# ---------------------------------------------------------------- full runs


def test_derivative_check_run(tmp_path):
    out = tmp_path / "out"
    assert main(["derivative-check", "--out", str(out)]) == 0
    manifest = read_manifest(out)
    rows = check_map(manifest)
    assert set(rows) == {"target-invariance", "oracle-converged",
                         "analytic-vs-oracle", "centering", "generator-identity"}
    assert all(row["passed"] for row in rows.values())
    assert manifest["all_passed"] and manifest["exit_code"] == 0
    assert manifest["artifact_version"] == __version__
    # the report repeats the manifest's verdicts and the CSV is tracked
    report = json.loads((out / "derivative_check_report.json").read_text())
    assert report["checks"] == manifest["checks"]
    assert (out / "derivative_density.csv").exists()
    assert "derivative_density" in manifest["outputs"]


def test_manifest_digests_match_files(tmp_path):
    import hashlib

    out = tmp_path / "out"
    assert main(["ftc-check", "--out", str(out)]) == 0
    manifest = read_manifest(out)
    for entry in manifest["outputs"].values():
        path = out / entry["path"]
        assert path.exists()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"]


def test_ftc_point_start_uses_the_looser_bound(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"kind": "ftc-check", "start": {"point": 0.75}})
    assert main(["ftc-check", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "ftc_check_report.json").read_text())
    assert report["start_kind"] == "point"
    assert report["residual_bound"] == 1e-5
    assert report["coarse_residual"] >= report["residual"]


def test_mvi_check_run_and_seed_flag(tmp_path):
    out = tmp_path / "out"
    assert main(["mvi-check", "--seed", "9", "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["seed"] == 9
    report = json.loads((out / "mvi_check_report.json").read_text())
    assert report["violations"] == 0
    assert report["trials"] == 1000
    assert 0.0 < report["max_ratio"] < 1.0


def test_two_stage_kinds_run_green(tmp_path):
    cfg = write_config(tmp_path, {
        "family": {"kind": "two-stage"},
        "start": {"point": [0.5, -0.75]},
    })
    for kind in ("derivative-check", "mvi-check"):
        out = tmp_path / kind
        assert main([kind, "--config", cfg, "--out", str(out)]) == 0
        assert read_manifest(out)["all_passed"]


def test_ergodicity_check_writes_certificate(tmp_path):
    out = tmp_path / "out"
    assert main(["ergodicity-check", "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert all(row["passed"] for row in manifest["checks"])
    cert = json.loads((out / "certificate.json").read_text())
    assert set(cert) == {"V_tag", "drift_rate", "b", "d", "j", "kappa",
                         "beta_est", "C_est"}
    assert cert["V_tag"].startswith("exp")
    assert 0.0 < cert["drift_rate"] < 1.0
    assert 0.0 < cert["kappa"] <= 1.0
    assert 0.0 < cert["beta_est"] < 1.0
    header = (out / "resolvent.csv").read_text().splitlines()[0]
    assert "node" in header


def test_smcmc_chains_are_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path, {"kind": "smcmc-run", "steps": 500})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["smcmc-run", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["smcmc-run", "--config", cfg, "--out", str(out_b)]) == 0
    bytes_a = (out_a / "chains.csv").read_bytes()
    assert bytes_a == (out_b / "chains.csv").read_bytes()
    assert (read_manifest(out_a)["outputs"]["chains"]["sha256"]
            == read_manifest(out_b)["outputs"]["chains"]["sha256"])
    # same config but another seed must actually move the states
    out_c = tmp_path / "c"
    assert main(["smcmc-run", "--config", cfg, "--seed", "7",
                 "--out", str(out_c)]) == 0
    assert bytes_a != (out_c / "chains.csv").read_bytes()


# chains.csv sha256 of depth-2, 3000-step runs at two BLAS threads: a change
# to the chain engines or the CSV writer that moves one byte fails here
PINNED_CHAIN_CSVS = {
    ("smcmc-run", 1): "c39206f730f2e0d7da862006f307ceaa4ef214f348540f63adff50a18bbb7c25",
    ("smcmc-run", 5): "0aafdcb25cbd0a05e0e29668a3bff49180fd31b726c0dc6e881bd40d68644116",
    ("imcmc-run", 1): "c1830805efa00c8ff4375e42565b4959ad4ff8df448a8f80d160072eb6f3c545",
    ("imcmc-run", 5): "2897af4fd23ec1578b8c21771898850aa63948cf9be71367835c3c7986ba592c",
}


@pytest.mark.parametrize("kind, seed", sorted(PINNED_CHAIN_CSVS))
def test_chain_csv_keeps_its_pinned_bytes(tmp_path, kind, seed):
    cfg = write_config(tmp_path, {"kind": kind, "depth": 2, "steps": 3000, "seed": seed})
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["MCMCCALC_THREADS"] = "2"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, "-m", "mcmccalc.cli", kind, "--config", cfg,
                          "--out", str(out)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    digest = hashlib.sha256((out / "chains.csv").read_bytes()).hexdigest()
    assert digest == PINNED_CHAIN_CSVS[kind, seed]
    assert read_manifest(out)["outputs"]["chains"]["sha256"] == digest


# the same for configs off the default (seed 1): the independence proposal
# and the min-one and gj(2) rules, each stepped through its own float forms,
# and depth 3: sequential levels restarted at x0, two stored running mixtures
PINNED_FAMILY_CHAIN_CSVS = {
    "smcmc-independence": ("smcmc-run", {"family": {"proposal": "independence"}},
                           "1cff9453de8842cc4fbde3ca4ce08caec2c8b1874e924cc86764cb46469a7877"),
    "imcmc-gj2": ("imcmc-run", {"family": {"balancing": {"exponent": 2}}},
                  "31b9020576aaa04d69355c5999f792dd23acb43911341d6dbbb738ef23693742"),
    "smcmc-min-one": ("smcmc-run", {"family": {"balancing": "min-one"}},
                      "9fe2277c99f00d696718c8967ea5e135e5e29efccdb1f150164ed1825e10c65c"),
    "smcmc-depth3-fixed": ("smcmc-run", {"depth": 3, "level_init": "fixed"},
                           "6239db7343e31fe02e436acd6038344d947af29be5328c2e217fea1cd86bd914"),
    "imcmc-depth3": ("imcmc-run", {"depth": 3},
                     "d91694f5c19ada32f40489f94fcab59010f5f020756be4736e29229ee23bd59a"),
}


@pytest.mark.parametrize("name", sorted(PINNED_FAMILY_CHAIN_CSVS))
def test_family_chain_csv_keeps_its_pinned_bytes(tmp_path, name):
    kind, overrides, pinned = PINNED_FAMILY_CHAIN_CSVS[name]
    cfg = write_config(tmp_path, dict({"kind": kind, "depth": 2, "steps": 3000, "seed": 1},
                                      **overrides))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["MCMCCALC_THREADS"] = "2"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, "-m", "mcmccalc.cli", kind, "--config", cfg,
                          "--out", str(out)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    digest = hashlib.sha256((out / "chains.csv").read_bytes()).hexdigest()
    assert digest == pinned


# d1_statistics.csv sha256 of the same imcmc-run configs: the adaptation trace
# of the top-level running mixture, so the mixture's row arithmetic and the
# trace recorder are pinned to the byte as well as the states
PINNED_TRACE_CSVS = {
    1: "ce5aff81ccea4fba57b9679069e2f8eec25999deee26cd378b6f504bd89295d8",
    5: "f167e1e3e6dfeed8536ee31d1c5ba824a4dcc890b490ecdae70d11cde2ded15a",
}


@pytest.mark.parametrize("seed", sorted(PINNED_TRACE_CSVS))
def test_imcmc_trace_csv_keeps_its_pinned_bytes(tmp_path, seed):
    cfg = write_config(tmp_path, {"kind": "imcmc-run", "depth": 2, "steps": 3000,
                                  "seed": seed})
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["MCMCCALC_THREADS"] = "2"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, "-m", "mcmccalc.cli", "imcmc-run", "--config",
                          cfg, "--out", str(out)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    digest = hashlib.sha256((out / "d1_statistics.csv").read_bytes()).hexdigest()
    assert digest == PINNED_TRACE_CSVS[seed]
    assert read_manifest(out)["outputs"]["d1_statistics"]["sha256"] == digest


def test_chain_csv_covers_every_level(tmp_path):
    cfg = write_config(tmp_path, {"kind": "smcmc-run", "steps": 120, "depth": 3})
    out = tmp_path / "out"
    assert main(["smcmc-run", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "chains.csv").read_text().splitlines()
    assert lines[0] == "level,step,state"
    assert len(lines) == 1 + 3 * 120
    levels = {row.split(",")[0] for row in lines[1:]}
    assert levels == {"1", "2", "3"}
    values = [float(row.split(",")[2]) for row in lines[1:]]
    assert np.all(np.isfinite(values))


def test_chain_csv_writer_has_the_bytes_of_csv_writer(tmp_path):
    import csv
    import itertools
    from types import SimpleNamespace

    from mcmccalc import cli

    block = cli.CSV_BLOCK
    # level 1: a repeat run across the first block edge, a sign flip of zero
    # inside a run of zeros (0.0 == -0.0, their bits and reprs differ), a
    # subnormal and the extremes; level 2: a run longer than a block
    lower = np.full(2 * block + 7, 0.25)
    lower[block - 3:block + 5] = 2.0
    lower[block + 5:block + 11] = [0.0, 0.0, -0.0, -0.0, 0.0, 5e-324]
    lower[block + 11:block + 15] = [1e300, 1e300, -1e300, -1e300]
    upper = np.full(block + 3, -0.0)
    upper[0], upper[-1] = 0.0, 0.0
    runs = [SimpleNamespace(states=lower), SimpleNamespace(states=upper)]
    got = tmp_path / "chains.csv"
    cli._write_chain_csv(got, runs)
    want = tmp_path / "want.csv"
    with want.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["level", "step", "state"])
        for level, run in enumerate(runs, start=1):
            writer.writerows(zip(itertools.repeat(level), itertools.count(1),
                                 run.states.tolist()))
    assert got.read_bytes() == want.read_bytes()
    assert b"\n1,%d,-0.0\n" % (block + 8) in got.read_bytes()


def test_negative_control_fails_invariance(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "smcmc-run",
        "steps": 400,
        "invariance_target": {"shape": "gaussian", "mean": 1.5, "std": 0.7},
    })
    out = tmp_path / "out"
    assert main(["smcmc-run", "--config", cfg, "--out", str(out)]) == 1
    manifest = read_manifest(out)
    assert manifest["all_passed"] is False and manifest["exit_code"] == 1
    row = check_map(manifest)["level-1-invariance"]
    assert row["passed"] is False
    assert "claimed target" in row["detail"]


def test_imcmc_run_emits_adaptation_artifacts(tmp_path):
    cfg = write_config(tmp_path, {"kind": "imcmc-run", "steps": 2500})
    out = tmp_path / "out"
    assert main(["imcmc-run", "--config", cfg, "--out", str(out)]) == 0
    manifest = read_manifest(out)
    rows = check_map(manifest)
    assert rows["adaptation-diagnostics"]["passed"]
    lines = (out / "d1_statistics.csv").read_text().splitlines()
    assert lines[0] == "checkpoint,sup_stat,v_stat"
    assert int(lines[-1].split(",")[0]) == 2500
    report = json.loads((out / "imcmc_run_report.json").read_text())
    assert report["adaptation"]["slope_sup"] < 0


def test_clt_report_small_scale_plumbing(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "clt-report",
        "scheme": "imcmc",
        "steps": 600,
        "replications": 100,
        "seed": 606,
        "tolerance": {"variance_rel": 3.0, "skew": 3.0,
                      "excess_kurtosis": 6.0, "ks": 0.5},
    })
    out = tmp_path / "out"
    assert main(["clt-report", "--config", cfg, "--reps", "120",
                 "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["settings"]["replications"] == 120
    rows = check_map(manifest)
    assert set(rows) == {"replication-variance", "deterministic-variance",
                         "skewness", "excess-kurtosis", "normality-distance",
                         "d1-partial-sums-trend"}
    report = json.loads((out / "clt_report_report.json").read_text())
    assert report["fractional_exponent"] == 0.25
    assert report["replications"] == 120
    assert (out / "d1_statistics.csv").exists()


def test_stage_context_on_library_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "kind": "derivative-check",
        "start": {"density": {"shape": "gaussian", "mean": 0.0, "std": 2.5}},
    })
    rc = main(["derivative-check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "[derivative-check/analytic-derivative]" in err
    assert "PreconditionError" in err


def test_config_errors_exit_2_and_print_everything(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "clt-report", "alpha": 0.7,
                                  "frobnicate": 1})
    rc = main(["clt-report", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "alpha must lie in (0, 1/2)" in err
    assert "'frobnicate'" in err
    assert not (tmp_path / "o").exists()  # validated before any computation


def test_env_out_dir_and_flag_precedence(tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("MCMCCALC_OUT_DIR", str(env_dir))
    monkeypatch.chdir(tmp_path)
    assert main(["mvi-check"]) == 0
    assert (env_dir / "manifest.json").exists()
    flag_dir = tmp_path / "from-flag"
    assert main(["mvi-check", "--out", str(flag_dir)]) == 0
    assert (flag_dir / "manifest.json").exists()


def test_run_experiment_public_api(tmp_path):
    cfg = load_config(None, kind="mvi-check")
    assert run_experiment(cfg, out_dir=str(tmp_path / "api")) == 0
    assert (tmp_path / "api" / "manifest.json").exists()


def test_module_invocation_and_help():
    version = subprocess.run(
        [sys.executable, "-m", "mcmccalc.cli", "--version"],
        capture_output=True, text=True)
    assert version.returncode == 0
    assert version.stdout.strip() == f"mcmccalc {__version__}"
    help_run = subprocess.run(
        [sys.executable, "-m", "mcmccalc.cli", "mvi-check", "--help"],
        capture_output=True, text=True)
    assert help_run.returncode == 0
    assert "--config" in help_run.stdout
    bare = subprocess.run([sys.executable, "-m", "mcmccalc.cli"],
                          capture_output=True, text=True)
    assert bare.returncode == 2


def test_unwritable_output_dir_exits_3(tmp_path, capsys):
    blocker = tmp_path / "plain-file"
    blocker.write_text("not a directory", encoding="utf-8")
    rc = main(["mvi-check", "--out", str(blocker / "sub")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error [mvi-check/write-artifacts] ")


def test_readme_json_examples_pass_validation(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme_{i}.json"
        path.write_text(block, encoding="utf-8")
        assert load_config(str(path)).kind == json.loads(block)["kind"]


def test_too_wide_random_walk_exits_2_before_compute(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "kind": "derivative-check",
        "family": {"kind": "hastings", "proposal": "random-walk", "sigma": 5.0},
    })
    rc = main(["derivative-check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "family.sigma" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["derivative-check", "ftc-check", "mvi-check"])
@pytest.mark.parametrize("over, window", [
    ({"start": {"point": 20.0}}, "[-8, 8]"),
    ({"start": {"point": [0.5, 20.0]}, "family": {"kind": "two-stage"}}, "[-6, 6]"),
    ({"start": {"point": [-7.0, 0.0]}, "family": {"kind": "two-stage"}}, "[-6, 6]"),
], ids=["point", "two-stage-second", "two-stage-first"])
def test_point_start_outside_the_window_exits_2_before_compute(tmp_path, capsys, kind,
                                                               over, window):
    cfg = write_config(tmp_path, {"kind": kind, **over})
    rc = main([kind, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"start.point: must sit inside the grid window {window}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    edge = [-6.0, 6.0] if "family" in over else 8.0
    assert load_config(None, kind=kind,
                       overrides=dict(over, start={"point": edge})).settings["start"] == {
        "point": edge}


def test_ftc_check_refuses_a_coarse_rule_equal_to_the_fine_one(tmp_path, capsys):
    # at 5 nodes the coarse rule would be the 5-node rule itself
    cfg = write_config(tmp_path, {"kind": "ftc-check", "t_nodes": 5})
    rc = main(["ftc-check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "t_nodes: must be >= 7, got 5" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert load_config(None, kind="ftc-check", overrides={"t_nodes": 7}).settings["t_nodes"] == 7


@pytest.mark.parametrize("kind, over, under, message", [
    ("smcmc-run", {"depth": 3, "steps": 334}, {"depth": 3, "steps": 333},
     "steps: depth x steps is too large: 1002 stored states need"),
    ("imcmc-run", {"depth": 3, "steps": 334}, {"depth": 3, "steps": 333},
     "steps: depth x steps is too large: 1002 stored states need"),
    ("ergodicity-check", {"chain_steps": 1001}, {"chain_steps": 1000},
     "chain_steps: chain_steps is too large: 1001 stored states need"),
    ("clt-report", {"steps": 1001}, {"steps": 1000},
     "steps: steps is too large: 1001 stored states need"),
])
def test_state_storage_above_the_cap_exits_2_before_compute(tmp_path, monkeypatch,
                                                            capsys, kind, over,
                                                            under, message):
    import mcmccalc.samplers as samplers

    monkeypatch.setattr(samplers, "STATE_STORAGE_CAP", 1000)
    cfg = write_config(tmp_path, {"kind": kind, **over})
    rc = main([kind, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert "GB" in err
    assert not (tmp_path / "o").exists()
    assert load_config(None, kind=kind, overrides=under)


def test_ergodicity_check_without_drift_certificate_exits_3(tmp_path, monkeypatch, capsys):
    import mcmccalc.cli as cli

    monkeypatch.setattr(cli, "find_drift_parameters", lambda kernel, weight: None)
    rc = main(["ergodicity-check", "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error [ergodicity-check/drift-certificate] PreconditionError")
    assert "kernel 0" in err and "0.5, 0.7, 0.85, 0.95" in err


def test_ftc_check_differentiates_each_curve_point_once(tmp_path, monkeypatch):
    import mcmccalc.calculus as calculus

    log = tmp_path / "calls"  # one line per call, forked workers' calls included
    log.write_text("")
    real = calculus.derivative_for_start

    def counting(*args):
        with open(log, "a") as out:
            out.write("call\n")
        return real(*args)

    monkeypatch.setattr(calculus, "derivative_for_start", counting)
    assert main(["ftc-check", "--out", str(tmp_path / "o")]) == 0
    calls = log.read_text().splitlines()
    assert len(calls) == 33  # the 17-node coarse rule reuses the 33-node fine one


def test_cli_import_leaves_scipy_out():
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, mcmccalc.cli; assert 'scipy' not in sys.modules"],
        capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr


# prints OPENBLAS_THREAD_TIMEOUT as it stands when the import of numpy begins
_TIMEOUT_AT_NUMPY_IMPORT = """
import os, sys

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))

sys.meta_path.insert(0, Watch())
import mcmccalc.cli
"""


@pytest.mark.parametrize("given, seen", [(None, "8"), ("28", "28")], ids=["unset", "explicit"])
def test_the_cli_sets_the_blas_thread_timeout_before_numpy_loads(given, seen):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    if given is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = given
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = subprocess.run([sys.executable, "-c", _TIMEOUT_AT_NUMPY_IMPORT], env=env,
                           capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == [seen]


def _run_at_threads(threads, args):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["MCMCCALC_THREADS"] = threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


# the one-step law that the mean-value trials pair with, from the default
# mvi-check inputs on the benchmark's 1025-point grid
_START_LAW_DIGEST = """
import hashlib
import mcmccalc.cli  # caps the BLAS threads before numpy loads
from mcmccalc.calculus import _hastings_start_law
from mcmccalc.kernels import BalancingFunction, HastingsFamily, ProposalKernel
from mcmccalc.measures import Grid1D, gaussian_density
grid = Grid1D(-8.0, 8.0, 1025)
family = HastingsFamily(ProposalKernel.random_walk(1.0, grid), BalancingFunction.barker())
law = _hastings_start_law(family.at(gaussian_density(grid, 0.0, 1.0)),
                          gaussian_density(grid, 0.0, 0.45))
print(hashlib.sha256(law.tobytes()).hexdigest())
"""


def test_mvi_check_does_not_depend_on_the_blas_thread_count(tmp_path):
    cfg = write_config(tmp_path, {"kind": "mvi-check", "trials": 100,
                                  "grid": {"lower": -8.0, "upper": 8.0, "points": 1025}})
    reports, laws = [], []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        _run_at_threads(threads, ["-m", "mcmccalc.cli", "mvi-check", "--config", cfg,
                                  "--out", str(out)])
        reports.append((out / "mvi_check_report.json").read_bytes())
        laws.append(_run_at_threads(threads, ["-c", _START_LAW_DIGEST]))
    assert reports[0] == reports[1]
    assert laws[0] == laws[1]


def test_a_path_config_runs_to_a_manifest(tmp_path):
    path = Path(write_config(tmp_path, {"kind": "mvi-check"}))
    cfg = load_config(path)
    assert cfg.source == str(path)
    assert run_experiment(cfg, out_dir=str(tmp_path / "out")) == 0
    assert read_manifest(tmp_path / "out")["config_source"] == str(path)
