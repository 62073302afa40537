"""Command-line interface: subcommands, overrides, exit codes, outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import banditsim

import banditsim.experiments as experiments
from banditsim.cli import main
from banditsim.config import EXPERIMENTS, parse_config
from banditsim.csvio import parse_csv
from banditsim.rng import replicate_seed_id

SMALL_CONFIG = """
experiment = TwoBridgeLinUCB
horizons = 500, 1000
replicates = 4
policies = uniform_random
"""


def _worker_dies(job):
    """A job that kills its worker process, as the OOM killer would."""
    os._exit(9)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        # SciPy is a test dependency only; a command must not pay its import.
        src = str(Path(banditsim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, banditsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True, timeout=120)
        assert out.stdout.strip() == "[]"


class TestListAndDefaults:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        assert len(out.strip().splitlines()) == len(EXPERIMENTS)

    def test_print_defaults_json(self, capsys):
        assert main(["print-defaults"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["global"]["replicates"] == 200
        assert set(table["experiments"]) == set(EXPERIMENTS)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_print_defaults_round_trips_through_parser(self, experiment, capsys):
        assert main(["print-defaults", "--experiment", experiment]) == 0
        text = capsys.readouterr().out
        cfg = parse_config(text)
        assert cfg == parse_config(f"experiment = {experiment}")


class TestRun:
    def test_writes_table_and_aggregates(self, config_path, tmp_path, capsys):
        out = tmp_path / "results.csv"
        agg = tmp_path / "agg.json"
        code = main(
            ["run", config_path, "--out", str(out), "--aggregates", str(agg), "--workers", "1"]
        )
        assert code == 0
        rows = parse_csv(out.read_text())
        assert len(rows) == 8
        assert {r.horizon for r in rows} == {500, 1000}
        payload = json.loads(agg.read_text())
        assert payload["experiment"] == "TwoBridgeLinUCB"
        assert "uniform_random@T=500" in payload["summary"]
        # Aggregates echo on stdout when the table goes to a file.
        assert json.loads(capsys.readouterr().out)["experiment"] == "TwoBridgeLinUCB"

    def test_stdout_table(self, config_path, capsys):
        assert main(["run", config_path, "--out", "-", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        rows = parse_csv(out)
        assert len(rows) == 8

    def test_determinism_across_invocations(self, config_path, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["run", config_path, "--out", str(a), "--workers", "1"]) == 0
        assert main(["run", config_path, "--out", str(b), "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flag_overrides(self, config_path, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            [
                "run",
                config_path,
                "--seed", "123",
                "--replicates", "2",
                "--set", "horizons = 600",
                "--out", str(out),
                "--workers", "1",
            ]
        )
        assert code == 0
        rows = parse_csv(out.read_text())
        assert len(rows) == 2
        assert {r.horizon for r in rows} == {600}
        reference = parse_config(
            SMALL_CONFIG,
            overrides={"master_seed": 123, "replicates": 2, "horizons": (600,)},
        )
        assert rows[0].seed != 0
        assert reference.master_seed == 123

    def test_experiment_flag_without_config_file(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            [
                "run",
                "--experiment", "TwoBridgeLinUCB",
                "--set", "horizons = 400, 800",
                "--set", "policies = oracle",
                "--replicates", "2",
                "--out", str(out),
                "--workers", "1",
            ]
        )
        assert code == 0
        rows = parse_csv(out.read_text())
        assert all(r.regret_total == 0.0 for r in rows)

    def test_curves_output(self, config_path, tmp_path):
        out = tmp_path / "r.csv"
        curves = tmp_path / "curves.csv"
        code = main(
            ["run", config_path, "--out", str(out), "--curves", str(curves), "--workers", "1"]
        )
        assert code == 0
        lines = curves.read_text().splitlines()
        assert lines[0] == "experiment,policy,T,round,cum_regret"
        assert len(lines) > 2
        last = lines[-1].split(",")
        assert last[0] == "TwoBridgeLinUCB"
        assert last[1] == "uniform_random"

    def test_config_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("experiment = TwoBridgeLinUCB\nrho = -1\n")
        assert main(["run", str(bad), "--out", "-"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "rho" in err["message"]

    def test_bad_set_syntax_exit_2(self, config_path, capsys):
        assert main(["run", config_path, "--set", "replicates"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "KEY=VALUE" in err["message"]

    def test_replicate_error_exit_3(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise FloatingPointError("injected")

        monkeypatch.setattr(experiments, "run_perturbed_batch_greedy", fail)
        cfg = tmp_path / "fail.cfg"
        cfg.write_text(
            "experiment = ExternalityVanishing\n"
            "horizons = 400\n"
            "replicates = 1\n"
            "policies = batch_freq_greedy\n"
        )
        assert main(["run", str(cfg), "--out", "-", "--workers", "1"]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ReplicateError"
        assert str(replicate_seed_id(parse_config(cfg.read_text()).master_seed, 0)) in err["message"]

    def test_dead_worker_exit_3(self, config_path, capsys, monkeypatch):
        # Forked workers inherit the patched job function and die on their first job.
        monkeypatch.setattr(experiments, "_run_job", _worker_dies)
        assert main(["run", config_path, "--out", "-", "--workers", "2"]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "BrokenProcessPool"
        assert "worker process died" in err["message"]

    def test_one_entry_two_group_catalog_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "catalog.cfg"
        bad.write_text(
            "experiment = ExternalityVanishing\n"
            "horizons = 400\n"
            "replicates = 1\n"
            "catalog_size = 1\n"
            "policies = batch_freq_greedy\n"
        )
        assert main(["run", str(bad), "--out", "-", "--workers", "1"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "catalog_size" in err["message"]

    def test_unused_c0_key_exit_2(self, config_path, capsys):
        assert main(["run", config_path, "--set", "c0=2", "--out", "-", "--workers", "1"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "unknown key 'c0'" in err["message"]

    def test_eig_growth_other_dimension_exit_2(self, capsys):
        code = main([
            "run", "--experiment", "EigGrowth", "--set", "d=3", "--set", "rho=0.3",
            "--set", "horizons=400", "--replicates", "1", "--out", "-", "--workers", "1",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "d = 2" in err["message"]

    def test_comparator_with_two_horizons_exit_2(self, capsys):
        # Both horizons map to the comparator horizon 400 // 20 = 410 // 20 = 20.
        code = main([
            "run", "--experiment", "GreedyVsLinUCB", "--set", "horizons=400,410",
            "--set", "batch=20", "--replicates", "2", "--out", "-", "--workers", "1",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "GreedyVsLinUCB takes one horizon" in err["message"]

    @pytest.mark.parametrize("experiment, sets, message", [
        ("TwoBridgeLinUCB", ["horizons=2,3", "policies=oracle"], "oracle on TwoBridgeLinUCB cannot run at T = 2"),
        ("ScalingFit", ["horizons=6,7,8", "policies=linucb"], "linucb on ScalingFit cannot run at T = 6"),
        ("ScalingFit", ["horizons=10,100000", "policies=linucb"], "linucb on ScalingFit cannot run at T = 10"),
        ("GreedyVsLinUCB", ["horizons=1000"], "linucb on GreedyVsLinUCB cannot run at T // batch = 5"),
        ("ExternalityVanishing", ["horizons=1000"], "cannot run at T // batch = 5"),
    ], ids=["two-bridge", "scaling-short", "scaling-wide", "greedy-comparator", "externality-comparator"])
    def test_horizon_too_short_for_linucb_exit_2(self, experiment, sets, message, capsys):
        argv = ["run", "--experiment", experiment, "--replicates", "1", "--out", "-", "--workers", "1"]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert message in err["message"]
        assert "S must be positive and smaller than the horizon" in err["message"]

    def test_zero_ridge_with_perturbed_linucb_exit_2(self, capsys):
        argv = ["run", "--experiment", "ScalingFit", "--set", "ridge=0", "--set", "horizons=200,400,800",
                "--replicates", "1", "--out", "-", "--workers", "1"]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "ridge must be positive for linucb on ScalingFit" in err["message"]

    @pytest.mark.parametrize("experiment", ["TwoBridgeLinUCB", "TwoBridgeImpossibility"])
    def test_nonzero_ridge_on_two_bridge_exit_2(self, experiment, capsys):
        # Two-bridge LinUCB has no ridge to set: a nonzero one would change nothing.
        argv = ["run", "--experiment", experiment, "--set", "ridge=5", "--set", "horizons=500,1000",
                "--replicates", "1", "--out", "-", "--workers", "1"]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert f"ridge must be 0 on {experiment}" in err["message"]

    def test_scaling_fit_skips_policy_without_positive_regret(self, tmp_path, capsys):
        # Greedy at T = 2, 3, 4 can have zero mean regret at some horizon:
        # no power law fits it, and the run still succeeds.
        aggregates = tmp_path / "aggregates.json"
        argv = ["run", "--experiment", "ScalingFit", "--set", "horizons=2,3,4",
                "--set", "policies=batch_bayes_greedy", "--replicates", "2", "--workers", "1",
                "--out", "-", "--aggregates", str(aggregates)]
        assert main(argv) == 0
        totals = {}
        for row in parse_csv(capsys.readouterr().out):
            totals[row.horizon] = totals.get(row.horizon, 0.0) + row.regret_total
        assert min(totals.values()) == 0.0
        assert json.loads(aggregates.read_text())["scaling_fits"] == {}

    def test_unwritable_output_exit_2(self, config_path, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["run", config_path, "--out", str(missing_dir), "--workers", "1"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] in ("FileNotFoundError", "NotADirectoryError", "OSError")


class TestVerifySimulation:
    def test_small_audit_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "verify-simulation",
                "--targets", "4",
                "--draws", "2000",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n_targets"] == 4
        assert report["n_draws"] == 2000
        assert len(report["targets"]) == 4
        assert report["max_weight_norm"] <= 1.0
        assert report["max_reconstruction_error"] <= 1e-8

    def test_rejection_budget_exceeded_exit_4(self, capsys):
        code = main(
            [
                "verify-simulation",
                "--targets", "3",
                "--draws", "1000",
                "--max-rejections", "-1",
                "--out", "-",
            ]
        )
        assert code == 4
        captured = capsys.readouterr()
        err = json.loads(captured.err.strip())
        assert err["error"] == "SimulationMismatch"
        # The report is still written before the failure is signalled.
        assert json.loads(captured.out)["n_targets"] == 3

    @pytest.mark.parametrize("text, message", [
        ("rho = 0", "rho must be positive"),
        ("horizons = 200", "first horizon must be at least batch"),
        ("horizons = 2\nbatch = 1", "batch must be at least d"),
    ], ids=["no-perturbation", "no-full-batch", "batch-below-d"])
    def test_audit_without_a_full_diverse_batch_exit_2(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text(text + "\n")
        assert main(["verify-simulation", str(cfg), "--targets", "2", "--draws", "100", "--out", "-"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert message in err["message"]

    def test_singular_audited_batch_exit_4(self, tmp_path, capsys):
        # Valid, but one catalog entry with two actions and almost no
        # perturbation gives a batch whose Gram matrix is singular.
        cfg = tmp_path / "singular.cfg"
        cfg.write_text("rho = 1e-9\ncatalog_size = 1\nn_actions = 2\n")
        assert main(["verify-simulation", str(cfg), "--targets", "2", "--draws", "100", "--out", "-"]) == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InsufficientDiversityError"

    def test_wrong_experiment_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "wrong.cfg"
        cfg.write_text("experiment = ScalingFit\n")
        assert main(["verify-simulation", str(cfg), "--out", "-"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "SimulationVerify" in err["message"]
