"""Command-line interface: subcommands, overrides, exit codes, outputs."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import banditsim

import banditsim.experiments as experiments
import banditsim.cli as cli
from banditsim.cli import main
from banditsim.config import EXPERIMENTS, parse_config
from banditsim.experiments import EXPERIMENT_SPECS, keys_read
from banditsim.rng import replicate_seed_id
from oracles import parse_csv

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

    def test_aggregates_to_stdout_print_once(self, config_path, tmp_path, capsys):
        out = tmp_path / "results.csv"
        assert main(["run", config_path, "--out", str(out), "--aggregates", "-", "--workers", "1"]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count('"experiment"') == 1
        assert json.loads(stdout)["experiment"] == "TwoBridgeLinUCB"
        assert len(parse_csv(out.read_text())) == 8

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
                "--set", "master_seed=123",
                "--set", "replicates=2",
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
                "--set", "experiment=TwoBridgeLinUCB",
                "--set", "horizons = 400, 800",
                "--set", "policies = oracle",
                "--set", "replicates=2",
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

    @pytest.mark.parametrize("argv, message", [
        (["run", "--set", "experiment=ScalingFit", "--workers", "abc"], "argument --workers:"),
        (["run", "--set", "experiment=ScalingFit", "--set", "replicates=1e3"],
         "key 'replicates' has malformed value '1e3'"),
        (["run", "--set", "experiment=Nope"], "experiment 'Nope' unknown"),
        (["print-defaults", "--experiment", "Nope"], "argument --experiment:"),
        (["run", "--seed", "5"], "unrecognized arguments: --seed"),
        # A flag prefix would be a second spelling of its flag, and a flag
        # added later could change what it means.
        (["run", "--se", "replicates=2", "--wor", "1"], "unrecognized arguments: --se --wor 1"),
        (["verify-simulation", "--max", "3"], "unrecognized arguments: --max"),
        (["print-defaults", "--exp", "EigGrowth"], "unrecognized arguments: --exp EigGrowth"),
    ], ids=["workers", "replicates", "run-experiment", "defaults-experiment", "removed-flag",
            "run-prefixes", "verify-prefix", "defaults-prefix"])
    def test_usage_error_prints_one_json_line(self, argv, message, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ConfigError" and message in payload["message"]

    @pytest.mark.parametrize("argv", [
        ["run", "--set", "experiment=TwoBridgeLinUCB", "--set", "policies=oracle", "--set", "horizons=400",
         "--set", "replicates=3", "--set", "replicates=1"],
        ["run", "CONFIG", "--set", "replicates=3", "--set", "replicates = 2"],
        ["verify-simulation", "--set", "n_targets=2", "--set", "n_targets=3"],
    ], ids=["run", "file-key", "verify"])
    def test_key_set_twice_exit_2_by_name(self, argv, config_path, tmp_path, capsys):
        # Otherwise the last value would win silently.
        out = tmp_path / "r.csv"
        argv = [config_path if a == "CONFIG" else a for a in argv]
        assert main([*argv, "--out", str(out), "--workers", "1"]) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ConfigError"
        key = argv[-1].split("=")[0].strip()
        assert f"duplicate key '{key}'" in payload["message"]
        assert captured.out == "" and not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--workers" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["run", "--set", "experiment=TwoBridgeLinUCB"], ["verify-simulation"]])
    def test_bad_worker_count_exit_2(self, command, capsys):
        assert main([*command, "--out", "-", "--workers", "0"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ConfigurationError", "message": "workers must be at least 1"}

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
            "run", "--set", "experiment=EigGrowth", "--set", "d=3", "--set", "rho=0.3",
            "--set", "horizons=400", "--set", "replicates=1", "--out", "-", "--workers", "1",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "d = 2" in err["message"]

    def test_eig_growth_horizon_below_floor_round_exit_2(self, capsys):
        # No round would be checked: the run reported a bound fraction of 1.0
        # and wrote min_ratio as Infinity, which is not JSON.
        code = main([
            "run", "--set", "experiment=EigGrowth", "--set", "horizons=1999",
            "--set", "replicates=1", "--out", "-", "--workers", "1",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "horizons" in err["message"] and "2000" in err["message"]

    def test_comparator_with_two_horizons_exit_2(self, capsys):
        # Both horizons map to the comparator horizon 400 // 20 = 410 // 20 = 20.
        code = main([
            "run", "--set", "experiment=GreedyVsLinUCB", "--set", "horizons=400,410",
            "--set", "batch=20", "--set", "replicates=2", "--out", "-", "--workers", "1",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "GreedyVsLinUCB takes one horizon" in err["message"]

    @pytest.mark.parametrize("experiment, policies, horizon", [
        ("TwoBridgeLinUCB", "linucb,linucb", 2000),
        ("GreedyVsLinUCB", "linucb,linucb,batch_freq_greedy", 4000),
    ])
    def test_repeated_policy_exit_2(self, experiment, policies, horizon, tmp_path, capsys):
        # A repeated name would run its cell twice and count every replicate twice.
        out = tmp_path / "r.csv"
        code = main([
            "run", "--set", f"experiment={experiment}", "--set", f"policies={policies}",
            "--set", f"horizons={horizon}", "--set", "replicates=2", "--out", str(out), "--workers", "1",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert f"policies must be one or more distinct values, got {tuple(policies.split(','))!r}" in err["message"]
        assert experiment in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("experiment, sets, message", [
        ("TwoBridgeLinUCB", ["horizons=2,3", "policies=oracle"], "oracle on TwoBridgeLinUCB cannot run at T = 2"),
        ("ScalingFit", ["horizons=6,7,8", "policies=linucb"], "linucb on ScalingFit cannot run at T = 6"),
        ("ScalingFit", ["horizons=10,100000", "policies=linucb"], "linucb on ScalingFit cannot run at T = 10"),
        ("GreedyVsLinUCB", ["horizons=1000"], "linucb on GreedyVsLinUCB cannot run at T // batch = 5"),
        ("ExternalityVanishing", ["horizons=1000"], "cannot run at T // batch = 5"),
    ], ids=["two-bridge", "scaling-short", "scaling-wide", "greedy-comparator", "externality-comparator"])
    def test_horizon_too_short_for_linucb_exit_2(self, experiment, sets, message, capsys):
        argv = ["run", "--set", f"experiment={experiment}", "--set", "replicates=1", "--out", "-", "--workers", "1"]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert message in err["message"]
        assert "S must be positive and smaller than the horizon" in err["message"]

    def test_zero_ridge_with_perturbed_linucb_exit_2(self, capsys):
        argv = ["run", "--set", "experiment=ScalingFit", "--set", "ridge=0", "--set", "horizons=200,400,800",
                "--set", "replicates=1", "--out", "-", "--workers", "1"]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "ridge must be in [1e-100, inf), got 0.0" in err["message"]

    @pytest.mark.parametrize("key, value", [
        ("ridge", "nan"), ("ridge", "inf"), ("ridge", "1e-155"),
        ("rho", "nan"), ("rho", "-0.0"),
        ("prior_scale", "nan"), ("prior_scale", "inf"), ("prior_scale", "1e200"), ("prior_scale", "1e-200"),
        ("catalog_seed", "-5"),
    ])
    def test_value_outside_its_domain_exit_2_by_name(self, key, value, capsys):
        # Each of these once ran: with inf regret, or into a replicate failure (exit 3).
        argv = ["run", "--set", "experiment=ScalingFit", "--set", "horizons=50,60,70", "--set", "policies=linucb",
                "--set", f"{key}={value}", "--set", "replicates=2", "--out", "-", "--workers", "1"]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"{key} must be in ")

    @pytest.mark.parametrize("experiment", ["TwoBridgeLinUCB", "TwoBridgeImpossibility"])
    def test_nonzero_ridge_on_two_bridge_exit_2(self, experiment, capsys):
        # Two-bridge LinUCB has no ridge to set: a nonzero one would change nothing.
        argv = ["run", "--set", f"experiment={experiment}", "--set", "ridge=5", "--set", "horizons=500,1000",
                "--set", "replicates=1", "--out", "-", "--workers", "1"]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert f"{experiment} does not read key 'ridge'" in err["message"]

    def test_one_dimensional_two_group_catalog_exit_2(self, capsys):
        argv = ["run", "--set", "experiment=ExternalityVanishing", "--set", "d=1", "--set", "rho=0.5",
                "--set", "horizons=4000", "--set", "replicates=1", "--out", "-", "--workers", "1"]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "d of at least 2" in err["message"]

    def test_memory_error_exit_3(self, config_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("injected")

        monkeypatch.setattr(cli, "run_experiment", exhausted)
        assert main(["run", config_path, "--out", "-", "--workers", "1"]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "MemoryError"
        assert "out of memory" in err["message"]

    def test_failed_write_keeps_old_output(self, config_path, tmp_path, capsys, monkeypatch):
        out = tmp_path / "results.csv"
        out.write_text("old table\n")

        def refuse(src, dst):
            raise OSError("injected rename failure")

        monkeypatch.setattr(os, "replace", refuse)
        assert main(["run", config_path, "--out", str(out), "--workers", "1"]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "OSError"
        assert out.read_text() == "old table\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "results.csv"]

    def test_symlinked_output_written_through(self, config_path, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("old table\n")
        table.chmod(0o640)
        link = tmp_path / "results.csv"
        link.symlink_to(table)
        assert main(["run", config_path, "--out", str(link), "--workers", "1"]) == 0
        assert link.is_symlink() and link.resolve() == table.resolve()
        assert table.read_text().startswith("experiment,policy,")
        assert table.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "results.csv", "table.csv"]

    def test_scaling_fit_skips_policy_without_positive_regret(self, tmp_path, capsys):
        # Greedy at T = 2, 3, 4 can have zero mean regret at some horizon:
        # no power law fits it, and the run still succeeds.
        aggregates = tmp_path / "aggregates.json"
        argv = ["run", "--set", "experiment=ScalingFit", "--set", "horizons=2,3,4",
                "--set", "policies=batch_bayes_greedy", "--set", "replicates=2", "--workers", "1",
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
                "--set", "n_targets=4",
                "--set", "sim_draws=2000",
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

    def test_rejection_budget_exceeded_exit_4(self, capsys, monkeypatch):
        # Every KS test rejects, so a budget of 0 is exceeded.
        monkeypatch.setattr(experiments, "ks_2samp_equal", lambda x, y: (1.0, 0.0))
        code = main(
            [
                "verify-simulation",
                "--workers", "1",
                "--set", "n_targets=3",
                "--set", "sim_draws=1000",
                "--max-rejections", "0",
                "--out", "-",
            ]
        )
        assert code == 4
        captured = capsys.readouterr()
        err = json.loads(captured.err.strip())
        assert err["error"] == "SimulationMismatch"
        # The report is still written before the failure is signalled.
        assert json.loads(captured.out)["n_targets"] == 3

    def test_negative_rejection_budget_exit_2(self, capsys):
        # A budget below 0 would fail every audit, however well it matched.
        argv = ["verify-simulation", "--set", "n_targets=2", "--set", "sim_draws=100", "--max-rejections", "-1", "--out", "-"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err.strip())
        assert err["error"] == "ConfigError"
        assert "--max-rejections" in err["message"]
        assert captured.out == ""

    @pytest.mark.parametrize("text, message", [
        ("rho = 0", "rho must be positive"),
        ("horizons = 200", "first horizon must be at least batch"),
        ("horizons = 2\nbatch = 1", "batch must be at least d"),
    ], ids=["no-perturbation", "no-full-batch", "batch-below-d"])
    def test_audit_without_a_full_diverse_batch_exit_2(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text(text + "\n")
        assert main(["verify-simulation", str(cfg), "--set", "n_targets=2", "--set", "sim_draws=100", "--out", "-"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert message in err["message"]

    def test_singular_audited_batch_exit_4(self, tmp_path, capsys):
        # Valid, but one catalog entry with two actions and almost no
        # perturbation gives a batch whose Gram matrix is singular.  At two
        # workers the error is raised in a pool worker, whatever the CPU count.
        cfg = tmp_path / "singular.cfg"
        cfg.write_text("rho = 1e-9\ncatalog_size = 1\nn_actions = 2\n")
        for workers in ("1", "2"):
            argv = ["verify-simulation", str(cfg), "--set", "n_targets=2", "--set", "sim_draws=100", "--workers", workers]
            assert main([*argv, "--out", "-"]) == 4
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "InsufficientDiversityError"

    def test_audit_run_with_zero_workers_exit_2(self, capsys):
        argv = ["run", "--set", "experiment=SimulationVerify", "--set", "n_targets=2", "--set", "sim_draws=100",
                "--workers", "0", "--out", "-"]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ConfigurationError", "message": "workers must be at least 1"}

    def test_wrong_experiment_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "wrong.cfg"
        cfg.write_text("experiment = ScalingFit\n")
        for flags, message in (
            ([], "verify-simulation requires the SimulationVerify experiment"),
            (["--set", "n_targets=3"], "ScalingFit does not read key 'n_targets'"),
            (["--set", "sim_draws=500"], "ScalingFit does not read key 'sim_draws'"),
        ):
            assert main(["verify-simulation", str(cfg), "--out", "-", *flags]) == 2
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "ConfigError" and message in err["message"]

    def test_set_reaches_the_audit(self, tmp_path):
        def report(*sets):
            out = tmp_path / "report.json"
            argv = ["verify-simulation", "--set", "n_targets=2", "--set", "sim_draws=500"]
            for item in sets:
                argv += ["--set", item]
            assert main([*argv, "--workers", "1", "--out", str(out)]) == 0
            return json.loads(out.read_text())

        default = report()
        assert report("catalog_seed=9") != default
        smaller_rho = report("rho=0.1")
        assert smaller_rho != default and smaller_rho["n_targets"] == 2


# Keys that change nothing for an experiment, each probed at a value other than its default.
UNREAD_PROBES = [
    ("TwoBridgeLinUCB", "rho = 0.1", "'rho'"),
    ("TwoBridgeLinUCB", "prior_scale = 3", "'prior_scale'"),
    ("TwoBridgeLinUCB", "catalog_seed = 99", "'catalog_seed'"),
    ("TwoBridgeLinUCB", "n_targets = 5", "'n_targets'"),
    ("TwoBridgeLinUCB", "ridge = 0", "'ridge'"),
    ("TwoBridgeImpossibility", "theta_variant = theta1", "'theta_variant'"),
    ("TwoBridgeImpossibility", "population = minority", "'population'"),
    ("TwoBridgeLinUCB", "policies = oracle\npopulation = minority", "'population'"),
    ("TwoBridgeLinUCB", "policies = oracle\nrestriction = coin", "'restriction'"),
    ("TwoBridgeLinUCB", "restriction_p = 0.3\nrestriction = coin\npolicies = oracle", "'restriction_p'"),
    ("TwoBridgeImpossibility", "policies = oracle\nrestriction = coin", "'restriction'"),
    ("TwoBridgeLinUCB", "batch = 50", "'batch'"),
    ("TwoBridgeLinUCB", "policies = oracle, uniform_random\nnoise = bernoulli", "'noise'"),
    ("GreedyVsLinUCB", "noise = bernoulli", "'noise'"),
    ("GreedyVsLinUCB", "policies = batch_freq_greedy\nridge = 2", "'ridge'"),
    ("ScalingFit", "noise = bernoulli", "'noise'"),
    ("ScalingFit", "theta_variant = theta1", "'theta_variant'"),
    ("ScalingFit", "population = minority", "'population'"),
    ("ScalingFit", "sim_draws = 77", "'sim_draws'"),
    ("ScalingFit", "policies = linucb\nbatch = 50", "'batch'"),
    ("ExternalityVanishing", "restriction_p = 0.25", "'restriction_p'"),
    ("SimulationVerify", "replicates = 5", "'replicates'"),
    ("SimulationVerify", "ridge = 3", "'ridge'"),
    ("SimulationVerify", "restriction = coin", "'restriction'"),
    ("SimulationVerify", "noise = bernoulli", "'noise'"),
    ("SimulationVerify", "policies = linucb", "'linucb'"),
    ("EigGrowth", "ridge = 2", "'ridge'"),
    ("EigGrowth", "policies = batch_bayes_greedy", "'batch_bayes_greedy'"),
]

# Each experiment at a tiny scale, and the policies it switches to when the
# sync guard varies them.  At this scale every pair of allowed policies pays
# different regret, the oracle included.
TINY = {
    # LinUCB's picks rarely depend on the noise law; at this seed they do in
    # replicate 1 at T = 30.
    "TwoBridgeLinUCB": ("horizons = 30, 60\nreplicates = 2\nmaster_seed = 32\npopulation = minority",
                        "linucb_full"),
    "TwoBridgeImpossibility": ("horizons = 300, 600\nreplicates = 2", "linucb_full, batch_freq_greedy"),
    "GreedyVsLinUCB": ("horizons = 400\nreplicates = 2\nbatch = 20", "batch_freq_greedy, linucb"),
    "ScalingFit": ("horizons = 200, 300, 400\nreplicates = 2", "linucb, batch_freq_greedy"),
    "ExternalityVanishing": ("horizons = 400\nreplicates = 2\nbatch = 20", "batch_freq_greedy, linucb_full"),
    "SimulationVerify": ("horizons = 600\nbatch = 200\nn_targets = 2\nsim_draws = 200", "linucb"),
    "EigGrowth": ("horizons = 2000\nreplicates = 2\nbatch = 20", "linucb"),
}
# Second values; the first that differs from the tiny config's value is used.
ALTERNATES = {
    "master_seed": ["1"], "replicates": ["3"], "batch": ["25"], "restriction": ["coin"],
    "noise": ["bernoulli", "gaussian"], "theta_variant": ["theta1"], "population": ["minority", "full"],
    "d": ["3"], "n_actions": ["3"], "rho": ["0.2"], "catalog_size": ["5"], "catalog_seed": ["8"],
    "prior_scale": ["0.2"], "minority_prob": ["0.2", "0.4"], "ridge": ["50.0"], "n_targets": ["3"],
    "sim_draws": ["300"],
}
# Keys whose one valid value is the default: any other is rejected.
ONLY_VALUE = {("EigGrowth", "d"), ("EigGrowth", "policies"), ("SimulationVerify", "policies")}


class TestKeysRead:
    @pytest.mark.parametrize("experiment, lines, named", UNREAD_PROBES)
    def test_unread_key_exit_2(self, experiment, lines, named, tmp_path, capsys):
        cfg = tmp_path / "probe.cfg"
        cfg.write_text(f"experiment = {experiment}\n{lines}\n")
        command = "verify-simulation" if experiment == "SimulationVerify" else "run"
        assert main([command, str(cfg), "--out", "-"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert named in err["message"] and experiment in err["message"]

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_every_read_key_changes_the_output(self, experiment, tmp_path, capsys):
        base_text, other_policies = TINY[experiment]
        base = dict(line.split(" = ") for line in base_text.splitlines())

        def outputs(values: dict):
            cfg = tmp_path / "sync.cfg"
            cfg.write_text(f"experiment = {experiment}\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
            files = [tmp_path / name for name in ("r.csv", "a.json", "c.csv")]
            code = main(["run", str(cfg), "--out", str(files[0]), "--aggregates", str(files[1]),
                         "--curves", str(files[2]), "--workers", "1"])
            capsys.readouterr()
            return code, [f.read_bytes() for f in files] if code == 0 else None

        _, reference = outputs(base)
        current = parse_config(f"experiment = {experiment}\n{base_text}").to_dict()
        for key in sorted(keys_read(parse_config(f"experiment = {experiment}")) - {"experiment"}):
            if key == "horizons":
                second = ", ".join(str(t + 100) for t in current["horizons"])
            elif key == "policies":
                second = other_policies
            else:
                second = next(v for v in ALTERNATES[key] if v != str(current[key]))
            code, changed = outputs({**base, key: second})
            if (experiment, key) in ONLY_VALUE:
                assert code == 2, key
            else:
                assert code == 0 and changed != reference, key

    @pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS if len(EXPERIMENT_SPECS[e].policies) > 1])
    def test_every_allowed_policy_is_its_own_computation(self, experiment, tmp_path, capsys):
        # Two names for one computation would run each replicate twice.
        allowed = EXPERIMENT_SPECS[experiment].policies
        cfg = tmp_path / "every.cfg"
        cfg.write_text(f"experiment = {experiment}\n{TINY[experiment][0]}\npolicies = {', '.join(allowed)}\n")
        assert main(["run", str(cfg), "--out", "-", "--workers", "1"]) == 0
        regrets: dict = {}
        for row in parse_csv(capsys.readouterr().out):
            regrets.setdefault(row.policy, []).append((row.regret_total, row.regret_minority, row.regret_prediction))
        for a, b in itertools.combinations(allowed, 2):
            assert regrets[a] != regrets[b], (a, b)
