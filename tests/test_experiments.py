"""Experiment harness: instance construction, job fanout, aggregation."""

import json
import math
import os

import numpy as np
import pytest
from scipy import stats as sps

import banditsim.experiments as experiments
from banditsim.config import parse_config
from banditsim.csvio import emit_csv
from banditsim.experiments import (
    ExperimentResult,
    ReplicateError,
    build_instance,
    draw_theta_for_replicate,
    ks_2samp_equal,
    linucb_comparator_horizon,
    resolve_workers,
    run_experiment,
)
from banditsim.rng import Purpose, replicate_seed_id, stream
from banditsim.simulation import SIM_CHUNK, SIM_TILE
from oracles import chunked_simulated_rewards


def _cfg(text: str):
    return parse_config(text)


SMALL_TWO_BRIDGE = """
experiment = TwoBridgeLinUCB
horizons = 500, 1000
replicates = 6
"""

SMALL_GREEDY = """
experiment = GreedyVsLinUCB
horizons = 2000
batch = 200
replicates = 3
"""


class TestBuildInstance:
    def test_deterministic_and_seed_keyed(self):
        cfg = _cfg(SMALL_GREEDY)
        cat_a, prior_a = build_instance(cfg)
        cat_b, prior_b = build_instance(cfg)
        for name in ("means", "avail", "weights", "minority"):
            np.testing.assert_array_equal(getattr(cat_a, name), getattr(cat_b, name))
        np.testing.assert_array_equal(prior_a.mean, prior_b.mean)
        np.testing.assert_array_equal(prior_a.chol, prior_b.chol)
        other = _cfg(SMALL_GREEDY + "catalog_seed = 11\n")
        _, prior_c = build_instance(other)
        assert not np.array_equal(prior_a.mean, prior_c.mean)

    def test_master_seed_leaves_instance_unchanged(self):
        cfg = _cfg(SMALL_GREEDY)
        reseeded = _cfg(SMALL_GREEDY + "master_seed = 99\n")
        _, prior_a = build_instance(cfg)
        _, prior_b = build_instance(reseeded)
        np.testing.assert_array_equal(prior_a.mean, prior_b.mean)

    def test_prior_mean_norm_matches_width_regime(self):
        cfg = _cfg(SMALL_GREEDY)
        _, prior = build_instance(cfg)
        expected = 1.0 + math.sqrt(3.0 * math.log(max(cfg.horizons)))
        assert np.linalg.norm(prior.mean) == pytest.approx(expected)
        np.testing.assert_array_equal(prior.chol, cfg.prior_scale * np.eye(cfg.d))

    def test_catalog_layout(self):
        cfg = _cfg(SMALL_GREEDY + "n_actions = 3\ncatalog_size = 7\n")
        catalog, _ = build_instance(cfg)
        assert catalog.means.shape == (7, 3, cfg.d)
        # Every third entry lacks one slot, and that slot's mean is zeroed.
        lacking = np.argwhere(~catalog.avail)
        np.testing.assert_array_equal(lacking, [[2, 2], [5, 2]])
        assert not catalog.means[~catalog.avail].any()
        assert catalog.rho == cfg.rho and catalog.minority_prob == 0.0
        assert not catalog.minority.any()

    def test_two_group_catalog_and_minority_restriction(self):
        cfg = _cfg("experiment = ExternalityVanishing\nreplicates = 1\n")
        catalog, _ = build_instance(cfg)
        np.testing.assert_array_equal(catalog.minority, np.arange(cfg.catalog_size) % 2 == 1)
        assert catalog.minority_prob == cfg.minority_prob
        restricted = catalog.minority_only()
        assert restricted.minority.all()
        np.testing.assert_array_equal(restricted.means, catalog.means[1::2])
        assert restricted.minority_prob == 0.0

    def test_minority_only_requires_minority_entries(self):
        cfg = _cfg(SMALL_GREEDY)
        catalog, _ = build_instance(cfg)
        with pytest.raises(ValueError):
            catalog.minority_only()

    def test_one_instance_and_one_prior_per_run(self, monkeypatch):
        # Every job shares the run's instance, and its prior is validated and
        # factored once, not once per replicate.
        import banditsim.engines as engines
        import banditsim.estimators as estimators

        calls = {"build_instance": 0, "gaussian_prior": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(experiments, "build_instance", counted("build_instance", experiments.build_instance))
        prior_fn = counted("gaussian_prior", estimators.gaussian_prior)
        for module in (estimators, engines, experiments):
            if hasattr(module, "gaussian_prior"):
                monkeypatch.setattr(module, "gaussian_prior", prior_fn)
        cfg = _cfg("experiment = GreedyVsLinUCB\nhorizons = 400\nbatch = 100\nreplicates = 3\n"
                   "policies = batch_bayes_greedy, batch_freq_greedy\n")
        run_experiment(cfg, workers=1)
        assert calls == {"build_instance": 1, "gaussian_prior": 1}


class TestThetaDraws:
    def test_replicates_get_distinct_draws(self):
        cfg = _cfg(SMALL_GREEDY)
        _, prior = build_instance(cfg)
        a = draw_theta_for_replicate(cfg, prior, 0)
        b = draw_theta_for_replicate(cfg, prior, 0)
        c = draw_theta_for_replicate(cfg, prior, 1)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestWorkers:
    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv("BANDITSIM_WORKERS", "5")
        assert resolve_workers(3) == 3

    def test_environment_is_ignored(self, monkeypatch):
        # --workers, or the workers argument, alone sets the count.
        for value in ("5", "many", "0"):
            monkeypatch.setenv("BANDITSIM_WORKERS", value)
            assert resolve_workers(None) == min(os.cpu_count() or 1, 8)

    def test_invalid_argument(self):
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_default_is_bounded(self):
        assert 1 <= resolve_workers(None) <= 8


class TestComparatorHorizon:
    def test_one_round_per_batch(self):
        assert linucb_comparator_horizon(20_000, 200) == 100

    def test_floor_of_two(self):
        assert linucb_comparator_horizon(100, 200) == 2


class TestRunExperiment:
    def test_rows_sorted_and_seeded(self):
        cfg = _cfg(SMALL_TWO_BRIDGE)
        result = run_experiment(cfg, workers=1)
        keys = [(r.policy, r.horizon, r.replicate) for r in result.rows]
        assert keys == sorted(keys)
        assert len(result.rows) == 2 * 6
        for row in result.rows:
            assert row.seed == replicate_seed_id(cfg.master_seed, row.replicate)
            assert row.experiment == "TwoBridgeLinUCB"
            assert row.theta_draw_id == 0

    def test_serial_parallel_and_rerun_identical(self):
        cfg = _cfg(SMALL_TWO_BRIDGE)
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=3)
        rerun = run_experiment(cfg, workers=1)
        assert emit_csv(serial.rows) == emit_csv(parallel.rows)
        assert emit_csv(serial.rows) == emit_csv(rerun.rows)
        assert serial.aggregates == parallel.aggregates

    def test_greedy_vs_linucb_aggregates(self):
        cfg = _cfg(SMALL_GREEDY)
        result = run_experiment(cfg, workers=2)
        comp = result.aggregates["greedy_vs_linucb"]
        assert set(comp) == {"batch_bayes_greedy", "batch_freq_greedy"}
        for name, entry in comp.items():
            assert entry["linucb_horizon"] == 10
            assert entry["rhs"] >= entry["linucb_mean"] * cfg.batch
            assert isinstance(entry["within_bound"], bool)
        assert comp["batch_bayes_greedy"]["gap_allowance"] == 0.0
        assert comp["batch_freq_greedy"]["gap_allowance"] > 0.0
        probes = result.aggregates["estimator_gap_probes"]
        assert set(probes) == {"1000"}
        assert probes["1000"]["count"] == cfg.replicates
        # LinUCB comparator rows run at the shortened horizon.
        lin_rows = [r for r in result.rows if r.policy == "linucb"]
        assert {r.horizon for r in lin_rows} == {10}

    def test_prediction_regret_is_the_total_but_for_frequentist_greedy(self):
        # Only frequentist greedy acts on another estimate than the posterior
        # mean it predicts with; every other row reports its total.
        rows = run_experiment(_cfg(SMALL_GREEDY), workers=1).rows + run_experiment(_cfg(SMALL_TWO_BRIDGE)).rows
        assert {r.policy for r in rows} == {"batch_bayes_greedy", "batch_freq_greedy", "linucb"}
        for row in rows:
            if row.policy != "batch_freq_greedy":
                assert row.regret_prediction == row.regret_total
        assert all(r.regret_prediction != r.regret_total for r in rows if r.policy == "batch_freq_greedy")

    def test_gap_probes_survive_without_comparator(self):
        cfg = _cfg(SMALL_GREEDY + "policies = batch_freq_greedy\n")
        result = run_experiment(cfg)
        assert "greedy_vs_linucb" not in result.aggregates
        probes = result.aggregates["estimator_gap_probes"]
        assert probes["1000"]["count"] == cfg.replicates

    def test_impossibility_draws_theta_uniformly(self):
        cfg = _cfg(
            "experiment = TwoBridgeImpossibility\n"
            "horizons = 400, 900\n"
            "replicates = 12\n"
            "policies = uniform_random\n"
        )
        result = run_experiment(cfg, workers=1)
        ids = {r.theta_draw_id for r in result.rows}
        assert ids == {0, 1}
        for row in result.rows:
            coin = int(stream(cfg.master_seed, row.replicate, Purpose.THETA).random() < 0.5)
            assert row.theta_draw_id == coin
        checks = result.aggregates["impossibility_checks"]
        assert set(checks) == {"uniform_random@T=400", "uniform_random@T=900"}
        assert checks["uniform_random@T=400"]["floor"] == pytest.approx(0.2)
        assert checks["uniform_random@T=900"]["floor"] == pytest.approx(0.3)
        for entry in checks.values():
            assert isinstance(entry["above_floor"], bool)

    def test_replicate_failures_carry_seed(self, monkeypatch):
        cfg = _cfg(
            "experiment = ExternalityVanishing\n"
            "horizons = 400\n"
            "replicates = 3\n"
            "policies = batch_freq_greedy\n"
        )
        engine = experiments.run_perturbed_batch_greedy
        blocks = []

        def fail_on_replicate_1(catalog, prior, cells, thetas, horizon, batch, master_seed, replicates, **kwargs):
            blocks.append(replicates)
            if 1 in replicates:
                raise FloatingPointError("injected")
            return engine(catalog, prior, cells, thetas, horizon, batch, master_seed, replicates, **kwargs)

        monkeypatch.setattr(experiments, "run_perturbed_batch_greedy", fail_on_replicate_1)
        with pytest.raises(ReplicateError) as err:
            run_experiment(cfg, workers=1)
        # The block fails as a whole; its replicates then run one at a time.
        assert blocks == [(0, 1, 2), (0,), (1,)]
        assert "replicate 1 " in str(err.value)
        assert str(replicate_seed_id(cfg.master_seed, 1)) in str(err.value)

    def test_two_policy_greedy_failure_names_its_replicate(self, monkeypatch):
        cfg = _cfg(SMALL_GREEDY + "policies = batch_bayes_greedy, batch_freq_greedy, linucb\n")
        engine = experiments.run_perturbed_batch_greedy
        calls = []

        def fail_on_replicate_1(catalog, prior, cells, thetas, horizon, batch, master_seed, replicates, **kwargs):
            calls.append((replicates, tuple(cell.acting for cell in cells)))
            if 1 in replicates:
                raise FloatingPointError("injected")
            return engine(catalog, prior, cells, thetas, horizon, batch, master_seed, replicates, **kwargs)

        monkeypatch.setattr(experiments, "run_perturbed_batch_greedy", fail_on_replicate_1)
        with pytest.raises(ReplicateError) as err:
            run_experiment(cfg, workers=1)
        # One call runs both rules; after the block fails, its replicates run one at a time.
        assert calls == [((0, 1, 2), ("bayes", "freq")), ((0,), ("bayes", "freq")), ((1,), ("bayes", "freq"))]
        seed = replicate_seed_id(cfg.master_seed, 1)
        assert str(err.value) == (
            f"replicate 1 of GreedyVsLinUCB/batch_bayes_greedy,batch_freq_greedy/T=2000 failed "
            f"(seed {seed}): injected"
        )

    def test_two_bridge_failure_names_its_replicate(self, monkeypatch):
        cfg = _cfg(
            "experiment = TwoBridgeImpossibility\n"
            "horizons = 400, 900\n"
            "replicates = 3\n"
            "policies = linucb_full, batch_freq_greedy\n"
        )
        engine = experiments.run_two_bridge_batch_freq
        calls = []

        def fail_on_replicate_1(cell, rounds, master_seed, replicate, batch, sums):
            calls.append((replicate, cell.horizon))
            if replicate == 1:
                raise FloatingPointError("injected")
            return engine(cell, rounds, master_seed, replicate, batch, sums=sums)

        monkeypatch.setattr(experiments, "run_two_bridge_batch_freq", fail_on_replicate_1)
        with pytest.raises(ReplicateError) as err:
            run_experiment(cfg, workers=1)
        # Replicate 0 runs both horizons; replicate 1 fails at its first cell.
        assert calls == [(0, 400), (0, 900), (1, 400)]
        seed = replicate_seed_id(cfg.master_seed, 1)
        assert str(err.value) == (
            f"replicate 1 of TwoBridgeImpossibility/linucb_full,batch_freq_greedy/T=400,900 failed "
            f"(seed {seed}): injected"
        )

    def test_eig_growth_aggregates(self):
        cfg = _cfg(
            "experiment = EigGrowth\n"
            "horizons = 3000\n"
            "replicates = 2\n"
            "batch = 300\n"
        )
        result = run_experiment(cfg, workers=1)
        eig = result.aggregates["eig_growth"]
        assert eig["replicates"] == 2
        assert 0.0 <= eig["bound_fraction"] <= 1.0
        assert eig["floor_round"] == 2000
        assert eig["mean_final_lambda"] > 0.0


SMALL_SCALING = """
experiment = ScalingFit
horizons = 200, 400, 800
replicates = 35
"""

SMALL_EXTERNALITY = """
experiment = ExternalityVanishing
horizons = 4000
replicates = 35
"""


def _outputs(cfg, workers: int) -> tuple:
    """CSV, aggregates and curves of a run, as the bytes that would be written."""
    result = run_experiment(cfg, workers=workers)
    return (
        emit_csv(result.rows),
        json.dumps(result.aggregates, sort_keys=True, default=repr),
        repr(result.curves),
    )


class TestLinUCBBlocks:
    @pytest.mark.parametrize("text", [SMALL_SCALING, SMALL_EXTERNALITY], ids=["scaling", "externality"])
    def test_outputs_independent_of_workers_and_block(self, text, monkeypatch):
        cfg = _cfg(text)
        # A full and a ragged block of each engine.
        assert cfg.replicates > max(experiments.LINUCB_BLOCK, experiments.GREEDY_BLOCK)
        assert cfg.replicates % experiments.LINUCB_BLOCK and cfg.replicates % experiments.GREEDY_BLOCK
        blocked = _outputs(cfg, workers=1)
        assert _outputs(cfg, workers=3) == blocked
        monkeypatch.setattr(experiments, "LINUCB_BLOCK", 1)
        monkeypatch.setattr(experiments, "GREEDY_BLOCK", 1)
        assert _outputs(cfg, workers=1) == blocked

    def test_perturbed_jobs_hold_blocks_of_their_engine(self):
        cfg = _cfg(SMALL_SCALING)
        jobs = experiments._jobs_for(cfg, build_instance(cfg))
        greedy = ("batch_bayes_greedy", "batch_freq_greedy")
        for engine, _, _, policies, horizons, reps in jobs:
            # A LinUCB job holds every horizon of its policy, a greedy job
            # every horizon of both greedy policies.
            assert horizons == cfg.horizons
            if policies == ("linucb",):
                block = experiments.LINUCB_BLOCK
                assert engine is experiments._linucb_job
            else:
                block = experiments.GREEDY_BLOCK
                assert engine is experiments._greedy_job and policies == greedy
            # Full blocks and one ragged block per cell.
            assert len(reps) in (block, 35 % block)
        covered = sorted((p, t, r) for *_, ps, hs, reps in jobs for p in ps for t in hs for r in reps)
        assert covered == sorted(
            (p, t, r) for p in cfg.policies for t in cfg.horizons for r in range(35)
        )
        # Replicate 0, whose curve is kept, leads its block, so the engine tracks its curve.
        assert [(ps, hs, reps[0]) for *_, ps, hs, reps in jobs if 0 in reps] == [
            (("linucb",), cfg.horizons, 0),
            (greedy, cfg.horizons, 0),
        ]

    def test_two_group_policies_get_their_engines(self):
        cfg = _cfg(SMALL_EXTERNALITY)
        engines = {p: job[0] for job in experiments._jobs_for(cfg, build_instance(cfg)) for p in job[3]}
        assert engines == {
            "batch_freq_greedy": experiments._greedy_job,
            "linucb_minority": experiments._linucb_job,
            "linucb_full": experiments._linucb_job,
        }

    def test_retry_runs_each_replicate_on_the_job_engine(self):
        calls = []

        def engine(cfg, instance, policy, horizons, reps):
            calls.append(reps)
            if len(reps) > 1:
                raise FloatingPointError("injected")
            return [(policy, horizons, reps[0])]

        job = (engine, _cfg(SMALL_SCALING), None, "linucb", (200, 400), (4, 5, 6))
        assert experiments._run_job(job) == [("linucb", (200, 400), rep) for rep in (4, 5, 6)]
        assert calls == [(4, 5, 6), (4,), (5,), (6,)]

    def test_outputs_independent_of_job_order(self, monkeypatch):
        cfg = _cfg(SMALL_SCALING)
        forward = _outputs(cfg, workers=1)
        jobs_for = experiments._jobs_for
        monkeypatch.setattr(experiments, "_jobs_for", lambda *args: jobs_for(*args)[::-1])
        assert _outputs(cfg, workers=1) == forward
        assert _outputs(cfg, workers=2) == forward

    def test_chunks_hold_consecutive_jobs_of_about_equal_work(self):
        cfg = _cfg(SMALL_SCALING)
        jobs = experiments._jobs_for(cfg, build_instance(cfg))
        work = {id(job): len(job[3]) * sum(job[4]) * len(job[5]) for job in jobs}
        share = sum(work.values()) / 8
        chunks = experiments._work_chunks(jobs, 8)
        assert [job for chunk in chunks for job in chunk] == jobs
        assert len(chunks) <= 8
        for chunk in chunks:
            # A chunk stays within a share of the work, plus the job that crosses into the next share.
            assert len(chunk) == 1 or sum(work[id(job)] for job in chunk[:-1]) < share
        # The multi-horizon LinUCB blocks do not all land in one chunk.
        linucb = {i for i, chunk in enumerate(chunks) for job in chunk if job[3] == ("linucb",)}
        assert len(linucb) > 1

    def test_two_bridge_jobs_hold_one_replicate_at_every_policy_and_horizon(self):
        allowed = experiments.EXPERIMENT_SPECS["TwoBridgeLinUCB"].policies
        cfg = _cfg(SMALL_TWO_BRIDGE + f"policies = {', '.join(allowed)}\n")
        jobs = experiments._jobs_for(cfg, None)
        assert [job[5] for job in jobs] == [(rep,) for rep in range(cfg.replicates)]
        for engine, _, _, policies, horizons, reps in jobs:
            assert engine is experiments._two_bridge_job
            assert (policies, horizons) == (allowed, cfg.horizons)

    def test_failing_replicate_in_block_carries_its_seed(self, monkeypatch):
        cfg = _cfg("experiment = ScalingFit\nhorizons = 200, 400, 800\nreplicates = 6\npolicies = linucb\n")
        engine = experiments.run_perturbed_linucb

        def fail_on_replicate_3(catalog, cells, thetas, horizon, master_seed, replicates):
            if 3 in replicates:
                raise FloatingPointError("injected")
            return engine(catalog, cells, thetas, horizon, master_seed, replicates)

        monkeypatch.setattr(experiments, "run_perturbed_linucb", fail_on_replicate_3)
        with pytest.raises(ReplicateError) as err:
            run_experiment(cfg, workers=1)
        assert "replicate 3 " in str(err.value)
        assert str(replicate_seed_id(cfg.master_seed, 3)) in str(err.value)
        # The failing job held every horizon, and the message names them all.
        assert "ScalingFit/linucb/T=200,400,800 " in str(err.value)


class TestUniformRandomCalibration:
    def test_minority_regret_matches_population_rate(self):
        # Uniform play errs on half the decision rounds; with 0.25% of rounds
        # carrying a 1/sqrt(T) gap the expected restricted regret at T = 10^4
        # is sqrt(T) / 800 = 0.125.
        cfg = _cfg(
            "experiment = TwoBridgeLinUCB\n"
            "horizons = 10000\n"
            "replicates = 200\n"
            "policies = uniform_random\n"
        )
        result = run_experiment(cfg, workers=1)
        cell = result.aggregates["summary"]["uniform_random@T=10000"]
        mean = cell["regret_minority"]["mean"]
        se = cell["regret_minority"]["se"]
        assert mean == pytest.approx(0.125, abs=3 * se)


class TestExperimentCurves:
    def test_curves_monotone_and_consistent_with_rows(self, monkeypatch):
        cfg = _cfg(SMALL_TWO_BRIDGE)
        calls = []
        engine = experiments.run_two_bridge_policy

        def counted(*args, sums, **kwargs):
            res = engine(*args, sums=sums, **kwargs)
            calls.append(sums.curve() is not None)
            return res

        monkeypatch.setattr(experiments, "run_two_bridge_policy", counted)
        result = run_experiment(cfg, workers=1)
        # One engine call per row: the curves come from the main run.
        assert len(calls) == len(result.rows) == 12
        assert sum(calls) == 2
        assert list(result.curves) == [("linucb", 500), ("linucb", 1000)]
        rows = {r.horizon: r for r in result.rows if r.replicate == 0}
        for (_, horizon), points in result.curves.items():
            ts = [p[0] for p in points]
            vals = [p[1] for p in points]
            assert len(points) <= experiments.CURVE_POINTS
            assert ts == sorted(ts)
            assert ts[-1] == horizon
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert vals[-1] == pytest.approx(rows[horizon].regret_total)

    def test_simulation_verify_has_no_curves(self):
        cfg = _cfg("experiment = SimulationVerify\nsim_draws = 1000\nn_targets = 2\n")
        assert run_experiment(cfg).curves == {}


AUDIT_CONFIG = "experiment = SimulationVerify\nhorizons = 600\nbatch = 200\nsim_draws = 2000\n"


class TestSimulationAudit:
    def test_report_equals_chunked_oracle(self, monkeypatch):
        # Ragged against both the tile and the stretch of the draw stream.
        n = SIM_CHUNK + SIM_TILE + 3
        cfg = _cfg("experiment = SimulationVerify\nhorizons = 600\nbatch = 200\n"
                   f"n_targets = 2\nsim_draws = {n}\n")
        report = experiments.simulation_verification_report(cfg, workers=1)
        assert report["n_draws"] == n
        assert all(t["residual_var"] > 0.0 for t in report["targets"])
        # One worker, so the patch applies in this process and needs no fork.
        monkeypatch.setattr(experiments, "simulate_reward_many", chunked_simulated_rewards)
        assert experiments.simulation_verification_report(cfg, workers=1) == report

    def test_report_does_not_depend_on_worker_count(self):
        cfg = _cfg(AUDIT_CONFIG + "n_targets = 5\n")
        report = experiments.simulation_verification_report(cfg, workers=1)
        assert experiments.simulation_verification_report(cfg, workers=2) == report

    def test_targets_are_keyed_by_index(self):
        cfg = _cfg(AUDIT_CONFIG + "n_targets = 5\n")
        few = experiments.simulation_verification_report(_cfg(AUDIT_CONFIG + "n_targets = 3\n"), workers=1)
        many = experiments.simulation_verification_report(cfg, workers=1)
        assert few["targets"] == many["targets"][:3]
        assert few["lambda_min"] == many["lambda_min"]
        # Target i's radius is the first uniform of its own stream, after its direction.
        for i, target in enumerate(many["targets"]):
            rng = stream(cfg.master_seed, i, Purpose.SIMULATION)
            rng.standard_normal(cfg.d)
            assert target["target_norm"] == math.sqrt(many["lambda_min"]) * rng.random()


class TestKsTwoSampleEqual:
    """The audit's KS test against SciPy's ``ks_2samp`` on samples of equal size."""

    @staticmethod
    def _samples(m: int, shift: float, seed: int):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(m), rng.standard_normal(m) + shift / math.sqrt(m)

    @pytest.mark.parametrize("m", [10, 200, 2000, 10_000])
    def test_exact_p_value_matches_scipy(self, m):
        # Up to 10 000 SciPy evaluates the same exact sum, and reports the
        # statistic as h/m; the unrounded CDF gap i/m - j/m is off by ulps of 1.
        for seed, shift in enumerate((0.0, 1.0, 2.0, 4.0, 6.0)):
            x, y = self._samples(m, shift, seed)
            ref = sps.ks_2samp(x, y)
            statistic, p_value = ks_2samp_equal(x, y)
            assert round(statistic * m) == round(ref.statistic * m)
            assert statistic == pytest.approx(ref.statistic, rel=0, abs=4 * np.finfo(float).eps)
            assert p_value == pytest.approx(ref.pvalue, rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", [25_000, 100_000])
    def test_large_samples_keep_scipy_statistic_and_decision(self, m):
        # Above 10 000 SciPy approximates the p-value by the one-sample law
        # at n = m/2; the statistic is the same unrounded CDF gap.
        decisions = set()
        for seed, shift in enumerate((0.0, 2.0, 6.0, 8.0)):
            x, y = self._samples(m, shift, seed)
            ref = sps.ks_2samp(x, y)
            statistic, p_value = ks_2samp_equal(x, y)
            assert statistic == ref.statistic
            assert p_value == pytest.approx(ref.pvalue, rel=0.02, abs=0)
            assert (p_value < 0.01) == (ref.pvalue < 0.01)
            decisions.add(p_value < 0.01)
        assert decisions == {True, False}

    def test_identical_and_unequal_samples(self):
        x = np.random.default_rng(5).standard_normal(50)
        assert ks_2samp_equal(x, x.copy()) == (0.0, 1.0)
        with pytest.raises(ValueError, match="equal size"):
            ks_2samp_equal(x, x[:-1])
