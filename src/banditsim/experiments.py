"""Named experiments: replicate scheduling, aggregation, and reproducibility.

Each experiment expands into independent (policy, horizon, replicate) jobs.
A job's randomness comes only from the purpose-keyed streams of its
replicate, so tables are byte-identical across repeated runs and across any
worker count; rows are sorted by (policy, T, replicate) before emission.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import stats as scipy_stats

from .config import ExperimentConfig
from .core import Group, NoiseKind
from .csvio import ResultRow
from .engines import (
    run_perturbed_batch_greedy,
    run_perturbed_linucb,
    run_two_bridge_batch_freq,
    run_two_bridge_policy,
)
from .environments import CatalogEntry, PerturbedConfig, TwoBridgeConfig, draw_theta
from .estimators import min_eigenvalue
from .metrics import bayesian_regret, scaling_exponent, scaling_exponent_bootstrap
from .policies import (
    LinUCBParams,
    context_norm_bound,
    suggested_batch_size,
)
from .rng import Purpose, replicate_seed_id, stream
from .simulation import simulate_reward_many, simulation_weights

WORKERS_ENV_VAR = "BANDITSIM_WORKERS"

# Rounds at which the batched engines probe the posterior/least-squares gap.
GAP_PROBE_ROUNDS = (1000, 8000)

# Replicates of one perturbed LinUCB cell that one job advances in lockstep.
# A constant, not derived from the worker count: a replicate's result does not
# depend on its block, and the blocks do not depend on the scheduling.
LINUCB_BLOCK = 32

TWO_BRIDGE_EXPERIMENTS = ("TwoBridgeLinUCB", "TwoBridgeImpossibility")


class ReplicateError(RuntimeError):
    """A replicate failed; carries the offending seed for reproduction."""


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple
    aggregates: dict


def resolve_workers(workers: int | None) -> int:
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        return workers
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV_VAR} must be an integer, got '{env}'") from None
        if value < 1:
            raise ValueError(f"{WORKERS_ENV_VAR} must be at least 1")
        return value
    return min(os.cpu_count() or 1, 8)


def build_instance(cfg: ExperimentConfig):
    """Deterministic perturbed instance for a config: catalog, prior mean, prior cov.

    The catalog and prior mean are keyed by ``catalog_seed`` (not the master
    seed), so reseeding an experiment varies the noise but not the instance.
    The prior mean norm is pushed up to 1 + sqrt(3 ln T_max), the regime the
    LinUCB width parameters assume.
    """
    rng = stream(cfg.catalog_seed, 0, Purpose.CATALOG)
    two_group = cfg.minority_prob > 0
    entries = []
    for j in range(cfg.catalog_size):
        group = Group.MINORITY if (two_group and j % 2 == 1) else Group.MAJORITY
        means = []
        for a in range(cfg.n_actions):
            v = rng.standard_normal(cfg.d)
            u = v / max(float(np.linalg.norm(v)), 1e-12)
            if two_group:
                bias = np.zeros(cfg.d)
                bias[0 if group is Group.MAJORITY else 1] = 1.0
                u = u + bias
                u = u / float(np.linalg.norm(u))
            radius = 0.35 + 0.6 * rng.random()
            means.append(radius * u)
        if j % 3 == 2 and cfg.n_actions > 2:
            means[j % cfg.n_actions] = None
        entries.append(CatalogEntry(weight=0.5 + rng.random(), means=tuple(means), group=group))
    instance = PerturbedConfig(tuple(entries), rho=cfg.rho, minority_prob=cfg.minority_prob)

    raw = rng.standard_normal(cfg.d)
    target = 1.0 + math.sqrt(3.0 * math.log(max(cfg.horizons)))
    prior_mean = raw * (target / max(float(np.linalg.norm(raw)), 1e-12))
    prior_cov = cfg.prior_scale**2 * np.eye(cfg.d)
    return instance, prior_mean, prior_cov


def minority_only_instance(instance: PerturbedConfig) -> PerturbedConfig:
    """Restrict a two-group catalog to its minority entries (all rounds minority)."""
    entries = instance.group_entries(Group.MINORITY)
    if not entries:
        raise ValueError("instance has no minority entries")
    return PerturbedConfig(entries, rho=instance.rho, minority_prob=0.0)


def _two_bridge_config(cfg: ExperimentConfig, horizon: int, theta_variant: str) -> TwoBridgeConfig:
    p_majority = 0.95 if cfg.population == "full" else 0.0
    noise = NoiseKind.GAUSSIAN_UNIT if cfg.noise == "gaussian" else NoiseKind.BERNOULLI
    return TwoBridgeConfig(
        horizon=horizon,
        theta_variant=theta_variant,
        noise=noise,
        p_majority=p_majority,
    )


def linucb_comparator_horizon(horizon: int, batch: int) -> int:
    """Horizon for the unbatched comparator: one round per batch of the main run."""
    return max(2, horizon // batch)


def _run_job(job) -> list:
    """Run one job: one (row, extras, curve) outcome per replicate it holds."""
    cfg, instance, policy, horizon, reps, track_curve = job
    try:
        if instance is None:
            return [_two_bridge_job(cfg, policy, horizon, rep, track_curve) for rep in reps]
        return _perturbed_job(cfg, instance, policy, horizon, reps, track_curve)
    except Exception as exc:
        if len(reps) > 1:
            # Replicates are independent of their block, so running them one
            # at a time gives the same outcomes and names the one that fails.
            return [
                out for rep in reps
                for out in _run_job((cfg, instance, policy, horizon, (rep,), track_curve))
            ]
        seed = replicate_seed_id(cfg.master_seed, reps[0])
        raise ReplicateError(
            f"replicate {reps[0]} of {cfg.experiment}/{policy}/T={horizon} failed "
            f"(seed {seed}): {exc}"
        ) from exc


def _two_bridge_job(cfg: ExperimentConfig, policy: str, horizon: int, rep: int, track_curve: bool = False) -> tuple:
    if cfg.experiment == "TwoBridgeImpossibility":
        # Minority-time design: every simulated round is a minority round and
        # the latent weights are a fresh uniform draw over the two variants.
        coin = int(stream(cfg.master_seed, rep, Purpose.THETA).random() < 0.5)
        variant = "theta1" if coin else "theta0"
        base = TwoBridgeConfig(
            horizon=horizon,
            theta_variant=variant,
            noise=NoiseKind.GAUSSIAN_UNIT if cfg.noise == "gaussian" else NoiseKind.BERNOULLI,
            p_majority=0.0,
        )
        theta_id = coin
    else:
        base = _two_bridge_config(cfg, horizon, cfg.theta_variant)
        theta_id = 0 if cfg.theta_variant == "theta0" else 1

    params = LinUCBParams.for_two_bridge(
        horizon, ridge=cfg.ridge, enforce_floor=cfg.enforce_width_floor
    )
    restriction = {"restriction": cfg.restriction, "restriction_p": cfg.restriction_p}
    if policy in ("linucb", "linucb_minority"):
        res = run_two_bridge_policy(
            base, "linucb", cfg.master_seed, rep, params=params,
            track_curve=track_curve, **restriction,
        )
    elif policy == "linucb_full":
        res = run_two_bridge_policy(
            base, "linucb", cfg.master_seed, rep, params=params,
            inject_majority_rate=0.95, track_curve=track_curve, **restriction,
        )
    elif policy in ("uniform_random", "oracle"):
        res = run_two_bridge_policy(
            base, policy, cfg.master_seed, rep, params=params,
            track_curve=track_curve, **restriction,
        )
    elif policy == "batch_freq_greedy":
        res = run_two_bridge_batch_freq(
            base, cfg.master_seed, rep, cfg.batch, track_curve=track_curve, **restriction
        )
    else:
        raise ValueError(f"policy '{policy}' is not valid on two-bridge instances")

    row = ResultRow(
        experiment=cfg.experiment,
        policy=policy,
        horizon=horizon,
        replicate=rep,
        seed=replicate_seed_id(cfg.master_seed, rep),
        regret_total=res.regret_total,
        regret_minority=res.regret_minority,
        regret_prediction=res.regret_prediction,
        theta_draw_id=theta_id,
    )
    extras = {"wrong_b_rounds": res.wrong_b_rounds, "b_rounds": res.b_rounds}
    return row, extras, res.curve


def _perturbed_job(cfg: ExperimentConfig, instance, policy: str, horizon: int, reps: tuple, track_curve: bool) -> list:
    catalog, prior_mean, prior_cov = instance
    thetas = [draw_theta_for_replicate(cfg, prior_mean, prior_cov, rep) for rep in reps]

    if policy in ("batch_bayes_greedy", "batch_freq_greedy"):
        acting = "bayes" if policy == "batch_bayes_greedy" else "freq"
        bound = context_norm_bound(cfg.rho, cfg.d, horizon, cfg.n_actions)
        runs = []
        for rep, theta in zip(reps, thetas):
            res = run_perturbed_batch_greedy(
                catalog,
                prior_mean,
                prior_cov,
                theta,
                horizon,
                cfg.batch,
                cfg.master_seed,
                rep,
                acting=acting,
                context_bound=bound if acting == "freq" else None,
                probe_rounds=tuple(p for p in GAP_PROBE_ROUNDS if p <= horizon),
                track_lambda=(cfg.experiment == "EigGrowth"),
                track_curve=track_curve,
                restriction=cfg.restriction,
                restriction_p=cfg.restriction_p,
            )
            extras = {"gap_allowance": res.gap_allowance, "probes": res.probe_values}
            if res.lambda_curve is not None:
                extras.update(_lambda_checks(res.lambda_curve, cfg.rho, horizon))
            runs.append((res, extras))
    elif policy in ("linucb", "linucb_full", "linucb_minority"):
        run_catalog = catalog
        if policy == "linucb_minority":
            run_catalog = minority_only_instance(catalog)
        params = LinUCBParams.for_perturbed(
            cfg.d, cfg.n_actions, horizon, cfg.rho, prior_mean,
            ridge=cfg.ridge if cfg.ridge > 0 else 1.0,
        )
        results = run_perturbed_linucb(
            run_catalog, params, np.array(thetas), horizon, cfg.master_seed, reps,
            track_curve=track_curve,
            restriction=cfg.restriction,
            restriction_p=cfg.restriction_p,
        )
        runs = [(res, {}) for res in results]
    else:
        raise ValueError(f"policy '{policy}' is not valid on perturbed instances")

    outcomes = []
    for rep, (res, extras) in zip(reps, runs):
        row = ResultRow(
            experiment=cfg.experiment,
            policy=policy,
            horizon=horizon,
            replicate=rep,
            seed=replicate_seed_id(cfg.master_seed, rep),
            regret_total=res.regret_total,
            regret_minority=res.regret_minority,
            regret_prediction=res.regret_prediction,
            theta_draw_id=rep,
        )
        outcomes.append((row, extras, res.curve))
    return outcomes


def draw_theta_for_replicate(cfg: ExperimentConfig, prior_mean, prior_cov, rep: int) -> np.ndarray:
    return draw_theta(prior_mean, prior_cov, stream(cfg.master_seed, rep, Purpose.THETA))


def _lambda_checks(curve: np.ndarray, rho: float, horizon: int, floor_round: int = 2000) -> dict:
    """Compare a minimum-eigenvalue trajectory against rho^2 t / (32 ln T)."""
    t = np.arange(1, curve.size + 1)
    bound = rho**2 * t / (32.0 * math.log(horizon))
    tail = t >= floor_round
    slope = float(np.polyfit(t, curve, 1)[0])
    ratios = curve[tail] / bound[tail]
    return {
        "lambda_bound_ok": bool(np.all(curve[tail] >= bound[tail])),
        "lambda_slope": slope,
        "lambda_min_ratio": float(ratios.min()) if ratios.size else math.inf,
        "lambda_final": float(curve[-1]),
    }


def _instance_for(cfg: ExperimentConfig):
    """The perturbed instance every job of a run shares; None on two-bridge runs."""
    if cfg.experiment in TWO_BRIDGE_EXPERIMENTS:
        return None
    try:
        return build_instance(cfg)
    except Exception as exc:
        # Every replicate shares the instance, so the first one fails with it.
        seed = replicate_seed_id(cfg.master_seed, 0)
        raise ReplicateError(f"replicate 0 of {cfg.experiment} failed (seed {seed}): {exc}") from exc


def _jobs_for(cfg: ExperimentConfig, instance) -> list:
    """Jobs ``(cfg, instance, policy, horizon, replicates, track_curve)``.

    A perturbed LinUCB job holds up to LINUCB_BLOCK consecutive replicates,
    which the engine advances in lockstep; every other job holds one.
    """
    jobs = []
    for policy in cfg.policies:
        lockstep = instance is not None and policy.startswith("linucb")
        block = LINUCB_BLOCK if lockstep else 1
        for horizon in cfg.horizons:
            used = horizon
            if cfg.experiment in ("GreedyVsLinUCB", "ExternalityVanishing") and policy.startswith("linucb"):
                used = linucb_comparator_horizon(horizon, cfg.batch)
            for first in range(0, cfg.replicates, block):
                reps = tuple(range(first, min(first + block, cfg.replicates)))
                jobs.append((cfg, instance, policy, used, reps, False))
    return jobs


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> ExperimentResult:
    """Run every (policy, horizon, replicate) job and aggregate the table."""
    if cfg.experiment == "SimulationVerify":
        return _run_simulation_verify(cfg)
    jobs = _jobs_for(cfg, _instance_for(cfg))
    n_workers = resolve_workers(workers)
    if n_workers == 1 or len(jobs) == 1:
        per_job = [_run_job(j) for j in jobs]
    else:
        chunk = max(1, len(jobs) // (n_workers * 8))
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            per_job = list(pool.map(_run_job, jobs, chunksize=chunk))
    outcomes = [out for outs in per_job for out in outs]
    rows = tuple(sorted((out[0] for out in outcomes), key=ResultRow.sort_key))
    extras = {(row.policy, row.horizon, row.replicate): ex or {} for row, ex, _ in outcomes}
    aggregates = _aggregate(cfg, rows, extras)
    return ExperimentResult(rows, aggregates)


def experiment_curves(cfg: ExperimentConfig, n_points: int = 200) -> list:
    """Cumulative-regret curves for replicate 0 of every (policy, horizon) cell.

    Returns a list of dicts with keys policy, horizon, and points, where
    points is a list of (round, cumulative regret) pairs subsampled on a
    geometric grid.
    """
    if cfg.experiment == "SimulationVerify":
        return []
    instance = _instance_for(cfg)
    curves = []
    seen = set()
    for _, _, policy, horizon, reps, _ in _jobs_for(cfg, instance):
        if reps[0] != 0 or (policy, horizon) in seen:
            continue
        seen.add((policy, horizon))
        [(_, _, curve)] = _run_job((cfg, instance, policy, horizon, (0,), True))
        if curve is None:
            continue
        curves.append(
            {"policy": policy, "horizon": horizon, "points": _subsample_curve(curve, n_points)}
        )
    return curves


def _subsample_curve(curve: np.ndarray, n_points: int) -> list:
    grid = np.unique(np.geomspace(1, curve.size, num=min(n_points, curve.size)).astype(int))
    return [(int(t), float(curve[t - 1])) for t in grid]


def _group_rows(rows) -> dict:
    grouped: dict = {}
    for row in rows:
        grouped.setdefault((row.policy, row.horizon), []).append(row)
    return grouped


def _aggregate(cfg: ExperimentConfig, rows, extras) -> dict:
    grouped = _group_rows(rows)
    summary = {}
    for (policy, horizon), rs in sorted(grouped.items()):
        total = [r.regret_total for r in rs]
        minority = [r.regret_minority for r in rs]
        pred = [r.regret_prediction for r in rs]
        mean_t, se_t = bayesian_regret(total)
        mean_m, se_m = bayesian_regret(minority)
        mean_p, se_p = bayesian_regret(pred)
        summary[f"{policy}@T={horizon}"] = {
            "replicates": len(rs),
            "regret_total": {"mean": mean_t, "se": se_t},
            "regret_minority": {"mean": mean_m, "se": se_m},
            "regret_prediction": {"mean": mean_p, "se": se_p},
        }
    aggregates = {"experiment": cfg.experiment, "summary": summary}

    if cfg.experiment == "TwoBridgeLinUCB":
        _aggregate_two_bridge_linucb(cfg, rows, aggregates)
    elif cfg.experiment == "TwoBridgeImpossibility":
        _aggregate_impossibility(cfg, rows, aggregates)
    elif cfg.experiment == "GreedyVsLinUCB":
        _aggregate_greedy_vs_linucb(cfg, rows, extras, aggregates)
    elif cfg.experiment == "ScalingFit":
        _aggregate_scaling(cfg, rows, aggregates)
    elif cfg.experiment == "ExternalityVanishing":
        _aggregate_externality(cfg, rows, aggregates)
    elif cfg.experiment == "EigGrowth":
        _aggregate_eig_growth(cfg, rows, extras, aggregates)
    return aggregates


def _per_horizon(rows, policy: str, field: str) -> dict:
    out: dict = {}
    for row in rows:
        if row.policy == policy:
            out.setdefault(row.horizon, []).append(getattr(row, field))
    return {t: np.asarray(v) for t, v in out.items()}


def _aggregate_two_bridge_linucb(cfg, rows, aggregates) -> None:
    for policy in cfg.policies:
        per_t = _per_horizon(rows, policy, "regret_minority")
        if len(per_t) >= 3 and all(v.mean() > 0 for v in per_t.values()):
            pts = [(t, float(v.mean())) for t, v in sorted(per_t.items())]
            slope, intercept = scaling_exponent(pts)
            aggregates[f"{policy}_minority_exponent"] = {"slope": slope, "intercept": intercept}


def _aggregate_impossibility(cfg, rows, aggregates) -> None:
    checks = {}
    for policy in cfg.policies:
        per_t = _per_horizon(rows, policy, "regret_minority")
        for t, vals in sorted(per_t.items()):
            mean, se = bayesian_regret(vals)
            floor = 0.01 * math.sqrt(t)
            checks[f"{policy}@T={t}"] = {
                "mean_regret": mean,
                "se": se,
                "floor": floor,
                "above_floor": bool(mean >= floor),
            }
    aggregates["impossibility_checks"] = checks


def _aggregate_greedy_vs_linucb(cfg, rows, extras, aggregates) -> None:
    horizon = cfg.horizons[0]
    probes = _collect_probes(cfg, extras, "batch_freq_greedy", horizon)
    if probes:
        aggregates["estimator_gap_probes"] = probes
    t_lin = linucb_comparator_horizon(horizon, cfg.batch)
    lin = _per_horizon(rows, "linucb", "regret_total").get(t_lin)
    if lin is None:
        return
    lin_mean, lin_se = bayesian_regret(lin)
    comparisons = {}
    for policy in ("batch_bayes_greedy", "batch_freq_greedy"):
        vals = _per_horizon(rows, policy, "regret_total").get(horizon)
        if vals is None:
            continue
        mean, se = bayesian_regret(vals)
        pooled = math.sqrt(se**2 + (cfg.batch * lin_se) ** 2)
        allowance = 0.0
        if policy == "batch_freq_greedy":
            gaps = [
                extras.get((policy, horizon, rep), {}).get("gap_allowance", 0.0)
                for rep in range(cfg.replicates)
            ]
            allowance = float(np.mean(gaps)) if gaps else 0.0
        rhs = cfg.batch * lin_mean + allowance + 3.0 * pooled
        comparisons[policy] = {
            "mean_regret": mean,
            "se": se,
            "linucb_mean": lin_mean,
            "linucb_horizon": t_lin,
            "batch": cfg.batch,
            "gap_allowance": allowance,
            "pooled_se": pooled,
            "rhs": rhs,
            "within_bound": bool(mean <= rhs),
        }
    aggregates["greedy_vs_linucb"] = comparisons


def _collect_probes(cfg, extras, policy: str, horizon: int) -> dict:
    values: dict = {}
    for rep in range(cfg.replicates):
        probe = extras.get((policy, horizon, rep), {}).get("probes", {})
        for t, v in probe.items():
            values.setdefault(int(t), []).append(float(v))
    return {
        str(t): {"median": float(np.median(v)), "count": len(v)}
        for t, v in sorted(values.items())
    }


def _aggregate_scaling(cfg, rows, aggregates) -> None:
    fits = {}
    boot_rng = stream(cfg.master_seed, 0, Purpose.SIMULATION)
    for policy in cfg.policies:
        per_t = _per_horizon(rows, policy, "regret_total")
        if len(per_t) < 3:
            continue
        exponent, lo, hi = scaling_exponent_bootstrap(per_t, boot_rng, n_boot=200)
        fits[policy] = {"exponent": exponent, "ci_lo": lo, "ci_hi": hi}
    aggregates["scaling_fits"] = fits


def _aggregate_externality(cfg, rows, aggregates) -> None:
    horizon = cfg.horizons[0]
    t_lin = linucb_comparator_horizon(horizon, cfg.batch)
    bfg = _per_horizon(rows, "batch_freq_greedy", "regret_minority").get(horizon)
    lin_minority = _per_horizon(rows, "linucb_minority", "regret_minority").get(t_lin)
    lin_full = _per_horizon(rows, "linucb_full", "regret_minority").get(t_lin)
    if bfg is None or (lin_minority is None and lin_full is None):
        return
    mean_bfg, se_bfg = bayesian_regret(bfg)
    candidates = {}
    if lin_minority is not None:
        candidates["linucb_minority"] = bayesian_regret(lin_minority)
    if lin_full is not None:
        candidates["linucb_full"] = bayesian_regret(lin_full)
    best_name = min(candidates, key=lambda k: candidates[k][0])
    best_mean, best_se = candidates[best_name]
    pooled = math.sqrt(se_bfg**2 + (cfg.batch * best_se) ** 2)
    rhs = cfg.batch * best_mean + 3.0 * pooled
    aggregates["externality"] = {
        "bfg_minority_mean": mean_bfg,
        "bfg_minority_se": se_bfg,
        "comparator": best_name,
        "comparator_mean": best_mean,
        "comparator_horizon": t_lin,
        "batch": cfg.batch,
        "pooled_se": pooled,
        "rhs": rhs,
        "within_bound": bool(mean_bfg <= rhs),
        "candidates": {k: {"mean": v[0], "se": v[1]} for k, v in candidates.items()},
    }


def _aggregate_eig_growth(cfg, rows, extras, aggregates) -> None:
    horizon = cfg.horizons[0]
    oks, slopes, ratios, finals = [], [], [], []
    for rep in range(cfg.replicates):
        e = extras.get(("batch_freq_greedy", horizon, rep), {})
        if "lambda_bound_ok" not in e:
            continue
        oks.append(e["lambda_bound_ok"])
        slopes.append(e["lambda_slope"])
        ratios.append(e["lambda_min_ratio"])
        finals.append(e["lambda_final"])
    if not oks:
        return
    aggregates["eig_growth"] = {
        "replicates": len(oks),
        "bound_fraction": float(np.mean(oks)),
        "all_slopes_positive": bool(all(s > 0 for s in slopes)),
        "min_ratio": float(np.min(ratios)),
        "mean_final_lambda": float(np.mean(finals)),
        "floor_round": 2000,
    }


def _run_simulation_verify(cfg: ExperimentConfig) -> ExperimentResult:
    """Audit the reward-simulation construction on one diverse batch.

    Builds a batch by running batched greedy on the perturbed instance,
    draws targets inside the batch's diversity radius, and compares the
    simulated reward law against direct draws with a two-sample KS test per
    target at level 0.01.
    """
    report = simulation_verification_report(
        cfg, n_targets=cfg.n_targets, n_draws=cfg.sim_draws
    )
    return ExperimentResult((), {"experiment": cfg.experiment, "simulation_verify": report})


def simulation_verification_report(cfg: ExperimentConfig, n_targets: int, n_draws: int) -> dict:
    instance, prior_mean, prior_cov = build_instance(cfg)
    theta = draw_theta_for_replicate(cfg, prior_mean, prior_cov, 0)
    horizon = cfg.horizons[0]
    res = run_perturbed_batch_greedy(
        instance, prior_mean, prior_cov, theta, horizon, cfg.batch,
        cfg.master_seed, 0, acting="freq", track_rows=True,
    )
    n_batches = horizon // cfg.batch
    lo = (n_batches - 1) * cfg.batch
    hi = n_batches * cfg.batch
    x_batch = res.chosen_rows[lo:hi]
    z_batch = x_batch.T @ x_batch
    lam = min_eigenvalue(0.5 * (z_batch + z_batch.T))
    bound = context_norm_bound(cfg.rho, cfg.d, horizon, cfg.n_actions)
    y0 = suggested_batch_size(cfg.rho, cfg.d, horizon, 0.01, n_actions=cfg.n_actions)

    rng = stream(cfg.master_seed, 0, Purpose.SIMULATION)
    batch_means = x_batch @ theta
    alpha = 0.01
    targets = []
    rejections = 0
    for i in range(n_targets):
        direction = rng.standard_normal(cfg.d)
        direction /= max(float(np.linalg.norm(direction)), 1e-12)
        radius = math.sqrt(lam) * rng.random()
        x = radius * direction
        w = simulation_weights(x_batch, x)
        recon = float(np.linalg.norm(x_batch.T @ w.w - x))
        sims = np.empty(n_draws)
        chunk = 10000
        for start in range(0, n_draws, chunk):
            m = min(chunk, n_draws - start)
            draws = batch_means[None, :] + rng.standard_normal((m, x_batch.shape[0]))
            sims[start:start + m] = simulate_reward_many(w, draws, rng)
        direct = float(theta @ x) + rng.standard_normal(n_draws)
        ks = scipy_stats.ks_2samp(sims, direct)
        reject = bool(ks.pvalue < alpha)
        rejections += int(reject)
        targets.append(
            {
                "target_norm": radius,
                "weight_norm": float(np.linalg.norm(w.w)),
                "residual_var": w.residual_var,
                "reconstruction_error": recon,
                "ks_statistic": float(ks.statistic),
                "p_value": float(ks.pvalue),
                "reject": reject,
            }
        )
    return {
        "batch": cfg.batch,
        "batch_index": n_batches,
        "lambda_min": lam,
        "context_norm_bound": bound,
        "diversity_target": bound**2,
        "diversity_attained": bool(lam >= bound**2),
        "suggested_batch_size": y0,
        "alpha": alpha,
        "n_draws": n_draws,
        "n_targets": n_targets,
        "rejections": rejections,
        "max_weight_norm": max(t["weight_norm"] for t in targets),
        "max_reconstruction_error": max(t["reconstruction_error"] for t in targets),
        "targets": targets,
    }
