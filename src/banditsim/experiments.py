"""Named experiments: replicate scheduling, aggregation, and reproducibility.

``EXPERIMENT_SPECS`` is the one table of what sets each named experiment
apart; the config parser, the CLI and the harness read it.  Each experiment
expands into independent (policy, horizon, replicate) jobs.  A job's
randomness comes only from the purpose-keyed streams of its replicate, so
tables are byte-identical across repeated runs and across any worker count;
rows are sorted by (policy, T, replicate) before emission.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .core import NoiseKind
from .csvio import ResultRow
from .engines import (
    run_perturbed_batch_greedy,
    run_perturbed_linucb,
    run_two_bridge_batch_freq,
    run_two_bridge_policy,
)
from .environments import Catalog, TwoBridgeConfig, draw_theta
from .estimators import gaussian_prior, min_eigenvalue
from .metrics import RegretSums, bayesian_regret, scaling_exponent, scaling_exponent_bootstrap
from .policies import (
    LinUCBParams,
    context_norm_bound,
    suggested_batch_size,
)
from .rng import Purpose, replicate_seed_id, stream
from .simulation import simulate_reward_many, simulation_weights

if TYPE_CHECKING:
    from .config import ExperimentConfig

WORKERS_ENV_VAR = "BANDITSIM_WORKERS"

# Rounds at which the batched engines probe the posterior/least-squares gap.
GAP_PROBE_ROUNDS = (1000, 8000)

# Replicates of one perturbed LinUCB cell that one job advances in lockstep.
# A constant, not derived from the worker count: a replicate's result does not
# depend on its block, and the blocks do not depend on the scheduling.
LINUCB_BLOCK = 32

# Points of replicate 0's cumulative-regret curve kept per (policy, T) cell.
CURVE_POINTS = 200


class ReplicateError(RuntimeError):
    """A replicate failed; carries the offending seed for reproduction."""


@dataclass(frozen=True)
class ExperimentResult:
    """Rows sorted by (policy, T, replicate), the aggregates, and the curves.

    ``curves`` maps each (policy, T) cell to replicate 0's cumulative regret
    as (round, value) pairs on a geometric grid of at most CURVE_POINTS rounds.
    """

    rows: tuple
    aggregates: dict
    curves: dict


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


def build_instance(cfg: ExperimentConfig) -> tuple:
    """Deterministic perturbed instance for a config: its catalog and prior.

    The catalog and prior mean are keyed by ``catalog_seed`` (not the master
    seed), so reseeding an experiment varies the noise but not the instance.
    Two-group catalogs alternate majority and minority entries, each biased
    towards its group's axis; every third entry of a catalog with more than
    two actions lacks one slot.  The prior mean is scaled to norm
    ``prior_mean_norm(cfg)`` and the prior covariance is prior_scale^2 I.
    """
    rng = stream(cfg.catalog_seed, 0, Purpose.CATALOG)
    n, k, d = cfg.catalog_size, cfg.n_actions, cfg.d
    minority = np.zeros(n, dtype=bool)
    if cfg.minority_prob > 0:
        minority[1::2] = True
    means = np.empty((n, k, d))
    weights = np.empty(n)
    for j in range(n):
        for a in range(k):
            v = rng.standard_normal(d)
            u = v / max(float(np.linalg.norm(v)), 1e-12)
            if cfg.minority_prob > 0:
                u[int(minority[j])] += 1.0
                u = u / float(np.linalg.norm(u))
            means[j, a] = (0.35 + 0.6 * rng.random()) * u
        weights[j] = 0.5 + rng.random()
    avail = np.ones((n, k), dtype=bool)
    if k > 2:
        lacking = np.arange(2, n, 3)
        avail[lacking, lacking % k] = False
    catalog = Catalog(means, avail, weights, minority, cfg.rho, cfg.minority_prob)

    raw = rng.standard_normal(d)
    prior_mean = raw * (prior_mean_norm(cfg) / max(float(np.linalg.norm(raw)), 1e-12))
    return catalog, gaussian_prior(prior_mean, cfg.prior_scale**2 * np.eye(d))


def prior_mean_norm(cfg: ExperimentConfig) -> float:
    """Norm of the perturbed prior mean, 1 + sqrt(3 ln T_max): the regime the
    LinUCB width parameters assume."""
    return 1.0 + math.sqrt(3.0 * math.log(max(cfg.horizons)))


def _two_bridge_params(cfg: ExperimentConfig, horizon: int) -> LinUCBParams:
    return LinUCBParams.for_two_bridge(horizon, enforce_floor=cfg.enforce_width_floor)


def _perturbed_params(cfg: ExperimentConfig, horizon: int, prior_norm: float) -> LinUCBParams:
    return LinUCBParams.for_perturbed(cfg.d, cfg.n_actions, horizon, cfg.rho, prior_norm, ridge=cfg.ridge)


def linucb_comparator_horizon(horizon: int, batch: int) -> int:
    """Horizon for the unbatched comparator: one round per batch of the main run."""
    return max(2, horizon // batch)


def _run_job(job) -> list:
    """Run one job: one (row, extras, curve points) outcome per replicate it holds."""
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


def _outcome(cfg: ExperimentConfig, policy: str, horizon: int, rep: int, res, theta_id: int, extras: dict) -> tuple:
    """A replicate's row and extras, with its curve points when it is replicate 0."""
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
    points = None
    if rep == 0 and res.curve is not None:
        points = _subsample_curve(res.curve, CURVE_POINTS)
    return row, extras, points


def _two_bridge_job(cfg: ExperimentConfig, policy: str, horizon: int, rep: int, track_curve: bool = False) -> tuple:
    variant = cfg.theta_variant
    p_majority = 0.95 if cfg.population == "full" else 0.0
    if EXPERIMENT_SPECS[cfg.experiment].theta_coin:
        # Minority-time design: every simulated round is a minority round and
        # the latent weights are a fresh uniform draw over the two variants.
        coin = stream(cfg.master_seed, rep, Purpose.THETA).random() < 0.5
        variant = "theta1" if coin else "theta0"
        p_majority = 0.0
    base = TwoBridgeConfig(
        horizon=horizon,
        theta_variant=variant,
        noise=NoiseKind.GAUSSIAN_UNIT if cfg.noise == "gaussian" else NoiseKind.BERNOULLI,
        p_majority=p_majority,
    )

    params = _two_bridge_params(cfg, horizon)
    sums = RegretSums(cfg.master_seed, (rep,), horizon, cfg.restriction, cfg.restriction_p, track_curve)
    if policy == "batch_freq_greedy":
        res = run_two_bridge_batch_freq(base, cfg.master_seed, rep, cfg.batch, sums=sums)
    elif policy in ("linucb", "linucb_full", "linucb_minority", "uniform_random", "oracle"):
        res = run_two_bridge_policy(
            base, "linucb" if policy.startswith("linucb") else policy, cfg.master_seed, rep, params=params,
            inject_majority_rate=0.95 if policy == "linucb_full" else 0.0, sums=sums,
        )
    else:
        raise ValueError(f"policy '{policy}' is not valid on two-bridge instances")

    extras = {"wrong_b_rounds": res.wrong_b_rounds, "b_rounds": res.b_rounds}
    return _outcome(cfg, policy, horizon, rep, res, int(variant == "theta1"), extras)


def _perturbed_job(cfg: ExperimentConfig, instance, policy: str, horizon: int, reps: tuple, track_curve: bool) -> list:
    catalog, prior = instance
    thetas = [draw_theta_for_replicate(cfg, prior, rep) for rep in reps]

    if policy in ("batch_bayes_greedy", "batch_freq_greedy"):
        acting = "bayes" if policy == "batch_bayes_greedy" else "freq"
        bound = context_norm_bound(cfg.rho, cfg.d, horizon, cfg.n_actions)
        runs = []
        for rep, theta in zip(reps, thetas):
            res = run_perturbed_batch_greedy(
                catalog,
                prior,
                theta,
                horizon,
                cfg.batch,
                cfg.master_seed,
                rep,
                acting=acting,
                context_bound=bound if acting == "freq" else None,
                probe_rounds=tuple(p for p in GAP_PROBE_ROUNDS if p <= horizon),
                track_lambda=EXPERIMENT_SPECS[cfg.experiment].track_lambda,
                sums=RegretSums(
                    cfg.master_seed, (rep,), horizon, cfg.restriction, cfg.restriction_p, track_curve
                ),
            )
            extras = {"gap_allowance": res.gap_allowance, "probes": res.probe_values}
            if res.lambda_curve is not None:
                extras.update(_lambda_checks(res.lambda_curve, cfg.rho, horizon))
            runs.append((res, extras))
    elif policy in ("linucb", "linucb_full", "linucb_minority"):
        run_catalog = catalog.minority_only() if policy == "linucb_minority" else catalog
        params = _perturbed_params(cfg, horizon, float(np.linalg.norm(prior.mean)))
        results = run_perturbed_linucb(
            run_catalog, params, np.array(thetas), horizon, cfg.master_seed, reps,
            sums=RegretSums(cfg.master_seed, reps, horizon, cfg.restriction, cfg.restriction_p, track_curve),
        )
        runs = [(res, {}) for res in results]
    else:
        raise ValueError(f"policy '{policy}' is not valid on perturbed instances")

    return [
        _outcome(cfg, policy, horizon, rep, res, rep, extras)
        for rep, (res, extras) in zip(reps, runs)
    ]


def draw_theta_for_replicate(cfg: ExperimentConfig, prior, rep: int) -> np.ndarray:
    return draw_theta(prior, stream(cfg.master_seed, rep, Purpose.THETA))


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
    if EXPERIMENT_SPECS[cfg.experiment].family == "two_bridge":
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
    which the engine advances in lockstep; every other job holds one.  The
    job that holds replicate 0 of a cell also tracks its regret curve, which
    draws nothing and changes no total.
    """
    jobs = []
    for policy, horizon in _cells(cfg):
        block = LINUCB_BLOCK if policy.startswith("linucb") and instance is not None else 1
        for first in range(0, cfg.replicates, block):
            reps = tuple(range(first, min(first + block, cfg.replicates)))
            jobs.append((cfg, instance, policy, horizon, reps, first == 0))
    return jobs


def _cells(cfg: ExperimentConfig) -> list:
    """(policy, horizon) of every cell a run covers.  A LinUCB policy of an
    experiment with a comparator runs at ``linucb_comparator_horizon``."""
    comparator = EXPERIMENT_SPECS[cfg.experiment].comparator
    return [
        (policy, linucb_comparator_horizon(horizon, cfg.batch)
         if comparator and policy.startswith("linucb") else horizon)
        for policy in cfg.policies for horizon in cfg.horizons
    ]


def check_linucb(cfg: ExperimentConfig) -> str | None:
    """Why a job of the run could not build its LinUCB parameters, or None.

    Builds the parameters the jobs build, at the horizons they run: every
    two-bridge job builds them, whatever its policy; on perturbed instances
    only LinUCB does, and its engine needs a positive ridge.  Two-bridge
    LinUCB has no ridge: its closed-form bound is the ridge-free one.
    """
    family = EXPERIMENT_SPECS[cfg.experiment].family
    if family == "two_bridge" and cfg.ridge != 0:
        return f"ridge must be 0 on {cfg.experiment}: its LinUCB uses the ridge-free closed-form bound"
    for policy, horizon in _cells(cfg):
        try:
            if family == "two_bridge":
                _two_bridge_params(cfg, horizon)
            elif family == "perturbed" and policy.startswith("linucb"):
                if cfg.ridge <= 0:
                    return (f"ridge must be positive for {policy} on {cfg.experiment}: "
                            "its engine starts from (ridge I)^-1")
                _perturbed_params(cfg, horizon, prior_mean_norm(cfg))
        except ValueError as exc:
            at = f"T = {horizon}" if horizon in cfg.horizons else f"T // batch = {horizon}"
            return f"{policy} on {cfg.experiment} cannot run at {at}: its LinUCB parameters fail ({exc})"
    return None


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> ExperimentResult:
    """Run every (policy, horizon, replicate) job and aggregate the table."""
    spec = EXPERIMENT_SPECS[cfg.experiment]
    if spec.family == "audit":
        report = simulation_verification_report(cfg, cfg.n_targets, cfg.sim_draws)
        return ExperimentResult((), {"experiment": cfg.experiment, "simulation_verify": report}, {})
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
    curves: dict = {}
    for row, _, points in outcomes:
        if points is not None:
            curves.setdefault((row.policy, row.horizon), points)

    aggregates = {"experiment": cfg.experiment, "summary": _summary(rows)}
    spec.aggregate(cfg, rows, extras, aggregates)
    return ExperimentResult(rows, aggregates, curves)


def _subsample_curve(curve: np.ndarray, n_points: int) -> list:
    grid = np.unique(np.geomspace(1, curve.size, num=min(n_points, curve.size)).astype(int))
    return [(int(t), float(curve[t - 1])) for t in grid]


def _summary(rows) -> dict:
    grouped: dict = {}
    for row in rows:
        grouped.setdefault((row.policy, row.horizon), []).append(row)
    summary = {}
    for (policy, horizon), rs in sorted(grouped.items()):
        cell = summary[f"{policy}@T={horizon}"] = {"replicates": len(rs)}
        for field in ("regret_total", "regret_minority", "regret_prediction"):
            mean, se = bayesian_regret([getattr(r, field) for r in rs])
            cell[field] = {"mean": mean, "se": se}
    return summary


def _per_horizon(rows, policy: str, field: str) -> dict:
    out: dict = {}
    for row in rows:
        if row.policy == policy:
            out.setdefault(row.horizon, []).append(getattr(row, field))
    return {t: np.asarray(v) for t, v in out.items()}


def _batch_bound(cfg: ExperimentConfig, se: float, comparator_mean: float, comparator_se: float,
                 allowance: float = 0.0) -> tuple:
    """(pooled SE, bound) for batched regret against batch x the comparator's mean.

    The bound is batch x comparator mean + allowance + 3 pooled SE, where the
    comparator's SE is scaled by the batch like its mean.
    """
    pooled = math.sqrt(se**2 + (cfg.batch * comparator_se) ** 2)
    return pooled, cfg.batch * comparator_mean + allowance + 3.0 * pooled


def _aggregate_two_bridge_linucb(cfg, rows, extras, aggregates) -> None:
    for policy in cfg.policies:
        per_t = _per_horizon(rows, policy, "regret_minority")
        if len(per_t) >= 3 and all(v.mean() > 0 for v in per_t.values()):
            pts = [(t, float(v.mean())) for t, v in sorted(per_t.items())]
            slope, intercept = scaling_exponent(pts)
            aggregates[f"{policy}_minority_exponent"] = {"slope": slope, "intercept": intercept}


def _aggregate_impossibility(cfg, rows, extras, aggregates) -> None:
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
        allowance = 0.0
        if policy == "batch_freq_greedy":
            gaps = [
                extras.get((policy, horizon, rep), {}).get("gap_allowance", 0.0)
                for rep in range(cfg.replicates)
            ]
            allowance = float(np.mean(gaps)) if gaps else 0.0
        pooled, rhs = _batch_bound(cfg, se, lin_mean, lin_se, allowance)
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


def _aggregate_scaling(cfg, rows, extras, aggregates) -> None:
    fits = {}
    boot_rng = stream(cfg.master_seed, 0, Purpose.SIMULATION)
    for policy in cfg.policies:
        per_t = _per_horizon(rows, policy, "regret_total")
        if len(per_t) < 3 or not all(v.mean() > 0 for v in per_t.values()):
            continue
        exponent, lo, hi = scaling_exponent_bootstrap(per_t, boot_rng, n_boot=200)
        fits[policy] = {"exponent": exponent, "ci_lo": lo, "ci_hi": hi}
    aggregates["scaling_fits"] = fits


def _aggregate_externality(cfg, rows, extras, aggregates) -> None:
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
    pooled, rhs = _batch_bound(cfg, se_bfg, best_mean, best_se)
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


def _check_externality(cfg) -> str | None:
    if cfg.minority_prob <= 0:
        return f"minority_prob must be positive for {cfg.experiment}"
    return None


def _check_audit(cfg) -> str | None:
    if cfg.rho <= 0:
        return f"rho must be positive for {cfg.experiment}: the audited batch needs perturbed contexts"
    if cfg.batch < cfg.d:
        return f"batch must be at least d for {cfg.experiment}: a smaller batch cannot span R^d"
    if cfg.horizons[0] < cfg.batch:
        return f"the first horizon must be at least batch for {cfg.experiment}: the audit needs a full batch"
    return None


def _check_eig_growth(cfg) -> str | None:
    if cfg.d != 2:
        return f"{cfg.experiment} needs d = 2, the only dimension its lambda curve tracking supports"
    return None


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that sets one named experiment apart from the others."""

    blurb: str  # its list-experiments line
    defaults: dict  # overrides of the global defaults, in print-defaults order
    policies: tuple  # the policies a config may name
    family: str  # jobs run on "two_bridge" or "perturbed" instances; the "audit" runs none
    aggregate: Callable | None = None  # (cfg, rows, extras, aggregates): adds its checks
    comparator: bool = False  # LinUCB policies run at linucb_comparator_horizon(T, batch)
    theta_coin: bool = False  # minority-time design: a coin per replicate picks theta0 or theta1
    track_lambda: bool = False  # record the greedy design's minimum-eigenvalue curve
    check: Callable = lambda cfg: None  # (cfg) -> why the experiment cannot run it, or None


EXPERIMENT_SPECS = {
    "TwoBridgeLinUCB": ExperimentSpec(
        blurb="optimism on the two-bridge instance across horizons",
        defaults={"horizons": (10000, 40000, 160000), "ridge": 0.0, "noise": "gaussian",
                  "policies": ("linucb",)},
        policies=("linucb", "linucb_full", "linucb_minority", "uniform_random", "batch_freq_greedy", "oracle"),
        family="two_bridge",
        aggregate=_aggregate_two_bridge_linucb,
    ),
    "TwoBridgeImpossibility": ExperimentSpec(
        blurb="minority-time regret floor for four policies",
        defaults={"horizons": (10000, 40000), "ridge": 0.0, "noise": "bernoulli",
                  "policies": ("linucb_full", "linucb_minority", "uniform_random", "batch_freq_greedy")},
        policies=("linucb", "linucb_full", "linucb_minority", "uniform_random", "batch_freq_greedy", "oracle"),
        family="two_bridge",
        aggregate=_aggregate_impossibility,
        theta_coin=True,
    ),
    "GreedyVsLinUCB": ExperimentSpec(
        blurb="batched greedy regret against a per-batch optimism budget",
        defaults={"horizons": (20000,), "policies": ("batch_bayes_greedy", "batch_freq_greedy", "linucb")},
        policies=("linucb", "batch_bayes_greedy", "batch_freq_greedy"),
        family="perturbed",
        aggregate=_aggregate_greedy_vs_linucb,
        comparator=True,
    ),
    "ScalingFit": ExperimentSpec(
        blurb="log-log regret scaling exponents with bootstrap intervals",
        defaults={"horizons": (5000, 20000, 80000),
                  "policies": ("linucb", "batch_bayes_greedy", "batch_freq_greedy")},
        policies=("linucb", "batch_bayes_greedy", "batch_freq_greedy"),
        family="perturbed",
        aggregate=_aggregate_scaling,
    ),
    "ExternalityVanishing": ExperimentSpec(
        blurb="minority regret of batched greedy on a two-group catalog",
        defaults={"horizons": (20000,), "minority_prob": 0.3,
                  "policies": ("batch_freq_greedy", "linucb_minority", "linucb_full")},
        policies=("batch_freq_greedy", "linucb_minority", "linucb_full"),
        family="perturbed",
        aggregate=_aggregate_externality,
        comparator=True,
        check=_check_externality,
    ),
    "SimulationVerify": ExperimentSpec(
        blurb="distributional audit of the within-batch reward simulator",
        defaults={"horizons": (1200,), "batch": 300, "replicates": 1, "policies": ("batch_freq_greedy",)},
        policies=("linucb", "batch_bayes_greedy", "batch_freq_greedy"),
        family="audit",
        check=_check_audit,
    ),
    "EigGrowth": ExperimentSpec(
        blurb="minimum-eigenvalue growth of the greedy design matrix",
        defaults={"horizons": (20000,), "policies": ("batch_freq_greedy",)},
        policies=("linucb", "batch_bayes_greedy", "batch_freq_greedy"),
        family="perturbed",
        aggregate=_aggregate_eig_growth,
        track_lambda=True,
        check=_check_eig_growth,
    ),
}


def ks_2samp_equal(x: np.ndarray, y: np.ndarray) -> tuple:
    """Two-sided two-sample KS test for samples of equal size m: (D, p-value).

    D is the largest gap between the two empirical CDFs.  The p-value is the
    exact P(D >= h/m), h = round(D m), from the Gnedenko-Korolyuk sum
    2 sum_{j>=1} (-1)^(j+1) C(2m, m - jh) / C(2m, m), whose binomial ratios
    are the partial products of (m - t + 1)/(m + t), summed here in logs.
    """
    m = x.size
    if y.size != m:
        raise ValueError("the KS samples must have equal size")
    x, y = np.sort(x), np.sort(y)
    both = np.concatenate([x, y])
    gaps = np.searchsorted(x, both, side="right") / m - np.searchsorted(y, both, side="right") / m
    statistic = float(np.abs(gaps).max())
    h = round(statistic * m)
    if h == 0:
        return statistic, 1.0
    t = np.arange(1, m + 1)
    terms = np.exp(np.cumsum(np.log((m - t + 1) / (m + t)))[h - 1::h])
    return statistic, min(1.0, float(2.0 * (terms[0::2].sum() - terms[1::2].sum())))


def simulation_verification_report(cfg: ExperimentConfig, n_targets: int, n_draws: int) -> dict:
    """Audit the reward-simulation construction on one diverse batch.

    Builds a batch by running batched greedy on the perturbed instance,
    draws targets inside the batch's diversity radius, and compares the
    simulated reward law against direct draws with a two-sample KS test per
    target at level 0.01 (``ks_2samp_equal``).
    """
    catalog, prior = build_instance(cfg)
    theta = draw_theta_for_replicate(cfg, prior, 0)
    horizon = cfg.horizons[0]
    res = run_perturbed_batch_greedy(
        catalog, prior, theta, horizon, cfg.batch,
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
        statistic, p_value = ks_2samp_equal(sims, direct)
        reject = bool(p_value < alpha)
        rejections += int(reject)
        targets.append(
            {
                "target_norm": radius,
                "weight_norm": float(np.linalg.norm(w.w)),
                "residual_var": w.residual_var,
                "reconstruction_error": recon,
                "ks_statistic": statistic,
                "p_value": p_value,
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
