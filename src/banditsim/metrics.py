"""Per-round regret, replicate summaries, and scaling-exponent fits."""

from __future__ import annotations

import math

import numpy as np

from .core import ContextRound


def instantaneous_regret(theta: np.ndarray, round_: ContextRound, chosen: int) -> float:
    """Best available mean reward minus the chosen action's mean reward."""
    if not round_.is_available(chosen):
        raise ValueError(f"chosen action {chosen} is unavailable in round {round_.round_index}")
    theta = np.asarray(theta, dtype=float)
    vals = [float(theta @ round_.contexts[a]) for a in round_.available_indices()]
    return max(vals) - float(theta @ round_.contexts[chosen])


def bayesian_regret(replicate_regrets) -> tuple:
    """Mean and standard error of per-replicate regrets."""
    vals = np.asarray(list(replicate_regrets), dtype=float)
    if vals.size == 0:
        raise ValueError("need at least one replicate")
    mean = float(np.mean(vals))
    if vals.size == 1:
        return mean, 0.0
    return mean, float(np.std(vals, ddof=1) / math.sqrt(vals.size))


def scaling_exponent(points) -> tuple:
    """Least-squares slope and intercept of log regret against log horizon.

    ``points`` is an iterable of (horizon, regret) pairs with at least three
    distinct horizons and strictly positive regrets.
    """
    pts = [(float(t), float(r)) for t, r in points]
    if len(pts) < 3:
        raise ValueError("need at least three (horizon, regret) points")
    ts = np.array([p[0] for p in pts])
    rs = np.array([p[1] for p in pts])
    if len(np.unique(ts)) != len(ts):
        raise ValueError("horizons must be distinct")
    if np.any(ts <= 0):
        raise ValueError("horizons must be positive")
    if np.any(rs <= 0):
        raise ValueError("regrets must be positive to fit a power law")
    slope, intercept = np.polyfit(np.log(ts), np.log(rs), 1)
    return float(slope), float(intercept)


def scaling_exponent_bootstrap(
    per_horizon_regrets: dict,
    rng: np.random.Generator,
    n_boot: int = 200,
) -> tuple:
    """Scaling exponent of mean regrets plus a bootstrap percentile interval.

    ``per_horizon_regrets`` maps horizon -> array of per-replicate regrets.
    Returns (exponent, lo, hi) with a 2.5/97.5 percentile interval over
    ``n_boot`` resamples of the replicates at each horizon.
    """
    horizons = sorted(per_horizon_regrets)
    means = [(t, float(np.mean(per_horizon_regrets[t]))) for t in horizons]
    exponent, _ = scaling_exponent(means)
    draws = []
    for _ in range(n_boot):
        resampled = []
        for t in horizons:
            vals = np.asarray(per_horizon_regrets[t], dtype=float)
            sample = vals[rng.integers(vals.size, size=vals.size)]
            resampled.append((t, max(float(np.mean(sample)), 1e-300)))
        slope, _ = scaling_exponent(resampled)
        draws.append(slope)
    lo, hi = np.percentile(draws, [2.5, 97.5])
    return exponent, float(lo), float(hi)
