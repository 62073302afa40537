"""Round-ordered regret sums, replicate summaries, and scaling fits.

Every engine sums regret through ``RegretSums``: running sums that add the
rounds one at a time in round order.  A replicate's total, its restricted sum
and its cumulative curve are therefore the same sum, and the last curve point
equals ``regret_total`` exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import Purpose, stream

RESTRICTIONS = ("minority", "coin")


def running_sum(prev, inst: np.ndarray):
    """``prev`` plus the rows of ``inst`` added one round at a time, in round order."""
    return np.add.accumulate(np.concatenate(([prev], inst)), axis=0)[-1]


class RegretSums:
    """Running regret sums of the replicates of one engine call.

    An engine feeds ``add`` the instantaneous regret of stretches of rounds, in
    round order; rounds it never feeds add nothing.  Per replicate it keeps the
    total and the restricted sum, and for the first replicate, when ``curve``
    is set, the regret of every round.  The restricted set is the minority
    rounds the engine flags, or with ``restriction = "coin"`` the rounds an
    independent Bernoulli(``restriction_p``) coin from the replicate's
    restriction stream flags; any other ``restriction`` is a ``ValueError``.
    """

    def __init__(self, master_seed: int, replicates, horizon: int,
                 restriction: str = "minority", restriction_p: float = 0.5, curve: bool = False):
        if restriction not in RESTRICTIONS:
            raise ValueError(f"restriction must be one of {RESTRICTIONS}, not {restriction!r}")
        self.total = np.zeros(len(replicates))
        self.restricted = np.zeros(len(replicates))
        self._coins = None
        if restriction == "coin":
            self._coins = np.stack([
                stream(master_seed, rep, Purpose.RESTRICTION).random(horizon) < restriction_p
                for rep in replicates
            ])
        self._inst = np.zeros(horizon) if curve else None

    def add(self, rounds, inst: np.ndarray, minority=True) -> None:
        """Add the regret of ``rounds``, a slice or increasing round positions.

        ``inst`` has one row per round and one column per replicate;
        ``minority`` flags the minority rounds and broadcasts against it.
        """
        in_set = minority if self._coins is None else self._coins[:, rounds].T
        self.total = running_sum(self.total, inst)
        self.restricted = running_sum(self.restricted, np.where(in_set, inst, 0.0))
        if self._inst is not None:
            self._inst[rounds] = inst[:, 0]

    def curve(self) -> np.ndarray | None:
        """The first replicate's cumulative regret after every round, if kept."""
        return None if self._inst is None else np.cumsum(self._inst)


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


# Bootstrap resamples behind each scaling-exponent interval.
N_BOOT = 200


def scaling_exponent_bootstrap(per_horizon_regrets: dict, rng: np.random.Generator) -> tuple:
    """Scaling exponent of mean regrets plus a bootstrap percentile interval.

    ``per_horizon_regrets`` maps horizon -> array of per-replicate regrets.
    Returns (exponent, lo, hi) with a 2.5/97.5 percentile interval over
    N_BOOT resamples of the replicates at each horizon.
    """
    horizons = sorted(per_horizon_regrets)
    means = [(t, float(np.mean(per_horizon_regrets[t]))) for t in horizons]
    exponent, _ = scaling_exponent(means)
    draws = []
    for _ in range(N_BOOT):
        resampled = []
        for t in horizons:
            vals = np.asarray(per_horizon_regrets[t], dtype=float)
            sample = vals[rng.integers(vals.size, size=vals.size)]
            resampled.append((t, max(float(np.mean(sample)), 1e-300)))
        slope, _ = scaling_exponent(resampled)
        draws.append(slope)
    lo, hi = np.percentile(draws, [2.5, 97.5])
    return exponent, float(lo), float(hi)
