"""Per-round references that the vectorized engines are checked against.

One ``ContextRound`` holds one round's available actions, each a vector that
``as_context`` validates, and the ``Group`` of the round.  ``linucb_scores``,
``greedy_select`` and ``instantaneous_regret`` decide and score that round
alone, and ``bayes_posterior_mean`` validates and inverts the prior on every
call.  The engines in ``banditsim.engines`` make the same decisions over whole
stretches of rounds; the tests hold them to these definitions.  ``parse_csv``
reads a result table back into rows.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from banditsim.csvio import HEADER, ResultRow
from banditsim.estimators import SINGULAR_CUTOFF, SufficientStats, gaussian_prior, posterior_mean

# The two-bridge instance's contexts: the top and the bottom bridge.
TOP = np.array([1.0, 0.0])
BOTTOM = np.array([0.0, 1.0])


class Group(Enum):
    MAJORITY = "majority"
    MINORITY = "minority"


def as_context(coords, d: int | None = None) -> np.ndarray:
    """Validate coordinates and return them as a 1-d float64 vector.

    Parameters
    ----------
    coords : array-like
        Candidate context coordinates.
    d : int, optional
        Required dimension; mismatches raise ``ValueError``.
    """
    x = np.asarray(coords, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("context vector must be one-dimensional and non-empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("context vector coordinates must be finite")
    if d is not None and x.shape[0] != d:
        raise ValueError(f"context vector has dimension {x.shape[0]}, expected {d}")
    return x


@dataclass(frozen=True)
class ContextRound:
    """One round of available actions.

    ``contexts`` holds one optional vector per action slot; ``None`` marks an
    unavailable action.  Every available vector must share one dimension.
    """

    contexts: tuple
    group: Group
    round_index: int = 1

    def __post_init__(self):
        if not isinstance(self.contexts, tuple):
            object.__setattr__(self, "contexts", tuple(self.contexts))
        if len(self.contexts) < 1:
            raise ValueError("a round needs at least one action slot")
        if self.round_index < 1:
            raise ValueError("round_index starts at 1")
        avail = [c for c in self.contexts if c is not None]
        if not avail:
            raise ValueError("at least one context must be available")
        first = as_context(avail[0])
        for c in avail[1:]:
            as_context(c, first.shape[0])

    @property
    def n_actions(self) -> int:
        return len(self.contexts)

    @property
    def dim(self) -> int:
        for c in self.contexts:
            if c is not None:
                return np.asarray(c).shape[0]
        raise ValueError("no available context")

    def available_indices(self) -> tuple:
        return tuple(i for i, c in enumerate(self.contexts) if c is not None)

    def is_available(self, a: int) -> bool:
        return 0 <= a < len(self.contexts) and self.contexts[a] is not None


def empty_stats(d: int) -> SufficientStats:
    """Statistics of no observations in dimension ``d``."""
    return SufficientStats(np.zeros((d, d)), np.zeros(d), 0)


def _ucb_terms(stats: SufficientStats, ridge: float):
    """Point estimate and a quadratic-form evaluator for the width term.

    With ridge 0 and singular Z the evaluator returns ``inf`` for any vector
    touching the null space of Z, which forces exploration of unseen
    directions.
    """
    d = stats.dim
    if ridge > 0.0:
        A = stats.Z + ridge * np.eye(d)
        A_inv = np.linalg.inv(A)
        A_inv = 0.5 * (A_inv + A_inv.T)
        theta_hat = A_inv @ stats.xr

        def quad(x: np.ndarray) -> float:
            return float(x @ A_inv @ x)

        return theta_hat, quad

    vals, vecs = np.linalg.eigh(stats.Z)
    cutoff = SINGULAR_CUTOFF * max(float(vals.max(initial=0.0)), 1e-300)
    keep = vals > cutoff
    inv_vals = np.zeros_like(vals)
    inv_vals[keep] = 1.0 / vals[keep]
    theta_hat = (vecs * inv_vals) @ (vecs.T @ stats.xr)

    def quad(x: np.ndarray) -> float:
        comps = vecs.T @ x
        null_mass = float(np.linalg.norm(comps[~keep])) if (~keep).any() else 0.0
        if null_mass > 1e-9 * max(1.0, float(np.linalg.norm(x))):
            return math.inf
        return float(np.sum(comps[keep] ** 2 * inv_vals[keep]))

    return theta_hat, quad


def linucb_scores(round_: ContextRound, stats: SufficientStats, f: float, ridge: float) -> np.ndarray:
    """Upper confidence bounds per action slot; unavailable slots score -inf."""
    theta_hat, quad = _ucb_terms(stats, ridge)
    scores = np.full(round_.n_actions, -math.inf)
    for a in round_.available_indices():
        x = round_.contexts[a]
        q = quad(x)
        if math.isinf(q):
            scores[a] = math.inf
        else:
            scores[a] = float(x @ theta_hat) + f * math.sqrt(max(q, 0.0))
    return scores


def greedy_select(round_: ContextRound, estimate: np.ndarray) -> int:
    """Greedy action under a point estimate; ties go to the lowest index."""
    estimate = np.asarray(estimate, dtype=float)
    best, best_val = -1, -math.inf
    for a in round_.available_indices():
        val = float(round_.contexts[a] @ estimate)
        if val > best_val:
            best, best_val = a, val
    return best


def instantaneous_regret(theta: np.ndarray, round_: ContextRound, chosen: int) -> float:
    """Best available mean reward minus the chosen action's mean reward."""
    if not round_.is_available(chosen):
        raise ValueError(f"chosen action {chosen} is unavailable in round {round_.round_index}")
    theta = np.asarray(theta, dtype=float)
    vals = [float(theta @ round_.contexts[a]) for a in round_.available_indices()]
    return max(vals) - float(theta @ round_.contexts[chosen])


def bayes_posterior_mean(
    stats: SufficientStats,
    prior_mean: np.ndarray,
    prior_cov: np.ndarray,
) -> np.ndarray:
    """Posterior mean under the prior (prior_mean, prior_cov); see ``posterior_mean``."""
    return posterior_mean(stats, gaussian_prior(prior_mean, prior_cov))


def parse_csv(text: str) -> list:
    """Parse ``emit_csv`` output back into rows; exact float round-trip."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != HEADER:
        raise ValueError(f"unexpected header: {header}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        if len(rec) != len(HEADER):
            raise ValueError(f"malformed row: {rec}")
        rows.append(
            ResultRow(
                experiment=rec[0],
                policy=rec[1],
                horizon=int(rec[2]),
                replicate=int(rec[3]),
                seed=int(rec[4]),
                regret_total=float(rec[5]),
                regret_minority=float(rec[6]),
                regret_prediction=float(rec[7]),
                theta_draw_id=int(rec[8]),
            )
        )
    return rows
