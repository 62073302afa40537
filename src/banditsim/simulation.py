"""Reward simulation from batched data.

A diverse batch of contexts ``X_B`` with rewards ``r_B`` can synthesize an
unbiased unit-variance reward for any target ``x`` inside the batch's
diversity radius: take ``w = X_B (X_B^T X_B)^-1 x`` so that ``X_B^T w = x``,
return ``w . r_B`` plus independent noise of variance ``1 - ||w||^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import min_eigenvalue

# Residual variances this far below zero indicate the target left the radius.
NEGATIVE_VAR_TOL = 1e-12
DIVERSITY_FLOOR = 1e-10


class InsufficientDiversityError(RuntimeError):
    """The batch Gram matrix is singular; no simulation weights exist."""


class RadiusError(ValueError):
    """The target context lies outside the batch's simulation radius."""


@dataclass(frozen=True)
class SimulationWeights:
    """Weights over one batch's rewards plus the top-up noise variance."""

    w: np.ndarray
    residual_var: float

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))

    @property
    def batch_length(self) -> int:
        return self.w.shape[0]


def simulation_weights(batch_contexts: np.ndarray, x: np.ndarray) -> SimulationWeights:
    """Construct simulation weights for target ``x`` from a batch of contexts.

    Parameters
    ----------
    batch_contexts : (Y, d) array
        Context rows of one completed batch.
    x : (d,) array
        Target context; must satisfy ``||x||^2 <= lambda_min(X^T X)`` for the
        resulting mixture to stay a proper distribution.
    """
    X = np.asarray(batch_contexts, dtype=float)
    x = np.asarray(x, dtype=float)
    if X.ndim != 2:
        raise ValueError("batch contexts must form a (Y, d) matrix")
    if x.shape != (X.shape[1],):
        raise ValueError("target dimension must match the batch")
    Z = X.T @ X
    Z = 0.5 * (Z + Z.T)
    if min_eigenvalue(Z) <= DIVERSITY_FLOOR:
        raise InsufficientDiversityError("batch Gram matrix is singular")
    w = X @ np.linalg.solve(Z, x)
    back = X.T @ w
    scale = max(1.0, float(np.linalg.norm(x)))
    if float(np.linalg.norm(back - x)) > 1e-8 * scale:
        raise InsufficientDiversityError("weight construction failed to reproduce the target")
    residual = 1.0 - float(w @ w)
    if -NEGATIVE_VAR_TOL <= residual < 0.0:
        residual = 0.0
    return SimulationWeights(w, residual)


def simulate_reward_many(
    weights: SimulationWeights,
    batch_reward_draws: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Synthesize one reward per row of independent batch-reward draws.

    Each value is the weighted batch rewards plus top-up Gaussian noise of the
    residual variance, drawn from ``rng``.
    """
    R = np.asarray(batch_reward_draws, dtype=float)
    if R.ndim != 2 or R.shape[1] != weights.batch_length:
        raise ValueError("draws must form an (m, Y) matrix")
    if weights.residual_var < 0.0:
        raise RadiusError("target outside the simulation radius")
    values = R @ weights.w
    if weights.residual_var > 0.0:
        values = values + math.sqrt(weights.residual_var) * rng.standard_normal(R.shape[0])
    return values
