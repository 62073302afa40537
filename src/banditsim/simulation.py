"""Reward simulation from batched data.

A diverse batch of contexts ``X_B`` with rewards ``r_B`` can synthesize an
unbiased unit-variance reward for any target ``x`` inside the batch's
diversity radius: take ``w = X_B (X_B^T X_B)^-1 x`` so that ``X_B^T w = x``,
return ``w . r_B`` plus independent noise of variance ``1 - ||w||^2``.

``simulate_reward_many`` draws the batch rewards itself and streams them
through one buffer of ``SIM_TILE`` rows, so no ``n x Y`` matrix is ever built.
Its draws come in stretches of ``SIM_CHUNK`` rows, each stretch's top-up noise
right after its rows.  ``SIM_CHUNK`` is part of the stream contract: changing
it moves the bytes of every ``verify-simulation`` report.  Each row's weighted
sum is an ``einsum``, which calls no BLAS, so a row's bits depend neither on
``SIM_TILE`` nor on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import min_eigenvalue

# Residual variances this far below zero indicate the target left the radius.
NEGATIVE_VAR_TOL = 1e-12
DIVERSITY_FLOOR = 1e-10

# Rows per stretch of batch-reward draws (part of the stream contract), and
# rows per pass through the reused buffer (1.2 MB at Y = 300).
SIM_CHUNK = 10_000
SIM_TILE = 512


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
    batch_means: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Synthesize ``n`` rewards, each from a fresh draw of the batch rewards.

    A draw is the row ``batch_means + N(0, I_Y)``; its reward is the weighted
    sum of the row plus top-up Gaussian noise of the residual variance.  The
    rows come from ``rng`` in stretches of ``SIM_CHUNK``, each followed by the
    top-up noise of its stretch, and pass ``SIM_TILE`` at a time through one
    reused buffer.
    """
    means = np.asarray(batch_means, dtype=float)
    if means.shape != (weights.batch_length,):
        raise ValueError("batch means must have one entry per batch reward")
    if weights.residual_var < 0.0:
        raise RadiusError("target outside the simulation radius")
    sims = np.empty(n)
    tile = np.empty((min(SIM_TILE, n), means.shape[0]))
    for start in range(0, n, SIM_CHUNK):
        stop = min(start + SIM_CHUNK, n)
        for lo in range(start, stop, SIM_TILE):
            hi = min(lo + SIM_TILE, stop)
            rows = tile[:hi - lo]
            rng.standard_normal(out=rows)
            np.add(rows, means, out=rows)
            np.einsum("ij,j->i", rows, weights.w, out=sims[lo:hi])
        if weights.residual_var > 0.0:
            sims[start:stop] += math.sqrt(weights.residual_var) * rng.standard_normal(stop - start)
    return sims
