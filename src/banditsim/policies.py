"""Decision rules: LinUCB parameters and widths, and the batch-size and
context-norm bounds of perturbed instances."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinUCBParams:
    """Confidence-interval parameters for LinUCB."""

    L: float
    S: float
    horizon: int
    ridge: float = 0.0

    def __post_init__(self):
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if self.L < 1.0:
            raise ValueError("L must be at least 1")
        if not 0.0 < self.S < self.horizon:
            raise ValueError("S must be positive and smaller than the horizon")
        if self.ridge < 0.0:
            raise ValueError("ridge must be nonnegative")

    @classmethod
    def for_two_bridge(cls, horizon: int) -> "LinUCBParams":
        """Bounds for the two-bridge instance: unit basis contexts, d = 2.

        S follows the usual norm-bound recipe ||theta|| + sqrt(3 d ln T) with
        ||theta|| <= 1/sqrt(2) on this instance.  Since f(t) >= S > 2 sqrt(ln
        horizon), f stays in the regime in which the top bridge is provably
        preferred once minority data accumulates.
        """
        big_s = 1.0 / math.sqrt(2.0) + math.sqrt(6.0 * math.log(horizon))
        return cls(L=1.0, S=big_s, horizon=horizon)

    @classmethod
    def for_perturbed(
        cls,
        d: int,
        n_actions: int,
        horizon: int,
        rho: float,
        prior_norm: float,
        ridge: float = 1.0,
    ) -> "LinUCBParams":
        """Default bounds for perturbed-context instances.

        L bounds context norms with high probability and S bounds the latent
        weight norm under a unit-covariance prior whose mean has norm
        ``prior_norm``.
        """
        big_l = 1.0 + rho * math.sqrt(2.0 * d * math.log(2.0 * horizon**3 * n_actions * d))
        big_s = prior_norm + math.sqrt(3.0 * d * math.log(horizon))
        return cls(L=max(1.0, big_l), S=big_s, horizon=horizon, ridge=ridge)


def interval_width(t_obs, params: LinUCBParams, d: int) -> np.ndarray:
    """Confidence multipliers f after each count in ``t_obs`` of observations,
    in dimension ``d``; the result has the shape of ``t_obs``.

    The log is ``math.log`` of each count's argument, so every width is the
    float a scalar evaluation gives; the square root and the sums round
    exactly either way.
    """
    t_obs = np.asarray(t_obs, dtype=np.int64)
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if t_obs.size and t_obs.min() < 0:
        raise ValueError("observation count must be nonnegative")
    t_total = params.horizon
    args = t_total + t_obs * t_total * params.L**2
    logs = np.fromiter(map(math.log, args.ravel().tolist()), dtype=float, count=args.size)
    return params.S + np.sqrt(d * logs.reshape(t_obs.shape))


def suggested_batch_size(rho: float, d: int, horizon: int, delta: float, n_actions: int) -> int:
    """Batch length above which one batch is diverse enough to simulate rewards.

    Evaluates ceil of
    ``(R/rho)^2 * (8 e^2/(e-1)^2) * (1 + log(2d/delta)) * log T
    + (4 e/(e-1)) * log(2/delta)``
    with R the context-norm bound ``context_norm_bound(rho, d, T, K)``.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    context_bound = context_norm_bound(rho, d, horizon, n_actions)
    e = math.e
    log_t = math.log(horizon)
    term1 = (context_bound / rho) ** 2 * (8 * e**2 / (e - 1) ** 2)
    term1 *= (1.0 + math.log(2.0 * d / delta)) * log_t
    term2 = (4 * e / (e - 1)) * math.log(2.0 / delta)
    return int(math.ceil(term1 + term2))


def context_norm_bound(rho: float, d: int, horizon: int, n_actions: int) -> float:
    """High-probability bound R on perturbed context norms at failure rate T^-2."""
    delta_r = float(horizon) ** -2
    r_hat = rho * math.sqrt(2.0 * math.log(2.0 * horizon * n_actions * d / delta_r))
    return 1.0 + r_hat * math.sqrt(d)
