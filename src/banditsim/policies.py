"""Decision rules: LinUCB parameters and widths, and the batch-size and
context-norm bounds of perturbed instances."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LinUCBParams:
    """Confidence-interval parameters for LinUCB.

    ``width_floor`` lower-bounds the interval multiplier f(t); the default 0
    leaves the standard self-normalized width untouched.
    """

    L: float
    S: float
    horizon: int
    ridge: float = 0.0
    width_floor: float = 0.0

    def __post_init__(self):
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if self.L < 1.0:
            raise ValueError("L must be at least 1")
        if not 0.0 < self.S < self.horizon:
            raise ValueError("S must be positive and smaller than the horizon")
        if self.ridge < 0.0:
            raise ValueError("ridge must be nonnegative")
        if self.width_floor < 0.0:
            raise ValueError("width_floor must be nonnegative")

    @classmethod
    def for_two_bridge(cls, horizon: int, enforce_floor: bool = True) -> "LinUCBParams":
        """Bounds for the two-bridge instance: unit basis contexts, d = 2.

        S follows the usual norm-bound recipe ||theta|| + sqrt(3 d ln T) with
        ||theta|| <= 1/sqrt(2) on this instance.  ``enforce_floor`` keeps
        f(t) >= 2 sqrt(ln horizon), the regime in which the top bridge is
        provably preferred once minority data accumulates.
        """
        floor = 2.0 * math.sqrt(math.log(horizon)) if enforce_floor else 0.0
        big_s = 1.0 / math.sqrt(2.0) + math.sqrt(6.0 * math.log(horizon))
        return cls(L=1.0, S=big_s, horizon=horizon, width_floor=floor)

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


def interval_width(t_obs: int, params: LinUCBParams, d: int) -> float:
    """Confidence multiplier f after ``t_obs`` observations in dimension ``d``."""
    if t_obs < 0:
        raise ValueError("observation count must be nonnegative")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    t_total = params.horizon
    val = params.S + math.sqrt(d * math.log(t_total + t_obs * t_total * params.L**2))
    return max(params.width_floor, val)


def suggested_batch_size(
    rho: float,
    d: int,
    horizon: int,
    delta: float,
    n_actions: int | None = None,
    context_bound: float | None = None,
) -> int:
    """Batch length above which one batch is diverse enough to simulate rewards.

    Evaluates ceil of
    ``(R/rho)^2 * (8 e^2/(e-1)^2) * (1 + log(2d/delta)) * log T
    + (4 e/(e-1)) * log(2/delta)``.
    ``context_bound`` overrides the high-probability context-norm bound R;
    otherwise R is computed from the instance as
    ``1 + rho * sqrt(2 log(2 T K d / delta_R)) * sqrt(d)`` with
    ``delta_R = T^-2``.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    if context_bound is None:
        if n_actions is None:
            raise ValueError("need n_actions to derive the context-norm bound")
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
