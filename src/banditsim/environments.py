"""Instances: the two-bridge routing population, perturbed-context catalogs, and
the prior draw of the latent weights.  The engines draw the rounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, NoiseKind
from .estimators import GaussianPrior

THETA_VARIANTS = ("theta0", "theta1")


@dataclass(frozen=True)
class TwoBridgeConfig:
    """Two-route population with a majority that only ever sees the top route.

    A round is majority with probability ``p_majority`` (both slots carry the
    top context); otherwise it is a minority round, which exposes only the
    bottom context with conditional probability ``p_minority_c`` and both
    contexts with probability ``p_minority_b``.  The reward gap ``epsilon`` is
    always recomputed as ``1/sqrt(horizon)`` and never stored.
    """

    horizon: int
    theta_variant: str = "theta0"
    noise: NoiseKind = NoiseKind.GAUSSIAN_UNIT
    p_majority: float = 0.95
    p_minority_c: float = 0.95
    p_minority_b: float = 0.05

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigurationError("horizon must be at least 1")
        if self.theta_variant not in THETA_VARIANTS:
            raise ConfigurationError(f"theta_variant must be one of {THETA_VARIANTS}")
        if not 0.0 <= self.p_majority < 1.0:
            raise ConfigurationError("p_majority must lie in [0, 1)")
        for name in ("p_minority_c", "p_minority_b"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1]")
        if abs(self.p_minority_c + self.p_minority_b - 1.0) > 1e-12:
            raise ConfigurationError("minority round probabilities must sum to 1")

    @property
    def epsilon(self) -> float:
        return 1.0 / math.sqrt(self.horizon)

    @property
    def theta(self) -> np.ndarray:
        e = self.epsilon
        if self.theta_variant == "theta0":
            return np.array([0.5, 0.5 - e])
        return np.array([0.5 - e, 0.5])

    def kind_probabilities(self) -> tuple:
        """Unconditional (A, C, B) probabilities."""
        p_min = 1.0 - self.p_majority
        return (
            self.p_majority,
            p_min * self.p_minority_c,
            p_min * self.p_minority_b,
        )


@dataclass(frozen=True, eq=False)
class Catalog:
    """Finite weighted catalog of mean tuples with Gaussian context perturbations.

    Entry ``i`` offers action slot ``a`` when ``avail[i, a]``, with mean
    ``means[i, a]`` of norm at most 1; unavailable slots are zeroed.  Each
    round draws one entry by weight (group first, minority with probability
    ``minority_prob``, when that is positive), then adds independent
    N(0, rho^2) noise to every coordinate of every slot.
    """

    means: np.ndarray     # (n, K, d)
    avail: np.ndarray     # (n, K) bool
    weights: np.ndarray   # (n,) positive; the draw normalizes them per group
    minority: np.ndarray  # (n,) bool
    rho: float
    minority_prob: float = 0.0

    def __post_init__(self):
        try:
            means = np.asarray(self.means, dtype=float)
            avail = np.asarray(self.avail, dtype=bool)
        except ValueError:
            raise ConfigurationError("catalog entries must agree on d and K") from None
        weights = np.asarray(self.weights, dtype=float)
        minority = np.asarray(self.minority, dtype=bool)
        n = weights.shape[0] if weights.ndim == 1 else -1
        if n == 0:
            raise ConfigurationError("catalog must contain at least one entry")
        if (means.ndim != 3 or means.shape[0] != n or means.shape[2] < 1
                or avail.shape != means.shape[:2] or minority.shape != (n,)):
            raise ConfigurationError("catalog entries must agree on d and K")
        means = np.where(avail[:, :, None], means, 0.0)
        if not np.all(weights > 0):
            raise ConfigurationError("catalog entry weight must be positive")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(weights))):
            raise ConfigurationError("catalog means and weights must be finite")
        if not np.all(avail.any(axis=1)):
            raise ConfigurationError("catalog entry needs at least one available action")
        if np.any(np.linalg.norm(means, axis=2) > 1.0 + 1e-12):
            raise ConfigurationError("mean vectors must have norm at most 1")
        if not 0.0 <= self.rho <= 1.0 / math.sqrt(means.shape[2]) + 1e-12:
            raise ConfigurationError("rho must lie in [0, 1/sqrt(d)]")
        if not 0.0 <= self.minority_prob < 1.0:
            raise ConfigurationError("minority_prob must lie in [0, 1)")
        if self.minority_prob > 0 and (minority.all() or not minority.any()):
            raise ConfigurationError("two-group catalogs need entries for both groups")
        for name, value in (("means", means), ("avail", avail), ("weights", weights), ("minority", minority)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.means.shape[2]

    @property
    def n_actions(self) -> int:
        return self.means.shape[1]

    def minority_only(self) -> Catalog:
        """The minority entries alone, in their order: every round is a minority round."""
        keep = self.minority
        return Catalog(self.means[keep], self.avail[keep], self.weights[keep], self.minority[keep], self.rho)


def draw_theta(prior: GaussianPrior, rng: np.random.Generator) -> np.ndarray:
    """Sample latent weights from the prior through its Cholesky factor."""
    return prior.mean + prior.chol @ rng.standard_normal(prior.mean.shape[0])
