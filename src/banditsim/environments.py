"""Instances: the two-bridge routing population, perturbed-context catalogs, and
the prior draw of the latent weights.  The engines draw the rounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, Group, NoiseKind, as_context

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


@dataclass(frozen=True)
class CatalogEntry:
    """One weighted mean tuple of a perturbed-context catalog.

    ``means`` holds one optional mean vector per action slot; every present
    mean must have Euclidean norm at most 1.
    """

    weight: float
    means: tuple
    group: Group = Group.MAJORITY

    def __post_init__(self):
        if not isinstance(self.means, tuple):
            object.__setattr__(self, "means", tuple(self.means))
        if self.weight <= 0:
            raise ConfigurationError("catalog entry weight must be positive")
        avail = [m for m in self.means if m is not None]
        if not avail:
            raise ConfigurationError("catalog entry needs at least one available action")
        first = as_context(avail[0])
        for m in avail:
            m = as_context(m, first.shape[0])
            if np.linalg.norm(m) > 1.0 + 1e-12:
                raise ConfigurationError("mean vectors must have norm at most 1")

    @property
    def dim(self) -> int:
        for m in self.means:
            if m is not None:
                return np.asarray(m).shape[0]
        raise ConfigurationError("no available mean")


@dataclass(frozen=True)
class PerturbedConfig:
    """Finite weighted catalog of mean tuples with Gaussian context perturbations.

    Each round draws one catalog entry (group first when the catalog is
    two-group), then adds independent N(0, rho^2) noise to every coordinate of
    every available mean.  ``minority_prob`` > 0 requires entries tagged with
    both groups.
    """

    entries: tuple
    rho: float
    minority_prob: float = 0.0

    def __post_init__(self):
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ConfigurationError("catalog must contain at least one entry")
        d = self.entries[0].dim
        k = len(self.entries[0].means)
        for e in self.entries:
            if e.dim != d or len(e.means) != k:
                raise ConfigurationError("catalog entries must agree on d and K")
        if self.rho < 0:
            raise ConfigurationError("rho must be nonnegative")
        if self.rho > 1.0 / math.sqrt(d) + 1e-12:
            raise ConfigurationError("rho must not exceed 1/sqrt(d)")
        if not 0.0 <= self.minority_prob < 1.0:
            raise ConfigurationError("minority_prob must lie in [0, 1)")
        if self.minority_prob > 0:
            groups = {e.group for e in self.entries}
            if groups != {Group.MAJORITY, Group.MINORITY}:
                raise ConfigurationError("two-group catalogs need entries for both groups")

    @property
    def dim(self) -> int:
        return self.entries[0].dim

    @property
    def n_actions(self) -> int:
        return len(self.entries[0].means)

    def group_entries(self, group: Group) -> tuple:
        return tuple(e for e in self.entries if e.group is group)


def draw_theta(prior_mean: np.ndarray, prior_cov: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample latent weights from N(prior_mean, prior_cov) via a Cholesky factor."""
    mean = as_context(prior_mean)
    cov = np.asarray(prior_cov, dtype=float)
    if cov.shape != (mean.shape[0], mean.shape[0]):
        raise ConfigurationError("prior covariance shape does not match prior mean")
    if not np.allclose(cov, cov.T, atol=1e-9):
        raise ConfigurationError("prior covariance must be symmetric")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ConfigurationError("prior covariance must be positive definite") from None
    return mean + chol @ rng.standard_normal(mean.shape[0])
