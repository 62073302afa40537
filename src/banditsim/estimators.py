"""Sufficient statistics and the frequentist / Bayesian point estimators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError

# Relative cutoff below which singular values of Z count as zero.
SINGULAR_CUTOFF = 1e-10
SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class SufficientStats:
    """Value-semantic regression statistics: Z = sum xx^T, xr = sum rx, n rounds."""

    Z: np.ndarray
    xr: np.ndarray
    n: int

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        xr = np.asarray(self.xr, dtype=float)
        if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
            raise ValueError("Z must be square")
        if xr.shape != (Z.shape[0],):
            raise ValueError("xr dimension must match Z")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "xr", xr)

    @property
    def dim(self) -> int:
        return self.Z.shape[0]


def _solve_spd(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M v = b for symmetric positive definite M via Cholesky.

    Falls back to an eigendecomposition pseudo-inverse when the factorization
    fails, treating eigenvalues below SINGULAR_CUTOFF * max as zero.
    """
    try:
        c = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(M)
        cutoff = SINGULAR_CUTOFF * max(float(vals.max(initial=0.0)), 1e-300)
        inv = np.zeros_like(vals)
        keep = vals > cutoff
        inv[keep] = 1.0 / vals[keep]
        return (vecs * inv) @ (vecs.T @ b)
    y = np.linalg.solve(c, b)
    return np.linalg.solve(c.T, y)


def ols_estimate(stats: SufficientStats) -> np.ndarray:
    """Least-squares estimate Z^-1 xr; minimum-norm solution when Z is singular."""
    Z, xr = stats.Z, stats.xr
    try:
        c = np.linalg.cholesky(Z)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(Z, rcond=SINGULAR_CUTOFF, hermitian=True) @ xr
    y = np.linalg.solve(c, xr)
    return np.linalg.solve(c.T, y)


@dataclass(frozen=True, eq=False)
class GaussianPrior:
    """A validated Gaussian prior N(theta_bar, Sigma) in the forms its users need.

    ``precision`` is Sigma^-1 and ``shift`` is Sigma^-1 theta_bar, for the
    posterior mean; ``chol`` is the lower Cholesky factor of Sigma, for draws.
    """

    mean: np.ndarray
    precision: np.ndarray
    shift: np.ndarray
    chol: np.ndarray


def gaussian_prior(prior_mean: np.ndarray, prior_cov: np.ndarray) -> GaussianPrior:
    """Validate a prior, then factor and invert its covariance, once per run."""
    prior_mean = np.asarray(prior_mean, dtype=float)
    prior_cov = np.asarray(prior_cov, dtype=float)
    d = prior_mean.shape[0] if prior_mean.ndim == 1 else -1
    if d < 1 or prior_cov.shape != (d, d) or not np.all(np.isfinite(prior_mean)):
        raise ConfigurationError("prior mean must be finite, with dimensions that match the covariance")
    if not np.allclose(prior_cov, prior_cov.T, atol=SYMMETRY_TOL):
        raise ConfigurationError("prior covariance must be symmetric")
    try:
        chol = np.linalg.cholesky(prior_cov)
    except np.linalg.LinAlgError:
        raise ConfigurationError("prior covariance must be positive definite") from None
    precision = _solve_spd(prior_cov, np.eye(d))
    precision = 0.5 * (precision + precision.T)
    return GaussianPrior(prior_mean, precision, precision @ prior_mean, chol)


def posterior_mean(stats: SufficientStats, prior: GaussianPrior) -> np.ndarray:
    """Posterior mean (Z + Sigma^-1)^-1 (xr + Sigma^-1 theta_bar) for unit noise.

    With no observations this is exactly the prior mean.
    """
    if prior.mean.shape != (stats.dim,):
        raise ValueError("prior dimensions must match the statistics")
    if stats.n == 0:
        return prior.mean.copy()
    return _solve_spd(stats.Z + prior.precision, stats.xr + prior.shift)


def min_eigenvalue(M: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix via a symmetric eigensolver."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if np.max(np.abs(M - M.T), initial=0.0) > SYMMETRY_TOL:
        raise ValueError("matrix is asymmetric beyond tolerance")
    return float(np.linalg.eigvalsh(M)[0])
