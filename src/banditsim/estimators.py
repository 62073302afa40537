"""OLS and Gaussian posterior from (Z, xr), the Gaussian prior, and eigenvalues.

``Z`` is the symmetrised Gram matrix sum x x^T of the observed contexts and
``xr`` the reward-weighted sum sum r x, both plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError

# Relative cutoff below which singular values of Z count as zero.
SINGULAR_CUTOFF = 1e-10
SYMMETRY_TOL = 1e-9


def _solve_spd(M: np.ndarray, b: np.ndarray, pivot_tol: float = 0.0) -> np.ndarray:
    """Solve M v = b for symmetric positive semidefinite M via Cholesky.

    Falls back to an eigendecomposition pseudo-inverse, treating eigenvalues
    below SINGULAR_CUTOFF * max as zero, when the factorization fails or a
    squared pivot is at most ``pivot_tol * trace(M)``.  Rounding can let
    the factorization of an exactly singular M succeed with a tiny pivot, and
    its solution then is not the minimum-norm one; a positive definite M
    needs no ``pivot_tol``.
    """
    try:
        c = np.linalg.cholesky(M)
        if pivot_tol and c.diagonal().min() ** 2 <= pivot_tol * M.trace():
            raise np.linalg.LinAlgError("numerically singular")
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(M)
        cutoff = SINGULAR_CUTOFF * max(float(vals.max(initial=0.0)), 1e-300)
        inv = np.zeros_like(vals)
        keep = vals > cutoff
        inv[keep] = 1.0 / vals[keep]
        return (vecs * inv) @ (vecs.T @ b)
    y = np.linalg.solve(c, b)
    return np.linalg.solve(c.T, y)


def ols_estimate(Z: np.ndarray, xr: np.ndarray) -> np.ndarray:
    """Least-squares estimate Z^-1 xr; minimum-norm solution when Z is singular."""
    return _solve_spd(Z, xr, SINGULAR_CUTOFF)


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


def posterior_mean(Z: np.ndarray, xr: np.ndarray, prior: GaussianPrior) -> np.ndarray:
    """Posterior mean (Z + Sigma^-1)^-1 (xr + Sigma^-1 theta_bar) for unit noise."""
    return _solve_spd(Z + prior.precision, xr + prior.shift)


def min_eigenvalue(M: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix via a symmetric eigensolver."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if np.max(np.abs(M - M.T), initial=0.0) > SYMMETRY_TOL:
        raise ValueError("matrix is asymmetric beyond tolerance")
    return float(np.linalg.eigvalsh(M)[0])
