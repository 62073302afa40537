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

    ``M`` is one matrix or a stack of them, shape (..., d, d), and ``b`` holds
    the matching right-hand columns, shape (..., d, m).  One stacked Cholesky
    factorization and two stacked solves treat every member as it would be
    treated alone.  A member falls back to an eigendecomposition
    pseudo-inverse, treating eigenvalues below SINGULAR_CUTOFF * max as zero,
    when its factorization fails or its squared pivot is at most
    ``pivot_tol * trace``.  Rounding can let the factorization of an exactly
    singular M succeed with a tiny pivot, and its solution then is not the
    minimum-norm one; a positive definite M needs no ``pivot_tol``.
    """
    lead = M.shape[:-2]
    singular = np.zeros(lead, dtype=bool)
    try:
        c = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        # The stacked call names no member, so factor each alone.
        c = np.zeros_like(M)
        for i in np.ndindex(lead):
            try:
                c[i] = np.linalg.cholesky(M[i])
            except np.linalg.LinAlgError:
                singular[i] = True
    if pivot_tol:
        pivots = np.diagonal(c, axis1=-2, axis2=-1).min(axis=-1)
        singular |= pivots**2 <= pivot_tol * np.trace(M, axis1=-2, axis2=-1)
    if singular.any():
        # A placeholder factor keeps the stacked solves from failing on these
        # members; their solutions are replaced below.
        c[singular] = np.eye(M.shape[-1])
    v = np.linalg.solve(c.mT, np.linalg.solve(c, b))
    for i in map(tuple, np.argwhere(singular)):
        vals, vecs = np.linalg.eigh(M[i])
        cutoff = SINGULAR_CUTOFF * max(float(vals.max(initial=0.0)), 1e-300)
        inv = np.zeros_like(vals)
        keep = vals > cutoff
        inv[keep] = 1.0 / vals[keep]
        v[i] = (vecs * inv) @ (vecs.T @ b[i])
    return v


def ols_estimate(Z: np.ndarray, xr: np.ndarray) -> np.ndarray:
    """Least-squares estimate Z^-1 xr; minimum-norm solution when Z is singular.

    ``Z`` is (..., d, d) and ``xr`` (..., d): a leading replicate axis solves
    each replicate's system as it would be solved alone.
    """
    return _solve_spd(Z, xr[..., None], SINGULAR_CUTOFF)[..., 0]


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
    """Posterior mean (Z + Sigma^-1)^-1 (xr + Sigma^-1 theta_bar) for unit noise,
    with the leading axes of ``ols_estimate``."""
    return _solve_spd(Z + prior.precision, (xr + prior.shift)[..., None])[..., 0]


def min_eigenvalue(M: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix via a symmetric eigensolver."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if np.max(np.abs(M - M.T), initial=0.0) > SYMMETRY_TOL:
        raise ValueError("matrix is asymmetric beyond tolerance")
    return float(np.linalg.eigvalsh(M)[0])
