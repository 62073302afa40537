"""Least squares and posterior means from (Z, xr), the prior, and eigenvalues."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from banditsim.core import ConfigurationError
from banditsim.estimators import (
    SINGULAR_CUTOFF,
    gaussian_prior,
    min_eigenvalue,
    ols_estimate,
    posterior_mean,
)
from banditsim.rng import Purpose, stream
from oracles import bayes_posterior_mean, empty_stats


def stats_of(X, r) -> tuple:
    """Statistics ``(Z, xr)`` of the rows X with rewards r: Z = X^T X, xr = X^T r."""
    X = np.asarray(X, dtype=float)
    return X.T @ X, X.T @ np.asarray(r, dtype=float)


class TestOlsEstimate:
    def test_identity_design(self):
        s = stats_of(np.eye(2), np.array([0.3, 0.7]))
        np.testing.assert_allclose(ols_estimate(*s), [0.3, 0.7])

    def test_repeated_rows_average(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        r = np.array([1.0, 0.0, 1.0])
        np.testing.assert_allclose(ols_estimate(*stats_of(X, r)), [0.5, 1.0])

    def test_rank_deficient_min_norm(self):
        s = stats_of(np.array([[1.0, 0.0]]), np.array([1.0]))
        np.testing.assert_allclose(ols_estimate(*s), [1.0, 0.0], atol=1e-12)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(2)
        theta = np.array([0.4, -0.9, 0.2])
        X = rng.normal(size=(50, 3))
        s = stats_of(X, X @ theta)
        np.testing.assert_allclose(ols_estimate(*s), theta, atol=1e-8)

    def test_no_data(self):
        np.testing.assert_array_equal(ols_estimate(*empty_stats(2)), [0.0, 0.0])


class TestBayesPosteriorMean:
    def test_single_observation_standard_prior(self):
        s = stats_of([[1.0, 0.0]], [1.0])
        out = bayes_posterior_mean(*s, np.zeros(2), np.eye(2))
        np.testing.assert_allclose(out, [0.5, 0.0])

    def test_flat_prior_matches_ols(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 2))
        r = rng.normal(size=40)
        s = stats_of(X, r)
        flat = bayes_posterior_mean(*s, np.zeros(2), 1e8 * np.eye(2))
        np.testing.assert_allclose(flat, ols_estimate(*s), atol=1e-4)

    def test_matches_grid_integration_1d(self):
        # Conjugate check against numeric posterior integration in d = 1.
        rng = np.random.default_rng(4)
        x = rng.normal(size=12)
        theta_true = 0.7
        r = theta_true * x + rng.standard_normal(12)
        prior_mean, prior_var = 0.2, 0.5

        s = stats_of(x[:, None], r)
        closed = bayes_posterior_mean(
            *s, np.array([prior_mean]), np.array([[prior_var]])
        )[0]

        grid = np.linspace(-5, 5, 200_001)
        log_post = -0.5 * ((r[None, :] - grid[:, None] * x[None, :]) ** 2).sum(axis=1)
        log_post -= (grid - prior_mean) ** 2 / (2 * prior_var)
        post = np.exp(log_post - log_post.max())
        numeric = float(np.trapezoid(grid * post, grid) / np.trapezoid(post, grid))
        assert closed == pytest.approx(numeric, abs=1e-3)

    def test_invalid_prior(self):
        s = empty_stats(2)
        with pytest.raises(ValueError):
            bayes_posterior_mean(*s, np.zeros(2), np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            bayes_posterior_mean(*s, np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_prior_step_is_reused_across_statistics(self):
        rng = np.random.default_rng(5)
        mean, cov = np.array([0.3, -0.1]), np.array([[2.0, 0.4], [0.4, 1.0]])
        prior = gaussian_prior(mean, cov)
        for n in (0, 1, 7):
            X = rng.normal(size=(n, 2))
            s = stats_of(X, rng.normal(size=n))
            np.testing.assert_array_equal(posterior_mean(*s, prior), bayes_posterior_mean(*s, mean, cov))

    def test_prior_precision_inverts_covariance(self):
        mean, cov = np.array([0.3, -0.1]), np.array([[2.0, 0.4], [0.4, 1.0]])
        prior = gaussian_prior(mean, cov)
        np.testing.assert_allclose(prior.precision @ cov, np.eye(2), atol=1e-12)
        np.testing.assert_array_equal(prior.precision, prior.precision.T)
        np.testing.assert_allclose(prior.shift, prior.precision @ mean)

    @pytest.mark.parametrize(
        "cov", [np.diag([1.0, 0.0]), np.array([[1.0, 0.5], [0.0, 1.0]])], ids=["singular", "asymmetric"]
    )
    def test_invalid_prior_is_a_configuration_error(self, cov):
        with pytest.raises(ConfigurationError):
            gaussian_prior(np.zeros(2), cov)

    def test_posterior_concentrates_on_least_squares(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20_000, 2))
        s = stats_of(X, X @ np.array([0.7, -0.3]) + rng.standard_normal(20_000))
        prior = gaussian_prior(np.array([5.0, 5.0]), 0.1 * np.eye(2))
        np.testing.assert_allclose(posterior_mean(*s, prior), ols_estimate(*s), atol=5e-3)

    def test_prior_dimensions_checked(self):
        with pytest.raises(ValueError):
            gaussian_prior(np.zeros(2), np.eye(3))
        with pytest.raises(ValueError):
            posterior_mean(*empty_stats(2), gaussian_prior(np.zeros(3), np.eye(3)))


@st.composite
def designs(draw):
    """Rows X of a chosen rank with rewards r.  Integer entries keep X^T X
    exact, so a rank-deficient draw gives an exactly singular Gram matrix."""
    d = draw(st.integers(1, 4))
    rank = draw(st.integers(0, d))
    n = draw(st.integers(rank, 8))
    A = draw(arrays(float, (n, rank), elements=st.integers(-3, 3)))
    B = draw(arrays(float, (rank, d), elements=st.integers(-3, 3)))
    r = draw(arrays(float, n, elements=st.floats(-5, 5)))
    return A @ B, r


ESTIMATOR_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestArrayEstimatorProperties:
    @ESTIMATOR_PROPERTY
    @given(design=designs())
    def test_ols_is_the_minimum_norm_solution(self, design):
        Z, xr = stats_of(*design)
        want = np.linalg.pinv(Z, rtol=SINGULAR_CUTOFF, hermitian=True) @ xr
        np.testing.assert_allclose(ols_estimate(Z, xr), want, rtol=1e-6, atol=1e-6)

    @ESTIMATOR_PROPERTY
    @given(design=designs(), mean_scale=st.floats(-2, 2), cov_scale=st.floats(0.1, 10))
    def test_posterior_mean_solves_the_normal_equations(self, design, mean_scale, cov_scale):
        Z, xr = stats_of(*design)
        d = Z.shape[0]
        mean = mean_scale * np.arange(1, d + 1)
        cov = cov_scale * (np.eye(d) + 0.3 * np.ones((d, d)))
        prior = gaussian_prior(mean, cov)
        theta = posterior_mean(Z, xr, prior)
        np.testing.assert_allclose((Z + prior.precision) @ theta, xr + prior.shift, rtol=1e-8, atol=1e-8)


class TestMinEigenvalue:
    def test_diagonal(self):
        assert min_eigenvalue(np.diag([2.0, 5.0])) == pytest.approx(2.0)

    def test_off_diagonal(self):
        assert min_eigenvalue(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0)

    def test_singular(self):
        assert min_eigenvalue(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            min_eigenvalue(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestErrorDecay:
    def test_error_shrinks_with_more_batches(self):
        # Median estimation error after 19 batches of 200 observations should
        # be well under half the error after 4 batches (1/sqrt(n) scaling
        # predicts a ratio near 0.46); frozen seed keeps the check stable.
        mu = np.array([0.6, 0.4])
        theta = np.array([0.8, -0.5])
        rho, n_small, n_large, reps = 0.3, 800, 3800, 100
        errs = np.empty((reps, 2))
        for rep in range(reps):
            X = mu + stream(20260814, rep, Purpose.PERTURBATIONS).normal(
                0.0, rho, size=(n_large, 2)
            )
            r = X @ theta + stream(20260814, rep, Purpose.REWARDS).standard_normal(n_large)
            for j, n in enumerate((n_small, n_large)):
                est = ols_estimate(*stats_of(X[:n], r[:n]))
                errs[rep, j] = np.linalg.norm(est - theta)
        ratio = np.median(errs[:, 1]) / np.median(errs[:, 0])
        assert ratio < 0.5
