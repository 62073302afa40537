"""Sufficient statistics, least squares, and posterior means."""

import numpy as np
import pytest

from banditsim.estimators import (
    SufficientStats,
    bayes_posterior_mean,
    estimate_error,
    gaussian_prior,
    min_eigenvalue,
    ols_estimate,
    posterior_mean,
    stats_from_data,
    update_stats,
)
from banditsim.rng import Purpose, stream


class TestSufficientStats:
    def test_empty(self):
        s = SufficientStats.empty(3)
        assert s.n == 0
        np.testing.assert_array_equal(s.Z, np.zeros((3, 3)))
        np.testing.assert_array_equal(s.xr, np.zeros(3))

    def test_single_update(self):
        s = update_stats(SufficientStats.empty(2), np.array([1.0, 0.0]), 2.0)
        np.testing.assert_array_equal(s.Z, [[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(s.xr, [2.0, 0.0])
        assert s.n == 1

    def test_update_is_order_independent(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 3))
        r = rng.normal(size=10)
        s_fwd = SufficientStats.empty(3)
        s_rev = SufficientStats.empty(3)
        for i in range(10):
            s_fwd = update_stats(s_fwd, X[i], r[i])
            s_rev = update_stats(s_rev, X[9 - i], r[9 - i])
        np.testing.assert_allclose(s_fwd.Z, s_rev.Z)
        np.testing.assert_allclose(s_fwd.xr, s_rev.xr)
        assert s_fwd.n == s_rev.n == 10

    def test_incremental_matches_batch(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 4))
        r = rng.normal(size=100)
        s = SufficientStats.empty(4)
        for i in range(100):
            s = update_stats(s, X[i], r[i])
        batch = stats_from_data(X, r)
        np.testing.assert_allclose(s.Z, batch.Z, atol=1e-9)
        np.testing.assert_allclose(s.xr, batch.xr, atol=1e-9)
        assert s.n == batch.n

    def test_validation(self):
        with pytest.raises(ValueError):
            SufficientStats(Z=np.zeros((2, 3)), xr=np.zeros(2), n=0)
        with pytest.raises(ValueError):
            SufficientStats(Z=np.zeros((2, 2)), xr=np.zeros(3), n=0)
        with pytest.raises(ValueError):
            SufficientStats(Z=np.zeros((2, 2)), xr=np.zeros(2), n=-1)


class TestOlsEstimate:
    def test_identity_design(self):
        s = stats_from_data(np.eye(2), np.array([0.3, 0.7]))
        np.testing.assert_allclose(ols_estimate(s), [0.3, 0.7])

    def test_repeated_rows_average(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        r = np.array([1.0, 0.0, 1.0])
        np.testing.assert_allclose(ols_estimate(stats_from_data(X, r)), [0.5, 1.0])

    def test_rank_deficient_min_norm(self):
        s = stats_from_data(np.array([[1.0, 0.0]]), np.array([1.0]))
        np.testing.assert_allclose(ols_estimate(s), [1.0, 0.0], atol=1e-12)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(2)
        theta = np.array([0.4, -0.9, 0.2])
        X = rng.normal(size=(50, 3))
        s = stats_from_data(X, X @ theta)
        np.testing.assert_allclose(ols_estimate(s), theta, atol=1e-8)

    def test_no_data(self):
        np.testing.assert_array_equal(ols_estimate(SufficientStats.empty(2)), [0.0, 0.0])


class TestBayesPosteriorMean:
    def test_no_data_returns_prior_mean(self):
        mean = np.array([0.1, -0.2])
        out = bayes_posterior_mean(SufficientStats.empty(2), mean, np.eye(2))
        np.testing.assert_array_equal(out, mean)
        out[0] = 99.0
        assert mean[0] == 0.1  # defensive copy

    def test_single_observation_standard_prior(self):
        s = update_stats(SufficientStats.empty(2), np.array([1.0, 0.0]), 1.0)
        out = bayes_posterior_mean(s, np.zeros(2), np.eye(2))
        np.testing.assert_allclose(out, [0.5, 0.0])

    def test_flat_prior_matches_ols(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 2))
        r = rng.normal(size=40)
        s = stats_from_data(X, r)
        flat = bayes_posterior_mean(s, np.zeros(2), 1e8 * np.eye(2))
        np.testing.assert_allclose(flat, ols_estimate(s), atol=1e-4)

    def test_matches_grid_integration_1d(self):
        # Conjugate check against numeric posterior integration in d = 1.
        rng = np.random.default_rng(4)
        x = rng.normal(size=12)
        theta_true = 0.7
        r = theta_true * x + rng.standard_normal(12)
        prior_mean, prior_var = 0.2, 0.5

        s = stats_from_data(x[:, None], r)
        closed = bayes_posterior_mean(
            s, np.array([prior_mean]), np.array([[prior_var]])
        )[0]

        grid = np.linspace(-5, 5, 200_001)
        log_post = -0.5 * ((r[None, :] - grid[:, None] * x[None, :]) ** 2).sum(axis=1)
        log_post -= (grid - prior_mean) ** 2 / (2 * prior_var)
        post = np.exp(log_post - log_post.max())
        numeric = float(np.trapezoid(grid * post, grid) / np.trapezoid(post, grid))
        assert closed == pytest.approx(numeric, abs=1e-3)

    def test_invalid_prior(self):
        s = SufficientStats.empty(2)
        with pytest.raises(ValueError):
            bayes_posterior_mean(s, np.zeros(2), np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            bayes_posterior_mean(s, np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_prior_step_is_reused_across_statistics(self):
        rng = np.random.default_rng(5)
        mean, cov = np.array([0.3, -0.1]), np.array([[2.0, 0.4], [0.4, 1.0]])
        prior = gaussian_prior(mean, cov)
        for n in (0, 1, 7):
            X = rng.normal(size=(n, 2))
            s = stats_from_data(X, rng.normal(size=n))
            np.testing.assert_array_equal(posterior_mean(s, prior), bayes_posterior_mean(s, mean, cov))

    def test_prior_dimensions_checked(self):
        with pytest.raises(ValueError):
            gaussian_prior(np.zeros(2), np.eye(3))
        with pytest.raises(ValueError):
            posterior_mean(SufficientStats.empty(2), gaussian_prior(np.zeros(3), np.eye(3)))


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


class TestEstimateError:
    def test_zero(self):
        assert estimate_error(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_unit_offsets(self):
        assert estimate_error(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
            np.sqrt(2)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            estimate_error(np.zeros(2), np.zeros(3))


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
                est = ols_estimate(stats_from_data(X[:n], r[:n]))
                errs[rep, j] = estimate_error(est, theta)
        ratio = np.median(errs[:, 1]) / np.median(errs[:, 0])
        assert ratio < 0.5
