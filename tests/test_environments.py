"""Instances: two-bridge configs and kind draws, perturbed catalogs, latent draws."""

import numpy as np
import pytest

from banditsim.core import ConfigurationError, NoiseKind
from banditsim.engines import (
    _A,
    _B,
    _C,
    _kind_codes,
    _seg_sums,
    _single_rewards,
    run_perturbed_batch_greedy,
    run_perturbed_linucb,
)
from banditsim.environments import Catalog, TwoBridgeConfig, draw_theta
from banditsim.estimators import gaussian_prior
from banditsim.policies import LinUCBParams, context_norm_bound
from banditsim.rng import Purpose, stream


class TestTwoBridgeConfig:
    def test_epsilon_tracks_horizon(self):
        assert TwoBridgeConfig(horizon=100).epsilon == pytest.approx(0.1)
        assert TwoBridgeConfig(horizon=10_000).epsilon == pytest.approx(0.01)

    def test_theta_variants(self):
        c0 = TwoBridgeConfig(horizon=100, theta_variant="theta0")
        c1 = TwoBridgeConfig(horizon=100, theta_variant="theta1")
        np.testing.assert_allclose(c0.theta, [0.5, 0.4])
        np.testing.assert_allclose(c1.theta, [0.4, 0.5])

    def test_kind_probabilities(self):
        p_a, p_c, p_b = TwoBridgeConfig(horizon=100).kind_probabilities()
        assert p_a == pytest.approx(0.95)
        assert p_c == pytest.approx(0.0475)
        assert p_b == pytest.approx(0.0025)
        assert p_a + p_c + p_b == pytest.approx(1.0)

    def test_minority_only_variant(self):
        p_a, p_c, p_b = TwoBridgeConfig(horizon=100, p_majority=0.0).kind_probabilities()
        assert p_a == 0.0
        assert p_c == pytest.approx(0.95)
        assert p_b == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TwoBridgeConfig(horizon=0)
        with pytest.raises(ConfigurationError):
            TwoBridgeConfig(horizon=100, theta_variant="theta2")
        with pytest.raises(ConfigurationError):
            TwoBridgeConfig(horizon=100, p_majority=1.0)
        with pytest.raises(ConfigurationError):
            TwoBridgeConfig(horizon=100, p_minority_c=0.9, p_minority_b=0.2)


class TestTwoBridgeSampling:
    def test_kind_frequencies_vectorized(self):
        # The engine's vectorized kind draw follows the configured law:
        # P(A) = 0.95, P(C) = 0.0475, P(B) = 0.0025.
        n = 1_000_000
        codes = _kind_codes(TwoBridgeConfig(horizon=n), np.random.default_rng(7), n)
        freq = np.bincount(codes, minlength=3) / n
        assert freq[0] == pytest.approx(0.95, abs=3 * 0.0002)
        assert freq[1] == pytest.approx(0.0475, abs=3 * 0.0002)
        assert freq[2] == pytest.approx(0.0025, abs=3 * 0.0002)

    def test_minority_only_has_no_majority_rounds(self):
        cfg = TwoBridgeConfig(horizon=1000, p_majority=0.0)
        codes = _kind_codes(cfg, np.random.default_rng(3), 1000)
        assert set(np.unique(codes)) == {_B, _C}

    def test_one_code_per_round_from_one_uniform_each(self):
        # The kind draw consumes exactly one uniform per round, so the
        # context stream continues identically whatever the kinds were.
        cfg = TwoBridgeConfig(horizon=500)
        rng = np.random.default_rng(4)
        codes = _kind_codes(cfg, rng, 500)
        assert codes.shape == (500,)
        assert set(np.unique(codes)) <= {_A, _B, _C}
        twin = np.random.default_rng(4)
        twin.random(500)
        assert rng.random() == twin.random()

    def test_choice_only_minority_rounds(self):
        cfg = TwoBridgeConfig(horizon=200, p_majority=0.0, p_minority_c=0.0, p_minority_b=1.0)
        codes = _kind_codes(cfg, np.random.default_rng(5), 200)
        assert np.all(codes == _B)

    def test_minority_activity_grows_linearly(self):
        # After the warm-up round count the cumulative number of single-option
        # minority rounds should stay above 0.9 t; check 500 streams.
        t0, horizon = 9277, 12_000
        cfg = TwoBridgeConfig(horizon=horizon, p_majority=0.0)
        failures = 0
        for rep in range(500):
            rng = stream(99, rep, Purpose.CONTEXTS)
            codes = _kind_codes(cfg, rng, horizon)
            counts = np.cumsum(codes == 1)
            ts = np.arange(1, horizon + 1)
            tail = ts >= t0
            if np.any(counts[tail] < 0.9 * ts[tail]):
                failures += 1
        assert failures == 0


def _two_entry_config(rho: float, minority_prob: float = 0.0) -> Catalog:
    means = [[[0.5, 0.1], [0.2, 0.3]], [[0.1, 0.4], [0.3, 0.2]]]
    return Catalog(means, np.ones((2, 2), dtype=bool), [0.6, 0.4], [False, minority_prob > 0],
                   rho=rho, minority_prob=minority_prob)


def _catalog(means, avail=None, weights=None, minority=None, rho=0.1, minority_prob=0.0) -> Catalog:
    """A catalog of the given means; every slot available, unit weights, one group by default."""
    n = len(means)
    avail = [[True] * len(means[0])] * n if avail is None else avail
    weights = [1.0] * n if weights is None else weights
    minority = [False] * n if minority is None else minority
    return Catalog(means, avail, weights, minority, rho, minority_prob)


class TestCatalog:
    def test_rejections(self):
        mean = [[0.1, 0.2]]
        with pytest.raises(ConfigurationError, match="at least one entry"):
            Catalog(np.zeros((0, 1, 2)), np.zeros((0, 1), dtype=bool), [], [], rho=0.1)
        with pytest.raises(ConfigurationError, match="weight must be positive"):
            _catalog([mean], weights=[0.0])
        with pytest.raises(ConfigurationError, match="at least one available action"):
            _catalog([mean * 2], avail=[[False, False]])
        with pytest.raises(ConfigurationError, match="norm at most 1"):
            _catalog([[[1.5, 1.5]]])
        with pytest.raises(ConfigurationError, match="agree on d and K"):
            _catalog([mean, [[0.1, 0.2, 0.3]]], avail=[[True], [True]])  # d differs
        with pytest.raises(ConfigurationError, match="agree on d and K"):
            _catalog([mean, mean * 2], avail=[[True], [True, True]])  # K differs
        with pytest.raises(ConfigurationError, match="rho"):
            _two_entry_config(rho=0.8)  # above 1/sqrt(2)
        with pytest.raises(ConfigurationError, match="rho"):
            _two_entry_config(rho=-0.1)
        with pytest.raises(ConfigurationError, match="minority_prob"):
            _two_entry_config(rho=0.1, minority_prob=1.0)
        with pytest.raises(ConfigurationError, match="both groups"):
            # Two-group mode requires entries from both groups.
            _catalog([mean], minority_prob=0.3)

    def test_dense_layout(self):
        cat = _catalog([[[0.3, 0.3], [0.9, 0.9]]], avail=[[True, False]])
        assert cat.means.shape == (1, 2, 2)
        np.testing.assert_array_equal(cat.means[0, 1], [0.0, 0.0])  # unavailable slots are zeroed
        cfg = _two_entry_config(rho=0.1, minority_prob=0.3)
        np.testing.assert_array_equal(cfg.minority, [False, True])
        assert cfg.avail.all()
        assert cfg.dim == 2
        assert cfg.n_actions == 2

    def test_minority_only_keeps_minority_rows_in_order(self):
        means = [[[0.1 * j, 0.0]] for j in range(5)]
        cat = _catalog(means, weights=[1.0, 2.0, 3.0, 4.0, 5.0],
                       minority=[False, True, False, True, True], minority_prob=0.4)
        restricted = cat.minority_only()
        np.testing.assert_array_equal(restricted.means, cat.means[[1, 3, 4]])
        np.testing.assert_array_equal(restricted.weights, [2.0, 4.0, 5.0])
        assert restricted.minority.all()
        assert restricted.minority_prob == 0.0
        assert restricted.rho == cat.rho


class TestTwoBridgeRewards:
    """Reward draws of the two-bridge engines: single pulls and forced stretches."""

    def test_bernoulli_certain_means(self):
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(_single_rewards(20, 1.0, NoiseKind.BERNOULLI, rng), np.ones(20))
        np.testing.assert_array_equal(_single_rewards(20, 0.0, NoiseKind.BERNOULLI, rng), np.zeros(20))
        counts = np.array([0, 1, 5, 40])
        np.testing.assert_array_equal(_seg_sums(counts, 1.0, NoiseKind.BERNOULLI, rng), counts)

    def test_gaussian_moments(self):
        n = 100_000
        draws = _single_rewards(n, 0.5, NoiseKind.GAUSSIAN_UNIT, np.random.default_rng(21))
        assert draws.mean() == pytest.approx(0.5, abs=3 / np.sqrt(n))
        assert draws.var() == pytest.approx(1.0, rel=0.05)

    def test_two_bridge_top_bernoulli_rate(self):
        cfg = TwoBridgeConfig(horizon=10_000, noise=NoiseKind.BERNOULLI)
        n = 10_000
        draws = _single_rewards(n, float(cfg.theta[0]), cfg.noise, np.random.default_rng(8))
        assert set(np.unique(draws)) <= {0.0, 1.0}
        assert draws.mean() == pytest.approx(0.5, abs=3 * 0.5 / np.sqrt(n))

    def test_gaussian_stretch_sums_have_count_moments(self):
        # A stretch of c forced pulls sums c unit-variance rewards.
        n, c, mean = 50_000, 9, 0.4
        sums = _seg_sums(np.full(n, c), mean, NoiseKind.GAUSSIAN_UNIT, np.random.default_rng(6))
        assert sums.mean() == pytest.approx(c * mean, abs=3 * np.sqrt(c / n))
        assert sums.var() == pytest.approx(c, rel=0.05)
        empty = _seg_sums(np.zeros(3, dtype=np.int64), mean, NoiseKind.GAUSSIAN_UNIT, np.random.default_rng(6))
        np.testing.assert_array_equal(empty, np.zeros(3))

    def test_bernoulli_stretch_sums_count_successes(self):
        n, c, p = 50_000, 12, 0.45
        sums = _seg_sums(np.full(n, c), p, NoiseKind.BERNOULLI, np.random.default_rng(7))
        assert np.all(sums == np.round(sums))
        assert sums.min() >= 0 and sums.max() <= c
        assert sums.mean() == pytest.approx(c * p, abs=3 * np.sqrt(c * p * (1 - p) / n))


def _single_entry_config(means, rho: float) -> Catalog:
    """One entry; a ``None`` mean marks an unavailable slot."""
    return _catalog([[np.zeros(2) if m is None else m for m in means]], avail=[[m is not None for m in means]], rho=rho)


def _greedy_rows(cfg, theta, horizon, batch_size, replicate=0, acting="freq", prior_mean=None):
    """Contexts the batched greedy engine chose, one row per round."""
    d = cfg.dim
    prior_mean = np.zeros(d) if prior_mean is None else prior_mean
    res = run_perturbed_batch_greedy(
        cfg, gaussian_prior(prior_mean, np.eye(d)), np.asarray(theta, dtype=float), horizon, batch_size,
        20260814, replicate, acting=acting, track_rows=True,
    )
    return res.chosen_rows


class TestPerturbedSampling:
    def test_zero_rho_reproduces_catalog_means(self):
        cfg = _two_entry_config(rho=0.0)
        rows = _greedy_rows(cfg, np.array([0.6, -0.2]), 300, 50)
        means = cfg.means.reshape(-1, 2)
        for row in rows:
            assert np.any(np.all(row == means, axis=1))

    def test_perturbation_moments(self):
        # One entry with one action, so every chosen row is mean + noise.
        mean0 = np.array([0.5, 0.1])
        cfg = _single_entry_config((mean0,), rho=0.3)
        n = 100_000
        devs = _greedy_rows(cfg, np.array([1.0, 0.0]), n, n) - mean0
        assert np.abs(devs.mean(axis=0)).max() < 3 * 0.3 / np.sqrt(n) + 1e-3
        np.testing.assert_allclose(devs.var(axis=0), 0.09, rtol=0.05)
        corr = np.corrcoef(devs.T)[0, 1]
        assert abs(corr) < 3 / np.sqrt(n) + 1e-3

    @pytest.mark.parametrize("policy", ["batch_freq", "batch_bayes", "linucb"])
    def test_unavailable_slots_stay_unavailable(self, policy):
        # The second slot would win under theta, but it is never offered, so
        # the only available action is always best and no regret accrues.
        cfg = _single_entry_config((np.array([0.4, 0.1]), None), rho=0.2)
        theta = np.array([-1.0, 0.5])
        horizon = 400
        if policy == "linucb":
            params = LinUCBParams.for_perturbed(
                d=2, n_actions=2, horizon=horizon, rho=cfg.rho, prior_norm=0.0
            )
            [res] = run_perturbed_linucb(cfg, params, [theta], horizon, 20260814, (0,))
        else:
            res = run_perturbed_batch_greedy(
                cfg, gaussian_prior(np.zeros(2), np.eye(2)), theta, horizon, 50, 20260814, 0,
                acting=policy.removeprefix("batch_"),
            )
        assert res.regret_total == 0.0
        assert res.final_stats.n == horizon

    def test_separate_perturbation_stream(self):
        # Contexts come from the replicate's own entry and perturbation
        # streams: neither the acting rule nor theta changes them.
        mean0 = np.array([0.3, 0.2])
        cfg = _single_entry_config((mean0,), rho=0.25)
        horizon = 120
        rows = _greedy_rows(cfg, np.array([0.5, 0.5]), horizon, 40, replicate=3)
        expected = mean0 + stream(20260814, 3, Purpose.PERTURBATIONS).normal(0.0, 0.25, (horizon, 1, 2))[:, 0]
        np.testing.assert_array_equal(rows, expected)
        np.testing.assert_array_equal(
            _greedy_rows(cfg, np.array([-0.7, 0.1]), horizon, 40, replicate=3, acting="bayes"), rows
        )
        assert not np.array_equal(_greedy_rows(cfg, np.array([0.5, 0.5]), horizon, 40, replicate=4), rows)

    def test_perturbation_magnitude_bound(self):
        # The norm bound used for width tuning should hold with margin at the
        # stated confidence: no exceedance across 200 short runs of the
        # perturbation draw the engines make.
        rho, horizon, k, d = 0.3, 100, 2, 2
        bound = context_norm_bound(rho, d, horizon, k) - 1.0  # perturbation part
        failures = 0
        for rep in range(200):
            noise = stream(20260814, rep, Purpose.PERTURBATIONS).normal(0.0, rho, (horizon, k, d))
            failures += int((np.linalg.norm(noise, axis=-1) > bound).sum())
        assert failures == 0


class TestLatentDraws:
    def test_mean_and_covariance(self):
        mean = np.array([0.3, -0.2])
        cov = np.array([[0.5, 0.2], [0.2, 0.4]])
        rng = np.random.default_rng(17)
        prior = gaussian_prior(mean, cov)
        draws = np.array([draw_theta(prior, rng) for _ in range(100_000)])
        kappa = np.sqrt(np.diag(cov))
        np.testing.assert_allclose(
            draws.mean(axis=0), mean, atol=(3 * kappa / np.sqrt(len(draws))).max()
        )
        np.testing.assert_allclose(np.cov(draws.T), cov, rtol=0.05)

    def test_zero_covariance_degenerate(self):
        with pytest.raises(ConfigurationError):
            gaussian_prior(np.zeros(2), np.zeros((2, 2)))

    def test_invalid_covariance_rejected(self):
        # The prior is validated once, where it is built; draws trust it.
        with pytest.raises(ConfigurationError):
            gaussian_prior(np.zeros(2), np.diag([1.0, 0.0]))
        with pytest.raises(ConfigurationError):
            gaussian_prior(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ConfigurationError):
            gaussian_prior(np.zeros(3), np.eye(2))

    def test_deterministic_under_seed(self):
        prior = gaussian_prior(np.zeros(2), np.eye(2))
        a = draw_theta(prior, np.random.default_rng(4))
        b = draw_theta(prior, np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)

    def test_matches_cholesky_transform_bitwise(self):
        mean = np.array([0.3, -0.2])
        cov = np.array([[0.5, 0.2], [0.2, 0.4]])
        z = np.random.default_rng(9).standard_normal(2)
        expected = mean + np.linalg.cholesky(cov) @ z
        np.testing.assert_array_equal(draw_theta(gaussian_prior(mean, cov), np.random.default_rng(9)), expected)
