"""Per-round regret, replicate summaries, and power-law fits."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from banditsim.environments import Catalog, TwoBridgeConfig
from banditsim.metrics import bayesian_regret, scaling_exponent, scaling_exponent_bootstrap
from banditsim.rng import Purpose, stream
from oracles import BOTTOM, TOP, ContextRound, Group, instantaneous_regret


class TestInstantaneousRegret:
    def test_best_choice_has_zero_regret(self):
        round_ = ContextRound((TOP, BOTTOM), Group.MINORITY, 1)
        assert instantaneous_regret(np.array([0.5, 0.4]), round_, 0) == 0.0

    def test_bottom_choice_pays_the_gap(self):
        cfg = TwoBridgeConfig(horizon=100)
        round_ = ContextRound((TOP, BOTTOM), Group.MINORITY, 1)
        assert instantaneous_regret(cfg.theta, round_, 1) == pytest.approx(cfg.epsilon)

    def test_matches_brute_force_on_random_rounds(self):
        rng = np.random.default_rng(0)
        theta = rng.normal(size=3)
        for _ in range(100):
            ctxs = tuple(
                rng.normal(size=3) if rng.random() > 0.3 else None for _ in range(4)
            )
            if all(c is None for c in ctxs):
                continue
            round_ = ContextRound(ctxs, Group.MAJORITY)
            avail = round_.available_indices()
            chosen = int(avail[rng.integers(len(avail))])
            best = max(float(theta @ ctxs[a]) for a in avail)
            expected = best - float(theta @ ctxs[chosen])
            assert instantaneous_regret(theta, round_, chosen) == pytest.approx(expected)

    def test_unavailable_choice_rejected(self):
        round_ = ContextRound((BOTTOM, None), Group.MINORITY, 1)
        with pytest.raises(ValueError):
            instantaneous_regret(np.array([0.5, 0.4]), round_, 1)

    def test_identical_contexts_have_zero_regret(self):
        round_ = ContextRound((TOP, TOP), Group.MAJORITY, 1)
        assert instantaneous_regret(np.array([0.5, 0.4]), round_, 0) == 0.0
        assert instantaneous_regret(np.array([0.5, 0.4]), round_, 1) == 0.0

    def test_single_action_round_has_zero_regret(self):
        round_ = ContextRound((None, BOTTOM), Group.MINORITY, 1)
        assert instantaneous_regret(np.array([0.5, 0.4]), round_, 1) == 0.0

    def test_small_gap_rounds_are_rare(self):
        # With Gaussian perturbations the margin between two actions is
        # anti-concentrated: P(gap <= g) is at most K(K-1) g / (2 rho ||theta||
        # sqrt(pi)) and, for orthogonal catalog means, exactly the mass of a
        # centered normal with variance 2 rho^2 ||theta||^2.  The contexts are
        # the engines' draw: catalog means plus the perturbation stream.
        rho, g = 0.3, 0.05
        theta = np.array([1.0, 0.0])
        cat = Catalog([[[0.3, 0.4], [0.3, -0.4]]], [[True, True]], [1.0], [False], rho)
        n = 20_000
        x = cat.means[0] + stream(1, 0, Purpose.PERTURBATIONS).normal(0.0, rho, (n, 2, 2))
        values = x @ theta
        freq = float(np.mean(np.abs(values[:, 0] - values[:, 1]) <= g))
        exact = 2 * sps.norm.cdf(g / (math.sqrt(2) * rho)) - 1
        union_bound = 2 * g / (2 * rho * math.sqrt(math.pi))
        se = math.sqrt(exact * (1 - exact) / n)
        assert freq == pytest.approx(exact, abs=3 * se)
        assert freq <= union_bound + 3 * se


class TestBayesianRegret:
    def test_single_value(self):
        assert bayesian_regret([3.5]) == (3.5, 0.0)

    def test_two_values(self):
        mean, se = bayesian_regret([0.0, 2.0])
        assert mean == 1.0
        assert se == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bayesian_regret([])

    def test_matches_normal_theory(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(5.0, 1.0, size=10_000)
        mean, se = bayesian_regret(vals)
        assert mean == pytest.approx(5.0, abs=3 / math.sqrt(len(vals)))
        assert se == pytest.approx(1.0 / math.sqrt(len(vals)), rel=0.05)


class TestScalingExponent:
    def test_exact_square_root_law(self):
        pts = [(t, 3.0 * math.sqrt(t)) for t in (100, 1000, 10_000)]
        slope, intercept = scaling_exponent(pts)
        assert slope == pytest.approx(0.5, abs=1e-9)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-9)

    def test_constant_regret_has_zero_slope(self):
        slope, _ = scaling_exponent([(100, 7.0), (1000, 7.0), (10_000, 7.0)])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_log_factor_inflates_cube_root_modestly(self):
        pts = [(t, t ** (1 / 3) * math.log(t)) for t in (1000, 10_000, 100_000)]
        slope, _ = scaling_exponent(pts)
        assert slope == pytest.approx(0.4443, abs=1e-3)
        assert 0.33 < slope < 0.45

    def test_input_validation(self):
        with pytest.raises(ValueError):
            scaling_exponent([(100, 1.0), (1000, 2.0)])
        with pytest.raises(ValueError):
            scaling_exponent([(100, 1.0), (100, 2.0), (1000, 3.0)])
        with pytest.raises(ValueError):
            scaling_exponent([(100, 1.0), (-5, 2.0), (1000, 3.0)])
        with pytest.raises(ValueError):
            scaling_exponent([(100, 0.0), (1000, 2.0), (10_000, 3.0)])


class TestScalingExponentBootstrap:
    def test_degenerate_replicates_collapse_interval(self):
        per_horizon = {
            100: np.full(50, 10.0),
            1000: np.full(50, 31.62),
            10_000: np.full(50, 100.0),
        }
        exp, lo, hi = scaling_exponent_bootstrap(per_horizon, np.random.default_rng(0))
        assert lo == pytest.approx(exp)
        assert hi == pytest.approx(exp)
        assert exp == pytest.approx(0.5, abs=1e-3)

    def test_interval_brackets_point_estimate(self):
        rng = np.random.default_rng(1)
        per_horizon = {
            t: math.sqrt(t) * (1 + 0.1 * rng.standard_normal(200))
            for t in (100, 1000, 10_000)
        }
        exp, lo, hi = scaling_exponent_bootstrap(per_horizon, np.random.default_rng(2))
        assert lo <= exp <= hi
        assert exp == pytest.approx(0.5, abs=0.05)
