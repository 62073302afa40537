"""Decision rules: LinUCB widths and scores, greedy picks, batch and norm bounds."""

import math

import numpy as np
import pytest

from banditsim.engines import _B, _kind_codes, closed_form_ucb, run_two_bridge_policy
from banditsim.metrics import RegretSums
from banditsim.environments import TwoBridgeConfig
from banditsim.estimators import SufficientStats, ols_estimate
from banditsim.policies import LinUCBParams, context_norm_bound, interval_width, suggested_batch_size
from banditsim.rng import Purpose, stream
from oracles import BOTTOM, TOP, ContextRound, Group, empty_stats, greedy_select, linucb_scores

B_ROUND = ContextRound((TOP, BOTTOM), Group.MINORITY, 1)


def _linucb_pick(round_: ContextRound, stats: SufficientStats, params: LinUCBParams) -> int:
    """The LinUCB decision: the first action of highest upper confidence bound."""
    f = interval_width(stats.n, params, round_.dim)
    return int(np.argmax(linucb_scores(round_, stats, f, params.ridge)))


class TestIntervalWidth:
    def test_frozen_value(self):
        params = LinUCBParams(L=1.0, S=1.0, horizon=10)
        assert interval_width(9, params, d=4) == pytest.approx(
            5.291932052578694, abs=1e-12
        )

    def test_formula_at_zero_observations(self):
        params = LinUCBParams(L=2.0, S=0.5, horizon=50)
        expected = 0.5 + math.sqrt(3 * math.log(50))
        assert interval_width(0, params, d=3) == pytest.approx(expected)

    def test_monotone_in_observations(self):
        params = LinUCBParams(L=1.0, S=1.0, horizon=100)
        widths = [interval_width(t, params, d=2) for t in range(0, 200, 10)]
        assert all(b >= a for a, b in zip(widths, widths[1:]))

    def test_floor_binds(self):
        params = LinUCBParams(L=1.0, S=0.1, horizon=10, width_floor=50.0)
        assert interval_width(0, params, d=1) == 50.0

    def test_negative_inputs_rejected(self):
        params = LinUCBParams(L=1.0, S=1.0, horizon=10)
        with pytest.raises(ValueError):
            interval_width(-1, params, d=2)
        with pytest.raises(ValueError):
            interval_width(1, params, d=0)


class TestLinUCBParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinUCBParams(L=0.5, S=1.0, horizon=10)
        with pytest.raises(ValueError):
            LinUCBParams(L=1.0, S=0.0, horizon=10)
        with pytest.raises(ValueError):
            LinUCBParams(L=1.0, S=11.0, horizon=10)
        with pytest.raises(ValueError):
            LinUCBParams(L=1.0, S=1.0, horizon=1)
        with pytest.raises(ValueError):
            LinUCBParams(L=1.0, S=1.0, horizon=10, ridge=-1.0)

    def test_negative_width_floor_rejected(self):
        with pytest.raises(ValueError):
            LinUCBParams(L=1.0, S=1.0, horizon=10, width_floor=-0.1)

    def test_two_bridge_recipe(self):
        horizon = 10_000
        p = LinUCBParams.for_two_bridge(horizon)
        assert p.L == 1.0
        assert p.S == pytest.approx(1 / math.sqrt(2) + math.sqrt(6 * math.log(horizon)))
        assert p.width_floor == pytest.approx(2 * math.sqrt(math.log(horizon)))
        assert LinUCBParams.for_two_bridge(horizon, enforce_floor=False).width_floor == 0.0

    def test_perturbed_recipe(self):
        p = LinUCBParams.for_perturbed(
            d=2, n_actions=5, horizon=1000, rho=0.3, prior_norm=0.6
        )
        assert p.L == pytest.approx(
            1 + 0.3 * math.sqrt(2 * 2 * math.log(2 * 1000**3 * 5 * 2))
        )
        assert p.S == pytest.approx(0.6 + math.sqrt(3 * 2 * math.log(1000)))
        assert p.ridge == 1.0


class TestLinUCBScores:
    def test_diagonal_example(self):
        stats = SufficientStats(
            Z=np.diag([4.0, 1.0]), xr=np.array([2.0, 0.4]), n=5
        )
        scores = linucb_scores(B_ROUND, stats, f=2.0, ridge=0.0)
        np.testing.assert_allclose(scores, [1.5, 2.4])
        params = LinUCBParams(L=1.0, S=1.0, horizon=10)
        # With these counts the width multiplier stays close to 2 either way;
        # verify the selected action directly at f = 2 via the score argmax.
        assert int(np.argmax(scores)) == 1

    def test_unseen_direction_gets_infinite_score(self):
        x = np.array([1.0, 0.0])
        stats = SufficientStats(np.outer(x, x), 0.3 * x, 1)
        scores = linucb_scores(B_ROUND, stats, f=1.0, ridge=0.0)
        assert np.isfinite(scores[0])
        assert np.isinf(scores[1])

    def test_matches_closed_form_on_diagonal_states(self):
        rng = np.random.default_rng(12)
        params = LinUCBParams(L=1.0, S=1.0, horizon=500)
        for _ in range(0, 10_000, 25):
            n1, n2 = int(rng.integers(0, 40)), int(rng.integers(0, 40))
            s1, s2 = float(rng.normal(0, 3)), float(rng.normal(0, 3))
            stats = SufficientStats(
                Z=np.diag([float(n1), float(n2)]),
                xr=np.array([s1, s2]),
                n=n1 + n2,
            )
            f = interval_width(stats.n, params, d=2)
            scores = linucb_scores(B_ROUND, stats, f=f, ridge=0.0)
            u1, u2 = closed_form_ucb(n1, s1, n2, s2, f)
            for got, want in zip(scores, (u1, u2)):
                if math.isinf(want):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(want, abs=1e-9)

    def test_select_breaks_ties_toward_lower_index(self):
        params = LinUCBParams(L=1.0, S=1.0, horizon=10)
        assert _linucb_pick(B_ROUND, empty_stats(2), params) == 0

    def test_single_available_action(self):
        round_ = ContextRound((BOTTOM, None), Group.MINORITY, 1)
        params = LinUCBParams(L=1.0, S=1.0, horizon=10)
        assert _linucb_pick(round_, empty_stats(2), params) == 0

    def test_zero_width_invertible_design_matches_greedy(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        r = rng.normal(size=30)
        stats = SufficientStats(X.T @ X, X.T @ r, X.shape[0])
        est = ols_estimate(stats)
        for _ in range(50):
            ctxs = tuple(rng.normal(size=2) for _ in range(3))
            round_ = ContextRound(ctxs, Group.MAJORITY)
            scores = linucb_scores(round_, stats, f=0.0, ridge=0.0)
            assert int(np.argmax(scores)) == greedy_select(round_, est)


class TestGreedySelect:
    def test_ties_prefer_lowest_index(self):
        assert greedy_select(B_ROUND, np.array([0.5, 0.5])) in (0, 1)
        round_ = ContextRound((TOP, TOP), Group.MAJORITY, 1)
        assert greedy_select(round_, np.array([0.7, 0.1])) == 0

    def test_zero_estimate_returns_first_available(self):
        assert greedy_select(B_ROUND, np.zeros(2)) == 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            ctxs = tuple(rng.normal(size=3) for _ in range(4))
            round_ = ContextRound(ctxs, Group.MAJORITY)
            est = rng.normal(size=3)
            assert greedy_select(round_, est) == greedy_select(round_, 7.5 * est)

    def test_skips_unavailable(self):
        round_ = ContextRound((None, BOTTOM), Group.MINORITY)
        assert greedy_select(round_, np.array([9.0, 1.0])) == 1

    @pytest.mark.parametrize("variant,best", [("theta0", 0), ("theta1", 1)])
    def test_oracle_pick_is_the_better_bridge(self, variant, best):
        # The oracle is greedy on the true weights; the two-bridge engine
        # counts it as never wrong.
        theta = TwoBridgeConfig(horizon=100, theta_variant=variant).theta
        assert greedy_select(B_ROUND, theta) == best


class TestClosedFormUCB:
    def test_unseen_bridges_are_infinite(self):
        assert closed_form_ucb(0, 0.0, 0, 0.0, 1.0) == (math.inf, math.inf)
        u1, u2 = closed_form_ucb(4, 2.0, 0, 0.0, 1.0)
        assert u1 == pytest.approx(1.0) and u2 == math.inf

    @pytest.mark.parametrize("n1,s1,n2,s2", [(1, 0.3, 1, 0.9), (40, 21.0, 3, 1.2), (7, -2.0, 250, 120.0)])
    def test_matches_generic_scores_on_diagonal_design(self, n1, s1, n2, s2):
        stats = SufficientStats(np.diag([float(n1), float(n2)]), np.array([s1, s2]), n1 + n2)
        f = 1.7
        np.testing.assert_allclose(
            closed_form_ucb(n1, s1, n2, s2, f), linucb_scores(B_ROUND, stats, f, ridge=0.0), rtol=1e-12
        )


class TestSuggestedBatchSize:
    def test_frozen_value(self):
        assert suggested_batch_size(0.1, 2, 1000, 0.01, context_bound=1.5) == 217_593

    def test_monotone_in_rho(self):
        a = suggested_batch_size(0.1, 2, 1000, 0.01, context_bound=1.5)
        b = suggested_batch_size(0.2, 2, 1000, 0.01, context_bound=1.5)
        assert b < a

    def test_monotone_in_delta(self):
        a = suggested_batch_size(0.1, 2, 1000, 0.01, context_bound=1.5)
        b = suggested_batch_size(0.1, 2, 1000, 0.10, context_bound=1.5)
        assert b < a

    def test_needs_bound_or_action_count(self):
        with pytest.raises(ValueError):
            suggested_batch_size(0.1, 2, 1000, 0.01)
        assert suggested_batch_size(0.1, 2, 1000, 0.01, n_actions=5) > 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            suggested_batch_size(0.0, 2, 1000, 0.01, context_bound=1.5)
        with pytest.raises(ValueError):
            suggested_batch_size(0.1, 2, 1000, 1.5, context_bound=1.5)


class TestContextNormBound:
    def test_reduces_to_one_at_zero_rho(self):
        assert context_norm_bound(0.0, 2, 1000, 5) == pytest.approx(1.0)

    def test_grows_with_rho(self):
        assert context_norm_bound(0.3, 2, 1000, 5) > context_norm_bound(0.1, 2, 1000, 5)


class TestLinUCBWarmBehavior:
    def test_bottom_pick_rate_small_after_warmup(self):
        # On minority-only two-bridge data the optimistic policy should almost
        # never take the strictly worse bridge once both arms are well
        # sampled: at most 5% of the single-uniform minority rounds past the
        # warm-up threshold.
        horizon, t0, reps = 10_000, 9277, 100
        cfg = TwoBridgeConfig(horizon=horizon, p_majority=0.0)
        wrong_after = 0
        b_after = 0
        for rep in range(reps):
            res = run_two_bridge_policy(
                cfg,
                "linucb",
                20260814,
                rep,
                params=LinUCBParams.for_two_bridge(horizon),
                sums=RegretSums(20260814, (rep,), horizon, curve=True),
            )
            increments = np.diff(res.curve, prepend=0.0) > 0
            codes = _kind_codes(cfg, stream(20260814, rep, Purpose.CONTEXTS), horizon)
            tail = np.arange(1, horizon + 1) >= t0
            wrong_after += int((increments & (codes == _B) & tail).sum())
            b_after += int(((codes == _B) & tail).sum())
        assert b_after > 0
        assert wrong_after / b_after <= 0.05
