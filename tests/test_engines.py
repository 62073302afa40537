"""Vectorized engines against per-round reference loops.

Each reference below consumes the replicate streams in the engine's exact
order but re-derives every decision through the generic building blocks
(sufficient statistics, interval widths, and the per-round greedy/UCB
selection, regret and posterior means of ``oracles``) instead of the engines'
closed-form shortcuts.  The lockstep LinUCB engine is also held bit for bit
to a single-replicate loop with the same arithmetic.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditsim.core import NoiseKind, last_batch_end
from banditsim.engines import (
    _A,
    _B,
    _C,
    NOISE_CHUNK,
    _draw_entry_indices,
    _kind_codes,
    _lambda_min_curve,
    _seg_sums,
    _single_rewards,
    run_perturbed_batch_greedy,
    run_perturbed_linucb,
    run_two_bridge_batch_freq,
    run_two_bridge_policy,
)
from banditsim.environments import Catalog, TwoBridgeConfig
from banditsim.estimators import SufficientStats, gaussian_prior, ols_estimate
from banditsim.metrics import RegretSums
from banditsim.policies import LinUCBParams, interval_width
from banditsim.rng import Purpose, stream
from oracles import (
    BOTTOM,
    TOP,
    ContextRound,
    Group,
    bayes_posterior_mean,
    greedy_select,
    instantaneous_regret,
    linucb_scores,
)

MASTER = 20260814
B_ROUND = ContextRound((TOP, BOTTOM), Group.MINORITY, 1)


def _coins(master_seed, replicate, horizon, p):
    """The restriction coin flags of a replicate, straight from its stream."""
    return stream(master_seed, replicate, Purpose.RESTRICTION).random(horizon) < p


def _curve_sums(replicates, horizon, **kwargs):
    """An accumulator that keeps the first replicate's curve."""
    return RegretSums(MASTER, replicates, horizon, curve=True, **kwargs)


def _two_bridge_draws(cfg, master_seed, replicate, inject_rate):
    """Replay the engine's stream consumption; return kinds and reward draws."""
    theta = cfg.theta
    horizon = cfg.horizon
    ctx = stream(master_seed, replicate, Purpose.CONTEXTS)
    rew = stream(master_seed, replicate, Purpose.REWARDS)
    pol = stream(master_seed, replicate, Purpose.POLICY)

    kinds = _kind_codes(cfg, ctx, horizon)
    if inject_rate > 0.0:
        injected = ctx.geometric(1.0 - inject_rate, size=horizon) - 1
    else:
        injected = np.zeros(horizon, dtype=np.int64)

    b_pos = np.flatnonzero(kinds == _B)
    cum_a = np.concatenate([[0], np.cumsum(kinds == _A)])
    cum_c = np.concatenate([[0], np.cumsum(kinds == _C)])
    cum_g = np.concatenate([[0], np.cumsum(injected)])
    top_inc = np.diff(np.concatenate([[0], cum_a[b_pos] + cum_g[b_pos + 1]]))
    bot_inc = np.diff(np.concatenate([[0], cum_c[b_pos]]))

    seg_top = _seg_sums(top_inc, float(theta[0]), cfg.noise, rew)
    seg_bot = _seg_sums(bot_inc, float(theta[1]), cfg.noise, rew)
    cand_top = _single_rewards(b_pos.size, float(theta[0]), cfg.noise, rew)
    cand_bot = _single_rewards(b_pos.size, float(theta[1]), cfg.noise, rew)
    return kinds, b_pos, top_inc, bot_inc, seg_top, seg_bot, cand_top, cand_bot, pol


def reference_two_bridge_linucb(cfg, master_seed, replicate, params, inject_rate=0.0):
    """Decide every B round with generic stats + UCB scores on the B pattern."""
    theta = cfg.theta
    top_best = bool(theta[0] > theta[1])
    (_, b_pos, top_inc, bot_inc, seg_top, seg_bot, cand_top, cand_bot, _) = _two_bridge_draws(
        cfg, master_seed, replicate, inject_rate
    )
    n1 = n2 = 0
    s1 = s2 = 0.0
    wrong_mask = np.zeros(b_pos.size, dtype=bool)
    for k in range(b_pos.size):
        n1 += int(top_inc[k])
        s1 += float(seg_top[k])
        n2 += int(bot_inc[k])
        s2 += float(seg_bot[k])
        stats = SufficientStats(
            Z=np.diag([float(n1), float(n2)]), xr=np.array([s1, s2]), n=n1 + n2
        )
        f = interval_width(n1 + n2, params, 2)
        scores = linucb_scores(B_ROUND, stats, f=f, ridge=params.ridge)
        pick = int(np.argmax(scores))
        if pick == 0:
            n1 += 1
            s1 += float(cand_top[k])
            wrong_mask[k] = not top_best
        else:
            n2 += 1
            s2 += float(cand_bot[k])
            wrong_mask[k] = top_best
    return b_pos, wrong_mask


def reference_two_bridge_batch_freq(cfg, master_seed, replicate, batch_size):
    """Decide each batch by greedy selection on a generic least-squares estimate."""
    theta = cfg.theta
    horizon = cfg.horizon
    top_best = bool(theta[0] > theta[1])

    ctx = stream(master_seed, replicate, Purpose.CONTEXTS)
    rew = stream(master_seed, replicate, Purpose.REWARDS)
    pol = stream(master_seed, replicate, Purpose.POLICY)

    kinds = _kind_codes(cfg, ctx, horizon)
    starts = np.arange(0, horizon, batch_size)
    count_a = np.add.reduceat(kinds == _A, starts)
    count_c = np.add.reduceat(kinds == _C, starts)
    count_b = np.add.reduceat(kinds == _B, starts)
    seg_top = _seg_sums(count_a, float(theta[0]), cfg.noise, rew)
    seg_bot = _seg_sums(count_c, float(theta[1]), cfg.noise, rew)

    n1 = n2 = 0
    s1 = s2 = 0.0
    wrong = 0
    for b in range(len(starts)):
        nb = int(count_b[b])
        if n1 + n2 == 0:
            picks_top = int(pol.binomial(nb, 0.5)) if nb else 0
            picks_bot = nb - picks_top
        else:
            stats = SufficientStats(
                Z=np.diag([float(n1), float(n2)]), xr=np.array([s1, s2]), n=n1 + n2
            )
            est = ols_estimate(stats)
            if greedy_select(B_ROUND, est) == 0:
                picks_top, picks_bot = nb, 0
            else:
                picks_top, picks_bot = 0, nb
        wrong += picks_bot if top_best else picks_top
        if picks_top:
            n1 += picks_top
            s1 += float(_seg_sums(np.array([picks_top]), float(theta[0]), cfg.noise, rew)[0])
        if picks_bot:
            n2 += picks_bot
            s2 += float(_seg_sums(np.array([picks_bot]), float(theta[1]), cfg.noise, rew)[0])
        n1 += int(count_a[b])
        s1 += float(seg_top[b])
        n2 += int(count_c[b])
        s2 += float(seg_bot[b])
    return wrong, int(count_b.sum())


def _round_from_row(cat, entry_idx, x_block, t):
    contexts = tuple(
        x_block[a] if cat.avail[entry_idx, a] else None for a in range(x_block.shape[0])
    )
    group = Group.MINORITY if cat.minority[entry_idx] else Group.MAJORITY
    return ContextRound(contexts, group, t)


def reference_perturbed_greedy(
    cat, prior_mean, prior_cov, theta, horizon, batch_size, master_seed, replicate,
    acting, context_bound, probe_rounds,
):
    """Per-round loop: greedy selection and regret round by round, with the
    prior validated and inverted at every posterior mean."""
    k = cat.n_actions
    d = cat.dim
    ctx = stream(master_seed, replicate, Purpose.CONTEXTS)
    pert = stream(master_seed, replicate, Purpose.PERTURBATIONS)
    rew = stream(master_seed, replicate, Purpose.REWARDS)
    pol = stream(master_seed, replicate, Purpose.POLICY)

    Z = np.zeros((d, d))
    xr = np.zeros(d)
    n_obs = 0
    theta_freq = np.zeros(d)
    theta_bay = np.asarray(prior_mean, dtype=float).copy()
    cold = True

    total = minority_total = pred_total = allowance = 0.0
    probes = {}
    done = 0
    while done < horizon:
        y = min(batch_size, horizon - done)
        idx = _draw_entry_indices(cat, y, ctx)
        noise = pert.normal(0.0, cat.rho, size=(y, k, d))
        cold_scores = pol.random((y, k)) if cold and acting == "freq" else None
        acting_est = theta_bay if acting == "bayes" else theta_freq

        chosen = np.empty((y, d))
        for i in range(y):
            x_block = cat.means[idx[i]] + noise[i]
            round_ = _round_from_row(cat, idx[i], x_block, done + i + 1)
            if cold_scores is not None:
                masked = np.where(cat.avail[idx[i]], cold_scores[i], -np.inf)
                a = int(np.argmax(masked))
            else:
                a = greedy_select(round_, acting_est)
            pred_a = greedy_select(round_, theta_bay)
            inst = instantaneous_regret(theta, round_, a)
            total += inst
            if round_.group is Group.MINORITY:
                minority_total += inst
            pred_total += instantaneous_regret(theta, round_, pred_a)
            chosen[i] = x_block[a]

        rewards = chosen @ theta + rew.standard_normal(y)
        if context_bound is not None:
            allowance += 2.0 * context_bound * float(np.linalg.norm(theta_bay - theta_freq)) * y
        for p in probe_rounds:
            if done < p <= done + y:
                probes[p] = last_batch_end(p, batch_size) * float(
                    np.linalg.norm(theta_bay - theta_freq)
                )
        Z += chosen.T @ chosen
        xr += chosen.T @ rewards
        n_obs += y
        stats = SufficientStats(0.5 * (Z + Z.T), xr, n_obs)
        theta_freq = ols_estimate(stats)
        theta_bay = bayes_posterior_mean(stats, prior_mean, prior_cov)
        cold = False
        done += y
    return total, minority_total, pred_total, allowance, probes


def reference_perturbed_linucb(cat, params, theta, horizon, master_seed, replicate):
    """Per-round UCB loop with a freshly inverted Gram matrix every round."""
    k, d = cat.n_actions, cat.dim
    ctx = stream(master_seed, replicate, Purpose.CONTEXTS)
    pert = stream(master_seed, replicate, Purpose.PERTURBATIONS)
    rew = stream(master_seed, replicate, Purpose.REWARDS)

    idx = _draw_entry_indices(cat, horizon, ctx)
    noise = pert.normal(0.0, cat.rho, size=(horizon, k, d))
    reward_noise = rew.standard_normal(horizon)

    Z = np.zeros((d, d))
    xr = np.zeros(d)
    total = minority_total = 0.0
    theta = np.asarray(theta, dtype=float)
    for t in range(horizon):
        x = cat.means[idx[t]] + noise[t]
        avail = cat.avail[idx[t]]
        W = np.linalg.inv(0.5 * (Z + Z.T) + params.ridge * np.eye(d))
        theta_hat = W @ xr
        f = interval_width(t, params, d)
        widths = np.sqrt(np.maximum(np.einsum("ad,de,ae->a", x, W, x), 0.0))
        scores = np.where(avail, x @ theta_hat + f * widths, -np.inf)
        a = int(np.argmax(scores))

        true_vals = np.where(avail, x @ theta, -np.inf)
        inst = float(true_vals.max() - true_vals[a])
        total += inst
        if cat.minority[idx[t]]:
            minority_total += inst
        chosen = x[a]
        r = float(chosen @ theta) + float(reward_noise[t])
        Z += np.outer(chosen, chosen)
        xr += r * chosen
    return total, minority_total


def single_replicate_linucb(
    cat, params, theta, horizon, master_seed, replicate,
    refresh_every=10_000, restriction="minority", restriction_p=0.5,
):
    """Per-round LinUCB on one replicate with a rank-one-updated cached inverse.

    The same arithmetic, call for call, as the lockstep engine's per-replicate
    slice; returns (regret_total, regret_minority, curve, Z, xr).
    """
    d, k = cat.dim, cat.n_actions
    ctx = stream(master_seed, replicate, Purpose.CONTEXTS)
    pert = stream(master_seed, replicate, Purpose.PERTURBATIONS)
    rew = stream(master_seed, replicate, Purpose.REWARDS)

    idx = _draw_entry_indices(cat, horizon, ctx)
    noise = pert.normal(0.0, cat.rho, size=(horizon, k, d))
    reward_noise = rew.standard_normal(horizon)

    f_table = np.array([interval_width(t, params, d) for t in range(horizon)])

    Z = np.zeros((d, d))
    xr = np.zeros(d)
    W = np.eye(d) / params.ridge
    theta_hat = np.zeros(d)
    theta = np.asarray(theta, dtype=float)

    total = minority_total = 0.0
    inst_curve = np.empty(horizon)
    in_set = cat.minority[idx]
    if restriction == "coin":
        in_set = _coins(master_seed, replicate, horizon, restriction_p)
    for t in range(horizon):
        x = cat.means[idx[t]] + noise[t]
        avail = cat.avail[idx[t]]
        xw = x @ W
        widths = np.sqrt(np.maximum(np.sum(xw * x, axis=1), 0.0))
        scores = np.where(avail, x @ theta_hat + f_table[t] * widths, -np.inf)
        a = int(np.argmax(scores))

        true_vals = np.where(avail, x @ theta, -np.inf)
        inst = float(true_vals.max() - true_vals[a])
        total += inst
        if in_set[t]:
            minority_total += inst
        inst_curve[t] = inst

        chosen = x[a]
        r = float(chosen @ theta) + float(reward_noise[t])
        Z += np.outer(chosen, chosen)
        xr += r * chosen
        wx = W @ chosen
        W -= np.outer(wx, wx) / (1.0 + float(chosen @ wx))
        if (t + 1) % refresh_every == 0:
            W = np.linalg.inv(0.5 * (Z + Z.T) + params.ridge * np.eye(d))
            W = 0.5 * (W + W.T)
        theta_hat = W @ xr
    return total, minority_total, np.cumsum(inst_curve), 0.5 * (Z + Z.T), xr


class TestTwoBridgePolicyEngine:
    @pytest.mark.parametrize("variant", ["theta0", "theta1"])
    @pytest.mark.parametrize("noise", [NoiseKind.GAUSSIAN_UNIT, NoiseKind.BERNOULLI])
    @pytest.mark.parametrize(
        "p_majority,inject", [(0.95, 0.0), (0.0, 0.0), (0.0, 0.95)]
    )
    def test_linucb_matches_generic_reference(self, variant, noise, p_majority, inject):
        horizon = 4000
        cfg = TwoBridgeConfig(
            horizon=horizon, theta_variant=variant, noise=noise, p_majority=p_majority
        )
        params = LinUCBParams.for_two_bridge(horizon)
        res = run_two_bridge_policy(
            cfg, "linucb", MASTER, 3, params=params,
            inject_majority_rate=inject, sums=_curve_sums((3,), horizon),
        )
        b_pos, wrong_mask = reference_two_bridge_linucb(cfg, MASTER, 3, params, inject)
        assert res.b_rounds == b_pos.size
        assert res.wrong_b_rounds == int(wrong_mask.sum())
        assert res.regret_total == pytest.approx(cfg.epsilon * wrong_mask.sum())
        gap_size = abs(float(cfg.theta[0] - cfg.theta[1]))
        expected_curve = np.zeros(horizon)
        expected_curve[b_pos[wrong_mask]] = gap_size
        np.testing.assert_array_equal(res.curve, np.cumsum(expected_curve))

    def test_oracle_never_wrong(self):
        cfg = TwoBridgeConfig(horizon=5000, p_majority=0.0)
        res = run_two_bridge_policy(cfg, "oracle", MASTER, 0)
        assert res.wrong_b_rounds == 0
        assert res.regret_total == 0.0
        assert res.b_rounds > 0

    def test_uniform_random_wrong_rate(self):
        cfg = TwoBridgeConfig(horizon=40_000, p_majority=0.0)
        wrongs, totals = 0, 0
        for rep in range(20):
            res = run_two_bridge_policy(cfg, "uniform_random", MASTER, rep)
            assert res.regret_total == pytest.approx(cfg.epsilon * res.wrong_b_rounds)
            assert res.regret_minority == res.regret_total
            wrongs += res.wrong_b_rounds
            totals += res.b_rounds
        assert wrongs / totals == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(totals))

    @pytest.mark.parametrize("variant", ["theta0", "theta1"])
    @pytest.mark.parametrize("noise", [NoiseKind.GAUSSIAN_UNIT, NoiseKind.BERNOULLI])
    def test_oracle_accrues_no_regret(self, variant, noise):
        cfg = TwoBridgeConfig(horizon=3000, theta_variant=variant, noise=noise, p_majority=0.0)
        res = run_two_bridge_policy(cfg, "oracle", MASTER, 1, sums=_curve_sums((1,), cfg.horizon))
        assert res.b_rounds > 0
        assert res.wrong_b_rounds == 0
        assert res.regret_total == res.regret_minority == res.regret_prediction == 0.0
        np.testing.assert_array_equal(res.curve, np.zeros(cfg.horizon))

    @pytest.mark.parametrize("policy", ["linucb", "uniform_random", "oracle"])
    def test_no_choice_rounds_means_no_regret(self, policy):
        # Without B rounds every round forces its action, so nothing is ever
        # decided and no policy can pay the gap.
        cfg = TwoBridgeConfig(horizon=2000, p_minority_c=1.0, p_minority_b=0.0)
        res = run_two_bridge_policy(cfg, policy, MASTER, 0)
        assert res.b_rounds == 0
        assert res.wrong_b_rounds == 0
        assert res.regret_total == 0.0

    def test_theta_override_sets_the_gap(self):
        cfg = TwoBridgeConfig(horizon=20_000, p_majority=0.0)
        theta = np.array([0.2, 0.7])  # bottom bridge best, gap 0.5
        res = run_two_bridge_policy(
            cfg, "uniform_random", MASTER, 2, theta=theta, sums=_curve_sums((2,), cfg.horizon)
        )
        assert res.regret_total == pytest.approx(0.5 * res.wrong_b_rounds)
        assert res.curve[-1] == res.regret_total
        # The wrong picks are the top-bridge picks: the complement of the
        # wrong picks under the default theta0 on the same streams.
        default = run_two_bridge_policy(cfg, "uniform_random", MASTER, 2)
        assert res.b_rounds == default.b_rounds
        assert res.wrong_b_rounds == default.b_rounds - default.wrong_b_rounds

    def test_linucb_sanity(self):
        cfg = TwoBridgeConfig(horizon=400, p_majority=0.0)
        res = run_two_bridge_policy(cfg, "linucb", MASTER, 10, sums=_curve_sums((10,), cfg.horizon))
        assert 0 <= res.wrong_b_rounds <= res.b_rounds
        assert res.regret_total >= 0.0
        assert res.regret_minority == res.regret_prediction == res.regret_total
        assert np.all(np.diff(res.curve) >= 0.0)
        assert res.curve[-1] == res.regret_total

    def test_injected_majority_data_leaves_rounds_unchanged(self):
        # Injection draws after the kind sequence, so the simulated rounds are
        # the same with and without it.
        cfg = TwoBridgeConfig(horizon=5000, p_majority=0.0)
        plain = run_two_bridge_policy(cfg, "linucb", MASTER, 4)
        injected = run_two_bridge_policy(cfg, "linucb", MASTER, 4, inject_majority_rate=0.95)
        assert injected.b_rounds == plain.b_rounds

    def test_unknown_policy_rejected(self):
        cfg = TwoBridgeConfig(horizon=100)
        with pytest.raises(ValueError):
            run_two_bridge_policy(cfg, "thompson", MASTER, 0)

    def test_deterministic_and_replicate_sensitive(self):
        cfg = TwoBridgeConfig(horizon=20_000)
        a = run_two_bridge_policy(cfg, "uniform_random", MASTER, 1)
        b = run_two_bridge_policy(cfg, "uniform_random", MASTER, 1)
        c = run_two_bridge_policy(cfg, "uniform_random", MASTER, 2)
        assert a == b
        assert (a.regret_total, a.b_rounds) != (c.regret_total, c.b_rounds)

    def test_coin_restriction_counts_flagged_wrong_rounds(self):
        cfg = TwoBridgeConfig(horizon=30_000, p_majority=0.0)
        base = run_two_bridge_policy(cfg, "uniform_random", MASTER, 5, sums=_curve_sums((5,), cfg.horizon))
        coin = run_two_bridge_policy(
            cfg, "uniform_random", MASTER, 5,
            sums=_curve_sums((5,), cfg.horizon, restriction="coin", restriction_p=0.25),
        )
        assert coin.regret_total == base.regret_total
        np.testing.assert_array_equal(coin.curve, base.curve)
        coins = _coins(MASTER, 5, cfg.horizon, 0.25)
        increments = np.diff(base.curve, prepend=0.0)
        assert coin.regret_minority == pytest.approx(float(increments[coins].sum()))
        assert coin.regret_minority < base.regret_minority


class TestTwoBridgeBatchFreqEngine:
    @pytest.mark.parametrize("variant", ["theta0", "theta1"])
    @pytest.mark.parametrize("noise", [NoiseKind.GAUSSIAN_UNIT, NoiseKind.BERNOULLI])
    @pytest.mark.parametrize("batch_size", [50, 333])
    @pytest.mark.parametrize("p_majority", [0.95, 0.0])
    def test_matches_generic_reference(self, variant, noise, batch_size, p_majority):
        cfg = TwoBridgeConfig(
            horizon=3000, theta_variant=variant, noise=noise, p_majority=p_majority
        )
        res = run_two_bridge_batch_freq(cfg, MASTER, 2, batch_size)
        wrong, n_b = reference_two_bridge_batch_freq(cfg, MASTER, 2, batch_size)
        assert res.wrong_b_rounds == wrong
        assert res.b_rounds == n_b
        assert res.regret_total == pytest.approx(cfg.epsilon * wrong)
        assert res.regret_minority == res.regret_total

    def test_no_choice_rounds_means_no_regret(self):
        cfg = TwoBridgeConfig(horizon=2000, p_minority_c=1.0, p_minority_b=0.0)
        res = run_two_bridge_batch_freq(cfg, MASTER, 0, 100)
        assert res.b_rounds == 0
        assert res.regret_total == 0.0

    def test_cold_batch_splits_uniformly(self):
        # One batch holds the whole horizon, so every B round is decided on
        # the empty estimate and errs with probability one half.
        cfg = TwoBridgeConfig(horizon=4000, p_majority=0.0)
        wrongs = totals = 0
        for rep in range(20):
            res = run_two_bridge_batch_freq(cfg, MASTER, rep, cfg.horizon)
            wrongs += res.wrong_b_rounds
            totals += res.b_rounds
        assert wrongs / totals == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(totals))

    def test_warm_batches_pick_one_bridge(self):
        # The estimate is frozen within a batch, so after the cold batch each
        # batch errs on all of its B rounds or on none.
        cfg = TwoBridgeConfig(horizon=6000, p_majority=0.0)
        batch_size = 100
        for rep in range(5):
            res = run_two_bridge_batch_freq(cfg, MASTER, rep, batch_size, sums=_curve_sums((rep,), cfg.horizon))
            kinds = _kind_codes(cfg, stream(MASTER, rep, Purpose.CONTEXTS), cfg.horizon)
            starts = np.arange(0, cfg.horizon, batch_size)
            count_b = np.add.reduceat(kinds == _B, starts)
            wrong = np.add.reduceat(np.diff(res.curve, prepend=0.0) > 0, starts)
            assert wrong.sum() == res.wrong_b_rounds
            for b in range(1, len(starts)):
                assert wrong[b] in (0, count_b[b])

    def test_deterministic_and_replicate_sensitive(self):
        cfg = TwoBridgeConfig(horizon=20_000)
        a = run_two_bridge_batch_freq(cfg, MASTER, 1, 500)
        b = run_two_bridge_batch_freq(cfg, MASTER, 1, 500)
        c = run_two_bridge_batch_freq(cfg, MASTER, 2, 500)
        assert a == b
        assert (a.regret_total, a.b_rounds) != (c.regret_total, c.b_rounds)

    def test_curve_reaches_total(self):
        cfg = TwoBridgeConfig(horizon=3000, p_majority=0.0)
        res = run_two_bridge_batch_freq(cfg, MASTER, 4, 100, sums=_curve_sums((4,), cfg.horizon))
        assert res.curve.shape == (3000,)
        assert res.curve[-1] == res.regret_total
        assert np.all(np.diff(res.curve) >= 0)

    def test_coin_restriction_identity(self):
        cfg = TwoBridgeConfig(horizon=3000, p_majority=0.0)
        base = run_two_bridge_batch_freq(cfg, MASTER, 6, 100, sums=_curve_sums((6,), cfg.horizon))
        coin = run_two_bridge_batch_freq(
            cfg, MASTER, 6, 100, sums=_curve_sums((6,), cfg.horizon, restriction="coin", restriction_p=0.5)
        )
        assert coin.regret_total == base.regret_total
        coins = _coins(MASTER, 6, cfg.horizon, 0.5)
        increments = np.diff(base.curve, prepend=0.0)
        assert coin.regret_minority == pytest.approx(float(increments[coins].sum()))


def _one_group_catalog() -> Catalog:
    """Three entries, the second offering only its first slot."""
    means = [[[0.5, 0.1], [0.1, 0.5]], [[0.3, 0.3], [0.0, 0.0]], [[0.0, 0.6], [0.6, 0.0]]]
    avail = [[True, True], [True, False], [True, True]]
    return Catalog(means, avail, [0.5, 0.3, 0.2], [False, False, False], rho=0.3)


def _two_group_catalog() -> Catalog:
    """Two majority entries and one minority entry, minority rounds at rate 0.3."""
    means = [[[0.5, 0.1], [0.1, 0.5]], [[0.2, 0.4], [0.4, 0.2]], [[0.1, 0.6], [0.6, 0.1]]]
    return Catalog(means, np.ones((3, 2), dtype=bool), [0.6, 0.4, 1.0], [False, False, True],
                   rho=0.3, minority_prob=0.3)


def _fixed_pair_catalog() -> Catalog:
    """One entry offering both bridge contexts unperturbed in every round."""
    return Catalog([[TOP, BOTTOM]], [[True, True]], [1.0], [False], rho=0.0)


PRIOR_MEAN = np.array([0.4, 0.2])
PRIOR_NORM = float(np.linalg.norm(PRIOR_MEAN))
PRIOR_COV = np.eye(2)
PRIOR = gaussian_prior(PRIOR_MEAN, PRIOR_COV)
THETA = np.array([0.7, -0.3])


class TestPerturbedGreedyEngine:
    @pytest.mark.parametrize("acting", ["freq", "bayes"])
    @pytest.mark.parametrize("two_group", [False, True])
    def test_matches_per_round_reference(self, acting, two_group):
        cfg = _two_group_catalog() if two_group else _one_group_catalog()
        kwargs = dict(
            theta=THETA, horizon=900, batch_size=150, master_seed=MASTER, replicate=1,
            acting=acting, context_bound=2.0, probe_rounds=(100, 800),
        )
        res = run_perturbed_batch_greedy(cfg, PRIOR, **kwargs)
        total, minority, pred, allowance, probes = reference_perturbed_greedy(
            cfg, PRIOR_MEAN, PRIOR_COV, **kwargs
        )
        assert res.regret_total == total
        assert res.regret_minority == minority
        assert res.regret_prediction == pred
        assert res.gap_allowance == pytest.approx(allowance, abs=1e-9)
        assert set(res.probe_values) == {100, 800}
        for p, v in probes.items():
            assert res.probe_values[p] == pytest.approx(v, abs=1e-9)

    @pytest.mark.parametrize("two_group", [False, True])
    def test_bayes_acting_predicts_its_own_actions(self, two_group):
        # The prediction rule is greedy on the posterior mean, which is the
        # acting estimate of the Bayesian policy.
        cfg = _two_group_catalog() if two_group else _one_group_catalog()
        res = run_perturbed_batch_greedy(
            cfg, PRIOR, THETA,
            horizon=600, batch_size=100, master_seed=MASTER, replicate=5, acting="bayes",
        )
        assert res.regret_prediction == res.regret_total
        assert res.regret_total > 0.0

    def test_first_batch_uses_prior(self):
        # Exact catalog contexts (rho = 0): the prior favours the second
        # slot, and the first batch acts on the prior whatever its data.
        cfg = _fixed_pair_catalog()
        res = run_perturbed_batch_greedy(
            cfg, gaussian_prior(np.array([0.2, 0.9]), np.eye(2)), np.array([0.5, 0.4]),
            horizon=200, batch_size=200, master_seed=MASTER, replicate=0,
            acting="bayes", track_rows=True,
        )
        np.testing.assert_array_equal(res.chosen_rows, np.tile(BOTTOM, (200, 1)))
        assert res.regret_total == pytest.approx(200 * 0.1)

    def test_prediction_comes_from_bayes_estimate(self):
        # In the cold batch the frequentist policy picks at random, while the
        # prediction is greedy on the prior mean, here always the worse slot.
        cfg = _fixed_pair_catalog()
        res = run_perturbed_batch_greedy(
            cfg, gaussian_prior(np.array([0.0, 5.0]), 0.01 * np.eye(2)), np.array([0.5, 0.4]),
            horizon=300, batch_size=300, master_seed=MASTER, replicate=1, acting="freq",
        )
        assert res.regret_prediction == pytest.approx(300 * 0.1)
        assert 0.0 < res.regret_total < res.regret_prediction

    def test_freq_cold_start_is_uniform(self):
        cfg = _fixed_pair_catalog()
        n = 4000
        res = run_perturbed_batch_greedy(
            cfg, PRIOR, np.array([0.5, 0.4]),
            horizon=n, batch_size=n, master_seed=MASTER, replicate=2, track_rows=True,
        )
        top_rate = float(np.mean(res.chosen_rows[:, 0] == 1.0))
        assert top_rate == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(n))

    def test_freq_warm_acts_greedily(self):
        cfg = _fixed_pair_catalog()
        res = run_perturbed_batch_greedy(
            cfg, PRIOR, np.array([1.0, -1.0]),
            horizon=400, batch_size=200, master_seed=MASTER, replicate=3, track_rows=True,
        )
        np.testing.assert_array_equal(res.chosen_rows[200:], np.tile(TOP, (200, 1)))

    @pytest.mark.parametrize("acting", ["freq", "bayes"])
    def test_estimate_frozen_within_batch(self, acting):
        # With identical contexts in every round, a frozen estimate makes
        # the same pick for a whole batch.
        cfg = _fixed_pair_catalog()
        batch_size = 25
        res = run_perturbed_batch_greedy(
            cfg, PRIOR, np.array([0.5, 0.45]),
            horizon=1000, batch_size=batch_size, master_seed=MASTER, replicate=4,
            acting=acting, track_rows=True,
        )
        first = 1 if acting == "freq" else 0  # the cold frequentist batch is random
        batches = res.chosen_rows.reshape(-1, batch_size, 2)[first:]
        assert np.all(batches == batches[:, :1])

    def test_first_batch_gap_allowance(self):
        # Before any data the frequentist estimate is zero and the Bayesian
        # one is the prior mean, for every round of the first batch.
        res = run_perturbed_batch_greedy(
            _one_group_catalog(), PRIOR, THETA,
            horizon=150, batch_size=150, master_seed=MASTER, replicate=0, context_bound=1.7,
        )
        assert res.gap_allowance == pytest.approx(2 * 1.7 * np.linalg.norm(PRIOR_MEAN) * 150)
        none = run_perturbed_batch_greedy(
            _one_group_catalog(), PRIOR, THETA,
            horizon=150, batch_size=150, master_seed=MASTER, replicate=0,
        )
        assert none.gap_allowance == 0.0
        assert none.regret_total == res.regret_total

    def test_one_group_minority_regret_is_zero(self):
        res = run_perturbed_batch_greedy(
            _one_group_catalog(), PRIOR, THETA,
            horizon=600, batch_size=200, master_seed=MASTER, replicate=0,
        )
        assert res.regret_minority == 0.0
        assert res.regret_total > 0.0

    def test_probe_uses_frozen_batch_boundary(self):
        res = run_perturbed_batch_greedy(
            _one_group_catalog(), PRIOR, THETA,
            horizon=600, batch_size=200, master_seed=MASTER, replicate=0,
            probe_rounds=(150,),
        )
        # Probe round falls in the cold batch: frozen data size is zero, so
        # the probe value must vanish regardless of the estimate distance.
        assert res.probe_values[150] == 0.0

    def test_lambda_curve_matches_eigendecomposition(self):
        res = run_perturbed_batch_greedy(
            _one_group_catalog(), PRIOR, THETA,
            horizon=300, batch_size=100, master_seed=MASTER, replicate=2,
            track_lambda=True, track_rows=True,
        )
        gram = np.zeros((2, 2))
        for t, row in enumerate(res.chosen_rows):
            gram += np.outer(row, row)
            lam = np.linalg.eigvalsh(gram)[0]
            assert res.lambda_curve[t] == pytest.approx(lam, abs=1e-8)

    def test_final_stats_match_rows(self):
        res = run_perturbed_batch_greedy(
            _two_group_catalog(), PRIOR, THETA,
            horizon=400, batch_size=100, master_seed=MASTER, replicate=3,
            track_rows=True,
        )
        np.testing.assert_allclose(
            res.final_stats.Z, res.chosen_rows.T @ res.chosen_rows, atol=1e-9
        )
        assert res.final_stats.n == 400

    def test_coin_restriction_identity(self):
        cfg = _two_group_catalog()
        kwargs = dict(
            prior=PRIOR, theta=THETA, horizon=600, batch_size=150, master_seed=MASTER, replicate=4,
        )
        base = run_perturbed_batch_greedy(cfg, sums=_curve_sums((4,), 600), **kwargs)
        coin = run_perturbed_batch_greedy(
            cfg, sums=_curve_sums((4,), 600, restriction="coin", restriction_p=0.25), **kwargs
        )
        assert coin.regret_total == pytest.approx(base.regret_total)
        np.testing.assert_allclose(coin.curve, base.curve)
        coins = _coins(MASTER, 4, 600, 0.25)
        increments = np.diff(base.curve, prepend=0.0)
        assert coin.regret_minority == pytest.approx(
            float(increments[coins].sum()), abs=1e-9
        )


def _linucb_one(cfg, params, theta, horizon, replicate, **kwargs):
    """The lockstep engine on a block of one replicate."""
    [res] = run_perturbed_linucb(cfg, params, [theta], horizon, MASTER, (replicate,), **kwargs)
    return res


# Not a multiple of the noise chunk, with refreshes in both chunks and a
# refresh period that straddles the chunk boundary.
LOCKSTEP_HORIZON = NOISE_CHUNK + 40
LOCKSTEP_REFRESH = NOISE_CHUNK // 3 + 1
LOCKSTEP_REPLICATES = tuple(range(7))


def _lockstep_thetas():
    return np.array([
        THETA + 0.2 * stream(MASTER, rep, Purpose.THETA).standard_normal(2)
        for rep in LOCKSTEP_REPLICATES
    ])


@functools.lru_cache(maxsize=None)
def _single_replicate_runs(two_group: bool, restriction: str) -> tuple:
    cfg = _two_group_catalog() if two_group else _one_group_catalog()
    params = LinUCBParams.for_perturbed(
        d=2, n_actions=2, horizon=LOCKSTEP_HORIZON, rho=cfg.rho, prior_norm=PRIOR_NORM
    )
    return tuple(
        single_replicate_linucb(
            cfg, params, theta, LOCKSTEP_HORIZON, MASTER, rep,
            refresh_every=LOCKSTEP_REFRESH, restriction=restriction,
        )
        for rep, theta in zip(LOCKSTEP_REPLICATES, _lockstep_thetas())
    )


class TestPerturbedLinUCBEngine:
    @pytest.mark.parametrize("block", [1, 2, 5])
    @pytest.mark.parametrize("two_group", [False, True])
    @pytest.mark.parametrize("restriction", ["minority", "coin"])
    def test_lockstep_is_bit_identical_to_single_replicate_loop(self, block, two_group, restriction):
        assert LOCKSTEP_HORIZON % NOISE_CHUNK != 0
        refreshes = range(LOCKSTEP_REFRESH, LOCKSTEP_HORIZON + 1, LOCKSTEP_REFRESH)
        assert {t // NOISE_CHUNK for t in refreshes} == {0, 1}
        assert len(LOCKSTEP_REPLICATES) % block or block == 1  # a ragged last block

        cfg = _two_group_catalog() if two_group else _one_group_catalog()
        params = LinUCBParams.for_perturbed(
            d=2, n_actions=2, horizon=LOCKSTEP_HORIZON, rho=cfg.rho, prior_norm=PRIOR_NORM
        )
        thetas = _lockstep_thetas()
        results = []
        for first in range(0, len(LOCKSTEP_REPLICATES), block):
            reps = LOCKSTEP_REPLICATES[first:first + block]
            results += run_perturbed_linucb(
                cfg, params, thetas[first:first + block], LOCKSTEP_HORIZON, MASTER, reps,
                refresh_every=LOCKSTEP_REFRESH,
                sums=_curve_sums(reps, LOCKSTEP_HORIZON, restriction=restriction),
            )
        expected = _single_replicate_runs(two_group, restriction)
        assert len(results) == len(expected)
        for i, (res, (total, minority, curve, Z, xr)) in enumerate(zip(results, expected)):
            assert res.regret_total == total
            assert res.regret_minority == minority
            assert res.regret_prediction == total
            assert np.array_equal(res.final_stats.Z, Z)
            assert np.array_equal(res.final_stats.xr, xr)
            # Only the first replicate of a block keeps its curve.
            if i % block:
                assert res.curve is None
            else:
                assert np.array_equal(res.curve, curve)
                assert res.curve[-1] == res.regret_total

    @pytest.mark.parametrize("two_group", [False, True])
    def test_matches_direct_inverse_reference(self, two_group):
        cfg = _two_group_catalog() if two_group else _one_group_catalog()
        horizon = 400
        params = LinUCBParams.for_perturbed(
            d=2, n_actions=2, horizon=horizon, rho=cfg.rho, prior_norm=PRIOR_NORM
        )
        res = _linucb_one(cfg, params, THETA, horizon, 1)
        total, minority = reference_perturbed_linucb(cfg, params, THETA, horizon, MASTER, 1)
        assert res.regret_total == pytest.approx(total, abs=1e-9)
        assert res.regret_minority == pytest.approx(minority, abs=1e-9)

    def test_cached_inverse_is_refreshed_every_period(self, monkeypatch):
        # Decisions rarely depend on the last bits the refresh corrects, so
        # count the stacked inversions: one per refresh period for the block.
        cfg = _one_group_catalog()
        params = LinUCBParams.for_perturbed(
            d=2, n_actions=2, horizon=LOCKSTEP_HORIZON, rho=cfg.rho, prior_norm=PRIOR_NORM
        )
        calls = []
        inv = np.linalg.inv

        def counted(a):
            calls.append(np.shape(a))
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        run_perturbed_linucb(
            cfg, params, _lockstep_thetas()[:2], LOCKSTEP_HORIZON, MASTER, LOCKSTEP_REPLICATES[:2],
            refresh_every=LOCKSTEP_REFRESH,
        )
        assert LOCKSTEP_HORIZON > NOISE_CHUNK
        assert calls == [(2, 2, 2)] * (LOCKSTEP_HORIZON // LOCKSTEP_REFRESH)

    def test_cached_inverse_matches_per_round_refresh(self):
        cfg = _one_group_catalog()
        horizon = 3000
        params = LinUCBParams.for_perturbed(
            d=2, n_actions=2, horizon=horizon, rho=cfg.rho, prior_norm=PRIOR_NORM
        )
        cached = _linucb_one(cfg, params, THETA, horizon, 2)
        exact = _linucb_one(cfg, params, THETA, horizon, 2, refresh_every=1)
        assert cached.regret_total == pytest.approx(exact.regret_total, abs=1e-9)
        np.testing.assert_allclose(cached.final_stats.Z, exact.final_stats.Z, atol=1e-7)

    @pytest.mark.parametrize("two_group", [False, True])
    def test_result_fields(self, two_group):
        cfg = _two_group_catalog() if two_group else _one_group_catalog()
        horizon = 300
        params = LinUCBParams.for_perturbed(
            d=2, n_actions=2, horizon=horizon, rho=cfg.rho, prior_norm=PRIOR_NORM
        )
        res = _linucb_one(cfg, params, THETA, horizon, 6, sums=_curve_sums((6,), horizon))
        assert res.final_stats.n == horizon
        assert res.regret_prediction == res.regret_total > 0.0
        assert 0.0 <= res.regret_minority <= res.regret_total
        assert (res.regret_minority > 0.0) == two_group
        assert res.gap_allowance == 0.0 and res.probe_values == {}
        np.testing.assert_array_equal(res.theta, THETA)
        assert np.all(np.diff(res.curve) >= 0.0)

    def test_results_follow_replicate_order(self):
        cfg = _one_group_catalog()
        horizon = 200
        params = LinUCBParams.for_perturbed(
            d=2, n_actions=2, horizon=horizon, rho=cfg.rho, prior_norm=PRIOR_NORM
        )
        thetas = _lockstep_thetas()[[4, 1]]
        pair = run_perturbed_linucb(cfg, params, thetas, horizon, MASTER, (4, 1))
        for res, rep, theta in zip(pair, (4, 1), thetas):
            alone = _linucb_one(cfg, params, theta, horizon, rep)
            assert res.regret_total == alone.regret_total
            np.testing.assert_array_equal(res.theta, theta)
        assert pair[0].regret_total != pair[1].regret_total

    def test_requires_positive_ridge(self):
        params = LinUCBParams(L=1.0, S=1.0, horizon=100, ridge=0.0)
        with pytest.raises(ValueError):
            _linucb_one(_one_group_catalog(), params, THETA, 100, 0)

    def test_coin_restriction_identity(self):
        cfg = _two_group_catalog()
        horizon = 500
        params = LinUCBParams.for_perturbed(
            d=2, n_actions=2, horizon=horizon, rho=cfg.rho, prior_norm=PRIOR_NORM
        )
        base = _linucb_one(cfg, params, THETA, horizon, 3, sums=_curve_sums((3,), horizon))
        coin = _linucb_one(
            cfg, params, THETA, horizon, 3,
            sums=_curve_sums((3,), horizon, restriction="coin", restriction_p=0.5),
        )
        assert coin.regret_total == pytest.approx(base.regret_total)
        coins = _coins(MASTER, 3, horizon, 0.5)
        increments = np.diff(base.curve, prepend=0.0)
        assert coin.regret_minority == pytest.approx(
            float(increments[coins].sum()), abs=1e-9
        )


# Few, fixed examples keep the property tests to a few seconds and the same on
# every run.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)
RESTRICTIONS = st.sampled_from(["minority", "coin"])


def _check_invariants(results, horizon, curve):
    """Regret is nonnegative, restricted within total, and the first curve ends at the total."""
    for i, res in enumerate(results):
        assert res.regret_total >= 0.0
        assert 0.0 <= res.regret_minority <= res.regret_total
        if curve and i == 0:
            assert res.curve.shape == (horizon,)
            assert np.all(np.diff(res.curve) >= 0.0)
            assert res.curve[-1] == res.regret_total
        else:
            assert res.curve is None


class TestEngineInvariants:
    @PROPERTY
    @given(horizon=st.integers(4, 2000), policy=st.sampled_from(["linucb", "uniform_random", "oracle"]),
           p_majority=st.sampled_from([0.0, 0.95]), inject=st.sampled_from([0.0, 0.95]),
           noise=st.sampled_from(list(NoiseKind)), variant=st.sampled_from(["theta0", "theta1"]),
           seed=SEEDS, replicate=st.integers(0, 50), restriction=RESTRICTIONS, curve=st.booleans())
    def test_two_bridge_policy(self, horizon, policy, p_majority, inject, noise, variant, seed,
                               replicate, restriction, curve):
        cfg = TwoBridgeConfig(horizon=horizon, theta_variant=variant, noise=noise, p_majority=p_majority)
        sums = RegretSums(seed, (replicate,), horizon, restriction, 0.5, curve)
        res = run_two_bridge_policy(cfg, policy, seed, replicate, inject_majority_rate=inject, sums=sums)
        _check_invariants([res], horizon, curve)
        assert res.regret_prediction == res.regret_total

    @PROPERTY
    @given(horizon=st.integers(4, 2000), batch_frac=st.floats(0.0, 1.0),
           p_majority=st.sampled_from([0.0, 0.95]), noise=st.sampled_from(list(NoiseKind)),
           seed=SEEDS, replicate=st.integers(0, 50), restriction=RESTRICTIONS, curve=st.booleans())
    def test_two_bridge_batch_freq(self, horizon, batch_frac, p_majority, noise, seed, replicate,
                                   restriction, curve):
        cfg = TwoBridgeConfig(horizon=horizon, noise=noise, p_majority=p_majority)
        batch = 1 + int(batch_frac * (horizon - 1))
        sums = RegretSums(seed, (replicate,), horizon, restriction, 0.5, curve)
        res = run_two_bridge_batch_freq(cfg, seed, replicate, batch, sums=sums)
        _check_invariants([res], horizon, curve)

    @PROPERTY
    @given(horizon=st.integers(2, 300), batch_frac=st.floats(0.0, 1.0), two_group=st.booleans(),
           acting=st.sampled_from(["freq", "bayes"]), seed=SEEDS, replicate=st.integers(0, 50),
           restriction=RESTRICTIONS, curve=st.booleans())
    def test_perturbed_batch_greedy(self, horizon, batch_frac, two_group, acting, seed, replicate,
                                    restriction, curve):
        cfg = _two_group_catalog() if two_group else _one_group_catalog()
        batch = 1 + int(batch_frac * (horizon - 1))
        sums = RegretSums(seed, (replicate,), horizon, restriction, 0.5, curve)
        res = run_perturbed_batch_greedy(
            cfg, PRIOR, THETA, horizon, batch, seed, replicate, acting=acting, sums=sums,
        )
        _check_invariants([res], horizon, curve)
        assert res.regret_prediction >= 0.0
        if acting == "bayes":
            assert res.regret_prediction == res.regret_total

    @PROPERTY
    @given(horizon=st.integers(2, 120), two_group=st.booleans(), seed=SEEDS,
           first=st.integers(0, 50), block=st.integers(1, 3), restriction=RESTRICTIONS,
           curve=st.booleans())
    def test_perturbed_linucb(self, horizon, two_group, seed, first, block, restriction, curve):
        cfg = _two_group_catalog() if two_group else _one_group_catalog()
        # Widths for a longer horizon: the parameters need one beyond their norm bound.
        params = LinUCBParams.for_perturbed(d=2, n_actions=2, horizon=200, rho=cfg.rho, prior_norm=PRIOR_NORM)
        reps = tuple(range(first, first + block))
        thetas = np.array([THETA + 0.2 * stream(seed, rep, Purpose.THETA).standard_normal(2) for rep in reps])
        sums = RegretSums(seed, reps, horizon, restriction, 0.5, curve)
        results = run_perturbed_linucb(cfg, params, thetas, horizon, seed, reps, sums=sums)
        assert len(results) == block
        _check_invariants(results, horizon, curve)


class TestEntryDraws:
    def test_entry_draw_frequencies(self):
        cat = _one_group_catalog()
        rng = np.random.default_rng(0)
        n = 100_000
        idx = _draw_entry_indices(cat, n, rng)
        freq = np.bincount(idx, minlength=3) / n
        for f, w in zip(freq, (0.5, 0.3, 0.2)):
            assert f == pytest.approx(w, abs=3 * math.sqrt(w * (1 - w) / n))

    def test_two_group_draw_respects_minority_rate(self):
        cat = _two_group_catalog()
        rng = np.random.default_rng(1)
        n = 100_000
        idx = _draw_entry_indices(cat, n, rng)
        minority_freq = cat.minority[idx].mean()
        assert minority_freq == pytest.approx(0.3, abs=3 * math.sqrt(0.3 * 0.7 / n))
        majority = idx[~cat.minority[idx]]
        freq0 = (majority == 0).mean()
        assert freq0 == pytest.approx(0.6, abs=3 * math.sqrt(0.6 * 0.4 / majority.size))


class TestLambdaMinCurve:
    def test_matches_eigvalsh(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(200, 2))
        curve = _lambda_min_curve(rows)
        gram = np.zeros((2, 2))
        for t, row in enumerate(rows):
            gram += np.outer(row, row)
            assert curve[t] == pytest.approx(np.linalg.eigvalsh(gram)[0], abs=1e-8)

    def test_requires_two_columns(self):
        with pytest.raises(ValueError):
            _lambda_min_curve(np.zeros((5, 3)))
