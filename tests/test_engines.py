"""Vectorized engines against per-round reference loops.

Each reference below consumes the replicate streams in the engine's exact
order but re-derives every decision through the generic building blocks
(sufficient statistics, interval widths, and the per-round greedy/UCB
selection, regret and posterior means of ``oracles``) instead of the engines'
closed-form shortcuts.  The lockstep LinUCB engine is also held bit for bit
to ``oracles.single_replicate_linucb``, the lockstep batched greedy engine
to ``oracles.single_replicate_greedy``, and the two-bridge engines to the
per-round loops of ``oracles``.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditsim.core import NoiseKind, last_batch_end
import banditsim.engines as engines
from banditsim.engines import (
    GAP_PROBE_ROUNDS,
    NOISE_CHUNK,
    GreedyCell,
    LinUCBCell,
    _seg_sums,
    linucb_picks_top,
    run_perturbed_batch_greedy,
    run_perturbed_linucb,
    run_two_bridge_batch_freq,
    run_two_bridge_policy,
    two_bridge_rounds,
)
from banditsim.environments import MAJORITY_RATE, Catalog, TwoBridgeConfig
from banditsim.estimators import gaussian_prior, ols_estimate
from banditsim.experiments import _lambda_min_curve, ks_2samp_equal
from banditsim.metrics import RegretSums
from banditsim.policies import LinUCBParams, context_norm_bound
from banditsim.rng import Purpose, stream
from oracles import (
    BOTTOM,
    KIND_A,
    KIND_B,
    KIND_C,
    TOP,
    ContextRound,
    Group,
    bayes_posterior_mean,
    draw_entries,
    greedy_select,
    instantaneous_regret,
    kind_codes,
    linucb_picks_per_round,
    linucb_scores,
    scalar_interval_width,
    single_replicate_greedy,
    single_replicate_linucb,
)

MASTER = 20260814
B_ROUND = ContextRound((TOP, BOTTOM), Group.MINORITY, 1)

# Few, fixed examples keep the property tests to a few seconds and the same on
# every run.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)
RESTRICTIONS = st.sampled_from(["minority", "coin"])


def _coins(master_seed, replicate, horizon, p):
    """The restriction coin flags of a replicate, straight from its stream."""
    return stream(master_seed, replicate, Purpose.RESTRICTION).random(horizon) < p


def _curve_sums(replicates, horizon, **kwargs):
    """An accumulator that keeps the first replicate's curve."""
    return RegretSums(MASTER, replicates, horizon, curve=True, **kwargs)


def _run(engine, *args, reps, horizon, restriction="minority", restriction_p=0.5, **kwargs):
    """``engine`` on ``args`` and ``kwargs``, fed a fresh accumulator of
    ``reps`` at ``horizon`` that keeps the first replicate's curve; returns
    the accumulator and the engine's result."""
    sums = _curve_sums(reps, horizon, restriction=restriction, restriction_p=restriction_p)
    return sums, engine(*args, sums=sums, **kwargs)


def _rounds(cfg, replicate):
    """The round kinds of ``replicate`` at ``cfg.horizon``, as the experiment harness draws them."""
    return two_bridge_rounds(cfg, MASTER, replicate)


def _replicate_without_b_rounds(cfg):
    """The first replicate whose round kinds hold no B round."""
    for rep in range(100):
        kinds = kind_codes(cfg, stream(MASTER, rep, Purpose.CONTEXTS), cfg.horizon)
        if not np.any(kinds == KIND_B):
            return rep
    raise AssertionError("every replicate has a B round")


def _two_bridge_draws(cfg, master_seed, replicate, inject_rate):
    """Replay the engine's stream consumption; return kinds and reward draws."""
    theta = cfg.theta
    horizon = cfg.horizon
    ctx = stream(master_seed, replicate, Purpose.CONTEXTS)
    rew = stream(master_seed, replicate, Purpose.REWARDS)
    pol = stream(master_seed, replicate, Purpose.POLICY)

    kinds = kind_codes(cfg, ctx, horizon)
    b_pos = np.flatnonzero(kinds == KIND_B)
    # The injected pulls from one B round's successor up to and including the
    # next B round: one negative binomial per gap, the first from round 0.
    if inject_rate > 0.0:
        injected = ctx.negative_binomial(np.diff(b_pos, prepend=-1), 1.0 - inject_rate)
    else:
        injected = np.zeros(b_pos.size, dtype=np.int64)

    cum_a = np.concatenate([[0], np.cumsum(kinds == KIND_A)])
    cum_c = np.concatenate([[0], np.cumsum(kinds == KIND_C)])
    top_inc = np.diff(np.concatenate([[0], cum_a[b_pos]])) + injected
    bot_inc = np.diff(np.concatenate([[0], cum_c[b_pos]]))

    seg_top = _seg_sums(top_inc, float(theta[0]), cfg.noise, rew)
    seg_bot = _seg_sums(bot_inc, float(theta[1]), cfg.noise, rew)
    single = np.ones(b_pos.size, dtype=np.int64)
    cand_top = _seg_sums(single, float(theta[0]), cfg.noise, rew)
    cand_bot = _seg_sums(single, float(theta[1]), cfg.noise, rew)
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
        f = scalar_interval_width(n1 + n2, params, 2)
        scores = linucb_scores(B_ROUND, np.diag([float(n1), float(n2)]), np.array([s1, s2]), f=f, ridge=params.ridge)
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


def reference_two_bridge_batch_freq(cfg, master_seed, replicate, batch_size, sides=None):
    """Decide each batch by greedy selection on a generic least-squares estimate;
    return the positions of the wrong B rounds and the number of B rounds.
    ``sides``, when given, receives each warm batch's pick, True for the top
    bridge."""
    theta = cfg.theta
    horizon = cfg.horizon
    top_best = bool(theta[0] > theta[1])

    ctx = stream(master_seed, replicate, Purpose.CONTEXTS)
    rew = stream(master_seed, replicate, Purpose.REWARDS)
    pol = stream(master_seed, replicate, Purpose.POLICY)

    kinds = kind_codes(cfg, ctx, horizon)
    starts = np.arange(0, horizon, batch_size)
    count_a = np.add.reduceat(kinds == KIND_A, starts)
    count_c = np.add.reduceat(kinds == KIND_C, starts)
    count_b = np.add.reduceat(kinds == KIND_B, starts)
    seg_top = _seg_sums(count_a, float(theta[0]), cfg.noise, rew)
    seg_bot = _seg_sums(count_c, float(theta[1]), cfg.noise, rew)

    b_pos = np.flatnonzero(kinds == KIND_B)
    first_b = np.concatenate([[0], np.cumsum(count_b)])
    n1 = n2 = 0
    s1 = s2 = 0.0
    wrong_pos = []
    for b in range(len(starts)):
        nb = int(count_b[b])
        if n1 + n2 == 0:
            picks_top = int(pol.binomial(nb, 0.5)) if nb else 0
            picks_bot = nb - picks_top
        else:
            est = ols_estimate(np.diag([float(n1), float(n2)]), np.array([s1, s2]))
            top = greedy_select(B_ROUND, est) == 0
            if sides is not None:
                sides.append(top)
            if top:
                picks_top, picks_bot = nb, 0
            else:
                picks_top, picks_bot = 0, nb
        # The cold batch's wrong picks are its earliest B rounds.
        wrong_pos.append(b_pos[first_b[b]:first_b[b] + (picks_bot if top_best else picks_top)])
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
    return np.concatenate(wrong_pos), b_pos.size


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
    theta_freq = np.zeros(d)
    theta_bay = np.asarray(prior_mean, dtype=float).copy()
    cold = True

    total = minority_total = pred_total = allowance = 0.0
    probes = {}
    done = 0
    while done < horizon:
        y = min(batch_size, horizon - done)
        idx = draw_entries(cat, y, ctx)
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
        Z_sym = 0.5 * (Z + Z.T)
        theta_freq = ols_estimate(Z_sym, xr)
        theta_bay = bayes_posterior_mean(Z_sym, xr, prior_mean, prior_cov)
        cold = False
        done += y
    return total, minority_total, pred_total, allowance, probes


def reference_perturbed_linucb(cat, params, theta, horizon, master_seed, replicate):
    """Per-round UCB loop with a freshly inverted Gram matrix every round."""
    k, d = cat.n_actions, cat.dim
    ctx = stream(master_seed, replicate, Purpose.CONTEXTS)
    pert = stream(master_seed, replicate, Purpose.PERTURBATIONS)
    rew = stream(master_seed, replicate, Purpose.REWARDS)

    idx = draw_entries(cat, horizon, ctx)
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
        f = scalar_interval_width(t, params, d)
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


class TestTwoBridgePolicyEngine:
    @pytest.mark.parametrize("variant", ["theta0", "theta1"])
    @pytest.mark.parametrize("noise", [NoiseKind.GAUSSIAN_UNIT, NoiseKind.BERNOULLI])
    @pytest.mark.parametrize(
        "p_majority,policy", [(0.95, "linucb"), (0.0, "linucb_minority"), (0.0, "linucb_full")]
    )
    def test_linucb_matches_generic_reference(self, variant, noise, p_majority, policy):
        horizon = 4000
        cfg = TwoBridgeConfig(
            horizon=horizon, theta_variant=variant, noise=noise, p_majority=p_majority
        )
        params = LinUCBParams.for_two_bridge(horizon)
        sums, res = _run(run_two_bridge_policy, cfg, _rounds(cfg, 3), policy, MASTER, 3, reps=(3,), horizon=horizon)
        # linucb_full also learns from majority stretches at rate 0.95.
        inject = 0.95 if policy == "linucb_full" else 0.0
        b_pos, wrong_mask = reference_two_bridge_linucb(cfg, MASTER, 3, params, inject)
        assert res.b_rounds == b_pos.size
        assert res.wrong_b_rounds == int(wrong_mask.sum())
        assert sums.total[0] == pytest.approx(cfg.epsilon * wrong_mask.sum())
        gap_size = abs(float(cfg.theta[0] - cfg.theta[1]))
        expected_curve = np.zeros(horizon)
        expected_curve[b_pos[wrong_mask]] = gap_size
        np.testing.assert_array_equal(sums.curve(), np.cumsum(expected_curve))

    def test_oracle_never_wrong(self):
        cfg = TwoBridgeConfig(horizon=5000, p_majority=0.0)
        sums, res = _run(run_two_bridge_policy, cfg, _rounds(cfg, 0), "oracle", MASTER, 0, reps=(0,), horizon=cfg.horizon)
        assert res.wrong_b_rounds == 0
        assert sums.total[0] == 0.0
        assert res.b_rounds > 0

    def test_uniform_random_wrong_rate(self):
        cfg = TwoBridgeConfig(horizon=40_000, p_majority=0.0)
        wrongs, totals = 0, 0
        for rep in range(20):
            sums, res = _run(run_two_bridge_policy, cfg, _rounds(cfg, rep), "uniform_random", MASTER, rep, reps=(rep,), horizon=cfg.horizon)
            assert sums.total[0] == pytest.approx(cfg.epsilon * res.wrong_b_rounds)
            assert sums.restricted[0] == sums.total[0]
            wrongs += res.wrong_b_rounds
            totals += res.b_rounds
        assert wrongs / totals == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(totals))

    @pytest.mark.parametrize("variant", ["theta0", "theta1"])
    @pytest.mark.parametrize("noise", [NoiseKind.GAUSSIAN_UNIT, NoiseKind.BERNOULLI])
    def test_oracle_accrues_no_regret(self, variant, noise):
        cfg = TwoBridgeConfig(horizon=3000, theta_variant=variant, noise=noise, p_majority=0.0)
        sums, res = _run(run_two_bridge_policy, cfg, _rounds(cfg, 1), "oracle", MASTER, 1, reps=(1,), horizon=cfg.horizon)
        assert res.b_rounds > 0
        assert res.wrong_b_rounds == 0
        assert sums.total[0] == sums.restricted[0] == 0.0
        np.testing.assert_array_equal(sums.curve(), np.zeros(cfg.horizon))

    @pytest.mark.parametrize("noise", list(NoiseKind))
    @pytest.mark.parametrize("policy", ["linucb", "linucb_full", "linucb_minority", "uniform_random", "oracle"])
    def test_no_choice_rounds_means_no_regret(self, policy, noise):
        # Without B rounds every round forces its action, so nothing is ever
        # decided and no policy can pay the gap.
        cfg = TwoBridgeConfig(horizon=200, noise=noise)
        rep = _replicate_without_b_rounds(cfg)
        sums, res = _run(run_two_bridge_policy, cfg, _rounds(cfg, rep), policy, MASTER, rep, reps=(rep,), horizon=cfg.horizon)
        assert res.b_rounds == 0
        assert res.wrong_b_rounds == 0
        assert sums.total[0] == 0.0
        np.testing.assert_array_equal(sums.curve(), np.zeros(cfg.horizon))

    def test_theta_override_sets_the_gap(self):
        # Under theta1 the bottom bridge is best, by epsilon.
        cfg = TwoBridgeConfig(horizon=20_000, theta_variant="theta1", p_majority=0.0)
        sums, res = _run(run_two_bridge_policy, cfg, _rounds(cfg, 2), "uniform_random", MASTER, 2, reps=(2,), horizon=cfg.horizon)
        assert res.wrong_b_rounds > 0
        assert sums.total[0] == pytest.approx(cfg.epsilon * res.wrong_b_rounds)
        assert sums.curve()[-1] == sums.total[0]
        # The wrong picks are the top-bridge picks: the complement of the
        # wrong picks under the default theta0 on the same streams.
        default_cfg = TwoBridgeConfig(horizon=20_000, p_majority=0.0)
        _, default = _run(run_two_bridge_policy, default_cfg, _rounds(default_cfg, 2), "uniform_random",
                          MASTER, 2, reps=(2,), horizon=20_000)
        assert res.b_rounds == default.b_rounds
        assert res.wrong_b_rounds == default.b_rounds - default.wrong_b_rounds

    def test_linucb_sanity(self):
        cfg = TwoBridgeConfig(horizon=400, p_majority=0.0)
        sums, res = _run(run_two_bridge_policy, cfg, _rounds(cfg, 10), "linucb", MASTER, 10, reps=(10,), horizon=cfg.horizon)
        assert 0 <= res.wrong_b_rounds <= res.b_rounds
        assert sums.total[0] >= 0.0
        assert sums.restricted[0] == sums.total[0]
        assert np.all(np.diff(sums.curve()) >= 0.0)
        assert sums.curve()[-1] == sums.total[0]

    def test_injected_majority_data_leaves_rounds_unchanged(self):
        # Injection draws after the kind sequence, so the simulated rounds are
        # the same with and without it.
        cfg = TwoBridgeConfig(horizon=5000, p_majority=0.0)
        _, plain = _run(run_two_bridge_policy, cfg, _rounds(cfg, 4), "linucb", MASTER, 4, reps=(4,), horizon=cfg.horizon)
        _, injected = _run(run_two_bridge_policy, cfg, _rounds(cfg, 4), "linucb_full", MASTER, 4, reps=(4,), horizon=cfg.horizon)
        assert injected.b_rounds == plain.b_rounds

    @pytest.mark.parametrize("gap", [1, 3, 20])
    def test_injected_gap_sum_has_the_per_round_law(self, gap):
        # linucb_full draws one negative binomial per gap between B rounds for
        # what the model draws as one geometric count, less one, per round.
        rng = np.random.default_rng(gap)
        p = 1.0 - MAJORITY_RATE
        per_gap = rng.negative_binomial(np.full(4000, gap), p)
        per_round = (rng.geometric(p, size=(4000, gap)) - 1).sum(axis=1)
        _, p_value = ks_2samp_equal(per_gap.astype(float), per_round.astype(float))
        assert p_value > 0.01
        assert per_gap.mean() == pytest.approx(gap * MAJORITY_RATE / p, rel=0.1)

    def test_unknown_policy_rejected(self):
        cfg = TwoBridgeConfig(horizon=100)
        with pytest.raises(ValueError):
            _run(run_two_bridge_policy, cfg, _rounds(cfg, 0), "thompson", MASTER, 0, reps=(0,), horizon=cfg.horizon)

    def test_deterministic_and_replicate_sensitive(self):
        cfg = TwoBridgeConfig(horizon=20_000)
        (sa, a), (sb, b), (sc, c) = (
            _run(run_two_bridge_policy, cfg, _rounds(cfg, rep), "uniform_random", MASTER, rep, reps=(rep,), horizon=cfg.horizon)
            for rep in (1, 1, 2)
        )
        assert a == b
        assert (sa.total[0], sa.restricted[0]) == (sb.total[0], sb.restricted[0])
        np.testing.assert_array_equal(sa.curve(), sb.curve())
        assert (sa.total[0], a.b_rounds) != (sc.total[0], c.b_rounds)

    def test_coin_restriction_counts_flagged_wrong_rounds(self):
        cfg = TwoBridgeConfig(horizon=30_000, p_majority=0.0)
        base, _ = _run(run_two_bridge_policy, cfg, _rounds(cfg, 5), "uniform_random", MASTER, 5, reps=(5,), horizon=cfg.horizon)
        coin, _ = _run(run_two_bridge_policy, cfg, _rounds(cfg, 5), "uniform_random", MASTER, 5, reps=(5,), horizon=cfg.horizon,
                       restriction="coin", restriction_p=0.25)
        assert coin.total[0] == base.total[0]
        np.testing.assert_array_equal(coin.curve(), base.curve())
        coins = _coins(MASTER, 5, cfg.horizon, 0.25)
        increments = np.diff(base.curve(), prepend=0.0)
        assert coin.restricted[0] == pytest.approx(float(increments[coins].sum()))
        assert coin.restricted[0] < base.restricted[0]


class TestTwoBridgeBatchFreqEngine:
    @pytest.mark.parametrize("variant", ["theta0", "theta1"])
    @pytest.mark.parametrize("noise", [NoiseKind.GAUSSIAN_UNIT, NoiseKind.BERNOULLI])
    @pytest.mark.parametrize("batch_size", [50, 333])
    @pytest.mark.parametrize("p_majority", [0.95, 0.0])
    def test_matches_generic_reference(self, variant, noise, batch_size, p_majority):
        cfg = TwoBridgeConfig(
            horizon=3000, theta_variant=variant, noise=noise, p_majority=p_majority
        )
        sums, res = _run(run_two_bridge_batch_freq, cfg, _rounds(cfg, 2), MASTER, 2, batch_size, reps=(2,), horizon=cfg.horizon)
        wrong_pos, n_b = reference_two_bridge_batch_freq(cfg, MASTER, 2, batch_size)
        wrong = wrong_pos.size
        assert res.wrong_b_rounds == wrong
        assert res.b_rounds == n_b
        assert sums.total[0] == pytest.approx(cfg.epsilon * wrong)
        assert sums.restricted[0] == sums.total[0]

    @pytest.mark.parametrize("noise", list(NoiseKind))
    def test_no_choice_rounds_means_no_regret(self, noise):
        cfg = TwoBridgeConfig(horizon=200, noise=noise)
        rep = _replicate_without_b_rounds(cfg)
        sums, res = _run(run_two_bridge_batch_freq, cfg, _rounds(cfg, rep), MASTER, rep, 20, reps=(rep,), horizon=cfg.horizon)
        assert res.b_rounds == 0
        assert sums.total[0] == 0.0

    def test_cold_batch_splits_uniformly(self):
        # One batch holds the whole horizon, so every B round is decided on
        # the empty estimate and errs with probability one half.
        cfg = TwoBridgeConfig(horizon=4000, p_majority=0.0)
        wrongs = totals = 0
        for rep in range(20):
            _, res = _run(run_two_bridge_batch_freq, cfg, _rounds(cfg, rep), MASTER, rep, cfg.horizon, reps=(rep,), horizon=cfg.horizon)
            wrongs += res.wrong_b_rounds
            totals += res.b_rounds
        assert wrongs / totals == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(totals))

    def test_warm_batches_pick_one_bridge(self):
        # The estimate is frozen within a batch, so after the cold batch each
        # batch errs on all of its B rounds or on none.
        cfg = TwoBridgeConfig(horizon=6000, p_majority=0.0)
        batch_size = 100
        for rep in range(5):
            sums, res = _run(run_two_bridge_batch_freq, cfg, _rounds(cfg, rep), MASTER, rep, batch_size, reps=(rep,), horizon=cfg.horizon)
            kinds = kind_codes(cfg, stream(MASTER, rep, Purpose.CONTEXTS), cfg.horizon)
            starts = np.arange(0, cfg.horizon, batch_size)
            count_b = np.add.reduceat(kinds == KIND_B, starts)
            wrong = np.add.reduceat(np.diff(sums.curve(), prepend=0.0) > 0, starts)
            assert wrong.sum() == res.wrong_b_rounds
            for b in range(1, len(starts)):
                assert wrong[b] in (0, count_b[b])

    def test_deterministic_and_replicate_sensitive(self):
        cfg = TwoBridgeConfig(horizon=20_000)
        (sa, a), (sb, b), (sc, c) = (
            _run(run_two_bridge_batch_freq, cfg, _rounds(cfg, rep), MASTER, rep, 500, reps=(rep,), horizon=cfg.horizon)
            for rep in (1, 1, 2)
        )
        assert a == b
        assert (sa.total[0], sa.restricted[0]) == (sb.total[0], sb.restricted[0])
        np.testing.assert_array_equal(sa.curve(), sb.curve())
        assert (sa.total[0], a.b_rounds) != (sc.total[0], c.b_rounds)

    def test_curve_reaches_total(self):
        cfg = TwoBridgeConfig(horizon=3000, p_majority=0.0)
        sums, _ = _run(run_two_bridge_batch_freq, cfg, _rounds(cfg, 4), MASTER, 4, 100, reps=(4,), horizon=cfg.horizon)
        assert sums.curve().shape == (3000,)
        assert sums.curve()[-1] == sums.total[0]
        assert np.all(np.diff(sums.curve()) >= 0)

    def test_coin_restriction_identity(self):
        cfg = TwoBridgeConfig(horizon=3000, p_majority=0.0)
        base, _ = _run(run_two_bridge_batch_freq, cfg, _rounds(cfg, 6), MASTER, 6, 100, reps=(6,), horizon=cfg.horizon)
        coin, _ = _run(run_two_bridge_batch_freq, cfg, _rounds(cfg, 6), MASTER, 6, 100, reps=(6,), horizon=cfg.horizon,
                       restriction="coin", restriction_p=0.5)
        assert coin.total[0] == base.total[0]
        coins = _coins(MASTER, 6, cfg.horizon, 0.5)
        increments = np.diff(base.curve(), prepend=0.0)
        assert coin.restricted[0] == pytest.approx(float(increments[coins].sum()))


def _wrong_curve(cfg, wrong_pos):
    """The regret curve of wrong B rounds at ``wrong_pos``, summed as the engines sum it."""
    sums = RegretSums(MASTER, (0,), cfg.horizon, curve=True)
    sums.add(wrong_pos, np.full((len(wrong_pos), 1), abs(float(cfg.theta[0] - cfg.theta[1]))))
    return sums.curve()


# Horizons from a handful of rounds, with few or no B rounds, to the
# acceptance scale.
ORACLE_HORIZONS = (4, 37, 400, 4000, 40_000)
POPULATIONS = {"minority": 0.0, "full": 0.95}


class TestTwoBridgeEnginesMatchOracles:
    """The engines against the per-round loops, decision for decision."""

    @pytest.mark.parametrize("horizon", ORACLE_HORIZONS)
    @pytest.mark.parametrize("noise", list(NoiseKind))
    @pytest.mark.parametrize("population", POPULATIONS)
    @pytest.mark.parametrize("policy", ["linucb", "linucb_full", "linucb_minority"])
    def test_linucb_matches_the_per_round_loop(self, horizon, noise, population, policy):
        cfg = TwoBridgeConfig(horizon=horizon, noise=noise, p_majority=POPULATIONS[population])
        params = LinUCBParams.for_two_bridge(horizon)
        inject = 0.95 if policy == "linucb_full" else 0.0
        for rep in range(3):
            (_, b_pos, top_inc, bot_inc, seg_top, seg_bot, cand_top, cand_bot, _) = _two_bridge_draws(
                cfg, MASTER, rep, inject
            )
            picks_top = linucb_picks_per_round(
                np.cumsum(top_inc), np.cumsum(bot_inc), seg_top, seg_bot, cand_top, cand_bot, params
            )
            wrong_pos = b_pos[picks_top != (cfg.theta[0] > cfg.theta[1])]
            sums, res = _run(run_two_bridge_policy, cfg, _rounds(cfg, rep), policy, MASTER, rep, reps=(rep,), horizon=horizon)
            assert (res.b_rounds, res.wrong_b_rounds) == (b_pos.size, wrong_pos.size)
            np.testing.assert_array_equal(sums.curve(), _wrong_curve(cfg, wrong_pos))
            assert sums.total[0] == sums.curve()[-1]

    @pytest.mark.parametrize("horizon", ORACLE_HORIZONS)
    @pytest.mark.parametrize("noise", list(NoiseKind))
    @pytest.mark.parametrize("population", POPULATIONS)
    def test_linucb_full_decides_on_the_replayed_draws(self, horizon, noise, population, monkeypatch):
        # linucb_full's picks rarely depend on its injected counts, so compare
        # what it decides on with the oracle's replay of its streams.
        seen = []

        def record(*args):
            seen.append(args[:6])
            return linucb_picks_top(*args)

        monkeypatch.setattr(engines, "linucb_picks_top", record)
        cfg = TwoBridgeConfig(horizon=horizon, noise=noise, p_majority=POPULATIONS[population])
        for rep in range(3):
            _run(run_two_bridge_policy, cfg, _rounds(cfg, rep), "linucb_full", MASTER, rep, reps=(rep,), horizon=horizon)
            (_, _, top_inc, bot_inc, *draws, _) = _two_bridge_draws(cfg, MASTER, rep, 0.95)
            for got, want in zip(seen.pop(), (np.cumsum(top_inc), np.cumsum(bot_inc), *draws), strict=True):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("horizon", ORACLE_HORIZONS)
    @pytest.mark.parametrize("noise", list(NoiseKind))
    @pytest.mark.parametrize("population", POPULATIONS)
    @pytest.mark.parametrize("batch", ["one", "horizon"])
    def test_batch_freq_matches_the_per_batch_loop(self, horizon, noise, population, batch):
        cfg = TwoBridgeConfig(horizon=horizon, noise=noise, p_majority=POPULATIONS[population])
        batch_size = 1 if batch == "one" else horizon
        # One replicate: with one round per batch, the generic loop solves
        # least squares in every round.
        rep = horizon % 3
        wrong_pos, n_b = reference_two_bridge_batch_freq(cfg, MASTER, rep, batch_size)
        sums, res = _run(run_two_bridge_batch_freq, cfg, _rounds(cfg, rep), MASTER, rep, batch_size, reps=(rep,), horizon=horizon)
        assert (res.b_rounds, res.wrong_b_rounds) == (n_b, wrong_pos.size)
        np.testing.assert_array_equal(sums.curve(), _wrong_curve(cfg, wrong_pos))

    @pytest.mark.parametrize("noise", list(NoiseKind))
    @pytest.mark.parametrize("p_majority", [0.95, 0.5])
    @pytest.mark.parametrize("batch_size", [2, 7, 30])
    @pytest.mark.parametrize("window", [1, 3, engines.STRETCH_BATCHES])
    def test_batch_freq_switching_often_matches_the_per_batch_loop(self, noise, p_majority, batch_size, window,
                                                                   monkeypatch):
        # A full population leaves the bottom bridge few pulls, and an even
        # one feeds both bridges alike, so the estimates swing and the picks
        # switch often: stretches end early, rewind the reward stream and
        # redraw their pick sums, and small windows also run stretches that
        # outlast their window.
        monkeypatch.setattr(engines, "STRETCH_BATCHES", window)
        cfg = TwoBridgeConfig(horizon=3000, noise=noise, p_majority=p_majority)
        switches = []
        for rep in range(4):
            sides = []
            wrong_pos, n_b = reference_two_bridge_batch_freq(cfg, MASTER, rep, batch_size, sides)
            switches.append(int(np.sum(np.diff(sides) != 0)))
            sums, res = _run(run_two_bridge_batch_freq, cfg, _rounds(cfg, rep), MASTER, rep, batch_size,
                             reps=(rep,), horizon=cfg.horizon)
            assert (res.b_rounds, res.wrong_b_rounds) == (n_b, wrong_pos.size)
            np.testing.assert_array_equal(sums.curve(), _wrong_curve(cfg, wrong_pos))
            assert sums.total[0] == sums.curve()[-1]
        assert max(switches) >= 3

    @pytest.mark.parametrize("horizon", ORACLE_HORIZONS[:-1])
    @pytest.mark.parametrize("noise", list(NoiseKind))
    @pytest.mark.parametrize("population", POPULATIONS)
    @pytest.mark.parametrize(
        "policy", ["linucb", "linucb_full", "linucb_minority", "uniform_random", "oracle", "batch_freq_greedy"]
    )
    def test_rounds_drawn_longer_give_the_same_cell(self, horizon, noise, population, policy, monkeypatch):
        # A job draws a replicate's round kinds once at its longest horizon;
        # each shorter cell must match a run on kinds drawn at its own, down
        # to what LinUCB decides on (linucb_full's injected counts continue
        # the CONTEXTS stream after the cell's own rounds).
        seen = []

        def record(*args):
            seen.append(args[:6])
            return linucb_picks_top(*args)

        monkeypatch.setattr(engines, "linucb_picks_top", record)
        cfg = TwoBridgeConfig(horizon=horizon, noise=noise, p_majority=POPULATIONS[population])
        for rep in range(3):
            longer = two_bridge_rounds(dataclasses.replace(cfg, horizon=ORACLE_HORIZONS[-1]), MASTER, rep)
            runs = []
            for rounds in (_rounds(cfg, rep), longer):
                if policy == "batch_freq_greedy":
                    sums, res = _run(run_two_bridge_batch_freq, cfg, rounds, MASTER, rep, 7, reps=(rep,), horizon=horizon)
                else:
                    sums, res = _run(run_two_bridge_policy, cfg, rounds, policy, MASTER, rep, reps=(rep,), horizon=horizon)
                runs.append((res, float(sums.total[0]), float(sums.restricted[0]), sums.curve()))
            (own, own_total, own_restricted, own_curve), (cut, cut_total, cut_restricted, cut_curve) = runs
            assert (own.b_rounds, own.wrong_b_rounds) == (cut.b_rounds, cut.wrong_b_rounds)
            assert (own_total, own_restricted) == (cut_total, cut_restricted)
            np.testing.assert_array_equal(own_curve, cut_curve)
            if seen:
                for got, want in zip(seen.pop(), seen.pop(), strict=True):
                    np.testing.assert_array_equal(got, want)


def _synthetic_draws(seed, n_b, max_inc, zero_share, noise):
    """Forced-pull counts and reward draws built to make LinUCB switch often.

    Increments are mostly 0 or small, so a bridge's count grows mainly by its
    picks; Bernoulli draws make exact ties between the bounds common.
    """
    rng = np.random.default_rng(seed)
    top_inc, bot_inc = (np.where(rng.random(n_b) < zero_share, 0, rng.integers(1, max_inc + 1, n_b))
                        for _ in range(2))
    if noise is NoiseKind.BERNOULLI:
        seg_top, seg_bot = rng.binomial(top_inc, 0.5).astype(float), rng.binomial(bot_inc, 0.45).astype(float)
        cand_top, cand_bot = rng.binomial(1, 0.5, n_b).astype(float), rng.binomial(1, 0.45, n_b).astype(float)
    else:
        seg_top, seg_bot = rng.normal(0.5 * top_inc, np.sqrt(top_inc)), rng.normal(0.45 * bot_inc, np.sqrt(bot_inc))
        cand_top, cand_bot = rng.normal(0.5, 1.0, n_b), rng.normal(0.45, 1.0, n_b)
    return np.cumsum(top_inc), np.cumsum(bot_inc), seg_top, seg_bot, cand_top, cand_bot


class TestLinUCBStretches:
    @PROPERTY
    @given(seed=SEEDS, n_b=st.integers(0, 700), max_inc=st.sampled_from([1, 3, 40]),
           zero_share=st.sampled_from([0.0, 0.5, 0.9, 1.0]), noise=st.sampled_from(list(NoiseKind)),
           horizon=st.sampled_from([10, 1000, 160_000]))
    def test_stretch_picks_equal_the_per_round_loop(self, seed, n_b, max_inc, zero_share, noise, horizon):
        draws = _synthetic_draws(seed, n_b, max_inc, zero_share, noise)
        params = LinUCBParams.for_two_bridge(horizon)
        picks = linucb_picks_top(*draws, params)
        assert picks.dtype == bool
        assert picks.tolist() == linucb_picks_per_round(*draws, params).tolist()

    @pytest.mark.parametrize("horizon", [10, 1000])
    def test_synthetic_draws_switch_often(self, horizon):
        # The property above is only as strong as the switches it sees.  On
        # some of these Bernoulli draws one ulp more in a pick reward changes a
        # pick, which the property's few examples rarely reach.
        params = LinUCBParams.for_two_bridge(horizon)
        for seed in range(20):
            for noise in NoiseKind:
                draws = _synthetic_draws(seed, 600, 1, 0.9, noise)
                picks = linucb_picks_per_round(*draws, params)
                assert np.count_nonzero(np.diff(picks)) > 100
                assert picks.tolist() == linucb_picks_top(*draws, params).tolist()


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


def _greedy_cell(cat, prior, thetas, horizon, batch_size, master_seed, reps, acting="freq", keep_rows=False,
                 **kwargs):
    """The lockstep batched greedy engine on one cell of the block ``reps``,
    through ``_run``; the cell's sums and its results, one per replicate."""
    def one_cell(sums):
        [results] = run_perturbed_batch_greedy(
            cat, prior, [GreedyCell(horizon, acting, sums)], thetas, horizon, batch_size, master_seed, reps,
            keep_rows=keep_rows,
        )
        return results

    return _run(one_cell, reps=reps, horizon=horizon, **kwargs)


def _greedy_one(cat, prior, theta, horizon, batch_size, master_seed, replicate, **kwargs):
    """The lockstep batched greedy engine on one cell of a block of one replicate."""
    sums, [res] = _greedy_cell(cat, prior, [theta], horizon, batch_size, master_seed, (replicate,), **kwargs)
    return sums, res


class TestPerturbedGreedyEngine:
    @pytest.mark.parametrize("acting", ["freq", "bayes"])
    @pytest.mark.parametrize("two_group", [False, True])
    def test_matches_per_round_reference(self, acting, two_group):
        cfg = _two_group_catalog() if two_group else _one_group_catalog()
        # The horizon reaches the first probe round, inside a warm batch.
        horizon = 1050
        kwargs = dict(
            theta=THETA, horizon=horizon, batch_size=150, master_seed=MASTER, replicate=1, acting=acting,
        )
        sums, res = _greedy_one(cfg, PRIOR, **kwargs)
        total, minority, pred, allowance, probes = reference_perturbed_greedy(
            cfg, PRIOR_MEAN, PRIOR_COV, **kwargs,
            context_bound=context_norm_bound(cfg.rho, cfg.dim, horizon, cfg.n_actions),
            probe_rounds=GAP_PROBE_ROUNDS,
        )
        assert sums.total[0] == total
        assert sums.restricted[0] == minority
        assert res.regret_prediction == pred
        assert res.gap_allowance == pytest.approx(allowance, abs=1e-9)
        assert set(res.probe_values) == {1000}
        assert res.probe_values[1000] > 0.0
        for p, v in probes.items():
            assert res.probe_values[p] == pytest.approx(v, abs=1e-9)

    @pytest.mark.parametrize("two_group", [False, True])
    def test_bayes_acting_predicts_its_own_actions(self, two_group):
        # The prediction rule is greedy on the posterior mean, which is the
        # acting estimate of the Bayesian policy.
        cfg = _two_group_catalog() if two_group else _one_group_catalog()
        sums, res = _greedy_one(
            cfg, PRIOR, THETA,
            horizon=600, batch_size=100, master_seed=MASTER, replicate=5, acting="bayes",
        )
        assert res.regret_prediction == sums.total[0]
        assert sums.total[0] > 0.0

    def test_first_batch_uses_prior(self):
        # Exact catalog contexts (rho = 0): the prior favours the second
        # slot, and the first batch acts on the prior whatever its data.
        cfg = _fixed_pair_catalog()
        sums, res = _greedy_one(
            cfg, gaussian_prior(np.array([0.2, 0.9]), np.eye(2)), np.array([0.5, 0.4]),
            horizon=200, batch_size=200, master_seed=MASTER, replicate=0,
            acting="bayes", keep_rows=True,
        )
        np.testing.assert_array_equal(res.chosen_rows, np.tile(BOTTOM, (200, 1)))
        assert sums.total[0] == pytest.approx(200 * 0.1)

    def test_prediction_comes_from_bayes_estimate(self):
        # In the cold batch the frequentist policy picks at random, while the
        # prediction is greedy on the prior mean, here always the worse slot.
        cfg = _fixed_pair_catalog()
        sums, res = _greedy_one(
            cfg, gaussian_prior(np.array([0.0, 5.0]), 0.01 * np.eye(2)), np.array([0.5, 0.4]),
            horizon=300, batch_size=300, master_seed=MASTER, replicate=1, acting="freq",
        )
        assert res.regret_prediction == pytest.approx(300 * 0.1)
        assert 0.0 < sums.total[0] < res.regret_prediction

    def test_freq_cold_start_is_uniform(self):
        cfg = _fixed_pair_catalog()
        n = 4000
        _, res = _greedy_one(
            cfg, PRIOR, np.array([0.5, 0.4]),
            horizon=n, batch_size=n, master_seed=MASTER, replicate=2, keep_rows=True,
        )
        top_rate = float(np.mean(res.chosen_rows[:, 0] == 1.0))
        assert top_rate == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(n))

    def test_freq_warm_acts_greedily(self):
        cfg = _fixed_pair_catalog()
        _, res = _greedy_one(
            cfg, PRIOR, np.array([1.0, -1.0]),
            horizon=400, batch_size=200, master_seed=MASTER, replicate=3, keep_rows=True,
        )
        np.testing.assert_array_equal(res.chosen_rows[200:], np.tile(TOP, (200, 1)))

    @pytest.mark.parametrize("acting", ["freq", "bayes"])
    def test_estimate_frozen_within_batch(self, acting):
        # With identical contexts in every round, a frozen estimate makes
        # the same pick for a whole batch.
        cfg = _fixed_pair_catalog()
        batch_size = 25
        _, res = _greedy_one(
            cfg, PRIOR, np.array([0.5, 0.45]),
            horizon=1000, batch_size=batch_size, master_seed=MASTER, replicate=4,
            acting=acting, keep_rows=True,
        )
        first = 1 if acting == "freq" else 0  # the cold frequentist batch is random
        batches = res.chosen_rows.reshape(-1, batch_size, 2)[first:]
        assert np.all(batches == batches[:, :1])

    @pytest.mark.parametrize("acting", ["freq", "bayes"])
    def test_first_batch_gap_allowance(self, acting):
        # Before any data the frequentist estimate is zero and the Bayesian
        # one is the prior mean, for every round of the first batch, whichever
        # estimate acts.
        cat = _one_group_catalog()
        _, res = _greedy_one(
            cat, PRIOR, THETA,
            horizon=150, batch_size=150, master_seed=MASTER, replicate=0, acting=acting,
        )
        bound = context_norm_bound(cat.rho, 2, 150, 2)
        assert res.gap_allowance == pytest.approx(2 * bound * np.linalg.norm(PRIOR_MEAN) * 150)

    @pytest.mark.parametrize("acting", ["Bayes", "ols", ""])
    def test_unknown_acting_is_rejected(self, acting):
        # Any value but "freq" and "bayes" used to run a third policy: greedy
        # on least squares without the cold random first batch.
        with pytest.raises(ValueError, match=f"not {acting!r}"):
            _greedy_one(
                _one_group_catalog(), PRIOR, THETA,
                horizon=100, batch_size=50, master_seed=MASTER, replicate=0, acting=acting,
            )

    def test_one_group_minority_regret_is_zero(self):
        sums, _ = _greedy_one(
            _one_group_catalog(), PRIOR, THETA,
            horizon=600, batch_size=200, master_seed=MASTER, replicate=0,
        )
        assert sums.restricted[0] == 0.0
        assert sums.total[0] > 0.0

    def test_probe_uses_frozen_batch_boundary(self):
        _, res = _greedy_one(
            _one_group_catalog(), PRIOR, THETA,
            horizon=8000, batch_size=8000, master_seed=MASTER, replicate=0,
        )
        # Both probe rounds fall in the cold batch: frozen data size is zero,
        # so the probe values must vanish regardless of the estimate distance.
        assert GAP_PROBE_ROUNDS == (1000, 8000)
        assert res.probe_values == {1000: 0.0, 8000: 0.0}
        assert res.gap_allowance > 0.0

    def test_no_probe_beyond_the_horizon(self):
        _, res = _greedy_one(
            _one_group_catalog(), PRIOR, THETA,
            horizon=999, batch_size=100, master_seed=MASTER, replicate=0,
        )
        assert res.probe_values == {}

    def test_lambda_curve_matches_eigendecomposition(self):
        _, res = _greedy_one(
            _one_group_catalog(), PRIOR, THETA,
            horizon=300, batch_size=100, master_seed=MASTER, replicate=2, keep_rows=True,
        )
        curve = _lambda_min_curve(res.chosen_rows)
        gram = np.zeros((2, 2))
        for t, row in enumerate(res.chosen_rows):
            gram += np.outer(row, row)
            lam = np.linalg.eigvalsh(gram)[0]
            assert curve[t] == pytest.approx(lam, abs=1e-8)

    def test_coin_restriction_identity(self):
        cfg = _two_group_catalog()
        kwargs = dict(
            prior=PRIOR, theta=THETA, horizon=600, batch_size=150, master_seed=MASTER, replicate=4,
        )
        base, _ = _greedy_one(cfg, **kwargs)
        coin, _ = _greedy_one(cfg, restriction="coin", restriction_p=0.25, **kwargs)
        assert coin.total[0] == pytest.approx(base.total[0])
        np.testing.assert_allclose(coin.curve(), base.curve())
        coins = _coins(MASTER, 4, 600, 0.25)
        increments = np.diff(base.curve(), prepend=0.0)
        assert coin.restricted[0] == pytest.approx(
            float(increments[coins].sum()), abs=1e-9
        )


# Not a multiple of the batch and past both probe rounds; the replicates are
# out of order, with gaps, and split into blocks of 3 and 8 with a ragged end.
GREEDY_HORIZON = GAP_PROBE_ROUNDS[1] + 70
GREEDY_BATCH = 150
GREEDY_REPLICATES = (5, 0, 2, 9, 13, 4, 21, 7, 30, 11)
# (two-group catalog, restriction): the two-group catalog draws two uniforms per round.
GREEDY_CASES = [(False, "minority"), (True, "minority"), (True, "coin")]


def _greedy_thetas(replicates):
    return np.array([THETA + 0.2 * stream(MASTER, rep, Purpose.THETA).standard_normal(2) for rep in replicates])


@functools.lru_cache(maxsize=None)
def _single_replicate_greedy_runs(acting: str, two_group: bool, restriction: str) -> tuple:
    """(sums, result) of the single-replicate loop on each of GREEDY_REPLICATES."""
    cfg = _two_group_catalog() if two_group else _one_group_catalog()
    return tuple(
        _run(
            single_replicate_greedy, cfg, PRIOR, theta, GREEDY_HORIZON, GREEDY_BATCH, MASTER, rep,
            reps=(rep,), horizon=GREEDY_HORIZON, restriction=restriction, acting=acting, keep_rows=True,
        )
        for rep, theta in zip(GREEDY_REPLICATES, _greedy_thetas(GREEDY_REPLICATES))
    )


def _assert_same_run(sums, i, res, expected, keeps_curve: bool) -> None:
    """Column ``i`` of ``sums`` and ``res`` against a single-replicate loop's
    (sums, result), bit for bit; only the first replicate of a block keeps
    its curve."""
    want_sums, want = expected
    assert sums.total[i] == want_sums.total[0]
    assert sums.restricted[i] == want_sums.restricted[0]
    assert res.regret_prediction == want.regret_prediction
    assert res.gap_allowance == want.gap_allowance
    assert res.probe_values == want.probe_values
    assert np.array_equal(res.chosen_rows, want.chosen_rows)
    if keeps_curve:
        assert np.array_equal(sums.curve(), want_sums.curve())
        assert sums.curve()[-1] == sums.total[0]


class TestPerturbedGreedyLockstep:
    @pytest.mark.parametrize("acting", ["freq", "bayes"])
    @pytest.mark.parametrize("block", [1, 3, 8])
    @pytest.mark.parametrize("two_group, restriction", GREEDY_CASES)
    def test_lockstep_is_bit_identical_to_single_replicate_loop(self, acting, block, two_group, restriction):
        assert GREEDY_HORIZON % GREEDY_BATCH != 0
        assert len(GREEDY_REPLICATES) % block or block == 1  # a ragged last block
        cfg = _two_group_catalog() if two_group else _one_group_catalog()
        thetas = _greedy_thetas(GREEDY_REPLICATES)
        results = []
        for first in range(0, len(GREEDY_REPLICATES), block):
            reps = GREEDY_REPLICATES[first:first + block]
            sums, block_results = _greedy_cell(
                cfg, PRIOR, thetas[first:first + block], GREEDY_HORIZON, GREEDY_BATCH, MASTER, reps,
                restriction=restriction, acting=acting, keep_rows=True,
            )
            results += [(sums, i, res) for i, res in enumerate(block_results)]
        expected = _single_replicate_greedy_runs(acting, two_group, restriction)
        assert len(results) == len(expected)
        for (sums, i, res), want in zip(results, expected):
            assert set(res.probe_values) == set(GAP_PROBE_ROUNDS)
            _assert_same_run(sums, i, res, want, keeps_curve=i == 0)


# Both acting rules at three horizons: a multiple of the batch past the first
# probe round, one that ends inside the batch holding that round, and one
# shorter than a batch.  The second
# layout lists the rules in the other order and gives the frequentist rule no
# cell at the longest horizon.
MULTI_BATCH = 150
MULTI_REPLICATES = (0, 7, 3)
MULTI_LAYOUTS = {
    "both_rules_every_horizon": [(a, t) for a in ("freq", "bayes") for t in (1050, 990, 100)],
    "freq_ends_first": [("bayes", 1050), ("freq", 990), ("freq", 100), ("bayes", 100)],
}


def _assert_same_cell(sums, results, want_sums, want_results) -> None:
    """A cell's sums and results against another call's, bit for bit."""
    assert np.array_equal(sums.total, want_sums.total)
    assert np.array_equal(sums.restricted, want_sums.restricted)
    assert np.array_equal(sums.curve(), want_sums.curve())
    assert len(results) == len(want_results)
    for res, want in zip(results, want_results):
        assert res.regret_prediction == want.regret_prediction
        assert res.gap_allowance == want.gap_allowance
        assert res.probe_values == want.probe_values
        assert np.array_equal(res.chosen_rows, want.chosen_rows)


class TestPerturbedGreedyCells:
    @pytest.mark.parametrize("layout", sorted(MULTI_LAYOUTS))
    @pytest.mark.parametrize("two_group, restriction", GREEDY_CASES)
    def test_one_pass_equals_one_call_per_cell(self, layout, two_group, restriction):
        cfg = _two_group_catalog() if two_group else _one_group_catalog()
        thetas = _greedy_thetas(MULTI_REPLICATES)
        horizons = [t for _, t in MULTI_LAYOUTS[layout]]
        assert any(t % MULTI_BATCH for t in horizons) and min(horizons) < MULTI_BATCH
        cells = [
            GreedyCell(t, acting, _curve_sums(MULTI_REPLICATES, t, restriction=restriction))
            for acting, t in MULTI_LAYOUTS[layout]
        ]
        results = run_perturbed_batch_greedy(
            cfg, PRIOR, cells, thetas, max(horizons), MULTI_BATCH, MASTER, MULTI_REPLICATES, keep_rows=True,
        )
        assert len(results) == len(cells)
        for cell, cell_results in zip(cells, results):
            alone = _greedy_cell(
                cfg, PRIOR, thetas, cell.horizon, MULTI_BATCH, MASTER, MULTI_REPLICATES,
                restriction=restriction, acting=cell.acting, keep_rows=True,
            )
            _assert_same_cell(cell.sums, cell_results, *alone)
            for i, (rep, theta, res) in enumerate(zip(MULTI_REPLICATES, thetas, cell_results)):
                want = _run(
                    single_replicate_greedy, cfg, PRIOR, theta, cell.horizon, MULTI_BATCH, MASTER, rep,
                    reps=(rep,), horizon=cell.horizon, restriction=restriction, acting=cell.acting,
                    keep_rows=True,
                )
                _assert_same_run(cell.sums, i, res, want, keeps_curve=i == 0)
            assert set(cell_results[0].probe_values) == ({1000} if cell.horizon >= 1000 else set())

    def test_horizon_is_the_longest_cell(self):
        cfg = _one_group_catalog()
        cells = [GreedyCell(t, "freq", _curve_sums((0,), t)) for t in (100, 200)]
        for horizon in (100, 150, 300):
            with pytest.raises(ValueError, match="longest cell horizon"):
                run_perturbed_batch_greedy(cfg, PRIOR, cells, [THETA], horizon, 50, MASTER, (0,))
        with pytest.raises(ValueError, match="longest cell horizon"):
            run_perturbed_batch_greedy(cfg, PRIOR, [], [THETA], 100, 50, MASTER, (0,))

    def test_unknown_acting_in_any_cell_is_rejected(self):
        cells = [GreedyCell(100, "freq", _curve_sums((0,), 100)), GreedyCell(50, "ols", _curve_sums((0,), 50))]
        with pytest.raises(ValueError, match="not 'ols'"):
            run_perturbed_batch_greedy(_one_group_catalog(), PRIOR, cells, [THETA], 100, 50, MASTER, (0,))


def _nearly_planar_catalog() -> Catalog:
    """Exact contexts in d = 3: the first two entries offer three contexts in
    one plane (p2 = p0 - p1 exactly), the rarer third entry two off it."""
    p0, p1 = [0.5, 0.25, 0.125], [0.25, 0.5, 0.375]
    p2 = [0.25, -0.25, -0.25]
    means = [[p0, p1], [p1, p2], [[0.2, -0.3, 0.6], [-0.4, 0.1, 0.5]]]
    return Catalog(means, np.ones((3, 2), dtype=bool), [1.0, 1.0, 0.25], [False] * 3, rho=0.0)


class TestGreedySingularFallback:
    # With a batch of one the Gram matrices start rank-deficient; replicate 36
    # picks only in-plane contexts and stays singular, its neighbours do not.
    REPLICATES = (36, 37, 38, 39)
    HORIZON = 12

    @pytest.mark.parametrize("acting", ["freq", "bayes"])
    def test_singular_member_matches_single_replicate_loop(self, acting, monkeypatch):
        cat = _nearly_planar_catalog()
        prior = gaussian_prior(np.array([0.1, 0.2, -0.1]), np.eye(3))
        theta = np.array([0.6, -0.4, 0.3])
        n = len(self.REPLICATES)
        # Each stacked factorization opens a solve; its members' own
        # factorizations and pseudo-inverses follow it.
        solves = []
        cholesky, eigh = np.linalg.cholesky, np.linalg.eigh

        def spy_cholesky(M):
            try:
                c = cholesky(M)
            except np.linalg.LinAlgError:
                outcome = "raise"
                raise
            else:
                outcome = "ok"
                return c
            finally:
                if np.shape(M) == (n, 3, 3):
                    solves.append([outcome])
                else:
                    solves[-1].append(outcome)

        def spy_eigh(M):
            solves[-1].append("eigh")
            return eigh(M)

        monkeypatch.setattr(np.linalg, "cholesky", spy_cholesky)
        monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
        sums, results = _greedy_cell(
            cat, prior, np.tile(theta, (n, 1)), self.HORIZON, 1, MASTER, self.REPLICATES,
            acting=acting, keep_rows=True,
        )
        monkeypatch.undo()

        # A stacked factorization failed while a member's own succeeded, and
        # another succeeded with one member at or below the pivot cutoff.
        assert any(s[0] == "raise" and "ok" in s[1:] for s in solves)
        assert any(s[0] == "ok" and s.count("eigh") == 1 for s in solves)
        ranks = [int(np.linalg.matrix_rank(res.chosen_rows.T @ res.chosen_rows)) for res in results]
        assert ranks == [2, 3, 3, 3]
        for i, (res, rep) in enumerate(zip(results, self.REPLICATES)):
            want = _run(
                single_replicate_greedy, cat, prior, theta, self.HORIZON, 1, MASTER, rep,
                reps=(rep,), horizon=self.HORIZON, acting=acting, keep_rows=True,
            )
            _assert_same_run(sums, i, res, want, keeps_curve=i == 0)


def _linucb_one(cfg, params, theta, horizon, replicate, **kwargs):
    """The lockstep engine on one cell of one replicate, through ``_run``; its sums."""
    def one_cell(sums):
        return run_perturbed_linucb(cfg, [LinUCBCell(horizon, params, sums)], [theta], horizon, MASTER, (replicate,))

    sums, _ = _run(one_cell, reps=(replicate,), horizon=horizon, **kwargs)
    return sums


# Not a multiple of the noise chunk, with refreshes in both chunks and a
# refresh period that straddles the chunk boundary.
LOCKSTEP_HORIZON = NOISE_CHUNK + 40
LOCKSTEP_REFRESH = NOISE_CHUNK // 3 + 1
LOCKSTEP_REPLICATES = tuple(range(7))
# The cells of one lockstep call: one ends on a refresh round inside the first
# chunk, one is LOCKSTEP_HORIZON and ends inside a refresh period, and one ends
# on a chunk boundary, also inside a refresh period.
LOCKSTEP_CELLS = (2 * LOCKSTEP_REFRESH, LOCKSTEP_HORIZON, 2 * NOISE_CHUNK)


def _lockstep_params(cfg, horizon):
    return LinUCBParams.for_perturbed(d=2, n_actions=2, horizon=horizon, rho=cfg.rho, prior_norm=PRIOR_NORM)


def _lockstep_thetas():
    return np.array([
        THETA + 0.2 * stream(MASTER, rep, Purpose.THETA).standard_normal(2)
        for rep in LOCKSTEP_REPLICATES
    ])


@functools.lru_cache(maxsize=None)
def _single_replicate_runs(two_group: bool, restriction: str, horizon: int) -> tuple:
    cfg = _two_group_catalog() if two_group else _one_group_catalog()
    return tuple(
        single_replicate_linucb(
            cfg, _lockstep_params(cfg, horizon), theta, horizon, MASTER, rep,
            refresh_every=LOCKSTEP_REFRESH, restriction=restriction,
        )
        for rep, theta in zip(LOCKSTEP_REPLICATES, _lockstep_thetas())
    )


class TestPerturbedLinUCBEngine:
    @pytest.mark.parametrize("block", [1, 2, 5])
    @pytest.mark.parametrize("two_group", [False, True])
    @pytest.mark.parametrize("restriction", ["minority", "coin"])
    def test_lockstep_is_bit_identical_to_single_replicate_loop(self, block, two_group, restriction, monkeypatch):
        short, mid, long = LOCKSTEP_CELLS
        assert short % LOCKSTEP_REFRESH == 0 and short < NOISE_CHUNK
        assert mid % NOISE_CHUNK and mid % LOCKSTEP_REFRESH
        assert long % NOISE_CHUNK == 0 and long % LOCKSTEP_REFRESH
        refreshes = range(LOCKSTEP_REFRESH, LOCKSTEP_HORIZON + 1, LOCKSTEP_REFRESH)
        assert {t // NOISE_CHUNK for t in refreshes} == {0, 1}
        assert len(LOCKSTEP_REPLICATES) % block or block == 1  # a ragged last block

        cfg = _two_group_catalog() if two_group else _one_group_catalog()
        thetas = _lockstep_thetas()
        monkeypatch.setattr(engines, "REFRESH_EVERY", LOCKSTEP_REFRESH)
        # The cells go in out of horizon order; results come back per cell.
        order = (mid, long, short)
        columns = {t: [] for t in order}
        for first in range(0, len(LOCKSTEP_REPLICATES), block):
            reps = LOCKSTEP_REPLICATES[first:first + block]
            cells = [
                LinUCBCell(t, _lockstep_params(cfg, t), _curve_sums(reps, t, restriction=restriction))
                for t in order
            ]
            assert run_perturbed_linucb(cfg, cells, thetas[first:first + block], long, MASTER, reps) is None
            for cell in cells:
                columns[cell.horizon] += [(cell.sums, i) for i in range(len(reps))]
        for t in order:
            expected = _single_replicate_runs(two_group, restriction, t)
            assert len(columns[t]) == len(expected)
            for (sums, i), (total, minority, curve) in zip(columns[t], expected):
                assert sums.total[i] == total
                assert sums.restricted[i] == minority
                # Only the first replicate of a block keeps its cell's curve.
                if i == 0:
                    assert np.array_equal(sums.curve(), curve)
                    assert sums.curve()[-1] == sums.total[0]

    def test_gram_fold_adds_rounds_in_order(self):
        # Regret reads only the decisions, which rarely turn on the last bits
        # of Z, so the fold is held to the per-round sum directly.
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((4, 3, 3)) * 1e3
        rows = rng.standard_normal((50, 4, 3)) * np.logspace(-3, 3, 50)[:, None, None]
        expected = Z.copy()
        for r in rows:
            expected += r[:, :, None] * r[:, None, :]
        assert np.array_equal(engines._fold_outer(Z, rows), expected)
        # Summing the rounds first rounds differently on these inputs.
        assert not np.array_equal(Z + (rows[..., :, None] * rows[..., None, :]).sum(axis=0), expected)

    def test_horizon_is_the_longest_cell(self):
        cfg = _one_group_catalog()
        cells = [LinUCBCell(t, _lockstep_params(cfg, t), _curve_sums((0,), t)) for t in (100, 200)]
        for horizon in (100, 150, 300):
            with pytest.raises(ValueError, match="longest cell horizon"):
                run_perturbed_linucb(cfg, cells, [THETA], horizon, MASTER, (0,))
        with pytest.raises(ValueError, match="longest cell horizon"):
            run_perturbed_linucb(cfg, [], [THETA], 100, MASTER, (0,))

    @pytest.mark.parametrize("two_group", [False, True])
    def test_shorter_cell_is_a_prefix(self, two_group):
        # Both cells read one replicate's draws, so the shorter row plays the
        # first rounds of the longer one.
        cfg = _two_group_catalog() if two_group else _one_group_catalog()
        params = _lockstep_params(cfg, 600)
        short, long = cells = [LinUCBCell(t, params, _curve_sums((0,), t)) for t in (300, 600)]
        run_perturbed_linucb(cfg, cells, [THETA], 600, MASTER, (0,))
        assert short.sums.total[0] == long.sums.curve()[299]
        assert np.array_equal(short.sums.curve(), long.sums.curve()[:300])

    @pytest.mark.parametrize("two_group", [False, True])
    def test_matches_direct_inverse_reference(self, two_group):
        cfg = _two_group_catalog() if two_group else _one_group_catalog()
        horizon = 400
        params = LinUCBParams.for_perturbed(
            d=2, n_actions=2, horizon=horizon, rho=cfg.rho, prior_norm=PRIOR_NORM
        )
        sums = _linucb_one(cfg, params, THETA, horizon, 1)
        total, minority = reference_perturbed_linucb(cfg, params, THETA, horizon, MASTER, 1)
        assert sums.total[0] == pytest.approx(total, abs=1e-9)
        assert sums.restricted[0] == pytest.approx(minority, abs=1e-9)

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
        monkeypatch.setattr(engines, "REFRESH_EVERY", LOCKSTEP_REFRESH)
        run_perturbed_linucb(
            cfg, [LinUCBCell(LOCKSTEP_HORIZON, params, _curve_sums(LOCKSTEP_REPLICATES[:2], LOCKSTEP_HORIZON))],
            _lockstep_thetas()[:2], LOCKSTEP_HORIZON, MASTER, LOCKSTEP_REPLICATES[:2],
        )
        assert LOCKSTEP_HORIZON > NOISE_CHUNK
        assert calls == [(2, 2, 2)] * (LOCKSTEP_HORIZON // LOCKSTEP_REFRESH)

    def test_cached_inverse_matches_per_round_refresh(self, monkeypatch):
        cfg = _one_group_catalog()
        horizon = 3000
        params = LinUCBParams.for_perturbed(
            d=2, n_actions=2, horizon=horizon, rho=cfg.rho, prior_norm=PRIOR_NORM
        )
        cached = _linucb_one(cfg, params, THETA, horizon, 2)
        monkeypatch.setattr(engines, "REFRESH_EVERY", 1)
        exact = _linucb_one(cfg, params, THETA, horizon, 2)
        assert cached.total[0] == pytest.approx(exact.total[0], abs=1e-9)

    @pytest.mark.parametrize("two_group", [False, True])
    def test_regret_sums(self, two_group):
        cfg = _two_group_catalog() if two_group else _one_group_catalog()
        horizon = 300
        params = LinUCBParams.for_perturbed(
            d=2, n_actions=2, horizon=horizon, rho=cfg.rho, prior_norm=PRIOR_NORM
        )
        sums = _linucb_one(cfg, params, THETA, horizon, 6)
        assert sums.total[0] > 0.0
        assert 0.0 <= sums.restricted[0] <= sums.total[0]
        assert (sums.restricted[0] > 0.0) == two_group
        assert np.all(np.diff(sums.curve()) >= 0.0)

    def test_results_follow_replicate_order(self):
        cfg = _one_group_catalog()
        horizon = 200
        params = LinUCBParams.for_perturbed(
            d=2, n_actions=2, horizon=horizon, rho=cfg.rho, prior_norm=PRIOR_NORM
        )
        thetas = _lockstep_thetas()[[4, 1]]
        pair = _curve_sums((4, 1), horizon)
        run_perturbed_linucb(cfg, [LinUCBCell(horizon, params, pair)], thetas, horizon, MASTER, (4, 1))
        for i, (rep, theta) in enumerate(zip((4, 1), thetas)):
            alone = _linucb_one(cfg, params, theta, horizon, rep)
            assert pair.total[i] == alone.total[0]
        assert pair.total[0] != pair.total[1]

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
        base = _linucb_one(cfg, params, THETA, horizon, 3)
        coin = _linucb_one(cfg, params, THETA, horizon, 3, restriction="coin", restriction_p=0.5)
        assert coin.total[0] == pytest.approx(base.total[0])
        coins = _coins(MASTER, 3, horizon, 0.5)
        increments = np.diff(base.curve(), prepend=0.0)
        assert coin.restricted[0] == pytest.approx(
            float(increments[coins].sum()), abs=1e-9
        )


def _check_invariants(sums, horizon, curve):
    """Regret is nonnegative, restricted within total, and the first curve ends at the total."""
    assert np.all(sums.total >= 0.0)
    assert np.all((0.0 <= sums.restricted) & (sums.restricted <= sums.total))
    if curve:
        assert sums.curve().shape == (horizon,)
        assert np.all(np.diff(sums.curve()) >= 0.0)
        assert sums.curve()[-1] == sums.total[0]
    else:
        assert sums.curve() is None


class TestEngineInvariants:
    @PROPERTY
    @given(horizon=st.integers(4, 2000),
           policy=st.sampled_from(["linucb", "linucb_full", "linucb_minority", "uniform_random", "oracle"]),
           p_majority=st.sampled_from([0.0, 0.95]),
           noise=st.sampled_from(list(NoiseKind)), variant=st.sampled_from(["theta0", "theta1"]),
           seed=SEEDS, replicate=st.integers(0, 50), restriction=RESTRICTIONS, curve=st.booleans())
    def test_two_bridge_policy(self, horizon, policy, p_majority, noise, variant, seed,
                               replicate, restriction, curve):
        cfg = TwoBridgeConfig(horizon=horizon, theta_variant=variant, noise=noise, p_majority=p_majority)
        sums = RegretSums(seed, (replicate,), horizon, restriction, 0.5, curve)
        res = run_two_bridge_policy(cfg, two_bridge_rounds(cfg, seed, replicate), policy, seed, replicate, sums=sums)
        _check_invariants(sums, horizon, curve)
        assert 0 <= res.wrong_b_rounds <= res.b_rounds

    @PROPERTY
    @given(horizon=st.integers(4, 2000), batch_frac=st.floats(0.0, 1.0),
           p_majority=st.sampled_from([0.0, 0.95]), noise=st.sampled_from(list(NoiseKind)),
           seed=SEEDS, replicate=st.integers(0, 50), restriction=RESTRICTIONS, curve=st.booleans())
    def test_two_bridge_batch_freq(self, horizon, batch_frac, p_majority, noise, seed, replicate,
                                   restriction, curve):
        cfg = TwoBridgeConfig(horizon=horizon, noise=noise, p_majority=p_majority)
        batch = 1 + int(batch_frac * (horizon - 1))
        sums = RegretSums(seed, (replicate,), horizon, restriction, 0.5, curve)
        res = run_two_bridge_batch_freq(cfg, two_bridge_rounds(cfg, seed, replicate), seed, replicate, batch, sums=sums)
        _check_invariants(sums, horizon, curve)
        assert 0 <= res.wrong_b_rounds <= res.b_rounds

    @PROPERTY
    @given(horizon=st.integers(2, 300), batch_frac=st.floats(0.0, 1.0), two_group=st.booleans(),
           acting=st.sampled_from(["freq", "bayes"]), seed=SEEDS, first=st.integers(0, 50),
           block=st.integers(1, 3), restriction=RESTRICTIONS, curve=st.booleans())
    def test_perturbed_batch_greedy(self, horizon, batch_frac, two_group, acting, seed, first, block,
                                    restriction, curve):
        cfg = _two_group_catalog() if two_group else _one_group_catalog()
        batch = 1 + int(batch_frac * (horizon - 1))
        reps = tuple(range(first, first + block))
        thetas = np.array([THETA + 0.2 * stream(seed, rep, Purpose.THETA).standard_normal(2) for rep in reps])
        sums = RegretSums(seed, reps, horizon, restriction, 0.5, curve)
        [results] = run_perturbed_batch_greedy(
            cfg, PRIOR, [GreedyCell(horizon, acting, sums)], thetas, horizon, batch, seed, reps,
        )
        assert len(results) == block
        _check_invariants(sums, horizon, curve)
        for i, res in enumerate(results):
            assert res.regret_prediction >= 0.0
            if acting == "bayes":
                assert res.regret_prediction == sums.total[i]

    @PROPERTY
    @given(horizons=st.lists(st.integers(2, 120), min_size=1, max_size=3, unique=True),
           two_group=st.booleans(), seed=SEEDS, first=st.integers(0, 50), block=st.integers(1, 3),
           restriction=RESTRICTIONS, curve=st.booleans())
    def test_perturbed_linucb(self, horizons, two_group, seed, first, block, restriction, curve):
        cfg = _two_group_catalog() if two_group else _one_group_catalog()
        # Widths for a longer horizon: the parameters need one beyond their norm bound.
        params = LinUCBParams.for_perturbed(d=2, n_actions=2, horizon=200, rho=cfg.rho, prior_norm=PRIOR_NORM)
        reps = tuple(range(first, first + block))
        thetas = np.array([THETA + 0.2 * stream(seed, rep, Purpose.THETA).standard_normal(2) for rep in reps])
        cells = [LinUCBCell(t, params, RegretSums(seed, reps, t, restriction, 0.5, curve)) for t in horizons]
        run_perturbed_linucb(cfg, cells, thetas, max(horizons), seed, reps)
        for cell in cells:
            assert cell.sums.total.shape == (block,)
            _check_invariants(cell.sums, cell.horizon, curve)


class TestEntryDraws:
    def test_one_group_table_is_the_normalized_cumsum(self):
        for cat in (_one_group_catalog(), _fixed_pair_catalog()):
            w = cat.weights
            assert np.array_equal(cat.draw_cum, np.cumsum(w / w.sum()))
            assert cat.draw_cum[-1] == 1.0

    def test_last_uniform_picks_the_last_entry(self):
        # Ten equal weights of 0.1 sum to just below 1, so without the pinned
        # last value this uniform maps one past the last entry.
        means = np.full((10, 1, 2), 0.1)
        cat = Catalog(means, np.ones((10, 1), dtype=bool), [0.1] * 10, [False] * 10, rho=0.1)
        assert np.cumsum(cat.weights / cat.weights.sum())[-1] < 1.0
        u = np.array([0.0, 0.5, 1.0 - 2.0**-53])
        assert cat.entries(u).tolist() == [0, 5, 9]
        assert cat.means[cat.entries(u)].shape == (3, 1, 2)

    @pytest.mark.parametrize("two_group", [False, True])
    def test_streamed_draw_continues_the_whole_horizon_draw(self, two_group):
        # The LinUCB engine draws each replicate's uniforms one chunk at a time.
        cat = _two_group_catalog() if two_group else _one_group_catalog()
        horizon = 2 * NOISE_CHUNK + 57
        rng = stream(MASTER, 5, Purpose.CONTEXTS)
        chunks = [
            cat.entries(rng.random(stop - start))
            for start, stop in ((0, NOISE_CHUNK), (NOISE_CHUNK, 2 * NOISE_CHUNK), (2 * NOISE_CHUNK, horizon))
        ]
        whole = draw_entries(cat, horizon, stream(MASTER, 5, Purpose.CONTEXTS))
        np.testing.assert_array_equal(np.concatenate(chunks), whole)

    def test_entry_draw_frequencies(self):
        cat = _one_group_catalog()
        n = 100_000
        idx = cat.entries(np.random.default_rng(0).random(n))
        freq = np.bincount(idx, minlength=3) / n
        for f, w in zip(freq, (0.5, 0.3, 0.2)):
            assert f == pytest.approx(w, abs=3 * math.sqrt(w * (1 - w) / n))

    def test_two_group_draw_respects_minority_rate(self):
        cat = _two_group_catalog()
        n = 100_000
        idx = cat.entries(np.random.default_rng(1).random(n))
        minority_freq = cat.minority[idx].mean()
        assert minority_freq == pytest.approx(0.3, abs=3 * math.sqrt(0.3 * 0.7 / n))
        majority = idx[~cat.minority[idx]]
        freq0 = (majority == 0).mean()
        assert freq0 == pytest.approx(0.6, abs=3 * math.sqrt(0.6 * 0.4 / majority.size))

    @staticmethod
    def _mixed_catalog() -> Catalog:
        """Minority entries interleaved with majority ones, so that the
        minority-only catalog renumbers them."""
        means = np.full((5, 2, 2), 0.3)
        return Catalog(means, np.ones((5, 2), dtype=bool), [0.7, 0.1, 2.0, 0.3, 0.9],
                       [False, True, False, True, False], rho=0.1, minority_prob=0.4)

    def test_table_draws_match_per_call_weights(self):
        mixed = self._mixed_catalog()
        for cat in (_one_group_catalog(), _two_group_catalog(), mixed, mixed.minority_only()):
            for n in (1, 7, 200, 5000):
                got = cat.entries(np.random.default_rng(n).random(n))
                assert got.tolist() == draw_entries(cat, n, np.random.default_rng(n)).tolist()

    def test_minority_only_builds_its_own_table(self):
        mixed = self._mixed_catalog()
        masses = np.array([0.7 / 3.6 * 0.6, 0.1 / 0.4 * 0.4, 2.0 / 3.6 * 0.6, 0.3 / 0.4 * 0.4, 0.9 / 3.6 * 0.6])
        assert mixed.draw_cum == pytest.approx(np.cumsum(masses))
        alone = mixed.minority_only()
        assert alone.minority_prob == 0.0
        assert alone.draw_cum == pytest.approx([0.25, 1.0])


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
