"""Vectorized replicate engines behind the experiment harness.

The two-bridge engines exploit the instance's structure: majority (A) and
single-context (C) rounds force the choice, so only B rounds are decision
points and the forced stretches between them collapse to bulk reward-sum
draws.  The perturbed engines vectorize whole batches for the batched greedy
policies and advance a block of LinUCB replicates in replicate lockstep: one
stacked step per round over cached inverses, with each replicate's result bit
for bit what it would be alone.  Every engine draws from the purpose-keyed
replicate streams, so results are identical under any scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Group, NoiseKind, last_batch_end
from .environments import PerturbedConfig, TwoBridgeConfig
from .estimators import gaussian_prior, ols_estimate, posterior_mean, SufficientStats
from .policies import LinUCBParams, interval_width
from .rng import Purpose, stream

# Codes for two-bridge round kinds inside the engines.
_A, _C, _B = 0, 1, 2


@dataclass(frozen=True)
class TwoBridgeRunResult:
    regret_total: float
    regret_minority: float
    regret_prediction: float
    wrong_b_rounds: int
    b_rounds: int
    curve: np.ndarray | None = None


def _wrong_curve(horizon: int, wrong_pos: np.ndarray, gap_size: float) -> np.ndarray:
    curve = np.zeros(horizon)
    curve[wrong_pos] = gap_size
    return np.cumsum(curve)


def _coin_mask(master_seed: int, replicate: int, horizon: int, p: float) -> np.ndarray:
    """Per-round membership flags for the i.i.d.-coin restricted-regret set."""
    return stream(master_seed, replicate, Purpose.RESTRICTION).random(horizon) < p


def closed_form_ucb(n1: int, s1: float, n2: int, s2: float, f: float) -> tuple:
    """Diagonal-design UCB pair for the two-bridge instance.

    With only basis contexts observed, Z stays diagonal with the pull counts
    on its diagonal, so each bridge's bound is its mean reward plus
    ``f / sqrt(count)``; zero-count bridges get an infinite bound.
    """
    u1 = math.inf if n1 == 0 else s1 / n1 + f / math.sqrt(n1)
    u2 = math.inf if n2 == 0 else s2 / n2 + f / math.sqrt(n2)
    return u1, u2


def _kind_codes(cfg: TwoBridgeConfig, rng: np.random.Generator, horizon: int) -> np.ndarray:
    """Draw the round-kind sequence with one uniform per round."""
    p_a, p_c, _ = cfg.kind_probabilities()
    u = rng.random(horizon)
    return np.where(u < p_a, _A, np.where(u < p_a + p_c, _C, _B)).astype(np.int8)


def _seg_sums(counts: np.ndarray, mean: float, noise: NoiseKind, rng: np.random.Generator) -> np.ndarray:
    """Reward sums for stretches of forced pulls on one bridge."""
    counts = np.asarray(counts)
    if noise is NoiseKind.GAUSSIAN_UNIT:
        return rng.normal(counts * mean, np.sqrt(counts))
    return rng.binomial(counts, mean).astype(float)


def _single_rewards(n: int, mean: float, noise: NoiseKind, rng: np.random.Generator) -> np.ndarray:
    if noise is NoiseKind.GAUSSIAN_UNIT:
        return rng.normal(mean, 1.0, n)
    return rng.binomial(1, mean, n).astype(float)


def run_two_bridge_policy(
    cfg: TwoBridgeConfig,
    policy_name: str,
    master_seed: int,
    replicate: int,
    theta: np.ndarray | None = None,
    params: LinUCBParams | None = None,
    inject_majority_rate: float = 0.0,
    track_curve: bool = False,
    restriction: str = "minority",
    restriction_p: float = 0.5,
) -> TwoBridgeRunResult:
    """One two-bridge replicate for linucb / uniform_random / oracle.

    ``inject_majority_rate`` > 0 feeds the policy the top-bridge data a full
    population would generate between the simulated rounds: before each round,
    a geometric number of majority rounds (minority rate = 1 - rate) is pulled
    on the top bridge and folded into the statistics.

    ``restriction`` picks the restricted-regret set reported alongside the
    total: "minority" counts minority rounds (every costly round here is one),
    "coin" counts rounds flagged by an independent Bernoulli(restriction_p)
    coin from the replicate's restriction stream.
    """
    horizon = int(cfg.horizon)
    theta = cfg.theta if theta is None else np.asarray(theta, dtype=float)
    top_best = theta[0] > theta[1]
    gap_size = abs(float(theta[0] - theta[1]))

    ctx = stream(master_seed, replicate, Purpose.CONTEXTS)
    rew = stream(master_seed, replicate, Purpose.REWARDS)
    pol = stream(master_seed, replicate, Purpose.POLICY)

    kinds = _kind_codes(cfg, ctx, horizon)
    if inject_majority_rate > 0.0:
        injected = ctx.geometric(1.0 - inject_majority_rate, size=horizon) - 1
    else:
        injected = np.zeros(horizon, dtype=np.int64)

    b_pos = np.flatnonzero(kinds == _B)
    n_b = b_pos.size

    cum_a = np.concatenate([[0], np.cumsum(kinds == _A)])
    cum_c = np.concatenate([[0], np.cumsum(kinds == _C)])
    cum_g = np.concatenate([[0], np.cumsum(injected)])

    # Forced top pulls before each decision include the B round's own injected
    # majority stretch; everything after the last B round never affects play.
    top_before = cum_a[b_pos] + cum_g[b_pos + 1]
    bot_before = cum_c[b_pos]
    top_inc = np.diff(np.concatenate([[0], top_before]))
    bot_inc = np.diff(np.concatenate([[0], bot_before]))

    seg_top = _seg_sums(top_inc, float(theta[0]), cfg.noise, rew)
    seg_bot = _seg_sums(bot_inc, float(theta[1]), cfg.noise, rew)
    cand_top = _single_rewards(n_b, float(theta[0]), cfg.noise, rew)
    cand_bot = _single_rewards(n_b, float(theta[1]), cfg.noise, rew)

    wrong = 0
    wrong_mask = np.zeros(n_b, dtype=bool)
    if policy_name == "uniform_random":
        picks_top = pol.random(n_b) < 0.5
        wrong_mask = ~picks_top if top_best else picks_top
        wrong = int(np.sum(wrong_mask))
    elif policy_name == "oracle":
        wrong = 0
    elif policy_name == "linucb":
        if params is None:
            params = LinUCBParams.for_two_bridge(horizon)
        n1 = n2 = 0
        s1 = s2 = 0.0
        for k in range(n_b):
            n1 += int(top_inc[k])
            s1 += float(seg_top[k])
            n2 += int(bot_inc[k])
            s2 += float(seg_bot[k])
            f = interval_width(n1 + n2, params, 2)
            u1, u2 = closed_form_ucb(n1, s1, n2, s2, f)
            if u1 >= u2:
                n1 += 1
                s1 += float(cand_top[k])
                wrong_mask[k] = not top_best
            else:
                n2 += 1
                s2 += float(cand_bot[k])
                wrong_mask[k] = top_best
        wrong = int(np.sum(wrong_mask))
    else:
        raise ValueError(f"unsupported two-bridge policy: {policy_name}")

    regret = gap_size * wrong
    restricted = regret
    if restriction == "coin":
        coins = _coin_mask(master_seed, replicate, horizon, restriction_p)
        restricted = gap_size * int(np.sum(wrong_mask & coins[b_pos]))
    curve = _wrong_curve(horizon, b_pos[wrong_mask], gap_size) if track_curve else None
    return TwoBridgeRunResult(regret, restricted, regret, wrong, n_b, curve)


def run_two_bridge_batch_freq(
    cfg: TwoBridgeConfig,
    master_seed: int,
    replicate: int,
    batch_size: int,
    theta: np.ndarray | None = None,
    track_curve: bool = False,
    restriction: str = "minority",
    restriction_p: float = 0.5,
) -> TwoBridgeRunResult:
    """Batched frequentist greedy on the two-bridge instance.

    The acting estimate is frozen per batch, so each batch picks one bridge
    for all of its B rounds; the cold-start batch picks uniformly at random
    per B round.
    """
    horizon = int(cfg.horizon)
    theta = cfg.theta if theta is None else np.asarray(theta, dtype=float)
    top_best = theta[0] > theta[1]
    gap_size = abs(float(theta[0] - theta[1]))

    ctx = stream(master_seed, replicate, Purpose.CONTEXTS)
    rew = stream(master_seed, replicate, Purpose.REWARDS)
    pol = stream(master_seed, replicate, Purpose.POLICY)

    kinds = _kind_codes(cfg, ctx, horizon)
    n_batches = math.ceil(horizon / batch_size)
    starts = np.arange(0, horizon, batch_size)
    count_a = np.add.reduceat(kinds == _A, starts)
    count_c = np.add.reduceat(kinds == _C, starts)
    count_b = np.add.reduceat(kinds == _B, starts)

    seg_top = _seg_sums(count_a, float(theta[0]), cfg.noise, rew)
    seg_bot = _seg_sums(count_c, float(theta[1]), cfg.noise, rew)

    b_pos = np.flatnonzero(kinds == _B)
    b_batch = b_pos // batch_size

    need_pos = track_curve or restriction == "coin"
    n1 = n2 = 0
    s1 = s2 = 0.0
    wrong = 0
    wrong_pos: list = []
    for b in range(n_batches):
        nb = int(count_b[b])
        if n1 + n2 == 0:
            # No data yet: the least-squares estimate is the zero vector and
            # every B round resolves its tie uniformly at random.
            picks_top = int(pol.binomial(nb, 0.5)) if nb else 0
            picks_bot = nb - picks_top
            batch_wrong = picks_bot if top_best else picks_top
            wrong += batch_wrong
            if need_pos and batch_wrong:
                # Attribution within the cold batch is uniform in law; pin the
                # wrong picks to its earliest B rounds.
                wrong_pos.extend(b_pos[b_batch == b][:batch_wrong])
        else:
            e1 = s1 / n1 if n1 else 0.0
            e2 = s2 / n2 if n2 else 0.0
            if e1 >= e2:
                picks_top, picks_bot = nb, 0
            else:
                picks_top, picks_bot = 0, nb
            batch_wrong = picks_bot if top_best else picks_top
            wrong += batch_wrong
            if need_pos and batch_wrong:
                wrong_pos.extend(b_pos[b_batch == b])
        if picks_top:
            n1 += picks_top
            s1 += float(_seg_sums(np.array([picks_top]), float(theta[0]), cfg.noise, rew)[0])
        if picks_bot:
            n2 += picks_bot
            s2 += float(_seg_sums(np.array([picks_bot]), float(theta[1]), cfg.noise, rew)[0])
        # Forced pulls of this batch enter the statistics after its decisions.
        n1 += int(count_a[b])
        s1 += float(seg_top[b])
        n2 += int(count_c[b])
        s2 += float(seg_bot[b])

    regret = gap_size * wrong
    restricted = regret
    if restriction == "coin":
        coins = _coin_mask(master_seed, replicate, horizon, restriction_p)
        restricted = gap_size * int(np.sum(coins[np.asarray(wrong_pos, dtype=np.int64)]))
    curve = None
    if track_curve:
        curve = _wrong_curve(horizon, np.asarray(wrong_pos, dtype=np.int64), gap_size)
    return TwoBridgeRunResult(regret, restricted, regret, wrong, int(count_b.sum()), curve)


@dataclass(frozen=True)
class CatalogArrays:
    """Dense catalog representation for the vectorized perturbed engines."""

    means: np.ndarray      # (n_entries, K, d), unavailable slots zeroed
    avail: np.ndarray      # (n_entries, K) bool
    weights: np.ndarray    # (n_entries,) normalized per group pool
    minority: np.ndarray   # (n_entries,) bool

    @classmethod
    def from_config(cls, cfg: PerturbedConfig) -> "CatalogArrays":
        k, d = cfg.n_actions, cfg.dim
        n = len(cfg.entries)
        means = np.zeros((n, k, d))
        avail = np.zeros((n, k), dtype=bool)
        weights = np.empty(n)
        minority = np.zeros(n, dtype=bool)
        for i, e in enumerate(cfg.entries):
            weights[i] = e.weight
            minority[i] = e.group is Group.MINORITY
            for a, m in enumerate(e.means):
                if m is not None:
                    means[i, a] = m
                    avail[i, a] = True
        return cls(means, avail, weights, minority)


def _draw_entry_indices(cat: CatalogArrays, minority_prob: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Group-first weighted entry draw, one or two uniforms per round."""
    if minority_prob <= 0.0:
        cum = np.cumsum(cat.weights / cat.weights.sum())
        return np.searchsorted(cum, rng.random(n), side="right")
    is_min = rng.random(n) < minority_prob
    u = rng.random(n)
    idx = np.empty(n, dtype=np.int64)
    for flag in (False, True):
        pool = np.flatnonzero(cat.minority == flag)
        cum = np.cumsum(cat.weights[pool] / cat.weights[pool].sum())
        sel = is_min == flag
        idx[sel] = pool[np.searchsorted(cum, u[sel], side="right")]
    return idx


@dataclass
class PerturbedRunResult:
    regret_total: float
    regret_minority: float
    regret_prediction: float
    gap_allowance: float
    probe_values: dict
    lambda_curve: np.ndarray | None
    final_stats: SufficientStats
    theta: np.ndarray
    curve: np.ndarray | None = None
    chosen_rows: np.ndarray | None = None


def run_perturbed_batch_greedy(
    cfg: PerturbedConfig,
    prior_mean: np.ndarray,
    prior_cov: np.ndarray,
    theta: np.ndarray,
    horizon: int,
    batch_size: int,
    master_seed: int,
    replicate: int,
    acting: str = "freq",
    context_bound: float | None = None,
    probe_rounds: tuple = (),
    track_lambda: bool = False,
    track_rows: bool = False,
    track_curve: bool = False,
    restriction: str = "minority",
    restriction_p: float = 0.5,
) -> PerturbedRunResult:
    """Batched greedy replicate with whole batches vectorized.

    ``acting`` picks the frozen acting estimate: "freq" for least squares,
    "bayes" for the posterior mean.  ``gap_allowance`` accumulates
    ``2 R ||theta_bay - theta_freq||`` per round with the batch-frozen
    estimates, the per-round bound on how far the two greedy rules' reward
    predictions can disagree.  ``restriction`` selects the restricted-regret
    set: "minority" for minority-group rounds, "coin" for rounds flagged by
    an independent Bernoulli(restriction_p) coin per round.
    """
    cat = CatalogArrays.from_config(cfg)
    d, k = cfg.dim, cfg.n_actions
    prior = gaussian_prior(prior_mean, prior_cov)
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

    total = minority_total = pred_total = 0.0
    allowance = 0.0
    probes = {}
    keep_rows = track_lambda or track_rows
    chosen_rows = np.empty((horizon, d)) if keep_rows else None
    inst_curve = np.empty(horizon) if track_curve else None
    coins = None
    if restriction == "coin":
        coins = _coin_mask(master_seed, replicate, horizon, restriction_p)

    done = 0
    while done < horizon:
        y = min(batch_size, horizon - done)
        idx = _draw_entry_indices(cat, cfg.minority_prob, y, ctx)
        noise = pert.normal(0.0, cfg.rho, size=(y, k, d))
        x = cat.means[idx] + noise
        avail = cat.avail[idx]

        acting_est = theta_bay if acting == "bayes" else theta_freq
        if cold and acting == "freq":
            scores = pol.random((y, k))
        else:
            scores = x @ acting_est
        scores = np.where(avail, scores, -np.inf)
        actions = np.argmax(scores, axis=1)

        true_vals = np.where(avail, x @ theta, -np.inf)
        best = true_vals.max(axis=1)
        rows = np.arange(y)
        chosen_val = true_vals[rows, actions]

        pred_scores = np.where(avail, x @ theta_bay, -np.inf)
        pred_actions = np.argmax(pred_scores, axis=1)
        pred_val = true_vals[rows, pred_actions]

        inst = best - chosen_val
        inst_pred = best - pred_val
        in_set = coins[done:done + y] if coins is not None else cat.minority[idx]
        total += float(inst.sum())
        minority_total += float(inst[in_set].sum())
        pred_total += float(inst_pred.sum())

        chosen = x[rows, actions]
        rewards = chosen @ theta + rew.standard_normal(y)
        if keep_rows:
            chosen_rows[done:done + y] = chosen
        if track_curve:
            inst_curve[done:done + y] = inst

        if context_bound is not None:
            allowance += 2.0 * context_bound * float(np.linalg.norm(theta_bay - theta_freq)) * y
        for p in probe_rounds:
            if done < p <= done + y:
                t0 = last_batch_end(p, batch_size)
                probes[p] = t0 * float(np.linalg.norm(theta_bay - theta_freq))

        Z += chosen.T @ chosen
        xr += chosen.T @ rewards
        n_obs += y
        done += y
        stats = SufficientStats(0.5 * (Z + Z.T), xr, n_obs)
        theta_freq = ols_estimate(stats)
        theta_bay = posterior_mean(stats, prior)
        cold = False

    lam = None
    if track_lambda:
        lam = _lambda_min_curve(chosen_rows)
    final = SufficientStats(0.5 * (Z + Z.T), xr, n_obs)
    return PerturbedRunResult(
        total, minority_total, pred_total, allowance, probes, lam, final, theta,
        curve=np.cumsum(inst_curve) if track_curve else None,
        chosen_rows=chosen_rows if track_rows else None,
    )


def _lambda_min_curve(rows: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of the running Gram matrix after every round (d = 2)."""
    if rows.shape[1] != 2:
        raise ValueError("lambda curve tracking is implemented for d = 2")
    a = np.cumsum(rows[:, 0] * rows[:, 0])
    b = np.cumsum(rows[:, 0] * rows[:, 1])
    c = np.cumsum(rows[:, 1] * rows[:, 1])
    half_tr = 0.5 * (a + c)
    disc = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    return half_tr - disc


# Rounds of perturbation noise the LinUCB engine draws and scores at once.
# Chunked normal draws continue each replicate's stream exactly, so the size
# bounds memory without changing any result.
NOISE_CHUNK = 1024


def run_perturbed_linucb(
    cfg: PerturbedConfig,
    params: LinUCBParams,
    thetas: np.ndarray,
    horizon: int,
    master_seed: int,
    replicates: tuple,
    refresh_every: int = 10_000,
    track_curve: bool = False,
    restriction: str = "minority",
    restriction_p: float = 0.5,
) -> list:
    """LinUCB replicates advanced in lockstep; one result per replicate.

    Row ``i`` of ``thetas`` is the latent weight vector of replicate
    ``replicates[i]``.  Each round makes one stacked score, width, argmax and
    rank-one (Sherman-Morrison) update of the cached inverses for the whole
    block.  Every stacked product makes, per replicate, the BLAS call a
    single-replicate loop would make, and regret is summed in round order, so
    a replicate's result does not depend on the block it runs in.

    Requires a positive ridge; the cached inverses are rebuilt from the exact
    Gram matrices every ``refresh_every`` rounds to cap floating-point drift.
    """
    if params.ridge <= 0.0:
        raise ValueError("the perturbed LinUCB engine needs a positive ridge")
    cat = CatalogArrays.from_config(cfg)
    d, k = cfg.dim, cfg.n_actions
    n = len(replicates)
    thetas = np.asarray(thetas, dtype=float).reshape(n, d)
    theta_col = thetas[:, :, None]

    idx = np.stack([
        _draw_entry_indices(cat, cfg.minority_prob, horizon, stream(master_seed, rep, Purpose.CONTEXTS))
        for rep in replicates
    ])
    pert = [stream(master_seed, rep, Purpose.PERTURBATIONS) for rep in replicates]
    reward_noise = np.stack([stream(master_seed, rep, Purpose.REWARDS).standard_normal(horizon) for rep in replicates])
    if restriction == "coin":
        in_set = np.stack([_coin_mask(master_seed, rep, horizon, restriction_p) for rep in replicates])
    else:
        in_set = cat.minority[idx]

    f_table = np.array([interval_width(t, params, d) for t in range(horizon)])

    Z = np.zeros((n, d, d))
    xr = np.zeros((n, d, 1))
    W = np.repeat((np.eye(d) / params.ridge)[None], n, axis=0)
    theta_hat = np.zeros((n, d, 1))
    rows = np.arange(n)

    total = np.zeros(n)
    minority_total = np.zeros(n)
    curve = np.empty((n, horizon)) if track_curve else None
    for start in range(0, horizon, NOISE_CHUNK):
        stop = min(start + NOISE_CHUNK, horizon)
        # Chunk arrays are round-major: x_chunk[c] is round start + c of
        # every replicate in the block.
        entries = idx[:, start:stop].T
        x_chunk = cat.means[entries] + np.stack(
            [g.normal(0.0, cfg.rho, size=(stop - start, k, d)) for g in pert], axis=1
        )
        avail = cat.avail[entries]
        # r * x for every action: r is the row's true value, taken as the dot
        # product a single-replicate loop takes for its chosen row, plus the
        # round's reward noise.
        rewards = (x_chunk[..., None, :] @ theta_col[None, :, None])[..., 0, 0]
        rewards += reward_noise[:, start:stop].T[..., None]
        reward_x = rewards[..., None] * x_chunk
        actions = np.empty((stop - start, n), dtype=np.int64)
        for c, x in enumerate(x_chunk):
            xw = x @ W
            widths = np.sqrt(np.maximum(np.add.reduce(xw * x, axis=2), 0.0))
            scores = np.where(avail[c], (x @ theta_hat)[:, :, 0] + f_table[start + c] * widths, -np.inf)
            a = scores.argmax(axis=1)
            actions[c] = a

            chosen = x[rows, a][:, :, None]
            Z += chosen * chosen.transpose(0, 2, 1)
            xr += reward_x[c][rows, a][:, :, None]
            wx = W @ chosen
            W -= (wx * wx.transpose(0, 2, 1)) / (1.0 + chosen.transpose(0, 2, 1) @ wx)
            if (start + c + 1) % refresh_every == 0:
                W = np.linalg.inv(0.5 * (Z + Z.transpose(0, 2, 1)) + params.ridge * np.eye(d))
                W = 0.5 * (W + W.transpose(0, 2, 1))
            theta_hat = W @ xr

        true_vals = np.where(avail, (x_chunk @ theta_col)[..., 0], -np.inf)
        inst = true_vals.max(axis=2) - np.take_along_axis(true_vals, actions[..., None], axis=2)[..., 0]
        # Cumulative sums carried across chunks add the rounds one at a time.
        running = np.cumsum(np.concatenate([total[None], inst]), axis=0)
        total = running[-1]
        if curve is not None:
            curve[:, start:stop] = running[1:].T
        restricted = np.where(in_set[:, start:stop].T, inst, 0.0)
        minority_total = np.cumsum(np.concatenate([minority_total[None], restricted]), axis=0)[-1]

    results = []
    for i in range(n):
        final = SufficientStats(0.5 * (Z[i] + Z[i].T), xr[i, :, 0], horizon)
        results.append(PerturbedRunResult(
            float(total[i]), float(minority_total[i]), float(total[i]), 0.0, {}, None, final, thetas[i],
            curve=curve[i] if track_curve else None,
        ))
    return results
