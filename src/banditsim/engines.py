"""Vectorized replicate engines behind the experiment harness.

The two-bridge engines exploit the instance's structure: majority (A) and
single-context (C) rounds force the choice, so only B rounds are decision
points and the forced stretches between them collapse to bulk reward-sum
draws.  The perturbed engines vectorize whole batches for the batched greedy
policies and advance a block of LinUCB replicates in replicate lockstep: one
stacked step per round over cached inverses, with each replicate's result bit
for bit what it would be alone.  Every engine draws from the purpose-keyed
replicate streams, so results are identical under any scheduling.

Every engine feeds the instantaneous regret of its rounds, in round order, to
one ``RegretSums`` accumulator, which owns the restricted set, the running
totals and the optional curve of the first replicate; the two-bridge engines
feed only their wrong B rounds, each at the gap.  A LinUCB block keeps at most
one curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NoiseKind, last_batch_end
from .environments import Catalog, TwoBridgeConfig
from .estimators import GaussianPrior, ols_estimate, posterior_mean, SufficientStats
from .metrics import RegretSums, running_sum
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
    sums: RegretSums | None = None,
) -> TwoBridgeRunResult:
    """One two-bridge replicate for linucb / uniform_random / oracle.

    ``inject_majority_rate`` > 0 feeds the policy the top-bridge data a full
    population would generate between the simulated rounds: before each round,
    a geometric number of majority rounds (minority rate = 1 - rate) is pulled
    on the top bridge and folded into the statistics.

    ``sums`` receives the gap for every wrong B round, a minority round; by
    default it restricts to minority rounds and keeps no curve.
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

    wrong_mask = np.zeros(n_b, dtype=bool)
    if policy_name == "uniform_random":
        picks_top = pol.random(n_b) < 0.5
        wrong_mask = ~picks_top if top_best else picks_top
    elif policy_name == "oracle":
        pass
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
    else:
        raise ValueError(f"unsupported two-bridge policy: {policy_name}")
    return _two_bridge_result(master_seed, replicate, horizon, gap_size, b_pos[wrong_mask], n_b, sums)


def _two_bridge_result(master_seed, replicate, horizon, gap_size, wrong_pos, n_b, sums) -> TwoBridgeRunResult:
    """Feed the gap for each wrong B round, in round order, and read the sums."""
    if sums is None:
        sums = RegretSums(master_seed, (replicate,), horizon)
    sums.add(wrong_pos, np.full((wrong_pos.size, 1), gap_size))
    total = float(sums.total[0])
    return TwoBridgeRunResult(total, float(sums.restricted[0]), total, wrong_pos.size, n_b, sums.curve())


def run_two_bridge_batch_freq(
    cfg: TwoBridgeConfig,
    master_seed: int,
    replicate: int,
    batch_size: int,
    theta: np.ndarray | None = None,
    sums: RegretSums | None = None,
) -> TwoBridgeRunResult:
    """Batched frequentist greedy on the two-bridge instance.

    The acting estimate is frozen per batch, so each batch picks one bridge
    for all of its B rounds; the cold-start batch picks uniformly at random
    per B round.  ``sums`` is fed as in ``run_two_bridge_policy``.
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
    first_b = np.concatenate([[0], np.cumsum(count_b)])

    n1 = n2 = 0
    s1 = s2 = 0.0
    wrong_runs = []
    for b in range(n_batches):
        nb = int(count_b[b])
        if n1 + n2 == 0:
            # No data yet: the least-squares estimate is the zero vector and
            # every B round resolves its tie uniformly at random.
            picks_top = int(pol.binomial(nb, 0.5)) if nb else 0
            picks_bot = nb - picks_top
        else:
            e1 = s1 / n1 if n1 else 0.0
            e2 = s2 / n2 if n2 else 0.0
            if e1 >= e2:
                picks_top, picks_bot = nb, 0
            else:
                picks_top, picks_bot = 0, nb
        # A warm batch errs on all of its B rounds or on none.  Attribution
        # within the cold batch is uniform in law; pin its wrong picks to its
        # earliest B rounds.
        batch_wrong = picks_bot if top_best else picks_top
        wrong_runs.append(b_pos[first_b[b]:first_b[b] + batch_wrong])
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
    return _two_bridge_result(
        master_seed, replicate, horizon, gap_size, np.concatenate(wrong_runs), b_pos.size, sums
    )


def _draw_entry_indices(cat: Catalog, n: int, rng: np.random.Generator) -> np.ndarray:
    """Group-first weighted entry draw, one or two uniforms per round."""
    if cat.minority_prob <= 0.0:
        cum = np.cumsum(cat.weights / cat.weights.sum())
        return np.searchsorted(cum, rng.random(n), side="right")
    is_min = rng.random(n) < cat.minority_prob
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
    cat: Catalog,
    prior: GaussianPrior,
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
    sums: RegretSums | None = None,
) -> PerturbedRunResult:
    """Batched greedy replicate with whole batches vectorized.

    ``acting`` picks the frozen acting estimate: "freq" for least squares,
    "bayes" for the posterior mean.  ``gap_allowance`` accumulates
    ``2 R ||theta_bay - theta_freq||`` per round with the batch-frozen
    estimates, the per-round bound on how far the two greedy rules' reward
    predictions can disagree.  ``sums`` receives each batch's regret; by
    default it restricts to minority rounds and keeps no curve.  The
    prediction regret is summed in the same round order.
    """
    d, k = cat.dim, cat.n_actions
    ctx = stream(master_seed, replicate, Purpose.CONTEXTS)
    pert = stream(master_seed, replicate, Purpose.PERTURBATIONS)
    rew = stream(master_seed, replicate, Purpose.REWARDS)
    pol = stream(master_seed, replicate, Purpose.POLICY)

    Z = np.zeros((d, d))
    xr = np.zeros(d)
    n_obs = 0
    theta_freq = np.zeros(d)
    theta_bay = prior.mean.copy()
    cold = True

    if sums is None:
        sums = RegretSums(master_seed, (replicate,), horizon)
    pred_total = allowance = 0.0
    probes = {}
    keep_rows = track_lambda or track_rows
    chosen_rows = np.empty((horizon, d)) if keep_rows else None

    done = 0
    while done < horizon:
        y = min(batch_size, horizon - done)
        idx = _draw_entry_indices(cat, y, ctx)
        noise = pert.normal(0.0, cat.rho, size=(y, k, d))
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

        sums.add(slice(done, done + y), (best - chosen_val)[:, None], cat.minority[idx][:, None])
        pred_total = running_sum(pred_total, best - pred_val)

        chosen = x[rows, actions]
        rewards = chosen @ theta + rew.standard_normal(y)
        if keep_rows:
            chosen_rows[done:done + y] = chosen

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
        float(sums.total[0]), float(sums.restricted[0]), float(pred_total), allowance, probes, lam,
        final, theta, curve=sums.curve(), chosen_rows=chosen_rows if track_rows else None,
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
    cat: Catalog,
    params: LinUCBParams,
    thetas: np.ndarray,
    horizon: int,
    master_seed: int,
    replicates: tuple,
    refresh_every: int = 10_000,
    sums: RegretSums | None = None,
) -> list:
    """LinUCB replicates advanced in lockstep; one result per replicate.

    Row ``i`` of ``thetas`` is the latent weight vector of replicate
    ``replicates[i]``.  Each round makes one stacked score, width, argmax and
    rank-one (Sherman-Morrison) update of the cached inverses for the whole
    block.  Every stacked product makes, per replicate, the BLAS call a
    single-replicate loop would make, and ``sums`` (one column per replicate,
    by default minority-restricted with no curve) adds regret in round order,
    so a replicate's result does not depend on the block it runs in.

    Requires a positive ridge; the cached inverses are rebuilt from the exact
    Gram matrices every ``refresh_every`` rounds to cap floating-point drift.
    """
    if params.ridge <= 0.0:
        raise ValueError("the perturbed LinUCB engine needs a positive ridge")
    d, k = cat.dim, cat.n_actions
    n = len(replicates)
    thetas = np.asarray(thetas, dtype=float).reshape(n, d)
    theta_col = thetas[:, :, None]

    idx = np.stack([
        _draw_entry_indices(cat, horizon, stream(master_seed, rep, Purpose.CONTEXTS))
        for rep in replicates
    ])
    pert = [stream(master_seed, rep, Purpose.PERTURBATIONS) for rep in replicates]
    reward_noise = np.stack([stream(master_seed, rep, Purpose.REWARDS).standard_normal(horizon) for rep in replicates])
    if sums is None:
        sums = RegretSums(master_seed, replicates, horizon)

    f_table = np.array([interval_width(t, params, d) for t in range(horizon)])

    Z = np.zeros((n, d, d))
    xr = np.zeros((n, d, 1))
    W = np.repeat((np.eye(d) / params.ridge)[None], n, axis=0)
    theta_hat = np.zeros((n, d, 1))
    rows = np.arange(n)

    for start in range(0, horizon, NOISE_CHUNK):
        stop = min(start + NOISE_CHUNK, horizon)
        # Chunk arrays are round-major: x_chunk[c] is round start + c of
        # every replicate in the block.
        entries = idx[:, start:stop].T
        x_chunk = cat.means[entries] + np.stack(
            [g.normal(0.0, cat.rho, size=(stop - start, k, d)) for g in pert], axis=1
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
        sums.add(slice(start, stop), inst, cat.minority[entries])

    results = []
    for i in range(n):
        final = SufficientStats(0.5 * (Z[i] + Z[i].T), xr[i, :, 0], horizon)
        results.append(PerturbedRunResult(
            float(sums.total[i]), float(sums.restricted[i]), float(sums.total[i]), 0.0, {}, None, final,
            thetas[i], curve=sums.curve() if i == 0 else None,
        ))
    return results
