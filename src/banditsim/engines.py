"""Vectorized replicate engines behind the experiment harness.

The two-bridge engines exploit the instance's structure: majority (A) and
single-context (C) rounds force the choice, so only B rounds are decision
points and the forced stretches between them collapse to bulk reward-sum
draws.  Two-bridge LinUCB then decides its B rounds one stretch of equal picks
at a time (``linucb_picks_top``), one replicate per call: a replicate takes
one vector pass per switch of bridges plus one, not a Python step per B round;
of 1,920 measured replicates, 8 switched once and none more often.
Two-bridge replicates are not run in lockstep: a block of 32 raised a pool
worker's peak RSS from 39 MB to 52-54 MB, and blocks small enough to keep it
barely ran faster.  The perturbed engines advance a block of replicates in
lockstep, each replicate from its own streams, and pick each round's catalog
entry with one uniform (``Catalog.entries``): batched greedy one stacked step
per batch, with the estimators solving every replicate's system in one
stacked call, and LinUCB one stacked step per round over cached inverses, for
every horizon of the block at once, with each replicate's inputs drawn once
for all its horizons, NOISE_CHUNK rounds at a time.  Each replicate's result
is bit for bit what it would be alone, so results are identical under any
scheduling.

Every engine feeds the instantaneous regret of its rounds, in round order, to
the ``RegretSums`` accumulator its caller passes, which owns the restricted
set, the running totals and the optional curve of the first replicate, and
alone reports them; the two-bridge engines feed only their wrong B rounds,
each at the gap.  An engine returns only what the sums cannot hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NoiseKind, last_batch_end
from .environments import MAJORITY_RATE, Catalog, TwoBridgeConfig
from .estimators import GaussianPrior, ols_estimate, posterior_mean
from .metrics import RegretSums, running_sum
from .policies import LinUCBParams, context_norm_bound, interval_width
from .rng import Purpose, stream

# Rounds at which batched greedy probes the posterior/least-squares gap.
GAP_PROBE_ROUNDS = (1000, 8000)


@dataclass(frozen=True)
class TwoBridgeRunResult:
    wrong_b_rounds: int
    b_rounds: int


def _round_positions(cfg: TwoBridgeConfig, rng: np.random.Generator, horizon: int) -> tuple:
    """Draw one uniform per round; return the positions of the majority (A)
    rounds and of the B rounds.

    A round is A when its uniform falls below ``p_a``, B when it reaches
    ``p_a + p_c`` and single-context (C) in between.
    """
    p_a, p_c, _ = cfg.kind_probabilities()
    u = rng.random(horizon)
    return np.flatnonzero(u < p_a), np.flatnonzero(u >= p_a + p_c)


def _seg_sums(counts: np.ndarray, mean: float, noise: NoiseKind, rng: np.random.Generator) -> np.ndarray:
    """Reward sums for stretches of forced pulls on one bridge, one per count;
    a scalar count gives one sum."""
    counts = np.asarray(counts)
    if noise is NoiseKind.GAUSSIAN_UNIT:
        return rng.normal(counts * mean, np.sqrt(counts))
    return np.asarray(rng.binomial(counts, mean), dtype=float)


def linucb_picks_top(top_before, bot_before, seg_top, seg_bot, cand_top, cand_bot, params) -> np.ndarray:
    """Whether two-bridge LinUCB picks the top bridge at each B round.

    Before B round ``k`` the top bridge holds ``top_before[k]`` forced pulls
    whose rewards sum to ``seg_top[:k + 1].sum()``, plus the B rounds that
    picked it, each rewarded ``cand_top`` of its round; likewise the bottom
    bridge.  With only basis contexts observed the design stays diagonal, so
    each bridge's bound is its mean reward plus ``f / sqrt(count)``, infinite
    at count 0, and ties go to the top.

    The observation count before round ``k``, ``top_before[k] + bot_before[k]
    + k``, does not depend on the picks, so every width comes from one
    ``interval_width`` call.  A stretch of equal picks is decided at once: take
    every pick from its first round on to repeat that round's pick, follow
    both bridges' counts and running sums along that path (``np.add.accumulate``
    adds in sequence, as the per-round loop does, so the sums are the same
    floats), and end the stretch at the first round whose bounds disagree.
    The next stretch starts there with the other pick, so a replicate that
    switches bridges ``s`` times takes ``s + 1`` passes over its remaining B
    rounds.
    """
    n_b = len(top_before)
    f = interval_width(top_before + bot_before + np.arange(n_b), params, 2)
    picks = np.empty(n_b, dtype=bool)
    # Per bridge (top, bottom): forced-pull counts and rewards, pick rewards,
    # and the picks and reward sum before the current stretch.
    forced, segs, cands = (top_before, bot_before), (seg_top, seg_bot), (cand_top, cand_bot)
    picked, totals = [0, 0], [0.0, 0.0]
    k, side = 0, 0
    while k < n_b:
        m = n_b - k
        acc, bounds = [], []
        for b in (0, 1):
            # The picking bridge adds each round's forced rewards, then its pick.
            stride = 2 if b == side else 1
            seq = np.empty(stride * m + 1)
            seq[0] = totals[b]
            seq[1::stride] = segs[b][k:]
            if stride == 2:
                seq[2::2] = cands[b][k:]
            acc.append(np.add.accumulate(seq))
            count = forced[b][k:] + picked[b] + (np.arange(m) if stride == 2 else 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                bound = acc[b][1::stride] / count + f[k:] / np.sqrt(count)
            bounds.append(np.where(count == 0, np.inf, bound))
        switch = np.flatnonzero((bounds[0] >= bounds[1]) != (side == 0))
        j = int(switch[0]) if switch.size else m
        picks[k:k + j] = side == 0
        picked[side] += j
        totals = [float(acc[b][(2 if b == side else 1) * j]) for b in (0, 1)]
        k += j
        side = 1 - side
    return picks


def run_two_bridge_policy(
    cfg: TwoBridgeConfig,
    policy_name: str,
    master_seed: int,
    replicate: int,
    sums: RegretSums,
) -> TwoBridgeRunResult:
    """One two-bridge replicate for linucb, linucb_full, linucb_minority,
    uniform_random or oracle.

    The LinUCB policies run with ``LinUCBParams.for_two_bridge(horizon)`` and
    decide their B rounds with ``linucb_picks_top``.  ``linucb_full`` also
    learns from the top-bridge data a full population would generate between
    the simulated rounds: before each round, a geometric number of majority
    rounds (at MAJORITY_RATE) is pulled on the top bridge and folded into the
    statistics.  Only the sum over each gap between B rounds matters, so it
    draws one negative-binomial count per gap, which has the law of that sum.
    ``linucb`` and ``linucb_minority`` are one computation: both learn from
    the simulated rounds alone, and each two-bridge experiment allows one of
    the two names.  ``uniform_random`` and ``oracle`` read no reward, so they
    draw none.

    ``sums`` receives the gap for every wrong B round, a minority round.
    """
    horizon = int(cfg.horizon)
    theta = cfg.theta
    top_best = theta[0] > theta[1]
    gap_size = abs(float(theta[0] - theta[1]))

    ctx = stream(master_seed, replicate, Purpose.CONTEXTS)
    a_pos, b_pos = _round_positions(cfg, ctx, horizon)
    n_b = b_pos.size

    if policy_name == "uniform_random":
        picks_top = stream(master_seed, replicate, Purpose.POLICY).random(n_b) < 0.5
    elif policy_name == "oracle":
        picks_top = np.full(n_b, top_best)
    elif policy_name in ("linucb", "linucb_full", "linucb_minority"):
        # Forced pulls before each decision: the A and C rounds before it, and
        # for linucb_full every injected majority stretch up to and including
        # the B round's own.  Everything after the last B round never affects
        # play.  Gap k covers the rounds after B round k - 1 up to B round k;
        # the first starts at round 0.
        a_before = np.searchsorted(a_pos, b_pos)
        top_before = a_before
        if policy_name == "linucb_full":
            gaps = np.diff(b_pos, prepend=-1)
            top_before = a_before + np.cumsum(ctx.negative_binomial(gaps, 1.0 - MAJORITY_RATE))
        bot_before = b_pos - np.arange(n_b) - a_before
        top_inc = np.diff(top_before, prepend=0)
        bot_inc = np.diff(bot_before, prepend=0)

        rew = stream(master_seed, replicate, Purpose.REWARDS)
        seg_top = _seg_sums(top_inc, float(theta[0]), cfg.noise, rew)
        seg_bot = _seg_sums(bot_inc, float(theta[1]), cfg.noise, rew)
        cand_top = _seg_sums(np.ones(n_b, dtype=np.int64), float(theta[0]), cfg.noise, rew)
        cand_bot = _seg_sums(np.ones(n_b, dtype=np.int64), float(theta[1]), cfg.noise, rew)
        picks_top = linucb_picks_top(
            top_before, bot_before, seg_top, seg_bot, cand_top, cand_bot,
            LinUCBParams.for_two_bridge(horizon),
        )
    else:
        raise ValueError(f"unsupported two-bridge policy: {policy_name}")
    wrong_mask = ~picks_top if top_best else picks_top
    return _two_bridge_result(sums, gap_size, b_pos[wrong_mask], n_b)


def _two_bridge_result(sums: RegretSums, gap_size: float, wrong_pos: np.ndarray, n_b: int) -> TwoBridgeRunResult:
    """Feed ``sums`` the gap for each wrong B round, in round order, and count them."""
    sums.add(wrong_pos, np.full((wrong_pos.size, 1), gap_size))
    return TwoBridgeRunResult(wrong_pos.size, n_b)


def run_two_bridge_batch_freq(
    cfg: TwoBridgeConfig,
    master_seed: int,
    replicate: int,
    batch_size: int,
    sums: RegretSums,
) -> TwoBridgeRunResult:
    """Batched frequentist greedy on the two-bridge instance.

    The acting estimate is frozen per batch, so each batch picks one bridge
    for all of its B rounds; the cold-start batch picks uniformly at random
    per B round.  ``sums`` is fed as in ``run_two_bridge_policy``.
    """
    horizon = int(cfg.horizon)
    theta = cfg.theta
    top_best = theta[0] > theta[1]
    gap_size = abs(float(theta[0] - theta[1]))

    ctx = stream(master_seed, replicate, Purpose.CONTEXTS)
    rew = stream(master_seed, replicate, Purpose.REWARDS)
    pol = stream(master_seed, replicate, Purpose.POLICY)

    a_pos, b_pos = _round_positions(cfg, ctx, horizon)
    n_batches = math.ceil(horizon / batch_size)
    bounds = np.append(np.arange(0, horizon, batch_size), horizon)
    count_a = np.diff(np.searchsorted(a_pos, bounds))
    first_b = np.searchsorted(b_pos, bounds)
    count_b = np.diff(first_b)
    count_c = np.diff(bounds) - count_a - count_b

    seg_top = _seg_sums(count_a, float(theta[0]), cfg.noise, rew)
    seg_bot = _seg_sums(count_c, float(theta[1]), cfg.noise, rew)

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
            s1 += float(_seg_sums(picks_top, float(theta[0]), cfg.noise, rew))
        if picks_bot:
            n2 += picks_bot
            s2 += float(_seg_sums(picks_bot, float(theta[1]), cfg.noise, rew))
        # Forced pulls of this batch enter the statistics after its decisions.
        n1 += int(count_a[b])
        s1 += float(seg_top[b])
        n2 += int(count_c[b])
        s2 += float(seg_bot[b])
    return _two_bridge_result(sums, gap_size, np.concatenate(wrong_runs), b_pos.size)


@dataclass
class PerturbedRunResult:
    """What batched greedy reports of one replicate beside its regret sums."""

    regret_prediction: float
    gap_allowance: float
    probe_values: dict
    chosen_rows: np.ndarray | None = None


def run_perturbed_batch_greedy(
    cat: Catalog,
    prior: GaussianPrior,
    thetas: np.ndarray,
    horizon: int,
    batch_size: int,
    master_seed: int,
    replicates: tuple,
    sums: RegretSums,
    acting: str = "freq",
    keep_rows: bool = False,
) -> list:
    """Batched greedy replicates advanced in lockstep, one batch at a time; one
    result per replicate.

    Row ``i`` of ``thetas`` is the latent weight vector of replicate
    ``replicates[i]``.  Each replicate draws its batch from its own streams,
    in the order a replicate run alone draws them.  Every stacked product
    makes, per replicate, the BLAS call a single-replicate loop would make
    (a flat (y k, d) by (d,) product for the scores, a dot product for each
    norm), the estimators solve each replicate's system as they would alone,
    and ``sums`` (one column per replicate) adds regret in round order, so a
    replicate's result does not depend on the block it runs in.

    ``acting`` picks the frozen acting estimate: "freq" for least squares,
    "bayes" for the posterior mean; any other value is a ``ValueError``.
    ``gap_allowance`` accumulates ``2 R ||theta_bay - theta_freq||`` per round
    with the batch-frozen estimates and R = ``context_norm_bound`` of the
    instance, the per-round bound on how far the two greedy rules' reward
    predictions can disagree.
    ``probe_values`` maps each of GAP_PROBE_ROUNDS within the horizon to
    ``t0 ||theta_bay - theta_freq||``, t0 the last batch end before it.
    The prediction regret is summed in round order too.  ``keep_rows`` keeps
    the chosen context of every round.
    """
    if acting not in ("freq", "bayes"):
        raise ValueError(f"acting must be 'freq' or 'bayes', not {acting!r}")
    d, k = cat.dim, cat.n_actions
    n = len(replicates)
    thetas = np.asarray(thetas, dtype=float).reshape(n, d)
    ctx, pert, rew, pol = (
        [stream(master_seed, rep, purpose) for rep in replicates]
        for purpose in (Purpose.CONTEXTS, Purpose.PERTURBATIONS, Purpose.REWARDS, Purpose.POLICY)
    )

    Z = np.zeros((n, d, d))
    xr = np.zeros((n, d))
    theta_freq = np.zeros((n, d))
    theta_bay = np.repeat(prior.mean[None], n, axis=0)
    cold = True

    pred_total = np.zeros(n)
    allowance = np.zeros(n)
    context_bound = context_norm_bound(cat.rho, d, horizon, k)
    probes = [{} for _ in range(n)]
    chosen_rows = np.empty((n, horizon, d)) if keep_rows else None

    def values(x, v):
        """Each replicate's rows of ``x`` (n, y, k, d) times its row of ``v``."""
        return (x.reshape(n, -1, d) @ v[:, :, None]).reshape(x.shape[:3])

    block_ix = np.arange(n)[:, None]
    done = 0
    while done < horizon:
        y = min(batch_size, horizon - done)
        batch_ix = np.arange(y)
        idx = cat.entries(np.stack([g.random(y) for g in ctx]))
        x = cat.means[idx] + np.stack([g.normal(0.0, cat.rho, size=(y, k, d)) for g in pert])
        avail = cat.avail[idx]

        pred_scores = np.where(avail, values(x, theta_bay), -np.inf)
        if acting == "bayes":
            scores = pred_scores
        elif cold:
            scores = np.where(avail, np.stack([g.random((y, k)) for g in pol]), -np.inf)
        else:
            scores = np.where(avail, values(x, theta_freq), -np.inf)
        actions = np.argmax(scores, axis=2)
        pred_actions = actions if acting == "bayes" else np.argmax(pred_scores, axis=2)

        true_vals = np.where(avail, values(x, thetas), -np.inf)
        best = true_vals.max(axis=2)
        chosen_val = true_vals[block_ix, batch_ix, actions]
        pred_val = true_vals[block_ix, batch_ix, pred_actions]
        sums.add(slice(done, done + y), (best - chosen_val).T, cat.minority[idx].T)
        pred_total = running_sum(pred_total, (best - pred_val).T)

        chosen = x[block_ix, batch_ix, actions]
        rewards = chosen @ thetas[:, :, None] + np.stack([g.standard_normal(y) for g in rew])[:, :, None]
        if keep_rows:
            chosen_rows[:, done:done + y] = chosen

        gap = theta_bay - theta_freq
        norms = np.sqrt((gap[:, None, :] @ gap[:, :, None])[:, 0, 0])
        allowance += 2.0 * context_bound * norms * y
        for p in GAP_PROBE_ROUNDS:
            if done < p <= done + y:
                t0 = last_batch_end(p, batch_size)
                for i in range(n):
                    probes[i][p] = t0 * float(norms[i])

        Z += chosen.mT @ chosen
        xr += (chosen.mT @ rewards)[:, :, 0]
        done += y
        Z_sym = 0.5 * (Z + Z.mT)
        theta_freq = ols_estimate(Z_sym, xr)
        theta_bay = posterior_mean(Z_sym, xr, prior)
        cold = False

    return [
        PerturbedRunResult(
            float(pred_total[i]), float(allowance[i]), probes[i],
            None if chosen_rows is None else chosen_rows[i],
        )
        for i in range(n)
    ]


# Rounds of LinUCB inputs (entry draws, perturbations, reward noise) that the
# engine draws and scores at once.  Chunked draws continue each replicate's
# streams exactly, so the size bounds memory without changing any result.
NOISE_CHUNK = 256
# Rounds between rebuilds of LinUCB's cached inverses from the exact Gram
# matrices, which cap the floating-point drift of the rank-one updates.
REFRESH_EVERY = 10_000


@dataclass(frozen=True)
class LinUCBCell:
    """One horizon of a perturbed LinUCB call: its rounds, its width
    parameters, and the regret sums of its replicates."""

    horizon: int
    params: LinUCBParams
    sums: RegretSums


def run_perturbed_linucb(
    cat: Catalog,
    cells: list,
    thetas: np.ndarray,
    horizon: int,
    master_seed: int,
    replicates: tuple,
) -> None:
    """LinUCB on every (cell, replicate) row in one lockstep pass; the regret
    of each row goes to its cell's sums, and nothing else is reported.

    Row (``j``, ``i``) runs replicate ``replicates[i]``, whose latent weight
    vector is row ``i`` of ``thetas``, for ``cells[j].horizon`` rounds with the
    widths of ``cells[j].params``, and feeds column ``i`` of the cell's sums.
    ``horizon``, the rounds the call runs, must be the longest cell horizon.
    Each round makes one stacked score, width, argmax and rank-one
    (Sherman-Morrison) update of the cached inverses for every row still
    running; a row leaves at its cell's horizon.  Each replicate draws its
    inputs from its own streams, NOISE_CHUNK rounds at a time, once for all
    its rows, so a row sees the first rounds of the draws a replicate run
    alone at the longest horizon makes.  Every stacked product makes, per
    row, the BLAS call a single-replicate loop would make, and the sums add
    regret in round order, so a row's result depends neither on its block nor
    on its neighbours.

    Requires positive ridges; the cached inverses are rebuilt every
    REFRESH_EVERY rounds.
    """
    if not cells or horizon != max(cell.horizon for cell in cells):
        raise ValueError("horizon must be the longest cell horizon")
    if any(cell.params.ridge <= 0.0 for cell in cells):
        raise ValueError("the perturbed LinUCB engine needs a positive ridge")
    d, k = cat.dim, cat.n_actions
    n = len(replicates)
    theta_col = np.asarray(thetas, dtype=float).reshape(n, d, 1)
    f_tables = [interval_width(np.arange(cell.horizon), cell.params, d) for cell in cells]
    ctx, pert, rew = (
        [stream(master_seed, rep, purpose) for rep in replicates]
        for purpose in (Purpose.CONTEXTS, Purpose.PERTURBATIONS, Purpose.REWARDS)
    )

    # Rows run cell by cell, so the rows of every cell still running are one
    # contiguous stretch of n rows, and row r reads replicate r % n.
    live = list(range(len(cells)))
    row_rep = np.tile(np.arange(n), len(cells))
    ridge = np.repeat([cell.params.ridge for cell in cells], n)[:, None, None]
    Z = np.zeros((len(row_rep), d, d))
    xr = np.zeros((len(row_rep), d, 1))
    W = np.eye(d) / ridge
    theta_hat = np.zeros((len(row_rep), d, 1))

    stops = sorted({*range(NOISE_CHUNK, horizon, NOISE_CHUNK), *(cell.horizon for cell in cells)})
    start = 0
    for stop in stops:
        m = stop - start
        # Chunk arrays are round-major: x_rep[c] is round start + c of every
        # replicate, and x_rows[c] the same round of every running row.
        entries = cat.entries(np.stack([g.random(m) for g in ctx], axis=1))
        x_rep = cat.means[entries]
        for i, g in enumerate(pert):
            x_rep[:, i] += g.normal(0.0, cat.rho, size=(m, k, d))
        # A lone running cell's rows are the replicates, so it reads x_rep;
        # ``take`` keeps the gathered rows contiguous for the per-round BLAS.
        x_rows = x_rep if len(live) == 1 else x_rep.take(row_rep, axis=1)
        avail = cat.avail[entries]
        mask = np.where(avail.take(row_rep, axis=1), 0.0, -np.inf)
        # r * x for every action: r is the replicate's true value, taken as
        # the dot product a single-replicate loop takes for its chosen row,
        # plus the round's reward noise.
        rewards = (x_rep[..., None, :] @ theta_col[None, :, None])[..., 0, 0]
        rewards += np.stack([g.standard_normal(m) for g in rew], axis=1)[..., None]
        reward_x = (rewards[..., None] * x_rep).reshape(m, -1, d)
        x_flat = x_rep.reshape(m, -1, d)
        offsets = row_rep * k
        f_chunk = np.repeat([f_tables[j][start:stop] for j in live], n, axis=0).T[:, :, None]
        # Z is read only at a refresh, so the chosen rows' outer products are
        # folded into it, in round order, there and at the end of the chunk.
        chosen = np.empty((m, len(row_rep), d))
        actions = np.empty((m, len(row_rep)), dtype=np.int64)
        folded = 0
        for c, x in enumerate(x_rows):
            widths = x @ W
            np.multiply(widths, x, out=widths)
            widths = np.add.reduce(widths, axis=2)
            np.maximum(widths, 0.0, out=widths)
            np.sqrt(widths, out=widths)
            widths *= f_chunk[c]
            scores = (x @ theta_hat)[:, :, 0]
            scores += widths
            scores += mask[c]
            a = scores.argmax(axis=1)
            actions[c] = a
            at = offsets + a
            row = x_flat[c].take(at, axis=0)
            chosen[c] = row
            xr += reward_x[c].take(at, axis=0)[:, :, None]
            col = row[:, :, None]
            wx = W @ col
            denom = col.transpose(0, 2, 1) @ wx
            denom += 1.0
            step = wx * wx.transpose(0, 2, 1)
            step /= denom
            W -= step
            if (start + c + 1) % REFRESH_EVERY == 0:
                Z = _fold_outer(Z, chosen[folded:c + 1])
                folded = c + 1
                W = np.linalg.inv(0.5 * (Z + Z.transpose(0, 2, 1)) + ridge * np.eye(d))
                W = 0.5 * (W + W.transpose(0, 2, 1))
            theta_hat = W @ xr
        Z = _fold_outer(Z, chosen[folded:])

        true_vals = np.where(avail, (x_rep @ theta_col)[..., 0], -np.inf)
        chosen_vals = np.take_along_axis(true_vals.reshape(m, -1), offsets + actions, axis=1)
        inst = true_vals.max(axis=2).take(row_rep, axis=1) - chosen_vals
        minority = cat.minority[entries]
        for p, j in enumerate(live):
            cells[j].sums.add(slice(start, stop), inst[:, p * n:(p + 1) * n], minority)

        # Rows whose cell ends here leave the block.
        keep = np.repeat([cells[j].horizon > stop for j in live], n)
        if not keep.all():
            live = [j for j in live if cells[j].horizon > stop]
            Z, xr, W, theta_hat, ridge = (arr[keep] for arr in (Z, xr, W, theta_hat, ridge))
            row_rep = row_rep[:keep.sum()]
        start = stop


def _fold_outer(Z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``Z`` plus the outer product of each of ``rows`` (rounds, replicates,
    d) with itself, added one round at a time in round order."""
    outer = rows[..., :, None] * rows[..., None, :]
    return np.add.reduce(np.concatenate((Z[None], outer)), axis=0)
