"""Vectorized replicate engines behind the experiment harness.

The two-bridge engines exploit the instance's structure: majority (A) and
single-context (C) rounds force the choice, so only B rounds are decision
points and the forced stretches between them collapse to bulk reward-sum
draws.  Two-bridge LinUCB then decides its B rounds one stretch of equal picks
at a time (``linucb_picks_top``), one replicate per call: a replicate takes
one vector pass per switch of bridges plus one, not a Python step per B round;
of 1,920 measured replicates, 8 switched once and none more often.  Batched
greedy decides its warm batches in stretches the same way.  A two-bridge
replicate draws its round kinds once (``two_bridge_rounds``), at the longest
horizon its caller runs, and every (policy, horizon) call on it reads the
prefix below its own horizon, which is what a run of that horizon alone
draws.  Two-bridge replicates are not run in lockstep: a block of 32 raised a
pool worker's peak RSS from 39 MB to 52-54 MB, and blocks small enough to
keep it barely ran faster.  The perturbed engines advance a block of replicates in
lockstep, each replicate from its own streams, and pick each round's catalog
entry with one uniform (``Catalog.entries``), for every cell of the block at
once with each replicate's inputs drawn once for all its cells: batched
greedy one stacked step per batch for both acting rules at every horizon,
with the estimators solving every replicate's system in one stacked call,
and LinUCB one stacked step per round over cached inverses for every
horizon, NOISE_CHUNK rounds of inputs at a time.  Each replicate's result is
bit for bit what it would be alone, so results are identical under any
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

# Warm batches whose pick sums two-bridge batched greedy draws at once after
# a switch of bridges; the window doubles while the picks hold.  Drawing every
# remaining batch instead made a replicate that switches often slower than a
# loop over its batches.
STRETCH_BATCHES = 256

# Rounds at which batched greedy probes the posterior/least-squares gap.
GAP_PROBE_ROUNDS = (1000, 8000)


@dataclass(frozen=True)
class TwoBridgeRunResult:
    wrong_b_rounds: int
    b_rounds: int


@dataclass(frozen=True)
class TwoBridgeRounds:
    """The round kinds of one two-bridge replicate over its first ``horizon``
    rounds: the positions of its majority (A) rounds and of its B rounds."""

    horizon: int
    a_pos: np.ndarray
    b_pos: np.ndarray

    def before(self, horizon: int) -> tuple:
        """The A and B positions below ``horizon``, the kinds of a run of that many rounds."""
        if horizon > self.horizon:
            raise ValueError(f"rounds drawn for {self.horizon} rounds cannot serve a run of {horizon}")
        return tuple(pos[:np.searchsorted(pos, horizon)] for pos in (self.a_pos, self.b_pos))


def two_bridge_rounds(cfg: TwoBridgeConfig, master_seed: int, replicate: int) -> TwoBridgeRounds:
    """Draw the round kinds of a replicate over ``cfg.horizon`` rounds, one
    uniform per round from its CONTEXTS stream.

    A round is A when its uniform falls below ``p_a``, B when it reaches
    ``p_a + p_c`` and single-context (C) in between.  ``Generator.random``
    makes one double from each 64-bit output, in order, so a shorter run's
    kinds are the first rounds of a longer run's (``TwoBridgeRounds.before``),
    and the CONTEXTS stream of a run of T rounds continues where it stands
    after ``bit_generator.advance(T)``.
    """
    p_a, p_c, _ = cfg.kind_probabilities()
    u = stream(master_seed, replicate, Purpose.CONTEXTS).random(int(cfg.horizon))
    return TwoBridgeRounds(int(cfg.horizon), np.flatnonzero(u < p_a), np.flatnonzero(u >= p_a + p_c))


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
    rounds: TwoBridgeRounds,
    policy_name: str,
    master_seed: int,
    replicate: int,
    sums: RegretSums,
) -> TwoBridgeRunResult:
    """One two-bridge replicate for linucb, linucb_full, linucb_minority,
    uniform_random or oracle, on the first ``cfg.horizon`` rounds of
    ``rounds``, which ``two_bridge_rounds`` drew for this replicate at
    ``cfg.horizon`` or longer on the same population.

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

    a_pos, b_pos = rounds.before(horizon)
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
            # The injected counts follow the kinds of a run of ``horizon`` rounds.
            ctx = stream(master_seed, replicate, Purpose.CONTEXTS)
            ctx.bit_generator.advance(horizon)
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
    rounds: TwoBridgeRounds,
    master_seed: int,
    replicate: int,
    batch_size: int,
    sums: RegretSums,
) -> TwoBridgeRunResult:
    """Batched frequentist greedy on the two-bridge instance, on the first
    ``cfg.horizon`` rounds of ``rounds`` (as in ``run_two_bridge_policy``).

    The acting estimate is frozen per batch, so each batch picks one bridge
    for all of its B rounds; the cold-start batch picks uniformly at random
    per B round.  ``sums`` is fed as in ``run_two_bridge_policy``.

    The warm batches are decided one stretch of equal picks at a time, as
    ``linucb_picks_top`` decides B rounds: draw in one call the pick sums of
    a window of batches, as if each picked the current bridge; follow both
    bridges' counts and running sums along that path (``np.add.accumulate``
    adds in the per-batch order, pick sum then forced sums, so the sums are
    the same floats); and end the stretch at the first batch whose estimates
    pick the other bridge.  A vector draw consumes the stream value by value,
    as one draw per batch does, so a stretch that ends inside its window
    rewinds the stream and redraws only its own pick sums.  The window spans
    STRETCH_BATCHES batches after each switch and doubles while the picks
    hold, so a switch wastes at most that many draws however many batches
    remain.
    """
    horizon = int(cfg.horizon)
    means = tuple(float(v) for v in cfg.theta)
    top_best = means[0] > means[1]
    gap_size = abs(means[0] - means[1])

    rew = stream(master_seed, replicate, Purpose.REWARDS)
    pol = stream(master_seed, replicate, Purpose.POLICY)

    a_pos, b_pos = rounds.before(horizon)
    n_batches = math.ceil(horizon / batch_size)
    bounds = np.append(np.arange(0, horizon, batch_size), horizon)
    count_a = np.diff(np.searchsorted(a_pos, bounds))
    first_b = np.searchsorted(b_pos, bounds)
    count_b = np.diff(first_b)
    # Forced pulls of each batch per bridge: its A rounds on the top bridge,
    # its C rounds on the bottom one, with their reward sums.
    forced = (count_a, np.diff(bounds) - count_a - count_b)
    forced_sums = tuple(_seg_sums(forced[b], means[b], cfg.noise, rew) for b in (0, 1))

    # The cold batch has no data: the least-squares estimate is the zero
    # vector and every B round resolves its tie uniformly at random.
    # Attribution within it is uniform in law; pin its wrong picks to its
    # earliest B rounds.
    nb = int(count_b[0])
    picks_top = int(pol.binomial(nb, 0.5)) if nb else 0
    picks = (picks_top, nb - picks_top)
    wrong_runs = [b_pos[:picks[1] if top_best else picks[0]]]
    counts, totals = [0, 0], [0.0, 0.0]
    for b in (0, 1):
        if picks[b]:
            counts[b] += picks[b]
            totals[b] += float(_seg_sums(picks[b], means[b], cfg.noise, rew))
        # Forced pulls of a batch enter the statistics after its decisions.
        counts[b] += int(forced[b][0])
        totals[b] += float(forced_sums[b][0])

    k, width = 1, STRETCH_BATCHES
    est = [totals[b] / counts[b] if counts[b] else 0.0 for b in (0, 1)]
    side = 0 if est[0] >= est[1] else 1
    while k < n_batches:
        m = min(n_batches - k, width)
        nb = count_b[k:k + m]
        drawn = np.flatnonzero(nb)
        state = rew.bit_generator.state
        pick_sums = np.zeros(m)
        pick_sums[drawn] = _seg_sums(nb[drawn], means[side], cfg.noise, rew)
        # Each bridge's count and reward sum after each batch of the window.
        after_n, after_s = [], []
        for b in (0, 1):
            stride = 2 if b == side else 1
            seq = np.empty(stride * m + 1)
            seq[0] = totals[b]
            seq[stride::stride] = forced_sums[b][k:k + m]
            if stride == 2:
                seq[1::2] = pick_sums
            after_s.append(np.add.accumulate(seq)[stride::stride])
            after_n.append(counts[b] + np.cumsum(forced[b][k:k + m] + (nb if stride == 2 else 0)))
        # The estimates after batch k + i decide batch k + i + 1.
        est = [np.divide(after_s[b], after_n[b], out=np.zeros(m), where=after_n[b] > 0) for b in (0, 1)]
        switch = np.flatnonzero((est[0] >= est[1]) != (side == 0))
        j = int(switch[0]) + 1 if switch.size else m
        if j < m:
            rew.bit_generator.state = state
            _seg_sums(nb[drawn[:np.searchsorted(drawn, j)]], means[side], cfg.noise, rew)
        if (side == 0) != top_best:
            wrong_runs.append(b_pos[first_b[k]:first_b[k + j]])
        counts = [int(after_n[b][j - 1]) for b in (0, 1)]
        totals = [float(after_s[b][j - 1]) for b in (0, 1)]
        k += j
        if switch.size:
            side, width = 1 - side, STRETCH_BATCHES
        else:
            width *= 2
    return _two_bridge_result(sums, gap_size, np.concatenate(wrong_runs), b_pos.size)


@dataclass
class PerturbedRunResult:
    """What batched greedy reports of one (cell, replicate) beside its regret sums."""

    regret_prediction: float
    gap_allowance: float
    probe_values: dict
    chosen_rows: np.ndarray | None = None


@dataclass(frozen=True)
class GreedyCell:
    """One horizon of one acting rule in a batched greedy call: its rounds,
    its frozen acting estimate ("freq" for least squares, "bayes" for the
    posterior mean), and the regret sums of its replicates."""

    horizon: int
    acting: str
    sums: RegretSums


def run_perturbed_batch_greedy(
    cat: Catalog,
    prior: GaussianPrior,
    cells: list,
    thetas: np.ndarray,
    horizon: int,
    batch_size: int,
    master_seed: int,
    replicates: tuple,
    keep_rows: bool = False,
) -> list:
    """Batched greedy on every (cell, replicate) in one lockstep pass, one
    batch at a time; per cell, one result per replicate.

    Cell ``j`` runs replicate ``replicates[i]``, whose latent weight vector is
    row ``i`` of ``thetas``, for ``cells[j].horizon`` rounds greedy on the
    estimate ``cells[j].acting`` names ("freq" or "bayes"; any other value is
    a ``ValueError``), and feeds column ``i`` of the cell's sums.
    ``horizon``, the rounds the call runs, must be the longest cell horizon.
    Each batch draws every replicate's inputs once, from its own streams in
    the order a replicate run alone draws them: entries, perturbations,
    reward noise, and in the cold batch the frequentist rule's random scores.
    The contexts, true values and best values are then shared by both acting
    rules; each rule scores, picks and updates its own estimates, and feeds
    every cell of that rule still running, cut at the cell's horizon.  A
    shorter horizon's draws are the first rounds of the longer one's, so a
    cell's result is what a call of that cell alone returns.  Every stacked
    product makes, per replicate, the BLAS call a single-replicate loop would
    make (a flat (y k, d) by (d,) product for the scores, a dot product for
    each norm), the estimators solve each replicate's system as they would
    alone, and the sums add regret in round order, so a result depends neither
    on the block nor on the other cells.

    ``gap_allowance`` accumulates ``2 R ||theta_bay - theta_freq||`` per round
    with the batch-frozen estimates of the cell's rule and R =
    ``context_norm_bound`` at the cell's horizon, the per-round bound on how
    far the two greedy rules' reward predictions can disagree.
    ``probe_values`` maps each of GAP_PROBE_ROUNDS within the cell's horizon
    to ``t0 ||theta_bay - theta_freq||``, t0 the last batch end before it.
    The prediction regret, of greedy on the rule's posterior mean, is summed
    in round order too.  ``keep_rows`` keeps the chosen context of every round.
    """
    if not cells or horizon != max(cell.horizon for cell in cells):
        raise ValueError("horizon must be the longest cell horizon")
    for cell in cells:
        if cell.acting not in ("freq", "bayes"):
            raise ValueError(f"acting must be 'freq' or 'bayes', not {cell.acting!r}")
    d, k = cat.dim, cat.n_actions
    n = len(replicates)
    thetas = np.asarray(thetas, dtype=float).reshape(n, d)
    ctx, pert, rew = (
        [stream(master_seed, rep, purpose) for rep in replicates]
        for purpose in (Purpose.CONTEXTS, Purpose.PERTURBATIONS, Purpose.REWARDS)
    )

    # Estimator state, one slice per acting rule along the leading axis.
    rules = list(dict.fromkeys(cell.acting for cell in cells))
    cell_rule = [rules.index(cell.acting) for cell in cells]
    Z = np.zeros((len(rules), n, d, d))
    xr = np.zeros((len(rules), n, d))
    theta_freq = np.zeros((len(rules), n, d))
    theta_bay = np.tile(prior.mean, (len(rules), n, 1))

    pred_total = [np.zeros(n) for _ in cells]
    allowance = [np.zeros(n) for _ in cells]
    context_bound = [context_norm_bound(cat.rho, d, cell.horizon, k) for cell in cells]
    probes = [[{} for _ in range(n)] for _ in cells]
    chosen_rows = np.empty((len(rules), n, horizon, d)) if keep_rows else None

    def values(x, v):
        """Each replicate's rows of ``x`` (n, y, k, d) times its row of ``v``."""
        return (x.reshape(n, -1, d) @ v[:, :, None]).reshape(x.shape[:3])

    done = 0
    while done < horizon:
        y = min(batch_size, horizon - done)
        idx = cat.entries(np.stack([g.random(y) for g in ctx]))
        x = cat.means.take(idx, axis=0)
        x += np.stack([g.normal(0.0, cat.rho, size=(y, k, d)) for g in pert])
        avail = cat.avail.take(idx, axis=0)
        noise = np.stack([g.standard_normal(y) for g in rew])[:, :, None]

        true_vals = np.where(avail, values(x, thetas), -np.inf)
        # Slot by slot: a reduction over the short last axis costs several times more.
        best = true_vals[:, :, 0].copy()
        for a in range(1, k):
            np.maximum(best, true_vals[:, :, a], out=best)

        actions = np.empty((len(rules), n, y), dtype=np.intp)
        pred_actions = np.empty((len(rules), n, y), dtype=np.intp)
        for r, acting in enumerate(rules):
            pred_scores = np.where(avail, values(x, theta_bay[r]), -np.inf)
            if acting == "bayes":
                scores = pred_scores
            elif done == 0:
                cold = [stream(master_seed, rep, Purpose.POLICY).random((y, k)) for rep in replicates]
                scores = np.where(avail, np.stack(cold), -np.inf)
            else:
                scores = np.where(avail, values(x, theta_freq[r]), -np.inf)
            actions[r] = np.argmax(scores, axis=2)
            pred_actions[r] = actions[r] if acting == "bayes" else np.argmax(pred_scores, axis=2)

        # Flat positions of the picks in the (n, y, k) arrays, read with one
        # ``take`` each: indexing with three index arrays costs several times more.
        offsets = np.arange(0, n * y * k, k).reshape(n, y)
        actions += offsets
        pred_actions += offsets
        true_flat = true_vals.reshape(-1)
        inst = best - true_flat.take(actions)
        pred_inst = best - true_flat.take(pred_actions)
        chosen = x.reshape(-1, d).take(actions, axis=0)
        if keep_rows:
            chosen_rows[:, :, done:done + y] = chosen

        gap = theta_bay - theta_freq
        norms = np.sqrt((gap[..., None, :] @ gap[..., :, None])[..., 0, 0])
        minority = cat.minority.take(idx)
        for j, cell in enumerate(cells):
            if cell.horizon <= done:
                continue
            r, m = cell_rule[j], min(y, cell.horizon - done)
            cell.sums.add(slice(done, done + m), inst[r, :, :m].T, minority[:, :m].T)
            pred_total[j] = running_sum(pred_total[j], pred_inst[r, :, :m].T)
            allowance[j] += 2.0 * context_bound[j] * norms[r] * m
            for p in GAP_PROBE_ROUNDS:
                if done < p <= done + m:
                    t0 = last_batch_end(p, batch_size)
                    for i in range(n):
                        probes[j][i][p] = t0 * float(norms[r, i])

        done += y
        if done == horizon:
            break  # no batch reads the estimates after the last one
        rewards = chosen @ thetas[:, :, None] + noise
        Z += chosen.mT @ chosen
        xr += (chosen.mT @ rewards)[..., 0]
        Z_sym = (0.5 * (Z + Z.mT)).reshape(-1, d, d)
        theta_freq = ols_estimate(Z_sym, xr.reshape(-1, d)).reshape(theta_freq.shape)
        theta_bay = posterior_mean(Z_sym, xr.reshape(-1, d), prior).reshape(theta_bay.shape)

    return [
        [
            PerturbedRunResult(
                float(pred_total[j][i]), float(allowance[j][i]), probes[j][i],
                None if chosen_rows is None else chosen_rows[cell_rule[j], i, :cell.horizon],
            )
            for i in range(n)
        ]
        for j, cell in enumerate(cells)
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
