"""Per-round references that the vectorized engines are checked against.

One ``ContextRound`` holds one round's available actions, each a vector that
``as_context`` validates, and the ``Group`` of the round.  ``linucb_scores``,
``greedy_select`` and ``instantaneous_regret`` decide and score that round
alone, and ``bayes_posterior_mean`` validates and inverts the prior on every
call.  The engines in ``banditsim.engines`` make the same decisions over whole
stretches of rounds; the tests hold them to these definitions.  ``parse_csv``
reads a result table back into rows.

``draw_entries`` draws a perturbed catalog's entries, one uniform per round,
from a mixture table it builds from the catalog's weights and groups.
``single_replicate_greedy`` runs batched greedy on one replicate, one batch at
a time, and ``single_replicate_linucb`` runs LinUCB on one replicate, one round
at a time, each with the arithmetic of its lockstep engine's per-replicate
slice.

``simulate_reward_rows`` synthesizes one reward per row of a batch-reward
matrix, and ``chunked_simulated_rewards`` draws those matrices a stretch of
``SIM_CHUNK`` rows at a time: the streaming ``simulate_reward_many`` must
return their bits.

For the two-bridge instance, ``kind_codes`` draws the round kinds as codes,
``scalar_interval_width`` evaluates one LinUCB width at a time,
``closed_form_ucb`` gives the diagonal-design bounds of one B round, and
``linucb_picks_per_round`` decides the B rounds one at a time with them.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from banditsim.core import last_batch_end
from banditsim.csvio import HEADER, ResultRow
from banditsim.engines import GAP_PROBE_ROUNDS, PerturbedRunResult
from banditsim.estimators import SINGULAR_CUTOFF, gaussian_prior, ols_estimate, posterior_mean
from banditsim.metrics import running_sum
from banditsim.policies import LinUCBParams, context_norm_bound
from banditsim.rng import Purpose, stream
from banditsim.simulation import SIM_CHUNK, RadiusError

# The two-bridge instance's contexts: the top and the bottom bridge.
TOP = np.array([1.0, 0.0])
BOTTOM = np.array([0.0, 1.0])

# Codes of the two-bridge round kinds: majority (A), single-context (C) and
# both-bridges (B) rounds.
KIND_A, KIND_C, KIND_B = 0, 1, 2


def kind_codes(cfg, rng: np.random.Generator, horizon: int) -> np.ndarray:
    """Draw the round-kind sequence with one uniform per round."""
    p_a, p_c, _ = cfg.kind_probabilities()
    u = rng.random(horizon)
    return np.where(u < p_a, KIND_A, np.where(u < p_a + p_c, KIND_C, KIND_B)).astype(np.int8)


def scalar_interval_width(t_obs: int, params: LinUCBParams, d: int) -> float:
    """The LinUCB confidence multiplier f after ``t_obs`` observations."""
    if t_obs < 0:
        raise ValueError("observation count must be nonnegative")
    t_total = params.horizon
    return params.S + math.sqrt(d * math.log(t_total + t_obs * t_total * params.L**2))


def closed_form_ucb(n1: int, s1: float, n2: int, s2: float, f: float) -> tuple:
    """Diagonal-design UCB pair for the two-bridge instance.

    With only basis contexts observed, Z stays diagonal with the pull counts
    on its diagonal, so each bridge's bound is its mean reward plus
    ``f / sqrt(count)``; zero-count bridges get an infinite bound.
    """
    u1 = math.inf if n1 == 0 else s1 / n1 + f / math.sqrt(n1)
    u2 = math.inf if n2 == 0 else s2 / n2 + f / math.sqrt(n2)
    return u1, u2


def linucb_picks_per_round(top_before, bot_before, seg_top, seg_bot, cand_top, cand_bot, params) -> np.ndarray:
    """Two-bridge LinUCB decided one B round at a time; True picks the top bridge.

    Takes the arguments of ``banditsim.engines.linucb_picks_top``: before B
    round ``k`` each bridge gains its forced pulls since the last B round and
    their reward sum ``seg_*[k]``, and the picked bridge then gains the
    round's ``cand_*[k]``.
    """
    top_inc = np.diff(top_before, prepend=0)
    bot_inc = np.diff(bot_before, prepend=0)
    picks = np.empty(len(top_inc), dtype=bool)
    n1 = n2 = 0
    s1 = s2 = 0.0
    for k in range(len(top_inc)):
        n1 += int(top_inc[k])
        s1 += float(seg_top[k])
        n2 += int(bot_inc[k])
        s2 += float(seg_bot[k])
        f = scalar_interval_width(n1 + n2, params, 2)
        u1, u2 = closed_form_ucb(n1, s1, n2, s2, f)
        picks[k] = u1 >= u2
        if picks[k]:
            n1 += 1
            s1 += float(cand_top[k])
        else:
            n2 += 1
            s2 += float(cand_bot[k])
    return picks


class Group(Enum):
    MAJORITY = "majority"
    MINORITY = "minority"


def as_context(coords, d: int | None = None) -> np.ndarray:
    """Validate coordinates and return them as a 1-d float64 vector.

    Parameters
    ----------
    coords : array-like
        Candidate context coordinates.
    d : int, optional
        Required dimension; mismatches raise ``ValueError``.
    """
    x = np.asarray(coords, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("context vector must be one-dimensional and non-empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("context vector coordinates must be finite")
    if d is not None and x.shape[0] != d:
        raise ValueError(f"context vector has dimension {x.shape[0]}, expected {d}")
    return x


@dataclass(frozen=True)
class ContextRound:
    """One round of available actions.

    ``contexts`` holds one optional vector per action slot; ``None`` marks an
    unavailable action.  Every available vector must share one dimension.
    """

    contexts: tuple
    group: Group
    round_index: int = 1

    def __post_init__(self):
        if not isinstance(self.contexts, tuple):
            object.__setattr__(self, "contexts", tuple(self.contexts))
        if len(self.contexts) < 1:
            raise ValueError("a round needs at least one action slot")
        if self.round_index < 1:
            raise ValueError("round_index starts at 1")
        avail = [c for c in self.contexts if c is not None]
        if not avail:
            raise ValueError("at least one context must be available")
        first = as_context(avail[0])
        for c in avail[1:]:
            as_context(c, first.shape[0])

    @property
    def n_actions(self) -> int:
        return len(self.contexts)

    @property
    def dim(self) -> int:
        for c in self.contexts:
            if c is not None:
                return np.asarray(c).shape[0]
        raise ValueError("no available context")

    def available_indices(self) -> tuple:
        return tuple(i for i, c in enumerate(self.contexts) if c is not None)

    def is_available(self, a: int) -> bool:
        return 0 <= a < len(self.contexts) and self.contexts[a] is not None


def empty_stats(d: int) -> tuple:
    """The Gram matrix and reward-weighted sum ``(Z, xr)`` of no observations in dimension ``d``."""
    return np.zeros((d, d)), np.zeros(d)


def _ucb_terms(Z: np.ndarray, xr: np.ndarray, ridge: float):
    """Point estimate and a quadratic-form evaluator for the width term.

    With ridge 0 and singular Z the evaluator returns ``inf`` for any vector
    touching the null space of Z, which forces exploration of unseen
    directions.
    """
    d = Z.shape[0]
    if ridge > 0.0:
        A = Z + ridge * np.eye(d)
        A_inv = np.linalg.inv(A)
        A_inv = 0.5 * (A_inv + A_inv.T)
        theta_hat = A_inv @ xr

        def quad(x: np.ndarray) -> float:
            return float(x @ A_inv @ x)

        return theta_hat, quad

    vals, vecs = np.linalg.eigh(Z)
    cutoff = SINGULAR_CUTOFF * max(float(vals.max(initial=0.0)), 1e-300)
    keep = vals > cutoff
    inv_vals = np.zeros_like(vals)
    inv_vals[keep] = 1.0 / vals[keep]
    theta_hat = (vecs * inv_vals) @ (vecs.T @ xr)

    def quad(x: np.ndarray) -> float:
        comps = vecs.T @ x
        null_mass = float(np.linalg.norm(comps[~keep])) if (~keep).any() else 0.0
        if null_mass > 1e-9 * max(1.0, float(np.linalg.norm(x))):
            return math.inf
        return float(np.sum(comps[keep] ** 2 * inv_vals[keep]))

    return theta_hat, quad


def linucb_scores(round_: ContextRound, Z: np.ndarray, xr: np.ndarray, f: float, ridge: float) -> np.ndarray:
    """Upper confidence bounds per action slot given the Gram matrix ``Z`` and
    reward-weighted sum ``xr``; unavailable slots score -inf."""
    theta_hat, quad = _ucb_terms(Z, xr, ridge)
    scores = np.full(round_.n_actions, -math.inf)
    for a in round_.available_indices():
        x = round_.contexts[a]
        q = quad(x)
        if math.isinf(q):
            scores[a] = math.inf
        else:
            scores[a] = float(x @ theta_hat) + f * math.sqrt(max(q, 0.0))
    return scores


def greedy_select(round_: ContextRound, estimate: np.ndarray) -> int:
    """Greedy action under a point estimate; ties go to the lowest index."""
    estimate = np.asarray(estimate, dtype=float)
    best, best_val = -1, -math.inf
    for a in round_.available_indices():
        val = float(round_.contexts[a] @ estimate)
        if val > best_val:
            best, best_val = a, val
    return best


def instantaneous_regret(theta: np.ndarray, round_: ContextRound, chosen: int) -> float:
    """Best available mean reward minus the chosen action's mean reward.

    The mean rewards are one product of the stacked available contexts with
    ``theta``, the product the engines take of a round's contexts; a dot
    product per context can round differently in the last bit.
    """
    if not round_.is_available(chosen):
        raise ValueError(f"chosen action {chosen} is unavailable in round {round_.round_index}")
    available = round_.available_indices()
    vals = np.stack([round_.contexts[a] for a in available]) @ np.asarray(theta, dtype=float)
    return float(vals.max() - vals[available.index(chosen)])


def bayes_posterior_mean(
    Z: np.ndarray,
    xr: np.ndarray,
    prior_mean: np.ndarray,
    prior_cov: np.ndarray,
) -> np.ndarray:
    """Posterior mean under the prior (prior_mean, prior_cov); see ``posterior_mean``."""
    return posterior_mean(Z, xr, gaussian_prior(prior_mean, prior_cov))


def draw_entries(cat, n: int, rng: np.random.Generator) -> np.ndarray:
    """Entries of ``n`` rounds, one uniform each.

    The group-first law in entry order: an entry's mass is its weight over
    its group's total times the group's probability, one group of
    probability 1 on a one-group catalog.  A uniform beyond the last
    cumulative mass, which rounding can leave below 1, picks the last entry.
    """
    w = np.asarray(cat.weights, dtype=float)
    mass = w / w.sum()
    if cat.minority_prob > 0.0:
        for group, p in ((cat.minority, cat.minority_prob), (~cat.minority, 1.0 - cat.minority_prob)):
            mass[group] = w[group] / w[group].sum() * p
    idx = np.searchsorted(np.cumsum(mass), rng.random(n), side="right")
    return np.minimum(idx, w.size - 1)


def single_replicate_greedy(
    cat, prior, theta, horizon, batch_size, master_seed, replicate, sums,
    acting="freq", keep_rows=False,
) -> PerturbedRunResult:
    """Batched greedy on one replicate, one batch at a time.

    Takes the arguments of ``banditsim.engines.run_perturbed_batch_greedy``
    for one replicate, with ``theta`` its latent weight vector, and makes, call
    for call, the products and solves of that engine's per-replicate slice.
    """
    if acting not in ("freq", "bayes"):
        raise ValueError(f"acting must be 'freq' or 'bayes', not {acting!r}")
    d, k = cat.dim, cat.n_actions
    ctx = stream(master_seed, replicate, Purpose.CONTEXTS)
    pert = stream(master_seed, replicate, Purpose.PERTURBATIONS)
    rew = stream(master_seed, replicate, Purpose.REWARDS)
    pol = stream(master_seed, replicate, Purpose.POLICY)

    Z = np.zeros((d, d))
    xr = np.zeros(d)
    theta_freq = np.zeros(d)
    theta_bay = prior.mean.copy()
    cold = True

    pred_total = allowance = 0.0
    context_bound = context_norm_bound(cat.rho, d, horizon, k)
    probes = {}
    chosen_rows = np.empty((horizon, d)) if keep_rows else None

    done = 0
    while done < horizon:
        y = min(batch_size, horizon - done)
        idx = draw_entries(cat, y, ctx)
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

        allowance += 2.0 * context_bound * float(np.linalg.norm(theta_bay - theta_freq)) * y
        for p in GAP_PROBE_ROUNDS:
            if done < p <= done + y:
                t0 = last_batch_end(p, batch_size)
                probes[p] = t0 * float(np.linalg.norm(theta_bay - theta_freq))

        Z += chosen.T @ chosen
        xr += chosen.T @ rewards
        done += y
        Z_sym = 0.5 * (Z + Z.T)
        theta_freq = ols_estimate(Z_sym, xr)
        theta_bay = posterior_mean(Z_sym, xr, prior)
        cold = False

    return PerturbedRunResult(float(pred_total), allowance, probes, chosen_rows)


def single_replicate_linucb(
    cat, params, theta, horizon, master_seed, replicate,
    refresh_every=10_000, restriction="minority", restriction_p=0.5,
):
    """Per-round LinUCB on one replicate with a rank-one-updated cached inverse.

    Takes the arguments of one row of ``banditsim.engines.run_perturbed_linucb``,
    with ``theta`` its latent weight vector, draws the whole horizon of each
    stream at once, and makes, call for call, the products of that engine's
    per-row slice; returns (regret_total, regret_minority, curve).
    """
    d, k = cat.dim, cat.n_actions
    ctx = stream(master_seed, replicate, Purpose.CONTEXTS)
    pert = stream(master_seed, replicate, Purpose.PERTURBATIONS)
    rew = stream(master_seed, replicate, Purpose.REWARDS)

    idx = draw_entries(cat, horizon, ctx)
    noise = pert.normal(0.0, cat.rho, size=(horizon, k, d))
    reward_noise = rew.standard_normal(horizon)

    f_table = np.array([scalar_interval_width(t, params, d) for t in range(horizon)])

    Z = np.zeros((d, d))
    xr = np.zeros(d)
    W = np.eye(d) / params.ridge
    theta_hat = np.zeros(d)
    theta = np.asarray(theta, dtype=float)

    total = minority_total = 0.0
    inst_curve = np.empty(horizon)
    in_set = cat.minority[idx]
    if restriction == "coin":
        in_set = stream(master_seed, replicate, Purpose.RESTRICTION).random(horizon) < restriction_p
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
    return total, minority_total, np.cumsum(inst_curve)


def simulate_reward_rows(weights, batch_reward_draws, rng) -> np.ndarray:
    """One reward per row of ``batch_reward_draws`` (m, Y): the weighted row
    plus top-up noise of the residual variance, drawn after the rows."""
    R = np.asarray(batch_reward_draws, dtype=float)
    if R.ndim != 2 or R.shape[1] != weights.batch_length:
        raise ValueError("draws must form an (m, Y) matrix")
    if weights.residual_var < 0.0:
        raise RadiusError("target outside the simulation radius")
    values = np.einsum("ij,j->i", R, weights.w)
    if weights.residual_var > 0.0:
        values = values + math.sqrt(weights.residual_var) * rng.standard_normal(R.shape[0])
    return values


def chunked_simulated_rewards(weights, batch_means, n, rng) -> np.ndarray:
    """``n`` simulated rewards, drawing a whole (m, Y) batch-reward matrix per
    stretch of ``SIM_CHUNK`` rows; same arguments as ``simulate_reward_many``."""
    sims = np.empty(n)
    for start in range(0, n, SIM_CHUNK):
        m = min(SIM_CHUNK, n - start)
        draws = batch_means[None, :] + rng.standard_normal((m, batch_means.shape[0]))
        sims[start:start + m] = simulate_reward_rows(weights, draws, rng)
    return sims


def parse_csv(text: str) -> list:
    """Parse ``emit_csv`` output back into rows; exact float round-trip."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != HEADER:
        raise ValueError(f"unexpected header: {header}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        if len(rec) != len(HEADER):
            raise ValueError(f"malformed row: {rec}")
        rows.append(
            ResultRow(
                experiment=rec[0],
                policy=rec[1],
                horizon=int(rec[2]),
                replicate=int(rec[3]),
                seed=int(rec[4]),
                regret_total=float(rec[5]),
                regret_minority=float(rec[6]),
                regret_prediction=float(rec[7]),
                theta_draw_id=int(rec[8]),
            )
        )
    return rows
