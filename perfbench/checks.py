"""Output checks for one command of a workload.

Every expectation is derived from the config the benchmark wrote, from the
documented seed-derivation rule, or from a property the method must have.
None compares against a stored copy of earlier output.

An operation is one expected CSV row (a job) or, for the simulation audit,
one KS target.  A failed check marks the operations it speaks about; a check
on the whole output (exit code, fitted exponents, bound flags) marks every
operation of the command.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from workloads import MAX_REJECTIONS, VERIFY, Workload

CSV_HEADER = ("experiment", "policy", "T", "replicate", "seed", "regret_total",
              "regret_minority", "regret_prediction", "theta_draw_id")
CURVES_HEADER = ("experiment", "policy", "T", "round", "cum_regret")

# Purpose code of the theta stream in the program's documented key-derivation
# rule SeedSequence(master_seed, spawn_key=(replicate, purpose)).
THETA_PURPOSE = 3

MAX_EXPONENT = 0.55
FLOAT_TOL = 1e-12


class Verdict:
    """Operations of one command and the checks they failed."""

    def __init__(self, operations):
        self.operations = list(operations)
        self.failed: set = set()
        self.problems: list = []

    def fail(self, problem: str, ops=None) -> None:
        self.problems.append(problem)
        self.failed.update(self.operations if ops is None else ops)

    def require(self, ok: bool, problem: str, ops=None) -> None:
        if not ok:
            self.fail(problem, ops)


def replicate_seed_id(master_seed: int, rep: int) -> int:
    ss = np.random.SeedSequence(master_seed, spawn_key=(rep,))
    return int(ss.generate_state(1, np.uint64)[0])


def theta_coin(master_seed: int, rep: int) -> int:
    ss = np.random.SeedSequence(master_seed, spawn_key=(rep, THETA_PURPOSE))
    return int(np.random.Generator(np.random.PCG64(ss)).random() < 0.5)


def _mean(values) -> float:
    return math.fsum(values) / len(values)


def check_command(workload: Workload, seed: int, exit_code, outputs: dict) -> Verdict:
    """Check one command's outputs; ``outputs`` maps file name to text (None if absent)."""
    verdict = Verdict(workload.operations())
    if exit_code != 0:
        verdict.fail(f"exit code {exit_code}")
        return verdict
    try:
        if workload.command == VERIFY:
            _check_audit(workload, outputs["report.json"], verdict)
        else:
            _check_run(workload, seed, outputs, verdict)
    except (KeyError, TypeError, ValueError) as exc:
        verdict.fail(f"malformed output: {type(exc).__name__}: {exc}")
    return verdict


def _parse_rows(text: str, verdict: Verdict) -> list:
    records = list(csv.reader(io.StringIO(text)))
    if not records or tuple(records[0]) != CSV_HEADER:
        verdict.fail(f"CSV header is {records[0] if records else None}")
        return []
    rows = []
    for rec in records[1:]:
        if len(rec) != len(CSV_HEADER):
            verdict.fail(f"malformed CSV row {rec}")
            continue
        rows.append({
            "experiment": rec[0], "policy": rec[1], "T": int(rec[2]), "rep": int(rec[3]),
            "seed": int(rec[4]), "total": float(rec[5]), "minority": float(rec[6]),
            "prediction": float(rec[7]), "theta": int(rec[8]),
        })
    return rows


def _check_run(workload: Workload, seed: int, outputs: dict, verdict: Verdict) -> None:
    expected = set(verdict.operations)
    rows = _parse_rows(outputs["results.csv"], verdict)
    by_job: dict = {}
    for row in rows:
        job = (row["policy"], row["T"], row["rep"])
        if job not in expected:
            verdict.fail(f"unexpected row {job}")
        elif job in by_job:
            verdict.fail(f"duplicate row {job}", [job])
        else:
            by_job[job] = row
    missing = expected - set(by_job)
    verdict.require(not missing, f"{len(missing)} rows missing, e.g. {sorted(missing)[:3]}", missing)
    verdict.require(len(rows) == len(expected), f"{len(rows)} rows, expected {len(expected)}")

    row_check = _ROW_CHECKS.get(workload.name)
    for job, row in by_job.items():
        problems = _common_row_problems(workload, seed, row)
        if row_check and not problems:
            problems = row_check(workload, seed, row)
        for p in problems:
            verdict.fail(f"row {job}: {p}", [job])

    cells: dict = {}
    for job, row in by_job.items():
        cells.setdefault((job[0], job[1]), []).append(row)
    aggregates = json.loads(outputs["aggregates.json"])
    _check_summary(aggregates, cells, verdict)
    whole_check = _OUTPUT_CHECKS.get(workload.name)
    if whole_check:
        whole_check(workload, outputs, aggregates, cells, by_job, verdict)


def _common_row_problems(workload: Workload, seed: int, row: dict) -> list:
    problems = []
    if row["experiment"] != workload.experiment:
        problems.append(f"experiment {row['experiment']}")
    if row["seed"] != replicate_seed_id(seed, row["rep"]):
        problems.append(f"seed id {row['seed']} differs from the derived id")
    values = (row["total"], row["minority"], row["prediction"])
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        problems.append(f"regret not finite and >= 0: {values}")
    elif row["minority"] > row["total"] * (1 + FLOAT_TOL) + FLOAT_TOL:
        problems.append(f"restricted regret {row['minority']} above total {row['total']}")
    return problems


def _check_summary(aggregates: dict, cells: dict, verdict: Verdict) -> None:
    summary = aggregates["summary"]
    for (policy, horizon), rows in cells.items():
        ops = [(policy, horizon, r["rep"]) for r in rows]
        entry = summary.get(f"{policy}@T={horizon}")
        if entry is None:
            verdict.fail(f"no aggregate for {policy}@T={horizon}", ops)
            continue
        verdict.require(entry["replicates"] == len(rows),
                        f"{policy}@T={horizon}: aggregate counts {entry['replicates']} replicates", ops)
        for field, key in (("regret_total", "total"), ("regret_minority", "minority"),
                           ("regret_prediction", "prediction")):
            mine = _mean([r[key] for r in rows])
            theirs = entry[field]["mean"]
            verdict.require(math.isclose(theirs, mine, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL),
                            f"{policy}@T={horizon}: {field} mean {theirs} != {mine}", ops)


# --- scaling-linucb ---------------------------------------------------------

def _scaling_row(workload, seed, row) -> list:
    return [] if row["minority"] == 0.0 else [f"regret_minority {row['minority']} on a one-group catalog"]


def _scaling_output(workload, outputs, aggregates, cells, by_job, verdict) -> None:
    fits = aggregates["scaling_fits"]
    for policy in workload.policies:
        pts = sorted((t, _mean([r["total"] for r in rows]))
                     for (p, t), rows in cells.items() if p == policy)
        if len(pts) != len(workload.horizons) or any(m <= 0 for _, m in pts):
            verdict.fail(f"{policy}: cannot fit an exponent to {pts}")
            continue
        slope = float(np.polyfit(np.log([t for t, _ in pts]), np.log([m for _, m in pts]), 1)[0])
        program = fits[policy]["exponent"]
        verdict.require(slope <= MAX_EXPONENT, f"{policy}: log-log slope {slope} > {MAX_EXPONENT}")
        verdict.require(program <= MAX_EXPONENT, f"{policy}: fitted exponent {program} > {MAX_EXPONENT}")
        verdict.require(abs(program - slope) <= 1e-9,
                        f"{policy}: fitted exponent {program} != log-log slope {slope}")


# --- two-bridge-floor -------------------------------------------------------

def _two_bridge_row(workload, seed, row) -> list:
    problems = []
    wrong = row["total"] * math.sqrt(row["T"])
    if abs(wrong - round(wrong)) > 1e-6 * max(1.0, wrong):
        problems.append(f"regret*sqrt(T) = {wrong} is not a whole number")
    if row["minority"] != row["total"]:
        problems.append("regret_minority differs from regret_total")
    coin = theta_coin(seed, row["rep"])
    if row["theta"] != coin:
        problems.append(f"theta_draw_id {row['theta']} != coin {coin}")
    return problems


def _two_bridge_output(workload, outputs, aggregates, cells, by_job, verdict) -> None:
    for (policy, horizon), rows in cells.items():
        ops = [(policy, horizon, r["rep"]) for r in rows]
        vals = [r["total"] for r in rows]
        mean = _mean(vals)
        floor = 0.01 * math.sqrt(horizon)
        verdict.require(mean >= floor, f"{policy}@T={horizon}: mean {mean} below floor {floor}", ops)
        if policy == "uniform_random" and len(vals) > 1:
            se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
            target = 0.025 * math.sqrt(horizon)
            verdict.require(abs(mean - target) <= 4 * se,
                            f"uniform_random@T={horizon}: mean {mean} not within 4 SE ({se}) of {target}",
                            ops)


# --- greedy-vs-linucb -------------------------------------------------------

def _greedy_row(workload, seed, row) -> list:
    if row["policy"] == "batch_bayes_greedy" and row["prediction"] != row["total"]:
        return [f"regret_prediction {row['prediction']} != regret_total {row['total']}"]
    return []


def _greedy_output(workload, outputs, aggregates, cells, by_job, verdict) -> None:
    comparisons = aggregates["greedy_vs_linucb"]
    for policy in ("batch_bayes_greedy", "batch_freq_greedy"):
        verdict.require(comparisons[policy]["within_bound"] is True, f"{policy}: within_bound is not true")
    probes = aggregates["estimator_gap_probes"]
    replicates = int(workload.value("replicates"))
    for t in ("1000", "8000"):
        verdict.require(probes[t]["count"] == replicates,
                        f"probe {t}: count {probes[t]['count']} != {replicates}")
    verdict.require(probes["8000"]["median"] <= 4 * probes["1000"]["median"],
                    f"probe median at 8000 above 4x the median at 1000: {probes}")
    _check_curves(outputs.get("curves.csv"), cells, by_job, verdict)


def _check_curves(text, cells, by_job, verdict) -> None:
    if text is None:
        verdict.fail("no curves file")
        return
    records = list(csv.reader(io.StringIO(text)))
    if not records or tuple(records[0]) != CURVES_HEADER:
        verdict.fail(f"curves header is {records[0] if records else None}")
        return
    curves: dict = {}
    for rec in records[1:]:
        curves.setdefault((rec[1], int(rec[2])), []).append((int(rec[3]), float(rec[4])))
    for cell, rows in cells.items():
        ops = [(cell[0], cell[1], r["rep"]) for r in rows]
        points = curves.get(cell)
        if not points:
            verdict.fail(f"no curve for {cell}", ops)
            continue
        rounds = [t for t, _ in points]
        values = [v for _, v in points]
        verdict.require(all(b > a for a, b in zip(rounds, rounds[1:])), f"{cell}: rounds not increasing", ops)
        verdict.require(all(b >= a for a, b in zip(values, values[1:])), f"{cell}: curve decreases", ops)
        verdict.require(rounds[-1] == cell[1], f"{cell}: curve ends at round {rounds[-1]}", ops)
        first = by_job.get((cell[0], cell[1], 0))
        if first is not None:
            verdict.require(math.isclose(values[-1], first["total"], rel_tol=1e-9, abs_tol=FLOAT_TOL),
                            f"{cell}: curve ends at {values[-1]}, replicate 0 total is {first['total']}",
                            ops)


# --- sim-audit --------------------------------------------------------------

def _check_audit(workload: Workload, text, verdict: Verdict) -> None:
    report = json.loads(text)
    targets = report["targets"]
    n_targets = int(workload.value("n_targets"))
    verdict.require(report["n_targets"] == n_targets and len(targets) == n_targets,
                    f"{len(targets)} targets reported, expected {n_targets}")
    verdict.require(report["n_draws"] == int(workload.value("sim_draws")),
                    f"n_draws {report['n_draws']}")
    rejections = report["rejections"]
    verdict.require(rejections <= MAX_REJECTIONS, f"{rejections} KS rejections > {MAX_REJECTIONS}")
    verdict.require(rejections == sum(bool(t["reject"]) for t in targets),
                    "rejection count disagrees with the per-target flags")
    lam = report["lambda_min"]
    for i in range(n_targets):
        if i >= len(targets):
            verdict.fail(f"target {i} missing", [i])
            continue
        t = targets[i]
        wn = t["weight_norm"]
        problems = []
        if not wn <= 1.0:
            problems.append(f"weight_norm {wn} > 1")
        if not abs(t["residual_var"] + wn * wn - 1.0) <= 1e-9:
            problems.append(f"residual_var + weight_norm^2 = {t['residual_var'] + wn * wn}")
        if not t["reconstruction_error"] <= 1e-8:
            problems.append(f"reconstruction_error {t['reconstruction_error']}")
        if not t["target_norm"] ** 2 <= lam * (1 + FLOAT_TOL):
            problems.append(f"target_norm^2 {t['target_norm'] ** 2} > lambda_min {lam}")
        if bool(t["reject"]) != (t["p_value"] < report["alpha"]):
            problems.append(f"reject flag {t['reject']} disagrees with p = {t['p_value']}")
        for p in problems:
            verdict.fail(f"target {i}: {p}", [i])


_ROW_CHECKS = {
    "scaling-linucb": _scaling_row,
    "two-bridge-floor": _two_bridge_row,
    "greedy-vs-linucb": _greedy_row,
}
_OUTPUT_CHECKS = {
    "scaling-linucb": _scaling_output,
    "two-bridge-floor": _two_bridge_output,
    "greedy-vs-linucb": _greedy_output,
}
