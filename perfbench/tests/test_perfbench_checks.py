"""The benchmark's own tests: each output check accepts real program output
and rejects a deliberately corrupted copy of it.

    python3 -m pytest perfbench/tests -q

Each workload's command runs once, shrunk to a small size, through the same
launcher the benchmark uses.  The tests then corrupt one value of the output
and assert that the check marks the operations it speaks about as failed.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_command, replicate_seed_id  # noqa: E402
from run import END_TO_END, PER_LAYER, layer_metrics, program_env  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 12345

SMALL = {
    "scaling-linucb": {"horizons": "500, 1000, 2000"},
    "two-bridge-floor": {"replicates": 40},
    "greedy-vs-linucb": {"replicates": 4},
    "sim-audit": {"n_targets": 5, "sim_draws": 2000},
}


def shrink(name: str):
    workload = WORKLOADS[name]
    changes = SMALL[name]
    config = tuple((k, changes.get(k, v)) for k, v in workload.config)
    return dataclasses.replace(workload, config=config)


def launch(workload, out_dir: Path, trace: bool = False):
    config = out_dir / "bench.cfg"
    config.write_text(workload.config_text(SEED), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "launch.py")] + workload.argv(str(config), "."),
        cwd=out_dir, env=program_env(ROOT, out_dir / "mark.json", out_dir if trace else None),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=300,
    )
    outputs = {}
    for name in ("results.csv", "aggregates.json", "curves.csv", "report.json"):
        path = out_dir / name
        outputs[name] = path.read_text(encoding="utf-8") if path.is_file() else None
    return proc.returncode, outputs


@pytest.fixture(scope="module")
def real(tmp_path_factory):
    """name -> (small workload, exit code, outputs) from one real run each."""
    runs = {}
    for name in WORKLOADS:
        workload = shrink(name)
        code, outputs = launch(workload, tmp_path_factory.mktemp(name))
        runs[name] = (workload, code, outputs)
    return runs


def check(real, name, edit=None, code=None):
    workload, real_code, outputs = real[name]
    outputs = dict(outputs)
    if edit is not None:
        edit(outputs)
    return check_command(workload, SEED, real_code if code is None else code, outputs)


def edit_csv(outputs, fn, name="results.csv"):
    rows = list(csv.reader(io.StringIO(outputs[name])))
    fn(rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    outputs[name] = buf.getvalue()


def edit_json(outputs, fn, name):
    data = json.loads(outputs[name])
    fn(data)
    outputs[name] = json.dumps(data)


def set_cell(row, col, value):
    def fn(rows):
        rows[row][col] = str(value)
    return fn


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_real_output_passes(real, name):
    verdict = check(real, name)
    assert real[name][1] == 0
    assert verdict.problems == []
    assert not verdict.failed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_nonzero_exit_fails_every_operation(real, name):
    verdict = check(real, name, code=3)
    assert verdict.failed == set(verdict.operations)


def _job(rows, i):
    return (rows[i][1], int(rows[i][2]), int(rows[i][3]))


@pytest.mark.parametrize("name", ["scaling-linucb", "two-bridge-floor", "greedy-vs-linucb"])
@pytest.mark.parametrize("col, value", [(5, -1.0), (4, 17), (6, 1e9), (5, "nan")])
def test_row_corruption_fails_that_row(real, name, col, value):
    # Negative regret, a wrong seed id, restricted above total, a non-finite regret.
    rows = list(csv.reader(io.StringIO(real[name][2]["results.csv"])))
    verdict = check(real, name, lambda o: edit_csv(o, set_cell(3, col, value)))
    assert _job(rows, 3) in verdict.failed


@pytest.mark.parametrize("name", ["scaling-linucb", "two-bridge-floor", "greedy-vs-linucb"])
def test_dropped_row_fails(real, name):
    rows = list(csv.reader(io.StringIO(real[name][2]["results.csv"])))
    verdict = check(real, name, lambda o: edit_csv(o, lambda r: r.pop(2)))
    assert _job(rows, 2) in verdict.failed


def test_duplicated_row_fails(real):
    verdict = check(real, "two-bridge-floor", lambda o: edit_csv(o, lambda r: r.append(r[5])))
    assert verdict.failed


def test_wrong_header_fails(real):
    verdict = check(real, "greedy-vs-linucb", lambda o: edit_csv(o, set_cell(0, 4, "seed_id")))
    assert verdict.failed == set(verdict.operations)


def test_aggregate_mean_mismatch_fails_its_cell(real):
    workload = real["greedy-vs-linucb"][0]
    key = f"batch_freq_greedy@T={workload.horizons[0]}"

    def fn(agg):
        agg["summary"][key]["regret_total"]["mean"] *= 1.001

    verdict = check(real, "greedy-vs-linucb", lambda o: edit_json(o, fn, "aggregates.json"))
    assert ("batch_freq_greedy", workload.horizons[0], 0) in verdict.failed
    assert ("linucb", workload.comparator_horizon(workload.horizons[0]), 0) not in verdict.failed


def test_seed_id_rule():
    # The documented derivation, on the default seed's replicate 0.
    assert replicate_seed_id(20260814, 0) == 6278234198221682297


def test_scaling_minority_regret_fails(real):
    verdict = check(real, "scaling-linucb", lambda o: edit_csv(o, set_cell(1, 6, 0.001)))
    assert verdict.failed


def test_scaling_exponent_above_limit_fails(real):
    def fn(agg):
        agg["scaling_fits"]["linucb"]["exponent"] = 0.6

    verdict = check(real, "scaling-linucb", lambda o: edit_json(o, fn, "aggregates.json"))
    assert verdict.failed == set(verdict.operations)


def test_two_bridge_fractional_wrong_count_fails(real):
    def fn(rows):
        t = int(rows[1][2])
        for col in (5, 6, 7):
            rows[1][col] = repr(2.5 / t ** 0.5)

    verdict = check(real, "two-bridge-floor", lambda o: edit_csv(o, fn))
    assert verdict.failed


def test_two_bridge_theta_coin_fails(real):
    def fn(rows):
        rows[1][8] = str(1 - int(rows[1][8]))

    verdict = check(real, "two-bridge-floor", lambda o: edit_csv(o, fn))
    assert verdict.failed


def test_two_bridge_uniform_mean_off_closed_form_fails(real):
    def fn(rows):
        for row in rows[1:]:
            if row[1] == "uniform_random":
                t = int(row[2])
                for col in (5, 6, 7):
                    row[col] = repr(float(row[col]) + 20 / t ** 0.5)

    verdict = check(real, "two-bridge-floor", lambda o: edit_csv(o, fn))
    assert any("uniform_random" in p and "4 SE" in p for p in verdict.problems)


def test_greedy_bound_flag_fails(real):
    def fn(agg):
        agg["greedy_vs_linucb"]["batch_bayes_greedy"]["within_bound"] = False

    verdict = check(real, "greedy-vs-linucb", lambda o: edit_json(o, fn, "aggregates.json"))
    assert verdict.failed == set(verdict.operations)


def test_greedy_probe_count_fails(real):
    def fn(agg):
        agg["estimator_gap_probes"]["8000"]["count"] -= 1

    verdict = check(real, "greedy-vs-linucb", lambda o: edit_json(o, fn, "aggregates.json"))
    assert verdict.failed


def test_greedy_prediction_regret_fails(real):
    def fn(rows):
        for row in rows[1:]:
            if row[1] == "batch_bayes_greedy":
                row[7] = repr(float(row[7]) + 1.0)
                return

    verdict = check(real, "greedy-vs-linucb", lambda o: edit_csv(o, fn))
    assert verdict.failed


@pytest.mark.parametrize("corrupt", ["decreasing", "end_value", "dropped"])
def test_greedy_curve_corruption_fails(real, corrupt):
    def fn(rows):
        last = max(i for i, r in enumerate(rows) if r[1] == "batch_freq_greedy")
        if corrupt == "decreasing":
            rows[last - 1][4] = repr(float(rows[last][4]) + 1.0)
        elif corrupt == "end_value":
            rows[last][4] = repr(float(rows[last][4]) * (1 + 1e-6) + 1e-6)
        else:
            del rows[1:last + 1]

    verdict = check(real, "greedy-vs-linucb", lambda o: edit_csv(o, fn, "curves.csv"))
    assert verdict.failed


@pytest.mark.parametrize("field, value", [
    ("weight_norm", 1.01),
    ("residual_var", 0.5),
    ("reconstruction_error", 1e-6),
    ("target_norm", 1e6),
])
def test_audit_target_corruption_fails_that_target(real, field, value):
    def fn(report):
        report["targets"][1][field] = value

    verdict = check(real, "sim-audit", lambda o: edit_json(o, fn, "report.json"))
    assert verdict.failed == {1}


def test_audit_too_many_rejections_fails(real):
    def fn(report):
        for t in report["targets"]:
            t["reject"] = True
            t["p_value"] = 0.0
        report["rejections"] = len(report["targets"])

    verdict = check(real, "sim-audit", lambda o: edit_json(o, fn, "report.json"))
    assert verdict.failed == set(verdict.operations)


def test_audit_missing_target_fails(real):
    verdict = check(real, "sim-audit", lambda o: edit_json(o, lambda r: r["targets"].pop(), "report.json"))
    assert len(verdict.operations) - 1 in verdict.failed


def test_traced_run_counts_rounds_in_every_worker(tmp_path):
    workload = shrink("two-bridge-floor")
    code, outputs = launch(workload, tmp_path, trace=True)
    assert code == 0
    assert not check_command(workload, SEED, code, outputs).failed
    layers = layer_metrics(tmp_path)
    rounds = layers["engines.two_bridge_policy.rounds"] + layers["engines.two_bridge_batch_freq.rounds"]
    assert rounds == workload.work()
    assert layers["experiments.dispatch_s"] > 0
    assert layers["policies.interval_width.calls"] > 0
    assert layers["cli.import_s"] > 0


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
