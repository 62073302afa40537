"""Benchmark runner: run one workload's banditsim command for a fixed time.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a banditsim source checkout.  The benchmark writes the
workload's config file from the seed, makes one untimed set-up-only launch
as a warm-up, then starts the command in a fresh interpreter
(``perfbench/launch.py``) again and again, each time timed from outside,
until another command would overrun ``--seconds``.  The time left
goes to set-up-only launches.  It checks every command's output
(``checks.py``) and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, each the median over the run's
commands.  ``--trace 1`` alternates untraced and traced commands and reports
the per-layer metrics of the traced ones plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_command  # noqa: E402
from tracer import ENGINES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The whole benchmark must end within this many seconds.
DEADLINE_S = 170.0
# Set-up samples per untraced run, counting each command's own set-up.
MIN_SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit; BENCHMARK.json lists the same names.
PER_LAYER = {}
for _engine in ENGINES:
    PER_LAYER[f"{_engine}.us_per_round"] = "us"
    PER_LAYER[f"{_engine}.rounds"] = "count"
for _span in ("estimators.bayes_posterior_mean", "estimators.ols_estimate",
              "policies.interval_width", "rng.stream", "experiments.build_instance"):
    PER_LAYER[f"{_span}.busy_s"] = "s"
    PER_LAYER[f"{_span}.calls"] = "count"
for _span in ("experiments.experiment_curves", "metrics.scaling_exponent_bootstrap",
              "simulation.simulate_reward_many", "simulation.simulation_weights",
              "experiments.ks_2samp", "csvio.emit_csv"):
    PER_LAYER[f"{_span}.busy_s"] = "s"
PER_LAYER.update({
    "experiments.dispatch_s": "s",
    "rng.draw_s": "s",
    "rng.draws": "count",
    "csvio.emit_csv.bytes": "bytes",
    "cli.import_s": "s",
    "cli.import_scipy_stats_s": "s",
    "trace.overhead_s": "s",
})
# Spans whose busy time is inclusive: the curve path's cost is the engines it re-runs.
INCLUSIVE = {"experiments.experiment_curves"}


def program_env(root: Path, mark: Path, trace_dir: Path | None) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("BANDITSIM_", "PERFBENCH_"))}
    env.update({
        "PYTHONPATH": str(root / "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PERFBENCH_MARK": str(mark),
    })
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    return env


class Bench:
    def __init__(self, root: Path, workload, seed: int, started: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.started = started
        self.work_dir = root / "perfbench" / "_work" / workload.name
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)
        self.config = self.work_dir / "bench.cfg"
        self.config.write_text(workload.config_text(seed), encoding="utf-8")
        self.launches = 0
        self.attempted = 0
        self.failed = 0
        self.fingerprints: set = set()
        self.problems: list = []

    def launch(self, argv: list, trace: bool = False, setup_only: bool = False) -> dict:
        """Start launch.py with ``argv`` in a fresh interpreter and wait for it."""
        self.launches += 1
        tag = self.work_dir / f"launch{self.launches}"
        tag.mkdir()
        trace_dir = tag if trace else None
        cmd = [sys.executable, str(HERE / "launch.py")] + (["--setup-only"] if setup_only else []) + argv
        mark = tag / "mark.json"
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(tag / "stderr.txt", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=tag, env=program_env(self.root, mark, trace_dir),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                start_new_session=True,
            )
            try:
                code = proc.wait(timeout=max(1.0, DEADLINE_S - (start - self.started)))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                _kill_group(proc.pid)
                proc.wait()
            end = time.monotonic()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        result = {"dir": tag, "exit": code, "wall_s": end - start,
                  "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)}
        if code is None:
            self.problems.append(f"{tag.name}: timed out")
        elif mark.is_file():
            note = json.loads(mark.read_text(encoding="utf-8"))
            result["setup_s"] = note["ready"] - start
            result["peak_rss_mb"] = note["peak_rss_kb"] / 1024.0
        if code != 0:
            self.problems.append(f"{tag.name}: exit {code}: {_tail(tag / 'stderr.txt')}")
        return result

    def command(self, trace: bool = False) -> dict:
        """Run the workload's command once, check its output, count its operations."""
        res = self.launch(self.workload.argv(str(self.config), "."), trace=trace)
        outputs = {}
        for name in ("results.csv", "aggregates.json", "curves.csv", "report.json"):
            path = res["dir"] / name
            outputs[name] = path.read_text(encoding="utf-8") if path.is_file() else None
        verdict = check_command(self.workload, self.seed, res["exit"], outputs)
        fingerprint = hashlib.sha256(
            json.dumps([outputs[k] for k in sorted(outputs)]).encode()).hexdigest()
        self.fingerprints.add(fingerprint)
        if len(self.fingerprints) > 1:
            verdict.fail("output bytes differ from an earlier command of this run")
        self.attempted += len(verdict.operations)
        self.failed += len(verdict.failed)
        self.problems += [f"{res['dir'].name}: {p}" for p in verdict.problems]
        res["work"] = self.workload.work()
        return res

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def repeat(self, budget: float, step, at_least: int = 1) -> list:
        """Call ``step`` ``at_least`` times, then while another call fits in ``budget``."""
        results = []
        longest = 0.0
        while len(results) < at_least or self.elapsed() + longest <= budget:
            t0 = time.monotonic()
            results.append(step())
            longest = max(longest, time.monotonic() - t0)
        return results


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _tail(path: Path, limit: int = 300) -> str:
    try:
        return path.read_text(encoding="utf-8", errors="replace")[-limit:].strip()
    except OSError:
        return ""


def _median(values):
    return statistics.median(values) if values else 0.0


def warm_up(bench: Bench, argv: list) -> None:
    """One untimed set-up-only launch, so that the timed ones find the
    bytecode caches written and the program's files in the page cache."""
    bench.launch(argv, setup_only=True)


def end_to_end(bench: Bench, seconds: float) -> dict:
    """Commands while they fit in the run, then set-up-only launches in the time left."""
    argv = bench.workload.argv(str(bench.config), ".")
    warm_up(bench, argv)
    runs = bench.repeat(seconds, bench.command)
    setups = bench.repeat(seconds, lambda: bench.launch(argv, setup_only=True),
                          at_least=max(1, MIN_SETUPS - len(runs)))
    ok = [r for r in runs if r["exit"] == 0 and "setup_s" in r]
    samples = [{k: r[k] for k in ("wall_s", "setup_s", "cpu_s") if k in r} for r in runs + setups]
    (bench.work_dir / "samples.json").write_text(json.dumps(samples), encoding="utf-8")
    return {
        "setup_s": _median([r["setup_s"] for r in setups + runs if "setup_s" in r]),
        "wall_s": _median([r["wall_s"] for r in ok]),
        "work_per_s": _median([r["work"] / (r["wall_s"] - r["setup_s"]) for r in ok]),
        "cpu_s": _median([r["cpu_s"] for r in ok]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    """Pairs of an untraced and a traced command while they fit in the run."""
    warm_up(bench, bench.workload.argv(str(bench.config), "."))
    pairs = bench.repeat(seconds, lambda: (bench.command(), bench.command(trace=True)))
    plain = [p[0]["wall_s"] for p in pairs if p[0]["exit"] == 0]
    traced = [p[1] for p in pairs if p[1]["exit"] == 0]
    layers = [layer_metrics(r["dir"]) for r in traced]
    metrics = {name: _median([m.get(name, 0.0) for m in layers]) for name in PER_LAYER}
    metrics["trace.overhead_s"] = _median([r["wall_s"] for r in traced]) - _median(plain)
    return metrics


def layer_metrics(trace_dir: Path) -> dict:
    """Per-layer metrics of one traced command from the span files of its processes."""
    spans: dict = {}
    worker_job_s = 0.0
    pool_slot_s = 0.0
    for path in glob.glob(str(trace_dir / "spans-*.json")):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        pool_slot_s += data["pool_slot_s"]
        for name, (calls, inclusive, self_s, units) in data["spans"].items():
            rec = spans.setdefault(name, [0, 0.0, 0.0, 0])
            rec[0] += calls
            rec[1] += inclusive
            rec[2] += self_s
            rec[3] += units
        if not data["main"]:
            worker_job_s += data["spans"].get("experiments.job", [0, 0.0])[1]

    out = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        rec = spans.get(span)
        if rec is None:
            continue
        if field == "busy_s":
            out[name] = rec[1] if span in INCLUSIVE else rec[2]
        elif field == "calls":
            out[name] = rec[0]
        elif field in ("rounds", "bytes"):
            out[name] = rec[3]
        elif field == "us_per_round" and rec[3]:
            out[name] = 1e6 * rec[2] / rec[3]
    draw = spans.get("rng.draw", [0, 0.0, 0.0, 0])
    out["rng.draw_s"] = draw[2]
    out["rng.draws"] = draw[3]
    out["experiments.dispatch_s"] = pool_slot_s - worker_job_s if pool_slot_s else 0.0
    for name, span in (("cli.import_s", "cli.import"), ("cli.import_scipy_stats_s", "cli.import_scipy_stats")):
        out[name] = spans.get(span, [0, 0.0])[1]
    return out


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; prints its metrics and returns its result."""
    bench = Bench(root, WORKLOADS[name], seed, time.monotonic())
    budget = min(seconds, DEADLINE_S)
    if trace:
        values, units = per_layer(bench, budget), PER_LAYER
    else:
        values, units = end_to_end(bench, budget), END_TO_END
    for problem in bench.problems:
        print(f"perfbench: {name}: {problem}", file=sys.stderr)
    for metric in sorted(values):
        print(f"{name}: {metric} = {values[metric]:.6g} {units[metric]}")
    return {
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {metric: {"value": values[metric], "unit": units[metric]} for metric in values},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    problem = None
    if not (root / "src" / "banditsim" / "cli.py").is_file():
        problem = f"no banditsim source under {root / 'src'}; run from a checkout root"
    elif args.seed < 0:
        problem = "--seed must be nonnegative"
    elif args.seconds <= 0:
        problem = "--seconds must be positive"
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        results = {name: run_workload(root, name, args.seed, args.seconds, bool(args.trace))
                   for name in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
