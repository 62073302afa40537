"""Command-line harness: run experiments, verify the reward simulator.

Errors print one JSON line to stderr (``{"error": ..., "message": ...}``) and
exit nonzero: 2 for configuration and usage problems, 3 for a failed
replicate or a worker process that died, 4 for a failed simulation
verification (too many KS rejections, or an audited batch too little diverse
to simulate from).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from .config import (
    EXPERIMENTS,
    ConfigError,
    convert_value,
    dumps_defaults,
    parse_config,
)
from .core import ConfigurationError
from .csvio import emit_csv
from .experiments import (
    EXPERIMENT_SPECS,
    ReplicateError,
    run_experiment,
)
from .simulation import InsufficientDiversityError


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _fail(kind: str, message: str, code: int) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banditsim",
        description="Linear contextual bandit simulations with reproducible tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and write its result table")
    run.add_argument("config", nargs="?", help="config file of key = value lines")
    run.add_argument("--experiment", choices=EXPERIMENTS, help="experiment name override")
    run.add_argument("--seed", type=int, default=None, help="master seed override")
    run.add_argument("--replicates", type=int, default=None, help="replicate count override")
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: BANDITSIM_WORKERS or cpu count)")
    run.add_argument("--set", dest="assignments", action="append", default=[],
                     metavar="KEY=VALUE", help="additional config override, repeatable")
    run.add_argument("--out", default="results.csv", help="result table path (- for stdout)")
    run.add_argument("--aggregates", default=None, help="also write aggregates JSON here")
    run.add_argument("--curves", default=None,
                     help="write replicate-0 cumulative regret curves to this CSV")

    verify = sub.add_parser("verify-simulation",
                            help="audit simulated rewards against direct draws")
    verify.add_argument("config", nargs="?", help="config file of key = value lines")
    verify.add_argument("--seed", type=int, default=None, help="master seed override")
    verify.add_argument("--targets", type=int, default=None, help="number of target contexts")
    verify.add_argument("--draws", type=int, default=None, help="sample size per comparison")
    verify.add_argument("--max-rejections", type=int, default=2,
                        help="fail when more KS tests reject at level 0.01")
    verify.add_argument("--out", default="-", help="report JSON path (- for stdout)")

    sub.add_parser("list-experiments", help="list experiment names")

    defaults = sub.add_parser("print-defaults", help="print the defaults table as JSON")
    defaults.add_argument("--experiment", choices=EXPERIMENTS, default=None,
                          help="print one experiment's effective defaults as config lines")
    return parser


def _load_config(path: str | None, overrides: dict, default_experiment: str | None = None):
    text = ""
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_config(text, overrides, default_experiment=default_experiment)


def _overrides_from(args) -> dict:
    overrides: dict = {}
    for item in getattr(args, "assignments", []):
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got '{item}'")
        key, _, value = item.partition("=")
        overrides[key.strip()] = convert_value(key.strip(), value)
    if getattr(args, "experiment", None):
        overrides["experiment"] = args.experiment
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "replicates", None) is not None:
        overrides["replicates"] = args.replicates
    if getattr(args, "targets", None) is not None:
        overrides["n_targets"] = args.targets
    if getattr(args, "draws", None) is not None:
        overrides["sim_draws"] = args.draws
    return overrides


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _curves_csv(experiment: str, curves: dict) -> str:
    lines = ["experiment,policy,T,round,cum_regret"]
    for (policy, horizon), points in curves.items():
        for t, value in points:
            lines.append(f"{experiment},{policy},{horizon},{t},{format(value, '.17g')}")
    return "\n".join(lines) + "\n"


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, _overrides_from(args))
    result = run_experiment(cfg, workers=args.workers)
    _write_text(args.out, emit_csv(list(result.rows)))
    payload = json.dumps(result.aggregates, indent=2, default=_json_default)
    if args.aggregates:
        _write_text(args.aggregates, payload + "\n")
    if args.out != "-":
        print(payload)
    if args.curves:
        _write_text(args.curves, _curves_csv(cfg.experiment, result.curves))
    return 0


def _cmd_verify(args) -> int:
    overrides = _overrides_from(args)
    audit = "SimulationVerify"
    cfg = _load_config(args.config, overrides, default_experiment=audit)
    if EXPERIMENT_SPECS[cfg.experiment].family != "audit":
        raise ConfigError(f"verify-simulation requires the {audit} experiment")
    result = run_experiment(cfg, workers=1)
    report = result.aggregates["simulation_verify"]
    _write_text(args.out, json.dumps(report, indent=2, default=_json_default) + "\n")
    if report["rejections"] > args.max_rejections:
        return _fail(
            "SimulationMismatch",
            f"{report['rejections']} of {report['n_targets']} KS tests rejected "
            f"(allowed {args.max_rejections})",
            4,
        )
    return 0


def _cmd_list() -> int:
    for name in EXPERIMENTS:
        print(f"{name}: {EXPERIMENT_SPECS[name].blurb}")
    return 0


def _cmd_defaults(args) -> int:
    if args.experiment is None:
        print(dumps_defaults())
        return 0
    cfg = parse_config(f"experiment = {args.experiment}\n")
    lines = [f"experiment = {cfg.experiment}"]
    for key, value in cfg.to_dict().items():
        if key == "experiment":
            continue
        if isinstance(value, tuple):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    print("\n".join(lines))
    return 0


def main(argv: list | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify-simulation":
            return _cmd_verify(args)
        if args.command == "list-experiments":
            return _cmd_list()
        if args.command == "print-defaults":
            return _cmd_defaults(args)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigurationError as exc:
        return _fail(type(exc).__name__, str(exc), 2)
    except ReplicateError as exc:
        return _fail(type(exc).__name__, str(exc), 3)
    except BrokenProcessPool as exc:
        return _fail(type(exc).__name__, f"a worker process died before its jobs finished: {exc}", 3)
    except InsufficientDiversityError as exc:
        return _fail(type(exc).__name__, str(exc), 4)
    except OSError as exc:
        return _fail(type(exc).__name__, str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
