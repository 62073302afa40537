"""Command-line harness: run experiments, verify the reward simulator.

Errors print one JSON line to stderr (``{"error": ..., "message": ...}``) and
exit nonzero: 2 for configuration and usage problems (a value outside its key's
domain names the key, a malformed command line its flag), 3 for a failed
replicate, a worker process that died or a run out of memory, 4 for a failed
simulation verification (too many KS rejections, or an audited batch too
little diverse to simulate from).
``--set KEY=VALUE`` alone sets a config key on the command line, once per key,
over the file's value. ``--workers`` alone sets the worker count: by default
the CPU count, at most 8.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from concurrent.futures.process import BrokenProcessPool

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
    keys_read,
    run_experiment,
)
from .simulation import InsufficientDiversityError


def _fail(kind: str, message: str, code: int) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so they print one JSON line too, and a
    flag is spelled only in full, not by a prefix; subparsers inherit both."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="banditsim",
        description="Linear contextual bandit simulations with reproducible tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and write its result table")
    verify = sub.add_parser("verify-simulation", help="audit simulated rewards against direct draws")
    for command in (run, verify):
        command.add_argument("config", nargs="?", help="config file of key = value lines")
        command.add_argument("--workers", type=int, default=None,
                             help="worker processes (default: cpu count, at most 8); no output depends on it")
        command.add_argument("--set", dest="assignments", action="append", default=[], metavar="KEY=VALUE",
                             help="config key over the file's value, repeatable, once per key")
    run.add_argument("--out", default="results.csv", help="result table path (- for stdout)")
    run.add_argument("--aggregates", default=None, help="also write aggregates JSON here")
    run.add_argument("--curves", default=None,
                     help="write replicate-0 cumulative regret curves to this CSV")

    verify.add_argument("--max-rejections", type=int, default=2,
                        help="fail when more KS tests reject at level 0.01")
    verify.add_argument("--out", default="-", help="report JSON path (- for stdout)")

    sub.add_parser("list-experiments", help="list experiment names")

    defaults = sub.add_parser("print-defaults", help="print the defaults table as JSON")
    defaults.add_argument("--experiment", choices=EXPERIMENTS, default=None,
                          help="print one experiment's effective defaults as config lines")
    return parser


def _read_config(path: str | None) -> str:
    if not path:
        return ""
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _overrides_from(args) -> dict:
    overrides: dict = {}
    for item in args.assignments:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got '{item}'")
        key, _, value = item.partition("=")
        key = key.strip()
        if key in overrides:
            raise ConfigError(f"duplicate key '{key}' in --set")
        overrides[key] = convert_value(key, value)
    return overrides


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    if os.path.exists(path) and not os.path.isfile(path):
        # A device or a pipe, such as /dev/null, is written in place.
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    # Write a sibling of the file behind any symlink and rename it over that
    # file, with its mode, so that a failed write leaves the old content in place.
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        if os.path.exists(target):
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _curves_csv(experiment: str, curves: dict) -> str:
    lines = ["experiment,policy,T,round,cum_regret"]
    for (policy, horizon), points in curves.items():
        for t, value in points:
            lines.append(f"{experiment},{policy},{horizon},{t},{format(value, '.17g')}")
    return "\n".join(lines) + "\n"


def _cmd_run(args) -> int:
    cfg = parse_config(_read_config(args.config), _overrides_from(args))
    result = run_experiment(cfg, workers=args.workers)
    _write_text(args.out, emit_csv(list(result.rows)))
    payload = json.dumps(result.aggregates, indent=2)
    if args.aggregates:
        _write_text(args.aggregates, payload + "\n")
    if args.out != "-" and args.aggregates != "-":
        print(payload)
    if args.curves:
        _write_text(args.curves, _curves_csv(cfg.experiment, result.curves))
    return 0


def _cmd_verify(args) -> int:
    if args.max_rejections < 0:
        raise ConfigError(f"--max-rejections must be at least 0, got {args.max_rejections}")
    audit = "SimulationVerify"
    cfg = parse_config(_read_config(args.config), _overrides_from(args), default_experiment=audit)
    if EXPERIMENT_SPECS[cfg.experiment].family != "audit":
        raise ConfigError(f"verify-simulation requires the {audit} experiment")
    result = run_experiment(cfg, workers=args.workers)
    report = result.aggregates["simulation_verify"]
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
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
    read = keys_read(cfg)
    lines = []
    for key, value in cfg.to_dict().items():
        if key not in read:
            continue
        if isinstance(value, tuple):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    print("\n".join(lines))
    return 0


def main(argv: list | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
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
    except MemoryError as exc:
        return _fail(type(exc).__name__, f"the run ran out of memory: {exc}", 3)
    except InsufficientDiversityError as exc:
        return _fail(type(exc).__name__, str(exc), 4)
    except OSError as exc:
        return _fail(type(exc).__name__, str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
