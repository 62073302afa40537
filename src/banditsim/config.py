"""Plain-text experiment configuration: flat ``key = value`` lines.

Grammar: one ``key = value`` pair per line; blank lines and ``#`` comments are
ignored.  Keys are flat (no sections); unknown keys are rejected by name.
Lists (``horizons``, ``policies``) are comma-separated.  Experiment-specific
defaults fill every omitted key; ``print-defaults`` shows the full table.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .core import ConfigurationError
from .experiments import EXPERIMENT_SPECS, check_linucb


class ConfigError(ConfigurationError):
    """Malformed or invalid configuration text."""


EXPERIMENTS = tuple(EXPERIMENT_SPECS)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    horizons: tuple
    replicates: int
    master_seed: int
    batch: int
    d: int
    n_actions: int
    rho: float
    catalog_size: int
    catalog_seed: int
    prior_scale: float
    minority_prob: float
    noise: str
    theta_variant: str
    population: str
    ridge: float
    enforce_width_floor: bool
    policies: tuple
    n_targets: int
    sim_draws: int
    restriction: str
    restriction_p: float

    def to_dict(self) -> dict:
        return asdict(self)


_GLOBAL_DEFAULTS = {
    "horizons": (20000,),
    "replicates": 200,
    "master_seed": 20260814,
    "batch": 200,
    "d": 2,
    "n_actions": 5,
    "rho": 0.3,
    "catalog_size": 8,
    "catalog_seed": 7,
    "prior_scale": 1.0,
    "minority_prob": 0.0,
    "noise": "gaussian",
    "theta_variant": "theta0",
    "population": "full",
    "ridge": 1.0,
    "enforce_width_floor": True,
    "policies": (),
    "n_targets": 20,
    "sim_draws": 100000,
    "restriction": "minority",
    "restriction_p": 0.5,
}

_INT_KEYS = {"replicates", "master_seed", "batch", "d", "n_actions", "catalog_size",
             "catalog_seed", "n_targets", "sim_draws"}
_FLOAT_KEYS = {"rho", "prior_scale", "minority_prob", "ridge", "restriction_p"}
_BOOL_KEYS = {"enforce_width_floor"}
_LIST_INT_KEYS = {"horizons"}
_LIST_STR_KEYS = {"policies"}
_STR_KEYS = {"experiment", "noise", "theta_variant", "population", "restriction"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _LIST_INT_KEYS | _LIST_STR_KEYS | _STR_KEYS


def _convert(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _BOOL_KEYS:
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if key in _LIST_INT_KEYS:
            return tuple(int(p.strip()) for p in raw.split(",") if p.strip())
        if key in _LIST_STR_KEYS:
            return tuple(p.strip() for p in raw.split(",") if p.strip())
        return raw
    except ValueError:
        raise ConfigError(f"key '{key}' has malformed value '{raw}'") from None


def convert_value(key: str, raw: str):
    """Convert one raw string to the typed value the key expects."""
    if key not in _ALL_KEYS:
        raise ConfigError(f"unknown key '{key}'")
    return _convert(key, raw)


def parse_config(
    text: str,
    overrides: dict | None = None,
    default_experiment: str | None = None,
) -> ExperimentConfig:
    """Parse config text, apply defaults, and validate every invariant.

    ``overrides`` (e.g. CLI flags) take precedence over file values.
    ``default_experiment`` fills the experiment only when neither the text
    nor the overrides name one.
    """
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{stripped}'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key '{key}' on line {lineno}")
        if key in raw:
            raise ConfigError(f"duplicate key '{key}' on line {lineno}")
        raw[key] = _convert(key, value)
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in _ALL_KEYS:
                raise ConfigError(f"unknown override key '{key}'")
            raw[key] = value

    if "experiment" not in raw:
        if default_experiment is None:
            raise ConfigError("missing required key 'experiment'")
        raw["experiment"] = default_experiment
    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment '{experiment}' unknown; choose one of {', '.join(EXPERIMENTS)}"
        )

    merged = dict(_GLOBAL_DEFAULTS)
    merged.update(EXPERIMENT_SPECS[experiment].defaults)
    merged.update({k: v for k, v in raw.items() if k != "experiment"})
    cfg = ExperimentConfig(experiment=experiment, **merged)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if not cfg.horizons or any(t < 2 for t in cfg.horizons):
        raise ConfigError("horizons must be integers of at least 2")
    if len(set(cfg.horizons)) != len(cfg.horizons):
        raise ConfigError("horizons must be distinct")
    if cfg.replicates < 1:
        raise ConfigError("replicates must be at least 1")
    if cfg.master_seed < 0:
        raise ConfigError("master_seed must be nonnegative")
    if cfg.batch < 1:
        raise ConfigError("batch must be at least 1")
    if cfg.d < 1:
        raise ConfigError("d must be at least 1")
    if cfg.n_actions < 2:
        raise ConfigError("n_actions must be at least 2")
    if cfg.rho < 0:
        raise ConfigError("rho must be nonnegative")
    if cfg.rho > 1.0 / math.sqrt(cfg.d) + 1e-12:
        raise ConfigError(f"rho must not exceed 1/sqrt(d) = {1.0 / math.sqrt(cfg.d):.6g}")
    if cfg.catalog_size < 1:
        raise ConfigError("catalog_size must be at least 1")
    if cfg.prior_scale <= 0:
        raise ConfigError("prior_scale must be positive")
    if not 0.0 <= cfg.minority_prob < 1.0:
        raise ConfigError("minority_prob must lie in [0, 1)")
    if cfg.minority_prob > 0 and cfg.catalog_size < 2:
        raise ConfigError("minority_prob > 0 needs catalog_size of at least 2, one entry per group")
    if cfg.noise not in ("gaussian", "bernoulli"):
        raise ConfigError("noise must be 'gaussian' or 'bernoulli'")
    if cfg.theta_variant not in ("theta0", "theta1"):
        raise ConfigError("theta_variant must be 'theta0' or 'theta1'")
    if cfg.population not in ("full", "minority"):
        raise ConfigError("population must be 'full' or 'minority'")
    if cfg.ridge < 0:
        raise ConfigError("ridge must be nonnegative")
    if cfg.n_targets < 1:
        raise ConfigError("n_targets must be at least 1")
    if cfg.sim_draws < 10:
        raise ConfigError("sim_draws must be at least 10")
    if cfg.restriction not in ("minority", "coin"):
        raise ConfigError("restriction must be 'minority' or 'coin'")
    if not 0.0 < cfg.restriction_p < 1.0:
        raise ConfigError("restriction_p must lie in (0, 1)")
    spec = EXPERIMENT_SPECS[cfg.experiment]
    if spec.comparator and len(cfg.horizons) > 1:
        raise ConfigError(
            f"{cfg.experiment} takes one horizon: its checks read one, and horizons "
            "that share T // batch would run the LinUCB comparator twice"
        )
    if not cfg.policies:
        raise ConfigError("policies must not be empty")
    for p in cfg.policies:
        if p not in spec.policies:
            raise ConfigError(
                f"policy '{p}' is not valid for {cfg.experiment}; allowed: {', '.join(spec.policies)}"
            )
    problem = spec.check(cfg) or check_linucb(cfg)
    if problem:
        raise ConfigError(problem)


def defaults_table() -> dict:
    """Full defaults: global values plus per-experiment overrides."""
    return {
        "global": dict(_GLOBAL_DEFAULTS),
        "experiments": {name: dict(spec.defaults) for name, spec in EXPERIMENT_SPECS.items()},
    }


def dumps_defaults() -> str:
    return json.dumps(defaults_table(), indent=2, default=list)

