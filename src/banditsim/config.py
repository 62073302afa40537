"""Plain-text experiment configuration: flat ``key = value`` lines.

Grammar: one ``key = value`` pair per line; blank lines and ``#`` comments are
ignored.  Keys are flat (no sections); unknown keys are rejected by name.
Lists (``horizons``, ``policies``) are comma-separated.  Experiment-specific
defaults fill every omitted key; ``print-defaults`` shows the full table.  A
config may name only the keys its run reads (``keys_read``): setting any other
would change nothing, so it is rejected by name.
"""

import json
import math
from dataclasses import asdict, dataclass, fields

from .core import ConfigurationError
from .experiments import EXPERIMENT_SPECS, check_linucb, keys_read


class ConfigError(ConfigurationError):
    """Malformed or invalid configuration text."""


EXPERIMENTS = tuple(EXPERIMENT_SPECS)


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings; the field defaults are the global defaults, and a
    field's annotation is the type its config value converts to."""

    experiment: str
    horizons: tuple[int, ...] = (20000,)
    replicates: int = 200
    master_seed: int = 20260814
    batch: int = 200
    d: int = 2
    n_actions: int = 5
    rho: float = 0.3
    catalog_size: int = 8
    catalog_seed: int = 7
    prior_scale: float = 1.0
    minority_prob: float = 0.0
    noise: str = "gaussian"
    theta_variant: str = "theta0"
    population: str = "full"
    ridge: float = 1.0
    policies: tuple[str, ...] = ()
    n_targets: int = 20
    sim_draws: int = 100000
    restriction: str = "minority"
    restriction_p: float = 0.5

    def to_dict(self) -> dict:
        return asdict(self)


_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _convert(key: str, raw: str):
    raw = raw.strip()
    kind = _TYPES[key]
    try:
        if kind in (int, float, str):
            return kind(raw)
        item = kind.__args__[0]  # tuple[int, ...] or tuple[str, ...]: comma-separated
        return tuple(item(p.strip()) for p in raw.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"key '{key}' has malformed value '{raw}'") from None


def convert_value(key: str, raw: str):
    """Convert one raw string to the typed value the key expects."""
    if key not in _TYPES:
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
        if key not in _TYPES:
            raise ConfigError(f"unknown key '{key}' on line {lineno}")
        if key in raw:
            raise ConfigError(f"duplicate key '{key}' on line {lineno}")
        raw[key] = _convert(key, value)
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in _TYPES:
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

    cfg = ExperimentConfig(**{**EXPERIMENT_SPECS[experiment].defaults, **raw})
    read = keys_read(cfg)
    unread = [key for key in raw if key not in read]
    if unread:
        raise ConfigError(
            f"{experiment} does not read key '{unread[0]}': setting it would change nothing "
            f"(print-defaults --experiment {experiment} lists the keys it reads)"
        )
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
    if cfg.minority_prob > 0 and cfg.d < 2:
        raise ConfigError("minority_prob > 0 needs d of at least 2, one axis per group")
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
    if (spec.comparator or spec.family == "audit") and len(cfg.horizons) > 1:
        twice = ", and horizons that share T // batch would run the LinUCB comparator twice"
        raise ConfigError(
            f"{cfg.experiment} takes one horizon: its checks read one{twice if spec.comparator else ''}"
        )
    if not cfg.policies:
        raise ConfigError("policies must not be empty")
    for p in cfg.policies:
        if p not in spec.policies:
            raise ConfigError(
                f"policy '{p}' is not valid for {cfg.experiment}; allowed: {', '.join(spec.policies)}"
            )
        if cfg.policies.count(p) > 1:
            raise ConfigError(f"policy '{p}' is listed more than once; policies must be distinct")
    problem = spec.check(cfg) or check_linucb(cfg)
    if problem:
        raise ConfigError(problem)


def defaults_table() -> dict:
    """Full defaults: global values plus per-experiment overrides."""
    return {
        "global": {f.name: f.default for f in fields(ExperimentConfig) if f.name != "experiment"},
        "experiments": {name: dict(spec.defaults) for name, spec in EXPERIMENT_SPECS.items()},
    }


def dumps_defaults() -> str:
    return json.dumps(defaults_table(), indent=2, default=list)

