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
from dataclasses import asdict, dataclass, field, fields

from .core import ConfigurationError, NoiseKind
from .environments import THETA_VARIANTS
from .experiments import EXPERIMENT_SPECS, check_linucb, keys_read
from .metrics import RESTRICTIONS


class ConfigError(ConfigurationError):
    """Malformed or invalid configuration text."""


EXPERIMENTS = tuple(EXPERIMENT_SPECS)


@dataclass(frozen=True)
class Domain:
    """A key's values: the ``choices``, or else the finite numbers from ``low``
    (``low`` itself only when ``closed``) below ``high``; NaN fails every
    comparison, and ``high`` itself, infinite or not, is excluded."""

    low: float = 0
    closed: bool = True
    high: float = math.inf
    choices: tuple = ()

    def admits(self, value) -> bool:
        if self.choices:
            return value in self.choices
        # -0.0 == 0.0, but NumPy reads its sign bit as a negative scale.
        at_low = self.closed and value == self.low and math.copysign(1, value) == math.copysign(1, self.low)
        return (value > self.low or at_low) and value < self.high

    def __str__(self) -> str:
        bound = f"[{self.low:g}" if self.closed else f"({self.low:g}"
        return f"one of {self.choices}" if self.choices else f"in {bound}, {self.high:g})"


def _key(default, domain: Domain):
    """A config field with its default and its own domain, whatever the other keys hold."""
    return field(default=default, metadata={"domain": domain})


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings; the field defaults are the global defaults, a
    field's annotation is the type its config value converts to, and its
    domain the values it may take, which _validate checks."""

    experiment: str
    horizons: tuple[int, ...] = _key((20000,), Domain(2))
    replicates: int = _key(200, Domain(1))
    master_seed: int = _key(20260814, Domain(0))
    batch: int = _key(200, Domain(1))
    d: int = _key(2, Domain(1))
    n_actions: int = _key(5, Domain(2))
    rho: float = _key(0.3, Domain(0.0))
    catalog_size: int = _key(8, Domain(1))
    catalog_seed: int = _key(7, Domain(0))
    # The prior covariance is prior_scale^2 I, and theta, so every regret,
    # scales with prior_scale; the aggregates square regret sums.
    prior_scale: float = _key(1.0, Domain(1e-100, high=1e100))
    minority_prob: float = _key(0.0, Domain(0.0, high=1.0))
    noise: str = _key("gaussian", Domain(choices=tuple(kind.value for kind in NoiseKind)))
    theta_variant: str = _key("theta0", Domain(choices=THETA_VARIANTS))
    population: str = _key("full", Domain(choices=("full", "minority")))
    # Perturbed LinUCB starts from the inverse I / ridge, and its first
    # Sherman-Morrison step, a product of two of its rows, overflows below 1e-154.
    ridge: float = _key(1.0, Domain(1e-100))
    policies: tuple[str, ...] = ()  # its domain is its experiment's spec.policies
    n_targets: int = _key(20, Domain(1))
    sim_draws: int = _key(100000, Domain(10))
    restriction: str = _key("minority", Domain(choices=RESTRICTIONS))
    restriction_p: float = _key(0.5, Domain(0.0, closed=False, high=1.0))

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

    ``overrides`` (``--set`` on the command line) take precedence over file values.
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
    spec = EXPERIMENT_SPECS[cfg.experiment]
    for f in fields(cfg):
        domain = Domain(choices=spec.policies) if f.name == "policies" else f.metadata.get("domain")
        if domain is None:
            continue
        value = getattr(cfg, f.name)
        items = value if isinstance(value, tuple) else (value,)
        if not items or len(set(items)) < len(items):
            raise ConfigError(f"{f.name} must be one or more distinct values, got {value!r} on {cfg.experiment}")
        for item in items:
            if not domain.admits(item):
                raise ConfigError(f"{f.name} must be {domain}, got {item!r} on {cfg.experiment}")
    if cfg.rho > 1.0 / math.sqrt(cfg.d) + 1e-12:
        raise ConfigError(f"rho must not exceed 1/sqrt(d) = {1.0 / math.sqrt(cfg.d):.6g}")
    if cfg.minority_prob > 0 and cfg.catalog_size < 2:
        raise ConfigError("minority_prob > 0 needs catalog_size of at least 2, one entry per group")
    if cfg.minority_prob > 0 and cfg.d < 2:
        raise ConfigError("minority_prob > 0 needs d of at least 2, one axis per group")
    if (spec.comparator or spec.lambda_checks or spec.family == "audit") and len(cfg.horizons) > 1:
        twice = ", and horizons that share T // batch would run the LinUCB comparator twice"
        raise ConfigError(
            f"{cfg.experiment} takes one horizon: its checks read one{twice if spec.comparator else ''}"
        )
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

