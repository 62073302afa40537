"""Simulation library for linear contextual bandits with group structure.

The package provides the instances (two-bridge routing and perturbed-context
populations), vectorized engines for the policies under study (LinUCB and the
batched greedy family), the estimators and confidence widths they use, the
reward simulation construction used to audit batched data, and a seeded
experiment harness with a CSV-emitting CLI.
"""

from .config import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    defaults_table,
    parse_config,
)
from .core import (
    ConfigurationError,
    NoiseKind,
    last_batch_end,
)
from .csvio import ResultRow, emit_csv, parse_csv
from .environments import Catalog, TwoBridgeConfig, draw_theta
from .estimators import SufficientStats, min_eigenvalue, ols_estimate
from .metrics import bayesian_regret, scaling_exponent
from .policies import LinUCBParams, interval_width, suggested_batch_size
from .experiments import (
    ExperimentResult,
    ReplicateError,
    build_instance,
    run_experiment,
    simulation_verification_report,
)
from .rng import Purpose, replicate_seed_id, stream
from .simulation import (
    InsufficientDiversityError,
    RadiusError,
    SimulationWeights,
    simulate_reward_many,
    simulation_weights,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
