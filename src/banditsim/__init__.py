"""Simulation library for linear contextual bandits with group structure.

The package provides the instances (two-bridge routing and perturbed-context
populations), vectorized engines for the policies under study (LinUCB and the
batched greedy family), the estimators and confidence widths they use, the
reward simulation construction used to audit batched data, and a seeded
experiment harness with a CSV-emitting CLI.  Each name is imported from its
module, for example ``from banditsim.config import parse_config``.
"""

__version__ = "0.1.0"
