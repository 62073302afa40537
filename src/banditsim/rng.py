"""Deterministic random-stream derivation.

Every random draw in the library comes from a PCG64 generator keyed by
``(master_seed, replicate, purpose)``.  Distinct keys yield statistically
independent streams, and the same key always reproduces the same stream,
so every experiment row is a pure function of its configuration and the
master seed regardless of scheduling or worker count.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np


class Purpose(IntEnum):
    """Stable stream identifiers; the values are part of the reproducibility contract."""

    CONTEXTS = 0
    PERTURBATIONS = 1
    REWARDS = 2
    THETA = 3
    POLICY = 4
    # The audit keys this stream by target, (master_seed, target, SIMULATION);
    # ScalingFit's bootstrap draws from (master_seed, 0, SIMULATION).
    SIMULATION = 5
    CATALOG = 6
    RESTRICTION = 7


def stream(master_seed: int, replicate: int, purpose: Purpose | int) -> np.random.Generator:
    """Derive the generator for one (replicate, purpose) pair.

    Key-derivation rule: PCG64 seeded with
    ``SeedSequence(entropy=master_seed, spawn_key=(replicate, purpose))``.
    """
    if master_seed < 0:
        raise ValueError("master_seed must be a nonnegative integer")
    if replicate < 0:
        raise ValueError("replicate must be a nonnegative integer")
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(replicate), int(purpose)))
    return np.random.Generator(np.random.PCG64(ss))


def replicate_seed_id(master_seed: int, replicate: int) -> int:
    """Stable 64-bit identifier for a replicate, reported in result tables."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(replicate),))
    return int(ss.generate_state(1, np.uint64)[0])
