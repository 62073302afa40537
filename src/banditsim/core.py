"""Shared domain types: groups, noise families, context rounds, and batch boundaries."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class ConfigurationError(ValueError):
    """Invalid model or instance configuration."""


class Group(Enum):
    MAJORITY = "majority"
    MINORITY = "minority"


class NoiseKind(Enum):
    GAUSSIAN_UNIT = "gaussian"
    BERNOULLI = "bernoulli"


def as_context(coords, d: int | None = None) -> np.ndarray:
    """Validate coordinates and return them as a 1-d float64 vector.

    Parameters
    ----------
    coords : array-like
        Candidate context coordinates.
    d : int, optional
        Required dimension; mismatches raise ``ValueError``.
    """
    x = np.asarray(coords, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("context vector must be one-dimensional and non-empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("context vector coordinates must be finite")
    if d is not None and x.shape[0] != d:
        raise ValueError(f"context vector has dimension {x.shape[0]}, expected {d}")
    return x


@dataclass(frozen=True)
class ContextRound:
    """One round of available actions.

    ``contexts`` holds one optional vector per action slot; ``None`` marks an
    unavailable action.  Every available vector must share one dimension.
    """

    contexts: tuple
    group: Group
    round_index: int = 1

    def __post_init__(self):
        if not isinstance(self.contexts, tuple):
            object.__setattr__(self, "contexts", tuple(self.contexts))
        if len(self.contexts) < 1:
            raise ValueError("a round needs at least one action slot")
        if self.round_index < 1:
            raise ValueError("round_index starts at 1")
        avail = [c for c in self.contexts if c is not None]
        if not avail:
            raise ValueError("at least one context must be available")
        first = as_context(avail[0])
        for c in avail[1:]:
            as_context(c, first.shape[0])

    @property
    def n_actions(self) -> int:
        return len(self.contexts)

    @property
    def dim(self) -> int:
        for c in self.contexts:
            if c is not None:
                return np.asarray(c).shape[0]
        raise ValueError("no available context")

    def available_indices(self) -> tuple:
        return tuple(i for i, c in enumerate(self.contexts) if c is not None)

    def is_available(self, a: int) -> bool:
        return 0 <= a < len(self.contexts) and self.contexts[a] is not None


def last_batch_end(t: int, batch_size: int) -> int:
    """Index of the last round of the most recent completed batch before round ``t``.

    Batches partition rounds into blocks of ``batch_size``; at round ``t`` the
    usable data ends at ``batch_size * floor((t - 1) / batch_size)``.
    """
    if t < 1:
        raise ValueError("t starts at 1")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    return batch_size * ((t - 1) // batch_size)
