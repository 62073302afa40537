"""Shared domain types: groups, noise families, context vectors, and batch boundaries."""

from __future__ import annotations

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
