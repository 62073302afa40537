"""Shared domain types: the configuration error, noise families, and batch boundaries."""

from __future__ import annotations

from enum import Enum


class ConfigurationError(ValueError):
    """Invalid model or instance configuration."""


class NoiseKind(Enum):
    GAUSSIAN_UNIT = "gaussian"
    BERNOULLI = "bernoulli"


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
