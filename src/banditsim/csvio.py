"""Result-table serialization: stable column order, 17-significant-digit floats."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

HEADER = (
    "experiment",
    "policy",
    "T",
    "replicate",
    "seed",
    "regret_total",
    "regret_minority",
    "regret_prediction",
    "theta_draw_id",
)


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    policy: str
    horizon: int
    replicate: int
    seed: int
    regret_total: float
    regret_minority: float
    regret_prediction: float
    theta_draw_id: int

    def sort_key(self) -> tuple:
        return (self.policy, self.horizon, self.replicate)


def _fmt(x: float) -> str:
    """Decimal rendering with 17 significant digits (round-trips float64)."""
    return format(float(x), ".17g")


def emit_csv(rows) -> str:
    """Render rows sorted by (policy, T, replicate) as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    for row in sorted(rows, key=ResultRow.sort_key):
        writer.writerow(
            (
                row.experiment,
                row.policy,
                str(row.horizon),
                str(row.replicate),
                str(row.seed),
                _fmt(row.regret_total),
                _fmt(row.regret_minority),
                _fmt(row.regret_prediction),
                str(row.theta_draw_id),
            )
        )
    return buf.getvalue()

