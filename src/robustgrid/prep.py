"""Raw weather history to model-ready capacity factor series.

Three steps turn multi-year hourly availability data into the bundles the
planner consumes: block-mean reduction to the model's step length, synthesis
of a worst-week lower bound (per week, pick the historical year whose week
had the lowest mean and concatenate those weeks), and the per-step deviation
between the reference series and that lower bound.

Weeks are consecutive 168-hour blocks from the series start; a partial
trailing week is dropped. The reference series defaults to the pointwise
multi-year mean.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "HOURS_PER_WEEK",
    "RawHistorySet",
    "read_history_csv",
    "reduce_series",
    "reference_series",
    "synthesize_lower_bound",
    "compute_deviation",
]

log = logging.getLogger(__name__)

HOURS_PER_WEEK = 168


@dataclass(frozen=True)
class RawHistorySet:
    """Hourly capacity factor history per unit: (years, hours) matrices.

    All units share the same year labels and hour count.
    """

    years: tuple[str, ...]
    matrices: dict[str, np.ndarray]

    def __post_init__(self):
        Y = len(self.years)
        H = None
        for uid, mat in self.matrices.items():
            if mat.ndim != 2 or mat.shape[0] != Y:
                raise ValueError(
                    f"{uid}: history shape {mat.shape} does not match {Y} years"
                )
            if H is None:
                H = mat.shape[1]
            elif mat.shape[1] != H:
                raise ValueError(f"{uid}: hour count {mat.shape[1]} != {H}")
            if np.any((mat < 0) | (mat > 1)):
                raise ValueError(f"{uid}: capacity factors outside [0, 1]")

    def unit_history(self, unit_id: str) -> np.ndarray:
        if unit_id not in self.matrices:
            raise KeyError(f"no history for unit {unit_id!r}")
        return self.matrices[unit_id]


def read_history_csv(paths: dict[str, str | Path]) -> RawHistorySet:
    """Read one CSV per unit: first cell of each row a year label, rest hours."""
    years: tuple[str, ...] | None = None
    matrices: dict[str, np.ndarray] = {}
    for uid, path in paths.items():
        labels: list[str] = []
        rows: list[list[float]] = []
        with open(path, newline="") as fh:
            for ln, row in enumerate(csv.reader(fh), start=1):
                if not row or all(not c.strip() for c in row):
                    continue
                labels.append(row[0].strip())
                try:
                    rows.append([float(c) for c in row[1:]])
                except ValueError as exc:
                    raise ValueError(f"{path}:{ln}: non-numeric cell ({exc})") from exc
        if years is None:
            years = tuple(labels)
        elif tuple(labels) != years:
            raise ValueError(f"{path}: year labels differ from other units")
        matrices[uid] = np.asarray(rows, dtype=float)
    if years is None:
        raise ValueError("no history files given")
    return RawHistorySet(years=years, matrices=matrices)


def reduce_series(hourly, window_hours: int):
    """Means over consecutive windows; output length = input length / window.

    The global mean is preserved exactly (each input hour contributes to
    exactly one block). window_hours must divide the series length.
    """
    arr = np.asarray(hourly, dtype=float)
    if window_hours < 1:
        raise ValueError(f"window_hours must be >= 1, got {window_hours}")
    if arr.ndim != 1:
        raise ValueError("reduce_series expects a 1-d series")
    if arr.size % window_hours:
        raise ValueError(
            f"window of {window_hours} h does not divide series length {arr.size}"
        )
    return arr.reshape(-1, window_hours).mean(axis=1)


def reference_series(history: RawHistorySet, unit_id: str):
    """Pointwise mean across years: the expected availability per hour."""
    return history.unit_history(unit_id).mean(axis=0)


def synthesize_lower_bound(history: RawHistorySet, unit_id: str):
    """Concatenate, per week, the historical week with the lowest mean.

    Splits every year into consecutive 168-hour weeks (partial trailing week
    dropped), picks for each week index the year whose week has the minimum
    mean availability, and concatenates those weeks into one synthetic year
    of length weeks * 168.
    """
    mat = history.unit_history(unit_id)
    weeks = mat.shape[1] // HOURS_PER_WEEK
    if weeks == 0:
        raise ValueError(
            f"{unit_id}: history of {mat.shape[1]} h is shorter than one week"
        )
    dropped = mat.shape[1] - weeks * HOURS_PER_WEEK
    if dropped:
        log.debug("%s: dropping %d trailing hours (partial week)", unit_id, dropped)
    # (years, weeks, 168) view of the complete weeks
    blocks = mat[:, : weeks * HOURS_PER_WEEK].reshape(mat.shape[0], weeks, HOURS_PER_WEEK)
    worst_year = blocks.mean(axis=2).argmin(axis=0)
    return np.concatenate([blocks[worst_year[w], w, :] for w in range(weeks)])


def compute_deviation(reference, lower_bound):
    """Per-step drop from reference to lower bound, clipped at zero.

    Spots where the lower bound exceeds the reference (possible after
    independent rounding of the two series) are clipped to zero deviation
    and logged, keeping every realizable capacity factor inside [0, 1].
    """
    ref = np.asarray(reference, dtype=float)
    lb = np.asarray(lower_bound, dtype=float)
    if ref.shape != lb.shape:
        raise ValueError(f"length mismatch: reference {ref.shape} vs lower bound {lb.shape}")
    dev = ref - lb
    negatives = dev < 0
    if np.any(negatives):
        log.warning(
            "lower bound exceeds reference at %d of %d steps (worst %.3g); clipping",
            int(negatives.sum()),
            dev.size,
            float(-dev.min()),
        )
        dev = np.where(negatives, 0.0, dev)
    return dev
