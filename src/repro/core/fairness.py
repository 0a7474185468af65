"""Fairness metrics.

The BALANCE-SIC policy aims to equalise the result SIC values of all queries.
The paper quantifies how well the values are balanced with Jain's Fairness
Index (§7.2); this module implements that index together with small summary
helpers used throughout the evaluation harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

from .columns import seq_sum

__all__ = [
    "jains_index",
    "FairnessSummary",
    "summarize_fairness",
    "relative_spread",
    "summary_moments",
]

# Below this many samples the ndarray round-trip costs more than it saves;
# both branches are bit-identical (sequential-order sums via
# repro.core.columns.seq_sum), so the cut-over is a pure perf knob.
_VECTORIZE_MIN = 32


def summary_moments(values: List[float]) -> "tuple[float, float, float, float]":
    """``(mean, variance, min, max)`` of a non-empty float sample.

    The one shared implementation behind :func:`summarize_fairness` and
    :class:`repro.metrics.collectors.SummaryStats`: vectorized with
    sequential-order sums above the cut-over, the exact scalar loops below
    it — bit-identical either way.
    """
    if len(values) >= _VECTORIZE_MIN:
        arr = np.asarray(values)
        mean = seq_sum(arr) / len(values)
        deviations = arr - mean
        variance = seq_sum(deviations * deviations) / len(values)
        return mean, variance, float(arr.min()), float(arr.max())
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, variance, min(values), max(values)


def jains_index(values: Iterable[float]) -> float:
    """Return Jain's Fairness Index of ``values``.

    ``J(x) = (sum x_i)^2 / (n * sum x_i^2)``.  The index ranges from ``1/n``
    (maximally unfair: a single query receives everything) to ``1`` (all
    queries have the same value).  By convention an empty input or an
    all-zero input yields ``1.0`` — a system that gives nothing to anybody is
    (vacuously) balanced, and this matches how the paper reports fully
    overloaded configurations.
    """
    xs = [float(v) for v in values]
    if not xs:
        return 1.0
    if len(xs) >= _VECTORIZE_MIN:
        arr = np.asarray(xs)
        total = seq_sum(arr)
        squares = seq_sum(arr * arr)
    else:
        total = sum(xs)
        squares = sum(x * x for x in xs)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(xs) * squares)


def relative_spread(values: Sequence[float]) -> float:
    """Return ``(max - min) / mean`` of ``values`` (0 when degenerate)."""
    xs = [float(v) for v in values]
    if not xs:
        return 0.0
    if len(xs) >= _VECTORIZE_MIN:
        arr = np.asarray(xs)
        mean = seq_sum(arr) / len(xs)
        if mean == 0.0:
            return 0.0
        return float(arr.max() - arr.min()) / mean
    mean = sum(xs) / len(xs)
    if mean == 0.0:
        return 0.0
    return (max(xs) - min(xs)) / mean


@dataclass
class FairnessSummary:
    """Summary statistics over a set of per-query SIC values."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    jains_index: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "jains_index": self.jains_index,
        }


def summarize_fairness(per_query_sic: Mapping[str, float]) -> FairnessSummary:
    """Summarise per-query SIC values into a :class:`FairnessSummary`."""
    values: List[float] = [float(v) for v in per_query_sic.values()]
    if not values:
        return FairnessSummary(0, 0.0, 0.0, 0.0, 0.0, 1.0)
    mean, variance, minimum, maximum = summary_moments(values)
    return FairnessSummary(
        count=len(values),
        mean=mean,
        std=math.sqrt(variance),
        minimum=minimum,
        maximum=maximum,
        jains_index=jains_index(values),
    )
