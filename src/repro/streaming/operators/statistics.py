"""Statistical operators: covariance and partial/mergeable statistics.

The ``COV`` query of the complex workload computes, every second, the
covariance of the CPU usage of two nodes.  The query is deployed as a chain of
fragments; every fragment computes covariance statistics over its own pair of
sources and forwards *mergeable partial statistics* downstream, where they are
combined using the pairwise-update formulas (Chan et al.) so the chain
produces the covariance over all contributing fragments.

Partial aggregates for the AVG-all tree deployment live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ...core.tuples import Tuple
from ..windows import TimeWindow, WindowPane
from .base import Operator, PaneGroup


def _pane_float_series(pane: WindowPane, field: str) -> List[float]:
    """``field`` of every pane row as floats, column-wise when possible.

    Mirrors the seed's ``float(t.values.get(field, 0.0))`` semantics: rows
    without the field contribute ``0.0`` (uniform block schemas make that a
    whole-pane decision on the columnar path).  ``float64`` columns convert
    through ``tolist()`` — the identical Python floats, one C call — so the
    sequential Welford/merge consumers keep operating on plain scalars.
    """
    cols = pane.columns(field)
    if cols is not None:
        (column,) = cols
        if column is None:
            # Uniform schema without the field: every row reads as 0.0.
            return [0.0] * len(pane)
        if column.dtype == np.float64:
            return column.tolist()
        return [float(v) for v in column.tolist()]
    return [float(t.values.get(field, 0.0)) for t in pane.tuples]

__all__ = [
    "CovarianceStats",
    "Covariance",
    "CovarianceMerge",
    "PartialAverage",
    "AverageMerge",
]


@dataclass
class CovarianceStats:
    """Mergeable sufficient statistics for a sample covariance."""

    count: float = 0.0
    mean_x: float = 0.0
    mean_y: float = 0.0
    comoment: float = 0.0

    def add(self, x: float, y: float) -> None:
        self.count += 1.0
        dx = x - self.mean_x
        self.mean_x += dx / self.count
        self.mean_y += (y - self.mean_y) / self.count
        self.comoment += dx * (y - self.mean_y)

    def merge(self, other: "CovarianceStats") -> "CovarianceStats":
        if other.count == 0:
            return self
        if self.count == 0:
            return CovarianceStats(
                other.count, other.mean_x, other.mean_y, other.comoment
            )
        total = self.count + other.count
        dx = other.mean_x - self.mean_x
        dy = other.mean_y - self.mean_y
        merged = CovarianceStats(
            count=total,
            mean_x=self.mean_x + dx * other.count / total,
            mean_y=self.mean_y + dy * other.count / total,
            comoment=self.comoment
            + other.comoment
            + dx * dy * self.count * other.count / total,
        )
        return merged

    def covariance(self) -> Optional[float]:
        """Population covariance, or ``None`` when no samples exist."""
        if self.count < 1:
            return None
        return self.comoment / self.count

    def to_payload(self) -> Dict[str, float]:
        return {
            "cov_count": self.count,
            "cov_mean_x": self.mean_x,
            "cov_mean_y": self.mean_y,
            "cov_comoment": self.comoment,
            "cov": self.covariance() if self.count >= 1 else 0.0,
        }

    @classmethod
    def from_payload(cls, values: Dict[str, object]) -> Optional["CovarianceStats"]:
        try:
            return cls(
                count=float(values["cov_count"]),
                mean_x=float(values["cov_mean_x"]),
                mean_y=float(values["cov_mean_y"]),
                comoment=float(values["cov_comoment"]),
            )
        except (KeyError, TypeError, ValueError):
            return None


class Covariance(Operator):
    """Windowed covariance between two input streams.

    Port 0 carries the ``x`` series and port 1 the ``y`` series; samples are
    paired by arrival order within the aligned window (both sources sample the
    quantity at the same cadence in the paper's monitoring workload).
    """

    def __init__(
        self,
        field_x: str = "value",
        field_y: str = "value",
        window_seconds: float = 1.0,
        slide_seconds: Optional[float] = None,
        emit_partials: bool = False,
        cost_per_tuple: float = 0.8,
    ) -> None:
        super().__init__(
            name=f"cov({field_x},{field_y})",
            cost_per_tuple=cost_per_tuple,
            num_ports=2,
            window_factory=lambda: TimeWindow(window_seconds, slide_seconds),
        )
        self.field_x = field_x
        self.field_y = field_y
        self.emit_partials = emit_partials

    def _process(self, panes: PaneGroup, now: float) -> List[Tuple]:
        left = panes.get(0)
        right = panes.get(1)
        if left is None or right is None:
            return []
        xs = _pane_float_series(left, self.field_x)
        ys = _pane_float_series(right, self.field_y)
        pairs = min(len(xs), len(ys))
        if pairs == 0:
            return []
        stats = CovarianceStats()
        for x, y in zip(xs[:pairs], ys[:pairs]):
            stats.add(x, y)
        timestamp = self._pane_timestamp(panes, now)
        payload: Dict[str, object]
        if self.emit_partials:
            payload = stats.to_payload()
        else:
            payload = {"cov": stats.covariance()}
        return [Tuple(timestamp=timestamp, sic=0.0, values=payload)]


class CovarianceMerge(Operator):
    """Merge partial covariance statistics from several upstream fragments."""

    def __init__(
        self,
        num_ports: int = 2,
        window_seconds: float = 1.0,
        slide_seconds: Optional[float] = None,
        emit_partials: bool = False,
        cost_per_tuple: float = 0.3,
    ) -> None:
        super().__init__(
            name="cov-merge",
            cost_per_tuple=cost_per_tuple,
            num_ports=num_ports,
            window_factory=lambda: TimeWindow(window_seconds, slide_seconds),
        )
        self.emit_partials = emit_partials

    def _process(self, panes: PaneGroup, now: float) -> List[Tuple]:
        merged = CovarianceStats()
        found = False
        for t in self._all_tuples(panes):
            stats = CovarianceStats.from_payload(t.values)
            if stats is None:
                continue
            merged = merged.merge(stats)
            found = True
        if not found:
            return []
        timestamp = self._pane_timestamp(panes, now)
        payload: Dict[str, object]
        if self.emit_partials:
            payload = merged.to_payload()
        else:
            payload = {"cov": merged.covariance()}
        return [Tuple(timestamp=timestamp, sic=0.0, values=payload)]


class PartialAverage(Operator):
    """Emit mergeable (sum, count) partials of a field per window.

    Used by the leaf fragments of the AVG-all tree deployment: each fragment
    averages its own 10 sources and forwards the partial sums to the root
    fragment, which combines them with :class:`AverageMerge`.
    """

    def __init__(
        self,
        field: str = "v",
        window_seconds: float = 1.0,
        slide_seconds: Optional[float] = None,
        cost_per_tuple: float = 0.5,
    ) -> None:
        super().__init__(
            name=f"partial-avg({field})",
            cost_per_tuple=cost_per_tuple,
            window_factory=lambda: TimeWindow(window_seconds, slide_seconds),
        )
        self.field = field

    def _process(self, panes: PaneGroup, now: float) -> List[Tuple]:
        values: List[float] = []
        for port in sorted(panes):
            pane = panes[port]
            cols = pane.columns(self.field)
            if cols is not None:
                (column,) = cols
                # column None: uniform schema without the field — nothing to
                # average from this pane.
                if column is not None:
                    if column.dtype == np.float64:
                        # float64 columns carry no None; tolist() yields the
                        # identical Python floats in one call.
                        values.extend(column.tolist())
                    else:
                        values.extend(
                            float(v) for v in column if v is not None
                        )
                continue
            values.extend(
                float(t.values[self.field])
                for t in pane.tuples
                if self.field in t.values and t.values[self.field] is not None
            )
        if not values:
            return []
        timestamp = self._pane_timestamp(panes, now)
        return [
            Tuple(
                timestamp=timestamp,
                sic=0.0,
                values={
                    "partial_sum": float(sum(values)),
                    "partial_count": float(len(values)),
                    "avg": sum(values) / len(values),
                },
            )
        ]


class AverageMerge(Operator):
    """Combine (sum, count) partials into a global average."""

    def __init__(
        self,
        num_ports: int = 2,
        window_seconds: float = 1.0,
        slide_seconds: Optional[float] = None,
        emit_partials: bool = False,
        cost_per_tuple: float = 0.3,
    ) -> None:
        super().__init__(
            name="avg-merge",
            cost_per_tuple=cost_per_tuple,
            num_ports=num_ports,
            window_factory=lambda: TimeWindow(window_seconds, slide_seconds),
        )
        self.emit_partials = emit_partials

    def _process(self, panes: PaneGroup, now: float) -> List[Tuple]:
        total = 0.0
        count = 0.0
        found = False
        for t in self._all_tuples(panes):
            if "partial_sum" in t.values and "partial_count" in t.values:
                total += float(t.values["partial_sum"])
                count += float(t.values["partial_count"])
                found = True
        if not found or count == 0:
            return []
        timestamp = self._pane_timestamp(panes, now)
        values: Dict[str, object] = {"avg": total / count}
        if self.emit_partials:
            values.update({"partial_sum": total, "partial_count": count})
        return [Tuple(timestamp=timestamp, sic=0.0, values=values)]
