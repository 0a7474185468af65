"""Windowed aggregate operators: average, sum, count, max, min, group-by.

These implement the aggregate workload of Table 1 (``AVG``, ``MAX``,
``COUNT ... Having``) and the aggregation steps of the complex workload.  Each
operator consumes a time window atomically and emits one tuple per window
(or one per group for :class:`GroupByAggregate`), so Equation (3) assigns the
whole window's SIC to the emitted result.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from ...core.columns import seq_sum
from ...core.tuples import Tuple
from ..windows import TimeWindow, WindowPane
from .base import Operator, PaneGroup


# The qualifying-value sequence of one window: a float64 array on the fully
# vectorized path, a plain list everywhere else.  Reductions over arrays go
# through sequential-order primitives (np.cumsum's last element, np.min/max —
# bit-equal to the left-to-right Python loop), never pairwise np.sum.
Values = Union[List[float], "np.ndarray"]

__all__ = [
    "WindowedAggregate",
    "Average",
    "Sum",
    "Count",
    "Max",
    "Min",
    "GroupByAggregate",
]


class WindowedAggregate(Operator):
    """Base class for single-field aggregates over a time window.

    Args:
        field: payload field the aggregate is computed over.
        output_field: name of the output payload field.
        window_seconds: window range (``[Range n sec]``).
        slide_seconds: optional slide for sliding windows.
        predicate: optional per-tuple predicate applied before aggregation
            (CQL ``Having``); tuples failing it still count towards the SIC of
            the window (the operator consumed them) but not towards the value.
    """

    aggregate_name = "agg"

    def __init__(
        self,
        field: str,
        output_field: Optional[str] = None,
        window_seconds: float = 1.0,
        slide_seconds: Optional[float] = None,
        predicate: Optional[Callable[[Tuple], bool]] = None,
        cost_per_tuple: float = 0.5,
    ) -> None:
        super().__init__(
            name=f"{self.aggregate_name}({field})",
            cost_per_tuple=cost_per_tuple,
            window_factory=lambda: TimeWindow(window_seconds, slide_seconds),
        )
        self.field = field
        self.output_field = output_field or self.aggregate_name
        self.predicate = predicate

    def _values(self, panes: PaneGroup) -> Values:
        """Qualifying values of the window, pulled column-wise when possible.

        Columnar panes contribute their payload column directly (with the
        ``Having`` predicate evaluated over the predicate field's column);
        non-columnar panes — and any predicate without a column annotation —
        go through the seed per-tuple loop.  Both paths visit the same rows
        in the same (timestamp-sorted) order, so the extracted value
        sequence is identical either way.  ``float64`` columns (the columnar
        v2 representation) stay arrays end to end — the predicate becomes a
        boolean mask and :meth:`_compute` reduces with sequential-order
        primitives — so the per-row Python loop disappears entirely.
        """
        predicate = self.predicate
        predicate_field = (
            getattr(predicate, "column_field", None)
            if predicate is not None
            else None
        )
        # Qualifying values per pane, in pane order: float64 arrays from the
        # vectorized path, lists from the per-tuple/object-column fallbacks.
        parts: List[Values] = []
        for port in sorted(panes):
            pane = panes[port]
            if predicate is None:
                cols = pane.columns(self.field)
                if cols is not None:
                    (column,) = cols
                    if column is None:
                        # Uniform schema, no row carries the field.
                        continue
                    if column.dtype == np.float64:
                        parts.append(column)
                        continue
                    chunk: List[float] = []
                    for value in column:
                        if value is None:
                            continue
                        chunk.append(float(value))
                    parts.append(chunk)
                    continue
            elif predicate_field is not None:
                cols = pane.columns(self.field, predicate_field)
                if cols is not None:
                    column, predicate_column = cols
                    # predicate_column None: the Having field is absent from
                    # the uniform schema, so every row fails the predicate.
                    if column is None or predicate_column is None:
                        continue
                    compare = predicate.column_compare
                    threshold = predicate.column_threshold
                    if (
                        column.dtype == np.float64
                        and predicate_column.dtype == np.float64
                    ):
                        # Element-wise comparison == the scalar predicate
                        # applied per row (float64 columns carry no None).
                        parts.append(column[compare(predicate_column, threshold)])
                        continue
                    chunk = []
                    for value, probe in zip(column, predicate_column):
                        if probe is None or not compare(probe, threshold):
                            continue
                        if value is None:
                            continue
                        chunk.append(float(value))
                    parts.append(chunk)
                    continue
            chunk = []
            self._tuple_values(pane, chunk)
            parts.append(chunk)
        if not parts:
            return []
        if all(isinstance(p, np.ndarray) for p in parts):
            return parts[0] if len(parts) == 1 else np.concatenate(parts)
        flat: List[float] = []
        for part in parts:
            if isinstance(part, np.ndarray):
                flat.extend(part.tolist())
            else:
                flat.extend(part)
        return flat

    def _tuple_values(self, pane: WindowPane, values: List[float]) -> None:
        """Seed per-tuple extraction for one pane (appends into ``values``)."""
        field = self.field
        predicate = self.predicate
        for t in pane.tuples:
            if predicate is not None and not predicate(t):
                continue
            value = t.values.get(field)
            if value is None:
                continue
            values.append(float(value))

    def _compute(self, values: Values) -> Optional[float]:
        raise NotImplementedError

    def _process(self, panes: PaneGroup, now: float) -> List[Tuple]:
        values = self._values(panes)
        result = self._compute(values)
        if result is None:
            return []
        timestamp = self._pane_timestamp(panes, now)
        return [Tuple(timestamp=timestamp, sic=0.0, values={self.output_field: result})]


class Average(WindowedAggregate):
    """``Select Avg(t.v) From Src[Range n sec]``."""

    aggregate_name = "avg"

    def _compute(self, values: Values) -> Optional[float]:
        if len(values) == 0:
            return None
        return seq_sum(values) / len(values)


class Sum(WindowedAggregate):
    """Windowed sum."""

    aggregate_name = "sum"

    def _compute(self, values: Values) -> Optional[float]:
        if len(values) == 0:
            return None
        return seq_sum(values)


class Count(WindowedAggregate):
    """``Select Count(t.v) From Src[Range n sec] Having <predicate>``.

    A window with zero qualifying tuples still emits a count of 0 when the
    window itself was non-empty: the query consumed data and produced a
    (perfectly valid) result of zero.
    """

    aggregate_name = "count"

    def _process(self, panes: PaneGroup, now: float) -> List[Tuple]:
        if not any(len(pane) for pane in panes.values()):
            return []
        values = self._values(panes)
        timestamp = self._pane_timestamp(panes, now)
        return [
            Tuple(
                timestamp=timestamp,
                sic=0.0,
                values={self.output_field: float(len(values))},
            )
        ]

    def _compute(self, values: List[float]) -> Optional[float]:  # pragma: no cover
        return float(len(values))


class Max(WindowedAggregate):
    """``Select Max(t.v) From Src[Range n sec]``."""

    aggregate_name = "max"

    def _compute(self, values: Values) -> Optional[float]:
        if len(values) == 0:
            return None
        if isinstance(values, np.ndarray):
            return float(values.max())
        return max(values)


class Min(WindowedAggregate):
    """Windowed minimum."""

    aggregate_name = "min"

    def _compute(self, values: Values) -> Optional[float]:
        if len(values) == 0:
            return None
        if isinstance(values, np.ndarray):
            return float(values.min())
        return min(values)


class GroupByAggregate(Operator):
    """Group tuples by a key field and aggregate a value field per group.

    Emits one tuple per group and window; the window SIC is divided equally
    across the emitted groups (Equation 3).
    """

    _AGGREGATES: Dict[str, Callable[[List[float]], float]] = {
        "avg": lambda vs: sum(vs) / len(vs),
        "sum": lambda vs: float(sum(vs)),
        "count": lambda vs: float(len(vs)),
        "max": max,
        "min": min,
    }

    def __init__(
        self,
        key_field: str,
        value_field: str,
        aggregate: str = "avg",
        window_seconds: float = 1.0,
        slide_seconds: Optional[float] = None,
        cost_per_tuple: float = 0.6,
    ) -> None:
        if aggregate not in self._AGGREGATES:
            raise ValueError(
                f"unknown aggregate {aggregate!r}; expected one of "
                f"{sorted(self._AGGREGATES)}"
            )
        super().__init__(
            name=f"groupby[{key_field}].{aggregate}({value_field})",
            cost_per_tuple=cost_per_tuple,
            window_factory=lambda: TimeWindow(window_seconds, slide_seconds),
        )
        self.key_field = key_field
        self.value_field = value_field
        self.aggregate = aggregate

    def _process(self, panes: PaneGroup, now: float) -> List[Tuple]:
        groups: Dict[Any, List[float]] = {}
        for port in sorted(panes):
            pane = panes[port]
            cols = pane.columns(self.key_field, self.value_field)
            if cols is not None:
                keys, group_values = cols
                # A None column: uniform schema without the key/value field —
                # no row can contribute to any group.  tolist() keeps the
                # keys emitted into output payloads plain Python objects.
                if keys is not None and group_values is not None:
                    for key, value in zip(
                        keys.tolist(), group_values.tolist()
                    ):
                        if key is None or value is None:
                            continue
                        groups.setdefault(key, []).append(float(value))
                continue
            for t in pane.tuples:
                key = t.values.get(self.key_field)
                value = t.values.get(self.value_field)
                if key is None or value is None:
                    continue
                groups.setdefault(key, []).append(float(value))
        if not groups:
            return []
        timestamp = self._pane_timestamp(panes, now)
        compute = self._AGGREGATES[self.aggregate]
        outputs = []
        for key in sorted(groups, key=str):
            outputs.append(
                Tuple(
                    timestamp=timestamp,
                    sic=0.0,
                    values={
                        self.key_field: key,
                        self.aggregate: compute(groups[key]),
                    },
                )
            )
        return outputs
