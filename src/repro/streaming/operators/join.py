"""Windowed equi-join.

The TOP-5 query of the complex workload joins CPU and memory measurement
streams on the node identifier within a one-second window
(``AllSrcCPU.id = AllSrcMem.id``).  :class:`WindowEquiJoin` implements that
join as a two-port operator: both ports buffer tuples in identically
configured time windows, aligned panes are joined atomically, and the joined
output shares the input SIC (Equation 3).

Columnar integration: under the default merge rule the join's *output*
payload schema is data-dependent — a shared field name is prefixed only on
the rows where the two sides carry different values — so the join cannot
emit a uniform-schema :class:`~repro.core.columns.ColumnBlock` and
``_process_columnar`` stays a deliberate per-tuple fallback.  The *input*
side is vectorized instead: when both panes are column-backed, the build and
probe phases read the key and payload columns directly and materialize
payload dicts only for matching rows, instead of materializing every
buffered tuple first.  Both paths emit identical tuples in identical order
(differential-tested in ``tests/streaming/test_join_columnar.py``).

``columnar_output=True`` opts into a *prefix-normalised* merge rule instead:
a right-side field is renamed ``right_prefix + name`` whenever the left
schema defines ``name`` — always, not only on conflicting rows.  The output
schema is then uniform across rows, so ``_process_columnar`` emits one
joined ``ColumnBlock`` per round and downstream operators stay columnar.
The default stays off because the rule changes the output schema on rows
where the shared values happen to be equal.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...core.columns import ColumnBlock
from ...core.tuples import Tuple
from ..windows import TimeWindow, WindowPane
from .base import Operator, PaneGroup

__all__ = ["WindowEquiJoin"]


class WindowEquiJoin(Operator):
    """Join two streams on equal key values within a time window.

    Args:
        left_key: key field of port-0 tuples.
        right_key: key field of port-1 tuples.
        window_seconds: window range applied to both ports.
        slide_seconds: optional slide.
        left_prefix / right_prefix: prefixes applied to payload fields of the
            joined output when both sides define the same field name.
        columnar_output: opt into the prefix-normalised merge rule (a right
            field is prefixed whenever its name exists in the left schema,
            regardless of the row's values), which makes the output schema
            uniform and lets the join emit ``ColumnBlock`` output directly.
    """

    def __init__(
        self,
        left_key: str,
        right_key: str,
        window_seconds: float = 1.0,
        slide_seconds: Optional[float] = None,
        left_prefix: str = "left_",
        right_prefix: str = "right_",
        cost_per_tuple: float = 1.0,
        columnar_output: bool = False,
    ) -> None:
        super().__init__(
            name=f"join[{left_key}={right_key}]",
            cost_per_tuple=cost_per_tuple,
            num_ports=2,
            window_factory=lambda: TimeWindow(window_seconds, slide_seconds),
        )
        self.left_key = left_key
        self.right_key = right_key
        self.left_prefix = left_prefix
        self.right_prefix = right_prefix
        self.columnar_output = bool(columnar_output)

    def _merge_payload(self, left: Tuple, right: Tuple) -> Dict[str, object]:
        values: Dict[str, object] = {}
        for name, value in left.values.items():
            values[name] = value
        if self.columnar_output:
            # Prefix-normalised rule: a name in the *left schema* is always
            # prefixed, so every output row carries the same schema.
            prefix = self.right_prefix
            left_fields = left.values
            for name, value in right.values.items():
                if name in left_fields:
                    values[f"{prefix}{name}"] = value
                else:
                    values[name] = value
            return values
        for name, value in right.values.items():
            if name in values and values[name] != value:
                values[f"{self.right_prefix}{name}"] = value
            else:
                values.setdefault(name, value)
        return values

    def _process_columnar(
        self, panes: PaneGroup, now: float
    ) -> Optional[ColumnBlock]:
        """Emit a joined column block (``columnar_output`` only).

        Under the default merge rule this is an explicit per-tuple fallback:
        a shared field is prefixed only on rows where the sides disagree, so
        the output schema varies row by row and there is no uniform column
        representation to emit — the columnar win lives in :meth:`_process`
        instead, which probes the pane *columns* directly.

        With ``columnar_output=True`` the prefix-normalised rule fixes the
        schema per round, and both panes being column-backed lets the probe
        gather survivor rows straight into output columns.
        """
        if not self.columnar_output:
            return None
        left_pane = panes.get(0)
        right_pane = panes.get(1)
        if left_pane is None or right_pane is None:
            return None  # _process loses the consumed SIC, as today
        left_block = left_pane.as_block()
        right_block = right_pane.as_block()
        if left_block is None or right_block is None:
            return None  # per-tuple pane: fall back to the row join
        timestamp = self._pane_timestamp(panes, now)
        right_keys = right_block.values.get(self.right_key)
        left_keys = left_block.values.get(self.left_key)
        if right_keys is None or left_keys is None:
            return ColumnBlock([], [], {})  # no row carries the key
        build: Dict[object, List[int]] = {}
        for j, key in enumerate(right_keys.tolist()):
            if key is None:
                continue
            build.setdefault(key, []).append(j)
        left_rows: List[int] = []
        right_rows: List[int] = []
        for i, key in enumerate(left_keys.tolist()):
            if key is None:
                continue
            rows = build.get(key)
            if rows:
                for j in rows:
                    left_rows.append(i)
                    right_rows.append(j)
        count = len(left_rows)
        if count == 0:
            return ColumnBlock([], [], {})
        # Same field order as the normalised row merge: left block fields
        # first, then right block fields (prefixed where shared).
        values: Dict[str, List[object]] = {}
        for field, column in left_block.values.items():
            column = column.tolist()
            values[field] = [column[i] for i in left_rows]
        prefix = self.right_prefix
        left_fields = left_block.values
        for field, column in right_block.values.items():
            column = column.tolist()
            name = f"{prefix}{field}" if field in left_fields else field
            values[name] = [column[j] for j in right_rows]
        return ColumnBlock(
            timestamps=[timestamp] * count,
            sics=[0.0] * count,
            values=values,
        )

    def _process(self, panes: PaneGroup, now: float) -> List[Tuple]:
        left_pane = panes.get(0)
        right_pane = panes.get(1)
        if left_pane is None or right_pane is None:
            # One side of the join has no data for this window: no output,
            # the consumed SIC is lost exactly as the paper's model dictates.
            return []
        timestamp = self._pane_timestamp(panes, now)
        left_block = left_pane.as_block()
        right_block = right_pane.as_block()
        if left_block is not None and right_block is not None:
            return self._join_blocks(left_block, right_block, timestamp)
        return self._join_tuples(left_pane, right_pane, timestamp)

    def _join_tuples(
        self, left_pane: WindowPane, right_pane: WindowPane, timestamp: float
    ) -> List[Tuple]:
        """Seed per-tuple hash join: build on the right, probe with the left."""
        build: Dict[object, List[Tuple]] = {}
        for t in right_pane.tuples:
            key = t.values.get(self.right_key)
            if key is None:
                continue
            build.setdefault(key, []).append(t)
        outputs: List[Tuple] = []
        for left in left_pane.tuples:
            key = left.values.get(self.left_key)
            if key is None:
                continue
            for right in build.get(key, ()):  # type: ignore[arg-type]
                outputs.append(
                    Tuple(
                        timestamp=timestamp,
                        sic=0.0,
                        values=self._merge_payload(left, right),
                    )
                )
        return outputs

    def _join_blocks(
        self, left_block: ColumnBlock, right_block: ColumnBlock, timestamp: float
    ) -> List[Tuple]:
        """Column-probing hash join over two column-backed panes.

        Rows are visited in pane order, exactly like the per-tuple path, and
        payload dicts are built (in block field order — the order
        ``to_tuples`` would have used) only for the rows that actually match.
        """
        right_keys = right_block.values.get(self.right_key)
        left_keys = left_block.values.get(self.left_key)
        if right_keys is None or left_keys is None:
            # A missing key column means no row can carry the key — the
            # per-tuple path would have skipped every row too.
            return []
        right_keys = right_keys.tolist()
        left_keys = left_keys.tolist()
        build: Dict[object, List[int]] = {}
        for j, key in enumerate(right_keys):
            if key is None:
                continue
            build.setdefault(key, []).append(j)
        left_fields = list(left_block.values)
        left_columns = [left_block.values[f].tolist() for f in left_fields]
        right_fields = list(right_block.values)
        right_columns = [
            right_block.values[f].tolist() for f in right_fields
        ]
        right_prefix = self.right_prefix
        normalised = self.columnar_output
        left_field_set = set(left_fields)
        outputs: List[Tuple] = []
        for i, key in enumerate(left_keys):
            if key is None:
                continue
            rows = build.get(key)
            if not rows:
                continue
            for j in rows:
                # Same merge rule as _merge_payload, applied to column rows.
                values: Dict[str, object] = {
                    f: column[i] for f, column in zip(left_fields, left_columns)
                }
                if normalised:
                    for f, column in zip(right_fields, right_columns):
                        name = f"{right_prefix}{f}" if f in left_field_set else f
                        values[name] = column[j]
                else:
                    for f, column in zip(right_fields, right_columns):
                        value = column[j]
                        if f in values and values[f] != value:
                            values[f"{right_prefix}{f}"] = value
                        else:
                            values.setdefault(f, value)
                outputs.append(Tuple(timestamp=timestamp, sic=0.0, values=values))
        return outputs
