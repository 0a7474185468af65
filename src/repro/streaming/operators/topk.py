"""Top-k operators.

``TOP-5`` in the complex workload reports, every second, the five node
identifiers with the largest available CPU among nodes with enough free
memory.  :class:`TopK` implements the windowed top-k selection and
:class:`TopKMerge` combines partial top-k lists produced by upstream fragments
(the TOP-5 query is deployed as a chain of fragments, each contributing its
local candidates — §7, "Experimental set-up").
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...core.tuples import Tuple
from ..windows import TimeWindow
from .base import Operator, PaneGroup

__all__ = ["TopK", "TopKMerge"]


def _collect_best(
    panes: PaneGroup, id_field: str, value_field: str
) -> Dict[object, float]:
    """Best value per identifier across the group, column-wise when possible.

    Columns convert through ``ndarray.tolist()`` before row iteration so the
    identifiers that end up in output payloads are the identical Python
    objects the per-tuple path emits (never ``np.float64`` scalars).
    """
    best: Dict[object, float] = {}
    for port in sorted(panes):
        pane = panes[port]
        cols = pane.columns(id_field, value_field)
        if cols is not None:
            idents, values = cols
            # A None column: uniform schema without the id/value field — the
            # pane offers no candidates.
            if idents is not None and values is not None:
                for ident, value in zip(idents.tolist(), values.tolist()):
                    if ident is None or value is None:
                        continue
                    value = float(value)
                    if ident not in best or value > best[ident]:
                        best[ident] = value
            continue
        for t in pane.tuples:
            ident = t.values.get(id_field)
            value = t.values.get(value_field)
            if ident is None or value is None:
                continue
            value = float(value)
            if ident not in best or value > best[ident]:
                best[ident] = value
    return best


class TopK(Operator):
    """Emit the ``k`` tuples with the largest ``value_field`` per window.

    One output tuple is emitted per rank, carrying the identifier, the value
    and the rank, so downstream operators (and the Kendall-distance error
    metric) can reconstruct the ranked list.
    """

    def __init__(
        self,
        k: int,
        value_field: str,
        id_field: str,
        window_seconds: float = 1.0,
        slide_seconds: Optional[float] = None,
        cost_per_tuple: float = 0.8,
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        super().__init__(
            name=f"top{k}({id_field} by {value_field})",
            cost_per_tuple=cost_per_tuple,
            window_factory=lambda: TimeWindow(window_seconds, slide_seconds),
        )
        self.k = int(k)
        self.value_field = value_field
        self.id_field = id_field

    def _process(self, panes: PaneGroup, now: float) -> List[Tuple]:
        # Keep the best value seen per identifier within the window, then rank.
        best = _collect_best(panes, self.id_field, self.value_field)
        if not best:
            return []
        ranked = sorted(best.items(), key=lambda kv: (-kv[1], str(kv[0])))[: self.k]
        timestamp = self._pane_timestamp(panes, now)
        outputs = []
        for rank, (ident, value) in enumerate(ranked, start=1):
            outputs.append(
                Tuple(
                    timestamp=timestamp,
                    sic=0.0,
                    values={
                        self.id_field: ident,
                        self.value_field: value,
                        "rank": rank,
                    },
                )
            )
        return outputs


class TopKMerge(Operator):
    """Merge partial top-k candidate lists from several inputs.

    Used by the chained deployment of the TOP-5 query: each fragment sends its
    local candidates downstream, and the next fragment merges them with its own
    candidates before re-ranking.
    """

    def __init__(
        self,
        k: int,
        value_field: str,
        id_field: str,
        num_ports: int = 2,
        window_seconds: float = 1.0,
        slide_seconds: Optional[float] = None,
        cost_per_tuple: float = 0.4,
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        super().__init__(
            name=f"top{k}-merge",
            cost_per_tuple=cost_per_tuple,
            num_ports=num_ports,
            window_factory=lambda: TimeWindow(window_seconds, slide_seconds),
        )
        self.k = int(k)
        self.value_field = value_field
        self.id_field = id_field

    def _process(self, panes: PaneGroup, now: float) -> List[Tuple]:
        best = _collect_best(panes, self.id_field, self.value_field)
        if not best:
            return []
        ranked = sorted(best.items(), key=lambda kv: (-kv[1], str(kv[0])))[: self.k]
        timestamp = self._pane_timestamp(panes, now)
        return [
            Tuple(
                timestamp=timestamp,
                sic=0.0,
                values={self.id_field: ident, self.value_field: value, "rank": rank},
            )
            for rank, (ident, value) in enumerate(ranked, start=1)
        ]
