"""The checkpoint envelope and the plain-data serialisers it builds on.

Design constraints, in order:

1. **Exactness** — a snapshot→restore round-trip must be *bit-identical*:
   the restored component produces the same floating-point results, in the
   same order, as the original would have.  Incrementally-maintained sums
   (pane SIC, batch header SIC — which may be prefix-derived after a
   ``Batch.split``) are therefore recorded verbatim rather than re-summed on
   restore.
2. **Isolation** — restored state shares no mutable structure with the
   source: every list, dict and column is copied through the plain-data
   form, so a migrated fragment cannot alias its old host's buffers.
3. **Schema checking** — a checkpoint names the component shape it was taken
   from (window kind and parameters, operator type and port count, fragment
   and query identifiers) and ``restore()`` refuses mismatches with
   :class:`CheckpointError` instead of silently corrupting state.

The serialised form is plain Python data (dicts, lists, floats); payload
values are carried as-is, exactly like the live pipeline carries them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..core.columns import ColumnBlock
from ..core.tuples import Batch, Tuple


def _copy_column(column, lo: int = 0, hi: Optional[int] = None):
    """Copy one column slice into standalone storage (no aliasing).

    Array columns stay arrays (a ``float64`` memcpy, far cheaper than
    expanding 10⁵ rows into Python objects on the migration hot path); list
    columns in hand-built states stay lists.  Either way the copy shares
    nothing with its source, and :func:`block_from_state` normalizes it to
    ndarray columns.
    """
    if isinstance(column, np.ndarray):
        return column[lo:hi].copy() if (lo, hi) != (0, None) else column.copy()
    return column[lo:hi]

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "FragmentCheckpoint",
    "tuple_to_state",
    "tuple_from_state",
    "block_to_state",
    "block_from_state",
    "batch_to_state",
    "batch_from_state",
]

# Bumped whenever the serialised layout changes incompatibly; restore paths
# refuse envelopes from another version instead of guessing.
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint failed schema validation or targets the wrong component."""


# --------------------------------------------------------------- tuple state
def tuple_to_state(t: Tuple) -> Dict[str, Any]:
    """Serialise one tuple (payload dict copied, never aliased)."""
    return {
        "timestamp": t.timestamp,
        "sic": t.sic,
        "values": dict(t.values),
        "source_id": t.source_id,
    }


def tuple_from_state(state: Dict[str, Any]) -> Tuple:
    return Tuple(
        timestamp=state["timestamp"],
        sic=state["sic"],
        values=dict(state["values"]),
        source_id=state["source_id"],
    )


# --------------------------------------------------------------- block state
def block_to_state(
    block: ColumnBlock, lo: int = 0, hi: Optional[int] = None
) -> Dict[str, Any]:
    """Serialise rows ``lo:hi`` of a column group as copied columns.

    Columns stay ndarrays — the state is still plain data in the sense that
    matters (copied, self-contained, version-checked).
    """
    if hi is None:
        hi = len(block)
    return {
        "timestamps": _copy_column(block.timestamps, lo, hi),
        "sics": _copy_column(block.sics, lo, hi),
        "values": {f: _copy_column(col, lo, hi) for f, col in block.values.items()},
        "source_id": block.source_id,
    }


def block_from_state(state: Dict[str, Any]) -> ColumnBlock:
    return ColumnBlock(
        timestamps=_copy_column(state["timestamps"]),
        sics=_copy_column(state["sics"]),
        values={f: _copy_column(col) for f, col in state["values"].items()},
        source_id=state["source_id"],
    )


# --------------------------------------------------------------- batch state
def batch_to_state(batch: Batch) -> Dict[str, Any]:
    """Serialise a batch in its native representation (columnar or tuples).

    The header SIC is recorded verbatim: a batch produced by ``split``
    carries a prefix-derived header that a naive re-sum would not reproduce
    bit for bit.
    """
    state: Dict[str, Any] = {
        "query_id": batch.query_id,
        "sic": batch.header.sic,
        "created_at": batch.created_at,
        "fragment_id": batch.fragment_id,
        "origin_fragment_id": batch.origin_fragment_id,
    }
    if batch.origin_seq is not None:
        # Exactly-once output watermark: recorded only when present so the
        # serialised layout of ordinary (unstamped) batches is unchanged.
        state["origin_epoch"] = batch.origin_epoch
        state["origin_seq"] = batch.origin_seq
    view = batch.block_view()
    if view is not None:
        block, lo, hi = view
        state["block"] = block_to_state(block, lo, hi)
    else:
        state["tuples"] = [tuple_to_state(t) for t in batch.tuples]
    return state


def batch_from_state(state: Dict[str, Any]) -> Batch:
    if "block" in state:
        batch = Batch.from_block(
            state["query_id"],
            block_from_state(state["block"]),
            created_at=state["created_at"],
            fragment_id=state["fragment_id"],
            origin_fragment_id=state["origin_fragment_id"],
        )
    else:
        batch = Batch(
            state["query_id"],
            [tuple_from_state(s) for s in state["tuples"]],
            created_at=state["created_at"],
            fragment_id=state["fragment_id"],
            origin_fragment_id=state["origin_fragment_id"],
        )
    # Restore the recorded header SIC over the re-summed one (see docstring).
    batch.header.sic = state["sic"]
    if "origin_seq" in state:
        batch.origin_epoch = state["origin_epoch"]
        batch.origin_seq = state["origin_seq"]
    return batch


# ----------------------------------------------------------------- envelope
@dataclass
class FragmentCheckpoint:
    """Versioned envelope holding everything needed to re-host a fragment.

    Attributes:
        fragment_id / query_id: which fragment this state belongs to.
        created_at: simulation time the checkpoint was taken.
        fragment_state: :meth:`repro.streaming.query.QueryFragment.snapshot`
            output — per-operator window state and SIC-propagation counters.
        buffered_batches: serialised input-buffer batches for this fragment
            that were waiting (unprocessed) on the host node; replayed into
            the adopting node's buffer so no delivered tuple is lost.
        host_context: node-side per-query state that travels with the
            fragment — the coordinator-reported result SIC and the node's
            local result-SIC tracker for the fragment's query.
        pending_tuples / pending_sic: integrity totals (window state plus
            buffered batches) recorded at checkpoint time; rejoin uses them
            for explicit loss accounting and tests use them to assert
            pane-SIC conservation across the round-trip.
    """

    fragment_id: str
    query_id: str
    created_at: float
    fragment_state: Dict[str, Any]
    buffered_batches: List[Dict[str, Any]] = field(default_factory=list)
    host_context: Dict[str, Any] = field(default_factory=dict)
    pending_tuples: int = 0
    pending_sic: float = 0.0
    version: int = CHECKPOINT_VERSION

    def validate(self) -> "FragmentCheckpoint":
        """Schema-check the envelope; raises :class:`CheckpointError`."""
        if self.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {self.version} != supported "
                f"{CHECKPOINT_VERSION}"
            )
        if not isinstance(self.fragment_id, str) or not self.fragment_id:
            raise CheckpointError("checkpoint has no fragment_id")
        if not isinstance(self.query_id, str) or not self.query_id:
            raise CheckpointError("checkpoint has no query_id")
        if (
            not isinstance(self.fragment_state, dict)
            or "operators" not in self.fragment_state
        ):
            raise CheckpointError(
                f"checkpoint for {self.fragment_id!r} has no operator state"
            )
        if not isinstance(self.buffered_batches, list):
            raise CheckpointError("buffered_batches must be a list")
        if self.pending_tuples < 0:
            raise CheckpointError(
                f"pending_tuples must be non-negative, got {self.pending_tuples}"
            )
        return self
