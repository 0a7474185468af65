"""Outside-in per-layer trace: spans around calls into each layer's entry points.

The tracer times a run from the benchmark's own files.  :func:`install`
replaces a fixed list of public methods, one or more per layer (a
``src/repro/`` package), with class-level wrappers that record a span per
call: ``(name, start, end, parent)``.  A layer's *self time* is its spans'
durations minus the time of their child spans, so self times of all layers
add up to the time of the outermost spans (the scheduler's ``run_until``),
which is nearly the whole stepped run; ``trace.coverage`` reports how
nearly.

Install before the federation is built: sources are bound to the system at
deploy time, so a method patched later would not be seen.  The fault policy
is an instance attribute set by the fault injector, so it is wrapped with
:meth:`Tracer.wrap_fault_policy` after the injector exists.  :meth:`Tracer.
restore` puts every original attribute back.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.shedding import Shedder
from repro.core.sic import SicAssigner
from repro.core.tuples import Batch
from repro.federation.coordinator import QueryCoordinator
from repro.federation.fsps import FederatedSystem
from repro.federation.network import Network
from repro.federation.node import FspsNode
from repro.runtime.scheduler import EventScheduler
from repro.state.ledger import ResultLedger
from repro.streaming.fused import FusedPlan
from repro.streaming.operators.base import Operator
from repro.streaming.query import QueryFragment
from repro.streaming.windows import WindowBuffer
from repro.workloads.sources import BurstySource, StreamSource

__all__ = ["LayerStats", "Tracer", "install", "patch_targets"]

_GENERATE = ("generate", "generate_block", "generate_block_fused")

# Layout of an open span on the tracer's stack: [span index, child seconds,
# flag, name].  Closed spans live in the tracer's compact column arrays.
_INDEX, _CHILD, _FLAG, _NAME = range(4)


class LayerStats:
    """Calls, self seconds and work counters of one traced entry point group."""

    __slots__ = ("calls", "self_s", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.counts: Dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


def _with_subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _with_subclasses(sub)


def _size(block_or_tuples) -> int:
    return 0 if block_or_tuples is None else len(block_or_tuples)


# -- work counters: (stats, args, kwargs, result, frame, parent frame) --------
def _count_generated(stats, args, kwargs, result, frame, parent):
    stats.add("tuples", _size(result))


def _count_assigned(stats, args, kwargs, result, frame, parent):
    stats.add("tuples", _size(args[1]))


def _count_shed(stats, args, kwargs, result, frame, parent):
    total = kwargs.get("total_tuples")
    if total is None:
        total = sum(len(batch) for batch in args[1])
    stats.add("tuples_in", total)
    stats.add("tuples_kept", result.kept_tuples)


def _count_delivered(stats, args, kwargs, result, frame, parent):
    stats.add("tuples", len(args[1]))


def _count_fused(stats, args, kwargs, result, frame, parent):
    stats.add("hits", 1 if result is True else 0)


def _count_block_insert(stats, args, kwargs, result, frame, parent):
    # A block insert that fell back to the per-tuple path counts its tuples
    # as rows (the rows wrapper flagged it), not as block tuples.
    if frame[_FLAG]:
        return
    lo = args[2] if len(args) > 2 else kwargs.get("lo", 0)
    hi = args[3] if len(args) > 3 else kwargs.get("hi")
    stats.add("tuples", (len(args[1]) if hi is None else hi) - lo)


def _count_row_insert(stats, args, kwargs, result, frame, parent):
    stats.add("tuples", len(args[1]))
    if parent is not None and parent[_NAME] == "streaming.window_insert_block":
        parent[_FLAG] = True


def _count_checkpoint(stats, args, kwargs, result, frame, parent):
    stats.add("envelopes", result)


def patch_targets() -> List[Tuple[type, str, str, Optional[Callable]]]:
    """Every ``(class, method, layer metric, counter)`` the trace wraps.

    Only methods a class defines itself are listed, so an override in a
    subclass is wrapped on its own and an inherited one once on its base.
    """
    targets: List[Tuple[type, str, str, Optional[Callable]]] = []

    def add(classes, methods, name, counter=None):
        for cls in classes:
            for method in methods:
                if method in cls.__dict__:
                    targets.append((cls, method, name, counter))

    add([EventScheduler], ["run_until"], "runtime.scheduler")
    add(
        [*_with_subclasses(StreamSource), BurstySource],
        _GENERATE,
        "workloads.generate",
        _count_generated,
    )
    add([SicAssigner], ["assign_block", "assign"], "core.sic_assign", _count_assigned)
    add(_with_subclasses(Shedder), ["shed"], "core.shed", _count_shed)
    add([Batch], ["split"], "core.batch_split")
    add([QueryFragment], ["deliver"], "streaming.fragment_deliver", _count_delivered)
    add([QueryFragment], ["process"], "streaming.fragment_process")
    add([FusedPlan], ["run_prefix"], "streaming.fused", _count_fused)
    add(_with_subclasses(Operator), ["advance_items"], "streaming.operator_advance")
    add(
        _with_subclasses(WindowBuffer),
        ["insert_block"],
        "streaming.window_insert_block",
        _count_block_insert,
    )
    add(
        _with_subclasses(WindowBuffer),
        ["insert"],
        "streaming.window_insert_rows",
        _count_row_insert,
    )
    add([Network], ["send"], "federation.send")
    add([Network], ["deliver_due"], "federation.deliver")
    add([FederatedSystem], ["dispatch"], "federation.deliver")
    add([FederatedSystem], ["generate_source_route"], "federation.source_route")
    add([FspsNode], ["on_shed_round"], "federation.node_round")
    add(
        [QueryCoordinator],
        ["on_result", "on_update_round", "snapshot"],
        "federation.coordinator",
    )
    add([FederatedSystem], ["checkpoint_all"], "state.checkpoint", _count_checkpoint)
    add([ResultLedger], ["observe"], "state.ledger")
    return targets


class Tracer:
    """Records spans of wrapped calls and per-layer statistics in memory.

    Spans are kept as columns (name id, start, end, parent index), in the
    order they were opened, so a run's million spans take tens of
    megabytes rather than hundreds.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self._stack: List[list] = []
        self.layers: Dict[str, LayerStats] = {}
        self._patched: List[Tuple[object, str, object]] = []
        self.enabled = False

    def stats(self, name: str) -> LayerStats:
        stats = self.layers.get(name)
        if stats is None:
            stats = self.layers[name] = LayerStats()
        return stats

    def wrap(self, fn: Callable, name: str, counter: Optional[Callable] = None):
        """A callable that runs ``fn`` inside a span named ``name``."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent
        stack = self._stack
        stats = self.stats(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(-1 if parent is None else parent[_INDEX])
            span_start.append(0.0)
            span_end.append(0.0)
            frame = [index, 0.0, False, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_start[index] = start
                span_end[index] = end
                elapsed = end - start
                stats.self_s += elapsed - frame[_CHILD]
                if parent is not None:
                    parent[_CHILD] += elapsed
            # A call from inside the same group (a wrapper delegating to its
            # base) is work already counted by the outer call.
            if parent is None or parent[_NAME] != name:
                stats.calls += 1
                if counter is not None:
                    counter(stats, args, kwargs, result, frame, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in :func:`patch_targets` (class attributes)."""
        for cls, method, name, counter in patch_targets():
            original = cls.__dict__[method]
            self._patched.append((cls, method, original))
            setattr(cls, method, self.wrap(original, name, counter))

    def wrap_fault_policy(self, network) -> None:
        """Wrap the fault policy the injector installed on ``network``."""
        original = network.__dict__["fault_policy"]
        self._patched.append((network, "fault_policy", original))
        network.fault_policy = self.wrap(original, "faults.policy")

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        self.enabled = False
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def span_rows(self) -> Iterator[Tuple[str, float, float, int]]:
        """``(name, start, end, parent)`` per span, in the order they were
        opened; times in seconds from the first span's start."""
        origin = self.span_start[0] if self.span_start else 0.0
        names = self.names
        for name_id, start, end, parent in zip(
            self.span_name, self.span_start, self.span_end, self.span_parent
        ):
            yield names[name_id], start - origin, end - origin, parent


def install() -> Tracer:
    """A new tracer with every class-level target wrapped (not yet enabled)."""
    tracer = Tracer()
    tracer.install()
    return tracer
