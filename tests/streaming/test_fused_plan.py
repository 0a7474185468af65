"""Unit tests for the fragment plan compiler (fused execution).

Covers the structural fusibility rules of :func:`compile_fused_plan`, the
per-tick fallback contract of :meth:`FusedPlan.run_prefix` (decline without
touching state) and the fusion registry switches.
"""

import pytest

from repro.core.columns import ColumnBlock
from repro.core.tuples import Batch, Tuple
from repro.streaming.fused import (
    FUSION_MODES,
    compile_fused_plan,
    fused_execution_active,
    fusion_enabled,
    set_fusion,
    use_fusion,
)
from repro.streaming.operators import (
    Average,
    Filter,
    OutputOperator,
    SourceReceiver,
    Union,
)
from repro.streaming.operators.topk import TopK
from repro.streaming.query import QueryGraph


def build_fragment(
    *,
    filters=(),
    aggregate=None,
    slide_seconds=None,
    extra_source=False,
):
    graph = QueryGraph("q")
    receiver = graph.add_operator(SourceReceiver("src"))
    previous = receiver
    for filt in filters:
        op = graph.add_operator(filt)
        graph.connect(previous, op)
        previous = op
    agg = graph.add_operator(
        aggregate
        if aggregate is not None
        else Average("v", window_seconds=1.0, slide_seconds=slide_seconds)
    )
    graph.connect(previous, agg)
    output = graph.add_operator(OutputOperator())
    graph.connect(agg, output)
    graph.bind_source("src", receiver)
    if extra_source:
        graph.bind_source("src2", receiver)
    graph.set_root(output)
    fragment = next(
        iter(graph.partition({op: "f0" for op in graph.operators}).values())
    )
    fragment.finalize()
    return fragment


def source_block(values, start=0.1, sic=0.1):
    n = len(values)
    return ColumnBlock(
        timestamps=[start + 0.1 * i for i in range(n)],
        sics=[sic] * n,
        values={"v": [float(v) for v in values]},
        source_id="src",
    )


class TestFusionRegistry:
    def test_modes_and_default(self):
        assert FUSION_MODES == ("on", "off")
        assert fusion_enabled() in (True, False)

    def test_set_and_scope(self):
        previous = set_fusion("off")
        try:
            assert not fusion_enabled()
            with use_fusion("on"):
                assert fusion_enabled()
            assert not fusion_enabled()
        finally:
            set_fusion(previous)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            set_fusion("sometimes")

    def test_off_never_fuses(self):
        with use_fusion("off"):
            assert not fused_execution_active()


class TestPlanCompilation:
    def test_bare_aggregate_chain_compiles(self):
        fragment = build_fragment()
        plan = compile_fused_plan(fragment)
        assert plan is not None
        assert plan.filter_ids == ()
        assert plan.suffix_ids == tuple(fragment._order[-2:])
        assert plan.receiver is fragment.operators[plan.receiver_id]
        assert plan.aggregate is fragment.operators[plan.aggregate_id]

    def test_filter_chain_compiles_in_order(self):
        filters = [
            Filter.field_threshold("v", ">=", 10.0),
            Filter.field_threshold("v", "<", 90.0),
        ]
        fragment = build_fragment(filters=filters)
        plan = compile_fused_plan(fragment)
        assert plan is not None
        assert len(plan.filter_ids) == 2
        assert [fragment.operators[i].name for i in plan.filter_ids] == [
            f.name for f in filters
        ]

    def test_opaque_filter_predicate_declines(self):
        fragment = build_fragment(filters=[Filter(lambda t: t.values["v"] > 5)])
        assert compile_fused_plan(fragment) is None

    def test_sliding_window_declines(self):
        fragment = build_fragment(slide_seconds=0.5)
        assert compile_fused_plan(fragment) is None

    def test_non_aggregate_tail_declines(self):
        fragment = build_fragment(
            aggregate=TopK(5, value_field="v", id_field="v", window_seconds=1.0)
        )
        assert compile_fused_plan(fragment) is None

    def test_multiple_source_bindings_decline(self):
        fragment = build_fragment(extra_source=True)
        assert compile_fused_plan(fragment) is None

    def test_non_linear_graph_declines(self):
        graph = QueryGraph("q")
        r1 = graph.add_operator(SourceReceiver("a"))
        r2 = graph.add_operator(SourceReceiver("b"))
        union = graph.add_operator(Union(num_ports=2))
        agg = graph.add_operator(Average("v", window_seconds=1.0))
        out = graph.add_operator(OutputOperator())
        graph.connect(r1, union, port=0)
        graph.connect(r2, union, port=1)
        graph.connect(union, agg)
        graph.connect(agg, out)
        graph.bind_source("a", r1)
        graph.bind_source("b", r2)
        graph.set_root(out)
        fragment = next(
            iter(graph.partition({op: "f0" for op in graph.operators}).values())
        )
        fragment.finalize()
        assert compile_fused_plan(fragment) is None

    def test_rewiring_invalidates_cached_plan(self):
        fragment = build_fragment()
        with use_fusion("on"):
            first = fragment._fused_plan()
            assert first is not None
            fragment.finalize()  # re-finalize: the cached plan must be rebuilt
            second = fragment._fused_plan()
            assert second is not None
            assert second is not first


class TestRunPrefixFallback:
    def test_per_tuple_items_decline_without_state_change(self):
        fragment = build_fragment()
        plan = compile_fused_plan(fragment)
        tuples = [
            Tuple(timestamp=0.1 * (i + 1), sic=0.25, values={"v": float(i)},
                  source_id="src")
            for i in range(4)
        ]
        fragment.deliver(Batch("q", tuples))
        receiver = plan.receiver
        before = receiver._windows[0].pending_count()
        assert plan.run_prefix(fragment, now=2.0) is False
        assert receiver._windows[0].pending_count() == before

    def test_non_float_filter_column_declines(self):
        fragment = build_fragment(
            filters=[Filter.field_threshold("name", "==", 1.0)]
        )
        plan = compile_fused_plan(fragment)
        assert plan is not None
        block = ColumnBlock(
            timestamps=[0.1, 0.2],
            sics=[0.1, 0.1],
            values={"v": [1.0, 2.0], "name": ["a", "b"]},
            source_id="src",
        )
        plan.receiver._windows[0].insert_block(block, 0, 2)
        assert plan.run_prefix(fragment, now=2.0) is False

    def test_staged_and_fused_fragment_results_match(self):
        results = {}
        for mode in ("on", "off"):
            fragment = build_fragment(
                filters=[Filter.field_threshold("v", ">=", 1.0)]
            )
            with use_fusion(mode):
                block = source_block([0.0, 1.0, 2.0, 3.0])
                plan = fragment._fused_plan()
                if mode == "on":
                    assert plan is not None
                else:
                    assert plan is None
                receiver = fragment.operators[fragment._order[0]]
                receiver.ingest_block(block)
                out = fragment.process(now=2.0)
            assert len(out.results) == 1
            results[mode] = (
                out.results[0].tuples[0].values,
                out.results[0].tuples[0].sic,
            )
        assert results["on"] == results["off"]
