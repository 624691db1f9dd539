"""Flow graph construction, validation and composition."""

import pytest

from repro.dps.flowgraph import FlowGraph, VertexKind
from repro.dps.operations import (
    LeafOperation,
    MergeOperation,
    SplitOperation,
    StreamOperation,
)
from repro.dps.routing import Constant, RoundRobin
from repro.errors import FlowGraphError


class L(LeafOperation):
    def run(self, ctx, obj):
        yield None


class S(SplitOperation):
    def run(self, ctx, obj):
        yield None


class M(MergeOperation):
    def combine(self, ctx, state, obj):
        return None

    def finalize(self, ctx, state):
        return None


class T(StreamOperation):
    def combine(self, ctx, state, obj):
        return None


def simple_graph():
    g = FlowGraph("g")
    g.add_split("split", S, group="main")
    g.add_leaf("work", L, group="workers")
    g.add_merge("merge", M, group="main", closes="split")
    g.connect("split", "work", RoundRobin())
    g.connect("work", "merge", Constant(0))
    return g


def test_valid_graph_passes():
    simple_graph().validate()


def test_duplicate_vertex_rejected():
    g = FlowGraph("g")
    g.add_leaf("x", L, group="a")
    with pytest.raises(FlowGraphError, match="duplicate"):
        g.add_leaf("x", L, group="a")


def test_unknown_edge_endpoint_rejected():
    g = FlowGraph("g")
    g.add_leaf("x", L, group="a")
    with pytest.raises(FlowGraphError):
        g.connect("x", "nope", Constant(0))


def test_cycle_detected():
    g = FlowGraph("g")
    g.add_leaf("a", L, group="x")
    g.add_leaf("b", L, group="x")
    g.connect("a", "b", Constant(0))
    g.connect("b", "a", Constant(0))
    with pytest.raises(FlowGraphError, match="cycle"):
        g.validate()


@pytest.mark.parametrize(
    "acyclic, closing, reported",
    [
        # the cycle is named, not the vertices up- or downstream of it
        ("ab bc cd de", "db", {"b -> c -> d -> b", "c -> d -> b -> c",
                               "d -> b -> c -> d"}),
        ("ab", "aa", {"a -> a"}),
        # parallel edges and a diamond, on the cycle and off it
        ("ab ab ac bd cd cd de", "db db", {"b -> d -> b", "d -> b -> d"}),
    ],
)
def test_cycle_report_names_one_cycle(acyclic, closing, reported):
    g = FlowGraph("g")
    for name in "abcde":
        g.add_leaf(name, L, group="x")
    for src, dst in acyclic.split():
        g.connect(src, dst, Constant(0))
    g.validate()
    for src, dst in closing.split():
        g.connect(src, dst, Constant(0))
    with pytest.raises(FlowGraphError) as exc:
        g.validate()
    assert str(exc.value).removeprefix("flow graph has a cycle: ") in reported


def test_merge_closing_unknown_split_rejected():
    g = FlowGraph("g")
    g.add_merge("m", M, group="x", closes="ghost")
    with pytest.raises(FlowGraphError, match="unknown split"):
        g.validate()


def test_split_closed_twice_rejected():
    g = FlowGraph("g")
    g.add_split("s", S, group="x")
    g.add_merge("m1", M, group="x", closes="s")
    g.add_merge("m2", M, group="x", closes="s")
    with pytest.raises(FlowGraphError, match="closed by both"):
        g.validate()


def test_factory_type_mismatch_detected():
    g = FlowGraph("g")
    g.add_split("s", L, group="x")  # leaf factory declared as split
    with pytest.raises(FlowGraphError, match="declared split"):
        g.validate()


def test_stream_can_close_stream():
    g = FlowGraph("g")
    g.add_split("s", S, group="x")
    g.add_stream("t", T, group="x", closes="s")
    g.add_merge("m", M, group="x", closes="t")
    g.connect("s", "t", Constant(0))
    g.connect("t", "m", Constant(0))
    g.validate()


def test_edge_to_default_requires_single_out_edge():
    g = simple_graph()
    assert g.edge_to("split", None).dst == "work"
    g.add_leaf("other", L, group="workers")
    g.connect("split", "other", Constant(0))
    with pytest.raises(FlowGraphError, match="outgoing edges"):
        g.edge_to("split", None)


def test_edge_to_named():
    g = simple_graph()
    assert g.edge_to("work", "merge").dst == "merge"
    with pytest.raises(FlowGraphError):
        g.edge_to("work", "nothing")


def test_groups_collected():
    assert simple_graph().groups() == {"main", "workers"}


def test_max_in_flight_validated():
    g = FlowGraph("g")
    g.add_split("s", S, group="x", max_in_flight=0)
    with pytest.raises(FlowGraphError, match="max_in_flight"):
        g.validate()


# ------------------------------------------------------------- composition
def subgraph():
    sg = FlowGraph("sub")
    sg.add_split("entry", S, group="workers")
    sg.add_leaf("inner", L, group="workers")
    sg.add_merge("exit", M, group="workers", closes="entry")
    sg.connect("entry", "inner", RoundRobin())
    sg.connect("inner", "exit", Constant(0))
    return sg


def test_replace_leaf_rewires_edges():
    g = simple_graph()
    g.replace_leaf("work", subgraph(), entry="entry", exit_="exit")
    g.validate()
    assert "work" not in g.vertices
    assert "work.entry" in g.vertices
    assert g.edge_to("split", None).dst == "work.entry"
    assert g.edge_to("work.exit", None).dst == "merge"
    # The internal pairing was renamed consistently.
    assert g.vertices["work.exit"].closes == "work.entry"


def test_replace_non_leaf_rejected():
    g = simple_graph()
    with pytest.raises(FlowGraphError, match="only leaf"):
        g.replace_leaf("split", subgraph(), entry="entry", exit_="exit")


def test_replace_unknown_vertex_rejected():
    g = simple_graph()
    with pytest.raises(FlowGraphError):
        g.replace_leaf("ghost", subgraph(), entry="entry", exit_="exit")


def test_replace_bad_entry_exit_rejected():
    g = simple_graph()
    with pytest.raises(FlowGraphError, match="entry/exit"):
        g.replace_leaf("work", subgraph(), entry="nope", exit_="exit")
