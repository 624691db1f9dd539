"""Flow-graph construction and validation.

"DPS applications are defined as directed acyclic graphs of operations.
Its fundamental types of operations are the leaf, split, merge and stream
operations." — paper, section 2.

A :class:`FlowGraph` holds vertices (operation factories bound to thread
groups) and directed edges (with routing functions).  Splits are paired
with the merge or stream that *closes* them; keyed streams need no pairing.
Graphs are validated for acyclicity and well-formed pairing, and support
**composition**: replacing a leaf vertex by a whole subgraph, which is how
the parallel sub-block multiplication variant (paper Fig. 7) plugs into the
LU graph ("The compositional nature of DPS allows us to replace operation
(e) in Figure 5 by the flow graph shown in Figure 7").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.dps.operations import (
    LeafOperation,
    MergeOperation,
    SplitOperation,
    StreamOperation,
)
from repro.dps.routing import RoutingFunction
from repro.errors import FlowGraphError

OperationFactory = Callable[[], Any]


class VertexKind(enum.Enum):
    """The four fundamental DPS operation types (streams in two flavours)."""

    LEAF = "leaf"
    SPLIT = "split"
    MERGE = "merge"
    STREAM = "stream"  # paired with a split (merge+split combination)
    KEYED_STREAM = "keyed_stream"  # app-managed grouping and completion


@dataclass
class Vertex:
    """One operation vertex of the flow graph."""

    name: str
    kind: VertexKind
    factory: OperationFactory
    group: str
    closes: Optional[str] = None  # split this merge/stream is paired with
    max_in_flight: Optional[int] = None  # flow-control credit limit


@dataclass
class Edge:
    """A directed edge carrying data objects from ``src`` to ``dst``."""

    src: str
    dst: str
    routing: RoutingFunction


_EXPECTED_BASE = {
    VertexKind.LEAF: LeafOperation,
    VertexKind.SPLIT: SplitOperation,
    VertexKind.MERGE: MergeOperation,
    VertexKind.STREAM: StreamOperation,
    VertexKind.KEYED_STREAM: StreamOperation,
}


class FlowGraph:
    """A directed acyclic graph of DPS operations.

    Vertices are added with the ``add_*`` methods, edges with
    :meth:`connect`.  Call :meth:`validate` (done automatically by the
    runtime) after construction.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.vertices: dict[str, Vertex] = {}
        self.edges: list[Edge] = []
        self._out_edges: dict[str, list[Edge]] = {}

    # ------------------------------------------------------------ building
    def _add(self, vertex: Vertex) -> Vertex:
        if vertex.name in self.vertices:
            raise FlowGraphError(f"duplicate vertex name {vertex.name!r}")
        self.vertices[vertex.name] = vertex
        self._out_edges.setdefault(vertex.name, [])
        return vertex

    def add_leaf(
        self, name: str, factory: OperationFactory, group: str
    ) -> Vertex:
        """Add a leaf operation executing on thread group ``group``."""
        return self._add(Vertex(name, VertexKind.LEAF, factory, group))

    def add_split(
        self,
        name: str,
        factory: OperationFactory,
        group: str,
        max_in_flight: Optional[int] = None,
    ) -> Vertex:
        """Add a split operation; ``max_in_flight`` enables flow control."""
        return self._add(
            Vertex(name, VertexKind.SPLIT, factory, group, max_in_flight=max_in_flight)
        )

    def add_merge(
        self, name: str, factory: OperationFactory, group: str, closes: str
    ) -> Vertex:
        """Add the merge paired with split ``closes``."""
        return self._add(Vertex(name, VertexKind.MERGE, factory, group, closes=closes))

    def add_stream(
        self,
        name: str,
        factory: OperationFactory,
        group: str,
        closes: str,
        max_in_flight: Optional[int] = None,
    ) -> Vertex:
        """Add a paired stream (merge+split) closing split ``closes``."""
        return self._add(
            Vertex(
                name,
                VertexKind.STREAM,
                factory,
                group,
                closes=closes,
                max_in_flight=max_in_flight,
            )
        )

    def add_keyed_stream(
        self,
        name: str,
        factory: OperationFactory,
        group: str,
        max_in_flight: Optional[int] = None,
    ) -> Vertex:
        """Add a keyed stream: app-defined grouping and completion."""
        return self._add(
            Vertex(
                name,
                VertexKind.KEYED_STREAM,
                factory,
                group,
                max_in_flight=max_in_flight,
            )
        )

    def connect(self, src: str, dst: str, routing: RoutingFunction) -> Edge:
        """Add a directed edge ``src -> dst`` with the given routing function."""
        for endpoint in (src, dst):
            if endpoint not in self.vertices:
                raise FlowGraphError(f"unknown vertex {endpoint!r} in edge")
        edge = Edge(src, dst, routing)
        self.edges.append(edge)
        self._out_edges[src].append(edge)
        return edge

    # ------------------------------------------------------------- queries
    def edge_to(self, src: str, dst: Optional[str]) -> Edge:
        """Resolve the edge used by ``Post(obj, to=dst)`` from ``src``.

        With ``dst=None`` the vertex must have exactly one outgoing edge.
        """
        outs = self._out_edges.get(src, [])
        if dst is None:
            if len(outs) != 1:
                raise FlowGraphError(
                    f"vertex {src!r} has {len(outs)} outgoing edges; "
                    "Post must name its destination"
                )
            return outs[0]
        for edge in outs:
            if edge.dst == dst:
                return edge
        raise FlowGraphError(f"no edge {src!r} -> {dst!r} in flow graph")

    def groups(self) -> set[str]:
        """Thread-group names referenced by the graph."""
        return {v.group for v in self.vertices.values()}

    def _find_cycle(self) -> Optional[list[str]]:
        """Vertices of one directed cycle, in edge order; None if acyclic.

        Kahn's toposort peels every vertex with no unpeeled predecessor.
        Each survivor still has one, so walking predecessors from any
        survivor must revisit a vertex, and the revisited stretch is a
        cycle.  Parallel edges count once each; a self-loop is a cycle
        of one.
        """
        preds: dict[str, list[str]] = {name: [] for name in self.vertices}
        succs: dict[str, list[str]] = {name: [] for name in self.vertices}
        for e in self.edges:
            preds[e.dst].append(e.src)
            succs[e.src].append(e.dst)
        indegree = {name: len(p) for name, p in preds.items()}
        ready = [name for name, d in indegree.items() if d == 0]
        while ready:
            name = ready.pop()
            del indegree[name]
            for dst in succs[name]:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
        if not indegree:
            return None
        walk = [next(iter(indegree))]
        while True:
            prev = next(p for p in preds[walk[-1]] if p in indegree)
            if prev in walk:
                return walk[walk.index(prev):][::-1]
            walk.append(prev)

    # ---------------------------------------------------------- validation
    def validate(self) -> None:
        """Check structural invariants; raise :class:`FlowGraphError` if violated."""
        cycle = self._find_cycle()
        if cycle is not None:
            raise FlowGraphError(
                "flow graph has a cycle: " + " -> ".join(cycle + cycle[:1])
            )
        splits = {
            n for n, v in self.vertices.items() if v.kind is VertexKind.SPLIT
        }
        closers: dict[str, str] = {}
        for v in self.vertices.values():
            base = _EXPECTED_BASE[v.kind]
            try:
                instance = v.factory()
            except Exception as exc:  # pragma: no cover - factory bug
                raise FlowGraphError(
                    f"factory of vertex {v.name!r} failed: {exc}"
                ) from exc
            if not isinstance(instance, base):
                raise FlowGraphError(
                    f"vertex {v.name!r} is declared {v.kind.value} but its "
                    f"factory built a {type(instance).__name__}"
                )
            if v.kind in (VertexKind.MERGE, VertexKind.STREAM):
                if v.closes not in splits and not (
                    v.closes in self.vertices
                    and self.vertices[v.closes].kind is VertexKind.STREAM
                ):
                    raise FlowGraphError(
                        f"vertex {v.name!r} closes unknown split {v.closes!r}"
                    )
                if v.closes in closers:
                    raise FlowGraphError(
                        f"split {v.closes!r} is closed by both "
                        f"{closers[v.closes]!r} and {v.name!r}"
                    )
                closers[v.closes] = v.name
            if v.max_in_flight is not None and v.max_in_flight < 1:
                raise FlowGraphError(
                    f"vertex {v.name!r}: max_in_flight must be >= 1"
                )
        for name in self.vertices:
            if name not in self._out_edges:
                self._out_edges[name] = []

    # --------------------------------------------------------- composition
    def replace_leaf(
        self,
        name: str,
        subgraph: "FlowGraph",
        entry: str,
        exit_: str,
    ) -> None:
        """Substitute leaf ``name`` by ``subgraph`` (DPS composition).

        Incoming edges of ``name`` are redirected to the subgraph's
        ``entry`` vertex; outgoing edges leave from ``exit_``.  Subgraph
        vertex names are prefixed with ``"<name>."`` to stay unique.
        """
        if name not in self.vertices:
            raise FlowGraphError(f"cannot replace unknown vertex {name!r}")
        if self.vertices[name].kind is not VertexKind.LEAF:
            raise FlowGraphError(
                f"only leaf vertices can be replaced; {name!r} is "
                f"{self.vertices[name].kind.value}"
            )
        prefix = f"{name}."
        rename = {v: prefix + v for v in subgraph.vertices}
        if entry not in subgraph.vertices or exit_ not in subgraph.vertices:
            raise FlowGraphError("subgraph entry/exit vertices not found")
        # Splice in the subgraph's vertices.
        for v in subgraph.vertices.values():
            clone = Vertex(
                rename[v.name],
                v.kind,
                v.factory,
                v.group,
                closes=rename[v.closes] if v.closes else None,
                max_in_flight=v.max_in_flight,
            )
            self._add(clone)
        for e in subgraph.edges:
            self.connect(rename[e.src], rename[e.dst], e.routing)
        # Rewire edges that touched the replaced leaf.
        del self.vertices[name]
        old_out = self._out_edges.pop(name)
        for edge in self.edges:
            if edge.dst == name:
                edge.dst = rename[entry]
        for edge in old_out:
            edge.src = rename[exit_]
            self._out_edges[rename[exit_]].append(edge)
        self.edges = [e for e in self.edges if e.src != name or e in old_out]
