"""The Plexus protocol graph (paper section 3, Figure 1).

The graph is "a decision tree, with the network device and application
extensions forming end-points"; nodes are protocols, edges are
guard-filtered event bindings, and "applications can introduce new nodes
(handlers) and edges (guards) at runtime".

This module is the bookkeeping side of that structure: the executable
behaviour lives in the SPIN dispatcher (handlers fire when events are
raised); the :class:`ProtocolGraph` records which node raised which event,
which edge connects it to which handler, and lets nodes/edges be added and
removed while traffic flows -- the *runtime adaptation* and *incremental
adaptation* properties.  Tests assert on this structure, and
``render()`` produces the Figure 1 picture for any live stack.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..spin.dispatcher import EventDecl, HandlerHandle

__all__ = ["ProtocolGraph", "GraphNode", "GraphEdge", "GraphError"]


class GraphError(RuntimeError):
    """Raised on malformed graph operations."""


class GraphNode:
    """One protocol (or device, or application extension) in the graph."""

    KINDS = ("device", "protocol", "extension")

    def __init__(self, name: str, kind: str):
        if kind not in self.KINDS:
            raise GraphError("unknown node kind %r" % kind)
        self.name = name
        self.kind = kind
        self.in_edges: List["GraphEdge"] = []
        self.out_edges: List["GraphEdge"] = []

    def __repr__(self) -> str:
        return "<GraphNode %s kind=%s>" % (self.name, self.kind)


class GraphEdge:
    """A guard-filtered binding carrying packets from one node up to another."""

    def __init__(self, src: GraphNode, dst: GraphNode, handle: HandlerHandle,
                 label: str = ""):
        self.src = src
        self.dst = dst
        self.handle = handle
        self.label = label or handle.label
        self.removed = False
        self.graph: Optional["ProtocolGraph"] = None

    @property
    def guard_name(self) -> str:
        guard = self.handle.guard
        return getattr(guard, "__name__", "always") if guard else "always"

    def __repr__(self) -> str:
        return "<GraphEdge %s -> %s via %s>" % (
            self.src.name, self.dst.name, self.guard_name)


class ProtocolGraph:
    """The live protocol graph of one Plexus host."""

    def __init__(self, host):
        self.host = host
        self.nodes: Dict[str, GraphNode] = {}
        self.edges: List[GraphEdge] = []
        self.removals = 0

    # -- nodes -------------------------------------------------------------

    def add_node(self, name: str, kind: str) -> GraphNode:
        if name in self.nodes:
            raise GraphError("node %r already in graph" % name)
        node = GraphNode(name, kind)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> GraphNode:
        if name not in self.nodes:
            raise GraphError("no node named %r (have: %s)"
                             % (name, sorted(self.nodes)))
        return self.nodes[name]

    # -- edges ------------------------------------------------------------------

    def add_edge(self, src: GraphNode, dst: GraphNode, handle: HandlerHandle,
                 label: str = "") -> GraphEdge:
        edge = GraphEdge(src, dst, handle, label)
        edge.graph = self
        self.edges.append(edge)
        src.out_edges.append(edge)
        dst.in_edges.append(edge)
        # Back-reference from the dispatcher handle: uninstalling the
        # handle directly (not through remove_edge) drops the edge too,
        # so render() and node edge lists never go stale.
        handle.graph_edge = edge
        return edge

    def install(self, event: EventDecl, handler, src: GraphNode,
                dst: GraphNode, guard=None, mode: str = "inline",
                time_limit: Optional[float] = None,
                label: str = "") -> GraphEdge:
        """Install ``handler`` on ``event`` *and* record its edge, in one
        step.

        This is the authoritative install path: the dispatcher handle and
        the graph edge are created together and torn down together, so
        the graph always reflects live dispatch state.  Managers and the
        stack's own wiring both go through here.
        """
        handle = self.host.dispatcher.install(
            event, handler, guard=guard, mode=mode, time_limit=time_limit,
            label=label)
        return self.add_edge(src, dst, handle, label)

    def remove_edge(self, edge: GraphEdge) -> None:
        if edge.removed:
            return
        if edge.handle.installed:
            # Uninstalling notifies us back through _unlink_edge.
            edge.handle.uninstall()
        if not edge.removed:
            self._unlink_edge(edge)

    def _unlink_edge(self, edge: GraphEdge) -> None:
        """Drop ``edge`` from the bookkeeping (idempotent; called from
        HandlerHandle.uninstall so direct uninstalls cannot leave stale
        edges behind)."""
        if edge.removed:
            return
        edge.removed = True
        self.edges.remove(edge)
        edge.src.out_edges.remove(edge)
        edge.dst.in_edges.remove(edge)
        self.removals += 1

    # -- introspection ---------------------------------------------------------------

    def edge_count(self) -> int:
        return len(self.edges)

    def render(self) -> str:
        """An ASCII rendering of the live graph (Figure 1 style)."""
        lines = ["protocol graph of %s:" % self.host.name]
        for node in self.nodes.values():
            lines.append("  [%s] %s" % (node.kind, node.name))
            for edge in node.out_edges:
                lines.append("    --(%s?)--> %s" % (edge.guard_name, edge.dst.name))
        return "\n".join(lines)
