"""The Plexus protocol graph (paper section 3, Figure 1).

The graph is "a decision tree, with the network device and application
extensions forming end-points"; nodes are protocols, edges are
guard-filtered event bindings, and "applications can introduce new nodes
(handlers) and edges (guards) at runtime".

Those bindings are the SPIN dispatcher's (guard, handler) pairs, so the
graph is a view of dispatch state, not a second copy of it.  The
:class:`ProtocolGraph` records the declared nodes and which node raises
each event; :meth:`ProtocolGraph.install` tags each handle with the node
it delivers to.  Edges, extension nodes and ``render()`` (the Figure 1
picture of any live stack) are read off each event's live handlers, so
however a handler is uninstalled, its edge is gone with it -- the
*runtime adaptation* and *incremental adaptation* properties.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..spin.dispatcher import EventDecl, HandlerHandle

__all__ = ["ProtocolGraph", "GraphError"]


class GraphError(RuntimeError):
    """Raised on malformed graph operations."""


class ProtocolGraph:
    """The live protocol graph of one Plexus host."""

    KINDS = ("device", "protocol", "extension")

    def __init__(self, host):
        self.host = host
        #: declared node name -> kind, in declaration order
        self.declared: Dict[str, str] = {}
        #: each event installed through the graph -> the node raising it
        self.sources: Dict[EventDecl, str] = {}

    def add_node(self, name: str, kind: str) -> str:
        if kind not in self.KINDS:
            raise GraphError("unknown node kind %r" % kind)
        if name in self.declared:
            raise GraphError("node %r already in graph" % name)
        self.declared[name] = kind
        return name

    def install(self, event: EventDecl, handler, src: str, dst: str,
                guard=None, mode: str = "inline",
                time_limit: Optional[float] = None,
                label: str = "") -> HandlerHandle:
        """Install ``handler`` on ``event`` as the edge ``src -> dst``.

        ``src`` is a declared node and the one node that raises ``event``;
        ``dst`` not declared is an extension node, in the graph while an
        edge delivers to it.
        """
        if src not in self.declared:
            raise GraphError("no node named %r (have: %s)"
                             % (src, sorted(self.declared)))
        if self.sources.setdefault(event, src) != src:
            raise GraphError("%s is raised by %r, not %r"
                             % (event.name, self.sources[event], src))
        handle = self.host.dispatcher.install(
            event, handler, guard=guard, mode=mode, time_limit=time_limit,
            label=label)
        handle.node = dst
        return handle

    def edges(self) -> List[Tuple[str, HandlerHandle]]:
        """Every live edge as ``(source node, handle)``: by source in
        declaration order, then in handler order."""
        return [(src, handle) for node in self.declared
                for event, src in self.sources.items() if src == node
                for handle in event.handlers if handle.node is not None]

    @property
    def nodes(self) -> Dict[str, str]:
        """Node name -> kind: the declared nodes, then each extension node
        in first-edge order."""
        nodes = dict(self.declared)
        for _, handle in self.edges():
            nodes.setdefault(handle.node, "extension")
        return nodes

    def edge_count(self) -> int:
        return len(self.edges())

    def render(self) -> str:
        """An ASCII rendering of the live graph (Figure 1 style)."""
        edges = self.edges()
        lines = ["protocol graph of %s:" % self.host.name]
        for name, kind in self.nodes.items():
            lines.append("  [%s] %s" % (kind, name))
            for src, handle in edges:
                if src == name:
                    guard = getattr(handle.guard, "__name__", "always")
                    lines.append("    --(%s?)--> %s" % (guard, handle.node))
        return "\n".join(lines)
