"""Multicast route representations (the models of Chapter 3).

Each class represents one of the dissertation's multicast models and
knows how to validate itself against a request and compute the two
routing design parameters of §3: *traffic* (number of link
transmissions) and per-destination hop counts (the store-and-forward
time proxy).

===============  ====================================================
Model            Class
===============  ====================================================
multicast path   :class:`MulticastPath`   (Def. 3.1)
multicast cycle  :class:`MulticastCycle`  (Def. 3.2)
Steiner tree     :class:`MulticastTree` with ``shortest_paths=False``
multicast tree   :class:`MulticastTree` with ``shortest_paths=True``  (Def. 3.4)
multicast star   :class:`MulticastStar`  (Def. 3.5)
===============  ====================================================

Trees are stored as the list of directed link traversals (arcs) the
message makes, which is exactly the traffic accounting of §7.1 ("each
unit of traffic represents the transmission of one message over a
link"): an arc appearing twice cost two units even though it is one
physical link.  :func:`grow_tree` drives the step-driven tree
multicasts of Chapters 5-6.

Routers return these values unchecked.  A route is validated where it
leaves the program (``python -m repro route`` and the route service's
worker) and, everywhere else, by the tests, the registry conformance
suite and ``python -m repro certify --all``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from ..topology.base import Node, Topology
from .request import MulticastRequest


class InvalidRouteError(ValueError):
    """A route failed validation against its request."""


@dataclass(frozen=True)
class MulticastPath:
    """A multicast path (Def. 3.1): a simple path starting at the source
    whose node set contains every destination."""

    topology: Topology
    nodes: tuple[Node, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))

    @property
    def source(self) -> Node:
        return self.nodes[0]

    @property
    def traffic(self) -> int:
        """Total length (number of channels used)."""
        return len(self.nodes) - 1

    def dest_hops(self, destinations: Sequence[Node]) -> dict[Node, int]:
        """Hops from the source to each destination along the path."""
        pos = {v: i for i, v in enumerate(self.nodes)}
        return {d: pos[d] for d in destinations}

    def max_hops(self, destinations: Sequence[Node]) -> int:
        return max(self.dest_hops(destinations).values())

    def validate(self, request: MulticastRequest) -> None:
        if self.nodes[0] != request.source:
            raise InvalidRouteError("path does not start at the source")
        if len(set(self.nodes)) != len(self.nodes):
            raise InvalidRouteError("multicast path revisits a node")
        request.topology.path_length(self.nodes)  # adjacency check
        missing = set(request.destinations) - set(self.nodes)
        if missing:
            raise InvalidRouteError(f"path misses destinations {missing}")


@dataclass(frozen=True)
class MulticastCycle:
    """A multicast cycle (Def. 3.2): like a path, but the last node links
    back to the source, delivering the implicit acknowledgement copy.

    ``nodes`` is the open sequence ``(v_1, ..., v_n)`` with ``v_1`` the
    source; the closing edge ``(v_n, v_1)`` is implied.
    """

    topology: Topology
    nodes: tuple[Node, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))

    @property
    def source(self) -> Node:
        return self.nodes[0]

    @property
    def traffic(self) -> int:
        return len(self.nodes)  # n-1 path edges plus the closing edge

    def dest_hops(self, destinations: Sequence[Node]) -> dict[Node, int]:
        pos = {v: i for i, v in enumerate(self.nodes)}
        return {d: pos[d] for d in destinations}

    def validate(self, request: MulticastRequest) -> None:
        if self.nodes[0] != request.source:
            raise InvalidRouteError("cycle does not start at the source")
        if len(set(self.nodes)) != len(self.nodes):
            raise InvalidRouteError("multicast cycle revisits a node")
        closed = list(self.nodes) + [self.nodes[0]]
        request.topology.path_length(closed)
        missing = set(request.destinations) - set(self.nodes)
        if missing:
            raise InvalidRouteError(f"cycle misses destinations {missing}")


@dataclass(frozen=True)
class MulticastTree:
    """A tree-like multicast route: the multiset of directed link
    traversals made while delivering the message.

    Covers both the Steiner tree model (minimise traffic, Def. 3.3) and
    the multicast tree model (shortest path to every destination first,
    then traffic; Def. 3.4).  ``virtual_edges``, when present, records
    the junction-level Steiner tree the greedy ST algorithm constructed
    before realising it with shortest paths.
    """

    topology: Topology
    source: Node
    arcs: tuple[tuple[Node, Node], ...]  # ordered (u, v) link traversals
    virtual_edges: tuple[tuple[Node, Node], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(self.arcs))
        object.__setattr__(self, "virtual_edges", tuple(self.virtual_edges))

    @property
    def traffic(self) -> int:
        return len(self.arcs)

    def hops_from_source(self) -> dict[Node, int]:
        """Fewest arcs from source to each reached node, following arcs."""
        adj = defaultdict(list)
        for u, v in self.arcs:
            adj[u].append(v)
        hops = {self.source: 0}
        frontier = deque([self.source])
        while frontier:
            u = frontier.popleft()
            for v in adj[u]:
                if v not in hops:
                    hops[v] = hops[u] + 1
                    frontier.append(v)
        return hops

    def dest_hops(self, destinations: Sequence[Node]) -> dict[Node, int]:
        hops = self.hops_from_source()
        return {d: hops[d] for d in destinations}

    def max_hops(self, destinations: Sequence[Node]) -> int:
        return max(self.dest_hops(destinations).values())

    def validate(self, request: MulticastRequest, shortest_paths: bool = False) -> None:
        """Check connectivity/coverage; with ``shortest_paths`` also check
        the Def. 3.4 condition d_T(u0, ui) = d_G(u0, ui)."""
        topo = request.topology
        for u, v in self.arcs:
            if not topo.are_adjacent(u, v):
                raise InvalidRouteError(f"arc {(u, v)} is not a link")
        hops = self.hops_from_source()
        for d in request.destinations:
            if d not in hops:
                raise InvalidRouteError(f"tree does not reach destination {d!r}")
            if shortest_paths and hops[d] != topo.distance(request.source, d):
                raise InvalidRouteError(
                    f"destination {d!r} reached in {hops[d]} hops, shortest is "
                    f"{topo.distance(request.source, d)}"
                )


def grow_tree(
    topology: Topology,
    source: Node,
    destinations: Sequence[Node],
    step: Callable[[Node, list], tuple[bool, dict]],
) -> MulticastTree:
    """Drive a distributed tree multicast (Chs. 5-6) in level order.

    Each forward node runs ``step(local, dests) -> (deliver_local,
    {next_node: sublist})`` on the destination list it received: it
    keeps a copy when ``deliver_local`` is true and sends each sublist
    one hop on to its ``next_node``.  Returns the tree of those hops, in
    the order they were sent.  Raises ``RuntimeError`` if a destination
    is never delivered.
    """
    arcs: list[tuple[Node, Node]] = []
    delivered: set = set()
    pending = deque([(source, list(destinations))])
    while pending:
        w, dlist = pending.popleft()
        deliver, groups = step(w, dlist)
        if deliver:
            delivered.add(w)
        for nxt, sub in groups.items():
            arcs.append((w, nxt))
            pending.append((nxt, sub))
    missing = set(destinations) - delivered
    if missing:
        raise RuntimeError(f"tree multicast failed to deliver to {missing}")
    return MulticastTree(topology, source, tuple(arcs))


@dataclass(frozen=True)
class MulticastStar:
    """A multicast star (Def. 3.5): a collection of multicast paths from
    the source, whose destination sets partition the request's
    destinations."""

    topology: Topology
    source: Node
    paths: tuple[tuple[Node, ...], ...]  # tuple of node-sequences, each starting at source
    partition: tuple[tuple[Node, ...], ...]  # tuple of destination tuples, aligned with paths

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(tuple(p) for p in self.paths))
        object.__setattr__(self, "partition", tuple(tuple(d) for d in self.partition))

    @property
    def traffic(self) -> int:
        return sum(len(p) - 1 for p in self.paths)

    def dest_hops(self, destinations: Sequence[Node] | None = None) -> dict[Node, int]:
        hops: dict[Node, int] = {}
        for path in self.paths:
            for i, v in enumerate(path):
                if v not in hops or i < hops[v]:
                    hops[v] = i
        if destinations is None:
            destinations = [d for group in self.partition for d in group]
        return {d: hops[d] for d in destinations}

    def max_hops(self, destinations: Sequence[Node] | None = None) -> int:
        return max(self.dest_hops(destinations).values())

    def validate(self, request: MulticastRequest) -> None:
        if len(self.paths) != len(self.partition):
            raise InvalidRouteError("paths and partition are misaligned")
        seen: set[Node] = set()
        for path, group in zip(self.paths, self.partition):
            if not group:
                raise InvalidRouteError("empty destination group in star")
            if path[0] != request.source:
                raise InvalidRouteError("star path does not start at the source")
            if len(set(path)) != len(path):
                raise InvalidRouteError("star path revisits a node")
            request.topology.path_length(path)
            for d in group:
                if d in seen:
                    raise InvalidRouteError(f"destination {d!r} served twice")
                seen.add(d)
                if d not in path:
                    raise InvalidRouteError(f"path misses its destination {d!r}")
        missing = set(request.destinations) - seen
        if missing:
            raise InvalidRouteError(f"star misses destinations {missing}")
