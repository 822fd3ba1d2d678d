"""Baseline multicast implementations the dissertation compares against
(§1.1, §7.1): multiple one-to-one sends and full broadcast.
"""

from __future__ import annotations

from collections import deque

from ..models.request import MulticastRequest
from ..models.results import MulticastTree
from ..registry import register
from ..topology.base import Node


@register(
    "multi-unicast",
    kind="static-route",
    topologies=("mesh2d", "mesh3d", "hypercube", "torus"),
    result_model="tree",
    reference="§1.1/§7.1 (one dimension-ordered copy per destination)",
)
def multiple_unicast_route(request: MulticastRequest) -> MulticastTree:
    """One separate copy per destination over the deterministic
    dimension-ordered shortest path.

    Traffic is the sum of source-destination distances — the naive
    software multicast of §1.1 whose replicated messages traverse the
    same channels repeatedly.
    """
    topo = request.topology
    arcs: list[tuple[Node, Node]] = []
    for d in request.destinations:
        path = topo.dimension_ordered_path(request.source, d)
        arcs.extend(zip(path, path[1:]))
    return MulticastTree(topo, request.source, tuple(arcs))


@register(
    "broadcast",
    kind="static-route",
    topologies=("mesh2d", "mesh3d", "hypercube", "torus"),
    result_model="tree",
    reference="§7.1 (BFS spanning-tree broadcast; traffic always N-1)",
)
def broadcast_route(request: MulticastRequest) -> MulticastTree:
    """Deliver by broadcasting on a BFS spanning tree; the router hands
    the message to the local processor only at actual destinations.

    Traffic is always ``N - 1`` regardless of the destination count
    (§7.1: "for a broadcast with 1024 nodes, the traffic generated is
    always 1023").
    """
    topo = request.topology
    arcs: list[tuple[Node, Node]] = []
    seen = {request.source}
    frontier = deque([request.source])
    while frontier:
        u = frontier.popleft()
        for v in topo.neighbors(u):
            if v not in seen:
                seen.add(v)
                arcs.append((u, v))
                frontier.append(v)
    return MulticastTree(topo, request.source, tuple(arcs))
