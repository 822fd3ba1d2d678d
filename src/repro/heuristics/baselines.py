"""Baseline multicast implementations the dissertation compares against
(§1.1, §7.1): multiple one-to-one sends and full broadcast.
"""

from __future__ import annotations

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
    always 1023").  The BFS walks the topology's cached index tables;
    ``neighbor_indices()`` keeps ``neighbors()`` order, so the arcs come
    out in the order a BFS over ``neighbors()`` gives.
    """
    topo = request.topology
    nodes = topo.node_list()
    neighbors = topo.neighbor_indices()
    source = topo.index(request.source)
    arcs: list[tuple[Node, Node]] = []
    seen = bytearray(len(nodes))
    seen[source] = 1
    order = [source]  # the BFS queue, read as it grows
    for i in order:
        u = nodes[i]
        for w in neighbors[i]:
            if not seen[w]:
                seen[w] = 1
                arcs.append((u, nodes[w]))
                order.append(w)
    return MulticastTree(topo, request.source, tuple(arcs))
