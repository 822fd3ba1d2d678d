"""The KMB Steiner-tree heuristic (Kou, Markowsky & Berman 1978; §5.2).

The classical general-graph baseline the greedy ST algorithm is
compared with: build the metric closure over the multicast set, take
its minimum spanning tree, realise each MST edge as a shortest path,
and prune.  The dissertation argues its greedy ST algorithm is at least
as good in the worst case because it also considers interior points of
shortest paths; the exact-vs-heuristic ablation benchmark quantifies
the comparison.
"""

from __future__ import annotations

from collections import defaultdict

from ..models.request import MulticastRequest
from ..models.results import MulticastTree
from ..registry import register
from ..topology.base import Node


@register(
    "kmb",
    kind="static-route",
    topologies=("mesh2d", "mesh3d", "hypercube", "torus"),
    result_model="tree",
    reference="§5.2 (Kou-Markowsky-Berman 1978 Steiner baseline)",
)
def kmb_route(request: MulticastRequest) -> MulticastTree:
    """KMB Steiner heuristic; returns a realised multicast tree."""
    topo = request.topology
    terminals = [request.source, *request.destinations]

    # 1. Minimum spanning tree of the metric closure (Prim over the
    #    terminal submatrix of the topology's memoized distance rows).
    term_idx = [topo.index(t) for t in terminals]
    closure = [[row[j] for j in term_idx] for row in map(topo.distance_row, term_idx)]
    in_tree = {0}
    mst_edges: list[tuple[Node, Node]] = []
    best: dict[int, tuple[int, int]] = {
        t: (closure[0][t], 0) for t in range(1, len(terminals))
    }
    while best:
        v = min(best, key=lambda t: (best[t][0], term_idx[t]))
        d, parent = best.pop(v)
        in_tree.add(v)
        mst_edges.append((terminals[parent], terminals[v]))
        row = closure[v]
        for t in best:
            d2 = row[t]
            if d2 < best[t][0]:
                best[t] = (d2, v)

    # 2. Realise each MST edge as a dimension-ordered shortest path and
    #    collect the union of physical links.
    links: set[frozenset] = set()
    for a, b in mst_edges:
        path = topo.dimension_ordered_path(a, b)
        links.update(frozenset(e) for e in zip(path, path[1:]))

    # 3. MST of the union subgraph (BFS tree suffices on unit weights),
    #    then prune non-terminal leaves.
    adj = defaultdict(set)
    for e in links:
        u, v = tuple(e)
        adj[u].add(v)
        adj[v].add(u)
    parent: dict = {request.source: None}
    order = [request.source]
    i = 0
    while i < len(order):
        u = order[i]
        i += 1
        for v in sorted(adj[u], key=topo.index):
            if v not in parent:
                parent[v] = u
                order.append(v)
    children = defaultdict(list)
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)
    terminal_set = set(terminals)
    # prune leaves that are not terminals, repeatedly
    removed = True
    while removed:
        removed = False
        for v in list(parent):
            if v not in terminal_set and not children[v] and parent[v] is not None:
                children[parent[v]].remove(v)
                del parent[v]
                removed = True

    arcs = [(p, v) for v, p in parent.items() if p is not None]
    return MulticastTree(topo, request.source, tuple(arcs))
