"""The greedy ST heuristic routing algorithm (§5.2, Figs. 5.3-5.4).

The source sorts the destinations by distance and constructs a *virtual*
Steiner tree: each destination in turn attaches to the nearest node
lying on any shortest path between the endpoints of an existing tree
edge (computable in O(1) in meshes — bounding-rectangle projection —
and hypercubes — subcube projection).  Virtual edges are realised as
deterministic dimension-ordered shortest paths; replicate nodes rerun
the construction on their destination sublists, bypass nodes merely
forward.  The resulting traffic is the total virtual tree length, at
least as good as the KMB algorithm's in the worst case (§5.2).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict, deque
from collections.abc import Sequence
from functools import lru_cache
from itertools import combinations, count

from ..models.request import MulticastRequest
from ..models.results import MulticastTree
from ..registry import register
from ..topology.base import Node, Topology
from ..topology.hypercube import Hypercube
from ..topology.mesh import Mesh2D, Mesh3D


def nearest_on_shortest_paths(topology: Topology, s: Node, t: Node, target: Node) -> Node:
    """The node nearest to ``target`` among all nodes on shortest paths
    between ``s`` and ``t`` (step 4a of Fig. 5.4).

    In a mesh the shortest-path region is the bounding box of s and t
    and the nearest node is the coordinatewise clamp of ``target``; in a
    hypercube it is the subcube fixing the bits where s and t agree.
    """
    if isinstance(topology, Hypercube):
        return topology.subcube_projection(target, s, t)
    if isinstance(topology, (Mesh2D, Mesh3D)):
        return tuple(
            min(max(c, min(a, b)), max(a, b)) for c, a, b in zip(target, s, t)
        )
    raise TypeError(f"no O(1) shortest-path projection for {topology!r}")


def build_virtual_tree(
    topology: Topology, root: Node, dests: Sequence[Node]
) -> list[tuple[Node, Node]]:
    """Steps 3-4 of Fig. 5.4: greedily grow the virtual Steiner tree by
    attaching each destination (in list order) at its nearest point on
    an existing virtual edge.  Returns the virtual edge list E(T).

    The projection of :func:`nearest_on_shortest_paths` is resolved once
    per call from the topology's family.  Each virtual edge carries a
    key — its bounding box in a mesh, its endpoint and agreeing-bit mask
    in a hypercube — against which every destination is scored inline.
    Ties go to the first minimal edge in list order, and a split edge is
    replaced by its two halves at the end of the list.  From
    ``INDEX_MIN_DESTS`` destinations on, a 2-D mesh or hypercube build
    finds that edge with a node-coverage index instead of the scan
    (:func:`_mesh_index`, :func:`_cube_index`); both find the same edge.
    A topology other than a 2-D mesh, 3-D mesh or hypercube raises
    ``TypeError``.
    """
    if not dests:
        return []
    if isinstance(topology, Hypercube):
        key, nearest, index = _cube_key, _cube_nearest, _cube_index
    elif isinstance(topology, Mesh2D):
        key, nearest, index = _box_2d, _box_nearest_2d, _mesh_index
    elif isinstance(topology, Mesh3D):
        key, nearest, index = _box_3d, _box_nearest_3d, None
    else:
        raise TypeError(f"no O(1) shortest-path projection for {topology!r}")
    edges: list[tuple[Node, Node]] = [(root, dests[0])]
    keys = [key(root, dests[0])]
    add = None
    if index is not None and len(dests) >= INDEX_MIN_DESTS:
        add, drop, nearest = index(topology, nearest)
        add(keys[0])
    members = {root, dests[0]}  # every endpoint of an edge in ``edges``
    for u in dests[1:]:
        if u in members:
            continue
        j, v = nearest(keys, u)
        s, t = edges[j]
        if v != s and v != t:
            del edges[j], keys[j]
            edges += ((s, v), (v, t))
            keys += (key(s, v), key(v, t))
            if add is not None:
                drop(j)
                add(keys[-2])
                add(keys[-1])
        if u != v:
            edges.append((v, u))
            keys.append(key(v, u))
            if add is not None:
                add(keys[-1])
        members.add(u)
        members.add(v)
    return edges


# Per-family edge keys and nearest-edge scans for build_virtual_tree.
# A scan returns the index of the first edge at minimal distance from
# ``u`` and the node of that edge's shortest-path region nearest to u.

_FAR = 1 << 62


def _box_2d(s: Node, t: Node) -> tuple[int, int, int, int]:
    """Bounding box ``(x0, x1, y0, y1)`` of a 2-D mesh edge."""
    x0, y0 = s
    x1, y1 = t
    if x0 > x1:
        x0, x1 = x1, x0
    if y0 > y1:
        y0, y1 = y1, y0
    return x0, x1, y0, y1


def _box_nearest_2d(boxes: list, u: Node) -> tuple[int, Node]:
    ux, uy = u
    best, best_j = _FAR, 0
    for j, (x0, x1, y0, y1) in enumerate(boxes):
        d = (x0 - ux if ux < x0 else ux - x1 if ux > x1 else 0) + (
            y0 - uy if uy < y0 else uy - y1 if uy > y1 else 0
        )
        if d < best:
            best, best_j = d, j
            if not d:
                break
    x0, x1, y0, y1 = boxes[best_j]
    return best_j, (
        x0 if ux < x0 else x1 if ux > x1 else ux,
        y0 if uy < y0 else y1 if uy > y1 else uy,
    )


def _box_3d(s: Node, t: Node) -> tuple[int, int, int, int, int, int]:
    """Bounding box ``(x0, x1, y0, y1, z0, z1)`` of a 3-D mesh edge."""
    x0, y0, z0 = s
    x1, y1, z1 = t
    if x0 > x1:
        x0, x1 = x1, x0
    if y0 > y1:
        y0, y1 = y1, y0
    if z0 > z1:
        z0, z1 = z1, z0
    return x0, x1, y0, y1, z0, z1


def _box_nearest_3d(boxes: list, u: Node) -> tuple[int, Node]:
    ux, uy, uz = u
    best, best_j = _FAR, 0
    for j, (x0, x1, y0, y1, z0, z1) in enumerate(boxes):
        d = (
            (x0 - ux if ux < x0 else ux - x1 if ux > x1 else 0)
            + (y0 - uy if uy < y0 else uy - y1 if uy > y1 else 0)
            + (z0 - uz if uz < z0 else uz - z1 if uz > z1 else 0)
        )
        if d < best:
            best, best_j = d, j
            if not d:
                break
    x0, x1, y0, y1, z0, z1 = boxes[best_j]
    return best_j, (
        x0 if ux < x0 else x1 if ux > x1 else ux,
        y0 if uy < y0 else y1 if uy > y1 else uy,
        z0 if uz < z0 else z1 if uz > z1 else uz,
    )


def _cube_key(s: Node, t: Node) -> tuple[int, int]:
    """An n-cube edge's endpoint ``s`` and the mask of the bits where s
    and t agree (the bits its subcube fixes)."""
    return s, ~(s ^ t)


def _cube_nearest(keys: list, u: Node) -> tuple[int, Node]:
    best, best_j = _FAR, 0
    for j, (s, agree) in enumerate(keys):
        d = ((s ^ u) & agree).bit_count()
        if d < best:
            best, best_j = d, j
            if not d:
                break
    s, agree = keys[best_j]
    return best_j, (s & agree) | (u & ~agree)


# Node-coverage indexes for build_virtual_tree.  Each edge gets an
# insertion id.  A split deletes an edge and appends its halves, so the
# edge list is in id order, and the scan's first minimal edge is the one
# with the smallest (distance, id).  ``cells`` maps a node to the
# ascending ids of the edges whose shortest-path region covers it: the
# bounding box in a 2-D mesh, the subcube in a hypercube.  A split
# edge's id leaves ``live`` at once and its cells lazily, when a probe
# finds it at the front of a list.
#
# A query probes the shells of nodes at distance 0, 1, 2, ... from u.
# The first shell that holds a live covering edge fixes the distance,
# and its smallest live id is the first minimal edge; its list position
# is found by bisection in the ids of the live edges.  When the nodes
# probed would outnumber the live edges, the query runs the family's
# scan instead, so every answer is the scan's.
#
# An index is built per call and pays for every node each edge covers,
# which outweighs the shorter queries on sparse sets: a k = 64 set on
# the 32x32 mesh routes slower with it (docs/PERFORMANCE.md §6).

#: builds with fewer destinations than this scan every edge per query
INDEX_MIN_DESTS = 96


def _live_front(ids: list, live: set) -> int:
    """Drop the dead ids at the front of a cell's ``ids``; its first
    live id, or ``_FAR`` if none is left."""
    while ids:
        if ids[0] in live:
            return ids[0]
        del ids[0]
    return _FAR


@lru_cache(maxsize=None)
def _l1_shell(stride: int, r: int) -> tuple[int, ...]:
    """Cell offsets of the nodes at L1 distance r (4r of them, or the
    node itself), for cells ``x * stride + y``."""
    if not r:
        return (0,)
    shell = []
    for dx in range(-r, r + 1):
        dy = r - abs(dx)
        shell.append(dx * stride + dy)
        if dy:
            shell.append(dx * stride - dy)
    return tuple(shell)


def _mesh_index(topology: Mesh2D, scan):
    """``(add, drop, nearest)`` of a 2-D mesh build's coverage index:
    ``add(box)`` appends an edge, ``drop(j)`` deletes the edge at list
    position j, and ``nearest`` answers as ``scan`` does."""
    # Node (x, y) has cell x * stride + y.  Radius r is probed only while
    # 2r^2 < the live edges, fewer than 2wh, so r < (w + h) / 2 and no
    # two probed nodes share a cell.
    stride = 2 * (topology.width + topology.height)
    cells: dict[int, list] = {}
    get = cells.get
    ids: list[int] = []  # ids of the live edges, in list order
    live: set[int] = set()
    new_id = count().__next__

    def add(box: tuple[int, int, int, int]) -> None:
        j = new_id()
        ids.append(j)
        live.add(j)
        x0, x1, y0, y1 = box
        for x in range(x0 * stride, x1 * stride + 1, stride):
            for c in range(x + y0, x + y1 + 1):
                covering = get(c)
                if covering is None:
                    cells[c] = [j]
                else:
                    covering.append(j)

    def drop(position: int) -> None:
        live.remove(ids.pop(position))

    def nearest(boxes: list, u: Node) -> tuple[int, Node]:
        ux, uy = u
        c = ux * stride + uy
        r = 0
        while 2 * r * (r + 1) < len(ids):  # 2r(r + 1) + 1 nodes probed
            best = _FAR
            for d in _l1_shell(stride, r):
                covering = get(c + d)
                if covering:
                    j = covering[0]
                    if j not in live:
                        j = _live_front(covering, live)
                    if j < best:
                        best = j
            if best != _FAR:
                j = bisect_left(ids, best)
                x0, x1, y0, y1 = boxes[j]
                return j, (
                    x0 if ux < x0 else x1 if ux > x1 else ux,
                    y0 if uy < y0 else y1 if uy > y1 else uy,
                )
            r += 1
        return scan(boxes, u)

    return add, drop, nearest


@lru_cache(maxsize=None)
def _hamming_shell(n: int, r: int) -> tuple[int, ...]:
    """The n-bit masks of weight r (0 alone for r = 0)."""
    return tuple(sum(1 << b for b in bits) for bits in combinations(range(n), r))


def _cube_index(topology: Hypercube, scan):
    """``(add, drop, nearest)`` of a hypercube build's coverage index,
    as :func:`_mesh_index`; an edge covers its subcube, and the shells
    are Hamming spheres."""
    n = topology.n
    cells: list = [None] * topology.num_nodes  # node -> covering ids
    ids: list[int] = []
    live: set[int] = set()
    new_id = count().__next__

    def add(key: tuple[int, int]) -> None:
        j = new_id()
        ids.append(j)
        live.add(j)
        s, agree = key
        free = ~agree
        base = s & agree
        sub = free
        while True:  # every submask of ``free``
            covering = cells[base | sub]
            if covering is None:
                cells[base | sub] = [j]
            else:
                covering.append(j)
            if not sub:
                return
            sub = (sub - 1) & free

    def drop(position: int) -> None:
        live.remove(ids.pop(position))

    def nearest(keys: list, u: int) -> tuple[int, int]:
        budget = len(ids)
        probes = 0
        for r in range(n + 1):
            shell = _hamming_shell(n, r)
            probes += len(shell)
            if probes > budget:
                break
            best = _FAR
            for m in shell:
                covering = cells[u ^ m]
                if covering:
                    j = covering[0]
                    if j not in live:
                        j = _live_front(covering, live)
                    if j < best:
                        best = j
            if best != _FAR:
                j = bisect_left(ids, best)
                s, agree = keys[j]
                return j, (s & agree) | (u & ~agree)
        return scan(keys, u)

    return add, drop, nearest


def _subtree_partition(
    edges: Sequence[tuple[Node, Node]], root: Node
) -> list[tuple[Node, set]]:
    """Step 5 of Fig. 5.4: the root's sons in the virtual tree, each with
    the set of nodes of its subtree."""
    adj = defaultdict(list)
    for s, t in edges:
        adj[s].append(t)
        adj[t].append(s)
    sons = []
    for r in adj[root]:
        members = {r}
        frontier = deque([r])
        while frontier:
            v = frontier.popleft()
            for w in adj[v]:
                if w != root and w not in members:
                    members.add(w)
                    frontier.append(w)
        sons.append((r, members))
    return sons


def greedy_st_prepare(request: MulticastRequest) -> list[Node]:
    """Message preparation (Fig. 5.3): multicast node list headed by the
    source, destinations sorted ascending by distance from it."""
    u0 = request.source
    topo = request.topology
    return [u0] + sorted(
        request.destinations, key=lambda v: (topo.distance(u0, v), topo.index(v))
    )


@register(
    "greedy-st",
    kind="static-route",
    topologies=("mesh2d", "mesh3d", "hypercube"),
    result_model="tree",
    reference="§5.2 Fig. 5.4 (greedy Steiner-tree heuristic)",
)
def greedy_st_route(request: MulticastRequest) -> MulticastTree:
    """Drive the distributed greedy ST algorithm (Fig. 5.4) over the
    network and return the realised multicast tree.

    ``virtual_edges`` on the result records the source's virtual Steiner
    tree; ``traffic`` counts actual link transmissions.

    The paper's message-preparation sort happens once, at the source;
    replicate nodes receive their sublists in the source's order
    (Fig. 5.4 takes the input list as given).
    """
    topo = request.topology
    dest_set = set(request.destinations)
    arcs: list[tuple[Node, Node]] = []
    delivered: set = set()
    root_virtual: tuple = ()

    # Work queue of in-flight messages: (current node, destination list).
    pending = deque([(request.source, greedy_st_prepare(request))])
    first = True
    while pending:
        w, dlist = pending.popleft()
        u = dlist[0]
        if w != u:
            # Bypass node: forward one hop along the deterministic
            # shortest path toward the head node u (step 1).
            nxt = topo.next_hop(w, u)
            arcs.append((w, nxt))
            pending.append((nxt, dlist))
            continue
        # w == u: deliver the local copy if this node is a destination.
        if w in dest_set:
            delivered.add(w)
        rest = dlist[1:]
        if not rest:
            continue  # leaf (step 2)
        edges = build_virtual_tree(topo, u, rest)
        if first:
            root_virtual = tuple(edges)
            first = False
        for son, members in _subtree_partition(edges, u):
            sublist = [son] + [d for d in rest if d in members and d != son]
            nxt = topo.next_hop(u, son)
            arcs.append((u, nxt))
            pending.append((nxt, sublist))

    missing = dest_set - delivered
    if missing:
        raise RuntimeError(f"greedy ST failed to deliver to {missing}")
    return MulticastTree(topo, request.source, tuple(arcs), virtual_edges=root_virtual)


def virtual_tree_length(topology: Topology, edges: Sequence[tuple[Node, Node]]) -> int:
    """Total realised length of a virtual tree (its traffic)."""
    return sum(topology.distance(s, t) for s, t in edges)
