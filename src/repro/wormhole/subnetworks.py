"""Network partitioning for tree-like deadlock-free multicast (§6.2.1).

Doubling every channel of a 2D mesh and partitioning the result into
the four acyclic subnetworks

    N_{+X,+Y}: channels (i,j)->(i+1,j) and (i,j)->(i,j+1)
    N_{-X,+Y}: channels (i,j)->(i-1,j) and (i,j)->(i,j+1)
    N_{-X,-Y}: channels (i,j)->(i-1,j) and (i,j)->(i,j-1)
    N_{+X,-Y}: channels (i,j)->(i+1,j) and (i,j)->(i,j-1)

lets the X-first multicast tree run deadlock-free: each sub-multicast
stays inside one subnetwork whose channels can be totally ordered
(Fig. 6.8), so no cyclic channel dependency can form (Assertion 1).
"""

from __future__ import annotations

from ..models.request import MulticastRequest
from ..models.results import MulticastTree
from ..registry import AlgorithmSpec, register_spec
from ..topology.base import Node
from ..topology.mesh import Mesh2D

QUADRANTS = ("+X+Y", "-X+Y", "-X-Y", "+X-Y")

#: unit steps allowed inside each subnetwork
_QUADRANT_STEPS = {
    "+X+Y": ((1, 0), (0, 1)),
    "-X+Y": ((-1, 0), (0, 1)),
    "-X-Y": ((-1, 0), (0, -1)),
    "+X-Y": ((1, 0), (0, -1)),
}


def quadrant_channels(mesh: Mesh2D, quadrant: str) -> list[tuple[Node, Node]]:
    """The directed channels belonging to one subnetwork."""
    steps = _QUADRANT_STEPS[quadrant]
    out = []
    for u in mesh.nodes():
        for dx, dy in steps:
            v = (u[0] + dx, u[1] + dy)
            if mesh.is_node(v):
                out.append((u, v))
    return out


def partition_destinations(source: Node, destinations) -> dict:
    """Partition a destination set into the four quadrant sets
    (§6.2.1's D_{+X,+Y} etc.; the half-open boundaries tile the plane
    minus the source)."""
    x0, y0 = source
    out = {q: [] for q in QUADRANTS}
    for d in destinations:
        x, y = d
        if x > x0 and y >= y0:
            out["+X+Y"].append(d)
        elif x <= x0 and y > y0:
            out["-X+Y"].append(d)
        elif x < x0 and y <= y0:
            out["-X-Y"].append(d)
        else:  # x >= x0 and y < y0
            out["+X-Y"].append(d)
    return out


def quadrant_levels(source: Node, dests, quadrant: str) -> tuple[tuple, tuple]:
    """One quadrant's double-channel X-first tree (Fig. 6.6), built in
    closed form.

    With the quadrant's axes flipped to look like +X,+Y, the tree is a
    trunk along the source row to the farthest destination column and a
    branch up each destination column to its farthest destination.
    Returns ``(levels, dest_levels)``: ``levels[t]`` holds the
    ``(u, v, quadrant)`` channels whose tail is ``t`` hops from the
    source, in the order the Fig. 6.6 step sends them (column branches
    by ascending column, then the trunk hop), and ``dest_levels[t]`` the
    frozenset of ``dests`` those channels reach.  ``dests`` must lie in
    the quadrant (see :func:`partition_destinations`).
    """
    (sx, _), (_, sy) = _QUADRANT_STEPS[quadrant]
    x0, y0 = source
    top: dict[int, int] = {}  # column offset -> farthest row offset above 0
    far = 0  # farthest column offset
    depths = []
    for x, y in dests:
        c, r = sx * (x - x0), sy * (y - y0)
        if r > top.get(c, 0):
            top[c] = r
        if c > far:
            far = c
        depths.append(c + r)
    levels: list[list] = [[] for _ in range(max(depths, default=0))]
    for c in sorted(top):
        x = x0 + sx * c
        column = [(x, y0 + sy * r) for r in range(top[c] + 1)]
        for r in range(top[c]):
            levels[c + r].append((column[r], column[r + 1], quadrant))
    trunk = [(x0 + sx * c, y0) for c in range(far + 1)]
    for c in range(far):
        levels[c].append((trunk[c], trunk[c + 1], quadrant))
    reached: list[list] = [[] for _ in levels]
    for d, depth in zip(dests, depths):
        reached[depth - 1].append(d)
    return tuple(map(tuple, levels)), tuple(map(frozenset, reached))


def double_channel_xfirst_route(
    request: MulticastRequest,
) -> list[tuple[str, MulticastTree]]:
    """The tree-like deadlock-free multicast of §6.2.1: one X-first
    multicast tree per quadrant subnetwork.

    Returns ``[(quadrant, tree), ...]`` for the non-empty quadrants,
    each tree's arcs in the order :func:`quadrant_levels` sends them;
    the simulator maps each tree onto its own channel copies.
    """
    mesh = request.topology
    if not isinstance(mesh, Mesh2D):
        raise TypeError("double-channel X-first routing is defined for 2D meshes")
    parts = partition_destinations(request.source, request.destinations)
    trees = []
    for quadrant, dlist in parts.items():
        if dlist:
            levels, _ = quadrant_levels(request.source, dlist, quadrant)
            arcs = [(u, v) for level in levels for u, v, _ in level]
            trees.append((quadrant, MulticastTree(mesh, request.source, arcs)))
    return trees


def quadrant_cdg_certificate(topology, params=None):
    """Conservative CDG certifying the double-channel X-first tree:
    the four quadrant subnetworks are independent channel sets (each
    edge tagged by its quadrant), and each quadrant CDG is acyclic
    because tree levels strictly advance the quadrant's partial order
    (Fig. 6.8 / Assertion 1)."""
    from .cdg import full_quadrant_cdg

    edges = set()
    for quadrant in QUADRANTS:
        edges |= {
            ((c1, quadrant), (c2, quadrant))
            for c1, c2 in full_quadrant_cdg(topology, quadrant)
        }
    return edges


register_spec(
    AlgorithmSpec(
        name="xfirst-tree",
        kind="dynamic-worm",
        topologies=("mesh2d",),
        worm_style="xfirst-tree",
        deadlock_free=True,
        min_channels=2,
        cdg_certificate=quadrant_cdg_certificate,
        aliases=("tree-xfirst",),
        reference=(
            "§5.3 X-first tree on the §6.2 double-channel quadrant "
            "subnetworks (Fig. 6.8); single-channel deployment is the "
            "Fig. 6.4 deadlock counterexample"
        ),
    )
)
