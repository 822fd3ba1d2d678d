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

from functools import partial

from ..models.request import MulticastRequest
from ..models.results import MulticastTree, grow_tree
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


def _mirror(quadrant: str, local: Node, d: Node) -> tuple[int, int]:
    """Coordinates of ``d`` relative to ``local`` with the quadrant's
    axes flipped to look like +X,+Y."""
    sx = 1 if "+X" in quadrant else -1
    sy = 1 if "+Y" in quadrant else -1
    return (sx * (d[0] - local[0]), sy * (d[1] - local[1]))


def double_channel_xfirst_step(
    mesh: Mesh2D, quadrant: str, local: Node, dests
) -> tuple[bool, dict]:
    """One step of the double-channel X-first routing algorithm
    (Fig. 6.6), generalised to all four subnetworks by mirroring.

    Returns ``(deliver_local, {next_node: sublist})``.
    """
    sx = 1 if "+X" in quadrant else -1
    sy = 1 if "+Y" in quadrant else -1
    rel = {d: _mirror(quadrant, local, d) for d in dests}
    # Step 1: while strictly west of every destination, move east.
    min_rx = min(r[0] for r in rel.values()) if rel else 0
    if rel and min_rx > 0:
        return False, {(local[0] + sx, local[1]): list(dests)}
    deliver = False
    column, remainder = [], []
    for d in dests:
        rx, ry = rel[d]
        if rx == 0 and ry == 0:
            deliver = True
        elif rx == 0:
            column.append(d)  # step 3: same column, go vertical
        else:
            remainder.append(d)
    groups: dict = {}
    if column:
        groups[(local[0], local[1] + sy)] = column
    if remainder:
        groups[(local[0] + sx, local[1])] = remainder
    return deliver, groups


def double_channel_xfirst_route(
    request: MulticastRequest,
) -> list[tuple[str, MulticastTree]]:
    """The tree-like deadlock-free multicast of §6.2.1: one X-first
    multicast tree per quadrant subnetwork.

    Returns ``[(quadrant, tree), ...]`` for the non-empty quadrants; the
    simulator maps each tree onto its own channel copies.
    """
    mesh = request.topology
    if not isinstance(mesh, Mesh2D):
        raise TypeError("double-channel X-first routing is defined for 2D meshes")
    parts = partition_destinations(request.source, request.destinations)
    return [
        (quadrant, grow_tree(mesh, request.source, dlist,
                             partial(double_channel_xfirst_step, mesh, quadrant)))
        for quadrant, dlist in parts.items()
        if dlist
    ]


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
