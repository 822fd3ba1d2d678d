"""Deterministic unicast wormhole routing and its CDG (§2.3, Fig. 2.5).

The well-known deadlock-free deterministic schemes the dissertation
builds on: X-first (XY) routing for 2D meshes and e-cube routing for
hypercubes.  :func:`unicast_cdg` constructs the Dally–Seitz channel
dependency graph of any next-hop routing function over all
(position, destination) pairs — reproducing Fig. 2.5's construction —
and the test-suite certifies acyclicity for X-first/e-cube and
exhibits the cycle for the (deadlock-prone) Y-first-then-X-then-Y
adaptive counterexamples.
"""

from __future__ import annotations

from collections.abc import Callable

from ..topology.base import Node, Topology
from ..topology.hypercube import Hypercube
from ..topology.mesh import Mesh2D


def xfirst_next_hop(mesh: Mesh2D, u: Node, dest: Node) -> Node | None:
    """X-first (XY) unicast routing: correct the x offset, then y."""
    return None if u == dest else mesh.next_hop(u, dest)


def ecube_next_hop(cube: Hypercube, u: Node, dest: Node) -> Node | None:
    """E-cube unicast routing: correct the lowest differing bit."""
    return None if u == dest else cube.next_hop(u, dest)


def label_next_hop(labeling) -> Callable:
    """The routing function R of a Hamiltonian labeling as a unicast
    next-hop function (used by the mixed-traffic study)."""

    def next_hop(_topology, u: Node, dest: Node) -> Node | None:
        if u == dest:
            return None
        return labeling.route_step(u, dest)

    return next_hop


def unicast_cdg(topology: Topology, next_hop: Callable) -> set:
    """All channel dependencies a deterministic unicast routing function
    can create: for every destination and every node on the way, the
    incoming channel the message may arrive on depends on the outgoing
    channel the function selects (§2.3.4).

    ``next_hop(topology, u, dest)`` returns the next node or None.
    The routing is deadlock-free iff the returned edge set is acyclic
    [Dally & Seitz].
    """
    # reachable incoming channels per (node, dest): simulate every route
    edges: set = set()
    for dest in topology.nodes():
        for src in topology.nodes():
            if src == dest:
                continue
            u = src
            prev: Node | None = None
            guard = 0
            while u != dest:
                v = next_hop(topology, u, dest)
                if v is None:
                    break
                if prev is not None:
                    edges.add(((prev, u), (u, v)))
                prev = u
                u = v
                guard += 1
                if guard > topology.num_nodes * 4:
                    raise RuntimeError("unicast routing did not converge")
    return edges


def yfirst_then_x_then_y_next_hop(mesh: Mesh2D, u: Node, dest: Node) -> Node | None:
    """A deliberately deadlock-prone routing: move one hop in Y first
    when possible, then X, then the rest of Y.  Mixing YX and XY turns
    creates the classic cycle of turns — the counterexample routing the
    CDG analysis catches."""
    if u == dest:
        return None
    x, y = u
    dx, dy = dest[0] - x, dest[1] - y
    # first hop of the Y offset, then all of X, then remaining Y
    if dy != 0 and abs(dy) % 2 == 1 and dx != 0:
        return (x, y + (1 if dy > 0 else -1))
    if dx != 0:
        return (x + (1 if dx > 0 else -1), y)
    return (x, y + (1 if dy > 0 else -1))
