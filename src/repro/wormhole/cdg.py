"""Channel dependency graphs and deadlock analysis (§2.3.4, §6.1-§6.3).

Dally & Seitz: a wormhole routing algorithm is deadlock-free iff its
channel dependency graph (CDG) is acyclic.  For *multicast* wormhole
routing the dependency relation must be extended: a blocked message
keeps every channel it has acquired — across all branches of a tree, or
all earlier hops of a path — while waiting for the next one, so every
already-held channel depends on every requested channel.

This module provides

* :func:`route_dependency_edges` — the extended dependencies generated
  by one route, represented as *stages* (depth levels of a tree, or the
  hops of a path);
* :func:`is_acyclic` / :func:`find_cycle` — re-exported from
  :mod:`repro.analysis.graph` (PR 4 moved the cycle core there; the
  re-exported ``find_cycle`` now returns a deterministic *shortest*
  cycle);
* conservative full CDGs that certify the Chapter 6 assertions on a
  concrete network (every dependency any multicast could create):
  :func:`full_star_cdg` for high/low-channel path routing and
  :func:`full_quadrant_cdg` for the double-channel X-first subnetworks;
* the two deadlock demonstrations of §6.1 (Figs. 6.1 and 6.4): their
  request pairs (:func:`fig_6_1_requests`, :func:`fig_6_4_requests`),
  which every caller takes from here, and their cyclic CDGs.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ..analysis.graph import find_cycle, is_acyclic, shortest_cycle
from ..labeling.base import Labeling
from ..models.request import MulticastRequest
from ..models.results import MulticastStar, MulticastTree
from ..topology.hypercube import Hypercube
from ..topology.mesh import Mesh2D
from .subnetworks import quadrant_channels

__all__ = [
    "combined_cdg",
    "fig_6_1_broadcast_deadlock_cdg",
    "fig_6_1_requests",
    "fig_6_4_requests",
    "fig_6_4_xfirst_deadlock_cdg",
    "find_cycle",
    "full_quadrant_cdg",
    "full_star_cdg",
    "is_acyclic",
    "path_stages",
    "route_dependency_edges",
    "shortest_cycle",
    "star_stages",
    "tree_stages",
]


# ----------------------------------------------------------------------
# Dependencies generated by concrete routes.
# ----------------------------------------------------------------------


def path_stages(path: Sequence, tag=None) -> list[list]:
    """A path's channels as one stage per hop."""
    return [[(a, b) if tag is None else (a, b, tag)] for a, b in zip(path, path[1:])]


def tree_stages(tree: MulticastTree, tag=None) -> list[list]:
    """A multicast tree's channels grouped by the depth of their tail
    (the lockstep frontier levels of §6.1), each level in arc order."""
    hops = tree.hops_from_source()
    levels: list[list] = []
    for u, v in tree.arcs:
        depth = hops.get(u)
        if depth is None:
            raise ValueError("tree arcs are not connected to the source")
        while depth >= len(levels):
            levels.append([])
        levels[depth].append((u, v) if tag is None else (u, v, tag))
    return levels


def star_stages(star: MulticastStar, tag=None) -> list[list[list]]:
    """Each star path is an independent message: a list of stage lists."""
    return [path_stages(p, tag) for p in star.paths]


def route_dependency_edges(stages: Sequence[Sequence]) -> set:
    """Extended multicast dependencies of one message: every channel in
    an earlier stage is held while each later-stage channel is
    requested."""
    edges = set()
    held: list = []
    for stage in stages:
        for c_new in stage:
            for c_held in held:
                edges.add((c_held, c_new))
        held.extend(stage)
    return edges


def combined_cdg(all_stages: Iterable[Sequence]) -> set:
    """Union of the dependency edges of several messages."""
    edges = set()
    for stages in all_stages:
        edges |= route_dependency_edges(stages)
    return edges


# ----------------------------------------------------------------------
# Conservative full CDGs (certificates for the Chapter 6 assertions).
# ----------------------------------------------------------------------


def full_star_cdg(labeling: Labeling, which: str) -> set:
    """Every dependency any path-routed message could create inside the
    high- (or low-) channel subnetwork: channel c1 can be held while c2
    is requested only if the message passed c1's head no later than
    c2's tail, i.e. label(head(c1)) <= label(tail(c2)).

    If this superset is acyclic, so is the true CDG of dual-path,
    multi-path and fixed-path routing (Assertions 2-3 / Corollaries
    6.1-6.2).
    """
    if which == "high":
        channels = labeling.high_channels()
    elif which == "low":
        channels = labeling.low_channels()
    else:
        raise ValueError("which must be 'high' or 'low'")
    lab = labeling.label
    edges = set()
    for c1 in channels:
        for c2 in channels:
            if c1 != c2:
                if which == "high" and lab(c1[1]) <= lab(c2[0]):
                    edges.add((c1, c2))
                elif which == "low" and lab(c1[1]) >= lab(c2[0]):
                    edges.add((c1, c2))
    return edges


def full_quadrant_cdg(mesh: Mesh2D, quadrant: str) -> set:
    """Every dependency any X-first tree could create inside one of the
    four double-channel subnetworks.  A tree acquires channels level by
    level, and each level strictly advances the quadrant's partial
    order (Fig. 6.8), so c1 can be held while c2 is requested only when
    c2's tail is strictly deeper than c1's tail."""
    sx = 1 if "+X" in quadrant else -1
    sy = 1 if "+Y" in quadrant else -1

    def rank(node) -> int:
        return sx * node[0] + sy * node[1]

    channels = quadrant_channels(mesh, quadrant)
    edges = set()
    for c1 in channels:
        for c2 in channels:
            if c1 != c2 and rank(c2[0]) > rank(c1[0]):
                edges.add((c1, c2))
    return edges


# ----------------------------------------------------------------------
# The §6.1 deadlock demonstrations.
# ----------------------------------------------------------------------


def fig_6_1_requests() -> tuple[MulticastRequest, ...]:
    """The Fig. 6.1 scenario: simultaneous broadcasts from nodes 000
    and 001 of a 3-cube."""
    cube = Hypercube(3)
    return tuple(
        MulticastRequest(cube, s, tuple(v for v in cube.nodes() if v != s))
        for s in (0b000, 0b001)
    )


def fig_6_4_requests() -> tuple[MulticastRequest, ...]:
    """The Fig. 6.4 scenario on a 3x4 mesh: M0 from (1,1) to
    {(0,2), (3,1)} and M1 from (2,1) to {(0,1), (3,0)}."""
    mesh = Mesh2D(4, 3)
    return (
        MulticastRequest(mesh, (1, 1), ((0, 2), (3, 1))),
        MulticastRequest(mesh, (2, 1), ((0, 1), (3, 0))),
    )


def fig_6_1_broadcast_deadlock_cdg() -> set:
    """The Fig. 6.1 broadcasts as e-cube trees: their combined
    extended CDG contains a cycle."""
    from .ecube_tree import ecube_tree_route

    return combined_cdg(tree_stages(ecube_tree_route(r)) for r in fig_6_1_requests())


def fig_6_4_xfirst_deadlock_cdg() -> set:
    """The Fig. 6.4 multicasts as X-first trees on single channels:
    their combined extended CDG contains a cycle."""
    from ..heuristics.xfirst import xfirst_route

    return combined_cdg(tree_stages(xfirst_route(r)) for r in fig_6_4_requests())
