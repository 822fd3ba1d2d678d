"""Parity of the level-order tree walker and the one-pass ``tree_stages``
with the code they replaced.

X-first (Fig. 5.5), divided greedy (Fig. 5.6), LEN (§5.2) and the
e-cube tree (Fig. 6.1) each used to carry the drive loop kept here
verbatim as :func:`seed_drive`; all of them now call
:func:`repro.models.grow_tree`.  Each quadrant of the double-channel
X-first tree (Fig. 6.6) used to be driven the same way by
:func:`double_channel_xfirst_step`, kept here verbatim as the quadrant
reference; it is now built in closed form
(:func:`repro.wormhole.quadrant_levels`).  ``tree_stages`` used to
peel the arcs off level by level; it now groups them by the BFS depth
of their tail.  The quadratic original is kept here as
:func:`seed_tree_stages`.

Hypothesis draws 2-D meshes (odd and 1-wide sides included) and
hypercubes.  The walker must emit the reference loop's arcs, in order,
for every step function and every quadrant separately, the quadrant
router must emit the same arcs in the same order, and ``tree_stages``
must equal the reference on every tree router's output, with and
without a tag.
"""

from __future__ import annotations

from collections import deque
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heuristics import divided_greedy_route, len_route, xfirst_route
from repro.heuristics.divided_greedy import divided_greedy_step
from repro.heuristics.len_tree import len_step
from repro.heuristics.xfirst import xfirst_step
from repro.models import MulticastRequest, MulticastTree, grow_tree
from repro.registry import specs
from repro.topology import Hypercube, Mesh2D
from repro.topology.base import Node
from repro.wormhole import (
    QUADRANTS,
    double_channel_xfirst_route,
    ecube_tree_route,
    partition_destinations,
    tree_stages,
)
from repro.wormhole.ecube_tree import ecube_step


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


def seed_drive(topology, source, destinations, step):
    """The drive loop each step-driven tree router carried (the parity
    reference); returns the arcs in the order they were sent."""
    arcs = []
    delivered = set()
    pending = deque([(source, list(destinations))])
    while pending:
        w, dlist = pending.popleft()
        deliver, groups = step(w, dlist)
        if deliver:
            delivered.add(w)
        for nxt, sub in groups.items():
            arcs.append((w, nxt))
            pending.append((nxt, sub))
    if delivered != set(destinations):
        raise RuntimeError("multicast failed to deliver")
    return arcs


def seed_tree_stages(tree, tag=None):
    """The original level-peeling ``tree_stages`` (the parity reference)."""
    known = {tree.source}
    levels = []
    remaining = list(tree.arcs)
    while remaining:
        placed = [(u, v) for u, v in remaining if u in known]
        if not placed:
            raise ValueError("tree arcs are not connected to the source")
        levels.append([(u, v) if tag is None else (u, v, tag) for u, v in placed])
        known |= {v for _, v in placed}
        for arc in placed:
            remaining.remove(arc)
    return levels


@st.composite
def meshes(draw):
    """A 2-D mesh of 2 to 81 nodes, 1-wide and odd sides included."""
    w = draw(st.integers(1, 9))
    return Mesh2D(w, draw(st.integers(2 if w == 1 else 1, 9)))


def cubes():
    return st.integers(1, 6).map(Hypercube)


@st.composite
def requests(draw, topologies):
    """A request with 1 to 24 destinations in random order."""
    topo = draw(topologies)
    nodes = topo.node_list()
    source = draw(st.sampled_from(nodes))
    others = draw(st.permutations([v for v in nodes if v != source]))
    k = draw(st.integers(1, min(24, len(others))))
    return MulticastRequest(topo, source, tuple(others[:k]))


def _walk_both(topology, source, destinations, step):
    """The walker's arcs and the reference loop's, for one step function."""
    tree = grow_tree(topology, source, destinations, step)
    assert tree.source == source
    return list(tree.arcs), seed_drive(topology, source, destinations, step)


@given(requests(meshes()))
@settings(max_examples=150, deadline=None)
def test_mesh_walks_match_reference_loop(request):
    mesh, src, dests = request.topology, request.source, request.destinations
    for step, route in ((xfirst_step, xfirst_route), (divided_greedy_step, divided_greedy_route)):
        walked, seed = _walk_both(mesh, src, dests, step)
        assert walked == seed
        assert list(route(request).arcs) == seed
    # every quadrant separately, and the router's tree for it
    parts = partition_destinations(src, dests)
    routed = dict(double_channel_xfirst_route(request))
    assert list(routed) == [q for q in QUADRANTS if parts[q]]
    for quadrant, tree in routed.items():
        step = partial(double_channel_xfirst_step, mesh, quadrant)
        walked, seed = _walk_both(mesh, src, parts[quadrant], step)
        assert walked == seed
        assert list(tree.arcs) == seed


@given(requests(cubes()))
@settings(max_examples=100, deadline=None)
def test_cube_walks_match_reference_loop(request):
    cube, src, dests = request.topology, request.source, request.destinations
    for step, route in ((len_step, len_route), (ecube_step, ecube_tree_route)):
        walked, seed = _walk_both(cube, src, dests, partial(step, cube))
        assert walked == seed
        assert list(route(request).arcs) == seed


def _tree_routes(request):
    """Every tree router's output on ``request``: ``(tag, tree)`` pairs,
    the quadrant trees tagged by their subnetwork."""
    out = [
        (None, spec.fn(request))
        for spec in specs(include_families=False)
        if spec.result_model == "tree" and spec.supports(request.topology)
    ]
    if isinstance(request.topology, Mesh2D):
        out += double_channel_xfirst_route(request)
    return out


@given(requests(st.one_of(meshes(), cubes())))
@settings(max_examples=120, deadline=None)
def test_tree_stages_match_reference(request):
    routes = _tree_routes(request)
    assert len(routes) >= 5
    for tag, tree in routes:
        assert tree_stages(tree) == seed_tree_stages(tree)
        tag = tag or "t"
        assert tree_stages(tree, tag=tag) == seed_tree_stages(tree, tag=tag)


def test_tree_stages_keeps_repeated_arcs():
    """Multi-unicast repeats shared arcs; each copy stays at its level."""
    mesh = Mesh2D(4, 4)
    tree = MulticastTree(
        mesh, (0, 0), (((0, 0), (1, 0)), ((1, 0), (2, 0)), ((0, 0), (1, 0)), ((1, 0), (1, 1)))
    )
    assert tree_stages(tree) == seed_tree_stages(tree) == [
        [((0, 0), (1, 0)), ((0, 0), (1, 0))],
        [((1, 0), (2, 0)), ((1, 0), (1, 1))],
    ]


DISCONNECTED = [
    pytest.param((((2, 2), (2, 3)),), id="lone-arc"),
    pytest.param((((0, 0), (1, 0)), ((2, 2), (2, 3))), id="after-a-level"),
    pytest.param((((2, 2), (2, 3)), ((0, 0), (1, 0))), id="before-a-level"),
    pytest.param((((0, 0), (0, 1)), ((2, 2), (3, 2)), ((3, 2), (2, 2))), id="unreached-cycle"),
]


@pytest.mark.parametrize("arcs", DISCONNECTED)
def test_tree_stages_rejects_arcs_off_the_source(arcs):
    tree = MulticastTree(Mesh2D(4, 4), (0, 0), arcs)
    with pytest.raises(ValueError, match="not connected"):
        seed_tree_stages(tree)
    with pytest.raises(ValueError, match="not connected"):
        tree_stages(tree)


@given(requests(meshes()))
@settings(max_examples=50, deadline=None)
def test_grow_tree_raises_when_a_step_drops_a_destination(request):
    dropped = request.destinations[0]

    def lossy(local, dests):
        return xfirst_step(local, [d for d in dests if d != dropped])

    with pytest.raises(RuntimeError):
        seed_drive(request.topology, request.source, request.destinations, lossy)
    with pytest.raises(RuntimeError, match="failed to deliver"):
        grow_tree(request.topology, request.source, request.destinations, lossy)
