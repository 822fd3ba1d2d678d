"""Parity of the broadcast baseline with its original BFS.

:func:`repro.heuristics.baselines.broadcast_route` walks the topology's
cached index tables (``node_list()``, ``neighbor_indices()``).  The BFS
it replaced, through ``neighbors()`` on every call, is kept here
verbatim as the reference.  Both must give the same arcs in the same
order: for every source on small 2-D meshes (1xN and Nx1 too), 3-D
meshes, tori and hypercubes, and for a few sources on the 32x32 mesh
and the 10-cube of Figs 7.1-7.4.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.heuristics import broadcast_route
from repro.models import MulticastRequest
from repro.topology import Hypercube, KAryNCube, Mesh2D, Mesh3D


def seed_broadcast_arcs(topo, source):
    """The original BFS spanning tree of ``broadcast_route`` (the parity
    reference)."""
    arcs = []
    seen = {source}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        for v in topo.neighbors(u):
            if v not in seen:
                seen.add(v)
                arcs.append((u, v))
                frontier.append(v)
    return tuple(arcs)


def assert_broadcast_parity(topo, source):
    others = [v for v in topo.node_list() if v != source]
    request = MulticastRequest(topo, source, tuple(others[:1]))
    assert broadcast_route(request).arcs == seed_broadcast_arcs(topo, source)


SMALL = [
    pytest.param(Mesh2D(1, 7), id="mesh1x7"),
    pytest.param(Mesh2D(7, 1), id="mesh7x1"),
    pytest.param(Mesh2D(2, 2), id="mesh2x2"),
    pytest.param(Mesh2D(5, 4), id="mesh5x4"),
    pytest.param(Mesh3D(2, 3, 2), id="mesh2x3x2"),
    pytest.param(Mesh3D(3, 3, 3), id="mesh3x3x3"),
    pytest.param(KAryNCube(2, 3), id="torus2-ary3"),
    pytest.param(KAryNCube(3, 2), id="torus3-ary2"),
    pytest.param(KAryNCube(5, 2), id="torus5-ary2"),
    pytest.param(KAryNCube(4, 3), id="torus4-ary3"),
    pytest.param(Hypercube(1), id="cube1"),
    pytest.param(Hypercube(4), id="cube4"),
    pytest.param(Hypercube(6), id="cube6"),
]


@pytest.mark.parametrize("topo", SMALL)
def test_every_source_matches_seed_bfs(topo):
    for source in topo.node_list():
        assert_broadcast_parity(topo, source)


@pytest.mark.parametrize(
    "topo, sources",
    [
        pytest.param(Mesh2D(32, 32), [(0, 0), (31, 31), (13, 20), (31, 0)], id="mesh32x32"),
        pytest.param(Hypercube(10), [0, 1023, 341, 512], id="cube10"),
    ],
)
def test_figure_networks_match_seed_bfs(topo, sources):
    for source in sources:
        assert_broadcast_parity(topo, source)
