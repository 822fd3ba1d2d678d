"""Parity of the greedy ST virtual-tree kernel with the original loop.

:func:`repro.heuristics.greedy_st.build_virtual_tree` scores virtual
edges inline, per topology family, and from ``INDEX_MIN_DESTS``
destinations on finds the nearest edge with a node-coverage index.
The loop it replaced is kept here verbatim as the reference: every
edge projected through :func:`nearest_on_shortest_paths` and measured
with ``Topology.distance``, tree membership by a scan of the edge list.
Both must return the same edge list, order included, on 2-D meshes
(1xN and Nx1 too), 3-D meshes and hypercubes (n = 1 too), for every
k from 1 to N-1, with destinations in message-preparation order and
shuffled so that equidistant ties are exercised.  Whole routes must
agree too: arcs and virtual edges.

The drawn cases run twice: at the shipped crossover, and with it at
its minimum, so that every build of every drawn family and k uses the
index (its shells, dead-id skipping and fallback to the scan).  Fixed
cases cover the figures' networks, the 32x32 mesh and the 10-cube, on
both sides of the shipped crossover.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heuristics import greedy_st
from repro.heuristics.greedy_st import (
    build_virtual_tree,
    greedy_st_prepare,
    greedy_st_route,
    nearest_on_shortest_paths,
)
from repro.models import MulticastRequest, random_multicast
from repro.topology import Hypercube, KAryNCube, Mesh2D, Mesh3D


def seed_build_virtual_tree(topology, root, dests):
    """The original Fig. 5.4 steps 3-4 loop (the parity reference)."""
    if not dests:
        return []
    edges = [(root, dests[0])]
    for u_i in dests[1:]:
        if any(u_i in e for e in edges):
            continue
        best_v = None
        best_edge = None
        best_d = None
        for e in edges:
            s, t = e
            v = nearest_on_shortest_paths(topology, s, t, u_i)
            d = topology.distance(u_i, v)
            if best_d is None or d < best_d:
                best_v, best_edge, best_d = v, e, d
        assert best_v is not None and best_edge is not None
        s, t = best_edge
        if best_v != s and best_v != t:
            edges.remove(best_edge)
            edges.append((s, best_v))
            edges.append((best_v, t))
        if u_i != best_v:
            edges.append((best_v, u_i))
    return edges


def seed_greedy_st_prepare(request):
    """The original message preparation: sort on the source's BFS row."""
    u0 = request.source
    imap = request.topology.index_map()
    row = request.topology.distance_row(imap[u0])
    return [u0] + sorted(
        request.destinations, key=lambda v: (row[imap[v]], imap[v])
    )


@st.composite
def topologies(draw):
    """A 2-D mesh, 3-D mesh or hypercube of 2 to 64 nodes."""
    family = draw(st.sampled_from(["mesh2d", "mesh3d", "hypercube"]))
    if family == "mesh2d":
        w = draw(st.integers(1, 8))
        return Mesh2D(w, draw(st.integers(2 if w == 1 else 1, 8)))
    if family == "mesh3d":
        w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        return Mesh3D(w, h, draw(st.integers(2 if w * h == 1 else 1, 4)))
    return Hypercube(draw(st.integers(1, 6)))


@st.composite
def requests(draw):
    """A multicast request with any k from 1 to N-1."""
    topo = draw(topologies())
    nodes = topo.node_list()
    source = draw(st.sampled_from(nodes))
    k = draw(st.integers(1, len(nodes) - 1))
    others = draw(st.permutations([v for v in nodes if v != source]))
    return MulticastRequest(topo, source, tuple(others[:k]))


@st.composite
def requests_with_shuffle(draw):
    """A request and its destinations in a shuffled order."""
    request = draw(requests())
    return request, draw(st.permutations(request.destinations))


#: degenerate shapes the strategies reach only by chance, and Fig. 5.9
EDGE_CASES = [
    pytest.param(
        MulticastRequest(Mesh2D(1, 9), (0, 4), ((0, 0), (0, 8), (0, 2), (0, 6))),
        id="mesh1x9",
    ),
    pytest.param(
        MulticastRequest(Mesh2D(9, 1), (4, 0), ((0, 0), (8, 0), (2, 0), (6, 0))),
        id="mesh9x1",
    ),
    pytest.param(MulticastRequest(Hypercube(1), 0, (1,)), id="cube1"),
    pytest.param(
        MulticastRequest(Mesh3D(3, 3, 2), (1, 1, 0), ((0, 0, 1), (2, 2, 1), (2, 0, 0))),
        id="mesh3x3x2",
    ),
    pytest.param(
        MulticastRequest(Mesh2D(8, 8), (2, 7), ((0, 5), (2, 3), (4, 1), (6, 3), (7, 4))),
        id="fig5.9",
    ),
]


def index_always():
    """Every build uses the coverage index (the crossover at its minimum)."""
    return mock.patch.object(greedy_st, "INDEX_MIN_DESTS", 1)


def assert_tree_parity(request, order):
    topo, root = request.topology, request.source
    assert build_virtual_tree(topo, root, order) == seed_build_virtual_tree(
        topo, root, order
    )


def assert_route_parity(request):
    tree = greedy_st_route(request)
    with mock.patch.object(
        greedy_st, "build_virtual_tree", seed_build_virtual_tree
    ), mock.patch.object(greedy_st, "greedy_st_prepare", seed_greedy_st_prepare):
        reference = greedy_st_route(request)
    assert tree.arcs == reference.arcs
    assert tree.virtual_edges == reference.virtual_edges


class TestVirtualTreeParity:
    @settings(max_examples=500, deadline=None)
    @given(requests_with_shuffle())
    def test_edges_match_seed_loop(self, case):
        req, shuffled = case
        assert_tree_parity(req, greedy_st_prepare(req)[1:])
        assert_tree_parity(req, list(shuffled))

    @settings(max_examples=500, deadline=None)
    @given(requests_with_shuffle())
    def test_edges_match_seed_loop_with_index_always(self, case):
        req, shuffled = case
        with index_always():
            assert_tree_parity(req, greedy_st_prepare(req)[1:])
            assert_tree_parity(req, list(shuffled))

    @pytest.mark.parametrize("req", EDGE_CASES)
    def test_edge_cases(self, req):
        prepared = greedy_st_prepare(req)[1:]
        assert_tree_parity(req, prepared)
        assert_tree_parity(req, prepared[::-1])
        with index_always():
            assert_tree_parity(req, prepared)
            assert_tree_parity(req, prepared[::-1])

    @pytest.mark.parametrize("k", [25, 100, 400, 700])
    @pytest.mark.parametrize(
        "topo", [Mesh2D(32, 32), Hypercube(10)], ids=["mesh32x32", "cube10"]
    )
    def test_figure_sets_match_seed_loop(self, topo, k):
        """The first Fig 7.3/7.4 set at k, in preparation order and
        shuffled, at the shipped crossover and with the index always on."""
        req = random_multicast(topo, k, random.Random(10000 + k))
        prepared = greedy_st_prepare(req)[1:]
        shuffled = list(prepared)
        random.Random(k).shuffle(shuffled)
        for order in (prepared, shuffled):
            expected = seed_build_virtual_tree(topo, req.source, order)
            assert build_virtual_tree(topo, req.source, order) == expected
            with index_always():
                assert build_virtual_tree(topo, req.source, order) == expected

    def test_empty_destination_list(self):
        assert build_virtual_tree(Mesh2D(4, 4), (0, 0), []) == []

    def test_rejects_topologies_without_projection(self):
        with pytest.raises(TypeError):
            build_virtual_tree(KAryNCube(4, 2), (0, 0), [(1, 1), (2, 2)])


class TestPrepareParity:
    @settings(max_examples=200, deadline=None)
    @given(requests())
    def test_order_matches_distance_row_sort(self, req):
        assert greedy_st_prepare(req) == seed_greedy_st_prepare(req)


class TestRouteParity:
    @settings(max_examples=250, deadline=None)
    @given(requests())
    def test_route_matches_seed(self, req):
        assert_route_parity(req)

    @settings(max_examples=250, deadline=None)
    @given(requests())
    def test_route_matches_seed_with_index_always(self, req):
        with index_always():
            assert_route_parity(req)

    @pytest.mark.parametrize("req", EDGE_CASES)
    def test_edge_cases(self, req):
        assert_route_parity(req)
