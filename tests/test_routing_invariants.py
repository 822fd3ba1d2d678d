"""Cross-algorithm routing invariants, checked over random instances:
properties every multicast route must satisfy regardless of scheme."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exact import minimal_steiner_tree_cost
from repro.heuristics import (
    broadcast_route,
    divided_greedy_route,
    greedy_st_route,
    kmb_route,
    len_route,
    multiple_unicast_route,
    sorted_mc_route,
    sorted_mp_route,
    xfirst_route,
)
from repro.models import MulticastRequest, random_multicast
from repro.topology import Hypercube, Mesh2D
from repro.wormhole import (
    QUADRANTS,
    double_channel_xfirst_route,
    dual_path_route,
    ecube_tree_route,
    fixed_path_route,
    multi_path_route,
    partition_destinations,
    quadrant_channels,
)

MESH_ALGOS = {
    "sorted-mp": sorted_mp_route,
    "sorted-mc": sorted_mc_route,
    "greedy-st": greedy_st_route,
    "xfirst": xfirst_route,
    "divided-greedy": divided_greedy_route,
    "kmb": kmb_route,
    "multi-unicast": multiple_unicast_route,
    "broadcast": broadcast_route,
    "dual-path": dual_path_route,
    "multi-path": multi_path_route,
    "fixed-path": fixed_path_route,
}

CUBE_ALGOS = {
    name: algo
    for name, algo in MESH_ALGOS.items()
    if name not in ("xfirst", "divided-greedy")
} | {"len": len_route, "ecube-tree": ecube_tree_route}


def routes_for(request):
    algos = MESH_ALGOS if isinstance(request.topology, Mesh2D) else CUBE_ALGOS
    return {name: algo(request) for name, algo in algos.items()}


class TestUniversalInvariants:
    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_traffic_lower_bound_mesh(self, seed):
        """Every 1-to-k multicast needs >= k transmissions, and no
        destination can be closer than its graph distance."""
        rng = random.Random(seed)
        m = Mesh2D(6, 6)
        req = random_multicast(m, rng.randrange(1, 10), rng)
        for name, route in routes_for(req).items():
            assert route.traffic >= req.k, name
            hops = route.dest_hops(req.destinations)
            for d, h in hops.items():
                assert h >= m.distance(req.source, d), (name, d)

    @given(st.integers(0, 10**9))
    @settings(max_examples=20, deadline=None)
    def test_traffic_lower_bound_cube(self, seed):
        rng = random.Random(seed)
        h = Hypercube(4)
        req = random_multicast(h, rng.randrange(1, 8), rng)
        for name, route in routes_for(req).items():
            assert route.traffic >= req.k, name
            for d, hop in route.dest_hops(req.destinations).items():
                assert hop >= h.distance(req.source, d), (name, d)

    @given(st.integers(0, 10**9))
    @settings(max_examples=15, deadline=None)
    def test_steiner_optimum_is_global_floor(self, seed):
        """No algorithm can beat the minimal Steiner tree's traffic."""
        rng = random.Random(seed)
        m = Mesh2D(5, 4)
        req = random_multicast(m, rng.randrange(2, 5), rng)
        floor = minimal_steiner_tree_cost(req)
        for name, route in routes_for(req).items():
            assert route.traffic >= floor, name

    def test_determinism(self):
        """Every algorithm is a pure function of the request."""
        m = Mesh2D(8, 8)
        rng = random.Random(3)
        req = random_multicast(m, 8, rng)
        for name, algo in MESH_ALGOS.items():
            a, b = algo(req), algo(req)
            assert a.traffic == b.traffic, name
            assert a.dest_hops(req.destinations) == b.dest_hops(req.destinations), name

    def test_destination_order_irrelevant(self):
        """Algorithms sort internally: permuting the destination tuple
        must not change the resulting traffic."""
        m = Mesh2D(8, 8)
        rng = random.Random(4)
        base = random_multicast(m, 8, rng)
        shuffled = list(base.destinations)
        rng.shuffle(shuffled)
        permuted = MulticastRequest(m, base.source, tuple(shuffled))
        for name, algo in MESH_ALGOS.items():
            if name in ("greedy-st",):
                # greedy ST breaks equidistant ties by list position, so
                # only the sorted-key prefix is guaranteed stable; check
                # a weaker invariant (same distance multiset coverage)
                assert algo(base).traffic <= algo(permuted).traffic * 1.2
                continue
            assert algo(base).traffic == algo(permuted).traffic, name

    def test_single_destination_degenerates_to_unicast(self):
        """With one destination every scheme (except broadcast and the
        cycle) uses a shortest path."""
        m = Mesh2D(8, 8)
        req = MulticastRequest(m, (1, 1), ((6, 5),))
        dist = m.distance((1, 1), (6, 5))
        for name, algo in MESH_ALGOS.items():
            if name in ("broadcast", "sorted-mc", "fixed-path", "sorted-mp", "dual-path", "multi-path"):
                continue
            assert algo(req).traffic == dist, name
        # the label-based path schemes may detour but still deliver
        for name in ("sorted-mp", "dual-path", "multi-path", "fixed-path"):
            assert MESH_ALGOS[name](req).traffic >= dist

    def test_full_broadcast_request(self):
        """k = N-1 works for every scheme."""
        m = Mesh2D(4, 4)
        req = MulticastRequest(
            m, (1, 1), tuple(v for v in m.nodes() if v != (1, 1))
        )
        for name, route in routes_for(req).items():
            assert set(route.dest_hops(req.destinations)) == set(req.destinations), name

    def test_corner_source(self):
        m = Mesh2D(6, 6)
        req = MulticastRequest(m, (0, 0), ((5, 5), (5, 0), (0, 5)))
        for name, route in routes_for(req).items():
            route_hops = route.dest_hops(req.destinations)
            assert len(route_hops) == 3, name

    def test_max_label_source_dual_path_goes_low_only(self):
        m = Mesh2D(4, 4)
        from repro.labeling import canonical_labeling

        lab = canonical_labeling(m)
        top = lab.node_of(m.num_nodes - 1)
        req = MulticastRequest(m, top, ((0, 0), (2, 2)))
        star = dual_path_route(req)
        assert len(star.paths) == 1  # everything is in the low network


class TestQuadrantTreeInvariants:
    @given(st.integers(0, 10**9))
    @settings(max_examples=20, deadline=None)
    def test_quadrant_trees_cover_and_stay_shortest(self, seed):
        rng = random.Random(seed)
        m = Mesh2D(7, 5)
        req = random_multicast(m, rng.randrange(1, 12), rng)
        parts = partition_destinations(req.source, req.destinations)
        assert sorted(d for q in QUADRANTS for d in parts[q]) == sorted(req.destinations)
        trees = double_channel_xfirst_route(req)
        assert [q for q, _ in trees] == [q for q in QUADRANTS if parts[q]]
        for q, tree in trees:
            assert set(tree.arcs) <= set(quadrant_channels(m, q))
            # every quadrant destination reached over a shortest path
            tree.validate(
                MulticastRequest(m, req.source, tuple(parts[q])), shortest_paths=True
            )


class TestCycleInvariants:
    @given(st.integers(0, 10**9))
    @settings(max_examples=20, deadline=None)
    def test_cycle_returns_to_source(self, seed):
        rng = random.Random(seed)
        m = Mesh2D(6, 6)
        req = random_multicast(m, rng.randrange(1, 8), rng)
        cyc = sorted_mc_route(req)
        assert cyc.nodes[0] == req.source
        assert m.are_adjacent(cyc.nodes[-1], req.source)
