"""Tests for unicast routing CDGs (Fig. 2.5) and the synthetic
workload pattern library."""

from __future__ import annotations

import random

import pytest

from repro.labeling import canonical_labeling
from repro.topology import Hypercube, Mesh2D
from repro.workloads import PATTERNS, bit_reversal, broadcast, local, subcube, transpose, uniform
from repro.wormhole import is_acyclic
from repro.wormhole.unicast import (
    ecube_next_hop,
    label_next_hop,
    unicast_cdg,
    xfirst_next_hop,
    yfirst_then_x_then_y_next_hop,
)


class TestUnicastRouting:
    def test_xfirst_path_order(self):
        m = Mesh2D(4, 4)
        u, dest = (0, 0), (2, 3)
        hops = []
        while u != dest:
            u = xfirst_next_hop(m, u, dest)
            hops.append(u)
        assert hops == [(1, 0), (2, 0), (2, 1), (2, 2), (2, 3)]

    def test_ecube_corrects_low_bits_first(self):
        h = Hypercube(4)
        assert ecube_next_hop(h, 0b0000, 0b1010) == 0b0010
        assert ecube_next_hop(h, 0b0010, 0b1010) == 0b1010
        assert ecube_next_hop(h, 0b1010, 0b1010) is None

    def test_fig_2_5_xfirst_cdg_acyclic(self):
        """Fig. 2.5: the X-first routing CDG has no cycle."""
        for dims in [(3, 3), (4, 3), (5, 5)]:
            edges = unicast_cdg(Mesh2D(*dims), xfirst_next_hop)
            assert is_acyclic(edges)

    def test_ecube_cdg_acyclic(self):
        for n in (2, 3, 4):
            assert is_acyclic(unicast_cdg(Hypercube(n), ecube_next_hop))

    def test_label_routing_cdg_acyclic(self):
        m = Mesh2D(4, 4)
        lab = canonical_labeling(m)
        assert is_acyclic(unicast_cdg(m, label_next_hop(lab)))

    def test_mixed_turn_routing_cdg_cyclic(self):
        """The deliberately turn-mixing routing creates a CDG cycle —
        the analysis distinguishes safe from unsafe unicast routing."""
        edges = unicast_cdg(Mesh2D(4, 4), yfirst_then_x_then_y_next_hop)
        assert not is_acyclic(edges)

    def test_routes_are_shortest(self):
        m = Mesh2D(5, 4)
        rng = random.Random(0)
        nodes = list(m.nodes())
        for _ in range(50):
            start, dest = rng.sample(nodes, 2)
            u, steps = start, 0
            while u != dest:
                u = xfirst_next_hop(m, u, dest)
                steps += 1
            assert steps == m.distance(start, dest)


class TestWorkloadPatterns:
    def setup_method(self):
        self.mesh = Mesh2D(8, 8)
        self.cube = Hypercube(6)
        self.rng = random.Random(42)

    def test_uniform_counts(self):
        req = uniform(self.mesh, (0, 0), 10, self.rng)
        assert req.k == 10

    def test_uniform_rejects_more_destinations_than_other_nodes(self):
        # a 2x2 mesh has 3 nodes besides the source, so rejection
        # sampling could never draw 4 distinct destinations
        assert uniform(Mesh2D(2, 2), (0, 0), 3, self.rng).k == 3
        with pytest.raises(ValueError, match="k must be in"):
            uniform(Mesh2D(2, 2), (0, 0), 4, self.rng)

    def test_local_radius(self):
        req = local(self.mesh, (4, 4), 6, self.rng, radius=2)
        assert all(self.mesh.distance((4, 4), d) <= 2 for d in req.destinations)

    def test_local_radius_too_small(self):
        with pytest.raises(ValueError):
            local(self.mesh, (0, 0), 50, self.rng, radius=1)

    def test_subcube_hypercube_is_subcube(self):
        req = subcube(self.cube, 0b101010, 7, self.rng)
        members = {req.source, *req.destinations}
        assert len(members) == 8
        # all members agree outside exactly 3 free dimensions
        varying = 0
        for bit in range(self.cube.n):
            values = {(m >> bit) & 1 for m in members}
            if len(values) > 1:
                varying += 1
        assert varying == 3

    def test_submesh_pattern(self):
        req = subcube(self.mesh, (6, 6), 8, self.rng)
        xs = {d[0] for d in req.destinations} | {6}
        ys = {d[1] for d in req.destinations} | {6}
        assert max(xs) - min(xs) <= 2 and max(ys) - min(ys) <= 2
        assert req.k == 8

    def test_transpose_mesh(self):
        req = transpose(self.mesh, (1, 6), 5, self.rng)
        center = (6, 1)
        assert any(self.mesh.distance(center, d) <= 3 for d in req.destinations)

    def test_transpose_needs_square(self):
        with pytest.raises(TypeError):
            transpose(Mesh2D(4, 3), (0, 0), 3, self.rng)

    def test_bit_reversal_cube(self):
        req = bit_reversal(self.cube, 0b000001, 4, self.rng)
        assert req.k == 4

    def test_broadcast_covers_all(self):
        req = broadcast(self.mesh, (3, 3), 0, self.rng)
        assert req.k == self.mesh.num_nodes - 1

    def test_all_patterns_route_cleanly(self):
        """Every pattern produces requests that every star scheme can
        serve on meshes and hypercubes."""
        from repro.wormhole import dual_path_route, multi_path_route

        for topo, source in ((self.mesh, (2, 3)), (self.cube, 0b010101)):
            for name, pattern in PATTERNS.items():
                if name == "transpose" and isinstance(topo, Mesh2D) and topo.width != topo.height:
                    continue
                req = pattern(topo, source, 6, self.rng)
                dual_path_route(req).validate(req)
                multi_path_route(req).validate(req)

    def test_patterns_deterministic_given_seed(self):
        a = uniform(self.mesh, (0, 0), 8, random.Random(7))
        b = uniform(self.mesh, (0, 0), 8, random.Random(7))
        assert a.destinations == b.destinations
