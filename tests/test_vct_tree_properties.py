"""Tests for VCT-tree multicast (ref. [21] style) and the §2.1
topology property profiles."""

from __future__ import annotations

import random

import pytest

from repro.heuristics import xfirst_route
from repro.models import MulticastRequest, random_multicast
from repro.sim import (
    Environment,
    SimConfig,
    WormholeNetwork,
    inject_vct_tree,
    run_dynamic,
    run_static_scenario,
    tree_chains,
)
from repro.topology import Hypercube, KAryNCube, Mesh2D, Mesh3D
from repro.topology.properties import average_distance, bisection_width, profile


class TestTreeChains:
    def test_single_path_is_one_chain(self):
        arcs = [("a", "b"), ("b", "c"), ("c", "d")]
        chains = tree_chains(arcs, "a")
        assert chains == [["a", "b", "c", "d"]]

    def test_branching_splits_chains(self):
        arcs = [("r", "a"), ("r", "b"), ("a", "a1"), ("a", "a2")]
        chains = tree_chains(arcs, "r")
        assert sorted(map(tuple, chains)) == sorted(
            [("r", "a"), ("r", "b"), ("a", "a1"), ("a", "a2")]
        )

    def test_chain_decomposition_covers_all_arcs(self):
        m = Mesh2D(8, 8)
        rng = random.Random(1)
        for _ in range(10):
            req = random_multicast(m, 8, rng)
            tree = xfirst_route(req)
            chains = tree_chains(list(tree.arcs), req.source)
            covered = [
                arc for chain in chains for arc in zip(chain, chain[1:])
            ]
            assert sorted(covered) == sorted(tree.arcs)


class TestVCTTreeMulticast:
    def test_delivers_everything(self):
        m = Mesh2D(8, 8)
        rng = random.Random(2)
        for _ in range(10):
            req = random_multicast(m, 8, rng)
            tree = xfirst_route(req)
            env = Environment()
            net = WormholeNetwork(env, SimConfig())
            inject_vct_tree(net, 1, tree.arcs, req.source, req.destinations)
            assert net.run_to_completion()
            assert {d.destination for d in net.deliveries} == set(req.destinations)

    def test_fig_6_1_scenario_completes(self):
        """The buffered-replication tree does NOT deadlock on the
        Fig. 6.1 pattern — the historically safe design the wormhole
        generation abandoned."""
        cube = Hypercube(3)
        reqs = [
            MulticastRequest(cube, 0, tuple(v for v in cube.nodes() if v != 0)),
            MulticastRequest(cube, 1, tuple(v for v in cube.nodes() if v != 1)),
        ]
        res = run_static_scenario(cube, "vct-tree", reqs)
        assert res.completed
        assert res.deliveries == 14

    def test_fig_6_4_scenario_completes(self):
        mesh = Mesh2D(4, 3)
        reqs = [
            MulticastRequest(mesh, (1, 1), ((0, 2), (3, 1))),
            MulticastRequest(mesh, (2, 1), ((0, 1), (3, 0))),
        ]
        res = run_static_scenario(mesh, "vct-tree", reqs)
        assert res.completed

    def test_dynamic_run(self):
        m = Mesh2D(8, 8)
        cfg = SimConfig(num_messages=200, num_destinations=6, seed=3)
        r = run_dynamic(m, "vct-tree", cfg)
        assert r.deliveries == 200 * 6

    def test_dynamic_run_counts_worms(self):
        # one VCT worm per tree chain, so at least one per message
        r = run_dynamic(Mesh2D(4, 4), "vct-tree", SimConfig(num_messages=50, seed=3))
        assert r.worms >= r.injected_messages == 50

    def test_branch_buffering_adds_latency(self):
        """A destination behind a replication point is delayed by the
        full-message buffering there, unlike a pure path worm."""
        m = Mesh2D(8, 8)
        cfg = SimConfig()
        # tree: source (0,0), branch at (3,0) toward (3,3) and (6,0)
        req = MulticastRequest(m, (0, 0), ((3, 3), (6, 0)))
        tree = xfirst_route(req)
        env = Environment()
        net = WormholeNetwork(env, cfg)
        inject_vct_tree(net, 1, tree.arcs, req.source, req.destinations)
        net.run_to_completion()
        by_dest = {d.destination: d.latency for d in net.deliveries}
        # path-worm floor for (3,3): 6 hops + F-1
        floor = (6 + cfg.flits_per_message - 1) * cfg.flit_time
        assert by_dest[(3, 3)] > floor


class TestTopologyProfiles:
    def test_mesh_profile(self):
        p = profile(Mesh2D(8, 8), "mesh")
        assert p.num_nodes == 64
        assert p.num_links == 112
        assert (p.min_degree, p.max_degree) == (2, 4)
        assert not p.is_regular
        assert p.diameter == 14
        assert p.bisection_width == 8

    def test_cube_profile(self):
        p = profile(Hypercube(6))
        assert p.is_regular and p.max_degree == 6
        assert p.diameter == 6
        assert p.bisection_width == 32
        assert p.average_distance == pytest.approx(3.0476, abs=0.01)

    def test_bisection_widths(self):
        assert bisection_width(Mesh2D(8, 4)) == 4
        assert bisection_width(Mesh3D(4, 4, 4)) == 16
        assert bisection_width(Hypercube(5)) == 16
        assert bisection_width(KAryNCube(8, 2)) == 16

    def test_average_distance_matches_bruteforce(self):
        m = Mesh2D(4, 3)
        nodes = list(m.nodes())
        total = sum(m.distance(u, v) for u in nodes for v in nodes if u != v)
        expected = total / (len(nodes) * (len(nodes) - 1))
        assert average_distance(m) == pytest.approx(expected)

    def test_channel_width_argument(self):
        """§2.1.2: at fixed bisection density the 2D mesh's channels are
        wider than the hypercube's (same N)."""
        mesh = profile(Mesh2D(8, 8))
        cube = profile(Hypercube(6))
        assert (
            mesh.channel_width_at_fixed_bisection_density()
            > cube.channel_width_at_fixed_bisection_density()
        )
