"""Golden regression tests: exact outputs under fixed seeds.

Every algorithm here is deterministic, so these pins catch *any*
behavioural change — a refactor that silently alters a tie-break or a
timing rule will trip them.  If a change is intentional, update the
constants and record the reason in the commit.
"""

from __future__ import annotations

import random

import pytest

from repro.heuristics import (
    divided_greedy_route,
    greedy_st_route,
    kmb_route,
    len_route,
    multiple_unicast_route,
    sorted_mc_route,
    sorted_mp_route,
    xfirst_route,
)
from repro.models import random_multicast
from repro.sim import SimConfig, run_dynamic, run_mixed
from repro.topology import Hypercube, Mesh2D
from repro.wormhole import dual_path_route, fixed_path_route, multi_path_route

MESH_GOLDEN = {
    "sorted-mp": 39,
    "sorted-mc": 42,
    "greedy-st": 21,
    "xfirst": 29,
    "divided-greedy": 26,
    "kmb": 22,
    "multi-unicast": 43,
    "dual-path": 30,
    "multi-path": 29,
    "fixed-path": 54,
}

CUBE_GOLDEN = {
    "sorted-mp": 28,
    "greedy-st": 14,
    "len": 15,
    "dual-path": 20,
    "multi-path": 22,
}


def mesh_request():
    return random_multicast(Mesh2D(8, 8), 8, random.Random(12345))


def cube_request():
    return random_multicast(Hypercube(6), 8, random.Random(999))


class TestGoldenWorkload:
    def test_workload_is_stable(self):
        req = mesh_request()
        assert req.source == (5, 6)
        assert req.destinations == (
            (1, 0), (7, 1), (4, 2), (0, 3), (2, 4), (6, 4), (7, 5), (7, 6),
        )
        assert cube_request().destinations == (12, 16, 19, 24, 33, 40, 61, 62)


MESH_ALGOS = {
    "sorted-mp": sorted_mp_route,
    "sorted-mc": sorted_mc_route,
    "greedy-st": greedy_st_route,
    "xfirst": xfirst_route,
    "divided-greedy": divided_greedy_route,
    "kmb": kmb_route,
    "multi-unicast": multiple_unicast_route,
    "dual-path": dual_path_route,
    "multi-path": multi_path_route,
    "fixed-path": fixed_path_route,
}

CUBE_ALGOS = {
    "sorted-mp": sorted_mp_route,
    "greedy-st": greedy_st_route,
    "len": len_route,
    "dual-path": dual_path_route,
    "multi-path": multi_path_route,
}


class TestGoldenTraffic:
    @pytest.mark.parametrize("name", sorted(MESH_GOLDEN))
    def test_mesh_traffic(self, name):
        assert MESH_ALGOS[name](mesh_request()).traffic == MESH_GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(CUBE_GOLDEN))
    def test_cube_traffic(self, name):
        assert CUBE_ALGOS[name](cube_request()).traffic == CUBE_GOLDEN[name]


class TestGoldenDynamics:
    def test_dynamic_latency_pinned(self):
        """The full simulator pipeline (routing, injection timing, worm
        mechanics, batch means) reproduced to the microsecond."""
        r = run_dynamic(
            Mesh2D(8, 8),
            "dual-path",
            SimConfig(num_messages=100, num_destinations=5, seed=77),
        )
        assert r.mean_latency * 1e6 == pytest.approx(12.8015, abs=1e-3)
        assert r.sim_time * 1e6 == pytest.approx(3149.968, abs=1e-2)
        assert r.deliveries == 500

    def test_mixed_latency_pinned(self):
        """The unicast/multicast mix (§8.2): the shared arrival process,
        the unicast/multicast coin and both destination draws, pinned
        exactly."""
        r = run_mixed(
            Mesh2D(6, 6),
            "multi-path",
            SimConfig(num_messages=200, num_destinations=5,
                      mean_interarrival=200e-6, seed=29),
            unicast_fraction=0.3,
        )
        assert r.unicast_latency.mean == 9.079030119759204e-06
        assert r.unicast_latency.num_observations == 57
        assert r.multicast_latency.mean == 9.281851198334145e-06
        assert r.multicast_latency.num_observations == 615
        assert r.sim_time == 0.0020477368623549735
        assert r.injected_messages == 200
