"""Golden regression tests: exact outputs under fixed seeds.

Every algorithm here is deterministic, so these pins catch *any*
behavioural change — a refactor that silently alters a tie-break or a
timing rule will trip them.  If a change is intentional, update the
constants and record the reason in the commit.
"""

from __future__ import annotations

import random
import statistics

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
from repro.sim import (
    Environment,
    Router,
    SimConfig,
    WormholeNetwork,
    inject_circuit_path,
    inject_vct_path,
    run_dynamic,
    run_mixed,
    run_resilient,
)
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

    @pytest.mark.parametrize("inject,pinned", [
        pytest.param(inject_vct_path,
                     (3.104160000000003e-05, 0.0004167999999999999, 750), id="vct"),
        pytest.param(inject_circuit_path,
                     (0.0002339107999999987, 0.0007539999999999904, 750), id="circuit"),
    ])
    def test_switched_paths_pinned(self, inject, pinned):
        """VCT and circuit-switched dual-path multicasts under heavy
        contention (one every 2 us on a 6x6 mesh, so VCT messages buffer
        and circuit probes wait): mean latency, end time, deliveries."""
        mesh = Mesh2D(6, 6)
        env = Environment()
        net = WormholeNetwork(env, SimConfig())
        router = Router(mesh, "dual-path")
        rng = random.Random(41)
        for mid in range(1, 151):
            for spec in router(random_multicast(mesh, 5, rng)):
                env.schedule(mid * 2e-6, inject, net, mid, spec.nodes, set(spec.destinations))
        assert net.run_to_completion()
        mean = statistics.fmean(d.latency for d in net.deliveries)
        assert (mean, env.now, len(net.deliveries)) == pinned

    @pytest.mark.parametrize("topology,scheme,kw,pinned", [
        pytest.param(
            Mesh2D(8, 8), "vct-tree",
            dict(num_messages=150, num_destinations=6, mean_interarrival=150e-6, seed=31),
            (1.8201396273454823e-05, 0.0013213007248392026, 900),
            id="vct-tree",
        ),
        pytest.param(
            Mesh2D(8, 8), "dual-path-adaptive",
            dict(num_messages=200, num_destinations=6, mean_interarrival=250e-6, seed=33),
            (3.7756267136198926e-05, 0.0019880088600047635, 1200),
            id="dual-path-adaptive",
        ),
        pytest.param(
            Mesh2D(8, 8), "xfirst-tree",
            dict(num_messages=150, num_destinations=6, mean_interarrival=150e-6, seed=35,
                 channels_per_link=2),
            (2.0217805091222736e-05, 0.0010045162831499557, 900),
            id="xfirst-tree-double",
        ),
    ])
    def test_worm_models_pinned(self, topology, scheme, kw, pinned):
        """The VCT tree, the adaptive path and the double-channel
        X-first tree worms, each on the reference engine."""
        r = run_dynamic(topology, scheme, SimConfig(**kw))
        assert (r.mean_latency, r.sim_time, r.deliveries) == pinned

    @pytest.mark.parametrize("topology,scheme,kw,pinned,stats", [
        pytest.param(
            Mesh2D(8, 8), "dual-path-adaptive",
            dict(num_messages=200, num_destinations=6, mean_interarrival=250e-6, seed=33,
                 link_fault_rate=0.05),
            (2.054695898777439e-05, 0.0021627666174863004, 958),
            {"delivered": 958, "dropped": 242, "detoured": 62, "killed_worms": 185,
             "retries": 139, "injection_failures": 0, "link_fault_events": 11,
             "node_fault_events": 0, "repair_events": 0, "engine_counters": None},
            id="dual-path-adaptive-detours",
        ),
        pytest.param(
            Hypercube(6), "ecube-tree",
            dict(num_messages=150, num_destinations=4, mean_interarrival=800e-6, seed=37,
                 link_fault_rate=0.05),
            (6.7918889749336e-06, 0.005846497560173813, 468),
            {"delivered": 468, "dropped": 132, "detoured": 0, "killed_worms": 132,
             "retries": 99, "injection_failures": 0, "link_fault_events": 19,
             "node_fault_events": 0, "repair_events": 0, "engine_counters": None},
            id="ecube-tree-killed",
        ),
    ])
    def test_fault_aware_worms_pinned(self, topology, scheme, kw, pinned, stats):
        """Fault-aware worms with faults firing: adaptive detours in
        flight, and lockstep trees killed by a faulted channel."""
        r = run_resilient(topology, scheme, SimConfig(**kw))
        assert (r.mean_latency, r.sim_time, r.deliveries) == pinned
        assert r.stats.to_dict() == stats
