"""Integration tests for the dynamic study driver (§7.2): the
simulation reproduces the dissertation's qualitative results."""

from __future__ import annotations

import pytest

from repro.models import MulticastRequest
from repro.registry import names
from repro.sim import (
    DeadlockDetected,
    InvalidConfigError,
    Router,
    SimConfig,
    batch_means,
    run_dynamic,
    run_mixed,
    run_resilient,
    run_static_scenario,
)
from repro.topology import Hypercube, Mesh2D

MESH = Mesh2D(8, 8)


def quick(**kw):
    base = dict(num_messages=200, seed=3)
    base.update(kw)
    return SimConfig(**base)


class TestBatchMeans:
    def test_constant_series(self):
        s = batch_means([5.0] * 100)
        assert s.mean == 5.0
        assert s.ci_halfwidth == 0.0
        assert s.num_batches == 10

    def test_small_sample_fallback(self):
        s = batch_means([1.0, 2.0, 3.0])
        assert s.num_batches == 1
        assert s.ci_halfwidth == float("inf")

    def test_ci_shrinks_with_more_data(self):
        import random

        rng = random.Random(0)
        small = batch_means([rng.gauss(10, 2) for _ in range(100)])
        large = batch_means([rng.gauss(10, 2) for _ in range(10000)])
        assert large.ci_halfwidth < small.ci_halfwidth

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            batch_means([])


class TestRouterAdapters:
    def test_path_schemes_produce_path_specs(self):
        from repro.sim.traffic import PathSpec

        req = MulticastRequest(MESH, (3, 3), ((0, 0), (7, 7), (5, 1)))
        for scheme in names(worm_style="star"):
            specs = Router(MESH, scheme)(req)
            assert all(isinstance(s, PathSpec) for s in specs)
            covered = set().union(*(s.destinations for s in specs))
            assert covered == set(req.destinations)

    def test_tree_scheme_covers_destinations_once(self):
        from repro.sim.traffic import TreeSpec

        req = MulticastRequest(MESH, (3, 3), ((0, 0), (7, 7), (3, 6), (5, 3)))
        specs = Router(MESH, "tree-xfirst")(req)
        assert all(isinstance(s, TreeSpec) for s in specs)
        covered: list = []
        for s in specs:
            for level in s.dest_levels:
                covered.extend(level)
        assert sorted(covered) == sorted(req.destinations)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            Router(MESH, "magic")


class TestDynamicRuns:
    def test_delivery_count(self):
        cfg = quick(num_destinations=5)
        r = run_dynamic(MESH, "dual-path", cfg)
        assert r.injected_messages == cfg.num_messages
        assert r.deliveries == cfg.num_messages * cfg.num_destinations

    def test_deterministic_given_seed(self):
        cfg = quick()
        a = run_dynamic(MESH, "multi-path", cfg)
        b = run_dynamic(MESH, "multi-path", cfg)
        assert a.mean_latency == b.mean_latency

    def test_latency_above_contention_free_floor(self):
        cfg = quick()
        r = run_dynamic(MESH, "dual-path", cfg)
        floor = (cfg.flits_per_message - 1) * cfg.flit_time
        assert r.mean_latency > floor

    def test_low_load_near_floor(self):
        cfg = quick(mean_interarrival=5000e-6, num_destinations=5)
        r = run_dynamic(MESH, "multi-path", cfg)
        floor = (cfg.flits_per_message - 1) * cfg.flit_time
        assert r.mean_latency < 3 * floor

    def test_latency_grows_with_load(self):
        slow = run_dynamic(MESH, "dual-path", quick(mean_interarrival=2000e-6))
        fast = run_dynamic(MESH, "dual-path", quick(mean_interarrival=120e-6))
        assert fast.mean_latency > slow.mean_latency

    def test_hypercube_dynamic(self):
        cube = Hypercube(6)
        r = run_dynamic(cube, "dual-path", quick(num_destinations=8))
        assert r.deliveries == 200 * 8

    def test_tree_scheme_on_double_channels(self):
        cfg = quick(channels_per_link=2)
        r = run_dynamic(MESH, "tree-xfirst", cfg)
        assert r.deliveries == cfg.num_messages * cfg.num_destinations

    def test_more_destinations_than_other_nodes_rejected(self):
        # a 2x2 mesh has 3 nodes besides the source: every driver
        # refuses 4 destinations, which rejection sampling could never
        # draw
        cfg = SimConfig(num_destinations=4, num_messages=10)
        for run in (run_dynamic, run_resilient, run_mixed):
            with pytest.raises(InvalidConfigError, match="4 destinations"):
                run(Mesh2D(2, 2), "dual-path", cfg)

    def test_sweep_job_rejects_more_destinations_than_other_nodes(self):
        # the sampler's rule, applied when a job is built, so the
        # in-process and the supervised sweep refuse it alike
        from repro.parallel import SweepJob

        cfg = SimConfig(num_destinations=4, num_messages=10)
        for runner in ("dynamic", "resilient"):
            with pytest.raises(InvalidConfigError, match="4 destinations"):
                SweepJob(Mesh2D(2, 2), "dual-path", cfg, runner)
            SweepJob(Mesh2D(2, 2), "dual-path", cfg.replace(num_destinations=3), runner)

    def test_fault_rates_rejected(self):
        # run_dynamic injects no faults: a faulty config must go to
        # run_resilient rather than silently simulate a fault-free run
        from repro.parallel import SweepJob

        for cfg in (quick(link_fault_rate=0.15), quick(node_fault_rate=0.05)):
            with pytest.raises(InvalidConfigError, match="run_resilient"):
                run_dynamic(MESH, "dual-path", cfg)
            with pytest.raises(InvalidConfigError, match="run_resilient"):
                SweepJob(MESH, "dual-path", cfg)
            SweepJob(MESH, "dual-path", cfg, "resilient")


class TestPaperShapes:
    """The qualitative claims of §7.2, at reduced message counts."""

    def test_fig_7_8_tree_saturates_before_paths(self):
        """Under high load on double channels the tree algorithm's
        latency exceeds both path algorithms'."""
        cfg = quick(num_messages=400, channels_per_link=2, mean_interarrival=150e-6, seed=5)
        tree = run_dynamic(MESH, "tree-xfirst", cfg)
        dual = run_dynamic(MESH, "dual-path", cfg)
        multi = run_dynamic(MESH, "multi-path", cfg)
        assert tree.mean_latency > dual.mean_latency
        assert tree.mean_latency > multi.mean_latency

    def test_fig_7_9_tree_degrades_with_destinations(self):
        """Tree latency blows up as the destination set grows; dual-path
        stays comparatively flat."""
        small = quick(num_messages=300, channels_per_link=2, num_destinations=5, seed=5)
        large = small.replace(num_destinations=40)
        tree_ratio = (
            run_dynamic(MESH, "tree-xfirst", large).mean_latency
            / run_dynamic(MESH, "tree-xfirst", small).mean_latency
        )
        dual_ratio = (
            run_dynamic(MESH, "dual-path", large).mean_latency
            / run_dynamic(MESH, "dual-path", small).mean_latency
        )
        assert tree_ratio > 2 * dual_ratio

    def test_fig_7_10_multi_at_most_dual_at_moderate_load(self):
        cfg = quick(num_messages=400, mean_interarrival=200e-6, seed=5)
        multi = run_dynamic(MESH, "multi-path", cfg)
        dual = run_dynamic(MESH, "dual-path", cfg)
        assert multi.mean_latency <= dual.mean_latency * 1.05

    def test_fig_7_11_dual_beats_multi_at_high_load_many_dests(self):
        """The hot-spot effect: multi-path's source node saturates."""
        cfg = quick(num_messages=400, num_destinations=35, mean_interarrival=400e-6, seed=5)
        multi = run_dynamic(MESH, "multi-path", cfg)
        dual = run_dynamic(MESH, "dual-path", cfg)
        assert dual.mean_latency < multi.mean_latency


class TestDeadlockScenarios:
    def test_fig_6_1_two_broadcasts_deadlock(self):
        cube = Hypercube(3)
        reqs = [
            MulticastRequest(cube, 0, tuple(v for v in cube.nodes() if v != 0)),
            MulticastRequest(cube, 1, tuple(v for v in cube.nodes() if v != 1)),
        ]
        res = run_static_scenario(cube, "ecube-tree", reqs)
        assert not res.completed
        assert res.blocked_worms == 2

    def test_fig_6_4_xfirst_multicasts_deadlock(self):
        mesh = Mesh2D(4, 3)
        reqs = [
            MulticastRequest(mesh, (1, 1), ((0, 2), (3, 1))),
            MulticastRequest(mesh, (2, 1), ((0, 1), (3, 0))),
        ]
        res = run_static_scenario(mesh, "xfirst-tree", reqs)
        assert not res.completed

    def test_single_broadcast_completes(self):
        cube = Hypercube(3)
        reqs = [MulticastRequest(cube, 0, tuple(v for v in cube.nodes() if v != 0))]
        res = run_static_scenario(cube, "ecube-tree", reqs)
        assert res.completed and res.deliveries == 7

    def test_same_pattern_deadlock_free_with_path_routing(self):
        """The §6.2.2 fix: the Fig. 6.4 pattern completes under
        dual-path routing on the same single-channel mesh."""
        mesh = Mesh2D(4, 3)
        reqs = [
            MulticastRequest(mesh, (1, 1), ((0, 2), (3, 1))),
            MulticastRequest(mesh, (2, 1), ((0, 1), (3, 0))),
        ]
        res = run_static_scenario(mesh, "dual-path", reqs)
        assert res.completed and res.deliveries == 4

    def test_quadrant_trees_complete_where_single_channel_tree_deadlocks(self):
        """The §6.2.1 fix: double-channel X-first completes on the
        Fig. 6.4 pattern."""
        mesh = Mesh2D(4, 3)
        reqs = [
            MulticastRequest(mesh, (1, 1), ((0, 2), (3, 1))),
            MulticastRequest(mesh, (2, 1), ((0, 1), (3, 0))),
        ]
        res = run_static_scenario(
            mesh, "tree-xfirst", reqs, SimConfig(channels_per_link=2)
        )
        assert res.completed and res.deliveries == 4

    def test_dynamic_ecube_tree_eventually_deadlocks(self):
        """Sustained tree multicast traffic on single channels wedges
        the network — the §6.1 conclusion under load."""
        cube = Hypercube(4)
        cfg = SimConfig(
            num_messages=200, num_destinations=8, mean_interarrival=50e-6, seed=7
        )
        with pytest.raises(DeadlockDetected):
            run_dynamic(cube, "ecube-tree", cfg)
