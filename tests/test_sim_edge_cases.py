"""Edge-case and robustness tests for the simulation stack."""

from __future__ import annotations

import math

import pytest

from repro.sim import (
    Environment,
    Router,
    SimConfig,
    Summary,
    WormholeNetwork,
    batch_means,
    run_dynamic,
    t975,
)
from repro.topology import Hypercube, Mesh2D


class TestSimConfig:
    def test_flit_arithmetic(self):
        cfg = SimConfig(message_bytes=128, flit_bytes=2, bandwidth=20e6)
        assert cfg.flits_per_message == 64
        assert cfg.flit_time == pytest.approx(1e-7)
        assert cfg.message_time == pytest.approx(6.4e-6)

    def test_odd_sized_message_rounds_up(self):
        cfg = SimConfig(message_bytes=129, flit_bytes=2)
        assert cfg.flits_per_message == 65

    def test_tiny_message_one_flit_minimum(self):
        cfg = SimConfig(message_bytes=1, flit_bytes=8)
        assert cfg.flits_per_message == 1

    def test_replace(self):
        cfg = SimConfig().replace(num_messages=7)
        assert cfg.num_messages == 7
        assert cfg.message_bytes == SimConfig().message_bytes


class TestStatsEdgeCases:
    def test_t_table_monotone_decreasing(self):
        values = [t975(df) for df in range(1, 31)]
        assert values == sorted(values, reverse=True)
        assert t975(100) == pytest.approx(1.96)

    def test_t_table_df1(self):
        assert t975(1) == pytest.approx(12.706)
        with pytest.raises(ValueError):
            t975(0)

    def test_batch_means_respects_order(self):
        """A trend across batches widens the CI (batch means detects
        non-stationarity), while the same values shuffled within
        batches do not change the mean."""
        trend = [float(i) for i in range(100)]
        s = batch_means(trend)
        assert s.mean == pytest.approx(49.5)
        assert s.ci_halfwidth > 10

    def test_relative_ci(self):
        s = Summary(10.0, 1.0, 50, 10)
        assert s.relative_ci == pytest.approx(0.1)
        assert "+/-" in str(s)

    def test_zero_mean_relative_ci(self):
        s = Summary(0.0, 1.0, 50, 10)
        assert math.isinf(s.relative_ci)


class TestKernelEdgeCases:
    def test_run_empty_environment(self):
        env = Environment()
        env.run()
        assert env.now == 0.0

    def test_run_until_past_all_events(self):
        env = Environment()
        env.schedule(1.0, lambda: None)
        env.run(until=5.0)
        assert env.now == 5.0

    def test_pending_events(self):
        env = Environment()
        env.schedule(1.0, lambda: None)
        assert env.pending_events == 1
        env.run()
        assert env.pending_events == 0


class TestNetworkEdgeCases:
    def test_empty_path_finishes_immediately(self):
        env = Environment()
        net = WormholeNetwork(env, SimConfig())
        net.inject_path(1, [(0, 0)], set())
        assert net.run_to_completion()
        assert net.deliveries == []

    def test_empty_tree_finishes_immediately(self):
        env = Environment()
        net = WormholeNetwork(env, SimConfig())
        net.inject_tree(1, [], [])
        assert net.run_to_completion()

    def test_channel_reuse_across_messages(self):
        env = Environment()
        net = WormholeNetwork(env, SimConfig())
        nodes = [(0, 0), (1, 0)]
        for mid in range(1, 6):
            net.inject_path(mid, nodes, {(1, 0)})
        assert net.run_to_completion()
        assert len(net.deliveries) == 5
        assert len(net.channels) == 1

    def test_capacity_override_per_channel_key(self):
        env = Environment()
        net = WormholeNetwork(env, SimConfig(channels_per_link=1))
        ch = net.channel(("a", "b"), capacity=3)
        assert ch.capacity == 3
        # the same key returns the same channel
        assert net.channel(("a", "b")) is ch


class TestRunnerEdgeCases:
    def test_warmup_discards_early_messages(self):
        m = Mesh2D(6, 6)
        cfg = SimConfig(num_messages=100, num_destinations=4, warmup_fraction=0.5, seed=1)
        r = run_dynamic(m, "dual-path", cfg)
        assert r.deliveries == 400
        assert r.latency.num_observations <= 200

    def test_zero_warmup_counts_everything(self):
        m = Mesh2D(6, 6)
        cfg = SimConfig(num_messages=50, num_destinations=4, warmup_fraction=0.0, seed=1)
        r = run_dynamic(m, "dual-path", cfg)
        assert r.latency.num_observations == 200

    def test_different_seeds_differ(self):
        m = Mesh2D(8, 8)
        a = run_dynamic(m, "multi-path", SimConfig(num_messages=150, seed=1))
        b = run_dynamic(m, "multi-path", SimConfig(num_messages=150, seed=2))
        assert a.mean_latency != b.mean_latency

    def test_router_reuse_across_runs(self):
        m = Mesh2D(6, 6)
        router = Router(m, "dual-path")
        cfg = SimConfig(num_messages=60, num_destinations=3, seed=5)
        r1 = run_dynamic(m, "dual-path", cfg, router=router)
        r2 = run_dynamic(m, "dual-path", cfg, router=router)
        assert r1.mean_latency == r2.mean_latency

    def test_hypercube_tree_scheme_requires_cube(self):
        m = Mesh2D(4, 4)
        with pytest.raises(TypeError):
            run_dynamic(m, "ecube-tree", SimConfig(num_messages=5, num_destinations=2))

    def test_single_destination_traffic(self):
        h = Hypercube(4)
        cfg = SimConfig(num_messages=100, num_destinations=1, seed=6)
        r = run_dynamic(h, "dual-path", cfg)
        assert r.deliveries == 100
