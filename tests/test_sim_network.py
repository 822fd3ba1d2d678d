"""Tests for the flit-level wormhole network model: uncontended timing,
pipelining, blocking, channel release, and deadlock."""

from __future__ import annotations

import pytest

from repro.sim import Environment, SimConfig, WormholeNetwork


def make_net(**kw):
    cfg = SimConfig(**kw)
    env = Environment()
    return env, WormholeNetwork(env, cfg), cfg


def line_nodes(n):
    return [(i, 0) for i in range(n)]


class TestPathWormTiming:
    def test_uncontended_latency_formula(self):
        """Tail delivery at D*tf + (F-1)*tf: the wormhole pipeline of
        §2.2.4 (header D hops, then the remaining F-1 flits)."""
        env, net, cfg = make_net(message_bytes=128, flit_bytes=2)
        nodes = line_nodes(6)  # D = 5
        net.inject_path(1, nodes, {nodes[-1]})
        assert net.run_to_completion()
        (d,) = net.deliveries
        F, tf, D = cfg.flits_per_message, cfg.flit_time, 5
        assert d.latency == pytest.approx(D * tf + (F - 1) * tf)

    def test_distance_hardly_matters_for_long_messages(self):
        """Fig. 2.3's wormhole property under simulation."""
        lat = {}
        for D in (2, 12):
            env, net, cfg = make_net()
            nodes = line_nodes(D + 1)
            net.inject_path(1, nodes, {nodes[-1]})
            net.run_to_completion()
            lat[D] = net.deliveries[0].latency
        assert lat[12] < 1.2 * lat[2]

    def test_intermediate_destination_delivered_when_tail_passes(self):
        env, net, cfg = make_net()
        nodes = line_nodes(8)
        mid = nodes[3]
        net.inject_path(1, nodes, {mid, nodes[-1]})
        net.run_to_completion()
        by_dest = {d.destination: d for d in net.deliveries}
        assert set(by_dest) == {mid, nodes[-1]}
        F, tf = cfg.flits_per_message, cfg.flit_time
        # the tail flit enters node m at (m + F - 1) flit times
        assert by_dest[mid].latency == pytest.approx((3 + F - 1) * tf)
        assert by_dest[mid].delivered_at < by_dest[nodes[-1]].delivered_at

    def test_short_worm_releases_channels_while_moving(self):
        """With F < D the worm spans only F channels."""
        env, net, cfg = make_net(message_bytes=4, flit_bytes=2)  # F = 2
        nodes = line_nodes(10)
        net.inject_path(1, nodes, {nodes[-1]})

        peak = {"v": 0}

        def monitor():
            peak["v"] = max(peak["v"], sum(c.in_use for c in net.channels.values()))
            if env.pending_events:
                env.schedule(cfg.flit_time / 2, monitor)

        env.schedule(cfg.flit_time / 2, monitor)
        assert net.run_to_completion()
        assert peak["v"] <= cfg.flits_per_message + 1

    def test_all_channels_released_at_end(self):
        env, net, cfg = make_net()
        net.inject_path(1, line_nodes(5), {(4, 0)})
        net.run_to_completion()
        assert all(c.in_use == 0 for c in net.channels.values())


class TestBlocking:
    def test_second_worm_waits_for_shared_channel(self):
        env, net, cfg = make_net()
        nodes = line_nodes(4)
        net.inject_path(1, nodes, {nodes[-1]})
        net.inject_path(2, nodes, {nodes[-1]})
        assert net.run_to_completion()
        first, second = sorted(net.deliveries, key=lambda d: d.delivered_at)
        # the second worm is fully serialised behind the first
        assert second.delivered_at >= first.delivered_at + cfg.flit_time

    def test_disjoint_worms_run_in_parallel(self):
        env, net, cfg = make_net()
        a = [(i, 0) for i in range(4)]
        b = [(i, 1) for i in range(4)]
        net.inject_path(1, a, {a[-1]})
        net.inject_path(2, b, {b[-1]})
        net.run_to_completion()
        t1, t2 = (d.delivered_at for d in net.deliveries)
        assert t1 == pytest.approx(t2)

    def test_fifo_ish_service(self):
        env, net, cfg = make_net()
        nodes = line_nodes(3)
        for mid in (1, 2, 3):
            net.inject_path(mid, nodes, {nodes[-1]})
        net.run_to_completion()
        order = [d.message_id for d in sorted(net.deliveries, key=lambda d: d.delivered_at)]
        assert order == [1, 2, 3]

    def test_double_channel_allows_two_worms(self):
        env, net, cfg = make_net(channels_per_link=2)
        nodes = line_nodes(4)
        net.inject_path(1, nodes, {nodes[-1]}, capacity=2)
        net.inject_path(2, nodes, {nodes[-1]}, capacity=2)
        net.run_to_completion()
        t1, t2 = (d.delivered_at for d in net.deliveries)
        assert t1 == pytest.approx(t2)


class TestTreeWorm:
    def _inject_tree(self, net, levels, dest_levels):
        return net.inject_tree(1, levels, dest_levels)

    def test_uncontended_tree_delivery(self):
        env, net, cfg = make_net()
        # a two-level binary tree rooted at r
        levels = [
            [("r", "a"), ("r", "b")],
            [("a", "a1"), ("b", "b1")],
        ]
        self._inject_tree(net, levels, [set(), {"a1", "b1"}])
        assert net.run_to_completion()
        F, tf = cfg.flits_per_message, cfg.flit_time
        for d in net.deliveries:
            assert d.latency == pytest.approx((2 + F - 1) * tf)

    def test_lockstep_blocks_whole_tree(self):
        """A busy channel on one branch delays delivery on the other."""
        env, net, cfg = make_net()
        blocker_nodes = [("x", 0), ("a", 0)]
        # occupy channel (x->a) with a path worm first
        net.inject_path(9, blocker_nodes, {("a", 0)})
        levels = [
            [("r", ("x", 0)), ("r", "b")],
            [(("x", 0), ("a", 0)), ("b", "b1")],
        ]
        self._inject_tree(net, levels, [set(), {("a", 0), "b1"}])
        assert net.run_to_completion()
        tree_deliveries = [d for d in net.deliveries if d.message_id == 1]
        blocker = next(d for d in net.deliveries if d.message_id == 9)
        for d in tree_deliveries:
            # even the unblocked branch b1 waits for the blocker
            assert d.delivered_at > blocker.delivered_at

    def test_two_trees_deadlock(self):
        """The Fig. 6.2 pattern in miniature: each tree holds a channel
        the other needs for its next level."""
        env, net, cfg = make_net()
        t1_levels = [[("a", "b")], [("b", "c")]]
        t2_levels = [[("b", "c")], [("a", "b")]]
        self._inject_tree(net, t1_levels, [set(), {"c"}])
        net.inject_tree(2, t2_levels, [set(), {"b"}])
        assert not net.run_to_completion()
        assert net.active_worms == 2

    def test_all_channels_released(self):
        env, net, cfg = make_net()
        levels = [[("r", "a")], [("a", "b")], [("b", "c")]]
        self._inject_tree(net, levels, [set(), set(), {"c"}])
        net.run_to_completion()
        assert all(c.in_use == 0 for c in net.channels.values())
