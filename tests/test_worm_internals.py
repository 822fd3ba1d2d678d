"""Surgical tests for worm/packet internals: blocking corner cases,
retry paths, and drain edge cases across the switching substrates."""

from __future__ import annotations

import pytest

from repro.labeling import canonical_labeling
from repro.sim import Environment, SAFNetwork, SimConfig, WormholeNetwork
from repro.sim.circuit import inject_circuit_path
from repro.sim.vct import inject_vct_path
from repro.topology import Mesh2D


def line(n, row=0):
    return [(i, row) for i in range(n)]


def make():
    env = Environment()
    cfg = SimConfig()
    return env, WormholeNetwork(env, cfg), cfg


class TestPathWormBlocking:
    def test_block_at_source_holds_nothing(self):
        env, net, cfg = make()
        nodes = line(4)
        net.inject_path(1, nodes, {nodes[-1]})
        net.inject_path(2, nodes, {nodes[-1]})
        # after the first acquisition instant, worm 2 is queued on the
        # first channel and holds zero channels
        env.run(until=cfg.flit_time / 2)
        total_held = sum(c.in_use for c in net.channels.values())
        assert total_held <= len(nodes) - 1
        first = net.channels[((0, 0), (1, 0))]
        assert len(first.waiters) == 1
        assert net.run_to_completion()

    def test_mid_path_block_holds_prefix(self):
        env, net, cfg = make()
        # blocker owns channel (2,0)->(3,0) for a long time
        net.inject_path(9, [(2, 0), (3, 0)], {(3, 0)})
        net.inject_path(1, line(6), {(5, 0)})
        env.run(until=3 * cfg.flit_time)
        # worm 1 should hold its first two channels while waiting
        held = {k for k, c in net.channels.items() if c.in_use}
        assert ((0, 0), (1, 0)) in held and ((1, 0), (2, 0)) in held
        assert net.run_to_completion()

    def test_three_deep_queue_drains_in_order(self):
        env, net, cfg = make()
        nodes = line(3)
        for mid in (1, 2, 3):
            net.inject_path(mid, nodes, {nodes[-1]})
        assert net.run_to_completion()
        order = [d.message_id for d in net.deliveries]
        assert order == [1, 2, 3]


class TestVCTEdgeCases:
    def test_block_at_source_no_segment_drain(self):
        env, net, cfg = make()
        nodes = line(4)
        net.inject_path(9, [(0, 0), (1, 0)], {(1, 0)})
        inject_vct_path(net, 1, nodes, {nodes[-1]})
        assert net.run_to_completion()
        assert {d.destination for d in net.deliveries} == {(1, 0), (3, 0)}

    def test_double_block_two_drains(self):
        env, net, cfg = make()
        nodes = line(7)
        # two long-lived blockers at different depths
        net.inject_path(8, [(2, 0), (3, 0)], {(3, 0)})
        net.inject_path(9, [(5, 0), (6, 0)], {(6, 0)})
        inject_vct_path(net, 1, nodes, {nodes[-1]})
        assert net.run_to_completion()
        assert all(c.in_use == 0 for c in net.channels.values())
        final = [d for d in net.deliveries if d.message_id == 1]
        assert len(final) == 1

    def test_vct_latency_no_worse_than_double_saf(self):
        """Even fully buffered at every hop, a VCT message costs about
        one message time per hop — never more than SAF-like behaviour."""
        env, net, cfg = make()
        nodes = line(5)
        inject_vct_path(net, 1, nodes, {nodes[-1]})
        net.run_to_completion()
        (d,) = net.deliveries
        assert d.latency <= 4 * cfg.message_time


class TestCircuitEdgeCases:
    def test_probe_blocks_holding_partial_circuit(self):
        env, net, cfg = make()
        net.inject_path(9, [(3, 0), (4, 0)], {(4, 0)})
        inject_circuit_path(net, 1, line(6), {(5, 0)})
        env.run(until=4 * cfg.flit_time)
        held = {k for k, c in net.channels.items() if c.in_use}
        # the probe reserved everything up to the blocker
        assert ((0, 0), (1, 0)) in held and ((2, 0), (3, 0)) in held
        assert net.run_to_completion()

    def test_empty_circuit(self):
        env, net, cfg = make()
        inject_circuit_path(net, 1, [(0, 0)], set())
        assert net.run_to_completion()


class TestWormCounts:
    """Every injector launches its worm through one step, which
    counts it in ``total_worms`` as well as ``active_worms``."""

    @pytest.mark.parametrize("inject", [inject_vct_path, inject_circuit_path],
                             ids=["vct", "circuit"])
    def test_standalone_injectors_count_their_worm(self, inject):
        env, net, cfg = make()
        inject(net, 1, line(4), {(3, 0)})
        inject(net, 2, line(4, row=1), {(3, 1)})
        assert (net.total_worms, net.active_worms) == (2, 2)
        assert net.run_to_completion()
        assert (net.total_worms, net.active_worms) == (2, 0)


class TestAdaptiveInternals:
    def test_adaptive_detours_around_busy_channel(self):
        env, net, cfg = make()
        mesh = Mesh2D(4, 4)
        lab = canonical_labeling(mesh)
        # occupy the deterministic first-choice channel from (0,0) to (1,1):
        # R would go (0,0)->(1,0) (label 1)
        net.inject_path(9, [(0, 0), (1, 0)], {(1, 0)})
        worm = net.inject_adaptive_path(1, (0, 0), [(1, 1)], lab)
        assert net.run_to_completion()
        # the adaptive worm either waited or detoured via (0,1); its
        # recorded node path is label-monotone either way
        labels = [lab.label(v) for v in worm.nodes]
        assert labels == sorted(labels)
        assert worm.nodes[-1] == (1, 1)

    def test_adaptive_blocks_when_no_candidate_free(self):
        env, net, cfg = make()
        mesh = Mesh2D(4, 4)
        lab = canonical_labeling(mesh)
        # from (0,0) toward (3,0) the only monotone profitable channel is
        # (0,0)->(1,0); occupy it and confirm the worm waits, then goes.
        net.inject_path(9, [(0, 0), (1, 0)], {(1, 0)})
        net.inject_adaptive_path(1, (0, 0), [(3, 0)], lab)
        assert net.run_to_completion()
        arrival = [d for d in net.deliveries if d.message_id == 1]
        blocker = [d for d in net.deliveries if d.message_id == 9]
        assert arrival[0].delivered_at > blocker[0].delivered_at


class TestSAFInternals:
    def test_structured_buffer_classes_isolated(self):
        env = Environment()
        net = SAFNetwork(env, SimConfig(), buffers_per_node=1, structured=True)
        # two packets passing through the same node with DIFFERENT
        # hops-remaining use different buffer classes: no contention
        net.inject(1, line(4))           # at (1,0): 2 remaining
        net.inject(2, [(0, 0), (1, 0), (2, 0)])  # at (1,0): 1 remaining
        assert net.run_to_completion()
        assert len(net.deliveries) == 2

    def test_unstructured_pool_contention(self):
        env = Environment()
        net = SAFNetwork(env, SimConfig(), buffers_per_node=1, structured=False)
        net.inject(1, line(4))
        net.inject(2, [(0, 1), (1, 1), (1, 0), (2, 0), (3, 0)])
        assert net.run_to_completion()

    def test_multicast_delivery_at_intermediate(self):
        env = Environment()
        net = SAFNetwork(env, SimConfig(), buffers_per_node=3)
        nodes = line(5)
        net.inject(1, nodes, destinations={nodes[2], nodes[4]})
        assert net.run_to_completion()
        assert {d.destination for d in net.deliveries} == {nodes[2], nodes[4]}
        t2, t4 = sorted(d.delivered_at for d in net.deliveries)
        assert t2 < t4
