"""Tests for the store-and-forward and virtual cut-through switching
substrates (§2.2, §2.3.4) and the analytic route latency models."""

from __future__ import annotations

import random

import pytest

from repro.metrics import (
    SwitchingParams,
    dest_latencies,
    max_latency,
    mean_latency,
    wormhole_latency,
)
from repro.models import MulticastRequest
from repro.sim import (
    Environment,
    InvalidConfigError,
    SAFNetwork,
    SimConfig,
    WormholeNetwork,
    inject_circuit_path,
    inject_vct_path,
    run_switching,
)
from repro.sim.stats import batch_means
from repro.sim.traffic import Router
from repro.topology import Mesh2D


def line(n):
    return [(i, 0) for i in range(n)]


RING = [(0, 0), (1, 0), (1, 1), (0, 1)]


def ring_route(start: int, hops: int):
    return [RING[(start + i) % 4] for i in range(hops + 1)]


class TestSAFTiming:
    def make(self, **kw):
        env = Environment()
        cfg = SimConfig()
        return env, SAFNetwork(env, cfg, **kw), cfg

    def test_uncontended_latency_linear_in_hops(self):
        """(L/B) * D per route in the network; the paper's (D+1) counts
        the source's own injection transmission."""
        env, net, cfg = self.make(buffers_per_node=4)
        net.inject(1, line(6))  # 5 hops
        assert net.run_to_completion()
        (d,) = net.deliveries
        assert d.latency == pytest.approx(5 * cfg.message_time)

    def test_channel_serialisation(self):
        env, net, cfg = self.make(buffers_per_node=4)
        net.inject(1, line(3))
        net.inject(2, line(3))
        assert net.run_to_completion()
        t1, t2 = sorted(d.delivered_at for d in net.deliveries)
        assert t2 >= t1 + cfg.message_time

    def test_buffer_contention(self):
        """With one shared buffer per node, a second packet cannot enter
        an occupied intermediate node."""
        env, net, cfg = self.make(buffers_per_node=1)
        net.inject(1, line(4))
        net.inject(2, line(4))
        assert net.run_to_completion()
        assert len(net.deliveries) == 2

    def test_fig_2_4_buffer_deadlock(self):
        """Four 3-hop packets chasing each other around a 4-cycle with
        one unrestricted buffer per node deadlock (Fig. 2.4)."""
        env, net, cfg = self.make(buffers_per_node=1, structured=False)
        for i in range(4):
            net.inject(i + 1, ring_route(i, 3))
        assert not net.run_to_completion()
        assert net.active_packets == 4

    def test_structured_pool_breaks_the_deadlock(self):
        """The same workload completes with the structured buffer pool
        (§2.3.4): class-i buffers only hold packets i hops from home."""
        env, net, cfg = self.make(buffers_per_node=1, structured=True)
        for i in range(4):
            net.inject(i + 1, ring_route(i, 3))
        assert net.run_to_completion()
        assert len(net.deliveries) == 4

    def test_rejects_trivial_route(self):
        env, net, cfg = self.make()
        with pytest.raises(ValueError):
            net.inject(1, [(0, 0)])


class TestVCT:
    def make(self):
        env = Environment()
        cfg = SimConfig()
        return env, WormholeNetwork(env, cfg), cfg

    def test_uncontended_matches_wormhole(self):
        env, net, cfg = self.make()
        nodes = line(6)
        inject_vct_path(net, 1, nodes, {nodes[-1]})
        assert net.run_to_completion()
        (d,) = net.deliveries
        F, tf = cfg.flits_per_message, cfg.flit_time
        assert d.latency == pytest.approx(5 * tf + (F - 1) * tf)

    def test_intermediate_destination(self):
        env, net, cfg = self.make()
        nodes = line(8)
        inject_vct_path(net, 1, nodes, {nodes[3], nodes[-1]})
        net.run_to_completion()
        assert {d.destination for d in net.deliveries} == {nodes[3], nodes[-1]}

    def test_blocked_vct_releases_channels(self):
        """The defining VCT behaviour: a blocked message drains into the
        local buffer and frees the channels behind it, letting other
        traffic through — a wormhole worm would keep holding them."""
        env, net, cfg = self.make()
        nodes = line(6)
        # a long-lived blocker on the LAST channel only
        blocker = [(4, 0), (5, 0)]
        net.inject_path(9, blocker, {(5, 0)})
        inject_vct_path(net, 1, nodes, {nodes[-1]})
        # a third message crossing an EARLY channel of the VCT route
        cross = [(1, 0), (2, 0)]

        released_time = {}

        def probe():
            ch = net.channels.get(((1, 0), (2, 0)))
            if ch is not None and ch.in_use == 0 and 1 not in released_time:
                released_time[1] = env.now
            if env.pending_events:
                env.schedule(cfg.flit_time, probe)

        env.schedule(cfg.flit_time, probe)
        assert net.run_to_completion()
        # the early channel was freed well before the blocked delivery
        final = max(d.delivered_at for d in net.deliveries if d.message_id == 1)
        assert released_time[1] < final

    def test_all_channels_released(self):
        env, net, cfg = self.make()
        nodes = line(5)
        net.inject_path(9, [(3, 0), (4, 0)], {(4, 0)})
        inject_vct_path(net, 1, nodes, {nodes[-1]})
        assert net.run_to_completion()
        assert all(c.in_use == 0 for c in net.channels.values())


class TestOneFlitConvention:
    """EXPERIMENTS.md known deviation 7: a destination latches its copy
    as the tail flit *enters* it, (D + F - 1) t_f after injection, one
    flit time under the §2.2.4 formula (L_f/B) D + L/B = (D + F) t_f
    behind Fig. 2.3.  Both pipelined switching models keep it, with the
    worm longer and shorter than its path."""

    @pytest.mark.parametrize("D", [1, 2, 5, 13, 80])
    @pytest.mark.parametrize("inject", [WormholeNetwork.inject_path, inject_vct_path],
                             ids=["wormhole", "vct"])
    def test_lone_worm_delivers_one_flit_early(self, inject, D):
        env = Environment()
        cfg = SimConfig()
        net = WormholeNetwork(env, cfg)
        nodes = line(D + 1)
        inject(net, 1, nodes, {nodes[-1]})
        assert net.run_to_completion()
        (d,) = net.deliveries
        assert d.latency == pytest.approx(wormhole_latency(D) - cfg.flit_time)


class TestRouteLatencyModels:
    def setup_method(self):
        self.mesh = Mesh2D(8, 8)
        self.req = MulticastRequest(self.mesh, (0, 0), ((7, 0), (0, 7), (3, 3)))
        self.params = SwitchingParams()

    def test_saf_penalises_hops(self):
        from repro.heuristics import sorted_mp_route, xfirst_route

        path = sorted_mp_route(self.req)
        tree = xfirst_route(self.req)
        # the MT model (shortest hops) beats the MP model under SAF
        assert mean_latency(tree, self.req, "store-and-forward") < mean_latency(
            path, self.req, "store-and-forward"
        )

    def test_wormhole_shrinks_the_gap(self):
        """Chapter 3's argument: under wormhole switching the path
        model's longer distances barely matter."""
        from repro.heuristics import sorted_mp_route, xfirst_route

        path = sorted_mp_route(self.req)
        tree = xfirst_route(self.req)
        gap_saf = mean_latency(path, self.req, "store-and-forward") / mean_latency(
            tree, self.req, "store-and-forward"
        )
        gap_wh = mean_latency(path, self.req, "wormhole") / mean_latency(
            tree, self.req, "wormhole"
        )
        assert gap_wh < gap_saf

    def test_dest_latencies_keys(self):
        from repro.heuristics import xfirst_route

        lat = dest_latencies(xfirst_route(self.req), self.req, "wormhole")
        assert set(lat) == set(self.req.destinations)
        assert max_latency(xfirst_route(self.req), self.req, "wormhole") == max(
            lat.values()
        )

    def test_unknown_model_rejected(self):
        from repro.heuristics import xfirst_route

        with pytest.raises(KeyError):
            dest_latencies(xfirst_route(self.req), self.req, "smoke-signals")


# ----------------------------------------------------------------------
# run_switching against the hand-written arrival loop it replaced: the
# loop of benchmarks/bench_ablation_switching.py, kept verbatim (the
# randrange destination draw included) as the oracle.
# ----------------------------------------------------------------------


def _drive(mesh, cfg, inject):
    """Generate the identical Poisson dual-path workload and hand each
    (message, path, dests) to ``inject``."""
    rng = random.Random(cfg.seed)
    router = Router(mesh, "dual-path")
    env = inject.env
    nodes = list(mesh.nodes())
    n = len(nodes)
    state = {"injected": 0}

    def emit(node):
        if state["injected"] >= cfg.num_messages:
            return
        state["injected"] += 1
        mid = state["injected"]
        chosen: set = set()
        src_i = mesh.index(node)
        while len(chosen) < cfg.num_destinations:
            i = rng.randrange(n)
            if i != src_i:
                chosen.add(i)
        from repro.models import MulticastRequest

        req = MulticastRequest(mesh, node, tuple(mesh.node_at(i) for i in sorted(chosen)))
        for spec in router(req):
            inject(mid, spec.nodes, set(spec.destinations))
        env.schedule(rng.expovariate(1.0 / cfg.mean_interarrival), emit, node)

    for node in nodes:
        env.schedule(rng.expovariate(1.0 / cfg.mean_interarrival), emit, node)


def _hand_written_switching(mesh, cfg) -> dict:
    out = {}
    for tech in ("wormhole", "vct", "circuit", "saf"):
        env = Environment()
        if tech == "saf":
            net = SAFNetwork(env, cfg, buffers_per_node=4, structured=True)

            def inject(mid, nodes, dests, net=net):
                net.inject(mid, nodes, dests)

        else:
            net = WormholeNetwork(env, cfg)
            if tech == "wormhole":

                def inject(mid, nodes, dests, net=net):
                    net.inject_path(mid, nodes, dests)

            elif tech == "circuit":

                def inject(mid, nodes, dests, net=net):
                    inject_circuit_path(net, mid, nodes, dests)

            else:

                def inject(mid, nodes, dests, net=net):
                    inject_vct_path(net, mid, nodes, dests)

        inject.env = env
        _drive(mesh, cfg, inject)
        assert net.run_to_completion(), f"{tech} wedged"
        cutoff = cfg.num_messages * cfg.warmup_fraction
        out[tech] = batch_means(
            [d.latency for d in net.deliveries if d.message_id > cutoff]
        )
    return out


class TestRunSwitching:
    @pytest.mark.parametrize("interarrival_us", [2000, 60])
    def test_matches_the_hand_written_loop(self, interarrival_us):
        """Every technology's summary equals the old loop's, to the
        float, at light load and deep in contention."""
        mesh = Mesh2D(4, 4)
        cfg = SimConfig(
            num_messages=120, num_destinations=4,
            mean_interarrival=interarrival_us * 1e-6, seed=51,
        )
        assert run_switching(mesh, "dual-path", cfg) == _hand_written_switching(mesh, cfg)

    def test_refuses_tree_worms_and_faults(self):
        cfg = SimConfig(num_messages=10)
        with pytest.raises(InvalidConfigError, match="path worms"):
            run_switching(Mesh2D(4, 4), "xfirst-tree", cfg)
        with pytest.raises(InvalidConfigError, match="run_resilient"):
            run_switching(Mesh2D(4, 4), "dual-path", cfg.replace(link_fault_rate=0.1))
