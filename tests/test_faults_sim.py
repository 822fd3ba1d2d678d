"""Tests for the fault-injection subsystem: fault plans, the
fault-aware simulator, resilient delivery, the registry's
``fault_tolerant`` capability, and the fault-aware networks as exact
twins of the plain ones when no fault fires."""

from __future__ import annotations

import json

import pytest

from repro import registry
from repro.models.request import MulticastRequest
from repro.parallel import SweepJob
from repro.sim import (
    DeadlockDetected,
    Environment,
    FaultEvent,
    FaultPlan,
    FaultState,
    FaultyWormholeNetwork,
    InvalidConfigError,
    Router,
    SimConfig,
    SimStats,
    WormholeNetwork,
    derive_fault_seed,
    inject_specs,
    run_dynamic,
    run_resilient,
)
from repro.topology import Hypercube, Mesh2D

MESH = Mesh2D(6, 6)
SMALL = Mesh2D(4, 4)
CFG = SimConfig(num_messages=300, seed=7)


class TestZeroRateParity:
    """The acceptance criterion: with no faults configured, the
    fault-aware driver reproduces :func:`run_dynamic` exactly."""

    @pytest.mark.parametrize(
        "scheme", ["dual-path", "fixed-path", "multi-path", "dual-path-adaptive"]
    )
    def test_mesh_parity(self, scheme):
        a = run_dynamic(MESH, scheme, CFG)
        b = run_resilient(MESH, scheme, CFG)
        assert b.deliveries == a.deliveries
        assert b.latency == a.latency  # identical Summary, not just close
        assert b.sim_time == a.sim_time
        assert b.worms == a.worms
        assert b.injected_messages == a.injected_messages

    def test_hypercube_parity(self):
        cfg = SimConfig(num_messages=200, seed=3, num_destinations=4)
        cube = Hypercube(4)
        a = run_dynamic(cube, "dual-path", cfg)
        b = run_resilient(cube, "dual-path", cfg)
        assert (a.deliveries, a.latency, a.sim_time) == (
            b.deliveries,
            b.latency,
            b.sim_time,
        )

    def test_zero_rate_counters_clean(self):
        r = run_resilient(MESH, "dual-path", CFG)
        s = r.stats
        assert s.delivered == r.deliveries
        assert s.dropped == 0
        assert s.killed_worms == 0
        assert s.retries == 0
        assert s.link_fault_events == 0
        assert r.delivery_ratio == 1.0
        assert r.expected_deliveries == r.deliveries


class TestFaultPlan:
    def test_deterministic_in_seed(self):
        a = FaultPlan.sample(MESH, link_rate=0.1, horizon=1.0, seed=5)
        b = FaultPlan.sample(MESH, link_rate=0.1, horizon=1.0, seed=5)
        c = FaultPlan.sample(MESH, link_rate=0.1, horizon=1.0, seed=6)
        assert a == b
        assert a != c
        assert a.events  # 10% of 120 directed channels -> 12 failures

    def test_events_sorted_and_within_horizon(self):
        plan = FaultPlan.sample(
            MESH, link_rate=0.2, node_rate=0.1, horizon=2.0, seed=9
        )
        times = [ev.time for ev in plan.events]
        assert times == sorted(times)
        downs = [ev for ev in plan.events if ev.down]
        assert all(ev.time < 2.0 for ev in downs)
        kinds = {ev.kind for ev in plan.events}
        assert kinds == {"link", "node"}

    def test_permanent_faults_have_no_repairs(self):
        plan = FaultPlan.sample(MESH, link_rate=0.1, horizon=1.0, seed=5, mttr=0.0)
        assert all(ev.down for ev in plan.events)

    def test_transient_faults_repair(self):
        plan = FaultPlan.sample(
            MESH, link_rate=0.1, horizon=1.0, seed=5, mtbf=0.3, mttr=0.1
        )
        assert any(not ev.down for ev in plan.events)
        # every failure of an element is eventually followed by a repair
        state: dict = {}
        for ev in plan.events:
            assert state.get(ev.target) != ev.down  # no double-fail/double-fix
            state[ev.target] = ev.down

    def test_json_round_trip_mesh(self):
        """A stored fault scenario reloads bit-identically — including
        the tuple-shaped node and ``((x, y), (x, y))`` link targets
        that JSON flattens to arrays."""
        plan = FaultPlan.sample(
            MESH, link_rate=0.2, node_rate=0.1, horizon=1.0, seed=9,
            mtbf=0.3, mttr=0.1,
        )
        assert plan.events  # a vacuous round trip proves nothing
        wire = json.loads(json.dumps(plan.to_json()))
        assert FaultPlan.from_json(wire) == plan

    def test_json_round_trip_hypercube_int_nodes(self):
        plan = FaultPlan.sample(
            Hypercube(4), link_rate=0.1, node_rate=0.2, horizon=0.5, seed=3
        )
        restored = FaultPlan.from_json(json.loads(json.dumps(plan.to_json())))
        assert restored == plan
        # int node targets stay ints, link targets stay int pairs
        assert {type(ev.target) for ev in restored.events if ev.kind == "node"} == {int}

    def test_json_round_trip_empty_plan(self):
        assert FaultPlan.from_json(FaultPlan().to_json()) == FaultPlan()

    def test_from_config_empty_without_rates(self):
        assert FaultPlan.from_config(MESH, CFG) == FaultPlan()

    def test_from_config_uses_independent_seed(self):
        cfg = CFG.replace(link_fault_rate=0.1)
        plan = FaultPlan.from_config(MESH, cfg)
        assert plan.events
        explicit = FaultPlan.from_config(MESH, cfg.replace(fault_seed=123))
        assert explicit != plan
        assert derive_fault_seed(CFG.seed) != CFG.seed


class TestFaultState:
    def test_channel_and_node_queries(self):
        state = FaultState()
        assert not state.any_down
        assert not state.channel_down(((0, 0), (1, 0)))
        state.down_links.add(((0, 0), (1, 0)))
        assert state.channel_down(((0, 0), (1, 0)))
        assert state.channel_down(((0, 0), (1, 0), "plane-2"))  # tagged keys
        assert not state.channel_down(((1, 0), (0, 0)))  # directed
        state.down_nodes.add((2, 2))
        assert state.channel_down(((2, 2), (2, 3)))
        assert state.channel_down(((2, 3), (2, 2)))
        assert state.node_down((2, 2))

    def test_blocked_links_covers_node_incidence(self):
        state = FaultState()
        state.down_nodes.add((1, 1))
        state.version += 1
        blocked = state.blocked_links(SMALL)
        for nbr in SMALL.neighbors((1, 1)):
            assert ((1, 1), nbr) in blocked
            assert (nbr, (1, 1)) in blocked
        assert state.blocked_links(SMALL) is blocked  # cached per version


class TestFaultedRuns:
    def test_deterministic_link_kill(self):
        """A single permanent time-0 link fault kills fixed-path worms
        crossing it; the run still completes (killed worms release
        their channels) and accounting stays consistent."""
        plan = FaultPlan(
            events=(FaultEvent(0.0, "link", ((1, 0), (2, 0)), True),), horizon=1.0
        )
        cfg = SimConfig(num_messages=200, seed=11)
        r = run_resilient(SMALL, "fixed-path", cfg, plan=plan)
        s = r.stats
        assert s.link_fault_events == 1
        assert s.killed_worms > 0
        assert s.retries > 0  # drops trigger retransmission
        assert s.dropped > 0  # the fixed path cannot avoid the fault
        assert s.delivered + s.dropped == r.expected_deliveries
        assert 0.0 < r.delivery_ratio < 1.0

    def test_adaptive_detours_around_link_fault(self):
        """The adaptive worm avoids a faulted candidate channel at
        simulation time: on the hypercube's Gray labeling the link
        8->12 always has a monotone alternative, so the worm detours
        and delivers everything without a single kill."""
        plan = FaultPlan(events=(FaultEvent(0.0, "link", (8, 12), True),), horizon=1.0)
        cfg = SimConfig(num_messages=200, seed=11, num_destinations=5)
        r = run_resilient(Hypercube(4), "dual-path-adaptive", cfg, plan=plan)
        assert r.stats.detoured > 0
        assert r.stats.killed_worms == 0
        assert r.delivery_ratio == 1.0

    def test_fault_tolerant_beats_fixed_path(self):
        """The §8.2 robustness claim, dynamically: under the same fault
        schedule the fault-tolerant schemes deliver strictly more than
        the non-fault-tolerant fixed path."""
        cfg = CFG.replace(link_fault_rate=0.05)
        fixed = run_resilient(MESH, "fixed-path", cfg)
        dual = run_resilient(MESH, "dual-path", cfg)
        adaptive = run_resilient(MESH, "dual-path-adaptive", cfg)
        assert dual.delivery_ratio > fixed.delivery_ratio
        assert adaptive.delivery_ratio > fixed.delivery_ratio

    def test_node_faults(self):
        cfg = CFG.replace(node_fault_rate=0.05)
        r = run_resilient(MESH, "dual-path", cfg)
        s = r.stats
        assert s.node_fault_events > 0
        assert s.delivered + s.dropped == r.expected_deliveries
        assert r.delivery_ratio < 1.0

    def test_transient_faults_repair_and_recover(self):
        cfg = CFG.replace(link_fault_rate=0.1, fault_mtbf=2e-3, fault_mttr=5e-4)
        r = run_resilient(MESH, "dual-path", cfg)
        assert r.stats.repair_events > 0
        # transient faults degrade less than the same rate of permanent ones
        permanent = run_resilient(MESH, "dual-path", CFG.replace(link_fault_rate=0.1))
        assert r.delivery_ratio > permanent.delivery_ratio

    def test_retry_budget_bounds_attempts(self):
        plan = FaultPlan(
            events=(FaultEvent(0.0, "link", ((1, 0), (2, 0)), True),), horizon=1.0
        )
        cfg = SimConfig(num_messages=100, seed=2, max_retries=0)
        r = run_resilient(SMALL, "fixed-path", cfg, plan=plan)
        assert r.stats.retries == 0
        assert r.stats.dropped > 0

    def test_adaptive_hop_scans_the_itinerary_once(self, monkeypatch):
        """A fault-aware adaptive worm strikes reached stops off its
        itinerary once at its start and once per hop, killed worms
        included."""
        from repro.sim.reference import AdaptivePathWorm

        scans: dict = {}
        pop_reached = AdaptivePathWorm._pop_reached

        def counting(worm):
            scans[worm] = scans.get(worm, 0) + 1
            pop_reached(worm)

        monkeypatch.setattr(AdaptivePathWorm, "_pop_reached", counting)
        cfg = SimConfig(
            num_messages=200, num_destinations=6, mean_interarrival=250e-6,
            seed=33, link_fault_rate=0.05,
        )
        r = run_resilient(Mesh2D(8, 8), "dual-path-adaptive", cfg)
        assert r.stats.killed_worms > 0 and r.stats.detoured > 0
        assert len(scans) == r.worms
        assert all(n == 1 + len(worm.channels) for worm, n in scans.items())

    def test_degradation_monotone_in_samples(self):
        """More faults -> (weakly) fewer deliveries, the degradation
        curve the benchmark plots."""
        lo = run_resilient(MESH, "dual-path", CFG.replace(link_fault_rate=0.02))
        hi = run_resilient(MESH, "dual-path", CFG.replace(link_fault_rate=0.15))
        assert hi.delivery_ratio < lo.delivery_ratio <= 1.0


class TestDownChannels:
    """A channel on a down link or node has capacity 0, so it refuses
    acquisition; the worm whose header reaches it dies then."""

    LINK = ((1, 0), (2, 0))

    def _net(self, *events):
        state = FaultState(FaultPlan(events=tuple(events), horizon=1.0))
        net = FaultyWormholeNetwork(Environment(), SimConfig(seed=1), state, SimStats())
        state.install(net)
        return net

    def test_worm_dies_on_a_link_that_failed_before_its_channel_existed(self):
        net = self._net(FaultEvent(0.0, "link", self.LINK, True))
        kills = []
        net.drop_handler = lambda mid: kills.append((mid, net.now))
        route = [(0, 0), (1, 0), (2, 0), (3, 0)]
        # injected after the failure fired: every channel of the route is new
        net.schedule(0.0, lambda: net.inject_path(7, route, {(3, 0)}))
        assert net.run_to_completion()
        assert net.channels[self.LINK].capacity == 0
        # the header took its first hop at 0 and met the down channel
        # one flit time later, as the per-hop fault check found it
        assert kills == [(7, net.config.flit_time)]
        assert net.stats.killed_worms == 1 and net.stats.delivered == 0
        assert all(ch.in_use == 0 for ch in net.channels.values())
        assert not net.live and net.active_worms == 0

    def test_repair_restores_the_channel_capacity(self):
        node = (1, 0)
        net = self._net(
            FaultEvent(1e-6, "node", node, True),
            FaultEvent(2e-6, "link", self.LINK, True),
            FaultEvent(3e-6, "link", self.LINK, False),
            FaultEvent(4e-6, "node", node, False),
        )
        plain = net.channel(self.LINK)
        plane = net.channel((*self.LINK, 1), 2)
        net.run_to_completion(2.5e-6)
        late = net.channel((*self.LINK, "late"), 3)  # first used while down
        assert (plain.capacity, plane.capacity, late.capacity) == (0, 0, 0)
        net.run_to_completion(3.5e-6)
        # the link is back, but its end node is still down
        assert (plain.capacity, plane.capacity, late.capacity) == (0, 0, 0)
        net.run_to_completion()
        assert (plain.capacity, plane.capacity, late.capacity) == (1, 2, 3)
        assert net.stats.repair_events == 2

    def test_node_fault_takes_down_every_incident_channel(self):
        node = (1, 1)
        net = self._net(FaultEvent(0.0, "node", node, True))
        incident = [
            net.channel((node, (1, 2))),
            net.channel(((0, 1), node)),
            net.channel((node, (2, 1), "plane-1"), 2),
            net.channel(((1, 0), node, 3)),
        ]
        other = net.channel(((0, 0), (1, 0)))
        net.run_to_completion()
        assert [ch.capacity for ch in incident] == [0, 0, 0, 0]
        assert net.channel(((2, 1), node, "plane-0")).capacity == 0
        assert other.capacity == 1 and other.free


class TestFaultBlindScheme:
    """vct-tree has no fault-aware worm, so faults would never touch
    it: a faulted run is refused instead of reporting every message
    delivered."""

    CFG = SimConfig(num_messages=200, num_destinations=10, seed=5, channels_per_link=2)

    def test_fault_rates_refused(self):
        mesh = Mesh2D(8, 8)
        for cfg in (self.CFG.replace(link_fault_rate=0.15), self.CFG.replace(node_fault_rate=0.05)):
            with pytest.raises(InvalidConfigError, match="fault-aware"):
                run_resilient(mesh, "vct-tree", cfg)
            with pytest.raises(InvalidConfigError, match="fault-aware"):
                SweepJob(mesh, "vct-tree", cfg, "resilient")

    def test_fault_plan_refused(self):
        plan = FaultPlan(
            events=(FaultEvent(0.0, "link", ((1, 0), (2, 0)), True),), horizon=1.0
        )
        with pytest.raises(InvalidConfigError, match="fault-aware"):
            run_resilient(SMALL, "vct-tree", SimConfig(num_messages=50, seed=2), plan=plan)

    def test_zero_rates_run(self):
        mesh = Mesh2D(8, 8)
        SweepJob(mesh, "vct-tree", self.CFG, "resilient")
        r = run_resilient(mesh, "vct-tree", self.CFG)
        assert r.delivery_ratio == 1.0
        assert r.stats.link_fault_events == 0


class TestRegistryCapability:
    def test_flags(self):
        assert registry.get("dual-path").fault_tolerant
        assert registry.get("dual-path-adaptive").fault_tolerant
        assert not registry.get("fixed-path").fault_tolerant
        assert not registry.get("multi-path").fault_tolerant

    def test_specs_filter(self):
        names = {s.name for s in registry.specs(fault_tolerant=True)}
        assert names == {"dual-path", "dual-path-adaptive"}
        assert "fixed-path" in {
            s.name for s in registry.specs(fault_tolerant=False, simulable=True)
        }

    def test_fault_route_conformance(self):
        """The capability's conformance hook: the registered fault
        router actually avoids the declared faults and still satisfies
        the star contract (validate() runs inside)."""
        from repro.models import MulticastRequest

        request = MulticastRequest(SMALL, (0, 0), ((3, 3), (0, 3)))
        faulty = {((0, 0), (1, 0))}
        star = registry.get("dual-path").fault_route(request, faulty)
        for path in star.paths:
            for hop in zip(path, path[1:]):
                assert hop not in faulty
        # the detour route still reaches every destination
        covered = {d for group in star.partition for d in group}
        assert covered == set(request.destinations)

    def test_fault_route_unregistered_raises(self):
        with pytest.raises(ValueError, match="declares no fault router"):
            registry.get("fixed-path").fault_route(None, ())

    def test_scheme_table_has_fault_column(self):
        table = registry.scheme_table_markdown()
        assert "fault-tolerant" in table.splitlines()[0]


class TestSimStats:
    def test_roundtrip(self):
        s = SimStats(delivered=10, dropped=2, retries=1, killed_worms=3)
        assert SimStats.from_dict(s.to_dict()) == s

    def test_delivery_ratio(self):
        assert SimStats().delivery_ratio == 1.0
        assert SimStats(delivered=3, dropped=1).delivery_ratio == 0.75


# ----------------------------------------------------------------------
# The fault-aware twin: with no faults, the fault-aware reference
# network reproduces the plain one event for event, for every worm
# style, on the exact flit grid.  Bursts at time zero have no arrival
# process, so the static tests inject them into each network directly.
# ----------------------------------------------------------------------

# Dyadic base: 2-byte flits on a 2 MB/s channel give a flit time of
# 2**-20 s, so every quantized event lands on an exactly-representable
# float.
BASE = dict(bandwidth=2**21, flit_bytes=2, quantize_arrivals=True)


def _fingerprint(result):
    """Everything parity promises to preserve, as a comparable tuple."""
    return (
        result.latency,
        result.sim_time,
        result.deliveries,
        result.worms,
        result.injected_messages,
    )


def _fault_fingerprint(result):
    s = result.stats
    return _fingerprint(result) + (
        result.expected_deliveries,
        s.delivered,
        s.dropped,
        s.killed_worms,
        s.retries,
        s.detoured,
        s.injection_failures,
        s.link_fault_events,
        s.node_fault_events,
        s.repair_events,
    )


def _run_both(topology, scheme, cfg):
    """``scheme`` on the plain network and on its fault-aware twin."""
    return run_dynamic(topology, scheme, cfg), run_resilient(topology, scheme, cfg)


def _fig_6_1():
    """Two e-cube broadcasts on a 3-cube (Fig. 6.1)."""
    cube = Hypercube(3)
    return cube, [
        MulticastRequest(cube, 0, tuple(v for v in cube.nodes() if v != 0)),
        MulticastRequest(cube, 1, tuple(v for v in cube.nodes() if v != 1)),
    ]


def _fig_6_4():
    """Two X-first multicasts on a 3x4 mesh (Fig. 6.4)."""
    mesh = Mesh2D(4, 3)
    return mesh, [
        MulticastRequest(mesh, (1, 1), ((0, 2), (3, 1))),
        MulticastRequest(mesh, (2, 1), ((0, 1), (3, 0))),
    ]


def _burst_both(topology, scheme, requests, cfg):
    """Inject ``requests`` at time zero into a fresh plain network and
    a fresh fault-aware one and run both dry; their outcomes must agree
    event for event.  Returns the plain network's outcome."""
    router = Router(topology, scheme, channels_per_link=cfg.channels_per_link)
    outcomes = []
    for net in (WormholeNetwork(Environment(), cfg), FaultyWormholeNetwork(Environment(), cfg)):
        for mid, request in enumerate(requests, start=1):
            inject_specs(net, mid, router(request), cfg.channels_per_link, router)
        completed = net.run_to_completion()
        outcomes.append((completed, net.active_worms, net.delivery_latencies(), net.now))
    ref, twin = outcomes
    assert twin == ref
    return ref


class TestFaultAwareTwin:
    @pytest.mark.parametrize("topology,scheme,kw", [
        pytest.param(
            Mesh2D(8, 8), "virtual-channel-2",
            dict(seed=9, mean_interarrival=200e-6, num_messages=250, num_destinations=5),
            id="vc2-mesh8",
        ),
        pytest.param(
            Mesh2D(8, 8), "dual-path-adaptive",
            dict(seed=13, mean_interarrival=250e-6, num_messages=200, num_destinations=5),
            id="adaptive-mesh8",
        ),
        pytest.param(
            Mesh2D(8, 8), "xfirst-tree",
            dict(seed=21, mean_interarrival=400e-6, num_messages=150, num_destinations=4,
                 channels_per_link=2),
            id="xfirst-tree-mesh8-double",
        ),
        pytest.param(
            Hypercube(6), "ecube-tree",
            dict(seed=23, mean_interarrival=800e-6, num_messages=120, num_destinations=4),
            id="ecube-tree-cube6",
        ),
    ])
    def test_moderate_load_parity(self, topology, scheme, kw):
        cfg = SimConfig(**BASE, **kw)
        ref, twin = _run_both(topology, scheme, cfg)
        assert _fingerprint(twin) == _fingerprint(ref)
        assert twin.engine == "reference"

    @pytest.mark.parametrize("scheme", ["xfirst-tree"])
    def test_single_message_parity(self, scheme):
        """One lone multicast on an otherwise idle network: the
        degenerate contention-free calendar must agree exactly."""
        cfg = SimConfig(**BASE, num_messages=1, num_destinations=4, seed=1)
        ref, twin = _run_both(Mesh2D(4, 4), scheme, cfg)
        assert _fingerprint(twin) == _fingerprint(ref)
        assert twin.deliveries == 4

    @pytest.mark.parametrize("scheme,ia,seed", [
        pytest.param("dual-path-adaptive", 25e-6, 2, id="adaptive-ia25-s2"),
        pytest.param("virtual-channel-2", 10e-6, 31, id="vc2-ia10-s31"),
    ])
    def test_near_saturation_parity(self, scheme, ia, seed):
        """Interarrivals far below the service time drive the mesh deep
        into contention, where waiter wakeups decide every outcome."""
        cfg = SimConfig(
            **BASE,
            seed=seed,
            mean_interarrival=ia,
            num_messages=250,
            num_destinations=6,
        )
        ref, twin = _run_both(Mesh2D(8, 8), scheme, cfg)
        assert _fingerprint(twin) == _fingerprint(ref)

    def test_deadlock_parity(self):
        """Sustained single-channel tree traffic wedges a 4-cube (§6.1);
        the fault-aware tree worms must detect it and report the same
        diagnostic."""
        cube = Hypercube(4)
        cfg = SimConfig(
            **BASE, num_messages=200, num_destinations=8,
            mean_interarrival=50e-6, seed=7,
        )
        errors = []
        for run in (run_dynamic, run_resilient):
            with pytest.raises(DeadlockDetected) as info:
                run(cube, "ecube-tree", cfg)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("scheme,rate", [
        pytest.param("dual-path", 0.05, id="dual-path"),
        pytest.param("dual-path-adaptive", 0.08, id="adaptive"),
        pytest.param("fixed-path", 0.05, id="fixed-path"),
    ])
    def test_resilient_fault_parity(self, scheme, rate):
        """Faults firing mid-run (kills, retries, detours) on the flit
        grid: a resilient run is a pure function of its config, so the
        same job run by a forked sweep worker resolves identically to
        the run in this process."""
        from repro.parallel import run_sweep

        cfg = SimConfig(
            **BASE, seed=5, mean_interarrival=250e-6,
            num_messages=200, num_destinations=5,
            link_fault_rate=rate, fault_mttr=400e-6,
        )
        local = run_resilient(Mesh2D(8, 8), scheme, cfg)
        assert local.stats.link_fault_events > 0
        # a timeout selects the supervised execution: one forked process
        (swept,) = run_sweep([SweepJob(Mesh2D(8, 8), scheme, cfg, "resilient")], timeout=120)
        assert _fault_fingerprint(swept) == _fault_fingerprint(local)

    @pytest.mark.parametrize("scenario,scheme", [
        pytest.param(_fig_6_1, "ecube-tree", id="fig6.1-ecube-tree"),
        pytest.param(_fig_6_4, "xfirst-tree", id="fig6.4-xfirst-tree"),
    ])
    def test_static_deadlock_parity(self, scenario, scheme):
        """The §6.1 deadlocks wedge with the same worms blocked on the
        fault-aware tree worms."""
        topology, requests = scenario()
        completed, blocked, _, _ = _burst_both(topology, scheme, requests, SimConfig(**BASE))
        assert not completed and blocked > 0

    @pytest.mark.parametrize("scheme,channels", [
        pytest.param("tree-xfirst", 2, id="tree-xfirst-double"),
    ])
    def test_static_fix_parity(self, scheme, channels):
        """The §6.2 fix completes the Fig. 6.4 pattern on both networks
        alike."""
        mesh, requests = _fig_6_4()
        completed, blocked, delivered, _ = _burst_both(
            mesh, scheme, requests, SimConfig(**BASE, channels_per_link=channels)
        )
        assert completed and blocked == 0 and len(delivered) == 4


# ----------------------------------------------------------------------
# Retransmissions reuse an unchanged route: a retry routes its message
# again only when its destinations, or the fault state a fault-tolerant
# router reads, changed since its last attempt.
# ----------------------------------------------------------------------


class TestRouteReuse:
    @staticmethod
    def _routed(monkeypatch, scheme, cfg, reuse=True):
        """``run_resilient`` on the 8x8 mesh, with every router call
        recorded as ``(source, destinations, fault-state version)``;
        ``reuse=False`` gives every attempt a fresh route key, so each
        one routes again."""
        import repro.sim.runner as runner

        calls = []
        route = Router.__call__

        def recording(self, request):
            calls.append((request.source, request.destinations, self.fault_state.version))
            return route(self, request)

        with monkeypatch.context() as m:
            m.setattr(Router, "__call__", recording)
            if not reuse:
                m.setattr(runner, "_route_key", lambda router, request: object())
            result = run_resilient(Mesh2D(8, 8), scheme, cfg)
        return result, calls

    @pytest.mark.parametrize("rate", [0.05, 0.15])
    @pytest.mark.parametrize(
        "scheme", ["dual-path", "multi-path", "fixed-path", "dual-path-adaptive"]
    )
    def test_reuse_changes_no_result(self, monkeypatch, scheme, rate):
        cfg = SimConfig(
            num_messages=120, num_destinations=6, link_fault_rate=rate, seed=7,
            mean_interarrival=300e-6, max_retries=3,
        )
        reused, calls = self._routed(monkeypatch, scheme, cfg)
        fresh, fresh_calls = self._routed(monkeypatch, scheme, cfg, reuse=False)
        assert reused == fresh
        assert reused.stats.retries > 0
        assert len(calls) < len(fresh_calls)
        # no attempt routes what an earlier one routed under the same
        # fault state (a router that ignores faults: under any state)
        router = Router(MESH, scheme, fault_state=FaultState())
        keys = calls if router.routes_around_faults else [call[:2] for call in calls]
        assert len(set(keys)) == len(keys)

    def test_a_fault_between_attempts_forces_a_fresh_route(self, monkeypatch):
        """A message dual-path retries after a fault changed the fault
        state is routed again, around the new fault, even to the same
        destinations; fixed-path ignores faults and re-sends its
        route."""
        cfg = SimConfig(
            num_messages=120, num_destinations=6, link_fault_rate=0.15, seed=7,
            mean_interarrival=300e-6, max_retries=3,
        )
        _, calls = self._routed(monkeypatch, "dual-path", cfg)
        versions: dict = {}
        for src, dests, version in calls:
            versions.setdefault((src, dests), []).append(version)
        again = [v for v in versions.values() if len(v) > 1]
        assert again and all(len(set(v)) == len(v) for v in again)
        _, calls = self._routed(monkeypatch, "fixed-path", cfg)
        assert len({(src, dests) for src, dests, _ in calls}) == len(calls)

    def test_router_predicate(self):
        state = FaultState()
        assert Router(MESH, "dual-path", fault_state=state).routes_around_faults
        assert not Router(MESH, "dual-path").routes_around_faults
        assert not Router(MESH, "fixed-path", fault_state=state).routes_around_faults
