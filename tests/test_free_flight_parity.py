"""Free-flight windows against hop-by-hop dispatch.

:class:`repro.sim.reference.FreeFlight` runs uncontended plain path
worms many hops per kernel dispatch.  The heap-only
:class:`~repro.sim.kernel.LegacyEnvironment` never offers it the lane,
so every simulation below runs twice, once on each calendar (the
``Environment`` attribute of :mod:`repro.sim.runner` swapped for the
legacy one), and the two must agree exactly: the delivery streams
(message, destination, injection and delivery time, in delivery
order), the final clock and the worm counts.

The random runs cover 2-D and 3-D meshes, hypercubes and tori, one and
two channels per link, 2 to 64 flits, a virtual-channel scheme, mixed
unicast/multicast traffic and the wormhole technology of the switching
comparison, on and off the exact flit grid.  The fixed cases pin the
windows' edges: the three ``sim-zero-load`` cells, where fixed-path
leaders and followers share capacity-2 channels; a window cut short by
an arrival; a worm blocked beside a window; drains a window absorbs,
one of them under a waiter; and a fault-aware run, which never flies.
The window counters must reconcile on the zero-load cells.
"""

from __future__ import annotations

import contextlib

from hypothesis import given, settings, strategies as st

import repro.sim.runner as sim_runner
from repro.cli import parse_topology
from repro.sim import (
    Environment,
    FaultyWormholeNetwork,
    LegacyEnvironment,
    SimConfig,
    WormholeNetwork,
    run_dynamic,
    run_mixed,
    run_resilient,
    run_switching,
)
from repro.sim.reference import FreeFlight
from repro.topology import Hypercube, KAryNCube, Mesh2D, Mesh3D

#: a power-of-two flit time (2**-20 s) with arrivals on the flit grid
DYADIC = dict(bandwidth=2**21, flit_bytes=2, quantize_arrivals=True)

#: the sim-zero-load workload's base config and cells
ZERO_LOAD = dict(DYADIC, mean_interarrival=0.36, channels_per_link=2)
ZERO_LOAD_CELLS = (("cube:10", 8, 29), ("cube:10", 32, 29), ("mesh:32x32", 16, 31))


def _stream(net) -> tuple:
    """Everything a window must leave as hop-by-hop dispatch does."""
    deliveries = tuple(
        (d.message_id, d.destination, d.injected_at, d.delivered_at)
        for d in net.deliveries
    )
    return deliveries, net.now, net.total_worms, net.active_worms


@contextlib.contextmanager
def _runner_calendar(env_cls):
    """Build the runner's networks on ``env_cls`` and record them."""
    nets: list = []

    def build(env, config):
        net = WormholeNetwork(env, config)
        nets.append(net)
        return net

    saved = sim_runner.Environment, sim_runner.WormholeNetwork
    sim_runner.Environment, sim_runner.WormholeNetwork = env_cls, build
    try:
        yield nets
    finally:
        sim_runner.Environment, sim_runner.WormholeNetwork = saved


def _both(run):
    """``run()`` on the windowed and on the legacy calendar: the two
    results, the windowed networks, and their streams, which must match."""
    with _runner_calendar(Environment) as nets:
        windowed = run()
    with _runner_calendar(LegacyEnvironment) as legacy_nets:
        legacy = run()
    assert [_stream(n) for n in nets] == [_stream(n) for n in legacy_nets]
    return windowed, legacy, nets


# ----------------------------------------------------------------------
# Random light-load runs
# ----------------------------------------------------------------------

TOPOLOGIES = {
    "mesh:8x8": Mesh2D(8, 8),
    "mesh3d:4x4x3": Mesh3D(4, 4, 3),
    "cube:7": Hypercube(7),
    "torus:6x6": KAryNCube(6, 2),
}
SCHEMES = ("dual-path", "multi-path", "fixed-path", "virtual-channel-2")


@st.composite
def light_runs(draw):
    """A driver, a topology, a scheme and a light-load config: on the
    exact grid or at the paper's 0.1 us flit with free arrivals."""
    topology = TOPOLOGIES[draw(st.sampled_from(sorted(TOPOLOGIES)))]
    scheme = draw(st.sampled_from(SCHEMES))
    driver = draw(st.sampled_from(("dynamic", "dynamic", "mixed", "switching")))
    if driver == "switching" and scheme == "virtual-channel-2":
        scheme = "dual-path"  # run_switching switches plain path worms
    flits = draw(st.integers(2, 64))
    grid = draw(st.booleans())
    base = dict(DYADIC) if grid else {}
    config = SimConfig(
        message_bytes=2 * flits,
        flit_bytes=2,
        channels_per_link=draw(st.integers(1, 2)),
        num_destinations=draw(st.integers(1, 8)),
        num_messages=draw(st.integers(5, 30)),
        seed=draw(st.integers(0, 2**16)),
        **{k: v for k, v in base.items() if k != "flit_bytes"},
    )
    # the aggregate gap between injections, in flit times: from a
    # contended network to an idle one
    gap = draw(st.sampled_from((20, 100, 400, 2000)))
    config = config.replace(
        mean_interarrival=gap * config.flit_time * topology.num_nodes
    )
    return driver, topology, scheme, config


def _drive(driver, topology, scheme, config):
    if driver == "mixed":
        return lambda: run_mixed(topology, scheme, config, unicast_fraction=0.3)
    if driver == "switching":
        return lambda: run_switching(topology, scheme, config)
    return lambda: run_dynamic(topology, scheme, config)


@settings(max_examples=60, deadline=None)
@given(light_runs())
def test_random_light_runs_match_hop_by_hop(run):
    driver, topology, scheme, config = run
    windowed, legacy, _ = _both(_drive(driver, topology, scheme, config))
    if driver == "dynamic":
        assert (windowed.latency, windowed.sim_time, windowed.worms) == (
            legacy.latency, legacy.sim_time, legacy.worms
        )
    else:
        assert windowed == legacy


def test_random_runs_do_fly():
    """The random regime reaches the windows: a light cube:7 run opens
    them, on and off the exact grid."""
    for base in (DYADIC, {}):
        config = SimConfig(
            num_destinations=4, num_messages=30, seed=3, channels_per_link=2,
            **base,
        )
        config = config.replace(mean_interarrival=2000 * config.flit_time * 128)
        _, _, nets = _both(lambda: run_dynamic(Hypercube(7), "fixed-path", config))
        assert nets[0].flight.windows > 0


# ----------------------------------------------------------------------
# The sim-zero-load cells
# ----------------------------------------------------------------------


def _zero_load(spec: str, k: int, seed: int, messages: int) -> tuple:
    config = SimConfig(**ZERO_LOAD, num_destinations=k, num_messages=messages, seed=seed)
    return parse_topology(spec), config


def test_zero_load_cells_match_hop_by_hop():
    """The benchmark's three cells at reduced message counts: convoys
    of fixed-path worms share capacity-2 channels inside windows."""
    shared = []
    commit = FreeFlight._commit

    def recording(self, flyers, drains, horizon):
        slices = [
            set(f.worm.channels[f.worm.idx : f.worm.idx + f.n]) for f in flyers if f.n
        ]
        shared.append(any(a & b for i, a in enumerate(slices) for b in slices[i + 1 :]))
        commit(self, flyers, drains, horizon)

    FreeFlight._commit = recording
    try:
        for spec, k, seed in ZERO_LOAD_CELLS:
            topology, config = _zero_load(spec, k, seed, 60)
            windowed, legacy, nets = _both(
                lambda: run_dynamic(topology, "fixed-path", config)
            )
            assert (windowed.latency, windowed.sim_time) == (legacy.latency, legacy.sim_time)
            assert windowed.deliveries == 60 * k
            assert nets[0].flight.windows > 0
    finally:
        FreeFlight._commit = commit
    assert any(shared)


def _routed_hops(run) -> tuple:
    """``run()`` on the windowed calendar, with the hops it injected."""
    hops = [0]
    inject = WormholeNetwork.inject_path

    def counted(net, message_id, nodes, *args, **kwargs):
        hops[0] += len(nodes) - 1
        return inject(net, message_id, nodes, *args, **kwargs)

    WormholeNetwork.inject_path = counted
    try:
        result = run()
    finally:
        WormholeNetwork.inject_path = inject
    return result, hops[0]


def test_zero_load_counters_reconcile():
    """Every drained unit is counted once, by the window that released
    it (``drains_absorbed``) or by its drain cursor (``drain_steps``):
    Σ min(D, F) over the run's path worms.  Every offer taken ran a
    window or backed off."""
    inject = WormholeNetwork.inject_path
    for spec, k, seed in ZERO_LOAD_CELLS:
        units = [0]

        def counted(net, message_id, nodes, *args, **kwargs):
            worm = inject(net, message_id, nodes, *args, **kwargs)
            units[0] += min(len(nodes) - 1, worm.flits)
            return worm

        topology, config = _zero_load(spec, k, seed, 60)
        WormholeNetwork.inject_path = counted
        try:
            result = run_dynamic(topology, "fixed-path", config)
        finally:
            WormholeNetwork.inject_path = inject
        windows = result.engine_stats["windows"]
        assert windows["drains_absorbed"] + windows["drain_steps"] == units[0]
        assert windows["drains_absorbed"] > 0 and windows["drain_steps"] > 0
        assert windows["attempts"] == windows["windows"] + windows["backoffs"]


def test_coverage_most_hops_fly_at_zero_load_almost_none_on_fig_7_10():
    topology, config = _zero_load("cube:10", 8, 29, 150)
    result, hops = _routed_hops(lambda: run_dynamic(topology, "fixed-path", config))
    windows = result.engine_stats["windows"]
    assert windows["hops_flown"] > 0.8 * hops
    assert windows["drains_absorbed"] > 0
    assert windows["attempts"] == windows["windows"] + windows["backoffs"]
    # Fig 7.10's most contended cell: single channels, 150 us
    fig = SimConfig(num_destinations=10, mean_interarrival=150e-6, seed=42, num_messages=200)
    result, hops = _routed_hops(lambda: run_dynamic(Mesh2D(8, 8), "dual-path", fig))
    windows = result.engine_stats["windows"]
    assert windows["hops_flown"] < 0.05 * hops
    # the backoff keeps the offers rare
    assert windows["attempts"] < hops / 50


# ----------------------------------------------------------------------
# A window's edges, on hand-built networks
# ----------------------------------------------------------------------

#: a straight row of a 40x1 mesh: node i is (i, 0)
ROW = [(i, 0) for i in range(40)]


def _network(env_cls, **kw):
    config = SimConfig(**DYADIC, **kw)
    return WormholeNetwork(env_cls(), config), config.flit_time


def _hand_built(build) -> list:
    """``build(net, tf, log)`` on both calendars; the logs and streams
    must agree.  Returns the windowed network."""
    outcomes = []
    nets = []
    for env_cls in (Environment, LegacyEnvironment):
        log: list = []
        net = build(env_cls, log)
        net.run_to_completion()
        outcomes.append((log, _stream(net)))
        nets.append(net)
    assert outcomes[0] == outcomes[1]
    return nets[0]


def test_an_arrival_cuts_a_window_short():
    """A timer in the middle of a worm's flight sees the network as
    hop-by-hop dispatch leaves it, and the worm flies on after it."""

    def build(env_cls, log):
        net, tf = _network(env_cls, message_bytes=16)
        net.inject_path(1, ROW, {ROW[10], ROW[-1]})
        net.inject_path(3, [(i, 2) for i in range(40)], {(30, 2)})

        def arrive():
            worm_channels = [net.channels[(u, v)].in_use for u, v in zip(ROW, ROW[1:])]
            log.append((net.env.now, worm_channels, len(net.deliveries)))
            net.inject_path(2, [(i, 1) for i in range(10, 40)], {(39, 1)})

        net.schedule(25.5 * tf, arrive)
        return net

    net = _hand_built(build)
    assert net.flight.windows >= 2


def test_a_blocked_worm_beside_a_window():
    """Worm 1 waits on a single channel worm 2 holds while worm 2 and
    worm 3 fly: the window ends before worm 2's hop that releases the
    channel, so that release wakes worm 1 as it does hop by hop."""

    def build(env_cls, log):
        net, tf = _network(env_cls, message_bytes=64, channels_per_link=1)
        net.inject_path(1, ROW[:30], {ROW[3], ROW[29]})
        net.schedule(2 * tf, net.inject_path, 2, ROW[5:], {ROW[-1]})
        net.schedule(3 * tf, net.inject_path, 3, [(i, 1) for i in range(40)], {(39, 1)})
        return net

    net = _hand_built(build)
    assert net.flight.windows > 0


def test_two_flyers_claiming_one_channel():
    """Worm 2 merges onto worm 1's row and takes the shared single
    channel ten flit times before worm 1 reaches it: counted per
    window, the two claims exceed its capacity, so the window stops
    before worm 1's and worm 1 waits as it does hop by hop."""

    def build(env_cls, log):
        net, tf = _network(env_cls, message_bytes=32, channels_per_link=1)
        net.inject_path(1, ROW, {ROW[5], ROW[22], ROW[-1]})
        column = [(20, y) for y in range(10, 0, -1)]
        net.inject_path(2, column + ROW[20:], {(20, 5), ROW[-1]})
        return net

    net = _hand_built(build)
    assert net.flight.windows > 0


def test_windows_absorb_drains():
    """A worm drains while a second flies: its releases and finish run
    inside the window."""

    def build(env_cls, log):
        net, tf = _network(env_cls, message_bytes=64)
        net.inject_path(1, ROW[:12], {ROW[6], ROW[11]})
        net.schedule(9 * tf, net.inject_path, 2, [(i, 1) for i in range(40)], {(20, 1), (39, 1)})
        return net

    net = _hand_built(build)
    assert net.flight.drains_absorbed > 0


def test_no_window_absorbs_a_release_a_waiter_needs():
    """Worm 2 waits on a single channel of draining worm 1 while worms
    3 and 4 fly: the release that wakes worm 2 stays on the calendar."""

    def build(env_cls, log):
        net, tf = _network(env_cls, message_bytes=64, channels_per_link=1)
        net.inject_path(1, ROW[:10], {ROW[9]})
        net.schedule(11 * tf, net.inject_path, 2, ROW[8:30], {ROW[29]})
        for row in (1, 2):
            net.schedule(12 * tf, net.inject_path, 2 + row, [(i, row) for i in range(40)],
                         {(39, row)})
        return net

    net = _hand_built(build)
    assert net.flight.windows > 0


def test_a_fault_aware_run_never_flies():
    """The fault-aware network installs no window, and at zero fault
    rates it still matches the windowed plain run event for event."""
    net = FaultyWormholeNetwork(Environment(), SimConfig())
    assert net.flight is None and net.env._window is None
    topology, config = _zero_load("cube:10", 8, 29, 40)
    resilient = run_resilient(topology, "fixed-path", config)
    plain = run_dynamic(topology, "fixed-path", config)
    assert plain.engine_stats["windows"]["windows"] > 0
    assert (resilient.latency, resilient.sim_time, resilient.deliveries, resilient.worms) == (
        plain.latency, plain.sim_time, plain.deliveries, plain.worms
    )


def test_bounded_runs_never_fly():
    """``run(until=...)`` dispatches hop by hop: no window opens."""
    net, tf = _network(Environment, message_bytes=16)
    net.inject_path(1, ROW, {ROW[-1]})
    net.env.run(until=30 * tf)
    assert net.flight.attempts == 0
    assert net.channels[(ROW[29], ROW[30])].in_use == 1
    net.run_to_completion()
    assert net.deliveries[0].delivered_at == (len(ROW) - 1 + 8 - 1) * tf


def test_off_grid_windows_add_flit_times():
    """At the paper's 0.1 us flit, where ``now + tf`` rounds, a window
    times each hop by the same repeated addition: two worms on
    different phases deliver at the times hop-by-hop dispatch gives."""

    def build(env_cls, log):
        config = SimConfig(message_bytes=16)
        net = WormholeNetwork(env_cls(), config)
        net.inject_path(1, ROW, {ROW[7], ROW[-1]})
        net.schedule(3.3 * config.flit_time, net.inject_path, 2,
                     [(i, 1) for i in range(40)], {(13, 1), (39, 1)})
        return net

    net = _hand_built(build)
    assert net.flight.windows > 0
