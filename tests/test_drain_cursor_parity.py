"""The tail drain's cursor against the per-unit drain it replaced.

A worm's F-flit tail drain is one calendar entry: a cursor
(:class:`repro.sim.reference._Drain`) on a block of sequence numbers
the drain reserves, which re-pushes itself at the ``(time, seq)`` key
each released unit had as an entry of its own, and finishes the worm
with the last unit.  The heap-only
:class:`~repro.sim.kernel.LegacyEnvironment` alone cannot catch a
wrong cursor key, because both kernels run the same ``Worm._drain``.
So the oracle side of every case below runs the original per-unit
drain loop (:func:`per_unit_drain`, kept verbatim) patched over
``Worm._drain`` on the heap-only calendar, and the other side runs the
cursor on the windowed calendar, where free-flight windows also absorb
cursors whole.  The two must agree exactly: the delivery streams
(message, destination, injection and delivery time, in delivery
order), the final clocks, the worm counts, and the results with their
``SimStats``.

The cases cover every worm shape that drains: plain path worms with
D < F, D = F and D > F and one-flit messages, header-overhead and
virtual-channel-plane path worms, the xfirst and e-cube lockstep
trees, the adaptive dual-path worm, virtual cut-through's
``_drain(first)`` up to ``first = D``, fault-aware worms under link
faults with kills, mixed traffic, the switching comparison and the
Fig. 6.1 wedge, on and off the exact flit grid.
"""

from __future__ import annotations

import contextlib
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.runner as sim_runner
from repro.sim import (
    Environment,
    FaultyWormholeNetwork,
    LegacyEnvironment,
    SimConfig,
    WormholeNetwork,
    run_dynamic,
    run_mixed,
    run_resilient,
    run_static_scenario,
    run_switching,
)
from repro.sim.reference import Worm
from repro.sim.runner import DeadlockDetected
from repro.sim.vct import VCTWorm
from repro.topology import Hypercube, Mesh2D
from repro.wormhole.cdg import fig_6_1_requests, fig_6_4_requests


def per_unit_drain(self, first: int = 0) -> None:
    """``Worm._drain`` as it was written before the cursor: one
    calendar entry per released unit, and one for the finish."""
    D = len(self.channels)
    F = self.flits
    sched = self.env.schedule
    tf = self.tf
    rel = self._release
    for i in range(max(first, D - F), D):
        sched((i + F - D) * tf, rel, i)
    sched((F - 1) * tf, self._finished)


#: a power-of-two flit time (2**-20 s) with arrivals on the flit grid
DYADIC = dict(bandwidth=2**21, flit_bytes=2, quantize_arrivals=True)
#: on the exact grid, and at the paper's 0.1 us flit with free arrivals
GRIDS = pytest.mark.parametrize("grid", [DYADIC, {}], ids=["grid", "off-grid"])


def _stream(net) -> tuple:
    deliveries = tuple(
        (d.message_id, d.destination, d.injected_at, d.delivered_at)
        for d in net.deliveries
    )
    return deliveries, net.now, net.total_worms, net.active_worms


@contextlib.contextmanager
def _side(oracle: bool):
    """Build the runner's calendars and networks for one side: the
    per-unit drain on the heap-only calendar, or the cursor on the
    windowed one.  Yields the networks built."""
    nets: list = []

    def recording(cls):
        def build(*args, **kwargs):
            net = cls(*args, **kwargs)
            nets.append(net)
            return net

        return build

    saved = (
        sim_runner.Environment, sim_runner.WormholeNetwork,
        sim_runner.FaultyWormholeNetwork, Worm._drain,
    )
    sim_runner.Environment = LegacyEnvironment if oracle else Environment
    sim_runner.WormholeNetwork = recording(WormholeNetwork)
    sim_runner.FaultyWormholeNetwork = recording(FaultyWormholeNetwork)
    if oracle:
        Worm._drain = per_unit_drain
    try:
        yield nets
    finally:
        (
            sim_runner.Environment, sim_runner.WormholeNetwork,
            sim_runner.FaultyWormholeNetwork, Worm._drain,
        ) = saved


def _outcome(result):
    """A result without its window counters, which only the windowed
    calendar fills."""
    if dataclasses.is_dataclass(result) and hasattr(result, "engine_stats"):
        return dataclasses.replace(result, engine_stats=None)
    return result


def _wedged(run):
    """``run()``, or the message of the deadlock it ended in."""
    try:
        return run()
    except DeadlockDetected as wedge:
        return f"wedged: {wedge}"


def _agree(run):
    """``run()`` on both sides; results (or wedges) and streams must
    match.  Returns the cursor side's result and networks."""
    with _side(oracle=False) as nets:
        cursor = _wedged(run)
    with _side(oracle=True) as oracle_nets:
        oracle = _wedged(run)
    assert [_stream(n) for n in nets] == [_stream(n) for n in oracle_nets]
    assert _outcome(cursor) == _outcome(oracle)
    return cursor, nets


# ----------------------------------------------------------------------
# Hand-built worms: D < F, D = F, D > F, one flit, VCT, a waiter
# ----------------------------------------------------------------------

#: a straight row of a 40x1 mesh: node i is (i, 0)
ROW = [(i, 0) for i in range(40)]


def _snapshot(net) -> tuple:
    """The clock, every channel's ``in_use``, the deliveries so far and
    the worms in flight."""
    in_use = tuple(ch.in_use for ch in net.channels.values())
    return net.env.now, in_use, len(net.deliveries), net.active_worms


def _hand_built(build, grid, message_bytes: int = 16, ticks: bool = True) -> WormholeNetwork:
    """``build(net, tf, log)`` on both sides; logs and streams must
    agree.  Returns the cursor side's network.

    With ``ticks``, a ticker logs a :func:`_snapshot` every flit time,
    re-scheduling itself one flit time ahead, so a drain unit due at a
    tick runs before or after it by sequence number alone; every finish
    logs one too, so a finish run before the last release shows.  The
    ticker keeps the flit lane impure, so no window opens then."""
    outcomes = []
    nets = []
    finish = WormholeNetwork.finish
    for oracle in (False, True):
        log: list = []

        def logged_finish(net, worm):
            log.append(("finish", worm.message_id, _snapshot(net)))
            finish(net, worm)

        def tick(k):
            log.append(("tick", _snapshot(net)))
            if k:
                net.env.schedule(tf, tick, k - 1)

        with _side(oracle):
            env = (LegacyEnvironment if oracle else Environment)()
            config = SimConfig(**grid, message_bytes=message_bytes, channels_per_link=1)
            net = WormholeNetwork(env, config)
            tf = config.flit_time
            if ticks:
                WormholeNetwork.finish = logged_finish
                env.schedule(0.0, tick, 80)
            try:
                build(net, tf, log)
                net.run_to_completion()
            finally:
                WormholeNetwork.finish = finish
        outcomes.append((log, _stream(net)))
        nets.append(net)
    assert outcomes[0] == outcomes[1]
    return nets[0]


@GRIDS
@pytest.mark.parametrize("hops", [3, 8, 20], ids=["D<F", "D=F", "D>F"])
def test_lone_and_queued_path_worms(grid, hops):
    """Worm 2 queues behind worm 1 on single channels and is woken by
    worm 1's drain releases; worm 3 runs beside them.  F = 8."""

    def build(net, tf, log):
        net.inject_path(1, ROW[: hops + 1], {ROW[1], ROW[hops]})
        net.schedule(tf, net.inject_path, 2, ROW[1 : hops + 5], {ROW[hops + 4]})
        net.schedule(2 * tf, net.inject_path, 3, [(i, 1) for i in range(40)], {(9, 1), (39, 1)})

    _hand_built(build, grid)


@GRIDS
def test_one_flit_worms(grid):
    """F = 1: a drain is one release, due at the header's last hop,
    on the immediate lane under the per-unit loop."""

    def build(net, tf, log):
        for mid in range(1, 4):
            net.schedule(mid * tf / 2, net.inject_path, mid, ROW[mid : mid + 12],
                         {ROW[mid + 5], ROW[mid + 11]}, None, None, 1)

    _hand_built(build, grid)


@GRIDS
@pytest.mark.parametrize("first", [0, 1, 3, 5, 6], ids=lambda f: f"first={f}")
def test_vct_drain_from_first_among_same_time_entries(grid, first):
    """Virtual cut-through drains from ``first`` on, the units before it
    released by a buffer drain already; ``first = D`` leaves the finish
    alone.  D = 6 < F = 8, so unit j is due (j + 2) flit times out;
    snapshots due at every flit time, scheduled just before and just
    after the drain starts, pin its keys among same-time entries."""

    def build(net, tf, log):
        nodes = ROW[:7]
        chans = [net.channel((u, v)) for u, v in zip(nodes, nodes[1:])]
        worm = VCTWorm(net, 1, nodes, chans, {ROW[3], ROW[6]})
        net.active_worms += 1
        net.total_worms += 1
        for i, ch in enumerate(chans):
            ch.in_use = int(i >= first)
        worm.idx = len(chans)
        worm.seg_first_held = first
        for k in range(10):
            net.env.schedule(k * tf, lambda: log.append(("before", _snapshot(net))))
        worm._drain(first)
        for k in range(10):
            net.env.schedule(k * tf, lambda: log.append(("after", _snapshot(net))))

    _hand_built(build, grid)


@GRIDS
def test_no_window_absorbs_a_unit_a_waiter_needs(grid):
    """Worm 2 waits on the last channel of draining worm 1 (F = 32, so
    its units fall 23 to 31 flit times after the drain starts) while
    worms 3 and 4 fly: the window ends at that unit, whose release
    wakes worm 2 as the per-unit drain does."""

    def build(net, tf, log):
        net.inject_path(1, ROW[:10], {ROW[9]})
        net.schedule(11 * tf, net.inject_path, 2, ROW[8:30], {ROW[29]})
        for row in (1, 2):
            net.schedule(12 * tf, net.inject_path, 2 + row, [(i, row) for i in range(40)],
                         {(20, row), (39, row)})

    net = _hand_built(build, grid, message_bytes=64, ticks=False)
    assert net.flight.windows > 0 and net.flight.drains_absorbed > 0


def _same_tick_drains(net, tf, second, flits) -> None:
    """Path worm 1 and ``second()`` drain from the same tick (D = 3 <
    F = 64, first units due 64 flit times out, worm 1's cursor first);
    worms 10-12 of ``flits`` flits fly 39 hops each on rows 2-4 from 5
    flit times on.  With 64 flits their drains outlast the window; with
    2 they finish in it, so the window creates no entry of its own."""
    net.inject_path(1, [(i, 0) for i in range(4)], {(3, 0)})
    second()
    for row in (2, 3, 4):
        net.schedule(5 * tf, net.inject_path, 8 + row, [(i, row) for i in range(40)],
                     {(20, row), (39, row)}, None, None, flits)


#: the flyers' drains outlast the window, or finish in it
FLYERS = pytest.mark.parametrize("flits", [64, 2], ids=["pending", "done"])


@GRIDS
@FLYERS
def test_a_cursor_at_the_horizon_stays_on_the_heap_behind_a_tree_drain(grid, flits):
    """A tree worm's cursor, which no window absorbs, falls at the tick
    of path worm 1's: the window's horizon is that tick, so worm 1's
    cursor, taken off the heap before the horizon fell to its key, goes
    back unchanged."""

    def build(net, tf, log):
        levels = [[((i, 1), (i + 1, 1))] for i in range(3)]
        _same_tick_drains(net, tf, lambda: net.inject_tree(2, levels, [[], [], [(3, 1)]]), flits)

    net = _hand_built(build, grid, message_bytes=128, ticks=False)
    assert net.flight.windows > 0


@GRIDS
@FLYERS
def test_a_cursor_at_the_horizon_stays_on_the_heap_behind_a_waited_drain(grid, flits):
    """Path worm 2 drains at worm 1's tick, and worm 3 waits on the
    channel of worm 2's first unit: the horizon falls to that tick, and
    worm 1's cursor goes back unchanged."""

    def build(net, tf, log):
        def second():
            net.inject_path(2, [(i, 1) for i in range(4)], {(3, 1)})
            net.schedule(2 * tf, net.inject_path, 3, [(i, 1) for i in range(6)], {(5, 1)})

        _same_tick_drains(net, tf, second, flits)

    net = _hand_built(build, grid, message_bytes=128, ticks=False)
    assert net.flight.windows > 0


# ----------------------------------------------------------------------
# Every worm shape through the run functions
# ----------------------------------------------------------------------

LIGHT = dict(num_messages=60, num_destinations=5)


@GRIDS
@pytest.mark.parametrize("topology,scheme,kw", [
    pytest.param(Mesh2D(8, 8), "fixed-path", dict(channels_per_link=2), id="path-double"),
    pytest.param(Mesh2D(8, 8), "dual-path", dict(model_header_overhead=True),
                 id="header-overhead"),
    pytest.param(Mesh2D(8, 8), "virtual-channel-2", {}, id="vc-planes"),
    pytest.param(Mesh2D(8, 8), "xfirst-tree", dict(channels_per_link=2), id="xfirst-tree"),
    pytest.param(Hypercube(5), "ecube-tree", {}, id="ecube-tree"),
    pytest.param(Mesh2D(8, 8), "dual-path-adaptive", {}, id="adaptive"),
    pytest.param(Mesh2D(6, 6), "vct-tree", {}, id="vct-tree"),
])
@pytest.mark.parametrize("gap", [300, 3000], ids=["loaded", "light"])
def test_run_dynamic_every_worm_shape(grid, topology, scheme, kw, gap):
    config = SimConfig(**grid, **kw, **LIGHT, seed=5)
    config = config.replace(mean_interarrival=gap * config.flit_time * topology.num_nodes / 8)
    _agree(lambda: run_dynamic(topology, scheme, config))


@GRIDS
@pytest.mark.parametrize("rate", [0.05, 0.15])
@pytest.mark.parametrize("scheme", ["dual-path", "fixed-path", "dual-path-adaptive", "xfirst-tree"])
def test_run_resilient_with_kills(grid, rate, scheme):
    config = SimConfig(
        **grid, num_messages=80, num_destinations=6, link_fault_rate=rate, seed=7,
        channels_per_link=2 if scheme == "xfirst-tree" else 1,
    )
    config = config.replace(mean_interarrival=400 * config.flit_time * 64)
    result, _ = _agree(lambda: run_resilient(Mesh2D(8, 8), scheme, config))
    assert result.stats.link_fault_events > 0
    if scheme == "dual-path":
        assert result.stats.killed_worms > 0


@GRIDS
def test_run_mixed_and_run_switching(grid):
    config = SimConfig(**grid, num_messages=60, num_destinations=4, seed=11)
    config = config.replace(mean_interarrival=500 * config.flit_time * 64)
    _agree(lambda: run_mixed(Mesh2D(8, 8), "dual-path", config, unicast_fraction=0.4))
    _agree(lambda: run_switching(Mesh2D(8, 8), "dual-path", config))


@GRIDS
def test_fig_6_1_wedge_and_fig_6_4(grid):
    """The deadlocked tree pair keeps its channels, and the calendar
    runs dry at the same clock on both sides."""
    config = SimConfig(**grid)
    wedged, _ = _agree(lambda: run_static_scenario(
        Hypercube(3), "ecube-tree", fig_6_1_requests(), config
    ))
    assert not wedged.completed and wedged.blocked_worms == 2
    _agree(lambda: run_static_scenario(Mesh2D(4, 3), "xfirst-tree", fig_6_4_requests(), config))


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(("fixed-path", "dual-path", "multi-path", "virtual-channel-2",
                            "dual-path-adaptive", "xfirst-tree")),
    flits=st.sampled_from((1, 2, 3, 7, 16, 64)),
    grid=st.booleans(),
    double=st.booleans(),
    gap=st.sampled_from((30, 300, 3000)),
    seed=st.integers(0, 2**16),
)
def test_random_runs(scheme, flits, grid, double, gap, seed):
    if scheme == "xfirst-tree":
        double = True  # single-channel X-first trees can wedge (Fig. 6.4)
    config = SimConfig(
        **(DYADIC if grid else {}), message_bytes=2 * flits,
        channels_per_link=2 if double else 1, num_messages=40, num_destinations=4, seed=seed,
    )
    config = config.replace(mean_interarrival=gap * config.flit_time * 36 / 4)
    _agree(lambda: run_dynamic(Mesh2D(6, 6), scheme, config))


def test_zero_load_cell_drains_fly_and_step():
    """A sim-zero-load cell at 60 messages: the windows absorb drain
    units and the cursors step the rest, and both sides agree."""
    config = SimConfig(
        **DYADIC, mean_interarrival=0.36, channels_per_link=2, num_destinations=8,
        num_messages=60, seed=29,
    )
    result, _ = _agree(lambda: run_dynamic(Hypercube(10), "fixed-path", config))
    windows = result.engine_stats["windows"]
    assert windows["drains_absorbed"] > 0 and windows["drain_steps"] > 0
