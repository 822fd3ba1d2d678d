"""Finished runs free themselves.

Every simulator object a run makes (worms, drain cursors, free-flight
windows, the network and its calendar, the drivers' closures) is freed
by reference counting once the run returns, so none of it waits for
CPython's cycle collector (ARCHITECTURE.md states the rule).  Each test
runs one driver with the collector off, then asks a collection what it
found: it must find nothing.

The topologies are built at import, before any collector is switched
off: their caches fill on first use and stay reachable.  A run that
raises :class:`~repro.sim.runner.DeadlockDetected` may leave its blocked
worms behind: a blocked worm waits in its channel's waiter list, which
the worm reaches through its own channels.  No run here wedges.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.sim import (
    SimConfig,
    run_dynamic,
    run_mixed,
    run_resilient,
    run_static_scenario,
    run_switching,
)
from repro.topology import Hypercube, Mesh2D
from repro.wormhole.cdg import fig_6_4_requests

MESH = Mesh2D(8, 8)
SMALL_MESH = Mesh2D(6, 6)
CUBE5 = Hypercube(5)
CUBE7 = Hypercube(7)
CUBE10 = Hypercube(10)
FIG_6_4_MESH = Mesh2D(4, 3)


def cyclic_garbage(run):
    """Run ``run()`` with the collector off; return its result and the
    type names of the objects a collection then finds unreachable."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run()
        gc.collect()
        found = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return result, found


def _loaded(topology, gap: int, **kw) -> SimConfig:
    config = SimConfig(num_messages=60, num_destinations=5, seed=5, **kw)
    return config.replace(mean_interarrival=gap * config.flit_time * topology.num_nodes / 8)


@pytest.mark.parametrize("topology,scheme,kw,gap", [
    pytest.param(MESH, "dual-path", {}, 300, id="star"),
    pytest.param(MESH, "virtual-channel-2", {}, 300, id="vc-star"),
    pytest.param(MESH, "dual-path-adaptive", {}, 300, id="adaptive"),
    pytest.param(MESH, "xfirst-tree", dict(channels_per_link=2), 300, id="xfirst-tree"),
    # single-channel e-cube trees wedge under load (Fig. 6.1): light load
    pytest.param(CUBE5, "ecube-tree", {}, 3000, id="ecube-tree"),
    pytest.param(SMALL_MESH, "vct-tree", {}, 300, id="vct-tree"),
    pytest.param(MESH, "dual-path", dict(model_header_overhead=True), 300,
                 id="header-overhead"),
])
def test_run_dynamic_every_worm_style(topology, scheme, kw, gap):
    config = _loaded(topology, gap, **kw)
    result, found = cyclic_garbage(lambda: run_dynamic(topology, scheme, config))
    assert result.deliveries == 60 * 5
    assert not found, found


def test_windowed_fixed_path():
    """Light fixed-path traffic on the 7-cube flies in free-flight
    windows, which absorb and start drains."""
    config = SimConfig(num_destinations=4, num_messages=30, seed=3, channels_per_link=2)
    config = config.replace(mean_interarrival=2000 * config.flit_time * 128)
    result, found = cyclic_garbage(lambda: run_dynamic(CUBE7, "fixed-path", config))
    assert result.engine_stats["windows"]["windows"] > 0
    assert not found, found


def test_zero_load_cell():
    """A benchmark zero-load cell at 60 messages: convoys meet waiters,
    and some windows decline after building a cursor for a flyer's
    drain, which is never pushed."""
    config = SimConfig(
        bandwidth=2**21, flit_bytes=2, quantize_arrivals=True, mean_interarrival=0.36,
        channels_per_link=2, num_destinations=8, num_messages=60, seed=29,
    )
    result, found = cyclic_garbage(lambda: run_dynamic(CUBE10, "fixed-path", config))
    assert result.engine_stats["windows"]["backoffs"] > 0
    assert not found, found


@pytest.mark.parametrize("scheme", ["dual-path", "fixed-path", "dual-path-adaptive",
                                    "xfirst-tree"])
def test_run_resilient_with_kills(scheme):
    config = SimConfig(
        num_messages=80, num_destinations=6, link_fault_rate=0.15, seed=7,
        channels_per_link=2 if scheme == "xfirst-tree" else 1,
    )
    config = config.replace(mean_interarrival=400 * config.flit_time * 64)
    result, found = cyclic_garbage(lambda: run_resilient(MESH, scheme, config))
    assert result.stats.retries > 0
    if scheme == "dual-path":
        assert result.stats.killed_worms > 0
    assert not found, found


def test_run_mixed():
    config = SimConfig(num_messages=60, num_destinations=4, seed=11)
    config = config.replace(mean_interarrival=500 * config.flit_time * 64)
    _, found = cyclic_garbage(
        lambda: run_mixed(MESH, "dual-path", config, unicast_fraction=0.4)
    )
    assert not found, found


def test_run_switching():
    """Wormhole, virtual cut-through, circuit and store-and-forward."""
    config = SimConfig(num_messages=60, num_destinations=4, seed=11)
    config = config.replace(mean_interarrival=500 * config.flit_time * 64)
    _, found = cyclic_garbage(lambda: run_switching(MESH, "dual-path", config))
    assert not found, found


def test_run_static_scenario():
    """The Fig. 6.4 pair on the double-channel X-first trees, which
    complete (§6.2)."""
    config = SimConfig(channels_per_link=2)
    result, found = cyclic_garbage(
        lambda: run_static_scenario(FIG_6_4_MESH, "xfirst-tree", fig_6_4_requests(), config)
    )
    assert result.completed
    assert not found, found
