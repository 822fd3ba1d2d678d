"""Engine parity on the exact flit grid: the windowed reference engine
against the heap-only calendar.

This file once held the parity suite of the NumPy dense engine, since
removed; it keeps its name so its case ids stay stable.  The oracle is
now :class:`~repro.sim.kernel.LegacyEnvironment`, which never opens a
free-flight window: every case runs the same workload on the runner's
windowed calendar and with the legacy one swapped in, under a dyadic
configuration (power-of-two bandwidth and flit size with
``quantize_arrivals=True``), and parity means *equality* — identical
latency summaries, simulation time and delivery counts.

Only plain path worms fly; tree, adaptive, VCT and virtual-channel
worms run hop by hop (:func:`test_dense_falls_back_to_reference`), and
the removed ``engine="dense"`` is refused for every worm style
(:func:`test_dense_rejects_unserved_worm_styles`).  Bursts at time zero
have no arrival process, so the static tests inject them into each
network directly.  The wider window suite is
``tests/test_free_flight_parity.py``.
"""

from __future__ import annotations

import random

import pytest

import repro.sim.runner as sim_runner
from repro import registry
from repro.models.request import MulticastRequest
from repro.sim import (
    Environment,
    InvalidConfigError,
    LegacyEnvironment,
    Router,
    SimConfig,
    WormholeNetwork,
    inject_specs,
    run_dynamic,
    run_resilient,
)
from repro.topology import Hypercube, KAryNCube, Mesh2D

# Dyadic parity base: 2-byte flits on a 2 MB/s channel give a flit time
# of 2**-20 s, so every quantized event lands on an exactly-representable
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


def _hop_by_hop(run, *args, **kwargs):
    """``run(*args, **kwargs)`` with the runner's calendars on the
    heap-only kernel, which never opens a window."""
    saved = sim_runner.Environment
    sim_runner.Environment = LegacyEnvironment
    try:
        return run(*args, **kwargs)
    finally:
        sim_runner.Environment = saved


def _run_both(topology, scheme, cfg):
    ref = _hop_by_hop(run_dynamic, topology, scheme, cfg)
    return ref, run_dynamic(topology, scheme, cfg)


# ----------------------------------------------------------------------
# Moderate-load parity across path schemes and topology families
# ----------------------------------------------------------------------

MODERATE_CASES = [
    pytest.param(
        Mesh2D(8, 8), "dual-path",
        dict(seed=3, mean_interarrival=300e-6, num_messages=300, num_destinations=6),
        id="dual-path-mesh8",
    ),
    pytest.param(
        Mesh2D(8, 8), "multi-path",
        dict(seed=11, mean_interarrival=200e-6, num_messages=250, num_destinations=5),
        id="multi-path-mesh8",
    ),
    pytest.param(
        Mesh2D(8, 8), "fixed-path",
        dict(seed=7, mean_interarrival=250e-6, num_messages=250, num_destinations=5),
        id="fixed-path-mesh8",
    ),
    pytest.param(
        Mesh2D(8, 8), "dual-path",
        dict(seed=3, mean_interarrival=250e-6, num_messages=200, num_destinations=1),
        id="unicast-mesh8",
    ),
    pytest.param(
        Hypercube(6), "dual-path",
        dict(seed=17, mean_interarrival=300e-6, num_messages=250, num_destinations=6),
        id="dual-path-cube6",
    ),
    pytest.param(
        KAryNCube(8, 2), "dual-path",
        dict(seed=19, mean_interarrival=300e-6, num_messages=250, num_destinations=6),
        id="dual-path-torus8",
    ),
]


@pytest.mark.parametrize("topology,scheme,kw", MODERATE_CASES)
def test_moderate_load_parity(topology, scheme, kw):
    cfg = SimConfig(**BASE, **kw)
    ref, twin = _run_both(topology, scheme, cfg)
    assert _fingerprint(twin) == _fingerprint(ref)
    assert twin.engine == "reference"


# ----------------------------------------------------------------------
# Load extremes: an idle network and deep saturation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["dual-path", "fixed-path"])
def test_single_message_parity(scheme):
    """One lone multicast on an otherwise idle network: the degenerate
    contention-free calendar must agree exactly."""
    cfg = SimConfig(**BASE, num_messages=1, num_destinations=4, seed=1)
    ref, twin = _run_both(Mesh2D(4, 4), scheme, cfg)
    assert _fingerprint(twin) == _fingerprint(ref)
    assert twin.deliveries == 4


SATURATION_CASES = [
    pytest.param("fixed-path", 5e-6, 31, id="fixed-ia5-s31"),
    pytest.param("fixed-path", 10e-6, 2, id="fixed-ia10-s2"),
    pytest.param("dual-path", 10e-6, 1, id="dual-ia10-s1"),
]


@pytest.mark.parametrize("scheme,ia,seed", SATURATION_CASES)
def test_near_saturation_parity(scheme, ia, seed):
    """Interarrivals far below the service time drive the mesh deep
    into contention, where bucket ordering and waiter wakeups decide
    every outcome — the regime that flushed out the scan-time vs
    emission-time scheduling bug."""
    cfg = SimConfig(
        **BASE,
        seed=seed,
        mean_interarrival=ia,
        num_messages=250,
        num_destinations=6,
    )
    ref, twin = _run_both(Mesh2D(8, 8), scheme, cfg)
    assert _fingerprint(twin) == _fingerprint(ref)


# ----------------------------------------------------------------------
# Fault injection: resilient runs execute on the fault-aware reference
# ----------------------------------------------------------------------


def test_resilient_zero_rate_matches_dynamic():
    """With no faults configured the resilient runner degenerates to
    the plain dynamic run: on the flit grid the fault-aware network,
    which never flies, matches the windowed run event for event."""
    cfg = SimConfig(
        **BASE, seed=5, mean_interarrival=250e-6,
        num_messages=200, num_destinations=5,
    )
    resilient = run_resilient(Mesh2D(8, 8), "dual-path", cfg)
    assert (resilient.engine, resilient.engine_stats) == ("reference", None)
    assert resilient.stats.delivered == resilient.expected_deliveries
    plain = run_dynamic(Mesh2D(8, 8), "dual-path", cfg, engine="reference")
    assert plain.engine == "reference"
    assert _fingerprint(resilient) == _fingerprint(plain)


# ----------------------------------------------------------------------
# Static scenarios: the §6 bursts injected at time zero
# ----------------------------------------------------------------------


def _fig_6_4():
    """Two X-first multicasts on a 3x4 mesh (Fig. 6.4)."""
    mesh = Mesh2D(4, 3)
    return mesh, [
        MulticastRequest(mesh, (1, 1), ((0, 2), (3, 1))),
        MulticastRequest(mesh, (2, 1), ((0, 1), (3, 0))),
    ]


def _burst_both(topology, scheme, requests, cfg):
    """Inject ``requests`` at time zero into a fresh network on each
    calendar and run both dry; their outcomes must agree event for
    event.  Returns the outcome and the windowed network."""
    router = Router(topology, scheme, channels_per_link=cfg.channels_per_link)
    outcomes = []
    nets = []
    for env_cls in (Environment, LegacyEnvironment):
        net = WormholeNetwork(env_cls(), cfg)
        for mid, request in enumerate(requests, start=1):
            inject_specs(net, mid, router(request), cfg.channels_per_link, router)
        completed = net.run_to_completion()
        outcomes.append((completed, net.active_worms, net.delivery_latencies(), net.now))
        nets.append(net)
    windowed, other = outcomes
    assert other == windowed
    return windowed, nets[0]


@pytest.mark.parametrize("scheme,channels", [
    pytest.param("dual-path", 1, id="dual-path"),
])
def test_static_fix_parity(scheme, channels):
    """Dual-path routing, a §6.2 fix, completes the Fig. 6.4 pattern on
    both engines alike."""
    mesh, requests = _fig_6_4()
    (completed, blocked, delivered, _), _ = _burst_both(
        mesh, scheme, requests, SimConfig(**BASE, channels_per_link=channels)
    )
    assert completed and blocked == 0 and len(delivered) == 4


def test_static_burst_parity_batches():
    """A 64-source fixed-path burst on a 6-cube matches hop-by-hop
    dispatch on the windowed calendar."""
    cube = Hypercube(6)
    rng = random.Random(1)
    requests = [
        MulticastRequest(
            cube, s, tuple(sorted(rng.sample([v for v in cube.nodes() if v != s], 16)))
        )
        for s in cube.nodes()
    ]
    (completed, _, delivered, _), net = _burst_both(
        cube, "fixed-path", requests, SimConfig(**BASE)
    )
    assert completed and len(delivered) == 64 * 16
    assert net.flight.attempts > 0


# ----------------------------------------------------------------------
# Engine selection plumbing and the counters API
# ----------------------------------------------------------------------


def test_engine_counters_exposed():
    """Every run reports its free-flight window counters, which
    reconcile: each offer taken either ran a window or backed off."""
    cfg = SimConfig(
        **BASE, seed=3, mean_interarrival=25000e-6,
        num_messages=100, num_destinations=5,
    )
    ref, windowed = _run_both(Mesh2D(8, 8), "fixed-path", cfg)
    assert _fingerprint(ref) == _fingerprint(windowed)
    stats = windowed.engine_stats["windows"]
    assert set(stats) == {
        "windows", "hops_flown", "drains_absorbed", "drain_steps", "attempts", "backoffs"
    }
    assert stats["attempts"] == stats["windows"] + stats["backoffs"]
    assert stats["windows"] > 0 and stats["hops_flown"] > 0
    # the heap-only calendar never offers a window, so its drain
    # cursors release every unit the windowed run's windows absorbed
    legacy = dict(ref.engine_stats["windows"])
    assert legacy.pop("drain_steps") == stats["drain_steps"] + stats["drains_absorbed"]
    assert set(legacy.values()) == {0}


def test_unknown_engine_rejected():
    cfg = SimConfig(**BASE, num_messages=10)
    with pytest.raises(ValueError, match="unknown engine"):
        run_dynamic(Mesh2D(4, 4), "dual-path", cfg, engine="sparse")


#: runs whose worms never fly
UNSERVED = [
    pytest.param(Mesh2D(8, 8), "vct-tree", {}, id="vct-tree"),
    pytest.param(Mesh2D(8, 8), "xfirst-tree", dict(channels_per_link=2), id="xfirst-tree"),
    pytest.param(Hypercube(6), "ecube-tree", dict(mean_interarrival=800e-6), id="ecube-tree"),
    pytest.param(Mesh2D(8, 8), "dual-path-adaptive", {}, id="dual-path-adaptive"),
]


@pytest.mark.parametrize("topology,scheme,kw", UNSERVED)
def test_dense_falls_back_to_reference(topology, scheme, kw):
    """Tree, adaptive and VCT worms are no plain path worms: the
    removed dense engine is refused, ``engine="auto"`` records the
    worm style as the reason no worm flies, and the run opens no
    window and matches a hop-by-hop one."""
    cfg = SimConfig(seed=3, mean_interarrival=300e-6, num_messages=100,
                    num_destinations=4).replace(**kw)
    with pytest.raises(InvalidConfigError, match="removed"):
        run_dynamic(topology, scheme, cfg, engine="dense")
    result = run_dynamic(topology, scheme, cfg, engine="auto")
    assert result.engine == "reference"
    assert result.engine_stats["auto"]["reason"] == "worm-style"
    assert result.engine_stats["windows"]["windows"] == 0
    ref = _hop_by_hop(run_dynamic, topology, scheme, cfg, engine="reference")
    assert "auto" not in ref.engine_stats
    assert _fingerprint(result) == _fingerprint(ref)


def test_dense_rejects_unserved_worm_styles():
    """The dense engine is gone: a dense request raises for every worm
    style, while ``engine="auto"`` runs each on the reference engine."""
    cfg = SimConfig(**BASE, num_messages=10, num_destinations=4, channels_per_link=2)
    every = registry.specs(simulable=True, include_families=False) + [
        registry.get("virtual-channel-2")
    ]
    assert {s.worm_style for s in every} == {
        "adaptive", "star", "tree", "vc-star", "vct-tree", "xfirst-tree"
    }
    for spec in every:
        topology = Mesh2D(4, 4) if "mesh2d" in spec.topologies else Hypercube(4)
        with pytest.raises(InvalidConfigError, match="removed"):
            run_dynamic(topology, spec.name, cfg, engine="dense")
        assert run_dynamic(topology, spec.name, cfg, engine="auto").engine == "reference"


def test_sweepjob_engine_roundtrip():
    """A dynamic sweep job on a light exact-grid load flies its worms,
    and every replication agrees with its hop-by-hop twin."""
    from repro.parallel import SweepJob, replicate, run_sweep

    cfg = SimConfig(
        **BASE, seed=9, mean_interarrival=360000e-6, num_messages=30,
        num_destinations=4, channels_per_link=2,
    )
    jobs = replicate(SweepJob(Hypercube(7), "fixed-path", cfg), 2)
    for job, swept in zip(jobs, run_sweep(jobs, workers=1)):
        assert swept.engine == "reference"
        assert swept.engine_stats["windows"]["windows"] > 0
        ref = _hop_by_hop(run_dynamic, job.topology, job.scheme, job.config)
        assert _fingerprint(swept) == _fingerprint(ref)


# ----------------------------------------------------------------------
# SimConfig validation (typed construction errors)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("field,value", [
    ("message_bytes", 0),
    ("flit_bytes", -1),
    ("bandwidth", 0.0),
    ("mean_interarrival", -1e-6),
    ("num_destinations", 0),
    ("num_messages", -1),
    ("warmup_fraction", 1.5),
    ("channels_per_link", 0),
    ("link_fault_rate", -0.1),
    ("node_fault_rate", 2.0),
    ("fault_mtbf", -1.0),
    ("fault_window", 0.0),
    ("max_retries", -1),
    ("retry_timeout", 0.0),
    ("retry_backoff", 0.0),
])
def test_invalid_config_rejected(field, value):
    with pytest.raises(InvalidConfigError, match=field):
        SimConfig(**{field: value})


def test_invalid_config_is_value_error():
    """Callers that caught ValueError before the typed subclass existed
    keep working."""
    with pytest.raises(ValueError):
        SimConfig(bandwidth=-1)
    assert issubclass(InvalidConfigError, ValueError)
