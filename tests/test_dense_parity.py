"""Dense-engine parity: the vectorized SoA core must reproduce the
coroutine reference model event for event.

Every test runs the same workload through ``engine="reference"`` and
``engine="dense"`` under a dyadic configuration (power-of-two bandwidth
and flit size with ``quantize_arrivals=True``), where the reference
engine's float calendar is exactly representable on the dense engine's
integer flit-tick grid.  Parity then means *equality* — identical
latency summaries, simulation time, and delivery counts, not
approximate agreement.

The dense engine serves fault-free path worms (``worm_style`` ``star``
/ ``vc-star``) only; a dense request for any other run — tree,
adaptive and VCT worms — executes on the reference engine with
``quantize_arrivals=True`` and reports ``engine="reference"``
(:func:`test_dense_falls_back_to_reference`).  Resilient runs take no
engine: they always run on the fault-aware reference network.
"""

from __future__ import annotations

import random

import pytest

from repro import registry
from repro.models.request import MulticastRequest
from repro.sim import (
    InvalidConfigError,
    SimConfig,
    run_dynamic,
    run_mixed,
    run_resilient,
    run_static_scenario,
)
from repro.sim.runner import DeadlockDetected
from repro.topology import Hypercube, KAryNCube, Mesh2D

# Dyadic parity base: 2-byte flits on a 2 MB/s channel give a flit time
# of 2**-20 s, so every quantized event lands on an exactly-representable
# float and both engines see the same calendar.
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


def _dense_engine(scheme):
    """The engine an ``engine="dense"`` request for ``scheme`` runs on."""
    return "dense" if registry.get(scheme).worm_style in ("star", "vc-star") else "reference"


def _run_both(topology, scheme, cfg):
    ref = run_dynamic(topology, scheme, cfg, engine="reference")
    dense = run_dynamic(topology, scheme, cfg, engine="dense")
    return ref, dense


# ----------------------------------------------------------------------
# Moderate-load parity across every worm style and topology family
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
        Hypercube(6), "dual-path",
        dict(seed=17, mean_interarrival=300e-6, num_messages=250, num_destinations=6),
        id="dual-path-cube6",
    ),
    pytest.param(
        KAryNCube(8, 2), "dual-path",
        dict(seed=19, mean_interarrival=300e-6, num_messages=250, num_destinations=6),
        id="dual-path-torus8",
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
]


@pytest.mark.parametrize("topology,scheme,kw", MODERATE_CASES)
def test_moderate_load_parity(topology, scheme, kw):
    cfg = SimConfig(**BASE, **kw)
    ref, dense = _run_both(topology, scheme, cfg)
    assert _fingerprint(dense) == _fingerprint(ref)
    assert ref.engine == "reference" and dense.engine == _dense_engine(scheme)


# ----------------------------------------------------------------------
# Load extremes: an idle network and deep saturation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["dual-path", "fixed-path", "xfirst-tree"])
def test_single_message_parity(scheme):
    """One lone multicast on an otherwise idle network: the degenerate
    contention-free calendar must agree exactly."""
    cfg = SimConfig(**BASE, num_messages=1, num_destinations=4, seed=1)
    ref, dense = _run_both(Mesh2D(4, 4), scheme, cfg)
    assert _fingerprint(dense) == _fingerprint(ref)
    assert dense.deliveries == 4


SATURATION_CASES = [
    pytest.param("fixed-path", 5e-6, 31, id="fixed-ia5-s31"),
    pytest.param("fixed-path", 10e-6, 2, id="fixed-ia10-s2"),
    pytest.param("dual-path", 10e-6, 1, id="dual-ia10-s1"),
    pytest.param("dual-path-adaptive", 25e-6, 2, id="adaptive-ia25-s2"),
    pytest.param("virtual-channel-2", 10e-6, 31, id="vc2-ia10-s31"),
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
    ref, dense = _run_both(Mesh2D(8, 8), scheme, cfg)
    assert _fingerprint(dense) == _fingerprint(ref)


# ----------------------------------------------------------------------
# Deadlock parity: both engines must wedge identically
# ----------------------------------------------------------------------


def test_deadlock_parity():
    """Sustained single-channel tree traffic wedges a 4-cube (§6.1); a
    dense request (run on the reference engine) must detect it and
    report the same diagnostic."""
    cube = Hypercube(4)
    cfg = SimConfig(
        **BASE, num_messages=200, num_destinations=8,
        mean_interarrival=50e-6, seed=7,
    )
    errors = {}
    for engine in ("reference", "dense"):
        with pytest.raises(DeadlockDetected) as info:
            run_dynamic(cube, "ecube-tree", cfg, engine=engine)
        errors[engine] = str(info.value)
    assert errors["dense"] == errors["reference"]


# ----------------------------------------------------------------------
# Fault injection: resilient runs execute on the fault-aware reference
# ----------------------------------------------------------------------


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


def test_resilient_zero_rate_matches_dynamic():
    """With no faults configured the resilient runner degenerates to
    the plain dynamic run: on the flit grid (``quantize_arrivals=True``)
    the fault-aware reference network matches the dense engine's run
    event for event."""
    cfg = SimConfig(
        **BASE, seed=5, mean_interarrival=250e-6,
        num_messages=200, num_destinations=5,
    )
    resilient = run_resilient(Mesh2D(8, 8), "dual-path", cfg)
    assert (resilient.engine, resilient.engine_stats) == ("reference", None)
    assert resilient.stats.delivered == resilient.expected_deliveries
    plain = run_dynamic(Mesh2D(8, 8), "dual-path", cfg, engine="dense")
    assert plain.engine == "dense"
    assert _fingerprint(resilient) == _fingerprint(plain)


@pytest.mark.parametrize("scheme,rate", [
    pytest.param("dual-path", 0.05, id="dual-path"),
    pytest.param("dual-path-adaptive", 0.08, id="adaptive"),
    pytest.param("fixed-path", 0.05, id="fixed-path"),
])
def test_resilient_fault_parity(scheme, rate):
    """Faults firing mid-run (kills, retries, detours) on the flit grid:
    a resilient run is a pure function of its config, so the same job
    run by a forked sweep worker resolves identically to the run in
    this process."""
    from repro.parallel import SweepJob, run_sweep

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


def test_mixed_traffic_parity():
    cfg = SimConfig(
        **BASE, seed=3, mean_interarrival=250e-6,
        num_messages=200, num_destinations=5,
    )
    ref = run_mixed(Mesh2D(8, 8), "dual-path", cfg, engine="reference")
    dense = run_mixed(Mesh2D(8, 8), "dual-path", cfg, engine="dense")
    assert (dense.unicast_latency, dense.multicast_latency,
            dense.injected_messages, dense.sim_time) == (
        ref.unicast_latency, ref.multicast_latency,
        ref.injected_messages, ref.sim_time)


# ----------------------------------------------------------------------
# Static scenarios: the §6 bursts injected at time zero
# ----------------------------------------------------------------------


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


def _scenario_both(topology, scheme, requests, cfg):
    ref = run_static_scenario(topology, scheme, requests, cfg, engine="reference")
    dense = run_static_scenario(topology, scheme, requests, cfg, engine="dense")
    assert (ref.engine, dense.engine) == ("reference", _dense_engine(scheme))
    assert (dense.completed, dense.blocked_worms, dense.deliveries, dense.sim_time) == (
        ref.completed, ref.blocked_worms, ref.deliveries, ref.sim_time)
    return ref, dense


@pytest.mark.parametrize("scenario,scheme", [
    pytest.param(_fig_6_1, "ecube-tree", id="fig6.1-ecube-tree"),
    pytest.param(_fig_6_4, "xfirst-tree", id="fig6.4-xfirst-tree"),
])
def test_static_deadlock_parity(scenario, scheme):
    """The §6.1 deadlocks wedge with the same worms blocked (a dense
    request runs the tree worms on the reference engine)."""
    topology, requests = scenario()
    ref, dense = _scenario_both(topology, scheme, requests, SimConfig(**BASE))
    assert not ref.completed and not dense.completed
    assert dense.blocked_worms == ref.blocked_worms > 0


@pytest.mark.parametrize("scheme,channels", [
    pytest.param("dual-path", 1, id="dual-path"),
    pytest.param("tree-xfirst", 2, id="tree-xfirst-double"),
])
def test_static_fix_parity(scheme, channels):
    """The §6.2 fixes complete the Fig. 6.4 pattern whichever engine
    serves the request."""
    mesh, requests = _fig_6_4()
    ref, _ = _scenario_both(
        mesh, scheme, requests, SimConfig(**BASE, channels_per_link=channels)
    )
    assert ref.completed and ref.deliveries == 4


def test_static_burst_parity_batches():
    """A 64-source fixed-path burst on a 6-cube runs on the dense
    engine and matches the reference."""
    cube = Hypercube(6)
    rng = random.Random(1)
    requests = [
        MulticastRequest(
            cube, s, tuple(sorted(rng.sample([v for v in cube.nodes() if v != s], 16)))
        )
        for s in cube.nodes()
    ]
    ref, dense = _scenario_both(cube, "fixed-path", requests, SimConfig(**BASE))
    assert ref.completed and ref.deliveries == 64 * 16
    assert dense.engine == "dense"
    assert dense.engine_stats["events"] + dense.engine_stats["batched_events"] > 0


# ----------------------------------------------------------------------
# Engine selection plumbing and the counters API
# ----------------------------------------------------------------------


def test_engine_counters_exposed():
    cfg = SimConfig(
        **BASE, seed=3, mean_interarrival=250e-6,
        num_messages=100, num_destinations=5,
    )
    ref, dense = _run_both(Mesh2D(8, 8), "fixed-path", cfg)
    assert ref.engine_stats is None
    stats = dense.engine_stats
    assert stats is not None
    # every key benchmarks/e2e and bench_dense_core.py read, too
    for key in ("events", "batched_events", "max_batch_width",
                "windows", "window_aborts", "window_hist", "array_ops",
                "blocks", "wakes", "deliveries", "worms",
                "ticks", "channels"):
        assert key in stats, key
    assert stats["events"] + stats["batched_events"] > 0


def test_unknown_engine_rejected():
    cfg = SimConfig(**BASE, num_messages=10)
    with pytest.raises(ValueError, match="unknown engine"):
        run_dynamic(Mesh2D(4, 4), "dual-path", cfg, engine="sparse")


def _static_run(scenario):
    """``(run, topology)``: ``scenario``'s requests as a run function of
    the driver shape, and the topology they live on."""
    topology, requests = scenario()

    def run(topo, scheme, cfg, engine):
        return run_static_scenario(topo, scheme, requests, cfg, engine=engine)

    return run, topology

#: runs the dense engine does not serve; the configs leave
#: ``quantize_arrivals`` off, so the fallback must switch it on
UNSERVED = [
    pytest.param(run_dynamic, Mesh2D(8, 8), "vct-tree", {}, id="vct-tree"),
    pytest.param(run_dynamic, Mesh2D(8, 8), "xfirst-tree", dict(channels_per_link=2),
                 id="xfirst-tree"),
    pytest.param(run_dynamic, Hypercube(6), "ecube-tree",
                 dict(mean_interarrival=800e-6), id="ecube-tree"),
    pytest.param(run_dynamic, Mesh2D(8, 8), "dual-path-adaptive", {},
                 id="dual-path-adaptive"),
    pytest.param(*_static_run(_fig_6_1), "ecube-tree", {}, id="fig6.1-static"),
    pytest.param(*_static_run(_fig_6_4), "xfirst-tree", {}, id="fig6.4-static"),
]


@pytest.mark.parametrize("run,topology,scheme,kw", UNSERVED)
def test_dense_falls_back_to_reference(run, topology, scheme, kw):
    """Tree, adaptive and VCT worms have no dense kernel: asking for
    dense must run the reference model on the flit grid
    (``quantize_arrivals=True``) and say so."""
    cfg = SimConfig(seed=3, mean_interarrival=300e-6, num_messages=100,
                    num_destinations=4).replace(**kw)
    result = run(topology, scheme, cfg, engine="dense")
    assert result.engine == "reference"
    assert result.engine_stats is None
    ref = run(topology, scheme, cfg.replace(quantize_arrivals=True), engine="reference")
    assert result == ref


def test_sweepjob_validates_engine():
    from repro.parallel import SweepJob

    cfg = SimConfig(**BASE, num_messages=10)
    with pytest.raises(ValueError, match="unknown engine"):
        SweepJob(Mesh2D(4, 4), "dual-path", cfg, engine="sparse")
    job = SweepJob(Mesh2D(4, 4), "dual-path", cfg, engine="dense")
    assert job.engine == "dense"


def test_sweepjob_engine_roundtrip():
    """A dense sweep replication must agree with its reference twin."""
    from repro.parallel import SweepJob, replicate, run_sweep

    cfg = SimConfig(
        **BASE, seed=9, mean_interarrival=300e-6,
        num_messages=100, num_destinations=5,
    )
    results = {}
    for engine in ("reference", "dense"):
        jobs = [
            SweepJob(Mesh2D(6, 6), "dual-path", c, engine=engine)
            for c in replicate(cfg, 2)
        ]
        results[engine] = run_sweep(jobs, workers=1)
    for ref, dense in zip(results["reference"], results["dense"]):
        assert _fingerprint(dense) == _fingerprint(ref)


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
