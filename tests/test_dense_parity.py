"""Dense-engine parity: the vectorized SoA core must reproduce the
coroutine reference model event for event.

Every test runs the same workload through the reference model and its
twin under a dyadic configuration (power-of-two bandwidth and flit size
with ``quantize_arrivals=True``), where the reference engine's float
calendar is exactly representable on the dense engine's integer
flit-tick grid.  Parity then means *equality* — identical latency
summaries, simulation time, and delivery counts, not approximate
agreement.

The dense engine serves fault-free plain path worms (``worm_style``
``star``) only, and only :func:`run_dynamic` selects it; a dense
request for virtual-channel, tree, adaptive or VCT worms raises, and
``engine="auto"`` runs them on the reference engine
(:func:`test_dense_falls_back_to_reference`,
:func:`test_dense_rejects_unserved_worm_styles`).  The twin of the
other worm styles is their fault-aware subclass, whose parity cases
live in ``tests/test_faults_sim.py``.  Bursts at time zero have no
arrival process, so the static tests inject them into each network
directly.
"""

from __future__ import annotations

import random

import pytest

from repro import registry
from repro.models.request import MulticastRequest
from repro.sim import (
    DenseEngine,
    Environment,
    InvalidConfigError,
    Router,
    SimConfig,
    WormholeNetwork,
    inject_specs,
    run_dynamic,
    run_resilient,
)
from repro.sim.runner import DENSE_WORM_STYLES
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


def _run_both(topology, scheme, cfg):
    ref = run_dynamic(topology, scheme, cfg, engine="reference")
    return ref, run_dynamic(topology, scheme, cfg, engine="dense")


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
    assert twin.engine == "dense"


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
    """Inject ``requests`` at time zero into a fresh reference network
    and a fresh dense engine and run both dry; their outcomes must
    agree event for event.  Returns the reference outcome and the
    dense engine."""
    router = Router(topology, scheme, channels_per_link=cfg.channels_per_link)
    twin = DenseEngine(cfg)
    outcomes = []
    for net in (WormholeNetwork(Environment(), cfg), twin):
        for mid, request in enumerate(requests, start=1):
            inject_specs(net, mid, router(request), cfg.channels_per_link, router)
        completed = net.run_to_completion()
        outcomes.append((completed, net.active_worms, net.delivery_latencies(), net.now))
    ref, other = outcomes
    assert other == ref
    return ref, twin


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
    """A 64-source fixed-path burst on a 6-cube matches the reference
    on the dense engine, which commits work in its kernels."""
    cube = Hypercube(6)
    rng = random.Random(1)
    requests = [
        MulticastRequest(
            cube, s, tuple(sorted(rng.sample([v for v in cube.nodes() if v != s], 16)))
        )
        for s in cube.nodes()
    ]
    (completed, _, delivered, _), dense = _burst_both(
        cube, "fixed-path", requests, SimConfig(**BASE)
    )
    assert completed and len(delivered) == 64 * 16
    stats = dense.cache_stats()
    assert stats["events"] + stats["batched_events"] > 0


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


#: runs the dense engine does not serve
UNSERVED = [
    pytest.param(Mesh2D(8, 8), "vct-tree", {}, id="vct-tree"),
    pytest.param(Mesh2D(8, 8), "xfirst-tree", dict(channels_per_link=2), id="xfirst-tree"),
    pytest.param(Hypercube(6), "ecube-tree", dict(mean_interarrival=800e-6), id="ecube-tree"),
    pytest.param(Mesh2D(8, 8), "dual-path-adaptive", {}, id="dual-path-adaptive"),
]


@pytest.mark.parametrize("topology,scheme,kw", UNSERVED)
def test_dense_falls_back_to_reference(topology, scheme, kw):
    """Tree, adaptive and VCT worms have no dense kernel: a dense
    request raises, and ``engine="auto"`` falls back to the reference
    engine, says why, and matches an explicit reference run."""
    cfg = SimConfig(seed=3, mean_interarrival=300e-6, num_messages=100,
                    num_destinations=4).replace(**kw)
    with pytest.raises(InvalidConfigError, match="path worms only"):
        run_dynamic(topology, scheme, cfg, engine="dense")
    result = run_dynamic(topology, scheme, cfg, engine="auto")
    assert result.engine == "reference"
    assert result.engine_stats["auto"]["reason"] == "worm-style"
    ref = run_dynamic(topology, scheme, cfg, engine="reference")
    assert ref.engine_stats is None
    assert _fingerprint(result) == _fingerprint(ref)


def test_dense_rejects_unserved_worm_styles():
    """Virtual-channel, tree, adaptive and VCT worms have no dense
    kernel: a dense request raises, while ``engine="auto"`` runs them
    on the reference engine."""
    cfg = SimConfig(**BASE, num_messages=10, num_destinations=4, channels_per_link=2)
    unserved = [
        spec for spec in registry.specs(simulable=True, include_families=False)
        if spec.worm_style not in DENSE_WORM_STYLES
    ] + [registry.get("virtual-channel-2")]
    assert {s.worm_style for s in unserved} == {
        "adaptive", "tree", "vc-star", "vct-tree", "xfirst-tree"
    }
    for spec in unserved:
        topology = Mesh2D(4, 4) if "mesh2d" in spec.topologies else Hypercube(4)
        with pytest.raises(InvalidConfigError, match="path worms only"):
            run_dynamic(topology, spec.name, cfg, engine="dense")
        assert run_dynamic(topology, spec.name, cfg, engine="auto").engine == "reference"


def test_sweepjob_engine_roundtrip():
    """A dynamic sweep job runs on the engine the run picks: on a light
    exact-grid load that is the dense engine, and every replication
    agrees with its reference twin."""
    from repro.parallel import SweepJob, replicate, run_sweep

    cfg = SimConfig(
        **BASE, seed=9, mean_interarrival=360000e-6, num_messages=30,
        num_destinations=4, channels_per_link=2,
    )
    jobs = replicate(SweepJob(Hypercube(7), "fixed-path", cfg), 2)
    for job, swept in zip(jobs, run_sweep(jobs, workers=1)):
        assert swept.engine == "dense"
        ref = run_dynamic(job.topology, job.scheme, job.config, engine="reference")
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
