"""Parity tests for the performance layer.

The fast-path kernel, the topology/labeling caches and the parallel
sweep runner are pure optimizations: every one of them must be
bit-for-bit equivalent to the straightforward computation it replaced.
This suite proves that equivalence —

* cached topology accessors (distance matrix, diameter, channel count)
  against uncached/BFS references;
* the memoized routing function R against the per-call reference
  implementations in :mod:`repro.labeling.reference`, property-based
  over meshes, hypercubes and k-ary n-cubes;
* the three-lane kernel against the heap-only legacy kernel, including
  the FIFO wake-order of ``Event.succeed`` waiter batches (whole runs
  of every worm style and of every driver swap the legacy kernel in
  through the ``Environment`` attribute of :mod:`repro.sim.runner`);
* :func:`repro.parallel.run_sweep` against a serial loop.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.labeling import canonical_labeling
from repro.labeling.reference import (
    ReferenceRouting,
    reference_high_neighbors,
    reference_low_neighbors,
    reference_monotone_candidates,
    reference_route_candidates,
    reference_route_path,
    reference_route_step,
)
from repro.parallel import SweepJob, derive_seed, replicate, run_sweep
import repro.sim.runner as sim_runner
from repro.sim import LegacyEnvironment, SimConfig, derive_fault_seed
from repro.sim.kernel import Environment
from repro.models.request import MulticastRequest
from repro.sim.runner import (
    run_dynamic,
    run_mixed,
    run_resilient,
    run_static_scenario,
    run_switching,
)
from repro.sim.traffic import Router
from repro.topology import Hypercube, KAryNCube, Mesh2D, Mesh3D
from repro.topology.base import Topology

TOPOLOGIES = [
    Mesh2D(5, 4),
    Mesh2D(8, 8),
    Mesh3D(3, 3, 3),
    Hypercube(4),
    KAryNCube(3, 3),
    KAryNCube(4, 2),
]


@st.composite
def topology_and_nodes(draw, distinct=False):
    topology = draw(st.sampled_from(TOPOLOGIES))
    n = topology.num_nodes
    i = draw(st.integers(0, n - 1))
    j = draw(st.integers(0, n - 1))
    if distinct and i == j:
        j = (j + 1) % n
    return topology, topology.node_at(i), topology.node_at(j)


# ----------------------------------------------------------------------
# Topology caches.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=str)
def test_distance_matrix_matches_generic_bfs(topology):
    """The (possibly vectorized) cached matrix equals a per-source BFS
    over the neighbor tables — the definition of graph distance."""
    M = topology.distance_matrix()
    reference = [Topology._bfs_row(topology, i) for i in range(topology.num_nodes)]
    assert np.array_equal(M, np.array(reference))
    # cached: same (read-only) object on every call
    assert topology.distance_matrix() is M
    assert not M.flags.writeable


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=str)
def test_diameter_and_channels_match_matrix(topology):
    M = topology.distance_matrix()
    assert topology.diameter() == int(M.max())
    degree_sum = sum(len(topology.neighbors(v)) for v in topology.nodes())
    assert topology.num_channels == degree_sum


@settings(max_examples=120, deadline=None)
@given(topology_and_nodes())
def test_distance_scalar_matches_matrix(tc):
    topology, u, v = tc
    M = topology.distance_matrix()
    assert topology.distance(u, v) == int(M[topology.index(u), topology.index(v)])


# ----------------------------------------------------------------------
# Labeling caches vs the uncached reference implementation of R.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=str)
def test_label_position_tables(topology):
    labeling = canonical_labeling(topology)
    for v in topology.nodes():
        assert labeling._label_of(v) == labeling.label(v)
        assert labeling.high_neighbors(v) == reference_high_neighbors(labeling, v)
        assert labeling.low_neighbors(v) == reference_low_neighbors(labeling, v)


@settings(max_examples=200, deadline=None)
@given(topology_and_nodes(distinct=True))
def test_routing_function_parity(tc):
    topology, u, v = tc
    labeling = canonical_labeling(topology)
    assert labeling.route_candidates(u, v) == reference_route_candidates(labeling, u, v)
    assert labeling.monotone_candidates(u, v) == reference_monotone_candidates(
        labeling, u, v
    )
    assert labeling.route_step(u, v) == reference_route_step(labeling, u, v)
    assert labeling.route_path(u, v) == reference_route_path(labeling, u, v)
    # the memoized path is served as an immutable tuple of the same walk
    assert list(labeling.route_path_tuple(u, v)) == labeling.route_path(u, v)


# ----------------------------------------------------------------------
# Kernel parity.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("env_cls", [Environment, LegacyEnvironment])
def test_event_succeed_wakes_waiters_fifo(env_cls):
    """Waiters resume in registration order, interleaved with other
    same-time callbacks in strict scheduling order."""
    env = env_cls()
    order = []
    ev = env.event()
    env.schedule(0.0, order.append, "pre")
    for name in ("w1", "w2", "w3"):
        ev.wait(lambda _, name=name: order.append(name))
    env.schedule(0.0, lambda: ev.succeed())
    env.schedule(0.0, order.append, "post")
    env.run()
    # "post" was scheduled before succeed() ran, so its sequence number
    # precedes the waiters'.
    assert order == ["pre", "post", "w1", "w2", "w3"]


def test_fast_and_legacy_kernel_schedule_order_interleaved():
    """Randomized mixed zero-delay/timed workload dispatches in the
    same global order on both kernels."""
    import random

    def drive(env_cls):
        rng = random.Random(1234)
        env = env_cls()
        log = []

        def fire(tag):
            log.append((round(env.now, 9), tag))
            if len(log) < 400:
                delay = rng.choice([0.0, 0.0, 0.5, 1.5])
                env.schedule(delay, fire, f"{tag}/{len(log)}")

        for i in range(5):
            env.schedule(rng.choice([0.0, 1.0]), fire, f"root{i}")
        env.run(until=300.0)
        return log

    assert drive(Environment) == drive(LegacyEnvironment)


#: one scheme per simulable worm style (star twice): the e-cube tree
#: runs on a cube, the others on the 6x6 mesh
KERNEL_PARITY_TOPOLOGY = {"ecube-tree": Hypercube(5)}


@pytest.mark.parametrize("scheme", [
    "dual-path", "multi-path", "tree-xfirst", "virtual-channel-2",
    "dual-path-adaptive", "ecube-tree", "vct-tree",
])
def test_dynamic_results_identical_across_kernels(scheme, monkeypatch):
    topology = KERNEL_PARITY_TOPOLOGY.get(scheme, Mesh2D(6, 6))
    cfg = SimConfig(
        num_messages=150,
        num_destinations=6,
        mean_interarrival=400e-6,
        channels_per_link=2,
        seed=7,
    )
    fast = run_dynamic(topology, scheme, cfg)
    monkeypatch.setattr(sim_runner, "Environment", LegacyEnvironment)
    legacy = run_dynamic(topology, scheme, cfg)
    assert fast.latency == legacy.latency
    assert fast.sim_time == legacy.sim_time
    assert fast.deliveries == legacy.deliveries
    assert fast.worms == legacy.worms


def _on_both_kernels(monkeypatch, run):
    """``run()`` on the lane kernel, then with the runner's calendars
    built on the heap-only kernel."""
    fast = run()
    with monkeypatch.context() as m:
        m.setattr(sim_runner, "Environment", LegacyEnvironment)
        legacy = run()
    return fast, legacy


@pytest.mark.parametrize("scheme", ["dual-path", "dual-path-adaptive", "xfirst-tree"])
def test_resilient_results_identical_across_kernels(scheme, monkeypatch):
    """Faults, kills, retries on kernel Timeouts and adaptive detours
    dispatch alike on both kernels."""
    cfg = SimConfig(
        num_messages=150,
        num_destinations=5,
        mean_interarrival=250e-6,
        channels_per_link=2,
        seed=33,
        link_fault_rate=0.05,
    )
    fast, legacy = _on_both_kernels(
        monkeypatch, lambda: run_resilient(Mesh2D(6, 6), scheme, cfg)
    )
    assert fast.stats.killed_worms > 0
    assert fast == legacy


def test_mixed_results_identical_across_kernels(monkeypatch):
    cfg = SimConfig(num_messages=200, num_destinations=5, mean_interarrival=300e-6, seed=5)
    fast, legacy = _on_both_kernels(
        monkeypatch, lambda: run_mixed(Mesh2D(6, 6), "dual-path", cfg, unicast_fraction=0.4)
    )
    assert fast == legacy


def test_switching_results_identical_across_kernels(monkeypatch):
    """Wormhole, VCT, circuit and store-and-forward runs of the same
    traffic dispatch alike on both kernels."""
    cfg = SimConfig(num_messages=150, num_destinations=5, mean_interarrival=100e-6, seed=5)
    fast, legacy = _on_both_kernels(
        monkeypatch, lambda: run_switching(Mesh2D(6, 6), "dual-path", cfg)
    )
    assert sorted(fast) == ["circuit", "saf", "vct", "wormhole"]
    assert fast == legacy


@pytest.mark.parametrize("scheme,channels", [("ecube-tree", 1), ("dual-path", 1)])
def test_static_scenario_identical_across_kernels(scheme, channels, monkeypatch):
    """The Fig 6.1 burst wedges (and the path version completes) with
    the same worms blocked at the same time on both kernels."""
    cube = Hypercube(3)
    requests = [
        MulticastRequest(cube, src, tuple(v for v in cube.nodes() if v != src))
        for src in (0, 1)
    ]
    cfg = SimConfig(channels_per_link=channels)
    fast, legacy = _on_both_kernels(
        monkeypatch, lambda: run_static_scenario(cube, scheme, requests, cfg)
    )
    assert fast.completed == (scheme == "dual-path")
    assert fast == legacy


def test_reference_routing_path_is_bit_identical(monkeypatch):
    """The benchmark's reconstructed pre-optimization path (legacy
    kernel + uncached routing + per-message validation) produces the
    same simulation as the optimized default path."""
    mesh = Mesh2D(6, 6)
    cfg = SimConfig(
        num_messages=100,
        num_destinations=6,
        mean_interarrival=400e-6,
        channels_per_link=2,
        seed=11,
    )
    router = Router(
        mesh, "dual-path",
        labeling=ReferenceRouting(canonical_labeling(mesh)),
    )
    star_route = router.spec.fn
    validated = []

    def validating(request, labeling):
        star = star_route(request, labeling)
        star.validate(request)
        validated.append(request)
        return star

    router.spec = dataclasses.replace(router.spec, fn=validating)
    fast = run_dynamic(mesh, "dual-path", cfg)
    monkeypatch.setattr(sim_runner, "Environment", LegacyEnvironment)
    baseline = run_dynamic(mesh, "dual-path", cfg, router=router)
    assert len(validated) == cfg.num_messages
    assert baseline.latency == fast.latency
    assert baseline.sim_time == fast.sim_time


# ----------------------------------------------------------------------
# Parallel sweep parity.
# ----------------------------------------------------------------------


def _small_jobs():
    mesh = Mesh2D(5, 5)
    base = SimConfig(
        num_messages=60,
        num_destinations=5,
        mean_interarrival=500e-6,
        channels_per_link=2,
        seed=3,
    )
    return [
        SweepJob(mesh, scheme, cfg)
        for scheme in ("dual-path", "multi-path")
        for cfg in replicate(base, 2)
    ]


def test_run_sweep_parallel_matches_serial_bit_for_bit():
    jobs = _small_jobs()
    serial = [run_dynamic(j.topology, j.scheme, j.config) for j in jobs]
    for workers in (1, 2):
        swept = run_sweep(jobs, workers=workers)
        assert len(swept) == len(serial)
        for a, b in zip(serial, swept):
            assert a.latency == b.latency
            assert a.sim_time == b.sim_time
            assert a.injected_messages == b.injected_messages
            assert a.deliveries == b.deliveries


def test_derive_seed_deterministic_and_spread():
    seeds = [derive_seed(42, i) for i in range(50)]
    assert seeds == [derive_seed(42, i) for i in range(50)]
    assert len(set(seeds)) == 50
    assert all(0 <= s < 2**63 for s in seeds)
    # a different base seed yields an unrelated sequence
    assert set(seeds).isdisjoint(derive_seed(43, i) for i in range(50))


@given(st.integers(min_value=-(2**80), max_value=2**80))
def test_fault_seed_is_derive_seed_at_index_0xfa16(seed):
    """The fault-schedule seed is the sweep's splitmix64 mix at index
    ``0xFA16``, for negative seeds and seeds wider than 64 bits too."""
    assert derive_fault_seed(seed) == derive_seed(seed, 0xFA16)


def test_replicate_assigns_derived_seeds():
    base = SimConfig(seed=42)
    configs = replicate(base, 4)
    assert [c.seed for c in configs] == [derive_seed(42, i) for i in range(4)]
    assert all(c.num_messages == base.num_messages for c in configs)
