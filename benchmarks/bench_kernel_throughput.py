"""Kernel fast-path and parallel-sweep throughput benchmark.

Measures three things and writes ``BENCH_kernel.json`` at the repo
root:

1. **Event kernel throughput** — events/sec dispatched by the fast
   three-lane kernel (:class:`~repro.sim.kernel.Environment`) vs the
   seed heap-only kernel (:class:`~repro.sim.kernel.LegacyEnvironment`)
   on a workload of zero-delay callbacks and one-flit hop chains with a
   populated timer heap (the shape a wormhole run produces:
   channel-release retries, event wake-ups and hop timers racing
   standing timers).

2. **Dynamic-run throughput** — worms/sec through a full
   ``run_dynamic`` on the two kernels with everything else equal,
   isolating the kernel's effect on a real simulation (the legacy
   kernel is swapped in through the ``Environment`` attribute of
   :mod:`repro.sim.runner`).

3. **Long-route run** — the ``sim-zero-load`` workload's cube:10
   fixed-path cell (8 destinations, power-of-two flit time, quantized
   arrivals, light load): the windowed kernel against the heap-only
   one, which never opens a free-flight window, with the share of hops
   the windows flew.

4. **Sweep wall time** — a Fig. 7.8-style load sweep run three ways:
   serially on the *pre-optimization code path* (legacy kernel +
   uncached :class:`~repro.labeling.reference.ReferenceRouting` +
   per-message validation — the seed baseline, reconstructed in-repo
   so both code paths stay benchmarkable), serially on the optimized
   path, and through :func:`repro.parallel.run_sweep` asking for 4
   workers (``run_sweep`` caps them at the core count; the report's
   ``workers`` field is the count left after the cap).

Every measured pairing also asserts bit-identical simulation results
across code paths — a speedup that changed the answers would be a bug,
not a win.

Run directly (``python benchmarks/bench_kernel_throughput.py``,
``--smoke`` for a seconds-long CI variant) or via pytest
(``pytest benchmarks/bench_kernel_throughput.py``), which exercises
the smoke workload and asserts the fast kernel wins.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.labeling import canonical_labeling
from repro.labeling.reference import ReferenceRouting
import repro.sim.runner as sim_runner
from repro.parallel import SweepJob, run_sweep
from repro.sim import LegacyEnvironment, SimConfig  # lint: ignore[no-legacy-environment]
from repro.sim.kernel import Environment
from repro.sim.reference import WormholeNetwork
from repro.sim.runner import run_dynamic
from repro.sim.traffic import Router
from repro.topology import Hypercube, Mesh2D

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_kernel.json"

# Event-kernel workload: `chains` bursts of `steps` chained zero-delay
# callbacks and `hop_chains` chains of `steps` hops one flit time apart
# (a worm's hop timers, which take the kernel's flit lane), racing
# `timers` standing timed events (so the legacy heap stays deep, as in
# a loaded wormhole run).
FULL_KERNEL = dict(chains=100, hop_chains=100, steps=2000, timers=5000)
SMOKE_KERNEL = dict(chains=20, hop_chains=20, steps=200, timers=500)
#: the hop delay: the paper's flit time, 0.1 us at 20 MB/s
FLIT_TIME = SimConfig().flit_time

# Dynamic-run workload (Fig. 7.8 parameters, one load point).
FULL_DYNAMIC = dict(messages=2000, interarrival_us=300)
SMOKE_DYNAMIC = dict(messages=100, interarrival_us=300)

# Long-route workload: the sim-zero-load cube:10 d8 cell (its seed is
# the e2e golden seed, 29).
FULL_LONG_ROUTE = dict(messages=1000)
SMOKE_LONG_ROUTE = dict(messages=100)
LONG_ROUTE_CONFIG = dict(
    bandwidth=2**21, flit_bytes=2, quantize_arrivals=True,
    mean_interarrival=0.36, channels_per_link=2, num_destinations=8, seed=29,
)

# Sweep workload (Fig. 7.8-style: scheme x load grid on the
# double-channel 8x8 mesh, 10 destinations, seed 42).
FULL_SWEEP = dict(messages=500, interarrivals_us=(2000, 1000, 500, 300))
SMOKE_SWEEP = dict(messages=60, interarrivals_us=(1000, 300))
SWEEP_SCHEMES = ("dual-path", "multi-path")
SWEEP_WORKERS = 4


def _noop() -> None:
    pass


def _on_legacy_kernel(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the runner's reference-engine
    calendars built on the seed heap-only kernel."""
    sim_runner.Environment = LegacyEnvironment  # lint: ignore[no-legacy-environment]
    try:
        return fn(*args, **kwargs)
    finally:
        sim_runner.Environment = Environment


def _best_of(fn, repeats: int):
    """Run ``fn`` ``repeats`` times; return (best wall seconds, last
    result).  Best-of measurement suppresses scheduler noise."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        if wall < best:
            best = wall
    return best, result


def events_per_second(env_cls, chains: int, hop_chains: int, steps: int, timers: int):
    """Dispatch the chain workload on one kernel; returns (events/sec,
    events dispatched)."""
    env = env_cls()
    env.set_lane_delay(FLIT_TIME)  # as a WormholeNetwork on it would
    for i in range(timers):
        env.schedule(1e6 + i, _noop)
    dispatched = [0]

    def step(remaining: int) -> None:
        dispatched[0] += 1
        if remaining:
            env.schedule(0.0, step, remaining - 1)

    def hop(remaining: int) -> None:
        dispatched[0] += 1
        if remaining:
            env.schedule(FLIT_TIME, hop, remaining - 1)

    for _ in range(chains):
        env.schedule(0.0, step, steps)
    for _ in range(hop_chains):
        env.schedule(FLIT_TIME, hop, steps)
    t0 = time.perf_counter()
    env.run(until=1.0)  # standing timers stay pending
    wall = time.perf_counter() - t0
    assert dispatched[0] == (chains + hop_chains) * (steps + 1)
    return dispatched[0] / wall, dispatched[0]


def bench_event_kernel(params: dict) -> dict:
    legacy_eps, n = events_per_second(LegacyEnvironment, **params)  # lint: ignore[no-legacy-environment]
    fast_eps, n2 = events_per_second(Environment, **params)
    assert n == n2
    return {
        "workload": dict(params, events=n),
        "legacy_events_per_sec": round(legacy_eps),
        "fast_events_per_sec": round(fast_eps),
        "speedup": round(fast_eps / legacy_eps, 2),
    }


def _dynamic_config(messages: int, interarrival_us: float) -> SimConfig:
    return SimConfig(
        num_messages=messages,
        num_destinations=10,
        mean_interarrival=interarrival_us * 1e-6,
        channels_per_link=2,
        seed=42,
    )


def bench_dynamic_run(params: dict, repeats: int = 2) -> dict:
    mesh = Mesh2D(8, 8)
    cfg = _dynamic_config(params["messages"], params["interarrival_us"])

    legacy_wall, legacy = _best_of(
        lambda: _on_legacy_kernel(run_dynamic, mesh, "dual-path", cfg),
        repeats,
    )
    fast_wall, fast = _best_of(lambda: run_dynamic(mesh, "dual-path", cfg), repeats)

    identical = legacy.latency == fast.latency and legacy.sim_time == fast.sim_time
    assert identical, "fast kernel changed simulation results"
    return {
        "workload": dict(params, scheme="dual-path", topology="mesh:8x8", worms=fast.worms),
        "legacy_worms_per_sec": round(legacy.worms / legacy_wall),
        "fast_worms_per_sec": round(fast.worms / fast_wall),
        "speedup": round((fast.worms / fast_wall) / (legacy.worms / legacy_wall), 2),
        "results_identical": identical,
    }


def _routed_hops(fn):
    """``fn()`` and the hops of every path it injected."""
    hops = [0]
    inject = WormholeNetwork.inject_path

    def counted(net, message_id, nodes, *args, **kwargs):
        hops[0] += len(nodes) - 1
        return inject(net, message_id, nodes, *args, **kwargs)

    WormholeNetwork.inject_path = counted
    try:
        return fn(), hops[0]
    finally:
        WormholeNetwork.inject_path = inject


def bench_long_route_run(params: dict, repeats: int = 2) -> dict:
    cube = Hypercube(10)
    cfg = SimConfig(num_messages=params["messages"], **LONG_ROUTE_CONFIG)
    legacy_wall, legacy = _best_of(
        lambda: _on_legacy_kernel(run_dynamic, cube, "fixed-path", cfg), repeats
    )
    fast_wall, fast = _best_of(lambda: run_dynamic(cube, "fixed-path", cfg), repeats)
    _, hops = _routed_hops(lambda: run_dynamic(cube, "fixed-path", cfg))

    def outcome(r):
        return (r.latency, r.sim_time, r.deliveries, r.worms, r.injected_messages)

    identical = outcome(legacy) == outcome(fast)
    assert identical, "free-flight windows changed simulation results"
    windows = fast.engine_stats["windows"]
    return {
        "workload": dict(params, scheme="fixed-path", topology="cube:10",
                         worms=fast.worms, hops=hops,
                         **{k: v for k, v in LONG_ROUTE_CONFIG.items() if k != "seed"}),
        "legacy_s": round(legacy_wall, 3),
        "windowed_s": round(fast_wall, 3),
        "speedup": round(legacy_wall / fast_wall, 2),
        "hops_flown_share": round(windows["hops_flown"] / hops, 4),
        "windows": windows,
        "results_identical": identical,
    }


def _sweep_jobs(params: dict):
    mesh = Mesh2D(8, 8)
    return [
        SweepJob(mesh, scheme, _dynamic_config(params["messages"], ia))
        for scheme in SWEEP_SCHEMES
        for ia in params["interarrivals_us"]
    ]


def _validating(fn):
    """``fn`` followed by a check of each route against its request."""

    def routed(request, *args, **kwargs):
        route = fn(request, *args, **kwargs)
        route.validate(request)
        return route

    return routed


def _run_seed_path(job: SweepJob):
    """One sweep point on the reconstructed pre-optimization path."""
    router = Router(
        job.topology,
        job.scheme,
        labeling=ReferenceRouting(canonical_labeling(job.topology)),
    )
    router.spec = dataclasses.replace(router.spec, fn=_validating(router.spec.fn))
    return _on_legacy_kernel(
        run_dynamic, job.topology, job.scheme, job.config, router=router
    )


def bench_sweep(params: dict, repeats: int = 2) -> dict:
    jobs = _sweep_jobs(params)

    seed_wall, seed_results = _best_of(
        lambda: [_run_seed_path(j) for j in jobs], repeats
    )
    serial_wall, serial_results = _best_of(
        lambda: [run_dynamic(j.topology, j.scheme, j.config) for j in jobs], repeats
    )
    parallel_wall, parallel_results = _best_of(
        lambda: run_sweep(jobs, workers=SWEEP_WORKERS), repeats
    )

    identical = all(
        a.latency == b.latency == c.latency and a.sim_time == b.sim_time == c.sim_time
        for a, b, c in zip(seed_results, serial_results, parallel_results)
    )
    assert identical, "sweep results diverged between code paths"
    return {
        "workload": dict(
            params,
            schemes=list(SWEEP_SCHEMES),
            topology="mesh:8x8",
            jobs=len(jobs),
            interarrivals_us=list(params["interarrivals_us"]),
        ),
        "seed_path_serial_s": round(seed_wall, 3),
        "optimized_serial_s": round(serial_wall, 3),
        "run_sweep_workers4_s": round(parallel_wall, 3),
        "workers": min(SWEEP_WORKERS, os.cpu_count() or 1),
        "optimized_serial_vs_seed_ratio": round(serial_wall / seed_wall, 3),
        "parallel_vs_seed_serial_ratio": round(parallel_wall / seed_wall, 3),
        "parallel_vs_optimized_serial_ratio": round(parallel_wall / serial_wall, 3),
        "results_identical": identical,
    }


def run_benchmark(smoke: bool = False) -> dict:
    report = {
        "benchmark": "bench_kernel_throughput",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "event_kernel": bench_event_kernel(SMOKE_KERNEL if smoke else FULL_KERNEL),
        "dynamic_run": bench_dynamic_run(
            SMOKE_DYNAMIC if smoke else FULL_DYNAMIC, repeats=1 if smoke else 3
        ),
        "long_route_run": bench_long_route_run(
            SMOKE_LONG_ROUTE if smoke else FULL_LONG_ROUTE, repeats=1 if smoke else 3
        ),
        "sweep": bench_sweep(
            SMOKE_SWEEP if smoke else FULL_SWEEP, repeats=1 if smoke else 3
        ),
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long CI variant of the workloads")
    parser.add_argument("--output", type=Path, default=OUTPUT,
                        help=f"where to write the JSON report (default {OUTPUT})")
    args = parser.parse_args(argv)
    report = run_benchmark(smoke=args.smoke)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}")
    return 0


# ----------------------------------------------------------------------
# pytest entry point (collected via the bench_*.py pattern): the smoke
# workload must show the fast kernel ahead with identical results.
# ----------------------------------------------------------------------

def test_kernel_fast_path_beats_legacy():
    report = run_benchmark(smoke=True)
    assert report["event_kernel"]["speedup"] > 1.0
    assert report["dynamic_run"]["results_identical"]
    assert report["long_route_run"]["results_identical"]
    assert report["sweep"]["results_identical"]
    # the optimized serial path must beat the reconstructed seed path
    assert report["sweep"]["optimized_serial_vs_seed_ratio"] < 1.0


if __name__ == "__main__":
    raise SystemExit(main())
