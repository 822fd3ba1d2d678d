"""Ablation — switching technology under contention (extends Fig. 2.3
from a contention-free formula to a loaded network).

The same dual-path multicast workload is executed under four switching
substrates by :func:`repro.sim.run_switching`: wormhole routing
(blocked worms hold channels), virtual cut-through (blocked messages
buffer and free their channels), circuit switching (a probe reserves
the whole path first) and store-and-forward (every hop buffers the
whole packet).  Expected shape: at low load wormhole ~ VCT << SAF;
under load VCT degrades more gracefully than wormhole (§2.2.2: "if the
traffic is heavy ... virtual cut-through acts just like
store-and-forward", but it never chains blocked channels).
"""

from __future__ import annotations

from conftest import scaled

from repro.sim import SimConfig, run_switching
from repro.topology import Mesh2D

INTERARRIVALS_US = (2000, 500, 200)


def run():
    mesh = Mesh2D(8, 8)
    rows = []
    for ia in INTERARRIVALS_US:
        cfg = SimConfig(
            num_messages=scaled(300),
            num_destinations=8,
            mean_interarrival=ia * 1e-6,
            seed=51,
        )
        latency = run_switching(mesh, "dual-path", cfg)
        rows.append([ia, *(latency[t].mean * 1e6 for t in ("wormhole", "vct", "circuit", "saf"))])
    return rows


def test_ablation_switching(benchmark, emit):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_switching",
        "Ablation: switching technology under load (8x8 mesh, dual-path, k=8)",
        ["interarrival_us", "wormhole us", "vct us", "circuit us", "saf us"],
        rows,
    )
    low = rows[0]
    # light load: pipelined technologies far below store-and-forward
    assert low[1] < 0.6 * low[4]
    assert abs(low[1] - low[2]) < 0.25 * low[1]
    assert low[3] < 0.6 * low[4]
    # heavy load: VCT at or below wormhole (it releases blocked channels)
    high = rows[-1]
    assert high[2] <= high[1] * 1.1
