"""Routing-service benchmark: warm-cache throughput and the chaos tax.

Measures the resilient routing service (:mod:`repro.service`) on a
dissertation-scale 8x8 mesh workload and writes ``BENCH_service.json``
at the repo root.  Three cells:

* ``warm_cache`` — a zipf-free cyclic workload (many requests over a
  small pattern set) with the LRU route-plan cache on; reports
  routed-destinations/sec and the *measured* service-level hit rate
  (``cache_served / requests`` from the service's own counters —
  admission hits plus dispatcher replays, i.e. requests actually
  answered from cache, not probe ratios that a pipelined burst
  skews).  One full-size block lasts well under 0.1 s, so the full
  cell repeats it, each block on a fresh service, until the blocks
  have run ``warm_min_wall_s`` (1 s) and reports the median block and
  the interquartile range of the block throughputs;
* ``cold_clean`` — all-distinct requests with the cache disabled: the
  pure supervised-worker throughput floor;
* ``cold_chaos`` — the same distinct workload under a seeded
  :class:`~repro.service.chaos.ChaosPlan` (kills, delays, drops,
  stalls at ~12% of requests).  The cell asserts the robustness
  contract while timing it: every request terminal, zero lost, and
  reports the chaos/clean throughput ratio — the price of surviving.

The ``smoke_baseline`` section (warm-cache + cold-clean only; chaos
wall time is dominated by deliberately injected sleeps, so gating on
it would be noise) is what CI's perf-smoke job compares fresh runs
against via ``--check-against``, failing on a >2x throughput
regression.

Run directly (``python benchmarks/bench_service.py``, ``--smoke`` for
the seconds-long CI variant) or via pytest, which runs the smoke
matrix and asserts the accounting invariants.
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import sys
import time
import zlib
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import parse_topology
from repro.models.request import random_multicast
from repro.service import ChaosPlan, RouteService, ServiceConfig
from repro.service.protocol import RouteRequest
from conftest import smoke_gate_main

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_service.json"

TOPOLOGY = "mesh:8x8"
SCHEME = "dual-path"
K = 4  # destinations per request
SEED = 20260807

FULL = dict(requests=1200, patterns=32, workers=4, repeats=2, warm_min_wall_s=1.0)
SMOKE = dict(requests=240, patterns=16, workers=2, repeats=1)

CHAOS = dict(kill_rate=0.05, delay_rate=0.05, drop_rate=0.01, stall_rate=0.01,
             delay_s=0.02)


def _patterns(count: int) -> list[tuple]:
    """``count`` distinct (source, destinations) pairs, reproducible
    across processes (crc32 seed, not salted ``hash()``)."""
    topology = parse_topology(TOPOLOGY)
    rng = random.Random(SEED + zlib.crc32(TOPOLOGY.encode()))
    out = []
    for _ in range(count):
        req = random_multicast(topology, K, rng)
        out.append((req.source, tuple(req.destinations)))
    return out


def _config(params: dict, *, cache: bool, chaos: ChaosPlan | None = None) -> ServiceConfig:
    return ServiceConfig(
        workers=params["workers"],
        queue_bound=params["requests"] + 8,
        cache_capacity=1024 if cache else 0,
        # clean cells submit open-loop, so the deadline must cover the
        # whole burst's queueing; the chaos cell is windowed (deadlines
        # anchor near dispatch) and a dropped reply holds its worker
        # for the full remaining deadline, so shorter is truer there
        request_deadline=2.0 if chaos is not None else 5.0,
        heartbeat_timeout=0.5,
        breaker_threshold=1_000_000,  # measure recovery, not breakers
        seed=SEED,
        chaos=chaos,
    )


def _drive(
    service: RouteService, workload: list[tuple], window: int | None = None
) -> tuple[float, dict, list]:
    """Submit the workload and wait for every terminal response;
    returns (wall seconds, drain report, responses).

    ``window`` bounds the in-flight count (closed-loop load).  The
    clean cells submit as one open-loop burst — the cache and the
    worker pool drain it well inside the deadline — but under chaos a
    burst anchors every deadline at t0, so requests queued behind
    injected faults expire *in the queue* and the cell measures
    deadline bookkeeping instead of recovery throughput."""
    t0 = time.perf_counter()
    futures = []
    for i, (source, destinations) in enumerate(workload):
        if window is not None:
            while sum(1 for f in futures if not f.done()) >= window:
                time.sleep(0.001)
        futures.append(
            service.submit(
                RouteRequest(
                    request_id=i,
                    topology=TOPOLOGY,
                    scheme=SCHEME,
                    source=source,
                    destinations=destinations,
                )
            )
        )
    responses = [f.result(timeout=120) for f in futures]
    wall = time.perf_counter() - t0
    report = service.drain(timeout=30)
    return wall, report, responses


def _assert_accounted(cell_name: str, report: dict, responses: list) -> None:
    """The zero-lost-requests contract every cell must honour."""
    counters = report["counters"]
    assert report["outstanding"] == 0, (cell_name, report["outstanding"])
    assert counters["completed"] == counters["submitted"] == len(responses), (
        cell_name,
        counters,
    )
    ids = [r.request_id for r in responses]
    assert ids == list(range(len(responses))), f"{cell_name}: id mismatch"
    # every cache-served request counts exactly one cache hit, whether
    # admission or the dispatcher found the plan
    assert report["cache"]["hits"] == counters["cache_served"], (
        cell_name,
        report["cache"],
        counters["cache_served"],
    )


def measure_cell(params: dict, name: str, *, cache: bool, chaos: dict | None) -> dict:
    patterns = _patterns(
        params["patterns"] if cache else params["requests"]
    )
    workload = [patterns[i % len(patterns)] for i in range(params["requests"])]
    plan = None if chaos is None else ChaosPlan(seed=SEED, **chaos)

    window = 8 * params["workers"] if plan is not None else None
    min_wall = params.get("warm_min_wall_s", 0.0) if cache else 0.0
    blocks = []
    while len(blocks) < params["repeats"] or sum(b[0] for b in blocks) < min_wall:
        with RouteService(_config(params, cache=cache, chaos=plan)) as service:
            blocks.append(_drive(service, workload, window=window))
        _assert_accounted(name, *blocks[-1][1:])

    blocks.sort(key=lambda b: b[0])
    spread = {}
    if min_wall:
        # the median block, and the spread of the block throughputs
        wall, report, responses = blocks[len(blocks) // 2]
        rates = [len(workload) * K / b[0] for b in blocks]
        q1, _, q3 = statistics.quantiles(rates, n=4)
        throughput = statistics.median(rates)
        spread = {
            "blocks": len(blocks),
            "blocks_wall_s": round(sum(b[0] for b in blocks), 4),
            "routed_destinations_per_sec_iqr": round(q3 - q1, 2),
        }
    else:  # the best of the repeats
        wall, report, responses = blocks[0]
        throughput = len(workload) * K / wall
    counters = report["counters"]
    ok = sum(1 for r in responses if r.ok)
    cell = {
        "cell": name,
        "requests": len(workload),
        "destinations_per_request": K,
        "workers": params["workers"],
        "wall_s": round(wall, 4),
        "requests_per_sec": round(throughput / K, 2),
        "routed_destinations_per_sec": round(throughput, 2),
        **spread,
        "ok": ok,
        "typed_errors": dict(report["errors"]),
        "cache_hit_rate": round(counters["cache_served"] / len(workload), 4),
        "cache_served": counters["cache_served"],
        "cache_probe_stats": report["cache"],
    }
    if plan is not None:
        cell["chaos"] = plan.to_json()
        cell["chaos_struck"] = sum(
            counters[f"chaos_{a}s"] for a in ("kill", "delay", "drop", "stall")
        )
        cell["retries"] = counters["retries"]
        cell["worker_restarts"] = counters["worker_restarts"]
        cell["timeouts"] = counters["timeouts"]
    return cell


def run_benchmark(smoke: bool = False) -> dict:
    params = SMOKE if smoke else FULL
    cells = {}
    for name, cache, chaos in (
        ("warm_cache", True, None),
        ("cold_clean", False, None),
        ("cold_chaos", False, CHAOS),
    ):
        cell = measure_cell(params, name, cache=cache, chaos=chaos)
        print(
            f"{name:>11}: {cell['routed_destinations_per_sec']:>10.2f} "
            f"routed-dests/s, hit rate {cell['cache_hit_rate']:.3f}",
            file=sys.stderr,
        )
        cells[name] = cell
    return {
        "benchmark": "bench_service",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": {
            **params,
            "topology": TOPOLOGY,
            "scheme": SCHEME,
            "k": K,
            "seed": SEED,
            "chaos": CHAOS,
        },
        "cells": list(cells.values()),
        "chaos_throughput_ratio": round(
            cells["cold_chaos"]["requests_per_sec"]
            / cells["cold_clean"]["requests_per_sec"],
            3,
        ),
        "smoke_baseline": _smoke_baseline(cells if smoke else None),
    }


def _smoke_baseline(smoke_cells: dict | None) -> list[dict]:
    """Throughput of the *smoke-sized* clean cells — what CI's
    perf-smoke job compares against.  A full run re-measures them at
    smoke scale (full-scale numbers use more workers and longer
    workloads, so they are not comparable); a smoke run reuses its own
    cells."""
    if smoke_cells is None:
        smoke_cells = {
            name: measure_cell(SMOKE, name, cache=cache, chaos=None)
            for name, cache in (("warm_cache", True), ("cold_clean", False))
        }
    return [
        {
            "cell": name,
            "routed_destinations_per_sec": smoke_cells[name][
                "routed_destinations_per_sec"
            ],
        }
        for name in ("warm_cache", "cold_clean")
    ]


def main(argv=None) -> int:
    return smoke_gate_main(
        argv, __doc__, run_benchmark, OUTPUT, ("cell",), "routed_destinations_per_sec"
    )


# ----------------------------------------------------------------------
# pytest entry point (collected via the bench_*.py pattern): the smoke
# workload must hold the accounting contract and a real cache win.
# ----------------------------------------------------------------------

def test_service_smoke_accounting_and_cache_win():
    report = run_benchmark(smoke=True)
    cells = {c["cell"]: c for c in report["cells"]}
    # honest hit rate: N requests over P patterns -> (N - P) / N ideal;
    # dispatcher races can only lower it, never inflate it
    warm = cells["warm_cache"]
    ideal = (warm["requests"] - SMOKE["patterns"]) / warm["requests"]
    assert 0.5 <= warm["cache_hit_rate"] <= ideal + 1e-9
    assert warm["cache_served"] > 0
    # warm cache must beat the no-cache floor on the identical topology
    assert (
        warm["routed_destinations_per_sec"]
        > cells["cold_clean"]["routed_destinations_per_sec"]
    )
    # chaos: sabotage actually happened, yet nothing was lost and every
    # non-ok response carries a typed error (asserted in measure_cell)
    chaos = cells["cold_chaos"]
    assert chaos["chaos_struck"] >= chaos["requests"] * CHAOS["kill_rate"]
    assert chaos["ok"] + sum(chaos["typed_errors"].values()) == chaos["requests"]
    assert 0 < report["chaos_throughput_ratio"] <= 1.5


if __name__ == "__main__":
    raise SystemExit(main())
