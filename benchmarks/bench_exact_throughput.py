"""Exact-solver throughput benchmark: bitmask kernels vs reference.

Measures solved-instances-per-second for the five registered Chapter 4
exact solvers (omp / omc / oms / omt / steiner) against the preserved
pre-optimization implementations in :mod:`repro.exact.reference`, over
the dissertation-scale matrix 8x8 mesh / 6-cube / 5x5x3 mesh with
|D| in {6, 8, 10}, and writes ``BENCH_exact.json`` at the repo root.

The reference branch-and-bound solvers are *intractable* on much of
this matrix (the reference OMS alone makes ``2^k`` B&B calls per
instance), so every reference solve runs under a SIGALRM wall cap.  A
capped cell records the cap as the reference time and marks
``speedup_is_floor`` — the reported speedup is then an honest lower
bound, not an extrapolation.  Whenever the reference does finish, the
cell asserts cost parity with the fast solver: a speedup that changed
the optimum would be a bug, not a win.

Every cell counts instances per *reference second*: CPU time divided
by the host's slowdown, which ``benchmarks/e2e/hostclock.py`` measures
with a fixed interpreter-bound kernel.  A wall-clock rate read the
host's speed: the same code on a slower or busier host fell below half
the committed rate, and three runs of one full-matrix cell read 935,
609 and 325 instances per wall second.  The wall cap on a reference
solve stays in wall seconds.

The report also carries a fast-solver-only ``smoke_baseline`` section
(tiny matrix) that CI's perf-smoke job compares fresh measurements
against via ``--check-against``, failing on a >2x throughput
regression.

Run directly (``python benchmarks/bench_exact_throughput.py``,
``--smoke`` for the seconds-long CI variant, ``--check-against
BENCH_exact.json`` to enforce the regression gate) or via pytest,
which exercises the smoke matrix and asserts parity plus speedup.
"""

from __future__ import annotations

import contextlib
import math
import os
import platform
import random
import signal
import sys
import zlib
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from repro.cli import parse_topology
from repro.exact import SearchBudgetExceeded, reference
from repro.models.request import random_multicast
from repro.registry import get as get_spec
from conftest import smoke_gate_main
from hostclock import HostClock

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_exact.json"

SOLVERS = ("omp", "omc", "oms", "omt", "steiner")
REFERENCE_FNS = {
    "omp": reference.optimal_multicast_path,
    "omc": reference.optimal_multicast_cycle,
    "oms": reference.optimal_multicast_star_cost,
    "omt": reference.optimal_multicast_tree_cost,
    "steiner": reference.minimal_steiner_tree_cost,
}

FULL = dict(
    topologies=("mesh:8x8", "cube:6", "mesh3d:5x5x3"),
    ks=(6, 8, 10),
    instances=2,
    ref_cap_s=15.0,
    repeats=2,
)
SMOKE = dict(
    topologies=("mesh:8x8",),
    ks=(6,),
    instances=2,
    ref_cap_s=10.0,
    repeats=2,
)

SEED = 20260806


class _WallCapExceeded(Exception):
    pass


@contextlib.contextmanager
def wall_cap(seconds: float):
    """Raise :class:`_WallCapExceeded` in the block after ``seconds``."""

    def handler(signum, frame):
        raise _WallCapExceeded

    old = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _cost(result) -> int:
    """Normalise a solver result (route object or plain cost) to its
    traffic value."""
    return result if isinstance(result, int) else result.traffic


def _requests(topology, k: int, count: int):
    # crc32, not hash(): string hashing is salted per process and would
    # make the workload (and the committed baseline) non-reproducible
    cell_seed = SEED + 1009 * k + zlib.crc32(repr(topology).encode())
    rng = random.Random(cell_seed)
    return [random_multicast(topology, k, rng) for _ in range(count)]


def _reference_seconds():
    """A clock of reference seconds: a fresh :class:`HostClock`'s
    running total, read at a checkpoint."""
    clock = HostClock()
    return lambda: clock.checkpoint()[1]


def _time_fast(fn, requests, repeats: int, now):
    """Best-of-``repeats`` time for solving all requests, on the clock
    ``now``; returns (seconds, costs)."""
    best = float("inf")
    costs = []
    for _ in range(repeats):
        t0 = now()
        costs = [_cost(fn(r)) for r in requests]
        best = min(best, now() - t0)
    return best, costs


def measure_cell(topology, topology_spec: str, k: int, solver: str, params: dict,
                 now) -> dict:
    """One matrix cell, timed on the reference-seconds clock ``now``."""
    requests = _requests(topology, k, params["instances"])
    fast_s, fast_costs = _time_fast(
        get_spec(solver).fn, requests, params["repeats"], now
    )

    cap = params["ref_cap_s"]
    ref_fn = REFERENCE_FNS[solver]
    capped = 0
    parity_checked = 0
    t0 = now()
    for req, fast_cost in zip(requests, fast_costs):
        try:
            with wall_cap(cap):
                ref_cost = _cost(ref_fn(req))
        except (_WallCapExceeded, SearchBudgetExceeded):
            capped += 1
            continue
        parity_checked += 1
        assert ref_cost == fast_cost, (
            f"{solver} parity violation on {topology_spec} k={k}: "
            f"fast={fast_cost} reference={ref_cost}"
        )
    ref_s = now() - t0

    speedup = ref_s / fast_s if fast_s > 0 else float("inf")
    return {
        "topology": topology_spec,
        "k": k,
        "solver": solver,
        "instances": len(requests),
        "fast_ref_s": round(fast_s, 5),
        "fast_per_ref_sec": round(len(requests) / fast_s, 2),
        "reference_ref_s": round(ref_s, 3),
        "ref_capped_instances": capped,
        "speedup": round(speedup, 1),
        "speedup_is_floor": capped > 0,
        "parity_instances": parity_checked,
    }


def _run_matrix(params: dict) -> list[dict]:
    cells = []
    now = _reference_seconds()
    for spec in params["topologies"]:
        topology = parse_topology(spec)
        for k in params["ks"]:
            for solver in SOLVERS:
                cell = measure_cell(topology, spec, k, solver, params, now)
                print(
                    f"{spec:>12} k={k:>2} {solver:>8}: "
                    f"fast {cell['fast_per_ref_sec']:>9.2f}/ref s, "
                    f"speedup {'>=' if cell['speedup_is_floor'] else '':>2}"
                    f"{cell['speedup']:.1f}x",
                    file=sys.stderr,
                )
                cells.append(cell)
    return cells


def _smoke_baseline() -> list[dict]:
    """Fast-solver throughput on the smoke matrix (no reference runs),
    in instances per reference second of the best of the repeats: the
    committed baseline CI compares against."""
    reference_s = _reference_seconds()
    out = []
    for spec in SMOKE["topologies"]:
        topology = parse_topology(spec)
        for k in SMOKE["ks"]:
            for solver in SOLVERS:
                requests = _requests(topology, k, SMOKE["instances"])
                seconds, _ = _time_fast(
                    get_spec(solver).fn, requests, SMOKE["repeats"], reference_s
                )
                out.append(
                    {
                        "topology": spec,
                        "k": k,
                        "solver": solver,
                        "fast_per_ref_sec": round(len(requests) / seconds, 2),
                    }
                )
    return out


def run_benchmark(smoke: bool = False) -> dict:
    params = SMOKE if smoke else FULL
    cells = _run_matrix(params)
    geomean = math.exp(sum(math.log(c["speedup"]) for c in cells) / len(cells))
    report = {
        "benchmark": "bench_exact_throughput",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": {**params, "seed": SEED, "solvers": list(SOLVERS)},
        "cells": cells,
        "geomean_speedup": round(geomean, 1),
        "geomean_is_floor": any(c["speedup_is_floor"] for c in cells),
        "smoke_baseline": _smoke_baseline(),
    }
    return report


def main(argv=None) -> int:
    return smoke_gate_main(
        argv, __doc__, run_benchmark, OUTPUT, ("topology", "k", "solver"), "fast_per_ref_sec"
    )


# ----------------------------------------------------------------------
# pytest entry point (collected via the bench_*.py pattern): the smoke
# matrix must show the bitmask solvers ahead with matching optima.
# ----------------------------------------------------------------------

def test_bitmask_solvers_beat_reference_smoke():
    report = run_benchmark(smoke=True)
    assert report["geomean_speedup"] > 2.0
    # every uncapped reference solve agreed with the fast solver
    # (measure_cell asserts pairwise parity internally)
    assert any(c["parity_instances"] > 0 for c in report["cells"])


if __name__ == "__main__":
    raise SystemExit(main())
