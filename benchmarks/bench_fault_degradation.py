"""Fault-degradation benchmark: delivery under injected link faults.

Sweeps fault-tolerant schemes (``dual-path``, ``dual-path-adaptive``
— detour routing at injection, adaptive detours in flight, bounded
source retry) and the non-fault-tolerant ``fixed-path`` baseline
across permanent link-fault rates, and writes ``BENCH_faults.json``
at the repo root (``--smoke`` writes to the system's temporary
directory instead, never over that committed full-mode record).

Every (scheme, rate) point runs several independent replications
through :func:`repro.experiments.fault_degradation`, the study
``python -m repro faults`` runs too.  Replications are seed-paired across schemes: the same base seed
produces the same fault schedule (the fault RNG derives from the
traffic seed but draws independently), so schemes face *identical*
failures and the delivery gap is attributable to the routing, not the
draw.

The report records, per point: delivery ratio (delivered /
expected destination-deliveries), pooled delivered-message latency,
killed worms, retransmissions, and adaptive detours.  Two structural
claims are asserted while measuring — at rate 0 every scheme delivers
everything (the fault machinery is inert), and at the highest rate the
fault-tolerant schemes deliver strictly more than the fixed path
(the §8.2 robustness claim, dynamically).

Run directly (``python benchmarks/bench_fault_degradation.py``,
``--smoke`` for a seconds-long CI variant) or via pytest
(``pytest benchmarks/bench_fault_degradation.py``), which exercises
the smoke workload and asserts both claims.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import fault_degradation
from repro.parallel import SweepError
from repro.sim import SimConfig
from repro.topology import Mesh2D

REPO_ROOT = Path(__file__).resolve().parent.parent
#: the committed full-mode record
OUTPUT = REPO_ROOT / "BENCH_faults.json"
#: where a smoke run writes without ``--output``
SMOKE_OUTPUT = Path(tempfile.gettempdir()) / "BENCH_faults.smoke.json"

SCHEMES = ("dual-path", "dual-path-adaptive", "fixed-path")
FAULT_TOLERANT = ("dual-path", "dual-path-adaptive")

FULL = dict(
    mesh=(8, 8), messages=400, interarrival_us=500,
    rates=(0.0, 0.02, 0.05, 0.1, 0.15), replications=3,
)
SMOKE = dict(
    mesh=(6, 6), messages=120, interarrival_us=500,
    rates=(0.0, 0.05), replications=1,
)


def run_benchmark(smoke: bool = False, workers: int | None = None) -> dict:
    params = SMOKE if smoke else FULL
    rates = params["rates"]
    replicas = [
        SimConfig(
            num_messages=params["messages"],
            num_destinations=10,
            mean_interarrival=params["interarrival_us"] * 1e-6,
            channels_per_link=2,
            seed=100 + r,
        )
        for r in range(params["replications"])
    ]
    records, failures = fault_degradation(
        Mesh2D(*params["mesh"]), SCHEMES, rates, replicas, workers=workers
    )
    if failures:
        raise SweepError(failures)

    curves: dict = {scheme: [] for scheme in SCHEMES}
    for r in records:
        latency = r["mean_latency_us"]
        curves[r["scheme"]].append({
            "fault_rate": r["fault_rate"],
            "delivery_ratio": round(r["delivery_ratio"], 4),
            "delivered": r["delivered"],
            "expected": r["expected"],
            "latency_us": None if math.isnan(latency) else round(latency, 2),
            "killed_worms": r["killed_worms"],
            "retries": r["retries"],
            "detoured": r["detoured"],
        })

    # structural claims measured above; a report that violated them
    # would be describing a broken simulator, not a degradation curve
    for scheme in SCHEMES:
        assert curves[scheme][0]["delivery_ratio"] == 1.0, (
            f"{scheme} dropped deliveries at fault rate 0"
        )
    worst = len(rates) - 1
    fixed = curves["fixed-path"][worst]["delivery_ratio"]
    ft_beats_fixed = all(
        curves[s][worst]["delivery_ratio"] > fixed for s in FAULT_TOLERANT
    )
    assert ft_beats_fixed, "fault-tolerant schemes did not beat fixed-path"

    return {
        "benchmark": "bench_fault_degradation",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": {
            "topology": f"mesh:{params['mesh'][0]}x{params['mesh'][1]}",
            "schemes": list(SCHEMES),
            "fault_rates": list(rates),
            "messages": params["messages"],
            "interarrival_us": params["interarrival_us"],
            "replications": params["replications"],
            "fault_model": "permanent link faults, paired schedules",
        },
        "curves": curves,
        "ft_beats_fixed_at_worst_rate": ft_beats_fixed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long CI variant of the workload")
    parser.add_argument("--workers", type=int, default=None,
                        help="sweep workers (default: cpu count)")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"where to write the JSON report (default {OUTPUT}, "
                             f"or {SMOKE_OUTPUT} with --smoke)")
    args = parser.parse_args(argv)
    output = args.output or (SMOKE_OUTPUT if args.smoke else OUTPUT)
    report = run_benchmark(smoke=args.smoke, workers=args.workers)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {output}")
    return 0


# ----------------------------------------------------------------------
# pytest entry point (collected via the bench_*.py pattern): the smoke
# workload must show clean zero-rate delivery and the FT advantage.
# ----------------------------------------------------------------------

def test_fault_tolerant_schemes_degrade_gracefully():
    report = run_benchmark(smoke=True, workers=2)
    assert report["ft_beats_fixed_at_worst_rate"]
    for scheme in SCHEMES:
        assert report["curves"][scheme][0]["delivery_ratio"] == 1.0


if __name__ == "__main__":
    raise SystemExit(main())
