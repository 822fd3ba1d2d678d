"""Programmatic regeneration of the dissertation's experiments.

Each function reproduces one figure of Chapter 7 and returns an
:class:`ExperimentResult` — the series the paper plots, as data.  This
module is the only place a figure is defined: the
``benchmarks/bench_fig7_*`` scripts run these functions through
:func:`reproduce` and assert the paper's shape claims on the result,
and downstream users can rerun any experiment at any scale::

    from repro.experiments import fig_7_9
    result = fig_7_9(messages_per_point=500)
    print(result.as_table())

or from the command line::

    python -m repro reproduce fig7.9 --scale 1.0

:func:`fault_degradation` is likewise the one definition of the §8.2
fault-degradation study, which ``python -m repro faults`` and
``benchmarks/bench_fault_degradation.py`` run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from statistics import mean
from collections.abc import Callable

from .models import random_multicast
from .registry import get as get_spec
from .sim import SimConfig, run_dynamic
from .topology import Hypercube, Mesh2D


def _algos(labels: dict[str, str]) -> dict[str, Callable]:
    """Resolve figure-legend labels to route functions by registry
    name, so every figure runs exactly what the catalogue registers."""
    return {label: get_spec(name).fn for label, name in labels.items()}


@dataclass(frozen=True)
class ExperimentResult:
    """One regenerated figure: labelled columns over a swept parameter."""

    experiment: str
    description: str
    parameter: str
    columns: tuple
    rows: tuple  # tuple of (param_value, v1, v2, ...)

    def series(self, column: str) -> list:
        """One column, or the swept parameter itself, as a list
        aligned with the parameter sweep."""
        i = 0 if column == self.parameter else self.columns.index(column) + 1
        return [row[i] for row in self.rows]

    def as_table(self) -> str:
        header = [self.parameter, *self.columns]
        widths = [
            max([len(h), *(len(_fmt(r[i])) for r in self.rows)])
            for i, h in enumerate(header)
        ]
        lines = [self.description, ""]
        lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(_fmt(v).rjust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)


def _fmt(v) -> str:
    return f"{v:.2f}" if isinstance(v, float) else str(v)


def _static_sweep(topology, algorithms, ks, runs_per_point, seed=10_000):
    rows = []
    for k in ks:
        runs = max(3, runs_per_point * 10 // max(10, k))
        rng = random.Random(seed + k)
        requests = [random_multicast(topology, k, rng) for _ in range(runs)]
        row = [k]
        for algo in algorithms.values():
            row.append(mean(algo(r).traffic - k for r in requests))
        rows.append(tuple(row))
    return tuple(rows)


def _dynamic_sweep(topology, schemes, param_name, values, cfg_for, messages):
    rows = []
    for value in values:
        cfg = cfg_for(value).replace(num_messages=messages)
        row = [value]
        for scheme in schemes:
            row.append(run_dynamic(topology, scheme, cfg).mean_latency * 1e6)
        rows.append(tuple(row))
    return tuple(rows)


# ----------------------------------------------------------------------
# Static study (Figs. 7.1-7.7)
# ----------------------------------------------------------------------


def fig_7_1(runs_per_point: int = 30) -> ExperimentResult:
    """Sorted MP vs baselines on a 32x32 mesh (additional traffic)."""
    algos = _algos({
        "sorted-MP": "sorted-mp",
        "multi-unicast": "multi-unicast",
        "broadcast": "broadcast",
    })
    return ExperimentResult(
        "fig7.1", "Fig 7.1: additional traffic, 32x32 mesh (1023 = broadcast cap)", "k",
        tuple(algos), _static_sweep(Mesh2D(32, 32), algos, (10, 50, 100, 200, 400, 600, 900), runs_per_point),
    )


def fig_7_2(runs_per_point: int = 30) -> ExperimentResult:
    """Sorted MP vs baselines on a 10-cube."""
    algos = _algos({
        "sorted-MP": "sorted-mp",
        "multi-unicast": "multi-unicast",
        "broadcast": "broadcast",
    })
    return ExperimentResult(
        "fig7.2", "Fig 7.2: additional traffic, 10-cube", "k",
        tuple(algos), _static_sweep(Hypercube(10), algos, (10, 50, 100, 200, 400, 600, 900), runs_per_point),
    )


def fig_7_3(runs_per_point: int = 20) -> ExperimentResult:
    """Greedy ST vs baselines on a 32x32 mesh."""
    algos = _algos({
        "greedy-ST": "greedy-st",
        "multi-unicast": "multi-unicast",
        "broadcast": "broadcast",
    })
    return ExperimentResult(
        "fig7.3", "Fig 7.3: additional traffic, 32x32 mesh", "k",
        tuple(algos), _static_sweep(Mesh2D(32, 32), algos, (10, 50, 100, 200, 400, 700), runs_per_point),
    )


def fig_7_4(runs_per_point: int = 20) -> ExperimentResult:
    """Greedy ST vs LEN on a 10-cube."""
    algos = _algos({
        "greedy-ST": "greedy-st",
        "LEN": "len",
        "multi-unicast": "multi-unicast",
    })
    return ExperimentResult(
        "fig7.4", "Fig 7.4: additional traffic, 10-cube (greedy ST vs LEN)", "k",
        tuple(algos), _static_sweep(Hypercube(10), algos, (10, 50, 100, 200, 400, 700), runs_per_point),
    )


def fig_7_5(runs_per_point: int = 40) -> ExperimentResult:
    """X-first and divided greedy MT on a 16x16 mesh."""
    algos = _algos({
        "divided-greedy": "divided-greedy",
        "X-first": "xfirst",
        "multi-unicast": "multi-unicast",
        "broadcast": "broadcast",
    })
    return ExperimentResult(
        "fig7.5", "Fig 7.5: additional traffic, 16x16 mesh (multicast tree model)", "k",
        tuple(algos), _static_sweep(Mesh2D(16, 16), algos, (5, 10, 25, 50, 100, 180), runs_per_point),
    )


def fig_7_6(runs_per_point: int = 60) -> ExperimentResult:
    """Multicast star methods on a 6-cube."""
    algos = _algos({
        "multi-path": "multi-path",
        "dual-path": "dual-path",
        "fixed-path": "fixed-path",
    })
    return ExperimentResult(
        "fig7.6", "Fig 7.6: additional traffic, 6-cube (star methods)", "k",
        tuple(algos), _static_sweep(Hypercube(6), algos, (2, 5, 10, 20, 35, 50), runs_per_point),
    )


def fig_7_7(runs_per_point: int = 60) -> ExperimentResult:
    """Multicast star methods on an 8x8 mesh."""
    algos = _algos({
        "multi-path": "multi-path",
        "dual-path": "dual-path",
        "fixed-path": "fixed-path",
    })
    return ExperimentResult(
        "fig7.7", "Fig 7.7: additional traffic, 8x8 mesh (star methods)", "k",
        tuple(algos), _static_sweep(Mesh2D(8, 8), algos, (2, 5, 10, 20, 35, 50), runs_per_point),
    )


# ----------------------------------------------------------------------
# Dynamic study (Figs. 7.8-7.11)
# ----------------------------------------------------------------------


def fig_7_8(messages_per_point: int = 400) -> ExperimentResult:
    """Latency vs load on a double-channel 8x8 mesh (tree vs paths)."""
    schemes = ("tree-xfirst", "dual-path", "multi-path")
    rows = _dynamic_sweep(
        Mesh2D(8, 8), schemes, "interarrival_us",
        (2000, 1000, 500, 300, 200, 150),
        lambda ia: SimConfig(
            num_destinations=10, mean_interarrival=ia * 1e-6,
            channels_per_link=2, seed=42,
        ),
        messages_per_point,
    )
    return ExperimentResult(
        "fig7.8",
        "Fig 7.8: latency (us) vs inter-arrival time (us), double-channel 8x8 mesh, 10 dests",
        "interarrival_us", schemes, rows,
    )


def fig_7_9(messages_per_point: int = 400) -> ExperimentResult:
    """Latency vs destination count on a double-channel 8x8 mesh."""
    schemes = ("tree-xfirst", "dual-path", "multi-path")
    rows = _dynamic_sweep(
        Mesh2D(8, 8), schemes, "k", (1, 5, 10, 20, 30, 45),
        lambda k: SimConfig(
            num_destinations=k, mean_interarrival=300e-6,
            channels_per_link=2, seed=42,
        ),
        messages_per_point,
    )
    return ExperimentResult(
        "fig7.9",
        "Fig 7.9: latency (us) vs destinations, double-channel 8x8 mesh, 300us interarrival",
        "k", schemes, rows,
    )


def fig_7_10(messages_per_point: int = 400) -> ExperimentResult:
    """Latency vs load on a single-channel 8x8 mesh (dual vs multi)."""
    schemes = ("dual-path", "multi-path")
    rows = _dynamic_sweep(
        Mesh2D(8, 8), schemes, "interarrival_us",
        (2000, 1000, 500, 300, 200, 150),
        lambda ia: SimConfig(
            num_destinations=10, mean_interarrival=ia * 1e-6, seed=42
        ),
        messages_per_point,
    )
    return ExperimentResult(
        "fig7.10",
        "Fig 7.10: latency (us) vs inter-arrival time (us), single-channel 8x8 mesh, 10 dests",
        "interarrival_us", schemes, rows,
    )


def fig_7_11(messages_per_point: int = 400) -> ExperimentResult:
    """Latency vs destination count under load (the hot-spot figure)."""
    schemes = ("dual-path", "multi-path", "fixed-path")
    rows = _dynamic_sweep(
        Mesh2D(8, 8), schemes, "k", (5, 15, 30, 45),
        lambda k: SimConfig(
            num_destinations=k, mean_interarrival=400e-6, seed=42
        ),
        messages_per_point,
    )
    return ExperimentResult(
        "fig7.11",
        "Fig 7.11: latency (us) vs destinations, single-channel 8x8 mesh, 400us interarrival",
        "k", schemes, rows,
    )


def fault_degradation(topology, schemes, rates, replicas, **sweep) -> tuple[list[dict], list]:
    """The §8.2 fault-degradation study: each scheme's delivery and
    latency under each link-fault rate.

    Every (scheme, rate) point runs one resilient job per config in
    ``replicas`` (distinct seeds, e.g. from :func:`repro.parallel.replicate`),
    with its ``link_fault_rate`` set to the rate, so every scheme faces
    the same traffic and fault schedule at a rate.  ``sweep`` goes to
    :func:`repro.parallel.run_sweep`, which records failing jobs.

    Returns one record per point, in (scheme, rate) order — delivered
    and expected deliveries and their ratio, the pooled latency and CI
    half-width in µs (NaN when nothing pools), killed worms, retries,
    detours, and replications ok and failed — and the failures.
    """
    # imported here, so that the figure functions pay nothing for it
    from .parallel import NoResultsError, SweepJob, pooled_latency, run_sweep

    points = [(scheme, rate) for scheme in schemes for rate in rates]
    jobs = [
        SweepJob(topology, scheme, cfg.replace(link_fault_rate=rate), "resilient")
        for scheme, rate in points
        for cfg in replicas
    ]
    failures: list = []
    results = run_sweep(jobs, on_error="record", failures=failures, **sweep)
    n = len(replicas)
    records = []
    for i, (scheme, rate) in enumerate(points):
        ok = [r for r in results[i * n:(i + 1) * n] if r is not None]
        delivered = sum(r.stats.delivered for r in ok)
        expected = sum(r.expected_deliveries for r in ok)
        try:
            pooled = pooled_latency(ok, failures)
            mean_us, ci_us = pooled.mean * 1e6, pooled.ci_halfwidth * 1e6
        except NoResultsError:
            mean_us = ci_us = float("nan")
        records.append({
            "scheme": scheme,
            "fault_rate": rate,
            "delivery_ratio": delivered / expected if expected else float("nan"),
            "mean_latency_us": mean_us,
            "ci_halfwidth_us": ci_us,
            "delivered": delivered,
            "expected": expected,
            "killed_worms": sum(r.stats.killed_worms for r in ok),
            "retries": sum(r.stats.retries for r in ok),
            "detoured": sum(r.stats.detoured for r in ok),
            "replications_ok": len(ok),
            "replications_failed": n - len(ok),
        })
    return records, failures


EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig7.1": fig_7_1,
    "fig7.2": fig_7_2,
    "fig7.3": fig_7_3,
    "fig7.4": fig_7_4,
    "fig7.5": fig_7_5,
    "fig7.6": fig_7_6,
    "fig7.7": fig_7_7,
    "fig7.8": fig_7_8,
    "fig7.9": fig_7_9,
    "fig7.10": fig_7_10,
    "fig7.11": fig_7_11,
}


def reproduce(name: str, scale: float = 1.0) -> ExperimentResult:
    """Regenerate one experiment by name, scaling replication.

    ``scale`` multiplies the figure's base count, with a floor of 3:
    runs per point for Figs 7.1-7.7 (each k then draws
    ``max(3, runs * 10 // max(10, k))`` multicast sets) and messages per
    point for Figs 7.8-7.11.  ``repro reproduce --scale`` and the
    ``bench_fig7_*`` scripts' ``REPRO_SCALE`` both apply this rule."""
    fn = EXPERIMENTS.get(name)
    if fn is None:
        raise KeyError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    import inspect

    param = next(iter(inspect.signature(fn).parameters.values()))
    return fn(max(3, int(param.default * scale)))
