"""Shared infrastructure for the figure-reproduction benchmarks.

Every benchmark regenerates one table or figure of the dissertation:
it computes the figure's data series once (timed by pytest-benchmark),
prints the rows, and archives them under ``benchmarks/results/`` so
EXPERIMENTS.md can reference the measured numbers.  The Chapter 7
figures are defined once, in :mod:`repro.experiments`; their
``bench_fig7_*`` scripts run them through
:func:`repro.experiments.reproduce` and assert the paper's shape
claims on the result.

Run everything with::

    pytest benchmarks/ --benchmark-only

The dissertation averaged each static data point over 1000 random
multicast sets and simulated dynamic points to a 5% confidence
interval; the benchmarks use reduced replication (documented per
benchmark) to keep the suite's wall-clock time reasonable.  Increase
``REPRO_SCALE`` (environment variable, default 1.0) to tighten; the
figure scripts pass it to ``reproduce`` as ``scale``, the same rule as
``python -m repro reproduce --scale``.

The throughput benchmarks with a committed baseline (dense engine,
exact solvers, routing service) share one command line,
:func:`smoke_gate_main`, whose ``--check-against`` is CI's regression
gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import pytest

from repro.experiments import ExperimentResult

RESULTS_DIR = Path(__file__).parent / "results"
SCALE = float(os.environ.get("REPRO_SCALE", "1.0"))


def scaled(n: int, minimum: int = 2) -> int:
    """Scale a replication count by REPRO_SCALE."""
    return max(minimum, int(n * SCALE))


@pytest.fixture
def emit():
    """Print a result table and archive it under benchmarks/results/."""

    def _emit(name: str, title: str, header: list[str], rows: list) -> None:
        text = ExperimentResult(name, title, header[0], tuple(header[1:]), tuple(rows)).as_table()
        print("\n" + text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit


def check_against(
    report: dict, baseline_path: Path, key: tuple, field: str, max_slowdown: float = 2.0
) -> int:
    """CI regression gate: the ``field`` throughput of every
    ``smoke_baseline`` cell of ``report`` must be within
    ``max_slowdown`` of the committed baseline's cell with the same
    ``key`` fields.  Returns the exit status: 1 on a regression."""
    baseline = json.loads(baseline_path.read_text())
    base_cells = {tuple(c[k] for k in key): c[field] for c in baseline["smoke_baseline"]}
    failures = []
    for cell in report["smoke_baseline"]:
        name = tuple(cell[k] for k in key)
        base = base_cells.get(name)
        if base is not None and cell[field] * max_slowdown < base:
            failures.append(
                f"{name}: {field} {cell[field]} vs baseline {base} (>{max_slowdown}x regression)"
            )
    for failure in failures:
        print(f"REGRESSION {failure}", file=sys.stderr)
    if not failures:
        print(
            f"{field} within {max_slowdown}x of {baseline_path.name} "
            f"for all {len(report['smoke_baseline'])} smoke cells"
        )
    return 1 if failures else 0


def smoke_gate_main(argv, doc: str, run_benchmark, output: Path, key: tuple, field: str) -> int:
    """The command line of a gated throughput benchmark: ``--smoke``
    runs ``run_benchmark(smoke=True)``, the JSON report goes to
    ``--output`` (default ``output``), and ``--check-against BASELINE``
    exits with :func:`check_against`'s status."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long CI variant of the workload")
    parser.add_argument("--output", type=Path, default=output,
                        help=f"where to write the JSON report (default {output})")
    parser.add_argument("--check-against", type=Path, default=None,
                        help="compare smoke throughput against a committed "
                             "report; exit 1 on a >2x regression")
    args = parser.parse_args(argv)
    report = run_benchmark(smoke=args.smoke)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}")
    if args.check_against is not None:
        return check_against(report, args.check_against, key, field)
    return 0
