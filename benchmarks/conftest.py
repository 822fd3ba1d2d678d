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
"""

from __future__ import annotations

import os
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
