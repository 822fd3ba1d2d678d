#!/usr/bin/env python
"""Regenerate every Chapter 7 figure.

Runs all eleven experiments through :mod:`repro.experiments` and
prints each measured table at the figure functions' default
replication (``SCALE = 1.0``) — the same tables the
``benchmarks/bench_fig7_*`` scripts archive and check against the
paper's shapes.  Lower ``SCALE`` (or use
``python -m repro reproduce <fig> --scale 0.2``) for a quicker, noisier
pass.

Run:  python examples/reproduce_figures.py
"""

from __future__ import annotations

import time

from repro.experiments import EXPERIMENTS, reproduce

SCALE = 1.0


def main() -> None:
    t0 = time.time()
    for name in EXPERIMENTS:
        result = reproduce(name, scale=SCALE)
        print(result.as_table())
        print()
    print(f"(all figures regenerated at scale {SCALE} in {time.time() - t0:.1f}s; "
          "benchmarks/bench_fig7_*.py assert the paper's shapes on them)")


if __name__ == "__main__":
    main()
