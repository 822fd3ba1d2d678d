"""Fig. 7.6 — additional traffic of the deadlock-free multicast
methods (dual-path, multi-path, fixed-path) on a 6-cube.

Paper shape: multi-path <= dual-path <= fixed-path (the static
efficiency ordering; the dynamic study later reverses part of it under
load).  The figure is defined by :func:`repro.experiments.fig_7_6`."""

from __future__ import annotations

from conftest import SCALE

from repro.experiments import reproduce


def test_fig7_6_cube_static(benchmark, emit):
    result = benchmark.pedantic(
        reproduce, args=("fig7.6",), kwargs={"scale": SCALE}, rounds=1, iterations=1
    )
    emit("fig7_06_cube_static", result.description,
         [result.parameter, *result.columns], result.rows)
    multi, dual, fixed = (result.series(c) for c in ("multi-path", "dual-path", "fixed-path"))
    for m, d, f in zip(multi, dual, fixed):
        # on the hypercube dual and multi are statically close (label
        # bucketing can forfeit prefix sharing at small k); both stay
        # well below fixed-path
        assert m <= d * 1.25
        assert d <= f * 1.02
