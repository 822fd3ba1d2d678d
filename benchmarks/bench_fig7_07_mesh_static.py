"""Fig. 7.7 — additional traffic of dual-path, multi-path and
fixed-path routing on an 8x8 mesh for varying destination counts.

Paper shape: multi-path <= dual-path <= fixed-path, with the gap
between fixed and the others shrinking as the destination set grows
(fixed-path wastes fewer of its forced hops when destinations are
dense).  The figure is defined by :func:`repro.experiments.fig_7_7`.
"""

from __future__ import annotations

from conftest import SCALE

from repro.experiments import reproduce


def test_fig7_7_mesh_static(benchmark, emit):
    result = benchmark.pedantic(
        reproduce, args=("fig7.7",), kwargs={"scale": SCALE}, rounds=1, iterations=1
    )
    emit("fig7_07_mesh_static", result.description,
         [result.parameter, *result.columns], result.rows)
    multi, dual, fixed = (result.series(c) for c in ("multi-path", "dual-path", "fixed-path"))
    for m, d, f in zip(multi, dual, fixed):
        assert m <= d * 1.02
        assert d <= f * 1.02
    # the fixed-vs-dual gap shrinks with k
    assert fixed[-1] - dual[-1] <= fixed[0] - dual[0]
